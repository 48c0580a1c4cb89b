//! Multicast and reduction trees on the torus (Sec. IV-D, Fig. 18).
//!
//! Sending a value from one tile to many (or reducing many partials into
//! one) with point-to-point messages wastes links and serializes at the
//! source. Azul's compiler instead builds *communication trees*: the union
//! of dimension-order (X-then-Y) routes from the root to every destination
//! forms a tree in which each link is used exactly once, and intermediate
//! tiles forward (multicast) or combine (reduction) values.
//!
//! A compiled program holds thousands of trees, and routers read them on
//! every cycle, so every tree of a program lives in one [`TreeTable`]:
//! flat node and destination arrays with a range per tree. A
//! [`CommTree`] is a borrowed view of one tree in such a table.

use crate::grid::{Direction, TileGrid, TileId};

/// Every tree of a program, in one flat table.
///
/// A tree's rows are a contiguous run of the node array, one per tree
/// tile, sorted by tile id, holding the tile's parent, its children (at
/// most four, one per direction) and the direction of each link; its
/// destinations are a sorted run of the destination array. A lookup is
/// one binary search within the run. [`TreeTable::push`] builds a tree
/// in place, reusing the table's scratch buffers, so filling a table
/// allocates only as its arrays grow.
#[derive(Debug, Clone)]
pub struct TreeTable {
    grid: TileGrid,
    /// Per tree: its root and its runs of `nodes` and `dests`.
    spans: Vec<Span>,
    nodes: Vec<Node>,
    dests: Vec<TileId>,
    scratch: Scratch,
}

/// One tree's root and its runs of the table's arrays.
#[derive(Debug, Clone, Copy)]
struct Span {
    root: TileId,
    nodes: (u32, u32),
    dests: (u32, u32),
}

/// Buffers [`TreeTable::push`] reuses from tree to tree.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The destination set, sorted and deduplicated, without the root.
    uniq: Vec<TileId>,
    /// Node index of the tile `k` steps along the root's row, east / west.
    row: [Vec<u32>; 2],
    /// Per column, south / north: steps reached and the last node.
    col: Vec<[(usize, u32); 2]>,
}

/// A communication tree rooted at one tile, spanning a destination set:
/// a borrowed view of one tree of a [`TreeTable`].
///
/// For a multicast, data flows root → leaves; for a reduction the same
/// tree is used leaves → root, with intermediate tiles combining partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommTree<'a> {
    root: TileId,
    /// Every tile of the tree (root, forwarders, leaves), sorted by tile.
    nodes: &'a [Node],
    /// Destination (participant) tiles, sorted.
    dests: &'a [TileId],
}

/// One tree tile's row in a [`TreeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    tile: TileId,
    /// Parent and the direction of the link up to it; `None` at the root.
    up: Option<(TileId, Direction)>,
    /// Children in the order the routes first reached them; the first
    /// `kid_len` entries are used.
    kids: [TileId; 4],
    /// Direction of the link to each child.
    kid_dirs: [Direction; 4],
    kid_len: u8,
    is_dest: bool,
}

impl Node {
    fn new(tile: TileId, up: Option<(TileId, Direction)>) -> Self {
        Node {
            tile,
            up,
            kids: [0; 4],
            kid_dirs: [Direction::East; 4],
            kid_len: 0,
            is_dest: false,
        }
    }

    fn view(&self) -> TreeNode<'_> {
        let len = self.kid_len as usize;
        TreeNode {
            tile: self.tile,
            children: &self.kids[..len],
            child_dirs: &self.kid_dirs[..len],
            up: self.up,
            is_dest: self.is_dest,
        }
    }
}

/// A tree tile's links, as a router reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeNode<'a> {
    /// The tile.
    pub tile: TileId,
    /// Children, in the order the tree's routes first reached them.
    pub children: &'a [TileId],
    /// Direction of the link to each child (parallel to `children`).
    pub child_dirs: &'a [Direction],
    /// Parent and the direction of the link up to it; `None` at the root.
    pub up: Option<(TileId, Direction)>,
    /// Whether the tile is a destination.
    pub is_dest: bool,
}

/// Appends tile `child` to the node table below node `parent`, linked
/// in direction `dir`; returns the new node's index.
fn push_child(
    nodes: &mut Vec<Node>,
    grid: TileGrid,
    parent: u32,
    child: usize,
    dir: Direction,
) -> u32 {
    let p = &mut nodes[parent as usize];
    p.kids[p.kid_len as usize] = child as TileId;
    p.kid_dirs[p.kid_len as usize] = grid.link_direction(dir);
    p.kid_len += 1;
    let up = (p.tile, grid.link_direction(dir.opposite()));
    nodes.push(Node::new(child as TileId, Some(up)));
    (nodes.len() - 1) as u32
}

/// Tile `k` steps from `origin` along a ring of `n` tiles, forward
/// (`+`) or backward. `k < n` for every step of a shortest route.
fn ring_step(origin: usize, k: usize, forward: bool, n: usize) -> usize {
    let t = if forward { origin + k } else { origin + n - k };
    if t >= n {
        t - n
    } else {
        t
    }
}

impl TreeTable {
    /// An empty table of trees on `grid`.
    pub fn new(grid: TileGrid) -> Self {
        TreeTable {
            grid,
            spans: Vec::new(),
            nodes: Vec::new(),
            dests: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// A table holding the one tree from `root` to `dests`, id 0.
    pub fn single(grid: TileGrid, root: TileId, dests: &[TileId]) -> Self {
        let mut table = TreeTable::new(grid);
        table.push(root, dests);
        table
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the table holds no tree.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Tree `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn tree(&self, id: u32) -> CommTree<'_> {
        let s = self.spans[id as usize];
        CommTree {
            root: s.root,
            nodes: &self.nodes[s.nodes.0 as usize..s.nodes.1 as usize],
            dests: &self.dests[s.dests.0 as usize..s.dests.1 as usize],
        }
    }

    /// Releases the arrays' spare capacity and the build scratch: a
    /// filled program table lives as long as its program.
    pub fn shrink_to_fit(&mut self) {
        self.spans.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.dests.shrink_to_fit();
        self.scratch = Scratch::default();
    }

    /// Builds the XY-route tree from `root` to `dests`, appends it and
    /// returns its id.
    ///
    /// Duplicate destinations and the root itself are tolerated (the root
    /// is dropped from the destination set — it already has the value).
    pub fn push(&mut self, root: TileId, dests: &[TileId]) -> u32 {
        let grid = self.grid;
        let Scratch { uniq, row, col } = &mut self.scratch;
        uniq.clear();
        uniq.extend(dests.iter().copied().filter(|&d| d != root));
        uniq.sort_unstable();
        uniq.dedup();
        col.clear();
        col.resize(grid.width(), [(0, 0); 2]);

        // Each tile of an XY route from `root` is named by its step: the
        // k-th along root's row (east or west), or the k-th along the
        // destination's column (south or north) after the row part.
        // Distinct steps name distinct tiles (shortest offsets never wrap
        // a ring), so routes from one root share exactly a prefix, and
        // steps beyond how far the tree already reaches in that row or
        // column direction are new. The walk appends new tiles in the
        // order routes reach them, so each parent's children keep that
        // order, then one sort orders the tree's rows by tile.
        let (w, h) = (grid.width(), grid.height());
        let (rx, ry) = grid.coord(root);
        let nodes = &mut self.nodes;
        let start = nodes.len();
        let root_ix = start as u32;
        nodes.push(Node::new(root, None));
        for r in row.iter_mut() {
            r.clear();
            r.push(root_ix);
        }
        for &d in uniq.iter() {
            let (dx, dy) = grid.offset((rx, ry), d);
            let (east, south) = (dx >= 0, dy >= 0);
            let (nx, ny) = (dx.unsigned_abs(), dy.unsigned_abs());
            let x_dir = if east {
                Direction::East
            } else {
                Direction::West
            };
            let row_nodes = &mut row[usize::from(!east)];
            for k in row_nodes.len()..=nx {
                let child = ry * w + ring_step(rx, k, east, w);
                let parent = row_nodes[k - 1];
                row_nodes.push(push_child(nodes, grid, parent, child, x_dir));
            }
            let cx = ring_step(rx, nx, east, w);
            let y_dir = if south {
                Direction::South
            } else {
                Direction::North
            };
            let (reach, last) = &mut col[cx][usize::from(!south)];
            if *reach == 0 {
                *last = row_nodes[nx];
            }
            for k in *reach + 1..=ny {
                let child = ring_step(ry, k, south, h) * w + cx;
                *last = push_child(nodes, grid, *last, child, y_dir);
            }
            *reach = (*reach).max(ny);
        }
        let tree_nodes = &mut nodes[start..];
        tree_nodes.sort_unstable_by_key(|n| n.tile);
        let mut di = 0usize;
        for n in tree_nodes {
            while di < uniq.len() && uniq[di] < n.tile {
                di += 1;
            }
            n.is_dest = uniq.get(di) == Some(&n.tile);
        }
        let dest_start = self.dests.len();
        self.dests.extend_from_slice(uniq);
        self.spans.push(Span {
            root,
            nodes: (start as u32, self.nodes.len() as u32),
            dests: (dest_start as u32, self.dests.len() as u32),
        });
        (self.spans.len() - 1) as u32
    }
}

impl<'a> CommTree<'a> {
    /// The root tile.
    pub fn root(&self) -> TileId {
        self.root
    }

    /// The destination (participant) tiles, sorted, excluding the root.
    pub fn dests(&self) -> &'a [TileId] {
        self.dests
    }

    /// Whether `t` is a destination.
    pub fn is_dest(&self, t: TileId) -> bool {
        self.dests.binary_search(&t).is_ok()
    }

    /// The links of tree tile `t`, or `None` for tiles outside the tree.
    pub fn node(&self, t: TileId) -> Option<TreeNode<'a>> {
        let k = self.nodes.binary_search_by_key(&t, |n| n.tile).ok()?;
        Some(self.nodes[k].view())
    }

    /// Every tree tile's links, in tile order.
    pub fn nodes(&self) -> impl Iterator<Item = TreeNode<'a>> + 'a {
        self.nodes.iter().map(Node::view)
    }

    /// Children of `t` in the tree (empty for leaves and tiles outside the
    /// tree).
    pub fn children_of(&self, t: TileId) -> &'a [TileId] {
        self.node(t).map_or(&[], |n| n.children)
    }

    /// Parent of `t`, or `None` for the root / tiles outside the tree.
    pub fn parent_of(&self, t: TileId) -> Option<TileId> {
        self.node(t)?.up.map(|(p, _)| p)
    }

    /// Number of tree links; one multicast traverses each exactly once.
    pub fn num_links(&self) -> usize {
        self.nodes.len() - 1
    }

    /// All tiles that participate in the tree (root, forwarders, leaves).
    pub fn tiles(&self) -> Vec<TileId> {
        self.nodes.iter().map(|n| n.tile).collect()
    }

    /// Iterates over directed links `(parent, child)`, by parent tile.
    pub fn iter_links(&self) -> impl Iterator<Item = (TileId, TileId)> + 'a {
        self.nodes()
            .flat_map(|n| n.children.iter().map(move |&c| (n.tile, c)))
    }

    /// For a reduction: the number of inputs each participating tile must
    /// combine before forwarding up (children contributions plus one if
    /// the tile is itself a destination/leaf contributor).
    pub fn reduction_fan_in(&self, t: TileId) -> usize {
        self.children_of(t).len() + usize::from(self.is_dest(t) || t == self.root)
    }
}

/// Total links used by naive point-to-point sends from `root` to `dests`
/// (for comparison against trees, as in Fig. 18).
pub fn point_to_point_hops(grid: TileGrid, root: TileId, dests: &[TileId]) -> usize {
    dests
        .iter()
        .filter(|&&d| d != root)
        .map(|&d| grid.distance(root, d))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn tree_to_single_dest_is_a_path() {
        let g = TileGrid::square(8);
        let table = TreeTable::single(g, g.id(3, 3), &[g.id(6, 3)]);
        let t = table.tree(0);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.dests(), &[g.id(6, 3)]);
        assert_eq!(t.children_of(g.id(3, 3)), &[g.id(4, 3)]);
    }

    #[test]
    fn shared_prefix_links_are_counted_once() {
        // Fig. 18's point: multiple dests to the left share east-west links.
        let g = TileGrid::square(8);
        let root = g.id(3, 3);
        // Dests in the same column x=1, rows 1, 3, 6.
        let dests = [g.id(1, 1), g.id(1, 3), g.id(1, 6)];
        let table = TreeTable::single(g, root, &dests);
        let tree = table.tree(0);
        let p2p = point_to_point_hops(g, root, &dests);
        assert!(
            tree.num_links() < p2p,
            "tree {} should beat p2p {}",
            tree.num_links(),
            p2p
        );
        // Tree: 2 links west + 2 up + 2 down (wrap makes row 6 2 hops north
        // of row 3? no: dy(3->6)=3 south or 5 north, so 3 south) => 2+2+3=7.
        assert_eq!(tree.num_links(), 7);
    }

    #[test]
    fn every_dest_is_reachable_from_root() {
        let g = TileGrid::square(6);
        let root = g.id(0, 0);
        let dests: Vec<TileId> = (0..g.num_tiles() as u32).step_by(5).collect();
        let table = TreeTable::single(g, root, &dests);
        let tree = table.tree(0);
        for &d in tree.dests() {
            // Walk up parents to the root.
            let mut cur = d;
            let mut steps = 0;
            while cur != root {
                cur = tree.parent_of(cur).expect("parent chain reaches root");
                steps += 1;
                assert!(steps <= g.num_tiles(), "cycle detected");
            }
        }
    }

    #[test]
    fn root_in_dests_is_ignored() {
        let g = TileGrid::square(4);
        let table = TreeTable::single(g, 5, &[5, 5]);
        let tree = table.tree(0);
        assert_eq!(tree.num_links(), 0);
        assert!(tree.dests().is_empty());
    }

    #[test]
    fn duplicate_dests_deduped() {
        let g = TileGrid::square(4);
        let table = TreeTable::single(g, 0, &[3, 3, 3]);
        let tree = table.tree(0);
        assert_eq!(tree.dests(), &[3]);
    }

    #[test]
    fn reduction_fan_in_counts_children_and_self() {
        let g = TileGrid::square(8);
        let root = g.id(3, 3);
        let dests = [g.id(1, 1), g.id(1, 6), g.id(5, 3)];
        let table = TreeTable::single(g, root, &dests);
        let tree = table.tree(0);
        // The branch tile (1,3) forwards for both column dests but is not
        // itself a dest: fan-in = 2 children (north+south), 0 self.
        assert_eq!(tree.reduction_fan_in(g.id(1, 3)), 2);
        // A leaf dest has fan-in 1 (itself).
        assert_eq!(tree.reduction_fan_in(g.id(1, 1)), 1);
        // Root: children + 1 (home's own contribution).
        assert!(tree.reduction_fan_in(root) >= 2);
    }

    /// The map-based build the flat tables replaced: the union of
    /// `TileGrid::xy_route` paths, children in first-reached order.
    struct Reference {
        children: BTreeMap<TileId, Vec<TileId>>,
        parent: BTreeMap<TileId, TileId>,
        dests: Vec<TileId>,
    }

    fn reference(grid: TileGrid, root: TileId, dests: &[TileId]) -> Reference {
        let mut r = Reference {
            children: BTreeMap::new(),
            parent: BTreeMap::new(),
            dests: dests.iter().copied().filter(|&d| d != root).collect(),
        };
        r.dests.sort_unstable();
        r.dests.dedup();
        for &d in &r.dests {
            let mut prev = root;
            for hop in grid.xy_route(root, d) {
                if let Some(&p) = r.parent.get(&hop) {
                    assert_eq!(p, prev, "XY routes from one root agree on parents");
                } else {
                    r.parent.insert(hop, prev);
                    r.children.entry(prev).or_default().push(hop);
                }
                prev = hop;
            }
        }
        r
    }

    /// The link direction a neighbor scan finds: the position of `to`
    /// among `from`'s E, W, N, S neighbors.
    fn scanned_dir(grid: TileGrid, from: TileId, to: TileId) -> usize {
        grid.neighbors(from).iter().position(|&n| n == to).unwrap()
    }

    #[test]
    fn flat_tree_matches_map_reference() {
        let mut rng = proptest::test_runner::TestRng::from_seed(0x7ee5);
        let shapes = [
            (1, 1),
            (1, 7),
            (7, 1),
            (2, 2),
            (2, 5),
            (5, 2),
            (3, 4),
            (4, 4),
            (5, 5),
            (6, 3),
            (8, 8),
            (16, 16),
        ];
        for &(w, h) in &shapes {
            for grid in [TileGrid::new(w, h), TileGrid::mesh(w, h)] {
                let n = grid.num_tiles() as u64;
                // All trees of a grid share one table, so each build
                // reuses the scratch the previous one left behind.
                let mut table = TreeTable::new(grid);
                let mut cases = Vec::new();
                for k in 0..40 {
                    let root = rng.below(n) as TileId;
                    let len = rng.below(2 * n + 1) as usize;
                    let mut dests: Vec<TileId> = (0..len).map(|_| rng.below(n) as TileId).collect();
                    if rng.below(2) == 0 {
                        dests.push(root);
                    }
                    if let Some(&d) = dests.first() {
                        dests.push(d);
                    }
                    assert_eq!(table.push(root, &dests), k, "ids count up");
                    if k == 20 {
                        table.shrink_to_fit();
                    }
                    cases.push((root, dests));
                }
                assert_eq!(table.len(), cases.len());
                for (id, (root, dests)) in cases.iter().enumerate() {
                    let (root, tree) = (*root, table.tree(id as u32));
                    let single = TreeTable::single(grid, root, dests);
                    assert_eq!(tree, single.tree(0), "a shared table stores the same tree");
                    let r = reference(grid, root, dests);
                    let ctx = format!("{w}x{h} torus={} root={root}", grid.is_torus());
                    assert_eq!(tree.dests(), r.dests.as_slice(), "{ctx}");
                    assert_eq!(tree.num_links(), r.parent.len(), "{ctx}");
                    let ref_links: Vec<(TileId, TileId)> = r
                        .children
                        .iter()
                        .flat_map(|(&p, cs)| cs.iter().map(move |&c| (p, c)))
                        .collect();
                    assert_eq!(tree.iter_links().collect::<Vec<_>>(), ref_links, "{ctx}");
                    let mut ref_tiles: Vec<TileId> = r.parent.keys().copied().collect();
                    ref_tiles.push(root);
                    ref_tiles.sort_unstable();
                    assert_eq!(tree.tiles(), ref_tiles, "{ctx}");
                    for t in 0..n as TileId {
                        let kids = r.children.get(&t).map_or(&[][..], Vec::as_slice);
                        assert_eq!(tree.children_of(t), kids, "{ctx} tile {t}");
                        assert_eq!(tree.parent_of(t), r.parent.get(&t).copied(), "{ctx}");
                        assert_eq!(tree.is_dest(t), r.dests.contains(&t), "{ctx}");
                        let Some(node) = tree.node(t) else {
                            assert!(ref_tiles.binary_search(&t).is_err(), "{ctx}");
                            continue;
                        };
                        assert_eq!(node.is_dest, tree.is_dest(t), "{ctx}");
                        for (&c, &dir) in node.children.iter().zip(node.child_dirs) {
                            assert_eq!(dir.index(), scanned_dir(grid, t, c), "{ctx}");
                        }
                        if let Some((p, dir)) = node.up {
                            assert_eq!(dir.index(), scanned_dir(grid, t, p), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn link_count_matches_iterator() {
        let g = TileGrid::square(6);
        let dests: Vec<TileId> = vec![7, 14, 21, 28, 35];
        let table = TreeTable::single(g, 0, &dests);
        let tree = table.tree(0);
        assert_eq!(tree.iter_links().count(), tree.num_links());
        // Tiles = links + 1 (it's a tree).
        assert_eq!(tree.tiles().len(), tree.num_links() + 1);
    }
}
