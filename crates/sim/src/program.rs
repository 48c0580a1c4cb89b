//! Compilation of kernels into per-tile dataflow task programs
//! (Sec. IV-A, IV-D).
//!
//! A [`Program`] is everything the machine needs to run one kernel:
//!
//! * per-tile entry tables for the dominant ScaleAndAccumCol task
//!   (Listing 2): contiguous `(accumulator slot, coefficient)` pairs per
//!   triggering index;
//! * accumulator-slot descriptors with `updates_remaining` counts and
//!   completion actions (send a partial, finalize an output element, or
//!   solve a variable);
//! * multicast trees for value distribution and reduction trees for
//!   partial sums (Fig. 18), in one [`TreeTable`];
//! * initial tasks (SpMV's SendV; SpTRSV's dependence-free rows).
//!
//! SpMV, the lower solve `L x = b` and the transpose solve `L^T x = b` all
//! compile through one generic path over "work items"
//! `(trigger, target, coeff, tile)`: an item's FMAC fires when the
//! `trigger` value arrives and accumulates into `target`'s partial sum.
//! Compiling is linear in the items: counting sorts group them, and
//! every tile set and lookup is a flat array.
//!
//! The two solves of one factor mirror each other: the upper solve's
//! multicast tree for `j` spans the tiles of row `j`'s strictly-lower
//! entries, exactly the lower solve's reduction tree for `j`, and the
//! other way round. [`Program::compile_sptrsv_pair`] builds those trees
//! once, for both programs.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use azul_mapping::tree::TreeTable;
use azul_mapping::{Placement, TileGrid, TileId};
use azul_sparse::Csr;
use azul_telemetry::span;

use crate::replay::Replay;

/// What happens when an accumulator slot's `updates_remaining` hits zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotAction {
    /// Send the slot value up the target's reduction tree.
    SendPartial {
        /// Reduction-tree index (the target row).
        target: u32,
        /// The slot tile's row in the reduction tree, where the partial
        /// starts.
        row: u32,
    },
    /// Write the slot value to output element `target` (SpMV home slots).
    FinalY {
        /// Output element index.
        target: u32,
    },
    /// Solve variable `target`: multiply by the stored reciprocal
    /// diagonal, write the output, and multicast the result (SpTRSV home
    /// slots).
    Solve {
        /// Variable index.
        target: u32,
    },
}

impl SlotAction {
    /// The row or variable index the slot accumulates.
    pub(crate) fn target(self) -> u32 {
        match self {
            SlotAction::SendPartial { target, .. }
            | SlotAction::FinalY { target }
            | SlotAction::Solve { target } => target,
        }
    }
}

/// A per-tile accumulator slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotDesc {
    /// Updates (local FMACs + incoming partials) before completion.
    pub remaining: u32,
    /// Completion action.
    pub action: SlotAction,
    /// Whether the slot starts at `b[target]` (SpTRSV home slots) instead
    /// of zero.
    pub init_from_b: bool,
}

impl SlotDesc {
    /// The slot's value at kernel start: `input[target]` for a slot that
    /// starts at `b`, zero otherwise.
    pub(crate) fn initial(&self, input: &[f64]) -> f64 {
        match self.action {
            SlotAction::Solve { target } | SlotAction::FinalY { target } if self.init_from_b => {
                input[target as usize]
            }
            _ => 0.0,
        }
    }
}

/// One ScaleAndAccumCol entry: `acc[slot] += coeff * incoming_value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Tile-local accumulator slot.
    pub slot: u32,
    /// Where the coefficient sits in the values of the matrix the
    /// program was compiled from: `A` for SpMV, `L` for both solves. A
    /// replay record names an entry by it, never by its value.
    pub pos: u32,
    /// Matrix coefficient.
    pub coeff: f64,
}

/// The compiled program of one tile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileProgram {
    /// ScaleAndAccumCol entry table, grouped by ascending trigger index.
    pub entries: Vec<Entry>,
    /// `(trigger, end)` for every trigger with entries on this tile,
    /// sorted by trigger: a trigger's entries run from the previous
    /// trigger's `end` (0 for the first) to its own. Read through
    /// [`TileProgram::saac_range`].
    saac: Vec<(u32, u32)>,
    /// Accumulator slots, at most one per target (homes, participants
    /// and branch combiners of the reduction tree), in ascending target
    /// order — so the slot table doubles as the target → slot lookup,
    /// [`TileProgram::combine_slot`].
    pub slots: Vec<SlotDesc>,
    /// Trigger indices whose value this tile multicasts at kernel start
    /// (SpMV SendV tasks).
    pub send_v: Vec<u32>,
    /// Variables this tile solves unconditionally at kernel start
    /// (SpTRSV rows with no dependences).
    pub initial_solves: Vec<u32>,
}

impl TileProgram {
    /// The `(start, end)` range in `entries` of the ScaleAndAccumCol task
    /// that `trigger`'s value fires on this tile, or `None` when no local
    /// entry uses it.
    pub fn saac_range(&self, trigger: u32) -> Option<(u32, u32)> {
        let k = self.saac.binary_search_by_key(&trigger, |&(t, _)| t).ok()?;
        let start = k.checked_sub(1).map_or(0, |prev| self.saac[prev].1);
        Some((start, self.saac[k].1))
    }

    /// The slot that combines `target`'s partials on this tile, if any.
    pub fn combine_slot(&self, target: u32) -> Option<u32> {
        self.slots
            .binary_search_by_key(&target, |s| s.action.target())
            .ok()
            .map(|k| k as u32)
    }
}

/// Which kernel a program implements (controls value semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramKind {
    /// `y = A x`: triggers are input-vector elements, outputs are row sums.
    Spmv,
    /// `L x = b` or `L^T x = b`: triggers are solved variables, outputs
    /// are variables; home slots start at `b`.
    Sptrsv,
}

/// A compiled kernel: per-tile programs plus the communication trees.
///
/// A compiled program is immutable: its first replayable launch records
/// its slot arithmetic, and later launches under the same config replay
/// that record instead of ticking (`crate::replay`), so every field must
/// keep the value it was compiled with. The record itself names entries
/// by position and holds no value; a program with other values on the
/// same pattern and placement is a new program, with no record, unless
/// its caller binds the old record to the new values (as
/// `PcgSim::update_values_with_factor` does). Clones share the record.
#[derive(Debug, Clone)]
pub struct Program {
    /// Kernel kind.
    pub kind: ProgramKind,
    /// Vector dimension.
    pub n: usize,
    /// The tile grid.
    pub grid: TileGrid,
    /// All communication trees, in one table; the lower and upper
    /// solves of [`Program::compile_sptrsv_pair`] share theirs.
    pub trees: Arc<TreeTable>,
    /// Trigger index -> multicast tree (None if the value is never needed
    /// remotely).
    pub x_tree: Vec<Option<u32>>,
    /// Target index -> reduction tree (None if all work is on the home
    /// tile).
    pub partial_tree: Vec<Option<u32>>,
    /// Per-tile programs, indexed by tile id.
    pub tiles: Vec<TileProgram>,
    /// Home tile of each vector element.
    pub home: Vec<TileId>,
    /// Reciprocal diagonal values (SpTRSV only; stored as `1/d` to keep
    /// division off the critical path, Sec. VI-A).
    pub inv_diag: Vec<f64>,
    /// Total FMAC work items (for sanity checks / FLOP accounting).
    pub num_items: usize,
    /// The first replayable launch's record, shared by clones.
    memo: Arc<OnceLock<Replay>>,
}

/// One unit of FMAC work for the generic compiler.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    trigger: u32,
    target: u32,
    /// The coefficient's position in the compiled matrix's values.
    pos: u32,
    coeff: f64,
    tile: TileId,
}

impl Program {
    /// Compiles SpMV `y = A x` for `a` under `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not match `a`.
    pub fn compile_spmv(a: &Csr, placement: &Placement) -> Program {
        let mut s = span::span("compile/spmv");
        assert_eq!(a.nnz(), placement.num_nnz(), "placement/matrix mismatch");
        assert_eq!(a.rows(), placement.num_rows(), "placement/matrix mismatch");
        let items: Vec<WorkItem> = a
            .iter()
            .enumerate()
            .map(|(p, (r, c, v))| WorkItem {
                trigger: c as u32,
                target: r as u32,
                pos: p as u32,
                coeff: v,
                tile: placement.nnz_tile(p),
            })
            .collect();
        let prog = compile(
            ProgramKind::Spmv,
            a.rows(),
            placement,
            &items,
            vec![1.0; a.rows()],
        );
        s.annotate("work_items", prog.num_items as u64);
        s.annotate("trees", prog.trees.len() as u64);
        prog
    }

    /// Compiles the lower-triangular solve `L x = b` where `l` is lower
    /// triangular with a full diagonal and shares the sparsity pattern of
    /// `tril(a_pattern)`, whose nonzeros `placement` places.
    ///
    /// # Panics
    ///
    /// Panics if patterns or placement are inconsistent, or a diagonal is
    /// missing.
    pub fn compile_sptrsv_lower(l: &Csr, a_pattern: &Csr, placement: &Placement) -> Program {
        let mut s = span::span("compile/sptrsv_lower");
        let (items, inv_diag) = lower_items_and_diag(l, a_pattern, placement);
        let prog = compile(ProgramKind::Sptrsv, l.rows(), placement, &items, inv_diag);
        s.annotate("work_items", prog.num_items as u64);
        s.annotate("trees", prog.trees.len() as u64);
        prog
    }

    /// Compiles the transpose solve `L^T x = b`: the entry `L_ij` (i > j)
    /// serves as `L^T_ji`, so triggers and targets swap roles relative to
    /// the lower solve while physical tiles stay the same.
    ///
    /// # Panics
    ///
    /// Panics as [`Program::compile_sptrsv_lower`] does.
    pub fn compile_sptrsv_upper(l: &Csr, a_pattern: &Csr, placement: &Placement) -> Program {
        let mut s = span::span("compile/sptrsv_upper");
        let (mut items, inv_diag) = lower_items_and_diag(l, a_pattern, placement);
        transpose(&mut items);
        let prog = compile(ProgramKind::Sptrsv, l.rows(), placement, &items, inv_diag);
        s.annotate("work_items", prog.num_items as u64);
        s.annotate("trees", prog.trees.len() as u64);
        prog
    }

    /// Compiles [`Program::compile_sptrsv_lower`] and
    /// [`Program::compile_sptrsv_upper`] together. The two programs mean
    /// exactly what the separate compiles produce, but share one tree
    /// table, built once: each tree serves as one solve's multicast and
    /// the other's reduction, so the upper program's tree ids differ.
    ///
    /// # Panics
    ///
    /// Panics as [`Program::compile_sptrsv_lower`] does.
    pub fn compile_sptrsv_pair(
        l: &Csr,
        a_pattern: &Csr,
        placement: &Placement,
    ) -> (Program, Program) {
        let grid = placement.grid();
        let (n, num_tiles) = (l.rows(), grid.num_tiles());
        let mut s = span::span("compile/sptrsv_lower");
        let (mut items, inv_diag) = lower_items_and_diag(l, a_pattern, placement);
        let layout = Layout::new(n, num_tiles, &items);
        let routing = Routing::build(placement, &layout);
        let lower = assemble(
            ProgramKind::Sptrsv,
            placement,
            &items,
            &layout,
            inv_diag.clone(),
            routing.clone(),
        );
        s.annotate("work_items", lower.num_items as u64);
        s.annotate("trees", lower.trees.len() as u64);
        drop(s);

        let mut s = span::span("compile/sptrsv_upper");
        transpose(&mut items);
        let layout = layout.transposed(n, num_tiles, &items);
        let upper = assemble(
            ProgramKind::Sptrsv,
            placement,
            &items,
            &layout,
            inv_diag,
            routing.transposed(),
        );
        s.annotate("work_items", upper.num_items as u64);
        s.annotate("trees", upper.trees.len() as u64);
        (lower, upper)
    }

    /// The tree row a multicast of `idx` starts at: the root row of its
    /// tree, or `None` when the program multicasts no such value. A
    /// partial starts at the row its slot names
    /// ([`SlotAction::SendPartial`]).
    pub(crate) fn multicast_row(&self, idx: u32) -> Option<u32> {
        let tree = self.x_tree.get(idx as usize).copied().flatten()?;
        Some(self.trees.root_row(tree))
    }

    /// The tile program of tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn tile(&self, t: TileId) -> &TileProgram {
        &self.tiles[t as usize]
    }

    /// The record of this program's first replayable launch.
    pub(crate) fn memo(&self) -> &OnceLock<Replay> {
        &self.memo
    }

    /// Heap bytes of the rows a replay runs, the record bound to this
    /// program's values: 0 until a replayable launch has run
    /// (`crate::replay`).
    pub fn replay_bytes(&self) -> usize {
        self.memo.get().map_or(0, Replay::bytes)
    }

    /// Heap bytes of the value-free record behind the replay: 0 until a
    /// replayable launch has run.
    pub fn record_bytes(&self) -> usize {
        self.memo.get().map_or(0, |r| r.record().bytes())
    }
}

/// The work items of the lower solve `L x = b` (the strictly-lower
/// entries of `l`, negated, on the tiles `placement` gives the matching
/// entries of `a_pattern`) and the reciprocal diagonal.
fn lower_items_and_diag(
    l: &Csr,
    a_pattern: &Csr,
    placement: &Placement,
) -> (Vec<WorkItem>, Vec<f64>) {
    assert_eq!(
        a_pattern.nnz(),
        placement.num_nnz(),
        "placement/matrix mismatch"
    );
    let tile_of = placement.restrict(a_pattern, |r, c| c <= r);
    let lower_nnz = l.iter().filter(|&(r, c, _)| c <= r).count();
    assert_eq!(
        tile_of.len(),
        lower_nnz,
        "factor pattern must match tril(A) pattern"
    );
    let items = l
        .iter()
        .enumerate()
        .filter(|&(_, (r, c, _))| c <= r)
        .zip(tile_of)
        .filter(|&((_, (r, c, _)), _)| c < r)
        .map(|((p, (r, c, v)), tile)| WorkItem {
            trigger: c as u32,
            target: r as u32,
            pos: p as u32,
            coeff: -v,
            tile,
        })
        .collect();
    let inv_diag: Vec<f64> = l
        .diagonal()
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            assert!(d != 0.0, "zero or missing diagonal at row {i}");
            1.0 / d
        })
        .collect();
    (items, inv_diag)
}

/// Swaps every item's trigger and target: the lower solve's items
/// become the transpose solve's.
fn transpose(items: &mut [WorkItem]) {
    for it in items {
        std::mem::swap(&mut it.trigger, &mut it.target);
    }
}

/// Per-index tile sets in one flat array: index `i`'s tiles are
/// `tiles[off[i]..off[i + 1]]`, ascending, each paired with the number
/// of the index's items on that tile.
struct TileSets {
    off: Vec<u32>,
    tiles: Vec<TileId>,
    count: Vec<u32>,
    /// Item -> position of its `(index, tile)` pair in `tiles`.
    pair_of: Vec<u32>,
}

impl TileSets {
    /// Groups `items` by `key` and tile; `order` visits the items tile
    /// by tile, so every set comes out ascending without a sort.
    fn new(n: usize, items: &[WorkItem], order: &[u32], key: impl Fn(&WorkItem) -> u32) -> Self {
        // A pair is new when its tile differs from the index's last one.
        let mut last = vec![TileId::MAX; n];
        let mut off = vec![0u32; n + 1];
        for &k in order {
            let it = &items[k as usize];
            let i = key(it) as usize;
            if last[i] != it.tile {
                last[i] = it.tile;
                off[i + 1] += 1;
            }
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let pairs = off[n] as usize;
        let (mut tiles, mut count) = (vec![0; pairs], vec![0u32; pairs]);
        let mut pair_of = vec![0u32; items.len()];
        let mut end = off[..n].to_vec();
        for &k in order {
            let it = &items[k as usize];
            let i = key(it) as usize;
            let e = end[i] as usize;
            if e == off[i] as usize || tiles[e - 1] != it.tile {
                tiles[e] = it.tile;
                end[i] += 1;
            }
            let p = end[i] - 1;
            count[p as usize] += 1;
            pair_of[k as usize] = p;
        }
        TileSets {
            off,
            tiles,
            count,
            pair_of,
        }
    }

    /// Positions of index `i`'s pairs.
    fn range(&self, i: usize) -> Range<usize> {
        self.off[i] as usize..self.off[i + 1] as usize
    }

    /// Index `i`'s tiles, ascending.
    fn get(&self, i: usize) -> &[TileId] {
        &self.tiles[self.range(i)]
    }
}

/// Stable counting sort of item ids by `key`, which is below `buckets`.
fn counting_sort(
    ids: impl Iterator<Item = u32> + Clone,
    len: usize,
    buckets: usize,
    key: impl Fn(u32) -> usize,
) -> Vec<u32> {
    let mut next = vec![0u32; buckets + 1];
    for k in ids.clone() {
        next[key(k) + 1] += 1;
    }
    for b in 0..buckets {
        next[b + 1] += next[b];
    }
    let mut out = vec![0u32; len];
    for k in ids {
        let b = &mut next[key(k)];
        out[*b as usize] = k;
        *b += 1;
    }
    out
}

/// The item grouping a program is assembled from.
struct Layout {
    /// Item ids in `(tile, trigger, item)` order: the entry tables'
    /// order.
    order: Vec<u32>,
    /// Each trigger's tiles (the multicast destinations).
    triggers: TileSets,
    /// Each target's tiles and local FMAC counts (the reduction
    /// participants and the local share of each slot's `remaining`).
    targets: TileSets,
}

impl Layout {
    fn new(n: usize, num_tiles: usize, items: &[WorkItem]) -> Self {
        let order = entry_order(n, num_tiles, items);
        Layout {
            triggers: TileSets::new(n, items, &order, |it| it.trigger),
            targets: TileSets::new(n, items, &order, |it| it.target),
            order,
        }
    }

    /// The layout of `items`, this layout's items with trigger and
    /// target swapped: the sets swap roles, only the order is new.
    fn transposed(self, n: usize, num_tiles: usize, items: &[WorkItem]) -> Self {
        Layout {
            order: entry_order(n, num_tiles, items),
            triggers: self.targets,
            targets: self.triggers,
        }
    }
}

/// Item ids in `(tile, trigger, item)` order: two stable counting
/// passes, by trigger and then by tile.
fn entry_order(n: usize, num_tiles: usize, items: &[WorkItem]) -> Vec<u32> {
    let all = 0..items.len() as u32;
    let by_trigger = counting_sort(all, items.len(), n, |k| items[k as usize].trigger as usize);
    counting_sort(by_trigger.iter().copied(), items.len(), num_tiles, |k| {
        items[k as usize].tile as usize
    })
}

/// A program's trees: the table and the tree behind each index.
#[derive(Clone)]
struct Routing {
    trees: Arc<TreeTable>,
    x_tree: Vec<Option<u32>>,
    partial_tree: Vec<Option<u32>>,
}

impl Routing {
    /// Builds the multicast trees (over each trigger's tiles) and then
    /// the reduction trees (over each target's tiles) into one table.
    fn build(placement: &Placement, layout: &Layout) -> Self {
        let mut table = TreeTable::new(placement.grid());
        let home = placement.vec_tiles();
        let x_tree = push_trees(&mut table, home, &layout.triggers);
        let partial_tree = push_trees(&mut table, home, &layout.targets);
        table.shrink_to_fit();
        Routing {
            trees: Arc::new(table),
            x_tree,
            partial_tree,
        }
    }

    /// The routing of the transposed items ([`Layout::transposed`]):
    /// each tree changes roles.
    fn transposed(self) -> Self {
        Routing {
            trees: self.trees,
            x_tree: self.partial_tree,
            partial_tree: self.x_tree,
        }
    }
}

/// Appends the tree from `home[i]` to each set `i` that reaches beyond
/// its home tile; returns index -> tree id.
fn push_trees(table: &mut TreeTable, home: &[TileId], sets: &TileSets) -> Vec<Option<u32>> {
    home.iter()
        .enumerate()
        .map(|(i, &root)| {
            let set = sets.get(i);
            set.iter()
                .any(|&t| t != root)
                .then(|| table.push(root, set))
        })
        .collect()
}

/// The generic compiler: groups the items, builds their trees and
/// assembles the program.
fn compile(
    kind: ProgramKind,
    n: usize,
    placement: &Placement,
    items: &[WorkItem],
    inv_diag: Vec<f64>,
) -> Program {
    let layout = Layout::new(n, placement.grid().num_tiles(), items);
    let routing = Routing::build(placement, &layout);
    assemble(kind, placement, items, &layout, inv_diag, routing)
}

/// Allocates the slots, fills the entry tables and schedules the
/// initial tasks of a program whose trees are built.
fn assemble(
    kind: ProgramKind,
    placement: &Placement,
    items: &[WorkItem],
    layout: &Layout,
    inv_diag: Vec<f64>,
    routing: Routing,
) -> Program {
    let Routing {
        trees,
        x_tree,
        partial_tree,
    } = routing;
    let grid = placement.grid();
    let home: Vec<TileId> = placement.vec_tiles().to_vec();
    let n = home.len();
    let mut tiles: Vec<TileProgram> = vec![TileProgram::default(); grid.num_tiles()];
    // Entry tables are the bulk of a program and live as long as it:
    // size them exactly instead of growing them by doubling.
    let mut per_tile = vec![0usize; tiles.len()];
    for it in items {
        per_tile[it.tile as usize] += 1;
    }
    for (tp, len) in tiles.iter_mut().zip(per_tile) {
        tp.entries.reserve_exact(len);
    }
    let targets = &layout.targets;

    // Reduction slots. Targets are visited in ascending order, so every
    // tile's slot table stays sorted by target. Each (target, tile) pair
    // records its slot, so an entry finds its slot in O(1).
    let mut slot_of_pair = vec![0u32; targets.tiles.len()];
    let alloc_slot = |tiles: &mut Vec<TileProgram>,
                      tile: TileId,
                      remaining: u32,
                      action: SlotAction,
                      init_from_b: bool|
     -> u32 {
        let tp = &mut tiles[tile as usize];
        debug_assert!(
            tp.slots
                .last()
                .is_none_or(|s| s.action.target() < action.target()),
            "slots are allocated in ascending target order"
        );
        tp.slots.push(SlotDesc {
            remaining,
            action,
            init_from_b,
        });
        (tp.slots.len() - 1) as u32
    };
    let init_from_b = kind == ProgramKind::Sptrsv;
    for i in 0..n {
        let root = home[i];
        let pairs = targets.range(i);
        let home_action = match kind {
            ProgramKind::Spmv => SlotAction::FinalY { target: i as u32 },
            ProgramKind::Sptrsv => SlotAction::Solve { target: i as u32 },
        };
        let Some(tree_id) = partial_tree[i] else {
            // All work local to the home tile (the set is empty or just
            // the home).
            let home_local = if pairs.is_empty() {
                0
            } else {
                targets.count[pairs.start]
            };
            let slot = alloc_slot(&mut tiles, root, home_local, home_action, init_from_b);
            if !pairs.is_empty() {
                slot_of_pair[pairs.start] = slot;
            }
            if home_local == 0 && kind == ProgramKind::Sptrsv {
                tiles[root as usize].initial_solves.push(i as u32);
            }
            continue;
        };
        // A slot on every combining node of the tree. The tree's tiles
        // and the target's set are both ascending: one merge walk.
        let mut p = pairs.start;
        for node in trees.tree(tree_id).nodes() {
            let (t, children) = (node.tile(), node.num_children() as u32);
            while p < pairs.end && targets.tiles[p] < t {
                p += 1;
            }
            let pair = (p < pairs.end && targets.tiles[p] == t).then_some(p);
            let local = pair.map_or(0, |p| targets.count[p]);
            let partial = SlotAction::SendPartial {
                target: i as u32,
                row: node.index(),
            };
            let slot = if t == root {
                alloc_slot(&mut tiles, root, local + children, home_action, init_from_b)
            } else if node.is_dest() {
                debug_assert!(local > 0, "tree dests hold local work");
                alloc_slot(&mut tiles, t, local + children, partial, false)
            } else if children >= 2 {
                alloc_slot(&mut tiles, t, children, partial, false)
            } else {
                // children == 1 non-dest: pure relay, router-only
                // (`TreeRow::combines` is false here and only here).
                continue;
            };
            if let Some(p) = pair {
                slot_of_pair[p] = slot;
            }
        }
    }

    // Entry tables in (tile, trigger, item) order.
    for &k in &layout.order {
        let it = &items[k as usize];
        let tp = &mut tiles[it.tile as usize];
        tp.entries.push(Entry {
            slot: slot_of_pair[targets.pair_of[k as usize] as usize],
            pos: it.pos,
            coeff: it.coeff,
        });
        let end = tp.entries.len() as u32;
        match tp.saac.last_mut() {
            Some(row) if row.0 == it.trigger => row.1 = end,
            _ => tp.saac.push((it.trigger, end)),
        }
    }

    // Initial SendV tasks (SpMV): every trigger whose value is consumed.
    if kind == ProgramKind::Spmv {
        for j in 0..n {
            if !layout.triggers.range(j).is_empty() {
                tiles[home[j] as usize].send_v.push(j as u32);
            }
        }
    }

    Program {
        kind,
        n,
        grid,
        trees,
        x_tree,
        partial_tree,
        tiles,
        home,
        inv_diag,
        num_items: items.len(),
        memo: Arc::default(),
    }
}

#[cfg(test)]
pub(crate) mod oracle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use azul_mapping::strategies::{Mapper, RoundRobinMapper};
    use azul_solver::ic0::ic0;
    use azul_sparse::generate;

    fn setup() -> (Csr, Placement) {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        (a, p)
    }

    #[test]
    fn spmv_program_covers_all_nonzeros() {
        let (a, p) = setup();
        let prog = Program::compile_spmv(&a, &p);
        let total_entries: usize = prog.tiles.iter().map(|t| t.entries.len()).sum();
        assert_eq!(total_entries, a.nnz());
        assert_eq!(prog.num_items, a.nnz());
        assert_eq!(prog.kind, ProgramKind::Spmv);
    }

    #[test]
    fn spmv_slot_remaining_counts_cover_entries_and_partials() {
        let (a, p) = setup();
        let prog = Program::compile_spmv(&a, &p);
        // Sum of home-slot remaining over all rows equals
        // nnz contributions routed through trees + local; globally the
        // total remaining across all slots = nnz + total tree partials.
        let total_remaining: u64 = prog
            .tiles
            .iter()
            .flat_map(|t| t.slots.iter())
            .map(|s| s.remaining as u64)
            .sum();
        let partial_sends: u64 = prog
            .tiles
            .iter()
            .flat_map(|t| t.slots.iter())
            .filter(|s| matches!(s.action, SlotAction::SendPartial { .. }))
            .count() as u64;
        assert_eq!(total_remaining, a.nnz() as u64 + partial_sends);
    }

    #[test]
    fn every_row_has_exactly_one_final_slot() {
        let (a, p) = setup();
        let prog = Program::compile_spmv(&a, &p);
        let mut finals = vec![0usize; a.rows()];
        for tp in &prog.tiles {
            for s in &tp.slots {
                if let SlotAction::FinalY { target } = s.action {
                    finals[target as usize] += 1;
                }
            }
        }
        assert!(finals.iter().all(|&c| c == 1), "{finals:?}");
    }

    #[test]
    fn sendv_tasks_live_on_home_tiles() {
        let (a, p) = setup();
        let prog = Program::compile_spmv(&a, &p);
        let mut seen = vec![false; a.rows()];
        for (t, tp) in prog.tiles.iter().enumerate() {
            for &j in &tp.send_v {
                assert_eq!(prog.home[j as usize] as usize, t);
                seen[j as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every column multicast scheduled");
    }

    #[test]
    fn sptrsv_lower_has_initial_solves() {
        let (a, p) = setup();
        let l = ic0(&a).unwrap();
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        assert_eq!(prog.kind, ProgramKind::Sptrsv);
        // Row 0 has no strictly-lower entries: solved at start, either via
        // an explicit initial solve or a zero-remaining home slot.
        let home0 = prog.home[0] as usize;
        let has_initial = prog.tiles[home0].initial_solves.contains(&0)
            || prog.tiles[home0]
                .combine_slot(0)
                .is_some_and(|s| prog.tiles[home0].slots[s as usize].remaining == 0);
        assert!(has_initial);
    }

    #[test]
    fn sptrsv_upper_mirrors_lower_work() {
        let (a, p) = setup();
        let l = ic0(&a).unwrap();
        let lo = Program::compile_sptrsv_lower(&l, &a, &p);
        let up = Program::compile_sptrsv_upper(&l, &a, &p);
        assert_eq!(lo.num_items, up.num_items);
        // The last variable has no dependences in the upper solve.
        let n = a.rows();
        let home_last = up.home[n - 1] as usize;
        let slot = up.tiles[home_last].combine_slot((n - 1) as u32);
        let ready = up.tiles[home_last]
            .initial_solves
            .contains(&((n - 1) as u32))
            || slot.is_some_and(|s| up.tiles[home_last].slots[s as usize].remaining == 0);
        assert!(ready);
    }

    #[test]
    fn sptrsv_home_slots_load_b() {
        let (a, p) = setup();
        let l = ic0(&a).unwrap();
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        for (i, &h) in prog.home.iter().enumerate() {
            let tp = &prog.tiles[h as usize];
            let slot = tp.combine_slot(i as u32).unwrap();
            assert!(tp.slots[slot as usize].init_from_b);
            assert!(matches!(
                tp.slots[slot as usize].action,
                SlotAction::Solve { .. }
            ));
        }
    }

    #[test]
    fn inv_diag_is_reciprocal() {
        let (a, p) = setup();
        let l = ic0(&a).unwrap();
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        for i in 0..a.rows() {
            assert!((prog.inv_diag[i] * l.get(i, i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tile_grid_needs_no_trees() {
        let a = generate::grid_laplacian_2d(4, 4);
        let grid = TileGrid::new(1, 1);
        let p = Placement::new(grid, vec![0; a.nnz()], vec![0; 16]);
        let prog = Program::compile_spmv(&a, &p);
        assert!(prog.trees.is_empty());
        assert!(prog.x_tree.iter().all(Option::is_none));
        assert!(prog.partial_tree.iter().all(Option::is_none));
    }
}
