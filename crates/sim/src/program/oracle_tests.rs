//! The sort-based compiler the linear-time one replaced, kept as an
//! oracle, and a property test that the two compile programs of the
//! same meaning (`docs/PERFORMANCE.md`, "Compiled program layout").
//!
//! Meaning is everything the machine reads: entry tables, slots, SendV
//! and initial-solve lists, homes, reciprocal diagonals, and the tree
//! behind every `x_tree` / `partial_tree` index. Raw tree ids may
//! differ, because [`Program::compile_sptrsv_pair`] shares one table
//! between the two solves.

use super::*;
use azul_mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper};
use azul_sparse::Coo;
use proptest::prelude::*;

fn reference_spmv(a: &Csr, placement: &Placement) -> Program {
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
    reference_compile(
        ProgramKind::Spmv,
        a.rows(),
        placement,
        items,
        vec![1.0; a.rows()],
    )
}

/// The lower (`upper == false`) or transpose solve, items built as
/// the replaced compiler built them.
fn reference_sptrsv(l: &Csr, a_pattern: &Csr, placement: &Placement, upper: bool) -> Program {
    let tile_of = placement.restrict(a_pattern, |r, c| c <= r);
    let inv_diag: Vec<f64> = l.diagonal().iter().map(|&d| 1.0 / d).collect();
    let mut items = Vec::new();
    let lower = l.iter().enumerate().filter(|&(_, (r, c, _))| c <= r);
    for (k, (pos, (r, c, v))) in lower.enumerate() {
        if c < r {
            let (trigger, target) = if upper { (r, c) } else { (c, r) };
            items.push(WorkItem {
                trigger: trigger as u32,
                target: target as u32,
                pos: pos as u32,
                coeff: -v,
                tile: tile_of[k],
            });
        }
    }
    reference_compile(ProgramKind::Sptrsv, l.rows(), placement, items, inv_diag)
}

/// The sort-based compiler the linear-time one replaced.
fn reference_compile(
    kind: ProgramKind,
    n: usize,
    placement: &Placement,
    items: Vec<WorkItem>,
    inv_diag: Vec<f64>,
) -> Program {
    let grid = placement.grid();
    let num_tiles = grid.num_tiles();
    let home: Vec<TileId> = placement.vec_tiles().to_vec();
    let mut tiles: Vec<TileProgram> = vec![TileProgram::default(); num_tiles];

    // One sort of the items by (tile, trigger), item order within a
    // group, orders the entry tables. Walking it tile by tile also
    // collects each trigger's tile set and each target's tile set with
    // the tile's local FMAC count (the local share of the slot's
    // `remaining`), already sorted and deduplicated.
    let mut order: Vec<(TileId, u32, u32)> = items
        .iter()
        .enumerate()
        .map(|(k, it)| (it.tile, it.trigger, k as u32))
        .collect();
    order.sort_unstable();
    let mut trigger_tiles: Vec<Vec<TileId>> = vec![Vec::new(); n];
    let mut target_tiles: Vec<Vec<(TileId, u32)>> = vec![Vec::new(); n];
    for &(tile, trigger, k) in &order {
        let tiles_of = &mut trigger_tiles[trigger as usize];
        if tiles_of.last() != Some(&tile) {
            tiles_of.push(tile);
        }
        let counts = &mut target_tiles[items[k as usize].target as usize];
        match counts.last_mut() {
            Some((t, count)) if *t == tile => *count += 1,
            _ => counts.push((tile, 1)),
        }
    }
    let local_count = |i: usize, tile: TileId| -> u32 {
        target_tiles[i]
            .binary_search_by_key(&tile, |&(t, _)| t)
            .map_or(0, |k| target_tiles[i][k].1)
    };

    // Multicast trees.
    let mut trees = TreeTable::new(grid);
    let mut x_tree: Vec<Option<u32>> = vec![None; n];
    for j in 0..n {
        let root = home[j];
        if trigger_tiles[j].iter().any(|&t| t != root) {
            x_tree[j] = Some(trees.push(root, &trigger_tiles[j]));
        }
    }

    // Reduction trees and slots.
    let mut partial_tree: Vec<Option<u32>> = vec![None; n];
    let mut participants: Vec<TileId> = Vec::new();
    // Appends a slot to the tile's table. Targets are visited in
    // ascending order, so every table stays sorted by target.
    let alloc_slot = |tiles: &mut Vec<TileProgram>,
                      tile: TileId,
                      remaining: u32,
                      action: SlotAction,
                      init_from_b: bool| {
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
    };

    for i in 0..n {
        let root = home[i];
        participants.clear();
        participants.extend(
            target_tiles[i]
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t != root),
        );
        let home_local = local_count(i, root);

        let home_action = match kind {
            ProgramKind::Spmv => SlotAction::FinalY { target: i as u32 },
            ProgramKind::Sptrsv => SlotAction::Solve { target: i as u32 },
        };
        let init_from_b = kind == ProgramKind::Sptrsv;

        if participants.is_empty() {
            // All work local to the home tile.
            alloc_slot(&mut tiles, root, home_local, home_action, init_from_b);
            if home_local == 0 && kind == ProgramKind::Sptrsv {
                tiles[root as usize].initial_solves.push(i as u32);
            }
            continue;
        }
        let tree_id = trees.push(root, &participants);
        let tree = trees.tree(tree_id);
        // Build slots on every combining node of the tree.
        for node in tree.nodes() {
            let (t, children) = (node.tile(), node.num_children() as u32);
            if t == root {
                alloc_slot(
                    &mut tiles,
                    root,
                    home_local + children,
                    home_action,
                    init_from_b,
                );
            } else if node.is_dest() {
                let local = local_count(i, t);
                debug_assert!(local > 0, "tree dests hold local work");
                alloc_slot(
                    &mut tiles,
                    t,
                    local + children,
                    SlotAction::SendPartial {
                        target: i as u32,
                        row: node.index(),
                    },
                    false,
                );
            } else if children >= 2 {
                alloc_slot(
                    &mut tiles,
                    t,
                    children,
                    SlotAction::SendPartial {
                        target: i as u32,
                        row: node.index(),
                    },
                    false,
                );
            }
            // children == 1 non-dest: pure relay, router-only.
        }
        partial_tree[i] = Some(tree_id);
    }

    // Entry tables in (tile, trigger) order, slots already allocated.
    for &(tile, trigger, k) in &order {
        let tp = &mut tiles[tile as usize];
        let it = &items[k as usize];
        let slot = tp
            .combine_slot(it.target)
            .expect("slot allocated for every local target");
        tp.entries.push(Entry {
            slot,
            pos: it.pos,
            coeff: it.coeff,
        });
        let end = tp.entries.len() as u32;
        match tp.saac.last_mut() {
            Some(row) if row.0 == trigger => row.1 = end,
            _ => tp.saac.push((trigger, end)),
        }
    }

    // Initial SendV tasks (SpMV): every trigger whose value is consumed.
    if kind == ProgramKind::Spmv {
        for j in 0..n {
            if !trigger_tiles[j].is_empty() {
                tiles[home[j] as usize].send_v.push(j as u32);
            }
        }
    }

    Program {
        kind,
        n,
        grid,
        trees: Arc::new(trees),
        x_tree,
        partial_tree,
        tiles,
        home,
        inv_diag,
        num_items: items.len(),
        memo: Arc::default(),
    }
}

/// Tile `t`'s program with every partial's starting row checked and
/// cleared: a row must be `t`'s row in the target's reduction tree, and
/// its raw index depends on where the table holds that tree.
fn without_rows(prog: &Program, t: usize, what: &str) -> TileProgram {
    let mut tp = prog.tiles[t].clone();
    for s in &mut tp.slots {
        if let SlotAction::SendPartial { target, row } = &mut s.action {
            let tree = prog.partial_tree[*target as usize].expect("a partial has a tree");
            let want = prog.trees.tree(tree).node(t as TileId).map(|n| n.index());
            assert_eq!(Some(*row), want, "{what}: tile {t} partial {target} row");
            *row = 0;
        }
    }
    tp
}

/// Asserts that `got` and `want` mean the same program.
fn assert_same_meaning(got: &Program, want: &Program, what: &str) {
    assert_eq!(got.kind, want.kind, "{what}: kind");
    assert_eq!(got.n, want.n, "{what}: n");
    assert_eq!(got.grid, want.grid, "{what}: grid");
    assert_eq!(got.home, want.home, "{what}: home");
    assert_eq!(got.inv_diag, want.inv_diag, "{what}: inv_diag");
    assert_eq!(got.num_items, want.num_items, "{what}: num_items");
    assert_eq!(got.trees.len(), want.trees.len(), "{what}: tree count");
    assert_eq!(got.tiles.len(), want.tiles.len(), "{what}: tiles");
    for t in 0..got.tiles.len() {
        let (g, w) = (without_rows(got, t, what), without_rows(want, t, what));
        assert_eq!(g, w, "{what}: tile {t}");
    }
    for (name, g, w) in [
        ("x_tree", &got.x_tree, &want.x_tree),
        ("partial_tree", &got.partial_tree, &want.partial_tree),
    ] {
        assert_eq!(g.len(), w.len(), "{what}: {name} length");
        for (j, (&gi, &wi)) in g.iter().zip(w).enumerate() {
            match (gi, wi) {
                (Some(gi), Some(wi)) => assert_eq!(
                    got.trees.tree(gi),
                    want.trees.tree(wi),
                    "{what}: {name}[{j}]"
                ),
                _ => assert_eq!(gi.is_some(), wi.is_some(), "{what}: {name}[{j}]"),
            }
        }
    }
}

/// Random SPD matrix via diagonal dominance, dimension 2..=40.
pub(crate) fn arb_spd() -> impl Strategy<Value = Csr> {
    (2usize..=40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.1f64..2.0), 0..(n * 3)).prop_map(move |es| {
            let mut coo = Coo::new(n, n);
            let mut row_sum = vec![0.0; n];
            for (r, c, v) in es {
                if r != c {
                    let (lo, hi) = (r.min(c), r.max(c));
                    coo.push_sym(lo, hi, -v).unwrap();
                    row_sum[lo] += v;
                    row_sum[hi] += v;
                }
            }
            for (i, s) in row_sum.iter().enumerate() {
                coo.push(i, i, s * 1.1 + 1.0).unwrap();
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random matrix x mapper x grid: SpMV, the lower and upper solves
    /// and the shared-table pair all mean what the oracle compiles.
    #[test]
    fn linear_compile_matches_sort_oracle(
        a in arb_spd(),
        mapper_ix in 0usize..3,
        cols in 1usize..=4,
        rows in 1usize..=4,
    ) {
        let grid = TileGrid::new(cols, rows);
        let mapper: Box<dyn Mapper> = match mapper_ix {
            0 => Box::new(RoundRobinMapper),
            1 => Box::new(BlockMapper),
            _ => Box::new(AzulMapper { fast: true, quantiles: 0, ..Default::default() }),
        };
        let p = mapper.map(&a, grid);
        let l = azul_solver::ic0::ic0(&a).expect("SPD factors");
        let ctx = format!("n={} grid={cols}x{rows} mapper={mapper_ix}", a.rows());
        assert_same_meaning(&Program::compile_spmv(&a, &p), &reference_spmv(&a, &p), &format!("{ctx} spmv"));
        let want_lo = reference_sptrsv(&l, &a, &p, false);
        let want_up = reference_sptrsv(&l, &a, &p, true);
        assert_same_meaning(&Program::compile_sptrsv_lower(&l, &a, &p), &want_lo, &format!("{ctx} lower"));
        assert_same_meaning(&Program::compile_sptrsv_upper(&l, &a, &p), &want_up, &format!("{ctx} upper"));
        let (lo, up) = Program::compile_sptrsv_pair(&l, &a, &p);
        prop_assert!(Arc::ptr_eq(&lo.trees, &up.trees), "the pair shares one table");
        assert_same_meaning(&lo, &want_lo, &format!("{ctx} pair lower"));
        assert_same_meaning(&up, &want_up, &format!("{ctx} pair upper"));
    }
}
