//! The router's tile lookup that routing by tree row replaced, kept as
//! an oracle, and a property test that both decide the same for every
//! row of every tree of a compiled program; and a property test of the
//! router's cached head state against a scan of its queues.

use super::*;
use crate::program::oracle_tests::arb_spd;
use crate::program::SlotAction;
use azul_mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper};
use azul_mapping::TileGrid;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// The routing decision looked up by tile: the tree behind `flit.idx`,
/// then a binary search for `tile`'s node in it. A partial is delivered
/// wherever the tile's program holds a slot for it.
fn route_by_tile(
    program: &Program,
    tile: TileId,
    flit: Flit,
) -> ([(usize, TileId); 4], usize, bool) {
    let t = tile as usize;
    let mut out_dirs = [(0usize, 0 as TileId); 4];
    let mut out_n = 0usize;
    let mut deliver = false;
    match flit.kind {
        FlitKind::X => {
            let tree_id = program.x_tree[flit.idx as usize].expect("multicast flit has a tree");
            if let Some(node) = program.trees.tree(tree_id).node(tile) {
                for (dir, child) in node.children() {
                    out_dirs[out_n] = (dir.index(), child.tile());
                    out_n += 1;
                }
                deliver = !flit.outbound && node.is_dest();
            }
        }
        FlitKind::Partial => {
            let is_combiner = program.tiles[t].combine_slot(flit.idx).is_some();
            if !flit.outbound && is_combiner {
                deliver = true;
            } else {
                let tree_id =
                    program.partial_tree[flit.idx as usize].expect("partial flit has a tree");
                let (dir, parent) = program
                    .trees
                    .tree(tree_id)
                    .node(tile)
                    .and_then(|node| node.parent())
                    .expect("non-root tile climbing a reduction tree");
                out_dirs[out_n] = (dir.index(), parent.tile());
                out_n += 1;
            }
        }
    }
    (out_dirs, out_n, deliver)
}

/// Routes a flit at every row of every tree of `prog`, of each kind and
/// both `outbound` values, by row and by tile, and asserts the same
/// decision; also checks each injection row and the combiner rule
/// against the slot tables, and that the tile a router's neighbour
/// table puts behind each output is the linked row's tile.
fn assert_same_decisions(prog: &Program, what: &str) {
    let trees = &prog.trees;
    for (kind, tree_of) in [
        (FlitKind::X, &prog.x_tree),
        (FlitKind::Partial, &prog.partial_tree),
    ] {
        for (idx, &tree_id) in tree_of.iter().enumerate() {
            let Some(tree_id) = tree_id else {
                continue;
            };
            let idx = idx as u32;
            let tree = trees.tree(tree_id);
            let home = prog.home[idx as usize];
            assert_eq!(tree.root(), home, "{what}: trees are rooted at the home");
            if kind == FlitKind::X {
                assert_eq!(
                    prog.multicast_row(idx),
                    Some(trees.root_row(tree_id)),
                    "{what}: x {idx} starts at the root"
                );
            }
            for node in tree.nodes() {
                let (tile, ctx) = (
                    node.tile(),
                    format!("{what}: {kind:?} {idx} at tile {}", node.tile()),
                );
                if kind == FlitKind::Partial {
                    let tp = prog.tile(tile);
                    let slot = tp.combine_slot(idx);
                    assert_eq!(node.combines(), slot.is_some(), "{ctx}: combiner rule");
                    if let Some(slot) = slot.filter(|_| !node.is_root()) {
                        assert_eq!(
                            tp.slots[slot as usize].action,
                            SlotAction::SendPartial {
                                target: idx,
                                row: node.index()
                            },
                            "{ctx}: a combiner sends from its row"
                        );
                    }
                }
                for outbound in [false, true] {
                    let flit = Flit {
                        kind,
                        idx,
                        row: node.index(),
                        val: 0.0,
                        outbound,
                    };
                    let neighbors = prog.grid.neighbors(tile);
                    let (got, got_n, got_deliver) = route_of(trees, &neighbors, flit);
                    let ctx = format!("{ctx} outbound={outbound}");
                    if kind == FlitKind::Partial && outbound && node.is_root() {
                        // The root never injects a partial; the tile lookup
                        // has no route for one, the row lookup drops it.
                        assert_eq!((got_n, got_deliver), (0, false), "{ctx}");
                        continue;
                    }
                    let (want, want_n, want_deliver) = route_by_tile(prog, tile, flit);
                    let got_dirs: Vec<(usize, TileId)> = got[..got_n]
                        .iter()
                        .map(|&(dir, next, _)| (dir, next))
                        .collect();
                    assert_eq!(got_dirs, &want[..want_n], "{ctx}: outputs");
                    assert_eq!(got_deliver, want_deliver, "{ctx}: delivery");
                    for &(_, next, next_row) in &got[..got_n] {
                        assert_eq!(
                            trees.row(next_row).tile(),
                            next,
                            "{ctx}: the neighbour table names the linked row's tile"
                        );
                        let row = tree.node(next).map(|n| n.index());
                        assert_eq!(
                            row,
                            Some(next_row),
                            "{ctx}: a copy takes its next tile's row"
                        );
                    }
                }
            }
        }
    }
}

/// Every routing check of [`assert_same_decisions`] on SpMV, the lower
/// and upper solves and the shared-table pair.
fn assert_same_decisions_all(a: &azul_sparse::Csr, p: &azul_mapping::Placement, ctx: &str) {
    let l = azul_solver::ic0::ic0(a).expect("SPD factors");
    assert_same_decisions(&Program::compile_spmv(a, p), &format!("{ctx} spmv"));
    assert_same_decisions(
        &Program::compile_sptrsv_lower(&l, a, p),
        &format!("{ctx} lower"),
    );
    assert_same_decisions(
        &Program::compile_sptrsv_upper(&l, a, p),
        &format!("{ctx} upper"),
    );
    let (lo, up) = Program::compile_sptrsv_pair(&l, a, p);
    assert!(
        Arc::ptr_eq(&lo.trees, &up.trees),
        "the pair shares one table"
    );
    assert_same_decisions(&lo, &format!("{ctx} pair lower"));
    assert_same_decisions(&up, &format!("{ctx} pair upper"));
}

/// The shapes where a neighbour table is easiest to get wrong, each as a
/// torus and a mesh: 1-wide and 1-high rings (no link in one
/// dimension), 2-wide and 2-high rings (East and West, or North and
/// South, reach the same tile), and a plain grid.
#[test]
fn neighbor_tables_match_linked_rows_on_narrow_rings() {
    let a = azul_sparse::generate::grid_laplacian_2d(6, 6);
    let shapes = [(1, 4), (4, 1), (2, 3), (3, 2), (2, 2), (4, 4)];
    for (cols, rows) in shapes {
        for grid in [TileGrid::new(cols, rows), TileGrid::mesh(cols, rows)] {
            for (name, mapper) in [
                ("rr", &RoundRobinMapper as &dyn Mapper),
                ("block", &BlockMapper),
            ] {
                let ctx = format!("{cols}x{rows} torus={} {name}", grid.is_torus());
                assert_same_decisions_all(&a, &mapper.map(&a, grid), &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random matrix x mapper x grid (torus or mesh): routing by row
    /// decides what the tile lookup decides in SpMV, the lower and
    /// upper solves and the shared-table pair.
    #[test]
    fn row_routing_matches_tile_lookup(
        a in arb_spd(),
        mapper_ix in 0usize..3,
        cols in 1usize..=4,
        rows in 1usize..=4,
        mesh in 0usize..2,
    ) {
        let grid = if mesh == 1 { TileGrid::mesh(cols, rows) } else { TileGrid::new(cols, rows) };
        let mapper: Box<dyn Mapper> = match mapper_ix {
            0 => Box::new(RoundRobinMapper),
            1 => Box::new(BlockMapper),
            _ => Box::new(AzulMapper { fast: true, quantiles: 0, ..Default::default() }),
        };
        let p = mapper.map(&a, grid);
        let ctx = format!("n={} grid={cols}x{rows} mesh={mesh} mapper={mapper_ix}", a.rows());
        assert_same_decisions_all(&a, &p, &ctx);
    }
}

/// The scanning definition [`Router::next_event`] had before the head
/// cache: the earliest head `ready` over the five queues, never before
/// `now`.
fn scanned_next_event(r: &Router, now: u64) -> Option<u64> {
    r.inputs
        .iter()
        .filter_map(VecDeque::front)
        .map(|head| head.ready.max(now))
        .min()
}

/// Asserts the router's live mask and earliest head `ready` against its
/// queues, and `next_event` against the scan.
fn assert_head_cache_exact(r: &Router, now: u64, ctx: &str) {
    let fronts = r
        .inputs
        .iter()
        .filter_map(VecDeque::front)
        .map(|head| head.ready)
        .min()
        .unwrap_or(u64::MAX);
    assert_eq!(r.head_ready, fronts, "{ctx}: earliest head ready");
    let mask = (0..5)
        .filter(|&p| !r.inputs[p].is_empty())
        .fold(0u8, |m, p| m | 1 << p);
    assert_eq!(r.live, mask, "{ctx}: live mask");
    assert_eq!(r.is_empty(), r.occupancy() == 0, "{ctx}: emptiness");
    for probe in [0, now, now + 1, now + 7] {
        assert_eq!(
            r.next_event(probe),
            scanned_next_event(r, probe),
            "{ctx}: next_event({probe})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random sequences of injects, accepts (ready now, soon or later),
    /// ticks, idle cycles, link-down windows and their ends on one
    /// router of a compiled SpMV: after every step the cached head state
    /// is exactly what a scan of the queues gives. Heads that want the
    /// same output in one cycle block each other, partly served
    /// multicasts stay queued, and downed links hold ready heads.
    #[test]
    fn head_cache_matches_a_queue_scan(
        ops in proptest::collection::vec((0u8..7, 0usize..5, 0usize..4096, 0u64..6, 0usize..16), 1..160),
        tile in 0u32..16,
    ) {
        let a = azul_sparse::generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(4, 4);
        let prog = Program::compile_spmv(&a, &RoundRobinMapper.map(&a, grid));
        let rows = prog.trees.num_rows();
        let mut r = Router::new(grid, tile, 4);
        let mut deliveries = Vec::new();
        let mut outbox = Vec::new();
        let mut stats = crate::stats::KernelStats::default();
        let mut now = 0u64;
        assert_head_cache_exact(&r, now, "new");
        for (step, &(op, port, row, delay, idx)) in ops.iter().enumerate() {
            let flit = Flit {
                kind: if row % 2 == 0 { FlitKind::X } else { FlitKind::Partial },
                idx: idx as u32,
                row: (row % rows) as u32,
                val: 1.0,
                outbound: op == 0,
            };
            match op {
                0 if r.can_inject() => r.inject(now, flit),
                0 | 1 => r.apply_accept(port % 4, now + delay, flit),
                2 | 3 => {
                    deliveries.clear();
                    outbox.clear();
                    tick_router(&mut r, now, 1, &prog, &mut deliveries, &mut outbox, &mut stats);
                    now += 1;
                }
                4 => now += delay,
                5 => r.inject_link_down(port % 4),
                _ => r.clear_faults(),
            }
            assert_head_cache_exact(&r, now, &format!("step {step} op {op}"));
        }
        // Drain: every flit retires and the cache empties with it.
        r.clear_faults();
        let deadline = now + 4 * ops.len() as u64 + 16;
        while !r.is_empty() && now < deadline {
            tick_router(&mut r, now, 1, &prog, &mut deliveries, &mut outbox, &mut stats);
            now += 1;
            assert_head_cache_exact(&r, now, "drain");
        }
        assert!(r.is_empty(), "the router drains");
        assert_eq!(r.next_event(now), None);
    }
}
