//! The router's tile lookup that routing by tree row replaced, kept as
//! an oracle, and a property test that both decide the same for every
//! row of every tree of a compiled program.

use super::*;
use crate::program::oracle_tests::arb_spd;
use azul_mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper};
use azul_mapping::TileGrid;
use proptest::prelude::*;
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
/// against the slot tables.
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
                let row = prog.inject_row(kind, idx, home);
                assert_eq!(
                    row,
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
                    let slot = prog.tile(tile).combine_slot(idx);
                    assert_eq!(node.combines(), slot.is_some(), "{ctx}: combiner rule");
                    if slot.is_some() && !node.is_root() {
                        let row = prog.inject_row(kind, idx, tile);
                        assert_eq!(
                            row,
                            Some(node.index()),
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
                    let (got, got_n, got_deliver) = route_of(trees, flit);
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
        let l = azul_solver::ic0::ic0(&a).expect("SPD factors");
        let ctx = format!("n={} grid={cols}x{rows} mesh={mesh} mapper={mapper_ix}", a.rows());
        assert_same_decisions(&Program::compile_spmv(&a, &p), &format!("{ctx} spmv"));
        assert_same_decisions(&Program::compile_sptrsv_lower(&l, &a, &p), &format!("{ctx} lower"));
        assert_same_decisions(&Program::compile_sptrsv_upper(&l, &a, &p), &format!("{ctx} upper"));
        let (lo, up) = Program::compile_sptrsv_pair(&l, &a, &p);
        prop_assert!(Arc::ptr_eq(&lo.trees, &up.trees), "the pair shares one table");
        assert_same_decisions(&lo, &format!("{ctx} pair lower"));
        assert_same_decisions(&up, &format!("{ctx} pair upper"));
    }
}
