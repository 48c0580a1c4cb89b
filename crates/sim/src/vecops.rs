//! Timing of the dense vector kernels (dots, axpys) on the accelerator.
//!
//! Vector elements are distributed by the placement's home map, so
//! element-wise operations (`axpy`, `p = z + beta p`, scaling) are fully
//! tile-local: one FMAC per element, no communication. Dot products add a
//! scalar all-reduce over a tree of the participating tiles followed by a
//! broadcast of the result.
//!
//! These kernels take a small fraction of runtime (Figs. 3, 22), so they
//! are timed with a closed-form model rather than the tick engine: each
//! tile issues its local operations at one per cycle (the PE rotates
//! across several partial accumulators, so same-slot RAW hazards do not
//! throttle streaming sums), and the reduction/broadcast cost follows the
//! tree depth. Dalorex cores pay their per-operation control overhead
//! here too.

use crate::config::{PeModel, SimConfig};
use crate::stats::{KernelStats, OpKind};
use azul_mapping::tree::TreeTable;
use azul_mapping::{Placement, TileId};

/// The dense-vector kernels of PCG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecOp {
    /// `dot(u, v)` — local FMACs + all-reduce + broadcast.
    Dot,
    /// `y += alpha x` — local FMACs.
    Axpy,
    /// `p = z + beta p` — local FMACs.
    Xpby,
    /// `x *= alpha` — local Muls.
    Scale,
}

/// Precomputed vector-kernel timing context for one placement.
#[derive(Debug, Clone)]
pub struct VecOpModel {
    /// Elements homed on each tile.
    elems_per_tile: Vec<u32>,
    /// Maximum elements on any tile (the local critical path).
    max_elems: u32,
    /// Number of tiles holding at least one element.
    participants: u32,
    /// All-reduce tree depth in hops (longest leaf-to-root path).
    tree_depth: u32,
    /// All-reduce tree link count.
    tree_links: u32,
}

impl VecOpModel {
    /// Builds the model from a placement (the all-reduce tree is rooted at
    /// tile 0).
    pub fn new(placement: &Placement) -> Self {
        let grid = placement.grid();
        let mut elems = vec![0u32; grid.num_tiles()];
        for &t in placement.vec_tiles() {
            elems[t as usize] += 1;
        }
        let holders: Vec<TileId> = (0..grid.num_tiles() as u32)
            .filter(|&t| elems[t as usize] > 0)
            .collect();
        let table = TreeTable::single(grid, 0, &holders);
        let tree = table.tree(0);
        // Longest leaf-to-root path.
        let mut depth = 0u32;
        for &d in tree.dests() {
            let mut cur = d;
            let mut steps = 0u32;
            while let Some(p) = tree.parent_of(cur) {
                cur = p;
                steps += 1;
            }
            depth = depth.max(steps);
        }
        VecOpModel {
            max_elems: elems.iter().copied().max().unwrap_or(0),
            participants: holders.len() as u32,
            elems_per_tile: elems,
            tree_depth: depth,
            tree_links: tree.num_links() as u32,
        }
    }

    /// Elements homed on each tile.
    pub fn elems_per_tile(&self) -> &[u32] {
        &self.elems_per_tile
    }

    /// Timing and operation statistics for one vector kernel of dimension
    /// `n`.
    pub fn stats(&self, cfg: &SimConfig, op: VecOp, n: usize) -> KernelStats {
        let mut s = KernelStats::default();
        let per_op: u64 = match cfg.pe_model {
            PeModel::Azul => 1,
            PeModel::Dalorex => 1 + cfg.dalorex_overhead as u64,
            PeModel::Ideal => 0,
        };
        let local_ops = self.max_elems as u64;
        let mut cycles = local_ops * per_op;
        if cfg.pe_model == PeModel::Dalorex {
            s.overhead_cycles = local_ops * cfg.dalorex_overhead as u64;
        }

        // Local operation counts across all tiles.
        match op {
            VecOp::Dot | VecOp::Axpy | VecOp::Xpby => {
                s.ops[OpKind::Fmac as usize] += n as u64;
            }
            VecOp::Scale => {
                s.ops[OpKind::Mul as usize] += n as u64;
            }
        }
        s.sram_reads += n as u64;
        s.accum_rmws += n as u64;

        if op == VecOp::Dot && self.participants > 1 {
            // All-reduce: combines climb the tree, then the scalar is
            // broadcast back down. Pipeline depth adds to each combine.
            let hop = cfg.hop_latency as u64;
            let combine = cfg.hazard_latency();
            cycles += self.tree_depth as u64 * (hop + combine) // reduce
                + self.tree_depth as u64 * hop; // broadcast
            s.ops[OpKind::Add as usize] += self.participants as u64 - 1;
            s.ops[OpKind::Send as usize] += 2 * self.participants as u64;
            s.messages += 2 * self.participants as u64;
            s.link_activations += 2 * self.tree_links as u64;
            // Flit conservation (invariants::RULE_FLIT_CONSERVATION):
            // every injection and every forward retires through exactly
            // one router, so traversals = messages + link activations.
            s.router_traversals += 2 * (self.participants as u64 + self.tree_links as u64);
        }
        s.cycles = cycles.max(1);
        s
    }
}

/// Number of tiles that hold at least one vector element.
pub fn participants(model: &VecOpModel) -> u32 {
    model.participants
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_mapping::strategies::{Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    fn model_4tiles(n_side: usize) -> (VecOpModel, SimConfig, usize) {
        let a = generate::grid_laplacian_2d(n_side, n_side);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let cfg = SimConfig::azul(grid);
        let n = a.rows();
        (VecOpModel::new(&p), cfg, n)
    }

    #[test]
    fn elems_are_balanced_under_round_robin() {
        let (m, _, n) = model_4tiles(8);
        assert_eq!(m.elems_per_tile().iter().sum::<u32>() as usize, n);
        assert_eq!(m.max_elems, (n as u32).div_ceil(4));
    }

    #[test]
    fn axpy_takes_local_time_only() {
        let (m, cfg, n) = model_4tiles(8);
        let s = m.stats(&cfg, VecOp::Axpy, n);
        assert_eq!(s.cycles, m.max_elems as u64);
        assert_eq!(s.messages, 0);
        assert_eq!(s.ops_of(OpKind::Fmac), n as u64);
    }

    #[test]
    fn dot_adds_reduction_cost() {
        let (m, cfg, n) = model_4tiles(8);
        let axpy = m.stats(&cfg, VecOp::Axpy, n);
        let dot = m.stats(&cfg, VecOp::Dot, n);
        assert!(dot.cycles > axpy.cycles);
        assert!(dot.messages > 0);
        assert!(dot.link_activations > 0);
    }

    #[test]
    fn dalorex_vecops_pay_overhead() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let m = VecOpModel::new(&p);
        let azul = m.stats(&SimConfig::azul(grid), VecOp::Axpy, 64);
        let dal = m.stats(&SimConfig::dalorex(grid), VecOp::Axpy, 64);
        assert!(dal.cycles >= 8 * azul.cycles);
        assert!(dal.overhead_cycles > 0);
    }

    #[test]
    fn scale_uses_mul_ops() {
        let (m, cfg, n) = model_4tiles(6);
        let s = m.stats(&cfg, VecOp::Scale, n);
        assert_eq!(s.ops_of(OpKind::Mul), n as u64);
        assert_eq!(s.ops_of(OpKind::Fmac), 0);
    }

    #[test]
    fn single_tile_dot_has_no_messages() {
        let a = generate::grid_laplacian_2d(4, 4);
        let grid = TileGrid::new(1, 1);
        let p = azul_mapping::Placement::new(grid, vec![0; a.nnz()], vec![0; 16]);
        let m = VecOpModel::new(&p);
        let s = m.stats(&SimConfig::azul(grid), VecOp::Dot, 16);
        assert_eq!(s.messages, 0);
        assert_eq!(participants(&m), 1);
    }
}
