//! Static NoC traffic model (Fig. 11, Sec. VI-C).
//!
//! Given a placement, the communication of each kernel is fully
//! determined: each column multicast spans the tiles holding that column's
//! nonzeros, and each row reduction spans the tiles holding that row's
//! nonzeros. Messages flow over [`CommTree`]s, so link activations are the
//! tree link counts. This model reproduces the traffic comparisons without
//! running the cycle-level simulator (which counts the same quantities
//! dynamically).

use crate::grid::TileId;
use crate::placement::Placement;
use crate::tree::{CommTree, TreeTable};
use azul_sparse::Csr;

/// Aggregate traffic of one kernel invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Logical messages: for each communication set spanning `N` tiles,
    /// `N - 1` messages (Sec. IV-B).
    pub messages: u64,
    /// Link activations: total tree-link traversals (Fig. 11's metric).
    pub link_hops: u64,
    /// The heaviest single link's activation count (hotspot measure).
    pub max_link_load: u64,
    /// Per-link activation counts, indexed `tile * 4 + direction`.
    pub per_link: Vec<u64>,
}

impl TrafficReport {
    fn new(num_tiles: usize) -> Self {
        TrafficReport {
            per_link: vec![0; num_tiles * 4],
            ..Default::default()
        }
    }

    fn add_tree(&mut self, tree: CommTree<'_>) {
        self.messages += tree.dests().len() as u64;
        self.link_hops += tree.num_links() as u64;
        for node in tree.nodes() {
            for &dir in node.child_dirs {
                let idx = node.tile as usize * 4 + dir.index();
                self.per_link[idx] += 1;
                self.max_link_load = self.max_link_load.max(self.per_link[idx]);
            }
        }
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &TrafficReport) {
        self.messages += other.messages;
        self.link_hops += other.link_hops;
        if self.per_link.len() == other.per_link.len() {
            for (a, b) in self.per_link.iter_mut().zip(&other.per_link) {
                *a += b;
            }
            self.max_link_load = self.per_link.iter().copied().max().unwrap_or(0);
        }
    }
}

/// Traffic of one SpMV `y = A x` under `placement`.
///
/// Column multicasts send `x_j` from its home to every tile holding a
/// column-`j` nonzero; row reductions send partial sums to `y_i`'s home.
///
/// # Panics
///
/// Panics if `a`'s nonzero count differs from the placement.
pub fn spmv_traffic(a: &Csr, placement: &Placement) -> TrafficReport {
    let grid = placement.grid();
    let mut report = TrafficReport::new(grid.num_tiles());
    for (j, set) in placement.column_tile_sets(a).iter().enumerate() {
        let tree = TreeTable::single(grid, placement.vec_tile(j), set);
        report.add_tree(tree.tree(0));
    }
    for (i, set) in placement.row_tile_sets(a).iter().enumerate() {
        let tree = TreeTable::single(grid, placement.vec_tile(i), set);
        report.add_tree(tree.tree(0));
    }
    report
}

/// Traffic of one lower-triangular solve `L x = b` where `L = tril(a)`.
///
/// Solved variables are multicast down their column; row partial sums
/// reduce to the row's home tile (which performs the solve).
///
/// # Panics
///
/// Panics if `a`'s nonzero count differs from the placement.
pub fn sptrsv_traffic(a: &Csr, placement: &Placement) -> TrafficReport {
    let grid = placement.grid();
    let mut report = TrafficReport::new(grid.num_tiles());
    let n = a.rows();
    let mut col_sets: Vec<Vec<TileId>> = vec![Vec::new(); n];
    let mut row_sets: Vec<Vec<TileId>> = vec![Vec::new(); n];
    for (p, (r, c, _)) in a.iter().enumerate() {
        if c < r {
            let t = placement.nnz_tile(p);
            col_sets[c].push(t);
            row_sets[r].push(t);
        }
    }
    for j in 0..n {
        for set in [&col_sets[j], &row_sets[j]] {
            let tree = TreeTable::single(grid, placement.vec_tile(j), set);
            report.add_tree(tree.tree(0));
        }
    }
    report
}

/// Traffic of one full PCG iteration: one SpMV, two SpTRSVs (with `L` and
/// `L^T`, which have mirrored communication sets), plus the all-reduce
/// trees of the three dot products.
///
/// # Panics
///
/// Panics if `a`'s nonzero count differs from the placement.
pub fn pcg_iteration_traffic(a: &Csr, placement: &Placement) -> TrafficReport {
    let grid = placement.grid();
    let mut report = spmv_traffic(a, placement);
    let tri = sptrsv_traffic(a, placement);
    report.merge(&tri);
    report.merge(&tri); // L and L^T solves have symmetric traffic
                        // Three dot-product all-reduces: every tile holding vector data
                        // contributes one partial to tile 0, then the scalar is broadcast back.
    let mut holders: Vec<TileId> = placement.vec_tiles().to_vec();
    holders.sort_unstable();
    holders.dedup();
    let table = TreeTable::single(grid, 0, &holders);
    let tree = table.tree(0);
    for _ in 0..3 {
        let mut t = TrafficReport::new(grid.num_tiles());
        t.add_tree(tree); // reduce
        t.add_tree(tree); // broadcast
        report.merge(&t);
    }
    report
}

/// How heavily a traffic pattern loads the torus bisection: the total
/// activations of links crossing the vertical mid-cut, and the implied
/// lower bound on kernel cycles at 1 flit/link/cycle.
///
/// This is the quantity behind the paper's observation that the NoC has
/// "a modest 6 TB/s network bisection bandwidth" against 192 TB/s of
/// SRAM bandwidth: a mapping is NoC-bound when `cycles_lower_bound`
/// exceeds the compute time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BisectionLoad {
    /// Link activations crossing the vertical mid-cut.
    pub crossing_activations: u64,
    /// Number of links in the cut (both wrap and internal rings).
    pub cut_links: usize,
    /// Cycles needed just to push the crossing traffic through the cut.
    pub cycles_lower_bound: u64,
}

/// Computes the bisection load of a traffic report on its grid.
pub fn bisection_load(report: &TrafficReport, placement: &Placement) -> BisectionLoad {
    let grid = placement.grid();
    let w = grid.width();
    // The vertical cut between columns (w/2 - 1, w/2) and the wraparound
    // cut between columns (w-1, 0): each row contributes 2 eastbound and
    // 2 westbound crossing links.
    let cut_a = w / 2;
    let mut crossing = 0u64;
    for t in 0..grid.num_tiles() as u32 {
        let (x, _) = grid.coord(t);
        for dir in 0..4usize {
            let count = report
                .per_link
                .get(t as usize * 4 + dir)
                .copied()
                .unwrap_or(0);
            if count == 0 {
                continue;
            }
            // dir 0 = East, 1 = West (see grid::Direction ordering).
            let crosses = match dir {
                0 => (x + 1) % w == cut_a || (x + 1) % w == 0,
                1 => x == cut_a || x == 0,
                _ => false,
            };
            if crosses {
                crossing += count;
            }
        }
    }
    let cut_links = 4 * grid.height();
    BisectionLoad {
        crossing_activations: crossing,
        cut_links,
        cycles_lower_bound: crossing / cut_links.max(1) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::TileGrid;
    use crate::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper};
    use azul_sparse::generate;

    #[test]
    fn single_tile_placement_has_zero_traffic() {
        let a = generate::grid_laplacian_2d(4, 4);
        let grid = TileGrid::new(1, 1);
        let p = Placement::new(grid, vec![0; a.nnz()], vec![0; 16]);
        let t = spmv_traffic(&a, &p);
        assert_eq!(t.messages, 0);
        assert_eq!(t.link_hops, 0);
    }

    #[test]
    fn round_robin_traffic_scales_with_nnz() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(4, 4);
        let p = RoundRobinMapper.map(&a, grid);
        let t = spmv_traffic(&a, &p);
        // Round robin scatters columns across many tiles: messages should
        // be on the order of nnz.
        assert!(t.messages as usize > a.nnz() / 4);
        assert!(t.link_hops >= t.messages, "trees have >= 1 hop per dest");
    }

    #[test]
    fn azul_mapping_reduces_traffic_vs_baselines() {
        let a = generate::fem_mesh_3d(200, 6, 13);
        let grid = TileGrid::new(4, 4);
        let rr = spmv_traffic(&a, &RoundRobinMapper.map(&a, grid));
        let bl = spmv_traffic(&a, &BlockMapper.map(&a, grid));
        let az = spmv_traffic(&a, &AzulMapper::default().map(&a, grid));
        assert!(
            az.link_hops * 3 < rr.link_hops,
            "azul {} vs rr {}",
            az.link_hops,
            rr.link_hops
        );
        assert!(
            az.link_hops < bl.link_hops,
            "azul {} vs block {}",
            az.link_hops,
            bl.link_hops
        );
    }

    #[test]
    fn sptrsv_traffic_only_counts_strict_lower() {
        // Diagonal matrix: no SpTRSV communication at all.
        let a = azul_sparse::Csr::identity(8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let t = sptrsv_traffic(&a, &p);
        assert_eq!(t.messages, 0);
    }

    #[test]
    fn pcg_traffic_exceeds_spmv_traffic() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let spmv = spmv_traffic(&a, &p);
        let pcg = pcg_iteration_traffic(&a, &p);
        assert!(pcg.messages > spmv.messages);
        assert!(pcg.link_hops > spmv.link_hops);
    }

    #[test]
    fn bisection_load_reflects_mapping_quality() {
        let a = generate::fem_mesh_3d(200, 6, 13);
        let grid = TileGrid::new(4, 4);
        let rr_place = RoundRobinMapper.map(&a, grid);
        let az_place = AzulMapper::default().map(&a, grid);
        let rr = bisection_load(&spmv_traffic(&a, &rr_place), &rr_place);
        let az = bisection_load(&spmv_traffic(&a, &az_place), &az_place);
        assert!(
            az.crossing_activations < rr.crossing_activations,
            "azul {} vs rr {}",
            az.crossing_activations,
            rr.crossing_activations
        );
        assert_eq!(rr.cut_links, 16);
        assert!(rr.cycles_lower_bound >= az.cycles_lower_bound);
    }

    #[test]
    fn bisection_load_zero_for_local_placement() {
        let a = generate::grid_laplacian_2d(4, 4);
        let grid = TileGrid::new(1, 1);
        let p = Placement::new(grid, vec![0; a.nnz()], vec![0; 16]);
        let load = bisection_load(&spmv_traffic(&a, &p), &p);
        assert_eq!(load.crossing_activations, 0);
        assert_eq!(load.cycles_lower_bound, 0);
    }

    #[test]
    fn per_link_totals_match_link_hops() {
        let a = generate::fem_mesh_3d(100, 4, 21);
        let grid = TileGrid::new(4, 4);
        let p = BlockMapper.map(&a, grid);
        let t = spmv_traffic(&a, &p);
        assert_eq!(t.per_link.iter().sum::<u64>(), t.link_hops);
        assert_eq!(t.max_link_load, t.per_link.iter().copied().max().unwrap());
    }
}
