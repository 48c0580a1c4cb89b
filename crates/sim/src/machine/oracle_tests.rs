//! Property-based equivalence of the parking engine and the per-cycle
//! oracle (`docs/PERFORMANCE.md`).
//!
//! The engine's contract is total: for any program, mapping, grid,
//! timing configuration and fault schedule, parking tiles and lazily
//! crediting their skipped cycles must reproduce the oracle (the same
//! loop with parking off) byte for byte — outputs, every counter,
//! per-tile detail, the invariant audit and the fault journal — and
//! its ticked plus credited tile-cycles must equal the oracle's ticks.
//! The hand-written regressions in `machine.rs` pin the known-tricky
//! edges (blocked heads, mid-span wakes, send fronts); this harness
//! walks the space between them.

use super::*;
use crate::faults::{FaultPlan, FaultRecord};
use azul_mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper};
use azul_mapping::{Placement, TileGrid};
use azul_sparse::{Coo, Csr};
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

/// What one engine observably produced for an SpMV and a lower SpTRSV
/// run through one fault session (so events land mid-"solve").
type Observed = (
    Vec<(Vec<f64>, KernelStats)>,
    Vec<FaultRecord>,
    Vec<TileCycles>,
);

fn run_both_kernels(
    a: &Csr,
    placement: &Placement,
    cfg: &SimConfig,
    plan: Option<&FaultPlan>,
    parking: bool,
) -> Observed {
    let l = azul_solver::ic0::ic0(a).expect("SPD factors");
    let programs = [
        Program::compile_spmv(a, placement),
        Program::compile_sptrsv_lower(&l, a, placement),
    ];
    let b: Vec<f64> = (0..a.rows()).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
    let mut session = plan.map(|p| FaultSession::new(p.clone()));
    let (mut results, mut counts) = (Vec::new(), Vec::new());
    for prog in &programs {
        let (x, stats, c) = run_engine(cfg, prog, &b, session.as_mut(), parking, &mut ())
            .expect("windowed faults always resolve");
        results.push((x, stats));
        counts.push(c);
    }
    let records = session.map(|s| s.records().to_vec()).unwrap_or_default();
    (results, records, counts)
}

/// Runs the engine and the oracle and checks the contract.
fn check(a: &Csr, placement: &Placement, cfg: &SimConfig, plan: Option<&FaultPlan>) {
    let oracle = run_both_kernels(a, placement, cfg, plan, false);
    let got = run_both_kernels(a, placement, cfg, plan, true);
    prop_assert_eq!(&got.1, &oracle.1, "fault journal diverged");
    for k in 0..2 {
        prop_assert_eq!(&got.0[k], &oracle.0[k], "kernel {} diverged", k);
        prop_assert_eq!(
            got.2[k].ticked + got.2[k].credited,
            oracle.2[k].ticked,
            "kernel {}: ticked + credited must equal the oracle's ticks",
            k
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random program x mapping x grid x timing: parking reproduces the
    /// oracle byte for byte.
    #[test]
    fn parking_matches_oracle_on_random_programs(
        a in arb_spd(),
        mapper_ix in 0usize..3,
        cols in 2usize..=4,
        rows in 2usize..=4,
        hop in 1u32..=128,
        sram in 1u32..=4,
        contexts in 1usize..=4,
        pe_ix in 0usize..3,
        trace_interval in 0u64..=9,
    ) {
        let grid = TileGrid::new(cols, rows);
        let mapper: Box<dyn Mapper> = match mapper_ix {
            0 => Box::new(RoundRobinMapper),
            1 => Box::new(BlockMapper),
            _ => Box::new(AzulMapper { fast: true, quantiles: 0, ..Default::default() }),
        };
        let p = mapper.map(&a, grid);
        let mut cfg = match pe_ix {
            0 => SimConfig::azul(grid),
            1 => SimConfig::dalorex(grid),
            _ => SimConfig::ideal(grid),
        };
        cfg.hop_latency = hop;
        cfg.sram_latency = sram;
        if pe_ix == 0 {
            cfg.contexts = contexts;
        }
        cfg.trace_interval = trace_interval;
        cfg.detailed_stats = true;
        cfg.check_invariants = true;
        check(&a, &p, &cfg, None);
    }

    /// Same, under seeded fault schedules: fault runs keep the
    /// per-cycle path, so neither the journal nor any statistic moves,
    /// and an empty plan leaves parking on.
    #[test]
    fn parking_matches_oracle_under_seeded_faults(
        a in arb_spd(),
        cols in 2usize..=3,
        hop in 1u32..=128,
        seed in 0u64..1u64 << 32,
        events in 0usize..=6,
    ) {
        let grid = TileGrid::new(cols, 2);
        let p = BlockMapper.map(&a, grid);
        let plan = FaultPlan::seeded(seed, grid.num_tiles(), events, 8_000);
        let mut cfg = SimConfig::azul(grid);
        cfg.hop_latency = hop;
        cfg.detailed_stats = true;
        cfg.check_invariants = true;
        check(&a, &p, &cfg, Some(&plan));
    }
}
