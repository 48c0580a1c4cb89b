//! Property-based checks of replay (`crate::replay`): a launch that
//! replays a program's record returns exactly what the tick engine
//! returns for the same input — every output bit and every statistic —
//! and only launches that qualify ever replay.

use super::*;
use crate::cancel::CancelToken;
use crate::config::PeModel;
use crate::faults::FaultPlan;
use azul_mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper};
use azul_mapping::TileGrid;
use azul_sparse::{Coo, Csr};
use proptest::prelude::*;

/// Random SPD matrix via diagonal dominance, dimension 4..=30.
fn arb_spd() -> impl Strategy<Value = Csr> {
    (4usize..=30).prop_flat_map(|n| {
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

/// A right-hand side that differs per `seed`, with both signs.
fn input(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| ((i * 37 + seed * 11) % 23) as f64 / 7.0 - 1.3)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The engine on its own: no record read, none written.
fn engine_alone(cfg: &SimConfig, prog: &Program, input: &[f64]) -> (Vec<f64>, KernelStats) {
    let (x, s, _) = run_engine(cfg, prog, input, None, true, &mut ()).expect("engine run");
    (x, s)
}

/// The bits of each entry, with every NaN as `None`: which of two NaN
/// operands an `a + b` returns is not fixed by the language, so a NaN's
/// sign and payload may differ between two compiled loops that perform
/// the same operations (`crate::replay`'s contract).
fn bits_but_nan(v: &[f64]) -> Vec<Option<u64>> {
    v.iter()
        .map(|x| (!x.is_nan()).then(|| x.to_bits()))
        .collect()
}

/// Launches `prog` and checks the result against the engine: every
/// non-NaN output bit for bit, ±0.0 and ±inf included, and every NaN as
/// NaN. Returns whether the launch ticked (`false`: it replayed).
fn launch_matches_engine(cfg: &SimConfig, prog: &Program, input: &[f64]) -> bool {
    let (x, s, counts) = launch(cfg, prog, input, None).expect("launch");
    let (ex, es) = engine_alone(cfg, prog, input);
    assert_eq!(
        bits_but_nan(&x),
        bits_but_nan(&ex),
        "output bits diverged from the engine"
    );
    assert_eq!(s, es, "statistics diverged from the engine");
    counts.is_some()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replayed_launches_match_the_engine(
        a in arb_spd(),
        mapper_ix in 0usize..3,
        kind in 0usize..3,
        pe_ix in 0usize..3,
        contexts in 1usize..=4,
        hop in 1u32..=16,
        cols in 2usize..=3,
        seed in 0u64..1000,
    ) {
        let grid = TileGrid::new(cols, 2);
        let mapper: Box<dyn Mapper> = match mapper_ix {
            0 => Box::new(RoundRobinMapper),
            1 => Box::new(BlockMapper),
            _ => Box::new(AzulMapper { fast: true, quantiles: 0, ..Default::default() }),
        };
        let p = mapper.map(&a, grid);
        let prog = match kind {
            0 => Program::compile_spmv(&a, &p),
            k => {
                let l = azul_solver::ic0::ic0(&a).expect("SPD factors");
                let (lower, upper) = Program::compile_sptrsv_pair(&l, &a, &p);
                if k == 1 { lower } else { upper }
            }
        };
        let mut cfg = match pe_ix {
            0 => SimConfig::azul(grid),
            1 => SimConfig::dalorex(grid),
            _ => SimConfig::ideal(grid),
        };
        if cfg.pe_model == PeModel::Azul {
            cfg.contexts = contexts;
        }
        cfg.hop_latency = hop;
        let n = a.rows();
        let (b1, b2) = (input(n, seed), input(n, seed + 1));

        // The first launch ticks and records; later ones replay, on any
        // input, through any clone.
        prop_assert!(launch_matches_engine(&cfg, &prog, &b1), "first launch must tick");
        prop_assert!(prog.replay_bytes() > 0, "first launch must record");
        prop_assert!(!launch_matches_engine(&cfg, &prog, &b2), "second launch must replay");
        prop_assert!(!launch_matches_engine(&cfg, &prog.clone(), &b1), "clones share the record");

        // Another config ticks.
        let mut other = cfg.clone();
        other.hop_latency += 1;
        prop_assert!(launch_matches_engine(&other, &prog, &b2), "a changed config must tick");

        // Launches whose results hold more than the program, config and
        // input determine never replay.
        let mut variants = Vec::new();
        let mut v = cfg.clone();
        v.faults = Some(FaultPlan::new(vec![FaultEvent {
            at_cycle: 0,
            kind: FaultKind::LinkDegrade { tile: 0, extra_latency: 2, for_cycles: 50 },
        }]));
        variants.push(v);
        let mut v = cfg.clone();
        v.trace = Some(azul_telemetry::trace::TraceConfig::default());
        variants.push(v);
        let mut v = cfg.clone();
        v.detailed_stats = true;
        variants.push(v);
        let mut v = cfg.clone();
        v.trace_interval = 5;
        variants.push(v);
        for v in &variants {
            prop_assert!(launch_matches_engine(v, &prog, &b2), "{:?} must tick", v);
        }
        let mut session = FaultSession::new(FaultPlan::new(Vec::new()));
        let (x, _, counts) = launch(&cfg, &prog, &b2, Some(&mut session)).expect("launch");
        prop_assert!(counts.is_some(), "a fault session must tick");
        prop_assert_eq!(bits(&x), bits(&engine_alone(&cfg, &prog, &b2).0));
        profile::enable();
        let probed = launch(&cfg, &prog, &b2, None).expect("launch").2;
        profile::disable();
        prop_assert!(probed.is_some(), "probes on must tick");

        // A cancel token, armed or not, is no part of the key.
        let mut armed = cfg.clone();
        armed.cancel = Some(CancelToken::new());
        prop_assert!(!launch_matches_engine(&armed, &prog, &b1), "a token must not stop replay");

        // A tripped token stops a replay before it starts.
        let tok = CancelToken::new();
        tok.cancel();
        let mut c = cfg.clone();
        c.cancel = Some(tok);
        prop_assert_eq!(
            launch(&c, &prog, &b2, None).map(|r| r.0),
            Err(SimError::Cancelled { cycle: 0 })
        );
    }
}

#[test]
fn launches_under_per_request_tokens_replay() {
    // A service arms a fresh token per request: the second request's
    // launch must replay the first's record.
    let a = azul_sparse::generate::grid_laplacian_2d(8, 8);
    let grid = TileGrid::new(2, 2);
    let prog = Program::compile_spmv(&a, &BlockMapper.map(&a, grid));
    let armed = || {
        let mut cfg = SimConfig::azul(grid);
        cfg.cancel = Some(CancelToken::new());
        cfg
    };
    assert!(launch_matches_engine(&armed(), &prog, &input(a.rows(), 1)));
    assert!(!launch_matches_engine(&armed(), &prog, &input(a.rows(), 2)));
}

#[test]
fn replays_count_no_tile_cycles() {
    let a = azul_sparse::generate::grid_laplacian_2d(8, 8);
    let grid = TileGrid::new(2, 2);
    let prog = Program::compile_spmv(&a, &BlockMapper.map(&a, grid));
    let cfg = SimConfig::azul(grid);
    let b = input(a.rows(), 3);
    profile::reset();
    let first = run_kernel_checked(&cfg, &prog, &b, None).expect("first launch");
    let after_first = profile::snapshot().ticked_tile_cycles;
    assert!(after_first > 0, "the first launch ticks");
    let again = run_kernel_checked(&cfg, &prog, &b, None).expect("replay");
    assert_eq!(
        profile::snapshot().ticked_tile_cycles,
        after_first,
        "a replay ticks nothing"
    );
    assert_eq!(bits(&first.0), bits(&again.0));
    assert_eq!(first.1, again.1);
}

#[test]
fn a_reordered_row_changes_the_output_bits() {
    // One tile, so row 0's three entries are three Fmacs on one slot.
    // Their coefficients are distinct powers of two, so the inputs below
    // make the row's updates exactly `2^60`, `-2^60` and `1` in issue
    // order: the engine's sum is 1, and trading the last two updates
    // rounds the 1 away.
    let mut coo = Coo::new(3, 3);
    for (r, c, v) in [
        (0, 0, 1.0),
        (0, 1, 2.0),
        (0, 2, 4.0),
        (1, 1, 1.0),
        (2, 2, 1.0),
    ] {
        coo.push(r, c, v).unwrap();
    }
    let a = coo.to_csr();
    let grid = TileGrid::new(1, 1);
    let prog = Program::compile_spmv(&a, &BlockMapper.map(&a, grid));
    let cfg = SimConfig::azul(grid);
    assert!(
        launch_matches_engine(&cfg, &prog, &[1.0; 3]),
        "first launch must tick"
    );
    let rec = prog.memo().get().expect("first launch records");
    let k = (0..rec.num_rows())
        .find(|&k| rec.row(k).0.len() == 3)
        .expect("row 0 has three updates");
    let (c, s) = rec.row(k);
    assert_ne!(c[1], c[2], "the traded updates must differ");
    let big = 2f64.powi(60);
    let mut x = vec![0.0; 3];
    x[s[0] as usize] = big / c[0];
    x[s[1] as usize] = -big / c[1];
    x[s[2] as usize] = 1.0 / c[2];

    let (ex, _) = engine_alone(&cfg, &prog, &x);
    assert_eq!(ex[0], 1.0);
    assert_eq!(bits(&rec.run(&prog, &x)), bits(&ex));
    assert_ne!(
        bits(&rec.with_swapped(k, 1, 2).run(&prog, &x)),
        bits(&ex),
        "a row replayed out of issue order must show in the output bits"
    );
}

#[test]
fn replays_match_the_engine_on_non_finite_and_signed_zero_inputs() {
    // Round-robin placement spreads each row over tiles, so every kernel
    // also combines partials.
    let a = azul_sparse::generate::grid_laplacian_2d(6, 6);
    let grid = TileGrid::new(3, 2);
    let p = RoundRobinMapper.map(&a, grid);
    let l = azul_solver::ic0::ic0(&a).expect("SPD factors");
    let (lower, upper) = Program::compile_sptrsv_pair(&l, &a, &p);
    let spmv = Program::compile_spmv(&a, &p);
    let cfg = SimConfig::azul(grid);
    let n = a.rows();
    let special = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
    ];
    let inputs: Vec<Vec<f64>> = vec![
        vec![-0.0; n],
        (0..n)
            .map(|i| if i % 3 == 0 { 0.0 } else { -0.0 })
            .collect(),
        (0..n).map(|i| special[i % special.len()]).collect(),
        (0..n)
            .map(|i| match i % 7 {
                0 => f64::INFINITY,
                3 => -0.0,
                5 => f64::NEG_INFINITY,
                _ => i as f64 - 10.5,
            })
            .collect(),
        (0..n)
            .map(|i| {
                if i == n / 2 {
                    -f64::NAN
                } else {
                    1.0 / (i as f64 + 1.0)
                }
            })
            .collect(),
    ];
    for prog in [&spmv, &lower, &upper] {
        assert!(
            launch_matches_engine(&cfg, prog, &input(n, 5)),
            "first launch must tick"
        );
        assert!(
            engine_alone(&cfg, prog, &input(n, 5)).1.ops[1] > 0,
            "partials combine"
        );
        for x in &inputs {
            assert!(
                !launch_matches_engine(&cfg, prog, x),
                "later launches replay"
            );
        }
    }
}
