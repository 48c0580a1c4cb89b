//! Host-side self-profile: where does the simulator's own wall time go?
//!
//! The companion of `sim_perf`: that bench measures *how fast* the tick
//! engine runs, this one measures *where the time goes* inside it —
//! router arbitration, PE execute, the commit of each tick, waking
//! parked tiles, and stats sampling, attributed via the
//! [`azul_sim::profile`] probes (the only sanctioned wall-clock use in
//! the sim crate; see the `wall-clock-in-sim` lint rule).
//!
//! Runs a full PCG solve, whose kernels tick on the calling thread, so
//! the inner probe scopes nest strictly inside the `tick_loop` scope and
//! shares are well-defined, then writes `BENCH_sim_profile.json` with one
//! `share_ppm_<component>` field per component plus the unattributed
//! remainder. The shares must cover the tick loop: their sum is
//! asserted to land within 1% of 100%.
//!
//! The solve uses Block mapping, the placement of the benchmark's gated
//! simulator workloads: Block and Azul mapping rank the components
//! differently (the router first under Block, the PE under Azul). The
//! artifact also records the size of the programs' tree tables
//! (`tree_rows`, `tree_bytes`), which routers read a row of per hop.
//!
//! The probes are not free: each takes two timestamps around work that
//! is often shorter than the timestamps. So the same solve also runs
//! with the probes off, alternating with the profiled runs, and the
//! bench reports both solve times (best of each) and their ratio as
//! `probe_overhead_ratio`. A remainder or a share is only as good as
//! that ratio is close to 1.

use azul_bench::{header, prepare, row, write_bench_artifact, BenchCtx};
use azul_mapping::strategies::{BlockMapper, Mapper};
use azul_sim::config::SimConfig;
use azul_sim::pcg::PcgSim;
use azul_sim::profile::{self, Component, ALL};
use azul_sim::program::Program;
use azul_solver::ic0::ic0;
use azul_sparse::suite;
use azul_telemetry::TelemetryReport;
use std::time::Instant;

/// Solves per probe setting; each setting keeps its fastest.
const RUNS: usize = 3;

fn main() {
    let ctx = BenchCtx::from_env();
    header(
        "sim_profile — host wall-time attribution of the tick engine",
        "",
    );
    let m = prepare(suite::by_name("thermal2").unwrap(), ctx.scale);
    let placement = BlockMapper.map(&m.a, ctx.grid);

    let cfg = SimConfig::azul(ctx.grid);
    let l = ic0(&m.a).expect("IC(0) succeeds on suite matrices");
    let sim = PcgSim::build_with_factor(&m.a, &l, &placement, &cfg);
    // The solve's tree tables: SpMV's, and the one the SpTRSV pair
    // shares.
    let spmv = Program::compile_spmv(&m.a, &placement);
    let (lower, _) = Program::compile_sptrsv_pair(&l, &m.a, &placement);
    let tree_rows = spmv.trees.num_rows() + lower.trees.num_rows();
    let tree_bytes = spmv.trees.row_bytes() + lower.trees.row_bytes();

    // Alternate unprofiled and profiled solves so host drift hits both
    // alike. Shares come from the profiled runs' summed totals.
    profile::reset();
    let (mut off_ns, mut on_ns) = (u128::MAX, u128::MAX);
    let mut cycles = None;
    for _ in 0..RUNS {
        for probes in [false, true] {
            if probes {
                profile::enable();
            }
            let t = Instant::now();
            let rep = sim.run(&m.b, &ctx.pcg_cfg());
            let ns = t.elapsed().as_nanos();
            profile::disable();
            let best = if probes { &mut on_ns } else { &mut off_ns };
            *best = (*best).min(ns);
            assert_eq!(
                *cycles.get_or_insert(rep.total_cycles),
                rep.total_cycles,
                "probes must not change simulated cycles"
            );
        }
    }
    let total_cycles = cycles.expect("at least one run");
    let snap = profile::snapshot();
    let overhead = on_ns as f64 / off_ns as f64;

    assert!(
        snap.calls(Component::TickLoop) > 0,
        "the solve must have entered the tick loop"
    );

    row(
        "component",
        &["wall ms".into(), "calls".into(), "share".into()],
    );
    for &c in ALL.iter() {
        let share = if c == Component::TickLoop {
            "100.0%".to_string()
        } else {
            format!("{:.1}%", snap.share_ppm(c) as f64 / 10_000.0)
        };
        row(
            c.name(),
            &[
                format!("{:.2}", snap.wall_ns(c) as f64 / 1e6),
                format!("{}", snap.calls(c)),
                share,
            ],
        );
    }
    row(
        "other",
        &[
            String::new(),
            String::new(),
            format!("{:.1}%", snap.other_ppm() as f64 / 10_000.0),
        ],
    );

    // The inner components plus the unattributed remainder must cover
    // the tick loop. Probe overhead can push the measured sum slightly
    // past 100%; anything outside 1% means a probe is misplaced (e.g.
    // nested double-counting or a scope outside the loop).
    let inner: u64 = ALL
        .iter()
        .filter(|&&c| c != Component::TickLoop)
        .map(|&c| snap.share_ppm(c))
        .sum();
    let total_ppm = inner + snap.other_ppm();
    assert!(
        (990_000..=1_010_000).contains(&total_ppm),
        "component shares + remainder must cover the tick loop \
         (got {total_ppm} ppm)"
    );

    let mut doc = TelemetryReport::default();
    doc.scenario_field("bench", "sim_profile");
    doc.scenario_field("matrix", m.name);
    doc.scenario_field("mapping", "block");
    doc.scenario_field("n", m.a.rows() as u64);
    doc.scenario_field("nnz", m.a.nnz() as u64);
    doc.scenario_field("total_cycles", total_cycles);
    doc.scenario_field("runs_per_setting", RUNS as u64);
    doc.scenario_field("probe_overhead_ratio", overhead);
    azul_sim::telemetry::describe_config(&mut doc, &cfg);
    for &c in ALL.iter() {
        doc.counter(&format!("profile_wall_ns_{}", c.name()), snap.wall_ns(c));
        doc.counter(&format!("profile_calls_{}", c.name()), snap.calls(c));
        if c != Component::TickLoop {
            doc.counter(&format!("share_ppm_{}", c.name()), snap.share_ppm(c));
        }
    }
    doc.counter("share_ppm_other", snap.other_ppm());
    doc.counter("share_ppm_total", total_ppm);
    doc.counter("solve_wall_ns_probes_off", off_ns as u64);
    doc.counter("solve_wall_ns_probes_on", on_ns as u64);
    doc.counter("tree_rows", tree_rows as u64);
    doc.counter("tree_bytes", tree_bytes as u64);

    match write_bench_artifact("sim_profile", &[doc]) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => println!("artifact write failed: {e}"),
    }
    println!(
        "headline: {} ppm of tick-loop wall time attributed ({} components + other)",
        total_ppm,
        ALL.len() - 1
    );
    println!("tree tables: {tree_rows} rows, {tree_bytes} bytes");
    println!(
        "solve wall, best of {RUNS}: probes off {:.1} ms, on {:.1} ms, ratio {overhead:.2}x",
        off_ns as f64 / 1e6,
        on_ns as f64 / 1e6
    );
}
