//! Engine throughput: wall-clock cost of the cycle-accurate simulation
//! itself, and how much host work parking idle tiles saves.
//!
//! Unlike the `fig*`/`table*` targets, this bench measures the
//! *simulator*, not the simulated accelerator. Three sections:
//!
//! 1. **PCG solve** — one full solve per matrix, on a
//!    parallelism-limited and a grid-like analog: the engine's
//!    throughput in simulated Mcycles per host second.
//! 2. **SpTRSV serial chain** — a tridiagonal chain round-robined
//!    across the grid, the dependence-limited tail where nearly every
//!    tile waits nearly every cycle, at three hop latencies.
//! 3. **Idle-heavy 64x64** — a serial chain on 16 tiles spread across
//!    the paper's 64x64 machine. The headline is exact and
//!    host-independent: the tile-cycles the per-cycle loop would tick
//!    (ticked + credited) over the tile-cycles the engine really ticked.
//!    It must be at least 10; CI's trend check also holds it to the
//!    committed baseline.

use azul_bench::{header, prepare, row, telemetry_report, write_bench_artifact, BenchCtx};
use azul_mapping::strategies::{Mapper, RoundRobinMapper};
use azul_mapping::{Placement, TileGrid};
use azul_sim::config::SimConfig;
use azul_sim::machine::run_kernel;
use azul_sim::pcg::PcgSim;
use azul_sim::profile;
use azul_sim::program::Program;
use azul_sim::stats::KernelStats;
use azul_sparse::suite::Scale;
use azul_sparse::{generate, suite};
use azul_telemetry::TelemetryReport;
use std::time::Instant;

/// One kernel run with its wall time and the engine's host work:
/// `(stats, wall seconds, ticked, credited)` tile-cycles.
fn counted_run(cfg: &SimConfig, prog: &Program, b: &[f64]) -> (KernelStats, f64, u64, u64) {
    profile::reset();
    let t0 = Instant::now();
    let (_, stats) = run_kernel(cfg, prog, b);
    let wall = t0.elapsed().as_secs_f64();
    let snap = profile::snapshot();
    (
        stats,
        wall,
        snap.ticked_tile_cycles,
        snap.credited_tile_cycles,
    )
}

/// `(ticked + credited) / ticked`: how many tile-cycles of the
/// per-cycle loop each real tick stands for.
fn tile_cycle_ratio(ticked: u64, credited: u64) -> f64 {
    (ticked + credited) as f64 / ticked.max(1) as f64
}

fn main() {
    let ctx = BenchCtx::from_env();
    assert!(
        ctx.grid.num_tiles() >= 256,
        "sim_perf wants at least a 16x16 grid (got {} tiles)",
        ctx.grid.num_tiles()
    );
    // This bench is the zero-trace baseline of the observability layer:
    // event tracing is opt-in, so the default config must measure the
    // untraced fast path and every artifact row says so.
    assert!(
        SimConfig::azul(ctx.grid).trace.is_none(),
        "sim_perf must measure the untraced fast path"
    );
    let mut reports: Vec<TelemetryReport> = Vec::new();

    // Section 1: one full PCG solve per matrix.
    header("sim_perf §1 — PCG engine throughput", "");
    row("matrix", &["throughput".to_string()]);
    for name in ["nd12k", "thermal2"] {
        let m = prepare(suite::by_name(name).unwrap(), ctx.scale);
        let placement = ctx.azul_mapper().map(&m.a, ctx.grid);
        let cfg = SimConfig::azul(ctx.grid);
        let sim = PcgSim::build(&m.a, &placement, &cfg).expect("IC(0) succeeds");
        let t0 = Instant::now();
        let rep = sim.run(&m.b, &ctx.pcg_cfg());
        let wall = t0.elapsed().as_secs_f64();
        let mcps = rep.total_cycles as f64 / wall / 1.0e6;
        let mut doc = telemetry_report(&m, &cfg, &rep);
        doc.scenario_field("section", "pcg");
        doc.scenario_field("tracing", false);
        doc.scenario_field("wall_seconds", wall);
        doc.scenario_field("sim_mcycles_per_sec", mcps);
        reports.push(doc);
        row(name, &[format!("{mcps:.2} Mc/s")]);
    }

    // Section 2: the dependence-limited SpTRSV tail. A tridiagonal
    // chain serializes the whole solve, and round-robin placement puts
    // every consecutive row on a different tile, so each row pays a
    // full NoC transit during which exactly one flit exists
    // machine-wide.
    header("sim_perf §2 — SpTRSV serial chain", "");
    let n = 64 * ctx.grid.num_tiles();
    let a = generate::tridiagonal(n);
    let l = a.lower_triangle();
    let p = RoundRobinMapper.map(&a, ctx.grid);
    let prog = Program::compile_sptrsv_lower(&l, &a, &p);
    let b: Vec<f64> = (0..n)
        .map(|i| 1.0 + ((i * 31 % 17) as f64) / 17.0)
        .collect();
    row(
        "hop",
        &["wall".into(), "Mc/s".into(), "tile-cycle ratio".into()],
    );
    for hop in [1u32, 4, 16] {
        let mut cfg = SimConfig::azul(ctx.grid);
        cfg.hop_latency = hop;
        let (stats, wall, ticked, credited) = counted_run(&cfg, &prog, &b);
        let ratio = tile_cycle_ratio(ticked, credited);
        let mcps = stats.cycles as f64 / wall / 1.0e6;
        let mut doc = TelemetryReport::default();
        doc.scenario_field("section", "sptrsv");
        doc.scenario_field("tracing", false);
        doc.scenario_field("kernel", "sptrsv_lower");
        doc.scenario_field("matrix", "tridiagonal");
        doc.scenario_field("n", n as u64);
        doc.scenario_field("hop_latency", hop as u64);
        doc.scenario_field("wall_seconds", wall);
        doc.scenario_field("sim_mcycles_per_sec", mcps);
        doc.scenario_field("ticked_tile_cycles", ticked);
        doc.scenario_field("credited_tile_cycles", credited);
        azul_sim::telemetry::fill_report(&mut doc, &cfg, &stats);
        reports.push(doc);
        row(
            &format!("{hop} ({} cyc)", stats.cycles),
            &[
                format!("{:.0} ms", wall * 1e3),
                format!("{mcps:.2}"),
                format!("{ratio:.2}x"),
            ],
        );
    }

    // Section 3: the parking headline — a mostly-idle machine. The
    // paper's machine is 64x64; a serial chain hand-placed onto 16
    // tiles spread across it leaves 4080 tiles untouched and, of the 16
    // live ones, at most one or two with anything to do on any given
    // cycle. The per-cycle loop would tick every tile holding a flit in
    // a 128-cycle transit; parking ticks a tile only when it can act,
    // and jumps the clock while nothing can.
    header("sim_perf §3 — idle-heavy 64x64 topology", "");
    let big = TileGrid::square(64);
    let n3 = match ctx.scale {
        Scale::Tiny => 2_048,
        Scale::Small => 4_096,
        Scale::Medium => 8_192,
    };
    let a3 = generate::tridiagonal(n3);
    let l3 = a3.lower_triangle();
    // 16 active tiles at maximal spread: one per (8 + 16i, 8 + 16j)
    // grid position, consecutive chain rows round-robined across them
    // so every dependence pays a cross-machine NoC transit.
    let spots: Vec<u32> = (0..16u32)
        .map(|k| (8 + 16 * (k / 4)) * 64 + (8 + 16 * (k % 4)))
        .collect();
    let tile_of_row = |r: usize| spots[r % spots.len()];
    let vec_tile: Vec<u32> = (0..n3).map(tile_of_row).collect();
    let nnz_tile: Vec<u32> = a3.iter().map(|(r, _, _)| tile_of_row(r)).collect();
    let p3 = Placement::new(big, nnz_tile, vec_tile);
    let prog3 = Program::compile_sptrsv_lower(&l3, &a3, &p3);
    let b3: Vec<f64> = (0..n3)
        .map(|i| 1.0 + ((i * 31 % 17) as f64) / 17.0)
        .collect();
    let mut cfg = SimConfig::azul(big);
    cfg.hop_latency = 128;
    let (stats, wall, ticked, credited) = counted_run(&cfg, &prog3, &b3);
    let ratio = tile_cycle_ratio(ticked, credited);
    let mut doc = TelemetryReport::default();
    doc.scenario_field("section", "idle_heavy");
    doc.scenario_field("tracing", false);
    doc.scenario_field("kernel", "sptrsv_lower");
    doc.scenario_field("matrix", "tridiagonal");
    doc.scenario_field("n", n3 as u64);
    doc.scenario_field("grid", "64x64");
    doc.scenario_field("active_tiles", spots.len() as u64);
    doc.scenario_field("hop_latency", 128u64);
    doc.scenario_field("wall_seconds", wall);
    doc.scenario_field("sim_mcycles_per_sec", stats.cycles as f64 / wall / 1.0e6);
    doc.scenario_field("ticked_tile_cycles", ticked);
    doc.scenario_field("credited_tile_cycles", credited);
    azul_sim::telemetry::fill_report(&mut doc, &cfg, &stats);
    reports.push(doc);
    row(
        "grid/active",
        &["cycles".into(), "wall".into(), "tile-cycle ratio".into()],
    );
    row(
        &format!("64x64/{}", spots.len()),
        &[
            format!("{}", stats.cycles),
            format!("{:.0} ms", wall * 1e3),
            format!("{ratio:.2}x"),
        ],
    );

    match write_bench_artifact("sim_perf", &reports) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => println!("artifact write failed: {e}"),
    }
    println!("headline: parking tile-cycle ratio on idle-heavy 64x64 {ratio:.2}x");
    assert!(
        ratio >= 10.0,
        "parking should stand in for at least 10 ticks per real tick on \
         the idle-heavy 64x64 topology (got {ratio:.2}x)"
    );
}
