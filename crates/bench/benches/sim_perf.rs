//! Engine throughput: wall-clock cost of the cycle-accurate simulation
//! itself, and how much host work parking idle tiles saves.
//!
//! Unlike the `fig*`/`table*` targets, this bench measures the
//! *simulator*, not the simulated accelerator. Three sections:
//!
//! 1. **PCG solve** — one full solve per matrix, on a
//!    parallelism-limited and a grid-like analog: the engine's
//!    throughput in simulated Mcycles per host second. Each solve runs
//!    on a freshly built `PcgSim`, so each kernel's first launch ticks;
//!    a kernel's later launches under the same config replay its first
//!    launch's record (`azul_sim::program::Program`), which within one
//!    solve is the setup's SpTRSV pair run again. Three more rows time
//!    one solve's first launch, the same solve replayed, and the same
//!    sim after a values update, which rebinds the value-free record and
//!    replays with no tick; the bench asserts that the first two report
//!    equal telemetry and that only the first ticks. Then each kernel of one PCG
//!    iteration (SpMV and the SpTRSV pair, Block mapping) on nd12k and
//!    thermal2: its replay against its `azul-solver` reference kernel,
//!    each the fastest of `REPLAY_LAUNCHES` launches.
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
use azul_mapping::strategies::{BlockMapper, Mapper, RoundRobinMapper};
use azul_mapping::{Placement, TileGrid};
use azul_sim::config::SimConfig;
use azul_sim::machine::run_kernel;
use azul_sim::pcg::PcgSim;
use azul_sim::profile;
use azul_sim::program::Program;
use azul_sim::stats::KernelStats;
use azul_solver::ic0::ic0;
use azul_solver::kernels::{sptrsv_lower, sptrsv_lower_transpose};
use azul_sparse::suite::Scale;
use azul_sparse::{generate, suite};
use azul_telemetry::TelemetryReport;
use std::hint::black_box;
use std::time::Instant;

/// Launches per kernel in the `replay_kernel` rows; each keeps its
/// fastest.
const REPLAY_LAUNCHES: usize = 50;

/// The fastest of `runs` calls of `f`, in seconds.
fn min_seconds(runs: usize, mut f: impl FnMut()) -> f64 {
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

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

    // Section 1, replay: one solve's first launch, then the same solve
    // again, every kernel of which replays. Everything but wall time
    // must match. Then the same sim after a values update (every value
    // doubled), which rebinds the record and replays too.
    let m = prepare(suite::by_name("thermal2").unwrap(), ctx.scale);
    let placement = ctx.azul_mapper().map(&m.a, ctx.grid);
    let cfg = SimConfig::azul(ctx.grid);
    let mut sim = PcgSim::build(&m.a, &placement, &cfg).expect("IC(0) succeeds");
    let mut launches = Vec::new();
    for launch in ["first", "replay", "rebound"] {
        if launch == "rebound" {
            let mut scaled = m.a.clone();
            for v in scaled.values_mut() {
                *v *= 2.0;
            }
            let l = ic0(&scaled).expect("IC(0) succeeds");
            sim.update_values_with_factor(&scaled, &l, &placement)
                .expect("the pattern is the same");
        }
        profile::reset();
        let t0 = Instant::now();
        let rep = sim.run(&m.b, &ctx.pcg_cfg());
        let wall = t0.elapsed().as_secs_f64();
        let ticked = profile::snapshot().engine_launches;
        assert_eq!(
            ticked > 0,
            launch == "first",
            "only the first launch may tick ({launch}: {ticked} engine launches)"
        );
        let doc = telemetry_report(&m, &cfg, &rep);
        launches.push((launch, wall, doc.to_json()));
        let mut doc = doc;
        doc.scenario_field("section", "pcg_launch");
        doc.scenario_field("launch", launch);
        doc.scenario_field("tracing", false);
        doc.scenario_field("wall_seconds", wall);
        doc.scenario_field("replay_bytes", sim.replay_bytes() as u64);
        doc.scenario_field("record_bytes", sim.record_bytes() as u64);
        reports.push(doc);
        row(
            &format!("thermal2 {launch}"),
            &[format!("{:.1} ms", wall * 1e3)],
        );
    }
    assert_eq!(
        launches[0].2, launches[1].2,
        "a replayed solve must report exactly what its first launch did"
    );

    // Section 1, replayed kernels: once a kernel has recorded, what a
    // launch costs against the reference kernel it stands in for.
    header("sim_perf §1 — replayed kernels vs reference", "");
    row(
        "kernel",
        &["replay".into(), "reference".into(), "ratio".into()],
    );
    for name in ["nd12k", "thermal2"] {
        let m = prepare(suite::by_name(name).unwrap(), ctx.scale);
        let (a, b) = (&m.a, &m.b);
        let l = ic0(a).expect("IC(0) succeeds");
        let placement = BlockMapper.map(a, ctx.grid);
        let cfg = SimConfig::azul(ctx.grid);
        let spmv = Program::compile_spmv(a, &placement);
        let (lower, upper) = Program::compile_sptrsv_pair(&l, a, &placement);
        for kernel in ["spmv", "sptrsv_lower", "sptrsv_upper"] {
            let prog = match kernel {
                "spmv" => &spmv,
                "sptrsv_lower" => &lower,
                _ => &upper,
            };
            let reference = |x: &[f64]| match kernel {
                "spmv" => a.spmv(x),
                "sptrsv_lower" => sptrsv_lower(&l, x),
                _ => sptrsv_lower_transpose(&l, x),
            };
            let (first, stats) = run_kernel(&cfg, prog, b);
            let replay_s = min_seconds(REPLAY_LAUNCHES, || {
                black_box(run_kernel(&cfg, prog, black_box(b)));
            });
            let reference_s = min_seconds(REPLAY_LAUNCHES, || {
                black_box(reference(black_box(b)));
            });
            let (again, again_stats) = run_kernel(&cfg, prog, b);
            assert!(
                again_stats == stats
                    && again
                        .iter()
                        .zip(&first)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                "a replay must return exactly what its first launch did"
            );
            let ratio = replay_s / reference_s;
            let mut doc = TelemetryReport::default();
            doc.scenario_field("section", "replay_kernel");
            doc.scenario_field("tracing", false);
            doc.scenario_field("kernel", kernel);
            doc.scenario_field("matrix", name);
            doc.scenario_field("n", a.rows() as u64);
            doc.scenario_field("nnz", a.nnz() as u64);
            doc.scenario_field("launches", REPLAY_LAUNCHES as u64);
            doc.scenario_field("replay_seconds", replay_s);
            doc.scenario_field("reference_seconds", reference_s);
            doc.scenario_field("replay_ratio", ratio);
            doc.scenario_field("replay_bytes", prog.replay_bytes() as u64);
            doc.scenario_field("record_bytes", prog.record_bytes() as u64);
            azul_sim::telemetry::fill_report(&mut doc, &cfg, &stats);
            reports.push(doc);
            row(
                &format!("{name} {}", kernel.trim_start_matches("sptrsv_")),
                &[
                    format!("{:.3} ms", replay_s * 1e3),
                    format!("{:.3} ms", reference_s * 1e3),
                    format!("{ratio:.2}x"),
                ],
            );
        }
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
