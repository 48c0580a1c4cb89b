//! `azul-report` — run a scenario and export full telemetry.
//!
//! Runs one (matrix, mapper, config) PCG scenario with detailed
//! statistics enabled, prints terminal heatmaps of per-PE utilization
//! and per-link traffic plus the convergence history, and writes the
//! complete [`TelemetryReport`] as JSON.
//!
//! ```text
//! azul-report --matrix A.mtx [--grid 16] [--mapping azul|rr|block|sparsep]
//!             [--tol 1e-10] [--fast] [--out report.json] [--quiet]
//! azul-report --suite consph [--scale tiny|small|medium] ...
//! azul-report --suite consph --fault-seed 42 [--fault-events 4]
//!             [--fault-window 100000] [--no-recovery] ...
//! azul-report --suite consph --check-invariants ...
//! ```
//!
//! The `--fault-*` flags replay a seeded, deterministic [`FaultPlan`]
//! (SRAM bit flips, link outages/degradation, PE stalls) against the
//! solve; fault and recovery events land in the JSON report's `faults`
//! and `recoveries` sections. `--no-recovery` keeps the detection
//! guards but disables checkpoint/rollback, so an induced breakdown
//! terminates the solve with a structured status instead.
//!
//! `--check-invariants` turns on the runtime invariant audit
//! ([`azul::sim::invariants`]) regardless of build profile (it defaults
//! to on only under debug assertions); check counts land in the
//! report's `invariants` section.
//!
//! `--integrity` arms the end-to-end numerical-integrity audit
//! ([`azul::sim::faults::IntegrityPolicy`]): ABFT checksum verification
//! after cycle-simulated kernel launches, periodic recursive-vs-true
//! residual drift checks, and a mandatory final true-residual audit.
//! The audit lands in the JSON report's `integrity` section, and the
//! process exits nonzero when any wrong-answer escape is journaled —
//! even if the solver claimed convergence.
//!
//! `--supervise` routes the scenario through [`SolveSupervisor`] instead
//! of the plain prepare/solve pipeline: capacity overflows, factorization
//! breakdowns, and non-converged solves walk the default degradation
//! ladders (mapping, preconditioner, solver) instead of failing.
//! `--max-attempts N` bounds the retry budget. Every ladder transition
//! lands in the JSON report's `supervisor` section.
//!
//! `--trace trace.json` turns on cycle-accurate event tracing
//! ([`azul::telemetry::trace`]) and exports the solve's event timeline
//! in Chrome trace-event format — open it at `ui.perfetto.dev` or
//! `chrome://tracing`. One track per PE and per router, kernel
//! begin/end markers, fault instants, and (under `--supervise`) a
//! supervisor track with one marker per ladder transition. A summary of
//! the trace also lands in the JSON report's `trace` section.

use azul::mapping::strategies::AzulMapper;
use azul::mapping::TileGrid;
use azul::sim::faults::{FaultPlan, IntegrityAudit, IntegrityPolicy, RecoveryPolicy};
use azul::sim::telemetry::{
    describe_config, fill_fault_report, fill_integrity_report, fill_invariant_report, fill_report,
    fill_trace_report,
};
use azul::sparse::suite::{by_name, Scale};
use azul::sparse::Csr;
use azul::supervisor::{escalation_trace_marks, fill_supervisor_report};
use azul::telemetry::trace::{chrome_trace_json, TraceConfig};
use azul::telemetry::{heatmap, span, TelemetryReport};
use azul::{Azul, AzulConfig, EscalationPolicy, MappingStrategy, SolveSupervisor};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "help") {
        println!("azul-report --matrix A.mtx | --suite NAME [--scale tiny|small|medium]");
        println!("            [--grid 16] [--mapping azul|rr|block|sparsep] [--tol 1e-10]");
        println!("            [--fast] [--out report.json] [--quiet]");
        println!("            [--fault-seed N [--fault-events 4] [--fault-window 100000]]");
        println!("            [--no-recovery] [--check-invariants] [--integrity]");
        println!("            [--supervise [--max-attempts 12]]");
        println!("            [--trace trace.json]");
        return ExitCode::SUCCESS;
    }
    let opts = parse_opts(&args);
    let (name, a) = match load(&opts) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tiles = match opts
        .get("grid")
        .map_or(Ok(TileGrid::square(16)), |g| TileGrid::parse_square(g))
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: --grid: {e}");
            return ExitCode::FAILURE;
        }
    };
    let grid = tiles.width();
    let tol: f64 = opts
        .get("tol")
        .and_then(|t| t.parse().ok())
        .unwrap_or(1e-10);
    let out = opts
        .get("out")
        .cloned()
        .unwrap_or_else(|| "azul-report.json".to_string());
    let quiet = opts.contains_key("quiet");

    let mut cfg = AzulConfig::new(tiles);
    cfg.pcg.tol = tol;
    cfg.sim.detailed_stats = true;
    cfg.mapping = match opts.get("mapping").map(String::as_str) {
        Some("rr") => MappingStrategy::RoundRobin,
        Some("block") => MappingStrategy::Block,
        Some("sparsep") => MappingStrategy::SparseP,
        _ => MappingStrategy::Azul(if opts.contains_key("fast") {
            AzulMapper::fast_default()
        } else {
            AzulMapper::default()
        }),
    };
    if let Some(seed) = opts.get("fault-seed").and_then(|s| s.parse::<u64>().ok()) {
        let events: usize = opts
            .get("fault-events")
            .and_then(|e| e.parse().ok())
            .unwrap_or(4);
        let window: u64 = opts
            .get("fault-window")
            .and_then(|w| w.parse().ok())
            .unwrap_or(100_000);
        cfg.sim.faults = Some(FaultPlan::seeded(seed, grid * grid, events, window));
        // Faults land on the cycle timeline, so time every iteration
        // instead of extrapolating from the first few.
        cfg.pcg.timed_iterations = 0;
    }
    if opts.contains_key("no-recovery") {
        cfg.pcg.recovery = RecoveryPolicy::disabled();
    }
    if opts.contains_key("check-invariants") {
        cfg.sim.check_invariants = true;
    }
    if opts.contains_key("integrity") {
        cfg.pcg.integrity = IntegrityPolicy::audit();
    }
    let trace_out = opts.get("trace").cloned();
    if trace_out.is_some() {
        cfg.sim.trace = Some(TraceConfig::default());
    }

    if opts.contains_key("supervise") {
        return run_supervised(&opts, &name, &a, cfg, tol, &out, quiet);
    }

    // Collect phase spans for the whole prepare + solve pipeline.
    let collector = span::Collector::install();
    let azul = Azul::new(cfg);
    let prepared = match azul.prepare(&a) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("prepare failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let b = vec![1.0; a.rows()];
    let solve = match prepared.try_solve(&b) {
        Ok(s) => s,
        Err(e) => {
            span::uninstall();
            // A structured machine failure (e.g. a fault-induced
            // deadlock), not a crash: report it and exit nonzero.
            eprintln!("solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    span::uninstall();

    let mut report = TelemetryReport::default();
    report.scenario_field("matrix", name.as_str());
    report.scenario_field("n", a.rows() as u64);
    report.scenario_field("nnz", a.nnz() as u64);
    report.scenario_field("mapping", azul.config().mapping.name());
    report.scenario_field("tol", tol);
    describe_config(&mut report, &azul.config().sim);
    fill_report(&mut report, &azul.config().sim, &solve.sim.stats);
    fill_fault_report(&mut report, &solve.sim.fault_events, &solve.sim.recoveries);
    fill_invariant_report(&mut report, &solve.sim.stats);
    fill_trace_report(&mut report, &solve.sim.stats);
    fill_integrity_report(&mut report, &solve.sim.integrity);
    report.absorb_spans(collector.drain());
    report.convergence = solve.sim.convergence.clone();

    if let Some(path) = &trace_out {
        if let Err(e) = write_trace(path, &solve.sim.stats, (grid * grid) as u32, &[]) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("event trace written to {path}");
    }

    if !quiet {
        println!(
            "{name}: n={} nnz={} on {grid}x{grid} tiles, {} mapping",
            a.rows(),
            a.nnz(),
            azul.config().mapping.name()
        );
        println!(
            "{} in {} iterations; residual {:.2e}; {:.1} GFLOP/s",
            if solve.converged {
                "converged"
            } else {
                "NOT converged"
            },
            solve.iterations,
            solve.final_residual,
            solve.gflops
        );
        if !solve.sim.fault_events.is_empty() {
            println!(
                "faults: {} event(s), {} rollback(s), status {:?}",
                solve.sim.fault_events.len(),
                solve.sim.recoveries.len(),
                solve.sim.status
            );
            for f in &solve.sim.fault_events {
                println!(
                    "  cycle {:>10}  {:<13} tile {:<3} {}{}",
                    f.at_cycle,
                    f.kind.name(),
                    f.kind.tile(),
                    if f.applied { "" } else { "(not applied) " },
                    f.note
                );
            }
            for r in &solve.sim.recoveries {
                println!(
                    "  rollback at iteration {} -> checkpoint {}: {}",
                    r.iteration, r.restored_iteration, r.reason
                );
            }
        }
        print_integrity(&solve.sim.integrity);
        for phase in &report.phases {
            let cycles = phase
                .cycles
                .map(|c| format!(", {c} cycles"))
                .unwrap_or_default();
            println!(
                "  {:indent$}{}: {:.2} ms{cycles}",
                "",
                phase.name,
                phase.wall_ms,
                indent = 2 * phase.depth
            );
        }
        println!();
        print!(
            "{}",
            heatmap::render(&report.pe_utilization_grid(), "PE utilization", "ops/cycle")
        );
        println!();
        print!(
            "{}",
            heatmap::render(&report.link_traffic_grid(), "Link traffic", "flits out")
        );
        println!();
        print!(
            "{}",
            heatmap::render_convergence(&report.residual_history(), "Residual history")
        );
    }

    if let Err(e) = report.write_json(Path::new(&out)) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("telemetry report written to {out}");
    if solve.sim.integrity.escapes > 0 {
        eprintln!(
            "integrity: {} wrong-answer escape(s) journaled",
            solve.sim.integrity.escapes
        );
        return ExitCode::FAILURE;
    }
    if solve.converged {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_supervised(
    opts: &HashMap<String, String>,
    name: &str,
    a: &Csr,
    cfg: AzulConfig,
    tol: f64,
    out: &str,
    quiet: bool,
) -> ExitCode {
    let mut policy = EscalationPolicy::default();
    if let Some(n) = opts.get("max-attempts").and_then(|n| n.parse().ok()) {
        policy.max_attempts = n;
    }
    let collector = span::Collector::install();
    let b = vec![1.0; a.rows()];
    let result = SolveSupervisor::with_policy(cfg, policy).solve(a, &b);
    span::uninstall();
    let solve = match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("supervised solve failed: {e}");
            if let azul::AzulError::Exhausted { attempts } = &e {
                for att in attempts {
                    eprintln!("  attempt {} ({}): {}", att.attempt, att.config, att.error);
                }
            }
            return ExitCode::FAILURE;
        }
    };

    let mut report = TelemetryReport::default();
    report.scenario_field("matrix", name);
    report.scenario_field("n", a.rows() as u64);
    report.scenario_field("nnz", a.nnz() as u64);
    report.scenario_field("tol", tol);
    describe_config(&mut report, &solve.sim_config);
    fill_report(&mut report, &solve.sim_config, &solve.stats);
    fill_supervisor_report(&mut report, &solve);
    fill_trace_report(&mut report, &solve.stats);
    fill_integrity_report(&mut report, &solve.integrity);
    report.absorb_spans(collector.drain());
    report.convergence = solve.convergence.clone();

    if let Some(path) = opts.get("trace") {
        // The supervisor track marks each ladder transition on the
        // cumulative attempt timeline.
        let marks = escalation_trace_marks(&solve);
        let tiles = solve.grid.num_tiles() as u32;
        if let Err(e) = write_trace(path, &solve.stats, tiles, &marks) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("event trace written to {path}");
    }

    if !quiet {
        println!(
            "{name}: n={} nnz={} supervised on {}x{} tiles",
            a.rows(),
            a.nnz(),
            solve.grid.width(),
            solve.grid.height()
        );
        println!(
            "converged in {} iterations after {} attempt(s) \
             ({} mapping, {} preconditioner, {} solver); residual {:.2e}",
            solve.iterations,
            solve.attempts,
            solve.mapping,
            solve.preconditioner,
            solve.solver,
            solve.final_residual
        );
        if solve.escalations.is_empty() {
            println!("no escalations: the strongest rungs held");
        } else {
            println!("degradation path: {}", solve.degradation_path());
            for r in &solve.escalations {
                println!("  {r}");
            }
        }
        print_integrity(&solve.integrity);
    }

    if let Err(e) = report.write_json(Path::new(out)) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("telemetry report written to {out}");
    if solve.integrity.escapes > 0 {
        eprintln!(
            "integrity: {} wrong-answer escape(s) journaled",
            solve.integrity.escapes
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints the `--integrity` audit section: check volume, every detected
/// violation, the recursive-vs-true drift samples, and the escape
/// count. Silent when no integrity checking ran.
fn print_integrity(audit: &IntegrityAudit) {
    if audit.is_empty() {
        return;
    }
    println!(
        "integrity: {} check(s), {} violation(s), {} drift sample(s), {} escape(s)",
        audit.checks,
        audit.violations.len(),
        audit.drift.len(),
        audit.escapes
    );
    for v in &audit.violations {
        println!(
            "  iteration {:>5}  {:<15} {}",
            v.iteration, v.check, v.detail
        );
    }
    for d in &audit.drift {
        println!(
            "  drift at iteration {:>5}: recursive {:.3e}, true {:.3e}",
            d.iteration, d.recursive, d.true_residual
        );
    }
}

/// Exports a solve's sealed event trace as Chrome trace-event JSON.
/// Untraced stats still export (an empty but valid document), so a
/// `--trace` run that recorded nothing is visible rather than silent.
fn write_trace(
    path: &str,
    stats: &azul::sim::KernelStats,
    num_tiles: u32,
    marks: &[(u64, String)],
) -> Result<(), String> {
    let doc = chrome_trace_json(&stats.trace_ev, num_tiles, marks);
    std::fs::write(path, doc.to_string_compact())
        .map_err(|e| format!("failed to write {path}: {e}"))
}

fn parse_opts(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let val = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            map.insert(key.to_string(), val);
        }
    }
    map
}

fn load(opts: &HashMap<String, String>) -> Result<(String, Csr), String> {
    if let Some(path) = opts.get("matrix") {
        let a = azul::sparse::io::load_matrix_market(path).map_err(|e| e.to_string())?;
        Ok((path.clone(), a))
    } else if let Some(name) = opts.get("suite") {
        let spec = by_name(name).ok_or_else(|| format!("unknown suite matrix {name}"))?;
        let scale = match opts.get("scale").map(String::as_str) {
            Some("tiny") => Scale::Tiny,
            Some("medium") => Scale::Medium,
            _ => Scale::Small,
        };
        Ok((name.clone(), spec.build(scale)))
    } else {
        Err("need --matrix <path.mtx> or --suite <name>".into())
    }
}
