//! `azul-serve` — batch front-end for the solve service.
//!
//! Builds a batch of synthetic solve requests, pushes them through
//! [`azul_serve::serve_batch`] (bounded admission, prepare cache,
//! deadlines, retry/backoff, typed shedding), prints one line per
//! submission, and optionally writes each request's schema-v6 telemetry
//! journal plus a batch summary as JSON.
//!
//! ```text
//! azul-serve [--requests 6] [--queue-capacity 4] [--workers 1]
//!            [--operators 2] [--grid 4] [--cycle-budget N]
//!            [--fault-seed N [--fault-events 3]]
//!            [--deadline-ms N] [--out-dir DIR] [--quiet]
//! ```
//!
//! Requests cycle through `--operators` distinct synthetic Laplacians,
//! so any batch with more requests than operators exercises the keyed
//! prepare cache (repeat operators admit as `shared`). With
//! `--fault-seed`, the second request carries a seeded deterministic
//! [`FaultPlan`], exercising fault-tolerant solves (and, when the
//! machine degrades terminally, the service retry schedule). Batches
//! larger than `--queue-capacity` demonstrate typed overload shedding.
//!
//! The journals written to `--out-dir` are byte-identical for any
//! `--workers` value — the service's determinism contract — which the
//! CI `serve-smoke` job checks by diffing `--workers 1` against
//! `--workers 4` runs.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use azul_core::AzulConfig;
use azul_mapping::TileGrid;
use azul_serve::{serve_batch, ServeConfig, SolveRequest};
use azul_sim::FaultPlan;
use azul_sparse::generate;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "help") {
        println!("azul-serve [--requests 6] [--queue-capacity 4] [--workers 1]");
        println!("           [--operators 2] [--grid 4] [--cycle-budget N]");
        println!("           [--fault-seed N [--fault-events 3]]");
        println!("           [--deadline-ms N] [--out-dir DIR] [--quiet]");
        return ExitCode::SUCCESS;
    }
    let opts = parse_opts(&args);
    let get = |key: &str, default: usize| -> usize {
        opts.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let requests = get("requests", 6);
    let queue_capacity = get("queue-capacity", 4);
    let workers = get("workers", 1);
    let operators = get("operators", 2).max(1);
    let tiles = match opts
        .get("grid")
        .map_or(Ok(TileGrid::square(4)), |g| TileGrid::parse_square(g))
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: --grid: {e}");
            return ExitCode::FAILURE;
        }
    };
    let grid = tiles.width();
    let fault_events = get("fault-events", 3);
    let fault_seed: Option<u64> = opts.get("fault-seed").and_then(|v| v.parse().ok());
    let cycle_budget: Option<u64> = opts.get("cycle-budget").and_then(|v| v.parse().ok());
    let deadline_ms: Option<u64> = opts.get("deadline-ms").and_then(|v| v.parse().ok());
    let out_dir: Option<PathBuf> = opts.get("out-dir").map(PathBuf::from);
    let quiet = opts.contains_key("quiet");

    let mut cfg = ServeConfig::new(AzulConfig::new(tiles));
    cfg.queue_capacity = queue_capacity;
    cfg.workers = workers;
    if let Some(budget) = cycle_budget {
        cfg.default_cycle_budget = budget;
    }
    if let Some(ms) = deadline_ms {
        cfg.default_wall_deadline = Some(std::time::Duration::from_millis(ms));
    }

    // Distinct operators are different-sized 2D Laplacians; requests
    // cycle through them so repeats hit the prepare cache.
    let batch: Vec<SolveRequest> = (0..requests)
        .map(|i| {
            let side = 6 + 2 * (i % operators);
            let a = generate::grid_laplacian_2d(side, side);
            let n = a.rows();
            let b: Vec<f64> = (0..n)
                .map(|j| ((j as u64 * 13 + i as u64 * 7) % 9) as f64 / 9.0 + 0.2)
                .collect();
            let mut req = SolveRequest::new(format!("req-{i:03}"), a, b);
            if i == 1 {
                if let Some(seed) = fault_seed {
                    req.faults = Some(FaultPlan::seeded(seed, grid * grid, fault_events, 100_000));
                }
            }
            req
        })
        .collect();

    let report = serve_batch(cfg, batch);

    if !quiet {
        for out in &report.outcomes {
            let status = match &out.result {
                Ok(solve) => format!(
                    "success  iters={} residual={:.3e} cycles={}",
                    solve.iterations, solve.final_residual, solve.total_cycles
                ),
                Err(err) => format!("rejected {err}"),
            };
            println!(
                "[{:>3}] {}  prepare={:<6} attempts={} backoff={:?}  {}",
                out.queue_position, out.id, out.prepare, out.attempts, out.backoff_ticks, status
            );
        }
        println!(
            "batch: {} submitted, {} shed, cache {} hit / {} miss",
            report.outcomes.len(),
            report.shed,
            report.cache_hits,
            report.cache_misses
        );
    }

    if let Some(dir) = out_dir {
        if let Err(e) = write_artifacts(&dir, &report) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        if !quiet {
            println!("journals written to {}", dir.display());
        }
    }
    ExitCode::SUCCESS
}

fn write_artifacts(dir: &std::path::Path, report: &azul_serve::BatchReport) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for out in &report.outcomes {
        let path = dir.join(format!("request-{}.json", out.id));
        std::fs::write(&path, &out.journal)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let ok = report.outcomes.iter().filter(|o| o.result.is_ok()).count();
    let summary = format!(
        "{{\n  \"submitted\": {},\n  \"succeeded\": {},\n  \"shed\": {},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {}\n}}\n",
        report.outcomes.len(),
        ok,
        report.shed,
        report.cache_hits,
        report.cache_misses
    );
    let path = dir.join("summary.json");
    std::fs::write(&path, summary).map_err(|e| format!("write {}: {e}", path.display()))
}

fn parse_opts(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let val = match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = (*v).clone();
                    it.next();
                    v
                }
                _ => "true".to_string(),
            };
            map.insert(key.to_string(), val);
        }
    }
    map
}
