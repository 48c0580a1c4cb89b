//! `azul` — command-line front-end to the accelerated solver.
//!
//! ```text
//! azul info  --matrix A.mtx                  matrix statistics & parallelism
//! azul solve --matrix A.mtx [--grid 16]      simulate a PCG solve
//!            [--mapping azul|rr|block|sparsep] [--tol 1e-10] [--fast]
//! azul suite                                  list the paper-matrix analogs
//! azul solve --suite consph [--scale tiny|small|medium] ...
//! ```

use azul::mapping::strategies::AzulMapper;
use azul::mapping::TileGrid;
use azul::sparse::coloring::{color_and_permute, ColoringStrategy};
use azul::sparse::levels::{spmv_parallelism, sptrsv_parallelism};
use azul::sparse::stats::MatrixStats;
use azul::sparse::suite::{by_name, suite_4k, Scale};
use azul::sparse::Csr;
use azul::{Azul, AzulConfig, MappingStrategy};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: azul <info|solve|suite> [options]; see --help");
        return ExitCode::FAILURE;
    };
    let opts = parse_opts(&args[1..]);
    match cmd.as_str() {
        "info" => cmd_info(&opts),
        "solve" => cmd_solve(&opts),
        "suite" => cmd_suite(),
        "--help" | "help" => {
            println!("azul info  --matrix A.mtx");
            println!("azul solve --matrix A.mtx | --suite NAME [--scale tiny|small|medium]");
            println!(
                "           [--grid 16] [--mapping azul|rr|block|sparsep] [--tol 1e-10] [--fast]"
            );
            println!("azul suite");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}");
            ExitCode::FAILURE
        }
    }
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

fn cmd_info(opts: &HashMap<String, String>) -> ExitCode {
    let (name, a) = match load(opts) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = MatrixStats::of(&a);
    println!(
        "{name}: n={} nnz={} ({:.1} nnz/row, max {})",
        s.n, s.nnz, s.avg_row_nnz, s.max_row_nnz
    );
    println!(
        "footprint: matrix {:.2} MB, vector {:.3} MB",
        s.matrix_mb(),
        s.vector_mb()
    );
    println!(
        "symmetric: {}",
        a.is_symmetric(1e-9 * a.inf_norm().max(1.0))
    );
    let spmv = spmv_parallelism(&a);
    let orig = sptrsv_parallelism(&a.lower_triangle());
    println!(
        "parallelism: SpMV {:.0}, SpTRSV {:.0}",
        spmv.parallelism(),
        orig.parallelism()
    );
    let (pa, _, coloring) = color_and_permute(&a, ColoringStrategy::LargestDegreeFirst);
    let perm = sptrsv_parallelism(&pa.lower_triangle());
    println!(
        "after coloring ({} colors): SpTRSV parallelism {:.0} ({:.1}x)",
        coloring.num_colors(),
        perm.parallelism(),
        perm.parallelism() / orig.parallelism()
    );
    ExitCode::SUCCESS
}

fn cmd_solve(opts: &HashMap<String, String>) -> ExitCode {
    let (name, a) = match load(opts) {
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
    let mut cfg = AzulConfig::new(tiles);
    cfg.pcg.tol = tol;
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
    println!(
        "solving {name} (n={}, nnz={}) on {grid}x{grid} tiles with {} mapping...",
        a.rows(),
        a.nnz(),
        cfg.mapping.name()
    );
    let b = vec![1.0; a.rows()];
    let azul = Azul::new(cfg);
    let t0 = std::time::Instant::now();
    let prepared = match azul.prepare(&a) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("prepare failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prep = prepared.prepare_report();
    println!(
        "prepared in {:.2?}: {} colors, mapping {:.2}s, imbalance {:.2}",
        t0.elapsed(),
        prep.num_colors,
        prep.mapping_seconds,
        prep.nnz_imbalance
    );
    let report = prepared.solve(&b);
    println!(
        "{} in {} iterations; residual {:.2e}",
        if report.converged {
            "converged"
        } else {
            "NOT converged"
        },
        report.iterations,
        report.final_residual
    );
    println!(
        "throughput {:.1} GFLOP/s | {:.0} cycles/iter | {:.2} us accelerator time",
        report.gflops,
        report.sim.cycles_per_iteration,
        report.accelerator_seconds * 1e6
    );
    if report.converged {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_suite() -> ExitCode {
    println!(
        "{:<14} {:>10} {:>12} {:>8}",
        "name", "paper n", "paper nnz", "family"
    );
    for s in suite_4k() {
        println!(
            "{:<14} {:>10.2e} {:>12.2e} {:>8}",
            s.name,
            s.paper_n,
            s.paper_nnz,
            match s.family {
                azul::sparse::suite::Family::Fem { .. } => "fem",
                azul::sparse::suite::Family::Grid2d => "grid2d",
                azul::sparse::suite::Family::Grid3d => "grid3d",
                azul::sparse::suite::Family::Circuit => "circuit",
            }
        );
    }
    ExitCode::SUCCESS
}
