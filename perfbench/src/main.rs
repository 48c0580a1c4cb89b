//! Steady end-to-end and per-layer benchmark of the Azul pipeline.
//!
//! ```text
//! azul-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's timing loop and reports end-to-end
//! metrics; `--trace 1` runs the traced layer probe and reports per-layer
//! metrics, writing its spans and self-time table under `perfbench/out/`.
//! A human-readable report goes to stderr; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 1 when any solve failed its check, 2 on a usage error.

mod calib;
mod gate;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workloads;

use gate::Gate;
use std::process::ExitCode;
use workloads::{Metric, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
    let workload = Workload::parse(get("--workload")?)
        .ok_or(format!("unknown workload; expected one of {names:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = number("--seconds")?;
    let trace = number("--trace")?;
    if seconds == 0 || trace > 1 {
        return Err("--seconds must be positive and --trace 0 or 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: trace == 1,
    })
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        eprintln!(
            "  {:<26} {:>14.6} {:<10} n={:<5} {:<32} {}",
            m.name, m.value, m.unit, m.samples, m.detail, m.how
        );
    }
}

fn json_line(gate: &Gate, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted.max(1),
        gate.failed,
        body.join(", ")
    )
}

/// Writes the traced run's spans and self-time table under `perfbench/out/`.
fn export_trace(w: Workload, seed: u64, traced: &layers::Traced) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{seed}", w.name());
    std::fs::write(
        dir.join(format!("trace-{stem}.json")),
        traced.tracer.chrome_json(w.name()),
    )?;
    let mut table = format!(
        "# {} seed {seed}: self time per span name, traced wall {:.3} s\n{:<22} {:>6} {:>12} {:>12}\n",
        w.name(),
        traced.wall_s,
        "span",
        "calls",
        "total_s",
        "self_s"
    );
    for (name, t) in traced.tracer.self_times() {
        table.push_str(&format!(
            "{name:<22} {:>6} {:>12.6} {:>12.6}\n",
            t.calls, t.total_s, t.self_s
        ));
    }
    let overhead = traced
        .metrics
        .iter()
        .find(|m| m.name == "trace.overhead_frac");
    if let Some(m) = overhead {
        table.push_str(&format!(
            "tracing overhead: {} spans, {:.3e} of traced wall time\n",
            traced.tracer.len(),
            m.value
        ));
    }
    let path = dir.join(format!("layers-{stem}.txt"));
    std::fs::write(&path, &table)?;
    eprint!("{table}");
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: azul-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    // The probe table comes first, so every later peak of resident memory
    // includes all of it and subtracting it leaves the program's own peak.
    let probe = (!args.trace).then(calib::Probe::new);
    let mut inputs = workloads::generate(w, args.seed);
    eprintln!(
        "azul-perfbench: workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (gate, metrics) = if let Some(mut probe) = probe {
        let mut measured = match w {
            Workload::ServeMixed => workloads::run_serve(w, &mut inputs, &mut probe, args.seconds),
            _ => workloads::run_prepared(w, &inputs, &mut probe, args.seconds),
        };
        measured.metrics.push(Metric::new(
            "peak_rss_mb",
            "MB",
            peak_rss_mb() - probe.table_mb(),
            1,
            "VmHWM of the process minus the probe table",
        ));
        print_table("end-to-end metrics:", &measured.metrics);
        print_table("workload figures (report only):", &measured.extra);
        (measured.gate, measured.metrics)
    } else {
        let traced = layers::run(w, &mut inputs);
        print_table("per-layer metrics (traced run):", &traced.metrics);
        print_table("serve figures (traced run):", &traced.extra);
        match export_trace(w, args.seed, &traced) {
            Ok(path) => eprintln!("trace written next to {path}"),
            Err(e) => eprintln!("trace export failed: {e}"),
        }
        (traced.gate, traced.metrics)
    };
    eprintln!(
        "  fail_frac = {} ({} failed of {} attempted)",
        gate.failed as f64 / gate.attempted.max(1) as f64,
        gate.failed,
        gate.attempted
    );
    for f in &gate.failures {
        eprintln!("  FAILED: {f}");
    }
    let bad = metrics.iter().find(|m| !m.value.is_finite());
    if let Some(m) = bad {
        eprintln!("metric {} was not measured", m.name);
        return ExitCode::from(1);
    }
    println!("{}", json_line(&gate, &metrics));
    if gate.failed > 0 || gate.attempted == 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
