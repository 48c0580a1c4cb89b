//! The traced run: every layer of the pipeline called through its public
//! API on the workload's own operators, each call wrapped in a span.
//!
//! Layer times are means per call. Two layers cannot be called on their
//! own and are measured as differences on the same inputs:
//! `core.prepare_glue_s` (the whole prepare minus its layers) and
//! `core.supervise_s` (a supervised solve minus `PcgSim::try_run`);
//! `abft.audit_s` is the audited minus the plain `try_run`.

use crate::gate::{Gate, SOLVER_TOL};
use crate::inputs::input_id;
use crate::trace::{LayerTime, Tracer};
use crate::workloads::{self, Inputs, Metric, Planned, Workload};
use azul_core::{Azul, MappingStrategy, SolveSupervisor};
use azul_mapping::traffic::pcg_iteration_traffic;
use azul_mapping::{BlockMapper, Mapper, RoundRobinMapper, SparsePMapper};
use azul_serve::{operator_key, ServeService};
use azul_sim::machine::run_kernel;
use azul_sim::program::Program;
use azul_sim::{IntegrityPolicy, PcgSim, PcgSimConfig};
use azul_solver::abft::OperatorChecksum;
use azul_solver::ic0::ic0;
use azul_solver::pcg::{pcg, PcgConfig};
use azul_solver::precond::IncompleteCholesky;
use azul_sparse::coloring::{color_and_permute, ColoringStrategy};
use std::time::Instant;

/// Serve rounds the traced run replays to time admission and the journal.
const TRACED_SERVE_ROUNDS: usize = 24;

/// Everything the traced run measured.
pub struct Traced {
    pub gate: Gate,
    /// The per-layer metrics every workload reports.
    pub metrics: Vec<Metric>,
    /// serve-only figures, printed in the report.
    pub extra: Vec<Metric>,
    pub tracer: Tracer,
    pub wall_s: f64,
}

#[derive(Default)]
struct Sums {
    colors: u64,
    link_hops: u64,
    max_link_load: u64,
    nnz_imbalance: f64,
    kernel_cycles: [f64; 3],
    messages: u64,
    link_activations: u64,
    stall_cycles: u64,
    total_cycles: u64,
    timed_cycles: u64,
    gflops: f64,
    kernel_launch_cycles: u64,
    ref_iters: usize,
    audit_checks: u64,
}

fn fail_on<T, E: std::fmt::Display>(gate: &mut Gate, what: &str, r: Result<T, E>) -> Option<T> {
    r.map_err(|e| gate.fail(format!("{what}: {e}"))).ok()
}

pub fn run(w: Workload, inputs: &mut Inputs) -> Traced {
    let start = Instant::now();
    let tr = Tracer::default();
    let mut gate = Gate::default();
    let mut s = Sums::default();
    let cfg = w.config();
    let grid = cfg.sim.grid;
    let mapping = cfg.mapping.name();
    let plain_cfg = PcgSimConfig {
        integrity: IntegrityPolicy::disabled(),
        ..cfg.pcg
    };
    let audit_cfg = PcgSimConfig {
        integrity: IntegrityPolicy::audit(),
        ..cfg.pcg
    };
    let sup = SolveSupervisor::with_policy(cfg.clone(), w.policy());
    let azul = Azul::new(cfg.clone());
    let mapper = mapper_of(&cfg.mapping);
    let mut base = Vec::new();
    for (i, op) in inputs.ops.iter().enumerate() {
        let id = i as u64;
        let Some(a) = fail_on(
            &mut gate,
            op.name,
            tr.span("sparse.parse", id, || workloads::parse(op)),
        ) else {
            continue;
        };
        let (pa, perm, coloring) = tr.span("sparse.color", id, || {
            color_and_permute(&a, ColoringStrategy::LargestDegreeFirst)
        });
        s.colors += coloring.num_colors() as u64;
        let placement = tr.span("mapping.map", id, || mapper.map(&pa, grid));
        let traffic = pcg_iteration_traffic(&pa, &placement);
        s.link_hops += traffic.link_hops;
        s.max_link_load = s.max_link_load.max(traffic.max_link_load);
        s.nnz_imbalance = s.nnz_imbalance.max(placement.nnz_imbalance());
        let Some(l) = fail_on(&mut gate, "ic0", tr.span("solver.factor", id, || ic0(&pa))) else {
            continue;
        };
        tr.span("solver.checksum", id, || {
            (OperatorChecksum::new(&pa), OperatorChecksum::new(&l))
        });
        let sim = tr.span("sim.compile", id, || {
            PcgSim::build_with_factor(&pa, &l, &placement, &cfg.sim)
        });
        tr.span("serve.key", id, || operator_key(&a, &grid, mapping, "ic0"));

        // The whole prepare, for the glue; the service's own prepare path
        // on serve-mixed, `Azul::prepare` elsewhere.
        let rung = if w == Workload::ServeMixed {
            tr.span("core.prepare", id, || sup.prepare_first_rung(&a))
        } else {
            let prepared = tr.span("core.prepare", id, || azul.prepare(&a));
            fail_on(&mut gate, "prepare", prepared);
            tr.span("core.prepare_rung", id, || sup.prepare_first_rung(&a))
        };
        let rung = fail_on(&mut gate, "prepare_first_rung", rung);

        // Kernel launches on the compiled programs.
        let x: Vec<f64> = (0..pa.rows()).map(|j| 1.0 + (j % 7) as f64 / 7.0).collect();
        let spmv = Program::compile_spmv(&pa, &placement);
        let lower = Program::compile_sptrsv_lower(&l, &pa, &placement);
        let upper = Program::compile_sptrsv_upper(&l, &pa, &placement);
        let (_, st) = tr.span("sim.spmv", id, || run_kernel(&cfg.sim, &spmv, &x));
        s.kernel_launch_cycles += st.cycles;
        for prog in [&lower, &upper] {
            let (_, st) = tr.span("sim.sptrsv", id, || run_kernel(&cfg.sim, prog, &x));
            s.kernel_launch_cycles += st.cycles;
        }

        // Plain and audited simulated solves of the same input, checked.
        let b = &inputs.rhs[i][0];
        let pb = perm.apply(b);
        // Each kind of solve gets input ids of its own for the repeat check.
        for (name, run_cfg, kind) in [
            ("sim.try_run", &plain_cfg, 0),
            ("sim.try_run_audited", &audit_cfg, 1),
        ] {
            let report = tr.span(name, id, || sim.try_run(&pb, run_cfg));
            let Some(r) = fail_on(&mut gate, name, report) else {
                continue;
            };
            let x = perm.apply_inverse(&r.x);
            gate.check(
                input_id(i, 0) | kind << 60,
                &a,
                b,
                &x,
                r.converged,
                r.total_cycles,
            );
            if name == "sim.try_run" {
                for (sum, c) in s.kernel_cycles.iter_mut().zip(r.kernel_cycles) {
                    *sum += c;
                }
                s.messages += r.stats.messages;
                s.link_activations += r.stats.link_activations;
                s.stall_cycles += r.stats.stall_cycles;
                s.total_cycles += r.total_cycles;
                s.timed_cycles += r.stats.cycles;
                s.gflops += r.gflops;
            } else {
                s.audit_checks += r.integrity.checks;
            }
        }

        // Reference PCG on the same operator and right-hand side.
        if let Some(m) = fail_on(&mut gate, "ic0", IncompleteCholesky::new(&pa)) {
            let ref_cfg = PcgConfig {
                tol: SOLVER_TOL,
                ..PcgConfig::default()
            };
            let out = tr.span("solver.ref_pcg", id, || pcg(&pa, &pb, &m, &ref_cfg));
            s.ref_iters += out.iterations;
            let x = perm.apply_inverse(&out.x);
            // The reference runs no simulation: its own input id, 0 cycles.
            gate.check(input_id(i, 0) | 2 << 60, &a, b, &x, out.converged, 0);
        }

        // Supervised solve from the prepared rung.
        if let Some(rung) = rung {
            let report = tr.span("core.supervise", id, || {
                sup.solve_prepared(&a, b, Some(&rung))
            });
            if let Some(r) = fail_on(&mut gate, "supervise", report) {
                gate.check(input_id(i, 0) | 3 << 60, &a, b, &r.x, true, r.total_cycles);
            }
        }
        base.push(a);
    }

    let extra = if w == Workload::ServeMixed && base.len() == inputs.ops.len() {
        serve_rounds(w, &tr, &mut gate, &base, inputs)
    } else {
        Vec::new()
    };

    let n_ops = inputs.ops.len().max(1) as f64;
    let times = tr.self_times();
    let total = |name: &str| times.get(name).map_or(0.0, |t| t.total_s);
    let m = |name: &str| times.get(name).map_or(0.0, LayerTime::mean_s);
    let mut glue = m("core.prepare") - m("sparse.color") - m("mapping.map") - m("solver.factor");
    glue -= if w == Workload::ServeMixed {
        m("solver.checksum")
    } else {
        m("sim.compile")
    };
    let launch_s = total("sim.spmv") + total("sim.sptrsv");
    let wall_s = start.elapsed().as_secs_f64();
    let t =
        |name: &'static str, value: f64, how: &'static str| Metric::new(name, "s", value, 1, how);
    let c = |name: &'static str, value: f64, how: &'static str| {
        Metric::new(name, "count", value, 1, how)
    };
    let metrics = vec![
        t(
            "sparse.parse_s",
            m("sparse.parse"),
            "read_matrix_market, mean per operator",
        ),
        t(
            "sparse.color_s",
            m("sparse.color"),
            "color_and_permute, mean per operator",
        ),
        c(
            "sparse.num_colors",
            s.colors as f64,
            "colors, summed over operators",
        ),
        t(
            "mapping.map_s",
            m("mapping.map"),
            "Mapper::map, mean per operator",
        ),
        c(
            "mapping.link_hops",
            s.link_hops as f64,
            "pcg_iteration_traffic link hops, summed",
        ),
        c(
            "mapping.max_link_load",
            s.max_link_load as f64,
            "pcg_iteration_traffic hottest link, max",
        ),
        Metric::new(
            "mapping.nnz_imbalance",
            "ratio",
            s.nnz_imbalance,
            1,
            "placement max/mean nonzeros, max",
        ),
        t(
            "solver.factor_s",
            m("solver.factor"),
            "ic0, mean per operator",
        ),
        t(
            "solver.checksum_s",
            m("solver.checksum"),
            "OperatorChecksum::new of A and L, mean per operator",
        ),
        t(
            "solver.ref_iter_s",
            total("solver.ref_pcg") / s.ref_iters.max(1) as f64,
            "reference PCG, per iteration",
        ),
        t(
            "sim.compile_s",
            m("sim.compile"),
            "PcgSim::build_with_factor, mean per operator",
        ),
        t(
            "sim.spmv_s",
            m("sim.spmv"),
            "run_kernel on the SpMV program, per launch",
        ),
        t(
            "sim.sptrsv_s",
            m("sim.sptrsv"),
            "run_kernel on an SpTRSV program, per launch",
        ),
        Metric::new(
            "sim.host_ns_per_cycle",
            "ns",
            launch_s * 1e9 / s.kernel_launch_cycles.max(1) as f64,
            1,
            "kernel-launch host time per simulated cycle",
        ),
        Metric::new(
            "sim.mcycles_per_s",
            "Mcycles/s",
            s.timed_cycles as f64 / total("sim.try_run").max(1e-12) / 1e6,
            1,
            "cycle-timed cycles per host second of plain try_run",
        ),
        c(
            "sim.kernel_cycles.spmv",
            s.kernel_cycles[0],
            "per-iteration SpMV cycles, summed over operators",
        ),
        c(
            "sim.kernel_cycles.sptrsv",
            s.kernel_cycles[1],
            "per-iteration SpTRSV cycles, summed",
        ),
        c(
            "sim.kernel_cycles.vecops",
            s.kernel_cycles[2],
            "per-iteration vector-op cycles, summed",
        ),
        c(
            "sim.messages",
            s.messages as f64,
            "KernelStats messages of the plain solves",
        ),
        c(
            "sim.link_activations",
            s.link_activations as f64,
            "KernelStats link activations",
        ),
        c(
            "sim.stall_cycles",
            s.stall_cycles as f64,
            "KernelStats stall cycles",
        ),
        Metric::new(
            "sim_cycles",
            "cycles",
            s.total_cycles as f64,
            1,
            "total_cycles of the plain solves, summed",
        ),
        Metric::new(
            "sim_gflops",
            "GFLOP/s",
            s.gflops / n_ops,
            1,
            "simulated throughput, mean over operators",
        ),
        t(
            "abft.audit_s",
            m("sim.try_run_audited") - m("sim.try_run"),
            "audited minus plain try_run, mean",
        ),
        c(
            "abft.checks",
            s.audit_checks as f64,
            "integrity checks of the audited solves",
        ),
        t(
            "core.prepare_glue_s",
            glue,
            "whole prepare minus its timed layers",
        ),
        t(
            "core.supervise_s",
            m("core.supervise") - m("sim.try_run"),
            "solve_prepared minus plain try_run",
        ),
        t(
            "serve.key_s",
            m("serve.key"),
            "operator_key, mean per operator",
        ),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            span_cost_s() * tr.len() as f64 / wall_s,
            1,
            "span recording cost / traced wall time",
        ),
    ];
    Traced {
        gate,
        metrics,
        extra,
        tracer: tr,
        wall_s,
    }
}

/// The mapper behind a strategy (`MappingStrategy` keeps its own private).
fn mapper_of(m: &MappingStrategy) -> Box<dyn Mapper> {
    match m {
        MappingStrategy::Azul(a) => Box::new(a.clone()),
        MappingStrategy::Block => Box::new(BlockMapper),
        MappingStrategy::RoundRobin => Box::new(RoundRobinMapper),
        MappingStrategy::SparseP => Box::new(SparsePMapper),
    }
}

/// Measured cost of recording one span, in seconds.
fn span_cost_s() -> f64 {
    const N: usize = 20_000;
    let tr = Tracer::default();
    let t = Instant::now();
    for i in 0..N {
        tr.span("probe", i as u64, || std::hint::black_box(i));
    }
    t.elapsed().as_secs_f64() / N as f64
}

/// serve-mixed only: a short replay of the round traffic with admission,
/// waiting and the journal traced.
fn serve_rounds(
    w: Workload,
    tr: &Tracer,
    gate: &mut Gate,
    base: &[azul_sparse::Csr],
    inputs: &mut Inputs,
) -> Vec<Metric> {
    let svc = ServeService::start(workloads::serve_config(w));
    svc.open();
    let mut plans: Vec<Planned> = Vec::new();
    for r in 0..TRACED_SERVE_ROUNDS {
        let planned = workloads::plan_round(r, base, &mut inputs.rng);
        tr.span("serve.round", r as u64, || {
            for p in planned {
                if tr.span("serve.submit", r as u64, || {
                    workloads::submit(&svc, gate, &p, base, &inputs.rhs)
                }) {
                    plans.push(p);
                }
            }
            tr.span("serve.wait_all", r as u64, || svc.wait_all());
        });
    }
    let (hits, misses) = svc.cache_stats();
    let outcomes = svc.shutdown();
    workloads::check_outcomes(gate, &plans, base, &inputs.rhs, &outcomes);
    let journal: usize = outcomes.iter().map(|o| o.journal.len()).sum();
    let n = outcomes.len().max(1);
    vec![
        Metric::new(
            "serve.submit_s",
            "s",
            tr.self_times()["serve.submit"].mean_s(),
            tr.self_times()["serve.submit"].calls,
            "ServeService::submit, mean",
        ),
        Metric::new(
            "serve.hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
            "cache hits / admissions",
        ),
        Metric::new(
            "serve.journal_bytes",
            "bytes",
            journal as f64 / n as f64,
            n,
            "journal bytes per request",
        ),
    ]
}
