//! The four workloads and their untraced timing loops.
//!
//! Every loop is closed: the next solve (or round) starts when the
//! previous one has returned, and its first unit is a discarded warm-up.
//! The prepared-solver loops run until the next unit would end past
//! `--seconds`, after a minimum count; serve-mixed runs a round count
//! fixed by `--seconds`. Gated timings report the low percentile of their
//! samples ([`stats::low`]), scaled to the reference host speed
//! ([`calib`]), with the sample count, raw value and median beside it. A
//! probe walk precedes every setup, solve unit and round.

use crate::calib::Probe;
use crate::gate::{Gate, SOLVER_TOL};
use crate::inputs::{self, input_id, Operator, Rng};
use crate::stats;
use azul_core::{Azul, AzulConfig, EscalationPolicy, MappingStrategy, PreparedSolver};
use azul_mapping::{AzulMapper, TileGrid};
use azul_serve::{RequestOutcome, ServeConfig, ServeService, SolveRequest};
use azul_sim::IntegrityPolicy;
use azul_sparse::io::read_matrix_market;
use azul_sparse::suite::Scale;
use azul_sparse::Csr;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Prepare16,
    SimDense,
    SimIdle,
    ServeMixed,
}

pub const ALL: [Workload; 4] = [
    Workload::Prepare16,
    Workload::SimDense,
    Workload::SimIdle,
    Workload::ServeMixed,
];

/// The six Tiny suite operators behind the serve workload's traffic.
const SERVE_OPS: [&str; 6] = [
    "crankseg_1",
    "m_t1",
    "shipsec1",
    "consph",
    "thermal2",
    "apache2",
];
/// Distinct right-hand sides per operator. Serve rounds cycle through all
/// of them, the prepared-solver loops through the first two, so inputs
/// repeat and the repeat check on simulated cycles has work to do.
pub const RHS_PER_OP: usize = 4;
/// One serve round in this many carries a rescaled operator (a miss).
pub const MISS_EVERY: usize = 4;
/// Timed serve rounds per second of `--seconds`: a fixed count (60 at
/// 25 s) rather than a deadline, so the held outcomes, and with them peak
/// memory, do not vary with speed.
const ROUNDS_PER_SECOND: f64 = 2.4;
/// Setups per serve run (each about 3 s).
const SERVE_SETUPS: usize = 2;
/// Torus side of the sim-* workloads. On 64x64 a solve takes 2-3 s, so a
/// run holds under ten of them; on 16x16 it takes about 0.25 s.
const SIM_SIDE: usize = 16;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Prepare16 => "prepare-16",
            Workload::SimDense => "sim-dense-16",
            Workload::SimIdle => "sim-idle-16",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Suite operators and the scale they are built at.
    fn operators(self) -> (&'static [&'static str], Scale) {
        match self {
            Workload::Prepare16 => (&["thermal2", "consph"], Scale::Small),
            Workload::SimDense => (&["thermal2"], Scale::Small),
            Workload::SimIdle => (&["nd12k"], Scale::Small),
            Workload::ServeMixed => (&SERVE_OPS, Scale::Tiny),
        }
    }

    /// The accelerator configuration every operator is prepared with.
    pub fn config(self) -> AzulConfig {
        let (side, mapping, hop) = match self {
            Workload::Prepare16 => (16, MappingStrategy::Azul(AzulMapper::default()), 1),
            Workload::SimDense => (SIM_SIDE, MappingStrategy::Block, 1),
            Workload::SimIdle => (SIM_SIDE, MappingStrategy::Block, 16),
            Workload::ServeMixed => (8, MappingStrategy::Azul(AzulMapper::default()), 1),
        };
        let mut cfg = AzulConfig::new(TileGrid::new(side, side));
        cfg.mapping = mapping;
        cfg.sim.hop_latency = hop;
        cfg.pcg.tol = SOLVER_TOL;
        match self {
            Workload::Prepare16 => cfg.pcg.integrity = IntegrityPolicy::audit(),
            // One cycle-timed iteration per solve keeps solves short, so a
            // run holds many of them.
            Workload::SimDense | Workload::SimIdle => cfg.pcg.timed_iterations = 1,
            Workload::ServeMixed => {}
        }
        cfg
    }

    /// The supervisor policy for this workload: the default ladders, with
    /// the workload's own mapping as rung 0.
    pub fn policy(self) -> EscalationPolicy {
        let mut policy = EscalationPolicy::default();
        let first = self.config().mapping;
        policy.mappings.retain(|m| m.name() != first.name());
        policy.mappings.insert(0, first);
        policy
    }
}

/// Generated inputs of one run.
pub struct Inputs {
    pub ops: Vec<Operator>,
    /// `rhs[op][k]`, `RHS_PER_OP` per operator.
    pub rhs: Vec<Vec<Vec<f64>>>,
    pub rng: Rng,
}

pub fn generate(w: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let (names, scale) = w.operators();
    let ops: Vec<Operator> = names
        .iter()
        .map(|n| inputs::operator(n, scale, &mut rng))
        .collect();
    let rhs = ops
        .iter()
        .map(|op| {
            let n = rows_of(&op.text);
            (0..RHS_PER_OP).map(|_| inputs::rhs(n, &mut rng)).collect()
        })
        .collect();
    Inputs { ops, rhs, rng }
}

/// Row count from a Matrix Market size line (the generator's own text).
fn rows_of(text: &str) -> usize {
    text.lines()
        .find(|l| !l.starts_with('%'))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

pub fn parse(op: &Operator) -> Result<Csr, String> {
    read_matrix_market(op.text.as_bytes()).map_err(|e| format!("{}: parse: {e}", op.name))
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// Median and within-run quartile spread of a timing's samples, for
    /// the report.
    pub detail: String,
    pub how: &'static str,
}

impl Metric {
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        how: &'static str,
    ) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            detail: String::new(),
            how,
        }
    }
}

/// What an untraced run measured.
pub struct Measured {
    pub gate: Gate,
    /// The end-to-end metrics every workload reports.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed in the report only.
    pub extra: Vec<Metric>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whether a loop that has done `done` units, the last taking `last_s`,
/// should start another: always below `min`, otherwise only when the
/// next unit is expected to end inside the budget.
fn another(run: Instant, budget_s: f64, done: usize, min: usize, last_s: f64) -> bool {
    done < min || secs(run) + last_s <= budget_s
}

/// A gated timing: the low percentile of its samples (see [`stats::low`])
/// times the probe's scale factor, with the raw value, median and quartile
/// spread kept for the report.
fn timing_metric(name: &'static str, v: &[f64], probe: &Probe, how: &'static str) -> Metric {
    let raw = stats::low(v).unwrap_or(f64::NAN);
    let mut detail = format!("raw={raw:.6}");
    if let Some(m) = stats::median(v) {
        detail.push_str(&format!(" median={m:.6}"));
    }
    if let Some(s) = stats::spread(v) {
        detail.push_str(&format!(" iqr/med={s:.3}"));
    }
    Metric {
        detail,
        ..Metric::new(name, "s", raw * probe.factor(), v.len(), how)
    }
}

/// The probe's figures, for the report.
fn probe_metrics(probe: &Probe) -> Vec<Metric> {
    vec![Metric::new(
        "host.walk_scale",
        "ratio",
        probe.factor(),
        probe.samples(),
        "reference walk time / p10 of this run's walks",
    )]
}

/// Simulated figures of the run's plain solves.
#[derive(Default)]
struct SimTally {
    timed_cycles: u64,
    solve_s: f64,
    gflops: Vec<f64>,
}

impl SimTally {
    fn extra(&self, gate: &Gate) -> Vec<Metric> {
        vec![
            Metric::new(
                "sim_cycles",
                "cycles",
                gate.distinct_cycles() as f64,
                1,
                "total_cycles summed over distinct inputs",
            ),
            Metric::new(
                "sim_gflops",
                "GFLOP/s",
                self.gflops.iter().sum::<f64>() / self.gflops.len() as f64,
                self.gflops.len(),
                "mean over solves",
            ),
            Metric::new(
                "sim_mcycles_per_s",
                "Mcycles/s",
                self.timed_cycles as f64 / self.solve_s / 1e6,
                self.gflops.len(),
                "cycle-timed cycles per host second of solve",
            ),
        ]
    }
}

fn check_prepared(
    gate: &mut Gate,
    tally: &mut SimTally,
    op: usize,
    k: usize,
    a: &Csr,
    p: &PreparedSolver,
    b: &[f64],
) -> bool {
    let t = Instant::now();
    let result = p.try_solve(b);
    let dt = secs(t);
    match result {
        Ok(r) => {
            tally.timed_cycles += r.sim.stats.cycles;
            tally.solve_s += dt;
            tally.gflops.push(r.gflops);
            gate.check(input_id(op, k), a, b, &r.x, r.converged, r.sim.total_cycles)
        }
        Err(e) => {
            gate.fail(format!("op {op}: solve: {e}"));
            false
        }
    }
}

/// parse → `Azul::prepare` for every operator: one setup.
fn setup(azul: &Azul, ops: &[Operator]) -> Result<Vec<(Csr, PreparedSolver)>, String> {
    ops.iter()
        .map(|op| {
            let a = parse(op)?;
            let p = azul
                .prepare(&a)
                .map_err(|e| format!("{}: prepare: {e}", op.name))?;
            Ok((a, p))
        })
        .collect()
}

/// prepare-16 and the sim-* workloads: setups, then solves on the last
/// setup's artifacts.
///
/// prepare-16 runs two (setup, solve pairs) rounds: a setup prepares both
/// operators, a solve pair solves each once. sim-* runs one round: a
/// warm-up setup plus ten timed ones, then solves. The last round keeps
/// solving until the budget is spent, so solves cover as much of the run
/// as the setups leave; host speed drifts within seconds, and samples
/// spread over more time are likelier to include quiet stretches.
pub fn run_prepared(w: Workload, inputs: &Inputs, probe: &mut Probe, budget_s: f64) -> Measured {
    let azul = Azul::new(w.config());
    let mut gate = Gate::default();
    let mut tally = SimTally::default();
    let (mut setups, mut unit_s) = (Vec::new(), Vec::new());
    let (mut solved, mut solve_wall) = (0usize, 0.0f64);
    let run = Instant::now();
    let n_ops = inputs.ops.len();
    // (setups per round, rounds, solve units per earlier round, minimum
    // solve units in the last round)
    let (setups_per_round, rounds, early_units, min_last_units) = match w {
        Workload::Prepare16 => (1, 2, 10, 10),
        _ => (11, 1, 0, 10),
    };
    let mut unit = 0usize;
    for round in 0..rounds {
        let mut prepared = None;
        for s in 0..setups_per_round {
            probe.walk();
            let t = Instant::now();
            match setup(&azul, &inputs.ops) {
                Ok(p) => prepared = Some(p),
                Err(e) => gate.fail(e),
            }
            // sim-* setups are short: the first is a warm-up.
            if setups_per_round == 1 || s > 0 {
                setups.push(secs(t));
            }
        }
        let Some(prepared) = prepared else { break };
        let last_round = round + 1 == rounds;
        let (mut done, mut last_unit_s) = (0usize, 0.0);
        while if last_round {
            another(run, budget_s, done, min_last_units, last_unit_s)
        } else {
            done < early_units
        } {
            let with_walk = Instant::now();
            probe.walk();
            let t = Instant::now();
            let mut ok = 0;
            for (i, (a, p)) in prepared.iter().enumerate() {
                // Two right-hand sides in turn, so every input repeats.
                let k = unit % 2;
                ok += usize::from(check_prepared(
                    &mut gate,
                    &mut tally,
                    i,
                    k,
                    a,
                    p,
                    &inputs.rhs[i][k],
                ));
            }
            let dt = secs(t);
            last_unit_s = secs(with_walk);
            if unit > 0 {
                unit_s.push(dt / n_ops as f64);
                solved += ok;
                solve_wall += dt;
            }
            unit += 1;
            done += 1;
        }
    }
    let solve_how = match w {
        Workload::Prepare16 => {
            "p10 of solve pairs (one solve per operator) / 2, first pair discarded"
        }
        _ => "p10 of solves, first solve discarded",
    };
    let setup_how = match w {
        Workload::Prepare16 => "p10 of setups (parse + Azul::prepare of both operators)",
        _ => "p10 of setups (parse + Azul::prepare), first setup discarded",
    };
    let mut extra = vec![Metric::new(
        "solves_per_s",
        "1/s",
        solved as f64 / solve_wall,
        solved,
        "correct timed solves per second of timed solving",
    )];
    extra.extend(tally.extra(&gate));
    extra.extend(probe_metrics(probe));
    Measured {
        metrics: vec![
            timing_metric("setup_s", &setups, probe, setup_how),
            timing_metric("solve_s", &unit_s, probe, solve_how),
        ],
        extra,
        gate,
    }
}

/// Serve traffic plan for one request.
pub struct Planned {
    pub op: usize,
    /// `Some` for a rescaled (cache-missing) operator.
    pub rescaled: Option<Csr>,
    pub k: usize,
    pub id: u64,
}

/// The requests of serve round `r`: one per operator, every operator in
/// every round, so all hit rounds cost the same and their latencies form
/// one mode. Once every [`MISS_EVERY`] rounds one operator, in turn,
/// arrives rescaled (new values, same pattern: a cache miss).
pub fn plan_round(r: usize, base: &[Csr], rng: &mut Rng) -> Vec<Planned> {
    let n = base.len();
    let k = r % RHS_PER_OP;
    let missing = (r % MISS_EVERY == MISS_EVERY - 1).then_some((r / MISS_EVERY) % n);
    (0..n)
        .map(|op| {
            if missing == Some(op) {
                let mut a = base[op].clone();
                inputs::scale_values(&mut a, 0.5 + 1.5 * rng.unit());
                // Rescaled inputs are unique: give them ids of their own.
                let id = (1u64 << 63) | input_id(op, r);
                Planned {
                    op,
                    rescaled: Some(a),
                    k,
                    id,
                }
            } else {
                Planned {
                    op,
                    rescaled: None,
                    k,
                    id: input_id(op, k),
                }
            }
        })
        .collect()
}

pub fn serve_config(w: Workload) -> ServeConfig {
    let mut cfg = ServeConfig::new(w.config());
    cfg.policy = w.policy();
    // One worker: on a 2-vCPU host a second worker measures whether a
    // neighbouring process holds the other core (round p50 moved 50 -> 72 ms).
    cfg.workers = 1;
    cfg.queue_capacity = 8;
    cfg.cache_capacity = 16;
    cfg
}

/// Checks every outcome against its plan. Outcomes come back in
/// submission order, so `plans[i]` describes `outcomes[i]`.
pub fn check_outcomes(
    gate: &mut Gate,
    plans: &[Planned],
    base: &[Csr],
    rhs: &[Vec<Vec<f64>>],
    outcomes: &[RequestOutcome],
) {
    for (plan, out) in plans.iter().zip(outcomes) {
        let a = plan.rescaled.as_ref().unwrap_or(&base[plan.op]);
        match &out.result {
            Ok(s) => {
                gate.check(
                    plan.id,
                    a,
                    &rhs[plan.op][plan.k],
                    &s.x,
                    true,
                    s.total_cycles,
                );
            }
            Err(e) => gate.fail(format!("request {}: {e}", out.id)),
        }
    }
    for missing in outcomes.len()..plans.len() {
        gate.fail(format!("request {missing}: no outcome"));
    }
}

pub fn submit(
    svc: &ServeService,
    gate: &mut Gate,
    plan: &Planned,
    base: &[Csr],
    rhs: &[Vec<Vec<f64>>],
) -> bool {
    let a = plan
        .rescaled
        .clone()
        .unwrap_or_else(|| base[plan.op].clone());
    let req = SolveRequest::new(
        format!("op{}-{:x}", plan.op, plan.id),
        a,
        rhs[plan.op][plan.k].clone(),
    );
    match svc.submit(req) {
        Ok(_) => true,
        Err(e) => {
            gate.fail(format!("submit: {e}"));
            false
        }
    }
}

/// serve-mixed: one client thread, rounds of six requests (submit all,
/// then `wait_all`) against a 1-worker service.
///
/// A setup starts a fresh service and lets each operator arrive cold once
/// (parse, admission, prepare through the service, first solve); it runs
/// twice, and the second service carries the timed rounds.
pub fn run_serve(w: Workload, inputs: &mut Inputs, probe: &mut Probe, budget_s: f64) -> Measured {
    let mut gate = Gate::default();
    let mut base = Vec::new();
    let mut plans = Vec::new();
    let mut setups = Vec::new();
    let mut svc: Option<ServeService> = None;
    for _ in 0..SERVE_SETUPS {
        if let Some(old) = svc.take() {
            check_outcomes(&mut gate, &plans, &base, &inputs.rhs, &old.shutdown());
            plans.clear();
        }
        base.clear();
        probe.walk();
        let t = Instant::now();
        let fresh = ServeService::start(serve_config(w));
        fresh.open();
        for (i, op) in inputs.ops.iter().enumerate() {
            match parse(op) {
                Ok(a) => {
                    base.push(a);
                    let plan = Planned {
                        op: i,
                        rescaled: None,
                        k: 0,
                        id: input_id(i, 0),
                    };
                    if submit(&fresh, &mut gate, &plan, &base, &inputs.rhs) {
                        plans.push(plan);
                    }
                    fresh.wait_all();
                }
                Err(e) => gate.fail(e),
            }
        }
        setups.push(secs(t));
        svc = Some(fresh);
    }
    let Some(svc) = svc else {
        unreachable!("SERVE_SETUPS is positive")
    };
    let mut rounds = Vec::new();
    let (mut solved_rounds, mut loop_s) = (0usize, 0.0);
    let timed_rounds = ((ROUNDS_PER_SECOND * budget_s) as usize).max(20);
    for r in 0..=timed_rounds {
        if base.len() < inputs.ops.len() {
            break;
        }
        let planned = plan_round(r, &base, &mut inputs.rng);
        probe.walk();
        let t = Instant::now();
        let mut admitted = 0;
        for p in planned {
            if submit(&svc, &mut gate, &p, &base, &inputs.rhs) {
                plans.push(p);
                admitted += 1;
            }
        }
        svc.wait_all();
        if r > 0 {
            let dt = secs(t);
            rounds.push(dt);
            loop_s += dt;
            solved_rounds += admitted;
        }
    }
    let outcomes = svc.shutdown();
    let failed_before = gate.failed;
    check_outcomes(&mut gate, &plans, &base, &inputs.rhs, &outcomes);
    // Only correct timed solves count towards throughput.
    let timed_solves = solved_rounds.saturating_sub((gate.failed - failed_before) as usize);
    let mut extra = vec![
        Metric::new(
            "solves_per_s",
            "1/s",
            timed_solves as f64 / loop_s,
            timed_solves,
            "correct timed solves per second of timed rounds",
        ),
        Metric::new(
            "latency_p50_s",
            "s",
            stats::median(&rounds).unwrap_or(f64::NAN),
            rounds.len(),
            "round latency, median",
        ),
    ];
    // A tail percentile only with at least ten rounds beyond it.
    match stats::tail(&rounds) {
        Some((p, v)) if p >= 90.0 => extra.push(Metric::new(
            if p == 90.0 {
                "latency_p90_s"
            } else {
                "latency_p99_s"
            },
            "s",
            v,
            rounds.len(),
            "highest percentile with >= 10 rounds beyond",
        )),
        _ => eprintln!(
            "  latency_p90_s not reported: {} rounds leave fewer than 10 beyond it",
            rounds.len()
        ),
    }
    extra.push(Metric::new(
        "sim_cycles",
        "cycles",
        gate.distinct_cycles() as f64,
        1,
        "total_cycles summed over distinct inputs",
    ));
    extra.extend(probe_metrics(probe));
    Measured {
        metrics: vec![
            timing_metric(
                "setup_s",
                &setups,
                probe,
                "p10 of setups (fresh service, six cold operator arrivals)",
            ),
            timing_metric(
                "solve_s",
                &rounds,
                probe,
                "p10 of round latency (six requests), first round discarded",
            ),
        ],
        extra,
        gate,
    }
}
