//! Graceful-degradation supervision for the solve pipeline.
//!
//! [`SolveSupervisor`] wraps the prepare/solve pipeline in a bounded,
//! fully deterministic retry engine. A declarative [`EscalationPolicy`]
//! defines three degradation ladders, each ordered strongest-first:
//!
//! - **mapping** — walked on [`AzulError::Capacity`]: try cheaper
//!   mappings on the same grid, then (optionally) re-prepare on a larger
//!   [`TileGrid`] when the reported footprint predicts the matrix fits
//!   at the next grid size;
//! - **preconditioner** — walked on factorization breakdowns
//!   (IC(0) pivot loss, non-positive diagonals): IC(0) → SSOR → Jacobi →
//!   none, every rung running on the same two-SpTRSV hardware path;
//! - **solver** — walked when a solve ends without converging
//!   (breakdown, stagnation, iteration cap, cycle budget, machine
//!   failure): PCG → BiCGStab → GMRES(restart).
//!
//! Every transition is journaled as a typed [`EscalationRecord`] and
//! exported into the telemetry `supervisor` section
//! ([`fill_supervisor_report`]). The result is either the first
//! successful solve — annotated with the degradation path and the
//! accuracy delta against the requested tolerance — or
//! [`AzulError::Exhausted`] aggregating every attempt's failure.
//!
//! Determinism: ladder walking depends only on structured errors and
//! simulator-reported cycle counts, never on wall-clock time. The only
//! wall-clock input, [`EscalationPolicy::wall_timeout`], is checked
//! between attempts and never serialized, so repeated supervised runs
//! produce byte-identical telemetry.

use crate::{
    factor_for, AttemptFailure, Azul, AzulConfig, AzulError, MappingStrategy, PreconditionerChoice,
    PreparedSolver, Preprocessed,
};
use azul_mapping::strategies::AzulMapper;
use azul_mapping::TileGrid;
use azul_sim::bicgstab::{BiCgStabSim, BiCgStabSimConfig};
use azul_sim::config::{SimConfig, StagnationPolicy};
use azul_sim::gmres::{GmresSim, GmresSimConfig};
use azul_sim::pcg::{PcgSim, PcgSimConfig};
use azul_sim::stats::KernelStats;
use azul_sim::{IntegrityAudit, SimError};
use azul_solver::{BreakdownKind, SolveStatus, SolverError};
use azul_sparse::Csr;
use azul_telemetry::report::{EscalationSample, IterationSample, TelemetryReport};
use azul_telemetry::span;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which degradation ladder an [`EscalationRecord`] moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationStage {
    /// The mapping ladder (same grid, cheaper placement).
    Mapping,
    /// A grid growth step (mapping ladder restarts on the larger grid).
    Grid,
    /// The preconditioner ladder.
    Preconditioner,
    /// The solver ladder.
    Solver,
}

impl EscalationStage {
    /// Stable label used in telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            EscalationStage::Mapping => "mapping",
            EscalationStage::Grid => "grid",
            EscalationStage::Preconditioner => "preconditioner",
            EscalationStage::Solver => "solver",
        }
    }
}

impl std::fmt::Display for EscalationStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What forced a ladder transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationTrigger {
    /// The placement overflowed a tile's SRAM ([`AzulError::Capacity`]).
    Capacity,
    /// The preconditioner factorization broke down (or was invalid).
    FactorBreakdown,
    /// The iteration ended with a numerical breakdown.
    SolveBreakdown,
    /// The stagnation detector fired ([`StagnationPolicy`]).
    Stagnation,
    /// The iteration cap expired without convergence.
    MaxIters,
    /// The per-attempt cycle budget expired.
    BudgetExhausted,
    /// The simulated machine failed (deadlock, invariant violation).
    SimFailure,
    /// An integrity check (ABFT kernel checksum or true-residual audit)
    /// detected silent corruption that rollback could not clear.
    IntegrityViolation,
}

impl EscalationTrigger {
    /// Stable label used in telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            EscalationTrigger::Capacity => "capacity",
            EscalationTrigger::FactorBreakdown => "factor-breakdown",
            EscalationTrigger::SolveBreakdown => "solve-breakdown",
            EscalationTrigger::Stagnation => "stagnation",
            EscalationTrigger::MaxIters => "max-iters",
            EscalationTrigger::BudgetExhausted => "budget",
            EscalationTrigger::SimFailure => "sim-error",
            EscalationTrigger::IntegrityViolation => "integrity-violation",
        }
    }
}

impl std::fmt::Display for EscalationTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One journaled ladder transition of a supervised solve.
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationRecord {
    /// Which ladder moved.
    pub stage: EscalationStage,
    /// What forced the move.
    pub trigger: EscalationTrigger,
    /// Rung the failed attempt ran with.
    pub from: String,
    /// Rung the next attempt runs with.
    pub to: String,
    /// 1-based index of the failed attempt that caused the transition.
    pub attempt: usize,
    /// Simulated cycles the failed attempt consumed (0 when the failure
    /// happened before any kernel ran, e.g. a capacity rejection).
    pub cycles_spent: u64,
}

impl std::fmt::Display for EscalationRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "attempt {}: {} {} -> {} ({})",
            self.attempt, self.stage, self.from, self.to, self.trigger
        )
    }
}

/// A rung of the solver ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Preconditioned conjugate gradients (the paper's default; needs an
    /// SPD operator).
    Pcg,
    /// BiCGStab: tolerates indefinite/non-symmetric operators at roughly
    /// twice the per-iteration cost.
    BiCgStab,
    /// Restarted GMRES with the given restart length — the most robust
    /// rung (monotone residual within a restart cycle).
    Gmres {
        /// Krylov subspace dimension per restart cycle.
        restart: usize,
    },
}

impl SolverChoice {
    /// The rung's family name (`"pcg"`, `"bicgstab"`, `"gmres"`).
    pub fn name(&self) -> &'static str {
        match self {
            SolverChoice::Pcg => "pcg",
            SolverChoice::BiCgStab => "bicgstab",
            SolverChoice::Gmres { .. } => "gmres",
        }
    }

    /// Display label including parameters, e.g. `"gmres(50)"`.
    pub fn label(&self) -> String {
        match self {
            SolverChoice::Gmres { restart } => format!("gmres({restart})"),
            other => other.name().to_string(),
        }
    }
}

/// Declarative description of the three degradation ladders and the
/// per-attempt resource bounds. Ladders are ordered strongest-first; the
/// supervisor starts every ladder at rung 0 and only ever moves forward.
#[derive(Debug, Clone)]
pub struct EscalationPolicy {
    /// Mapping ladder, walked on capacity overflows.
    pub mappings: Vec<MappingStrategy>,
    /// Grow the grid (doubling each side) when the mapping ladder is
    /// exhausted and the reported footprint predicts a fit.
    pub grow_grid: bool,
    /// Maximum number of grid doublings.
    pub max_grid_doublings: usize,
    /// Preconditioner ladder, walked on factorization breakdowns.
    pub preconditioners: Vec<PreconditionerChoice>,
    /// Solver ladder, walked on non-converged solves.
    pub solvers: Vec<SolverChoice>,
    /// Hard cap on total attempts.
    pub max_attempts: usize,
    /// Stagnation detector applied to every attempt (`None` disables).
    pub stagnation: Option<StagnationPolicy>,
    /// Per-attempt cycle budget on the extrapolated cycle count
    /// (`u64::MAX` disables).
    pub cycle_budget: u64,
    /// Wall-clock timeout for the whole supervision, checked *between*
    /// attempts (never serialized, so telemetry stays deterministic).
    pub wall_timeout: Option<Duration>,
}

impl Default for EscalationPolicy {
    /// The full three-ladder default: Azul → Block → RoundRobin mapping
    /// with up to two grid doublings, IC(0) → SSOR(1.2) → Jacobi → none
    /// preconditioning, PCG → BiCGStab → GMRES(50) solving, at most 12
    /// attempts with the default stagnation detector.
    fn default() -> Self {
        EscalationPolicy {
            mappings: vec![
                MappingStrategy::Azul(AzulMapper::default()),
                MappingStrategy::Block,
                MappingStrategy::RoundRobin,
            ],
            grow_grid: true,
            max_grid_doublings: 2,
            preconditioners: vec![
                PreconditionerChoice::IncompleteCholesky,
                PreconditionerChoice::Ssor(1.2),
                PreconditionerChoice::Jacobi,
                PreconditionerChoice::None,
            ],
            solvers: vec![
                SolverChoice::Pcg,
                SolverChoice::BiCgStab,
                SolverChoice::Gmres { restart: 50 },
            ],
            max_attempts: 12,
            stagnation: Some(StagnationPolicy::default()),
            cycle_budget: u64::MAX,
            wall_timeout: None,
        }
    }
}

/// The result of a successful supervised solve: the winning attempt's
/// solution and statistics, annotated with the degradation path that led
/// there.
#[derive(Debug, Clone)]
pub struct SupervisedSolveReport {
    /// The solution `x` (in the caller's original row order).
    pub x: Vec<f64>,
    /// Iterations the winning attempt executed.
    pub iterations: usize,
    /// True final residual of the winning attempt.
    pub final_residual: f64,
    /// The tolerance the run was asked for ([`PcgSimConfig::tol`]).
    pub requested_tol: f64,
    /// Sustained throughput of the winning attempt in GFLOP/s.
    pub gflops: f64,
    /// Extrapolated solve latency of the winning attempt in seconds.
    pub accelerator_seconds: f64,
    /// Extrapolated total cycles of the winning attempt.
    pub total_cycles: u64,
    /// Total attempts, including the winning one.
    pub attempts: usize,
    /// Winning mapping rung name.
    pub mapping: String,
    /// Grid the winning attempt ran on (grown when the grid ladder fired).
    pub grid: TileGrid,
    /// Winning preconditioner rung name.
    pub preconditioner: &'static str,
    /// Winning solver rung label.
    pub solver: String,
    /// The full escalation journal, in transition order.
    pub escalations: Vec<EscalationRecord>,
    /// Convergence history of the winning attempt.
    pub convergence: Vec<IterationSample>,
    /// Numerical-integrity audit of the winning attempt (empty unless
    /// the base configuration enables an `IntegrityPolicy`).
    pub integrity: IntegrityAudit,
    /// Kernel statistics of the winning attempt's timed portion.
    pub stats: KernelStats,
    /// The simulator configuration the winning attempt ran with.
    pub sim_config: SimConfig,
}

impl SupervisedSolveReport {
    /// How far the delivered residual sits from the requested tolerance:
    /// `final_residual - requested_tol`, non-positive when the request
    /// was met or beaten.
    pub fn accuracy_delta(&self) -> f64 {
        self.final_residual - self.requested_tol
    }

    /// Human-readable degradation path, e.g.
    /// `"mapping:azul->block, grid:2x2->4x4"`. Empty when the first
    /// attempt succeeded.
    pub fn degradation_path(&self) -> String {
        self.escalations
            .iter()
            .map(|r| format!("{}:{}->{}", r.stage, r.from, r.to))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Records a supervised solve into a telemetry report: the
/// `supervisor` escalation journal, the `escalations` counter, and the
/// winning-configuration scenario fields.
pub fn fill_supervisor_report(report: &mut TelemetryReport, sup: &SupervisedSolveReport) {
    report.scenario_field("supervised", true);
    report.scenario_field("supervisor_attempts", sup.attempts as u64);
    report.scenario_field("supervisor_mapping", sup.mapping.as_str());
    report.scenario_field("supervisor_preconditioner", sup.preconditioner);
    report.scenario_field("supervisor_solver", sup.solver.as_str());
    report.counter("escalations", sup.escalations.len() as u64);
    report
        .supervisor
        .extend(sup.escalations.iter().map(|r| EscalationSample {
            stage: r.stage.name().to_string(),
            trigger: r.trigger.name().to_string(),
            from: r.from.clone(),
            to: r.to.clone(),
            attempt: r.attempt,
            cycles_spent: r.cycles_spent,
        }));
}

/// Converts the escalation journal into `(cycle, label)` markers for the
/// Chrome-trace export's supervisor track, one per ladder transition.
///
/// The journal records per-attempt cycle *costs*, not positions on a
/// shared clock, so markers are placed at the cumulative cycles burned
/// by all failed attempts up to and including each transition — the
/// simulated time at which the supervisor decided to move. Transitions
/// whose attempt ran no kernel (capacity rejections) therefore stack at
/// the same cycle as their predecessor, which is exactly how they
/// happened.
pub fn escalation_trace_marks(sup: &SupervisedSolveReport) -> Vec<(u64, String)> {
    let mut at = 0u64;
    sup.escalations
        .iter()
        .map(|r| {
            at = at.saturating_add(r.cycles_spent);
            (
                at,
                format!("{}:{}->{} ({})", r.stage, r.from, r.to, r.trigger),
            )
        })
        .collect()
}

/// A solver-agnostic view of one attempt's outcome.
struct RunOutcome {
    x: Vec<f64>,
    converged: bool,
    iterations: usize,
    final_residual: f64,
    total_cycles: u64,
    gflops: f64,
    seconds: f64,
    status: SolveStatus,
    convergence: Vec<IterationSample>,
    integrity: IntegrityAudit,
    stats: KernelStats,
}

/// The bounded, deterministic retry/degradation engine around
/// prepare + solve. See the [module docs](self) for the ladder
/// semantics, and [`EscalationPolicy`] for the knobs.
#[derive(Debug, Clone)]
pub struct SolveSupervisor {
    base: AzulConfig,
    policy: EscalationPolicy,
}

impl SolveSupervisor {
    /// A supervisor over the given base configuration with the default
    /// three-ladder policy. The base's mapping/preconditioner are
    /// superseded by the policy's ladders; its grid, tolerance, iteration
    /// caps and recovery policy carry over to every attempt.
    pub fn new(base: AzulConfig) -> Self {
        SolveSupervisor {
            base,
            policy: EscalationPolicy::default(),
        }
    }

    /// A supervisor with an explicit policy.
    pub fn with_policy(base: AzulConfig, policy: EscalationPolicy) -> Self {
        SolveSupervisor { base, policy }
    }

    /// Caps total attempts (builder style).
    #[must_use]
    pub fn max_attempts(mut self, n: usize) -> Self {
        self.policy.max_attempts = n;
        self
    }

    /// Sets the between-attempts wall-clock timeout (builder style).
    #[must_use]
    pub fn wall_timeout(mut self, timeout: Duration) -> Self {
        self.policy.wall_timeout = Some(timeout);
        self
    }

    /// Sets the per-attempt cycle budget (builder style).
    #[must_use]
    pub fn cycle_budget(mut self, cycles: u64) -> Self {
        self.policy.cycle_budget = cycles;
        self
    }

    /// Enables/disables grid growth (builder style).
    #[must_use]
    pub fn grow_grid(mut self, grow: bool) -> Self {
        self.policy.grow_grid = grow;
        self
    }

    /// Sets the stagnation detector (builder style).
    #[must_use]
    pub fn stagnation(mut self, policy: Option<StagnationPolicy>) -> Self {
        self.policy.stagnation = policy;
        self
    }

    /// The active policy.
    pub fn policy(&self) -> &EscalationPolicy {
        &self.policy
    }

    /// Runs the supervised solve of `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`AzulError::Input`] immediately for malformed inputs (a
    /// wrong rhs length, a NaN or infinite rhs or matrix entry) or an
    /// empty ladder (input problems never improve by degrading), and
    /// [`AzulError::Exhausted`] — aggregating every attempt's failure —
    /// when no configuration within the policy's bounds converged.
    #[must_use = "a dropped result discards both the solve report and the aggregated failures"]
    pub fn solve(&self, a: &Csr, b: &[f64]) -> Result<SupervisedSolveReport, AzulError> {
        self.solve_prepared(a, b, None)
    }

    /// A rung-0 [`Azul::prepare`] (first mapping and preconditioner, base
    /// grid) that compiles nothing: the seeded solve compiles or binds
    /// its own sim. The unit a service-level prepare cache stores. A
    /// rung-0 failure here is *not* terminal for the solve itself —
    /// callers fall back to the plain [`SolveSupervisor::solve`], which
    /// walks the degradation ladders.
    ///
    /// # Errors
    ///
    /// Returns exactly what rung 0 of a supervised solve would hit:
    /// [`AzulError::Input`], [`AzulError::Capacity`],
    /// [`AzulError::Numeric`] or [`AzulError::Cancelled`].
    pub fn prepare_first_rung(&self, a: &Csr) -> Result<PreparedSolver, AzulError> {
        self.check_ladders()?;
        let mut cfg = self.base.clone();
        cfg.mapping = self.policy.mappings[0].clone();
        cfg.preconditioner = self.policy.preconditioners[0];
        Azul::new(cfg).prepare_compiling(a, false)
    }

    /// Rejects a policy with an empty ladder.
    fn check_ladders(&self) -> Result<(), AzulError> {
        let policy = &self.policy;
        if policy.mappings.is_empty()
            || policy.preconditioners.is_empty()
            || policy.solvers.is_empty()
        {
            return Err(AzulError::Input(
                "escalation policy needs at least one rung on every ladder".into(),
            ));
        }
        Ok(())
    }

    /// Whether `seed` was prepared for this supervisor's rung 0 (grid,
    /// first mapping, first preconditioner) on an operator with `a`'s
    /// rows and nonzeros.
    fn seeds(&self, seed: &PreparedSolver, a: &Csr) -> bool {
        let st = &seed.structure;
        st.grid == self.base.sim.grid
            && self.policy.mappings.first().map(MappingStrategy::name) == Some(st.mapping)
            && self.policy.preconditioners.first() == Some(&st.preconditioner)
            && seed.a.rows() == a.rows()
            && seed.a.nnz() == a.nnz()
    }

    /// Like [`SolveSupervisor::solve`], but seeds the attempt loop's
    /// preprocess/factor caches from a [`PreparedSolver`] prepared **on
    /// the same matrix** — one of another operator silently solves the
    /// wrong system, so cache keys must cover the matrix content. A
    /// stale seed (another grid, mapping, preconditioner, row count or
    /// nonzero count than rung 0 on `a`) is ignored, never trusted.
    ///
    /// # Errors
    ///
    /// Identical to [`SolveSupervisor::solve`].
    #[must_use = "a dropped result discards both the solve report and the aggregated failures"]
    pub fn solve_prepared(
        &self,
        a: &Csr,
        b: &[f64],
        seed: Option<&PreparedSolver>,
    ) -> Result<SupervisedSolveReport, AzulError> {
        self.check_ladders()?;
        let policy = &self.policy;
        if policy.max_attempts == 0 {
            return Err(AzulError::Input("max_attempts must be at least 1".into()));
        }
        if b.len() != a.rows() {
            return Err(AzulError::Input(format!(
                "rhs length {} does not match the {}x{} matrix",
                b.len(),
                a.rows(),
                a.cols()
            )));
        }
        crate::check_finite_rhs(b)?;

        let _supervise_span = span::span("supervise");
        let start = Instant::now();
        let mut grid = self.base.sim.grid;
        let mut doublings_left = if policy.grow_grid {
            policy.max_grid_doublings
        } else {
            0
        };
        // Ladder positions: only ever move forward.
        let (mut mi, mut pi, mut si) = (0usize, 0usize, 0usize);
        let mut failures: Vec<AttemptFailure> = Vec::new();
        let mut records: Vec<EscalationRecord> = Vec::new();
        // The permuted matrix is identical for every rung, so the
        // preprocessing cache survives everything but mapping/grid moves
        // (which only happen while it is still empty), and factors
        // survive even those. A valid seed, shared and not copied,
        // pre-fills both, so its structure's record serves every PCG
        // attempt: they all run on its matrix, placement and factor.
        let seed = seed.filter(|s| self.seeds(s, a));
        let mut pre = seed.map(|s| Preprocessed {
            pa: Arc::clone(&s.a),
            structure: Arc::clone(&s.structure),
            report: s.prepare,
        });
        let mut factor = seed.map(|s| Arc::clone(&s.factor));

        for attempt in 1..=policy.max_attempts {
            // Cooperative cancellation is terminal, never an escalation:
            // the host asked the solve to stop, so walking a ladder rung
            // would defy the request.
            if let Some(tok) = &self.base.sim.cancel {
                if tok.is_cancelled() {
                    return Err(AzulError::Cancelled {
                        stage: "supervise".into(),
                    });
                }
            }
            if attempt > 1 {
                if let Some(timeout) = policy.wall_timeout {
                    if start.elapsed() >= timeout {
                        break;
                    }
                }
            }
            let mut cfg = self.base.clone();
            cfg.sim.grid = grid;
            cfg.mapping = policy.mappings[mi].clone();
            cfg.preconditioner = policy.preconditioners[pi];
            let solver = policy.solvers[si];
            let desc = format!(
                "{}@{} {} {}",
                cfg.mapping.name(),
                grid_label(grid),
                cfg.preconditioner.name(),
                solver.label()
            );

            // Stage A: color + map + capacity-check (cached per
            // mapping/grid rung).
            if pre.is_none() {
                match Azul::new(cfg.clone()).preprocess(a) {
                    Ok(done) => pre = Some(done),
                    Err(
                        err @ AzulError::Capacity {
                            data_bytes,
                            accum_bytes,
                            ..
                        },
                    ) => {
                        failures.push(AttemptFailure {
                            attempt,
                            config: desc,
                            error: err,
                        });
                        if mi + 1 < policy.mappings.len() {
                            records.push(EscalationRecord {
                                stage: EscalationStage::Mapping,
                                trigger: EscalationTrigger::Capacity,
                                from: policy.mappings[mi].name().to_string(),
                                to: policy.mappings[mi + 1].name().to_string(),
                                attempt,
                                cycles_spent: 0,
                            });
                            mi += 1;
                        } else if let Some((grown, steps)) =
                            self.grown_grid(grid, doublings_left, data_bytes, accum_bytes)
                        {
                            records.push(EscalationRecord {
                                stage: EscalationStage::Grid,
                                trigger: EscalationTrigger::Capacity,
                                from: grid_label(grid),
                                to: grid_label(grown),
                                attempt,
                                cycles_spent: 0,
                            });
                            grid = grown;
                            doublings_left -= steps;
                            mi = 0;
                        } else {
                            break;
                        }
                        continue;
                    }
                    // Input problems never improve by degrading.
                    Err(other) => return Err(other),
                }
            }
            let Some(pre_ref) = &pre else { continue };

            // Stage B: preconditioner factor (cached per rung; the
            // permuted matrix never changes, so a factor outlives
            // mapping/grid moves).
            if factor.is_none() {
                match factor_for(&pre_ref.pa, policy.preconditioners[pi]) {
                    Ok(f) => factor = Some(Arc::new(f)),
                    Err(err) => {
                        failures.push(AttemptFailure {
                            attempt,
                            config: desc,
                            error: err,
                        });
                        if pi + 1 < policy.preconditioners.len() {
                            records.push(EscalationRecord {
                                stage: EscalationStage::Preconditioner,
                                trigger: EscalationTrigger::FactorBreakdown,
                                from: policy.preconditioners[pi].name().to_string(),
                                to: policy.preconditioners[pi + 1].name().to_string(),
                                attempt,
                                cycles_spent: 0,
                            });
                            pi += 1;
                            continue;
                        }
                        break;
                    }
                }
            }
            let Some(factor_ref) = &factor else { continue };

            // Stage C: compile + run this solver rung.
            let perm = &pre_ref.structure.perm;
            let pb = match perm {
                Some(p) => p.apply(b),
                Option::None => b.to_vec(),
            };
            match self.run_solver(solver, pre_ref, factor_ref, &cfg.sim, &pb) {
                Err(sim_err) => {
                    // A cancelled kernel ends the whole supervised solve,
                    // typed — it must not be journaled as a sim failure
                    // or trigger a solver-ladder move. Neither may an
                    // input the frontend rejected: no rung can fix it.
                    if matches!(sim_err, SimError::Cancelled { .. } | SimError::Input { .. }) {
                        return Err(sim_err.into());
                    }
                    let cycles_spent = match &sim_err {
                        SimError::Deadlock { cycle, .. } => *cycle,
                        SimError::Invariant { cycle, .. } => *cycle,
                        SimError::MisroutedTrigger { cycle, .. } => *cycle,
                        SimError::Cancelled { cycle } => *cycle,
                        SimError::Input { .. } => 0,
                    };
                    failures.push(AttemptFailure {
                        attempt,
                        config: desc,
                        error: AzulError::Sim(sim_err),
                    });
                    if !self.advance_solver(
                        &mut si,
                        EscalationTrigger::SimFailure,
                        attempt,
                        cycles_spent,
                        &mut records,
                    ) {
                        break;
                    }
                }
                Ok(outcome) if outcome.converged => {
                    let x = match perm {
                        Some(p) => p.apply_inverse(&outcome.x),
                        Option::None => outcome.x.clone(),
                    };
                    return Ok(SupervisedSolveReport {
                        x,
                        iterations: outcome.iterations,
                        final_residual: outcome.final_residual,
                        requested_tol: self.base.pcg.tol,
                        gflops: outcome.gflops,
                        accelerator_seconds: outcome.seconds,
                        total_cycles: outcome.total_cycles,
                        attempts: attempt,
                        mapping: policy.mappings[mi].name().to_string(),
                        grid,
                        preconditioner: policy.preconditioners[pi].name(),
                        solver: solver.label(),
                        escalations: records,
                        convergence: outcome.convergence,
                        integrity: outcome.integrity,
                        stats: outcome.stats,
                        sim_config: cfg.sim,
                    });
                }
                Ok(outcome) => {
                    let trigger = match outcome.status {
                        SolveStatus::Breakdown(BreakdownKind::Stagnated) => {
                            EscalationTrigger::Stagnation
                        }
                        SolveStatus::Breakdown(BreakdownKind::BudgetExhausted) => {
                            EscalationTrigger::BudgetExhausted
                        }
                        SolveStatus::Breakdown(BreakdownKind::IntegrityViolation) => {
                            EscalationTrigger::IntegrityViolation
                        }
                        SolveStatus::Breakdown(_) => EscalationTrigger::SolveBreakdown,
                        _ => EscalationTrigger::MaxIters,
                    };
                    let reason = match outcome.status {
                        SolveStatus::Breakdown(kind) => format!(
                            "{} ended with {kind} after {} iterations (residual {:.3e})",
                            solver.label(),
                            outcome.iterations,
                            outcome.final_residual
                        ),
                        _ => format!(
                            "{} missed tolerance after {} iterations (residual {:.3e})",
                            solver.label(),
                            outcome.iterations,
                            outcome.final_residual
                        ),
                    };
                    failures.push(AttemptFailure {
                        attempt,
                        config: desc,
                        error: AzulError::Numeric(SolverError::Breakdown(reason)),
                    });
                    if !self.advance_solver(
                        &mut si,
                        trigger,
                        attempt,
                        outcome.total_cycles,
                        &mut records,
                    ) {
                        break;
                    }
                }
            }
        }

        Err(AzulError::Exhausted { attempts: failures })
    }

    /// Finds the smallest grid growth (doubling each side per step, at
    /// most `doublings_left` steps, and never past
    /// [`MAX_TILES`](azul_mapping::grid::MAX_TILES) tiles) whose balanced
    /// redistribution of the reported overflow footprint fits the
    /// per-tile SRAM limits.
    fn grown_grid(
        &self,
        grid: TileGrid,
        doublings_left: usize,
        data_bytes: usize,
        accum_bytes: usize,
    ) -> Option<(TileGrid, usize)> {
        let old_tiles = grid.num_tiles();
        for steps in 1..=doublings_left {
            let (w, h) = (grid.width() << steps, grid.height() << steps);
            let new_tiles = w * h;
            if new_tiles > azul_mapping::grid::MAX_TILES {
                break;
            }
            let scaled = |bytes: usize| bytes * old_tiles / new_tiles;
            if scaled(data_bytes) <= self.base.sim.data_sram_bytes
                && scaled(accum_bytes) <= self.base.sim.accum_sram_bytes
            {
                return Some((TileGrid::new(w, h), steps));
            }
        }
        Option::None
    }

    /// Advances the solver ladder, journaling the transition. Returns
    /// `false` when the ladder is exhausted.
    fn advance_solver(
        &self,
        si: &mut usize,
        trigger: EscalationTrigger,
        attempt: usize,
        cycles_spent: u64,
        records: &mut Vec<EscalationRecord>,
    ) -> bool {
        let solvers = &self.policy.solvers;
        if *si + 1 >= solvers.len() {
            return false;
        }
        records.push(EscalationRecord {
            stage: EscalationStage::Solver,
            trigger,
            from: solvers[*si].label(),
            to: solvers[*si + 1].label(),
            attempt,
            cycles_spent,
        });
        *si += 1;
        true
    }

    /// Compiles and runs one attempt's solver rung against the cached
    /// placement and factor, normalizing the three report shapes. A PCG
    /// rung builds its sim from the structure's record when it holds
    /// one, and fills it when it does not.
    fn run_solver(
        &self,
        solver: SolverChoice,
        pre: &Preprocessed,
        factor: &Arc<Csr>,
        sim_cfg: &SimConfig,
        pb: &[f64],
    ) -> Result<RunOutcome, SimError> {
        let base = &self.base.pcg;
        let (pa, st) = (&pre.pa, &pre.structure);
        match solver {
            SolverChoice::Pcg => {
                let sim = PcgSim::build_shared(
                    Arc::clone(pa),
                    Arc::clone(factor),
                    Arc::clone(&st.placement),
                    sim_cfg,
                    st.record.get(),
                );
                let run_cfg = PcgSimConfig {
                    stagnation: self.policy.stagnation,
                    cycle_budget: self.policy.cycle_budget,
                    ..*base
                };
                let r = sim.try_run(pb, &run_cfg)?;
                st.keep_record(&sim);
                Ok(RunOutcome {
                    x: r.x,
                    converged: r.converged,
                    iterations: r.iterations,
                    final_residual: r.final_residual,
                    total_cycles: r.total_cycles,
                    gflops: r.gflops,
                    seconds: r.elapsed_seconds,
                    status: r.status,
                    convergence: r.convergence,
                    integrity: r.integrity,
                    stats: r.stats,
                })
            }
            SolverChoice::BiCgStab => {
                let sim = BiCgStabSim::build_with_factor(pa, factor, &st.placement, sim_cfg);
                let run_cfg = BiCgStabSimConfig {
                    tol: base.tol,
                    max_iters: base.max_iters,
                    timed_iterations: base.timed_iterations,
                    recovery: base.recovery,
                    stagnation: self.policy.stagnation,
                    cycle_budget: self.policy.cycle_budget,
                    integrity: base.integrity,
                };
                let r = sim.try_run(pb, &run_cfg)?;
                let total_cycles = (r.cycles_per_iteration * r.iterations as f64) as u64;
                Ok(RunOutcome {
                    x: r.x,
                    converged: r.converged,
                    iterations: r.iterations,
                    final_residual: r.final_residual,
                    total_cycles,
                    gflops: r.gflops,
                    seconds: sim_cfg.cycles_to_seconds(total_cycles),
                    status: r.status,
                    convergence: r.convergence,
                    integrity: r.integrity,
                    stats: r.stats,
                })
            }
            SolverChoice::Gmres { restart } => {
                let sim = GmresSim::build_with_factor(pa, factor, &st.placement, sim_cfg);
                let run_cfg = GmresSimConfig {
                    tol: base.tol,
                    restart,
                    max_iters: base.max_iters,
                    timed_iterations: base.timed_iterations,
                    recovery: base.recovery,
                    stagnation: self.policy.stagnation,
                    cycle_budget: self.policy.cycle_budget,
                    integrity: base.integrity,
                };
                let r = sim.try_run(pb, &run_cfg)?;
                let total_cycles = (r.cycles_per_iteration * r.iterations as f64) as u64;
                Ok(RunOutcome {
                    x: r.x,
                    converged: r.converged,
                    iterations: r.iterations,
                    final_residual: r.final_residual,
                    total_cycles,
                    gflops: r.gflops,
                    seconds: sim_cfg.cycles_to_seconds(total_cycles),
                    status: r.status,
                    convergence: r.convergence,
                    integrity: r.integrity,
                    stats: r.stats,
                })
            }
        }
    }
}

/// `"WxH"` grid label used in records and attempt descriptions.
fn grid_label(grid: TileGrid) -> String {
    format!("{}x{}", grid.width(), grid.height())
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_sparse::{dense, generate, Coo};

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 13 % 9) as f64) / 9.0 + 0.2).collect()
    }

    /// A Helmholtz-style shifted Laplacian: the 10x10 grid Laplacian with
    /// its diagonal shifted by 4.73, which sits 0.12 away from the nearest
    /// eigenvalue and leaves 66 of the 100 eigenvalues negative. IC(0),
    /// SSOR and Jacobi factors all break down on the negative diagonal
    /// (4 - 4.73 < 0), unpreconditioned PCG and BiCGStab both fail on the
    /// strongly indefinite operator, and full-restart GMRES converges.
    fn indefinite() -> Csr {
        let base = generate::grid_laplacian_2d(10, 10);
        let mut t = Vec::new();
        for r in 0..base.rows() {
            for (c, v) in base.row(r) {
                t.push((r, c, if r == c { v - 4.73 } else { v }));
            }
        }
        Coo::from_triplets(base.rows(), base.cols(), t)
            .unwrap()
            .to_csr()
    }

    fn cheap_mapping_policy() -> EscalationPolicy {
        EscalationPolicy {
            mappings: vec![MappingStrategy::RoundRobin],
            ..EscalationPolicy::default()
        }
    }

    #[test]
    fn healthy_solve_takes_the_first_rung_unchanged() {
        let a = generate::grid_laplacian_2d(8, 8);
        let b = rhs(a.rows());
        let plain = Azul::new(AzulConfig::small_test()).solve(&a, &b).unwrap();
        let sup = SolveSupervisor::new(AzulConfig::small_test())
            .solve(&a, &b)
            .unwrap();
        assert_eq!(sup.attempts, 1);
        assert!(sup.escalations.is_empty());
        assert_eq!(sup.degradation_path(), "");
        assert_eq!(sup.solver, "pcg");
        assert_eq!(sup.preconditioner, "ic0");
        assert_eq!(sup.mapping, "azul");
        // The stagnation detector perturbs nothing on a healthy run: the
        // supervised solution is bit-identical to the plain pipeline's.
        assert_eq!(sup.x, plain.x);
        assert_eq!(sup.iterations, plain.iterations);
        assert!(sup.accuracy_delta() <= 0.0, "{}", sup.accuracy_delta());
    }

    #[test]
    fn indefinite_matrix_walks_preconditioner_and_solver_ladders() {
        let a = indefinite();
        let b = rhs(a.rows());
        // The plain pipeline cannot even prepare: IC(0) breaks down.
        let plain = Azul::new(AzulConfig::small_test()).prepare(&a);
        assert!(matches!(plain, Err(AzulError::Numeric(_))), "{plain:?}");

        let policy = EscalationPolicy {
            solvers: vec![SolverChoice::Pcg, SolverChoice::Gmres { restart: 120 }],
            ..cheap_mapping_policy()
        };
        let sup = SolveSupervisor::with_policy(AzulConfig::small_test(), policy)
            .solve(&a, &b)
            .unwrap();
        // IC(0) -> SSOR -> Jacobi all break on the negative diagonal.
        assert_eq!(sup.preconditioner, "none");
        let precond_path: Vec<_> = sup
            .escalations
            .iter()
            .filter(|r| r.stage == EscalationStage::Preconditioner)
            .map(|r| (r.from.as_str(), r.to.as_str()))
            .collect();
        assert_eq!(
            precond_path,
            [("ic0", "ssor"), ("ssor", "jacobi"), ("jacobi", "none")]
        );
        // PCG fails on the indefinite operator; GMRES finishes the job.
        assert_eq!(sup.solver, "gmres(120)");
        let solver_moves: Vec<_> = sup
            .escalations
            .iter()
            .filter(|r| r.stage == EscalationStage::Solver)
            .collect();
        assert_eq!(solver_moves.len(), 1);
        assert_eq!(solver_moves[0].from, "pcg");
        assert!(
            solver_moves[0].cycles_spent > 0,
            "a solve ran and was journaled"
        );
        assert_eq!(sup.attempts, 5);
        // The solution solves the *original* system to the tolerance.
        let residual = dense::norm2(&dense::sub(&b, &a.spmv(&sup.x)));
        assert!(residual < 1e-8, "residual {residual}");
        assert!(sup.final_residual <= sup.requested_tol);
    }

    #[test]
    fn capacity_overflow_walks_mapping_ladder_then_grows_grid() {
        // ~28k nonzeros: overflows every mapping on 2x2 (x1.5 factor
        // included) but fits comfortably on 4x4.
        let a = generate::grid_laplacian_2d(48, 48);
        let b = rhs(a.rows());
        let plain = Azul::new(AzulConfig::small_test()).prepare(&a);
        assert!(
            matches!(plain, Err(AzulError::Capacity { .. })),
            "{plain:?}"
        );

        let policy = EscalationPolicy {
            mappings: vec![
                MappingStrategy::Azul(AzulMapper::fast_default()),
                MappingStrategy::Block,
            ],
            ..EscalationPolicy::default()
        };
        let mut cfg = AzulConfig::small_test();
        cfg.pcg.tol = 1e-8;
        let sup = SolveSupervisor::with_policy(cfg, policy)
            .solve(&a, &b)
            .unwrap();
        assert_eq!(sup.attempts, 3);
        assert_eq!(sup.degradation_path(), "mapping:azul->block, grid:2x2->4x4");
        // The grid ladder resets the mapping ladder to its strongest rung.
        assert_eq!(sup.mapping, "azul");
        assert_eq!((sup.grid.width(), sup.grid.height()), (4, 4));
        assert_eq!(sup.solver, "pcg");
        let residual = dense::norm2(&dense::sub(&b, &a.spmv(&sup.x)));
        assert!(residual < 1e-6, "residual {residual}");
        // Capacity failures consumed no simulated cycles.
        assert!(sup.escalations.iter().all(|r| r.cycles_spent == 0));
    }

    #[test]
    fn exhaustion_aggregates_every_attempt() {
        let a = indefinite();
        let b = rhs(a.rows());
        let policy = EscalationPolicy {
            preconditioners: vec![PreconditionerChoice::IncompleteCholesky],
            solvers: vec![SolverChoice::Pcg],
            ..cheap_mapping_policy()
        };
        let err = SolveSupervisor::with_policy(AzulConfig::small_test(), policy)
            .solve(&a, &b)
            .unwrap_err();
        match &err {
            AzulError::Exhausted { attempts } => {
                assert_eq!(attempts.len(), 1);
                assert_eq!(attempts[0].attempt, 1);
                assert!(
                    attempts[0].config.contains("ic0 pcg"),
                    "{}",
                    attempts[0].config
                );
                assert!(matches!(attempts[0].error, AzulError::Numeric(_)));
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert!(
            err.to_string().contains("exhausted after 1 attempt"),
            "{err}"
        );
        // The source chain reaches the final attempt's numeric cause.
        let source = std::error::Error::source(&err).expect("exhaustion has a cause");
        assert!(source.to_string().contains("numeric failure"), "{source}");
    }

    #[test]
    fn cycle_budget_exhaustion_is_journaled() {
        let a = generate::grid_laplacian_2d(8, 8);
        let b = rhs(a.rows());
        let policy = EscalationPolicy {
            solvers: vec![SolverChoice::Pcg],
            cycle_budget: 1,
            ..cheap_mapping_policy()
        };
        let err = SolveSupervisor::with_policy(AzulConfig::small_test(), policy)
            .solve(&a, &b)
            .unwrap_err();
        let AzulError::Exhausted { attempts } = &err else {
            panic!("expected Exhausted, got {err:?}");
        };
        assert_eq!(attempts.len(), 1);
        assert!(
            attempts[0].error.to_string().contains("cycle budget"),
            "{}",
            attempts[0].error
        );
    }

    #[test]
    fn wall_timeout_stops_between_attempts() {
        let a = indefinite();
        let b = rhs(a.rows());
        let policy = EscalationPolicy {
            preconditioners: vec![
                PreconditionerChoice::IncompleteCholesky,
                PreconditionerChoice::None,
            ],
            solvers: vec![SolverChoice::Gmres { restart: 20 }],
            wall_timeout: Some(Duration::ZERO),
            ..cheap_mapping_policy()
        };
        let err = SolveSupervisor::with_policy(AzulConfig::small_test(), policy)
            .solve(&a, &b)
            .unwrap_err();
        let AzulError::Exhausted { attempts } = &err else {
            panic!("expected Exhausted, got {err:?}");
        };
        // Attempt 1 (the IC(0) breakdown) ran; the zero timeout blocked
        // attempt 2 even though the ladder had a viable rung left.
        assert_eq!(attempts.len(), 1);
    }

    #[test]
    fn input_problems_fail_fast() {
        let rect = Coo::from_triplets(2, 3, [(0, 0, 1.0)]).unwrap().to_csr();
        let sup = SolveSupervisor::new(AzulConfig::small_test());
        assert!(matches!(
            sup.solve(&rect, &[1.0, 1.0]),
            Err(AzulError::Input(_))
        ));
        let a = generate::grid_laplacian_2d(4, 4);
        assert!(matches!(sup.solve(&a, &[1.0; 3]), Err(AzulError::Input(_))));
        // A non-finite rhs fails before any ladder attempt.
        let mut nan_rhs = rhs(16);
        nan_rhs[7] = f64::NAN;
        match sup.solve(&a, &nan_rhs) {
            Err(AzulError::Input(msg)) => assert!(msg.contains("rhs entry 7"), "{msg}"),
            other => panic!("expected AzulError::Input, got {other:?}"),
        }
        // So does a non-finite matrix entry, caught by preprocessing.
        let mut inf_a = a.clone();
        inf_a.values_mut()[0] = f64::INFINITY;
        match sup.solve(&inf_a, &rhs(16)) {
            Err(AzulError::Input(msg)) => assert!(msg.contains("not finite"), "{msg}"),
            other => panic!("expected AzulError::Input, got {other:?}"),
        }
        let empty = EscalationPolicy {
            solvers: vec![],
            ..EscalationPolicy::default()
        };
        assert!(matches!(
            SolveSupervisor::with_policy(AzulConfig::small_test(), empty).solve(&a, &rhs(16)),
            Err(AzulError::Input(_))
        ));
    }

    #[test]
    fn supervised_runs_are_deterministic() {
        let a = indefinite();
        let b = rhs(a.rows());
        let policy = || EscalationPolicy {
            solvers: vec![SolverChoice::Pcg, SolverChoice::Gmres { restart: 120 }],
            ..cheap_mapping_policy()
        };
        let run = || {
            SolveSupervisor::with_policy(AzulConfig::small_test(), policy())
                .solve(&a, &b)
                .unwrap()
        };
        let (first, second) = (run(), run());
        assert_eq!(first.x, second.x);
        assert_eq!(first.escalations, second.escalations);
        assert_eq!(first.total_cycles, second.total_cycles);
        assert_eq!(first.convergence, second.convergence);
    }

    #[test]
    fn grown_grid_predicts_the_smallest_sufficient_doubling() {
        let sup = SolveSupervisor::new(AzulConfig::small_test());
        let grid = TileGrid::new(2, 2);
        let data_limit = sup.base.sim.data_sram_bytes;
        // 4x the limit per tile: one doubling (4x the tiles) fits exactly.
        let g = sup.grown_grid(grid, 2, data_limit * 4, 0);
        assert_eq!(g.map(|(g, s)| (g.width(), g.height(), s)), Some((4, 4, 1)));
        // 5x the limit: one doubling is not enough, two are.
        let g = sup.grown_grid(grid, 2, data_limit * 5, 0);
        assert_eq!(g.map(|(g, s)| (g.width(), g.height(), s)), Some((8, 8, 2)));
        // Out of doublings.
        assert_eq!(sup.grown_grid(grid, 1, data_limit * 5, 0), Option::None);
        // Accumulator overflow alone also drives growth.
        let accum_limit = sup.base.sim.accum_sram_bytes;
        let g = sup.grown_grid(grid, 2, 0, accum_limit * 3);
        assert_eq!(g.map(|(g, s)| (g.width(), g.height(), s)), Some((4, 4, 1)));
        // Growth stops at the largest grid instead of panicking past it.
        let g = sup.grown_grid(TileGrid::new(128, 128), 2, data_limit * 4, 0);
        assert_eq!(
            g.map(|(g, s)| (g.width(), g.height(), s)),
            Some((256, 256, 1))
        );
        let g = sup.grown_grid(TileGrid::new(256, 256), 2, data_limit * 4, 0);
        assert_eq!(g, Option::None);
    }

    #[test]
    fn prepared_rung_scrub_detects_checksum_corruption() {
        let a = generate::grid_laplacian_2d(8, 8);
        let sup = SolveSupervisor::new(AzulConfig::small_test());
        let rung = sup.prepare_first_rung(&a).unwrap();
        assert!(rung.verify_integrity(), "fresh artifacts verify clean");

        let mut poisoned = rung.clone();
        poisoned.flip_checksum_bit(3, 52);
        assert!(
            !poisoned.verify_integrity(),
            "a single flipped checksum bit fails the scrub"
        );
        // The pristine copy is untouched — corruption does not travel.
        assert!(rung.verify_integrity());
    }

    /// `x` bits, cycles and statistics of a supervised solve, with the
    /// engine launches it took on this thread.
    fn counted(
        sup: &SolveSupervisor,
        a: &Csr,
        b: &[f64],
        seed: Option<&PreparedSolver>,
    ) -> ((Vec<u64>, u64, KernelStats), u64) {
        azul_sim::profile::reset();
        let r = sup.solve_prepared(a, b, seed).unwrap();
        let launches = azul_sim::profile::snapshot().engine_launches;
        let bits = r.x.iter().map(|v| v.to_bits()).collect();
        ((bits, r.total_cycles, r.stats), launches)
    }

    #[test]
    fn seeded_solves_fill_the_record_and_replay_under_its_config() {
        let a = generate::grid_laplacian_2d(8, 8);
        let b = rhs(a.rows());
        let sup = SolveSupervisor::with_policy(AzulConfig::small_test(), cheap_mapping_policy());
        let rung = sup.prepare_first_rung(&a).unwrap();
        assert!(
            rung.structure.record.get().is_none(),
            "a prepare runs no solve"
        );
        let (cold, launches) = counted(&sup, &a, &b, Some(&rung));
        assert!(launches > 0, "the first seeded solve ticks");
        assert!(
            rung.structure.record.get().is_some(),
            "and fills the record"
        );
        let (warm, launches) = counted(&sup, &a, &b, Some(&rung));
        assert_eq!(
            launches, 0,
            "a seeded solve under the record's config replays"
        );
        assert_eq!(warm, cold);
        assert_eq!(counted(&sup, &a, &b, None).0, cold, "unseeded solves agree");

        // `seeds` looks at the grid, mapping, preconditioner and size only:
        // a rung seeds a supervisor with another hop latency, whose
        // launches then run the engine.
        let mut base = AzulConfig::small_test();
        base.sim.hop_latency += 2;
        let slower = SolveSupervisor::with_policy(base, cheap_mapping_policy());
        let (seeded, launches) = counted(&slower, &a, &b, Some(&rung));
        assert!(launches > 0, "another config ticks");
        let (unseeded, _) = counted(&slower, &a, &b, None);
        assert_eq!(seeded, unseeded);
        assert_ne!(seeded.1, cold.1, "the hop latency shows in the cycles");
    }

    #[test]
    fn a_seed_of_another_size_is_stale_and_ignored() {
        let sup = SolveSupervisor::with_policy(AzulConfig::small_test(), cheap_mapping_policy());
        let small = sup
            .prepare_first_rung(&generate::grid_laplacian_2d(6, 6))
            .unwrap();
        let a = generate::grid_laplacian_2d(8, 8);
        let b = rhs(a.rows());
        let (seeded, _) = counted(&sup, &a, &b, Some(&small));
        assert_eq!(seeded, counted(&sup, &a, &b, None).0);
    }

    #[test]
    fn integrity_audited_supervised_solve_stays_clean() {
        use azul_sim::IntegrityPolicy;

        let a = generate::grid_laplacian_2d(8, 8);
        let b = rhs(a.rows());
        let mut cfg = AzulConfig::small_test();
        cfg.pcg.integrity = IntegrityPolicy::audit();
        let sup = SolveSupervisor::new(cfg).solve(&a, &b).unwrap();
        assert!(sup.integrity.checks > 0, "audits ran");
        assert!(
            sup.integrity.violations.is_empty(),
            "fault-free run is violation-free: {:?}",
            sup.integrity.violations
        );
        assert_eq!(sup.integrity.escapes, 0);
        assert!(sup.final_residual <= sup.requested_tol);

        // The audited solve delivers the same answer as the unaudited
        // one — checking is observation, not perturbation.
        let plain = SolveSupervisor::new(AzulConfig::small_test())
            .solve(&a, &b)
            .unwrap();
        assert_eq!(sup.x, plain.x);
        assert!(plain.integrity.is_empty(), "unaudited run records nothing");
    }

    #[test]
    fn fill_supervisor_report_exports_supervisor_section() {
        let a = indefinite();
        let b = rhs(a.rows());
        let policy = EscalationPolicy {
            solvers: vec![SolverChoice::Pcg, SolverChoice::Gmres { restart: 120 }],
            ..cheap_mapping_policy()
        };
        let sup = SolveSupervisor::with_policy(AzulConfig::small_test(), policy)
            .solve(&a, &b)
            .unwrap();
        let mut report = TelemetryReport::default();
        fill_supervisor_report(&mut report, &sup);
        assert_eq!(report.counter_value("escalations"), Some(4));
        assert_eq!(report.supervisor.len(), 4);
        assert_eq!(report.supervisor[0].stage, "preconditioner");
        assert_eq!(report.supervisor[0].trigger, "factor-breakdown");
        let text = report.to_json().to_string_pretty();
        assert!(text.contains("\"supervisor\""), "section serialized");
        assert!(text.contains("\"schema_version\": 7"), "{text}");

        // Trace markers follow the journal in order, on a cumulative
        // simulated-cycle clock.
        let marks = escalation_trace_marks(&sup);
        assert_eq!(marks.len(), sup.escalations.len());
        let cycles: Vec<u64> = marks.iter().map(|(c, _)| *c).collect();
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        assert_eq!(cycles, sorted, "markers are monotone");
        assert!(
            marks[0].1.starts_with("preconditioner:"),
            "label carries the ladder transition, got {:?}",
            marks[0].1
        );
        assert!(marks[0].1.contains("->"), "{:?}", marks[0].1);
    }
}
