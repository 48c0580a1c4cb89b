//! The solve driver shared by the simulated Krylov frontends.
//!
//! [`PcgSim`](crate::PcgSim), [`BiCgStabSim`](crate::BiCgStabSim) and
//! [`GmresSim`](crate::GmresSim) run the same kernels and differ only in
//! their recurrences and restart rules. Everything around the recurrence
//! lives here, once: the fault session, cycle-timed kernel launches with
//! per-class tallies, vector-op costing, cancellation, the checkpoint of
//! `x` and the rollback decision, ABFT checks with the re-verify-first
//! ladder, drift and final audits, convergence samples with the back-fill
//! of untimed iterations, the stagnation and cycle-budget checks, and the
//! closing bookkeeping.
//!
//! A frontend opens each iteration with [`Solve::begin`] (or
//! [`Solve::next`]), runs its recurrence as a [`Step`] whose guards fail
//! with [`Stop::Anomaly`], and closes it with [`Solve::end`]. A failed
//! step goes to [`Solve::recover`], which either restores the checkpoint
//! (the frontend re-derives its recurrence and continues) or records the
//! breakdown (the frontend stops).

use crate::config::{SimConfig, StagnationPolicy};
use crate::faults::{
    DriftSample, FaultRecord, FaultSession, IntegrityAudit, IntegrityPolicy, IntegrityRecord,
    RecoveryPolicy, RecoveryRecord,
};
use crate::machine::{run_kernel_checked, SimError};
use crate::program::Program;
use crate::stats::{KernelClass, KernelStats};
use crate::vecops::{VecOp, VecOpModel};
use azul_solver::abft::{ChecksumCheck, OperatorChecksum};
use azul_solver::{BreakdownKind, SolveStatus};
use azul_sparse::{dense, Csr};
use azul_telemetry::report::IterationSample;
use azul_telemetry::span::{self, SpanGuard};

/// FLOPs represented by an op tally (FMAC = 2, Add/Mul = 1, Send = 0).
pub(crate) fn flops_of_ops(ops: [u64; 4]) -> u64 {
    2 * ops[0] + ops[1] + ops[2]
}

/// How to run one solve: the frontend's identity and the run-time knobs
/// every `*SimConfig` shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// Name of the solve-level telemetry span.
    pub span: &'static str,
    /// The loop's residual is GMRES's Givens estimate rather than a
    /// recursive residual: journals say "estimate", and the true final
    /// residual can upgrade the solve to converged.
    pub estimate: bool,
    pub tol: f64,
    pub timed_iterations: usize,
    pub recovery: RecoveryPolicy,
    pub stagnation: Option<StagnationPolicy>,
    pub cycle_budget: u64,
    pub integrity: IntegrityPolicy,
}

/// Why an iteration ended early.
#[derive(Debug)]
pub(crate) enum Stop {
    /// A machine-level failure: the solve ends with this error.
    Sim(SimError),
    /// A numerical anomaly or a confirmed integrity violation: the
    /// rollback ladder decides whether the solve goes on.
    Anomaly(BreakdownKind, String),
}

impl From<SimError> for Stop {
    fn from(e: SimError) -> Self {
        Stop::Sim(e)
    }
}

/// The result of one guarded stretch of a recurrence.
pub(crate) type Step<T> = Result<T, Stop>;

/// Fails the step with `kind` unless `ok`. The reason is only built on
/// failure, so a passing guard costs one branch.
pub(crate) fn ensure(ok: bool, kind: BreakdownKind, reason: impl FnOnce() -> String) -> Step<()> {
    if ok {
        Ok(())
    } else {
        Err(Stop::Anomaly(kind, reason()))
    }
}

/// `||b - A x||`, recomputed with the reference kernel.
fn true_residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    dense::norm2(&dense::sub(b, &a.spmv(x)))
}

/// A finished solve: everything the frontends copy into their reports.
pub(crate) struct Finished {
    pub x: Vec<f64>,
    pub converged: bool,
    pub iterations: usize,
    pub final_residual: f64,
    pub timed_iterations: usize,
    /// Cycles of the timed iterations.
    pub timed_cycles: u64,
    pub cycles_per_iteration: f64,
    /// Setup cycles plus the extrapolated iteration cycles.
    pub total_cycles: u64,
    /// Per-iteration cycles by kernel class `[Spmv, Sptrsv, VectorOps]`.
    pub kernel_cycles: [f64; 3],
    pub stats: KernelStats,
    pub status: SolveStatus,
    pub fault_events: Vec<FaultRecord>,
    pub recoveries: Vec<RecoveryRecord>,
    pub integrity: IntegrityAudit,
    pub convergence: Vec<IterationSample>,
}

/// The state of one simulated solve around the frontend's recurrence.
pub(crate) struct Solve<'a> {
    cfg: &'a SimConfig,
    a: &'a Csr,
    vec_model: &'a VecOpModel,
    /// The right-hand side.
    pub b: &'a [f64],
    policy: Policy,
    estimate: bool,
    span: SpanGuard,
    /// One fault session spans all timed kernels of the solve, so the
    /// plan's global-cycle timeline advances across kernel boundaries.
    session: Option<FaultSession>,
    stats: KernelStats,
    /// Cycles by kernel class over the timed iterations.
    kernel_cycles: [u64; 3],
    /// Cycles charged before the first iteration (PCG's setup kernels).
    setup_cycles: u64,
    timed_budget: usize,

    /// The iterate.
    pub x: Vec<f64>,
    /// Completed iterations.
    pub iterations: usize,
    pub converged: bool,
    pub breakdown: Option<BreakdownKind>,

    /// Whether the open iteration runs on the cycle-timed kernels.
    pub timing: bool,
    /// An iteration is open: begun, and neither ended nor rolled back.
    open: bool,
    this_iter: u64,
    /// `(ops, messages, link_activations)` when the iteration opened.
    pre: ([u64; 4], u64, u64),
    timed_done: usize,
    timed_cycles: u64,

    /// Checkpoints store `x` only; frontends re-derive their recurrence
    /// from it, so corrupted recurrence state cannot survive a rollback.
    /// The first snapshot is the starting `x` at iteration 0, so a fault
    /// before the first checkpoint interval still has a valid target.
    ck_x: Vec<f64>,
    ck_iter: usize,
    recoveries: Vec<RecoveryRecord>,
    /// Best residual norm seen (the divergence guard's reference).
    best: f64,

    audit: IntegrityAudit,
    /// Checksums of the operator and the stored factor. Host-side
    /// prepare-time artifacts: their construction and each O(n)
    /// verification are not cycle-charged, like the recovery recomputes.
    cs_a: Option<OperatorChecksum>,
    cs_l: Option<OperatorChecksum>,
    a_inf: f64,
    bnorm: f64,

    convergence: Vec<IterationSample>,
    /// Positions of untimed samples, back-filled at the end.
    untimed: Vec<usize>,
    /// `(flops, messages, link_activations)` over the timed iterations.
    timed_sums: (u64, u64, u64),
    /// Residual history for the stagnation detector; only kept when a
    /// policy is configured.
    rnorm_hist: Vec<f64>,
}

impl<'a> Solve<'a> {
    /// Starts a solve of `a x = b` from `x = 0`. `factor` is the stored
    /// preconditioner factor whose solves are checksummed, if any.
    ///
    /// # Errors
    ///
    /// [`SimError::Input`] when `b.len()` differs from the matrix
    /// dimension or an entry of `b` is not finite.
    pub fn new(
        cfg: &'a SimConfig,
        a: &'a Csr,
        factor: Option<&Csr>,
        vec_model: &'a VecOpModel,
        b: &'a [f64],
        policy: Policy,
    ) -> Result<Self, SimError> {
        let n = a.rows();
        if b.len() != n {
            return Err(SimError::Input {
                detail: format!("rhs length {} does not match the {n}-row matrix", b.len()),
            });
        }
        if let Some(i) = b.iter().position(|v| !v.is_finite()) {
            return Err(SimError::Input {
                detail: format!("rhs entry {i} is not finite: {}", b[i]),
            });
        }
        let integrity = policy.integrity;
        let checksums = integrity.enabled && integrity.checksum_kernels;
        let bnorm = dense::norm2(b);
        Ok(Solve {
            cfg,
            a,
            vec_model,
            b,
            policy,
            estimate: policy.estimate,
            span: span::span(policy.span),
            session: cfg
                .faults
                .as_ref()
                .filter(|p| !p.is_empty())
                .map(|p| FaultSession::new(p.clone())),
            stats: KernelStats::default(),
            kernel_cycles: [0; 3],
            setup_cycles: 0,
            timed_budget: match policy.timed_iterations {
                0 => usize::MAX,
                t => t,
            },
            x: vec![0.0; n],
            iterations: 0,
            converged: false,
            breakdown: None,
            timing: true,
            open: false,
            this_iter: 0,
            pre: ([0; 4], 0, 0),
            timed_done: 0,
            timed_cycles: 0,
            ck_x: vec![0.0; n],
            ck_iter: 0,
            recoveries: Vec::new(),
            best: bnorm,
            audit: IntegrityAudit::default(),
            cs_a: checksums.then(|| OperatorChecksum::new(a)),
            cs_l: factor.filter(|_| checksums).map(OperatorChecksum::new),
            a_inf: if integrity.enabled { a.inf_norm() } else { 0.0 },
            bnorm,
            convergence: Vec::new(),
            untimed: Vec::new(),
            timed_sums: (0, 0, 0),
            rnorm_hist: Vec::new(),
        })
    }

    /// Ends the setup phase: its cycles (timed kernels run so far) are
    /// charged to sample 0, which carries the starting residual `||b||`.
    pub fn start(&mut self) {
        self.setup_cycles = self.this_iter;
        self.kernel_cycles = [0; 3];
        self.convergence.push(IterationSample {
            iteration: 0,
            residual: self.bnorm,
            cycles: self.setup_cycles,
            flops: flops_of_ops(self.stats.ops),
            messages: self.stats.messages,
            link_activations: self.stats.link_activations,
        });
        self.converged = self.bnorm <= self.policy.tol;
    }

    /// Cooperative cancellation between iterations: untimed iterations
    /// never enter the cycle engine, so its own check alone could leave a
    /// long functional stretch uncancellable.
    pub fn cancelled(&self) -> Result<(), SimError> {
        match &self.cfg.cancel {
            Some(tok) if tok.is_cancelled() => Err(SimError::Cancelled {
                cycle: self.setup_cycles + self.timed_cycles,
            }),
            _ => Ok(()),
        }
    }

    /// Snapshots `x` when recovery is enabled: every time when
    /// `periodic` is false (GMRES's healthy restart boundaries), else
    /// once the previous interval's iterations all passed the guards.
    pub fn checkpoint(&mut self, periodic: bool) {
        let rec = self.policy.recovery;
        let due = !periodic || self.iterations - self.ck_iter >= rec.checkpoint_interval.max(1);
        if rec.enabled && due {
            self.ck_x.copy_from_slice(&self.x);
            self.ck_iter = self.iterations;
        }
    }

    /// Opens an iteration: decides whether it is cycle-timed and
    /// snapshots the counters its convergence sample differences.
    pub fn begin(&mut self) {
        self.timing = self.timed_done < self.timed_budget;
        self.open = true;
        self.this_iter = 0;
        self.pre = (
            self.stats.ops,
            self.stats.messages,
            self.stats.link_activations,
        );
    }

    /// Between iterations of a non-restarted recurrence: the cancel
    /// check, the periodic checkpoint, then [`Solve::begin`].
    pub fn next(&mut self) -> Result<(), SimError> {
        self.cancelled()?;
        self.checkpoint(true);
        self.begin();
        Ok(())
    }

    /// Drops the open iteration without counting it (GMRES's lucky
    /// breakdown): its cycles are neither charged nor sampled.
    pub fn abandon(&mut self) {
        self.open = false;
    }

    /// Runs `prog` on the cycle-level machine and charges it to the open
    /// iteration under `class`.
    pub fn timed(
        &mut self,
        prog: &Program,
        input: &[f64],
        class: KernelClass,
    ) -> Result<Vec<f64>, SimError> {
        let (out, s) = run_kernel_checked(self.cfg, prog, input, self.session.as_mut())?;
        self.kernel_cycles[class as usize] += s.cycles;
        self.this_iter += s.cycles;
        self.stats.merge(&s);
        Ok(out)
    }

    /// Charges `count` vector ops of kind `op` to a timed iteration.
    pub fn vec_ops(&mut self, op: VecOp, count: usize) {
        if !self.timing {
            return;
        }
        for _ in 0..count {
            let s = self.vec_model.stats(self.cfg, op, self.x.len());
            self.kernel_cycles[KernelClass::VectorOps as usize] += s.cycles;
            self.this_iter += s.cycles;
            self.stats.merge(&s);
        }
    }

    /// The operator's checksum, when this iteration's kernels are timed
    /// and checked (reference kernels need no check).
    pub fn spmv_checksum(&self) -> Option<&OperatorChecksum> {
        self.cs_a.as_ref().filter(|_| self.timing)
    }

    /// The stored factor's checksum, under the same conditions.
    pub fn factor_checksum(&self) -> Option<&OperatorChecksum> {
        self.cs_l.as_ref().filter(|_| self.timing)
    }

    /// ABFT with the re-verify-first ladder. Every check in `checks`
    /// counts as run; the first failing one is journaled. Only a
    /// deviation the reference kernels `confirmed` fails the step; a gap
    /// they do not confirm is rounding, and the solve continues with the
    /// simulated output.
    pub fn abft(
        &mut self,
        checks: &[(&'static str, ChecksumCheck)],
        confirmed: impl FnOnce(&ChecksumCheck) -> bool,
    ) -> Step<()> {
        self.audit.checks += checks.len() as u64;
        let Some(&(check, bad)) = checks.iter().find(|(_, c)| !c.ok()) else {
            return Ok(());
        };
        let gap = format!("gap {:.3e} > bound {:.3e}", bad.gap, bad.bound);
        self.audit.violations.push(IntegrityRecord {
            iteration: self.iterations,
            check,
            detail: gap.clone(),
        });
        if !confirmed(&bad) {
            return Ok(());
        }
        let reason = if self.estimate {
            format!("integrity: {check} {gap}")
        } else {
            format!("{} checksum {gap}", check.trim_start_matches("checksum_"))
        };
        Err(Stop::Anomaly(BreakdownKind::IntegrityViolation, reason))
    }

    /// ABFT for a timed SpMV `output = A input`.
    pub fn verify_spmv(&mut self, input: &[f64], output: &[f64]) -> Step<()> {
        let Some(check) = self.spmv_checksum().map(|cs| cs.verify_spmv(input, output)) else {
            return Ok(());
        };
        let a = self.a;
        self.abft(&[("checksum_spmv", check)], |c| {
            dense::norm2(&dense::sub(output, &a.spmv(input))) > c.bound
        })
    }

    /// The divergence guards on a recursive residual norm: non-finite,
    /// or grown past `divergence_factor` times the best seen.
    pub fn check_residual(&mut self, rnorm: f64) -> Step<()> {
        ensure(rnorm.is_finite(), BreakdownKind::NonFinite, || {
            "non-finite residual norm".to_string()
        })?;
        let best = self.best;
        let limit = self.policy.recovery.divergence_factor * best.max(self.policy.tol);
        if rnorm > limit {
            return Err(Stop::Anomaly(
                BreakdownKind::Diverged,
                format!("residual {rnorm:.3e} diverged from best {best:.3e}"),
            ));
        }
        self.best = best.min(rnorm);
        Ok(())
    }

    /// Resets the divergence guard's reference after a restart.
    pub fn reset_best(&mut self, rnorm: f64) {
        self.best = rnorm;
    }

    /// Rounding floor of the residual audits:
    /// `64·ε·(||b|| + ||A||∞·||x||)`.
    fn floor(&self, x: &[f64]) -> f64 {
        64.0 * f64::EPSILON * (self.bnorm + self.a_inf * dense::norm2(x))
    }

    /// The reason a failed residual audit hands to the rollback ladder.
    fn audit_reason(&self, what: &str, true_r: f64, r: f64) -> String {
        if self.estimate {
            format!("integrity: {what} true {true_r:.3e} vs estimate {r:.3e}")
        } else {
            format!("{what}: true {true_r:.3e} vs recursive {r:.3e}")
        }
    }

    fn residual_word(&self) -> &'static str {
        if self.estimate {
            "estimate"
        } else {
            "recursive"
        }
    }

    /// Whether the periodic drift audit is due at `iteration`.
    pub fn drift_due(&self, iteration: usize) -> bool {
        self.policy.integrity.drift_due(iteration)
    }

    /// The periodic drift audit at `iteration`: the residual the loop
    /// carries vs. a freshly recomputed `||b - A x||` for `probe` (the
    /// iterate when `None`). A fault below the divergence guard's radar
    /// shows up here as the two histories parting ways.
    pub fn drift_audit(&mut self, iteration: usize, r: f64, probe: Option<&[f64]>) -> Step<()> {
        if !self.drift_due(iteration) {
            return Ok(());
        }
        let x = probe.unwrap_or(&self.x);
        let true_r = true_residual(self.a, self.b, x);
        let drifted = true_r > self.policy.integrity.drift_factor * r + self.floor(x);
        self.audit.checks += 1;
        self.audit.drift.push(DriftSample {
            iteration,
            recursive: r,
            true_residual: true_r,
        });
        if !drifted {
            return Ok(());
        }
        self.audit.violations.push(IntegrityRecord {
            iteration,
            check: "residual_drift",
            detail: format!("true {true_r:.3e} vs {} {r:.3e}", self.residual_word()),
        });
        Err(Stop::Anomaly(
            BreakdownKind::IntegrityViolation,
            self.audit_reason("residual drift", true_r, r),
        ))
    }

    /// Whether residual `r` meeting the tolerance may end the solve
    /// (`iteration` labels the audit). With the final audit armed the
    /// true residual must meet it too: a gap outside the drift envelope
    /// is corruption and fails the step; inside it is an honest rounding
    /// gap, so the answer is `false` and the solve keeps iterating.
    pub fn accept(&mut self, iteration: usize, r: f64) -> Step<bool> {
        let (tol, integrity) = (self.policy.tol, self.policy.integrity);
        let tol_met = r <= tol;
        if !(tol_met && integrity.enabled && integrity.final_audit) {
            return Ok(tol_met);
        }
        self.audit.checks += 1;
        let true_r = true_residual(self.a, self.b, &self.x);
        // A NaN true residual cannot be shown to miss the tolerance.
        if true_r <= tol || true_r.is_nan() {
            return Ok(true);
        }
        if true_r > integrity.drift_factor * r + self.floor(&self.x) {
            self.audit.violations.push(IntegrityRecord {
                iteration,
                check: "final_audit",
                detail: format!("true {true_r:.3e} > tol, {} {r:.3e}", self.residual_word()),
            });
            return Err(Stop::Anomaly(
                BreakdownKind::IntegrityViolation,
                self.audit_reason("final audit", true_r, r),
            ));
        }
        Ok(false)
    }

    /// Closes the open iteration with residual `residual`: charges its
    /// cycles when timed and records its convergence sample (untimed
    /// samples are back-filled by [`Solve::finish`]).
    pub fn end(&mut self, residual: f64, converged: bool) {
        self.open = false;
        self.iterations += 1;
        self.converged = converged;
        let mut sample = IterationSample {
            iteration: self.iterations,
            residual,
            cycles: 0,
            flops: 0,
            messages: 0,
            link_activations: 0,
        };
        if self.timing {
            self.timed_done += 1;
            self.timed_cycles += self.this_iter;
            let (ops, msgs, links) = self.pre;
            sample.cycles = self.this_iter;
            sample.flops = flops_of_ops(std::array::from_fn(|k| self.stats.ops[k] - ops[k]));
            sample.messages = self.stats.messages - msgs;
            sample.link_activations = self.stats.link_activations - links;
            self.timed_sums.0 += sample.flops;
            self.timed_sums.1 += sample.messages;
            self.timed_sums.2 += sample.link_activations;
        } else {
            self.untimed.push(self.convergence.len());
        }
        self.convergence.push(sample);
    }

    /// Handles a failed step. A machine failure ends the solve with its
    /// error. An anomaly restores the checkpointed `x` while the recovery
    /// budget lasts and returns `true`: the frontend re-derives its
    /// recurrence from `x` and continues (no iteration is consumed; the
    /// recompute is not cycle-charged). Out of budget, or with recovery
    /// disabled, it records the breakdown and returns `false`.
    pub fn recover(&mut self, stop: Stop) -> Result<bool, SimError> {
        let (kind, reason) = match stop {
            Stop::Sim(e) => return Err(e),
            Stop::Anomaly(kind, reason) => (kind, reason),
        };
        let rec = self.policy.recovery;
        if !rec.enabled || self.recoveries.len() >= rec.max_rollbacks {
            self.breakdown = Some(kind);
            return Ok(false);
        }
        if self.open && self.timing {
            // Keep the cycle books balanced: the aborted attempt's
            // kernels were simulated and merged into the tallies.
            self.timed_done += 1;
            self.timed_cycles += self.this_iter;
        }
        self.open = false;
        self.x.copy_from_slice(&self.ck_x);
        self.recoveries.push(RecoveryRecord {
            iteration: self.iterations,
            restored_iteration: self.ck_iter,
            reason,
        });
        Ok(true)
    }

    /// The stagnation and cycle-budget checks after an unconverged
    /// iteration with residual `rnorm`: records the breakdown and returns
    /// `true` when either trips.
    pub fn exhausted(&mut self, rnorm: f64) -> bool {
        if self.converged {
            return false;
        }
        if let Some(stag) = self.policy.stagnation {
            self.rnorm_hist.push(rnorm);
            if stag.stagnated(&self.rnorm_hist) {
                self.breakdown = Some(BreakdownKind::Stagnated);
                return true;
            }
        }
        if self.policy.cycle_budget != u64::MAX && self.spent() >= self.policy.cycle_budget {
            self.breakdown = Some(BreakdownKind::BudgetExhausted);
            return true;
        }
        false
    }

    /// Setup cycles plus the steady-state extrapolation of the iterations
    /// so far: the cycle budget's and the report's accounting.
    fn spent(&self) -> u64 {
        self.setup_cycles
            + if self.timed_done > 0 {
                (self.timed_cycles as f64 / self.timed_done as f64 * self.iterations as f64) as u64
            } else {
                0
            }
    }

    /// Closes the solve: the true final residual, the escape backstop,
    /// the back-fill of untimed samples, the history bound, the sealed
    /// trace, the status, the fault journal, the span and the solve-level
    /// invariant check.
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] when the solve-level invariant audit fails.
    pub fn finish(mut self) -> Result<Finished, SimError> {
        let tol = self.policy.tol;
        let td = self.timed_done;
        let cycles_per_iteration = if td > 0 {
            self.timed_cycles as f64 / td as f64
        } else {
            0.0
        };
        let total_cycles = self.spent();
        let final_residual = true_residual(self.a, self.b, &self.x);
        // An estimate-based solve that stopped short of its own
        // convergence test may still hold a converged iterate.
        let converged = self.converged || (self.estimate && final_residual <= tol);

        // Escape backstop: a converged flag with a true residual above
        // tolerance is the silent wrong answer the integrity layer exists
        // to eliminate. Structurally impossible while the final audit is
        // armed; journaled (never masked) when it is not.
        if self.policy.integrity.enabled && converged && final_residual > tol {
            self.audit.escapes += 1;
            self.audit.violations.push(IntegrityRecord {
                iteration: self.iterations,
                check: "final_audit",
                detail: format!(
                    "escape: converged with true residual {final_residual:.3e} > tol {tol:.3e}"
                ),
            });
        }

        // Back-fill untimed iterations with the steady-state averages,
        // the same extrapolation `total_cycles` uses.
        if td > 0 {
            let avg = |sum: u64| (sum as f64 / td as f64).round() as u64;
            let (flops, msgs, links) = self.timed_sums;
            let (af, am, al) = (avg(flops), avg(msgs), avg(links));
            for &i in &self.untimed {
                let s = &mut self.convergence[i];
                s.cycles = cycles_per_iteration.round() as u64;
                s.flops = af;
                s.messages = am;
                s.link_activations = al;
            }
        }

        // Bound the exported history (after the back-fill, which indexes
        // raw positions) and close the solve-level event trace: kernel
        // merges concatenated per-kernel segments with cumulative cycle
        // offsets, so one final seal re-sorts and compacts the timeline.
        crate::telemetry::limit_history(&mut self.convergence, self.cfg.history_limit);
        if self.stats.trace_ev.mask() != 0 {
            self.stats.trace_ev.seal();
        }

        let status = match (converged, self.breakdown) {
            (true, _) => SolveStatus::Converged,
            (false, Some(kind)) => SolveStatus::Breakdown(kind),
            (false, None) => SolveStatus::MaxIters,
        };
        let fault_events = self
            .session
            .map(|s| s.records().to_vec())
            .unwrap_or_default();

        self.span.record_cycles(total_cycles);
        self.span.annotate("iterations", self.iterations);
        self.span.annotate("converged", converged);
        if !self.recoveries.is_empty() {
            self.span.annotate("rollbacks", self.recoveries.len());
        }

        if self.cfg.check_invariants {
            crate::invariants::check_solve_stats(&mut self.stats)?;
        }

        let per_iter = |c: u64| if td > 0 { c as f64 / td as f64 } else { 0.0 };
        Ok(Finished {
            x: self.x,
            converged,
            iterations: self.iterations,
            final_residual,
            timed_iterations: td,
            timed_cycles: self.timed_cycles,
            cycles_per_iteration,
            total_cycles,
            kernel_cycles: self.kernel_cycles.map(per_iter),
            stats: self.stats,
            status,
            fault_events,
            recoveries: self.recoveries,
            integrity: self.audit,
            convergence: self.convergence,
        })
    }
}
