//! End-to-end PCG on the simulated accelerator (Listing 1, Sec. VI).
//!
//! [`PcgSim`] compiles the three heavy kernels (SpMV with `A`, the solves
//! with `L` and `L^T`) once per (matrix, placement) pair, then runs the
//! PCG loop. The first `timed_iterations` iterations are simulated
//! cycle-by-cycle (the per-iteration cost is steady-state: the same
//! kernels touch the same data every iteration); remaining iterations use
//! the reference kernels for functional progress and reuse the measured
//! per-iteration cycle cost. The reported GFLOP/s follow the paper's
//! accounting (an FMAC = 2 FLOPs).

use crate::config::{SimConfig, StagnationPolicy};
use crate::faults::{FaultRecord, IntegrityAudit, IntegrityPolicy, RecoveryPolicy, RecoveryRecord};
use crate::machine::SimError;
use crate::program::Program;
use crate::solve::{ensure, Policy, Solve, Step};
use crate::stats::{KernelClass, KernelStats};
use crate::vecops::{VecOp, VecOpModel};
use azul_mapping::Placement;
use azul_solver::flops::{self, FlopBreakdown};
use azul_solver::ic0::ic0;
use azul_solver::kernels::{sptrsv_lower, sptrsv_lower_transpose};
use azul_solver::{BreakdownKind, SolveStatus, SolverError};
use azul_sparse::{dense, Csr};
use azul_telemetry::report::IterationSample;

/// Run-time configuration of a PCG simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcgSimConfig {
    /// Convergence tolerance on `||r||_2`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Iterations to simulate cycle-by-cycle; later iterations reuse the
    /// measured steady-state cost. 0 means "time every iteration".
    pub timed_iterations: usize,
    /// Fault detection + checkpoint/rollback policy (see
    /// [`RecoveryPolicy`]). Guards always run; rollback requires
    /// `recovery.enabled`.
    pub recovery: RecoveryPolicy,
    /// Optional stagnation detector: ends the solve with
    /// `Breakdown(Stagnated)` when the residual stops improving (see
    /// [`StagnationPolicy`]). `None` (the default) changes nothing.
    pub stagnation: Option<StagnationPolicy>,
    /// Per-attempt cycle budget: the solve ends with
    /// `Breakdown(BudgetExhausted)` once the extrapolated cycle count
    /// (the same accounting as the report's `total_cycles`) reaches this
    /// many cycles. `u64::MAX` (the default) disables the check.
    pub cycle_budget: u64,
    /// Silent-corruption detection: ABFT kernel checksums, periodic
    /// recursive-vs-true residual drift audits and a mandatory final
    /// audit (see [`IntegrityPolicy`]). Disabled by default — the
    /// zero-check path is byte-identical to the pre-integrity solver.
    pub integrity: IntegrityPolicy,
}

impl Default for PcgSimConfig {
    fn default() -> Self {
        PcgSimConfig {
            tol: 1e-10,
            max_iters: 2000,
            timed_iterations: 2,
            recovery: RecoveryPolicy::default(),
            stagnation: None,
            cycle_budget: u64::MAX,
            integrity: IntegrityPolicy::default(),
        }
    }
}

/// A PCG instance compiled for the accelerator.
#[derive(Debug, Clone)]
pub struct PcgSim {
    cfg: SimConfig,
    a: Csr,
    l: Csr,
    spmv: Program,
    /// Triangular-solve programs; `None` runs plain (unpreconditioned) CG.
    lower: Option<Program>,
    upper: Option<Program>,
    vec_model: VecOpModel,
}

/// Results of a simulated PCG solve.
#[derive(Debug, Clone)]
pub struct PcgSimReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Whether the solve converged within the iteration cap.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// True final residual `||b - A x||`.
    pub final_residual: f64,
    /// Iterations that were cycle-simulated.
    pub timed_iterations: usize,
    /// Measured steady-state cycles per iteration.
    pub cycles_per_iteration: f64,
    /// Extrapolated total cycles (setup + iterations).
    pub total_cycles: u64,
    /// Per-iteration cycles by kernel class `[Spmv, Sptrsv, VectorOps]`
    /// (Fig. 22's breakdown).
    pub kernel_cycles: [f64; 3],
    /// Merged statistics over the timed portion.
    pub stats: KernelStats,
    /// FLOPs of one iteration, by kernel.
    pub flops_per_iteration: FlopBreakdown,
    /// Sustained double-precision throughput in GFLOP/s (steady state).
    pub gflops: f64,
    /// Extrapolated solve time in seconds at the configured clock.
    pub elapsed_seconds: f64,
    /// How the solve terminated (converged / iteration cap / breakdown —
    /// including fault-induced breakdowns recovery could not mask).
    pub status: SolveStatus,
    /// Journal of fired fault events, when a [`FaultPlan`](crate::FaultPlan)
    /// was configured.
    pub fault_events: Vec<FaultRecord>,
    /// Executed checkpoint rollbacks (empty in a clean run).
    pub recoveries: Vec<RecoveryRecord>,
    /// Integrity journal (checks run, violations, drift samples, escape
    /// count). Empty unless [`PcgSimConfig::integrity`] is enabled.
    pub integrity: IntegrityAudit,
    /// Convergence telemetry: one sample per iteration (sample 0 covers
    /// setup), with residual norms and per-iteration cycle/FLOP/traffic
    /// deltas. Cycle-simulated iterations carry measured deltas; later
    /// iterations reuse the steady-state averages, mirroring the
    /// extrapolation of `total_cycles`.
    pub convergence: Vec<IterationSample>,
}

impl PcgSimReport {
    /// Fraction of peak compute throughput achieved.
    pub fn fraction_of_peak(&self, cfg: &SimConfig) -> f64 {
        self.gflops / cfg.peak_gflops()
    }
}

impl PcgSim {
    /// Builds the PCG pipeline: factors `a` with IC(0) and compiles the
    /// three kernels under `placement`.
    ///
    /// # Errors
    ///
    /// Propagates IC(0) breakdowns.
    pub fn build(a: &Csr, placement: &Placement, cfg: &SimConfig) -> Result<Self, SolverError> {
        let l = ic0(a)?;
        Ok(Self::build_with_factor(a, &l, placement, cfg))
    }

    /// Builds with a caller-supplied lower-triangular factor sharing
    /// `tril(a)`'s pattern (e.g. a Gauss-Seidel preconditioner).
    ///
    /// # Panics
    ///
    /// Panics if the factor pattern does not match `tril(a)` or the
    /// placement does not match `a`.
    pub fn build_with_factor(a: &Csr, l: &Csr, placement: &Placement, cfg: &SimConfig) -> Self {
        let (lower, upper) = Program::compile_sptrsv_pair(l, a, placement);
        PcgSim {
            cfg: cfg.clone(),
            a: a.clone(),
            l: l.clone(),
            spmv: Program::compile_spmv(a, placement),
            lower: Some(lower),
            upper: Some(upper),
            vec_model: VecOpModel::new(placement),
        }
    }

    /// Builds an *unpreconditioned* CG pipeline (Table II's "Conjugate
    /// Gradients / None" row): only the SpMV kernel runs; the
    /// preconditioner step is the identity.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not match `a`.
    pub fn build_unpreconditioned(a: &Csr, placement: &Placement, cfg: &SimConfig) -> Self {
        PcgSim {
            cfg: cfg.clone(),
            a: a.clone(),
            l: Csr::identity(a.rows()),
            spmv: Program::compile_spmv(a, placement),
            lower: None,
            upper: None,
            vec_model: VecOpModel::new(placement),
        }
    }

    /// The simulator configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The matrix currently loaded.
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// Replaces the matrix *values* while keeping the sparsity pattern,
    /// placement and communication trees — the Sec. II-C time-stepping
    /// case where `A`'s stiffness values change but its structure (the
    /// mesh) does not. Re-factors IC(0) and recompiles the kernel
    /// programs; the expensive mapping is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Dimension`] if `a_new`'s sparsity pattern
    /// differs from the current matrix, or propagates IC(0) breakdowns.
    pub fn update_values(&mut self, a_new: &Csr, placement: &Placement) -> Result<(), SolverError> {
        if a_new.row_ptr() != self.a.row_ptr() || a_new.col_idx() != self.a.col_idx() {
            return Err(SolverError::Dimension(
                "update_values requires an identical sparsity pattern".into(),
            ));
        }
        let l = ic0(a_new)?;
        self.update_values_with_factor(a_new, &l, placement)
    }

    /// As [`PcgSim::update_values`], but with a caller-supplied factor
    /// (e.g. a refreshed Gauss-Seidel/SSOR factor).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Dimension`] on a pattern mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the factor's pattern differs from `tril(a_new)`.
    pub fn update_values_with_factor(
        &mut self,
        a_new: &Csr,
        l_new: &Csr,
        placement: &Placement,
    ) -> Result<(), SolverError> {
        if a_new.row_ptr() != self.a.row_ptr() || a_new.col_idx() != self.a.col_idx() {
            return Err(SolverError::Dimension(
                "update_values requires an identical sparsity pattern".into(),
            ));
        }
        let (lower, upper) = Program::compile_sptrsv_pair(l_new, a_new, placement);
        self.spmv = Program::compile_spmv(a_new, placement);
        self.lower = Some(lower);
        self.upper = Some(upper);
        self.a = a_new.clone();
        self.l = l_new.clone();
        Ok(())
    }

    /// Applies the preconditioner functionally (reference kernels) — used
    /// to re-derive the recurrence vectors after a rollback so corrupted
    /// state cannot leak through a recovery.
    fn functional_precond(&self, r: &[f64]) -> Vec<f64> {
        if self.lower.is_some() {
            sptrsv_lower_transpose(&self.l, &sptrsv_lower(&self.l, r))
        } else {
            r.to_vec()
        }
    }

    /// Runs PCG with right-hand side `b`.
    ///
    /// # Panics
    ///
    /// Panics on any error [`PcgSim::try_run`] returns: a wrong
    /// right-hand-side length, or a simulated machine that deadlocks.
    pub fn run(&self, b: &[f64], run_cfg: &PcgSimConfig) -> PcgSimReport {
        match self.try_run(b, run_cfg) {
            Ok(report) => report,
            Err(e) => panic!("simulated PCG failed: {e}"),
        }
    }

    /// Runs PCG with right-hand side `b`, surfacing machine-level failures
    /// (e.g. a fault-induced [`SimError::Deadlock`]) as errors instead of
    /// panicking. Numerical anomalies (NaN/Inf, stagnating `p·Ap`,
    /// residual divergence) never error: with recovery enabled they roll
    /// back to the last checkpoint, otherwise they terminate the solve
    /// with [`SolveStatus::Breakdown`] in the report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Input`] when `b.len()` differs from the matrix
    /// dimension or an entry of `b` is not finite, and [`SimError::Deadlock`] when a simulated kernel stops
    /// making progress (watchdog) or exceeds the cycle cap.
    #[must_use = "a dropped result discards both the solve report and the structured failure"]
    pub fn try_run(&self, b: &[f64], run_cfg: &PcgSimConfig) -> Result<PcgSimReport, SimError> {
        let policy = Policy {
            span: "solve/pcg",
            estimate: false,
            tol: run_cfg.tol,
            timed_iterations: run_cfg.timed_iterations,
            recovery: run_cfg.recovery,
            stagnation: run_cfg.stagnation,
            cycle_budget: run_cfg.cycle_budget,
            integrity: run_cfg.integrity,
        };
        let factor = self.lower.as_ref().map(|_| &self.l);
        let mut d = Solve::new(&self.cfg, &self.a, factor, &self.vec_model, b, policy)?;

        // Setup (timed): r = b; z = p = L^-T L^-1 r; rz = r.z
        let z = match (&self.lower, &self.upper) {
            (Some(lo), Some(up)) => {
                let y = d.timed(lo, b, KernelClass::Sptrsv)?;
                d.timed(up, &y, KernelClass::Sptrsv)?
            }
            _ => b.to_vec(),
        };
        d.vec_ops(VecOp::Dot, 1);
        let mut st = Recurrence {
            r: b.to_vec(),
            p: z.clone(),
            rz: dense::dot(b, &z),
            z,
        };
        d.start();

        while !d.converged && d.iterations < run_cfg.max_iters {
            d.next()?;
            match self.iterate(&mut d, &mut st) {
                Ok(rnorm) => {
                    if d.exhausted(rnorm) {
                        break;
                    }
                }
                Err(stop) => {
                    if !d.recover(stop)? {
                        break;
                    }
                    st = self.restart(&mut d);
                }
            }
        }

        let f = d.finish()?;
        let nnz_l = if self.lower.is_some() {
            self.l.nnz()
        } else {
            0
        };
        let flops_per_iteration = flops::pcg_iteration_breakdown(&self.a, nnz_l);
        let gflops = if f.cycles_per_iteration > 0.0 {
            flops_per_iteration.total() as f64 / f.cycles_per_iteration * self.cfg.clock_ghz
        } else {
            0.0
        };
        Ok(PcgSimReport {
            x: f.x,
            converged: f.converged,
            iterations: f.iterations,
            final_residual: f.final_residual,
            timed_iterations: f.timed_iterations,
            cycles_per_iteration: f.cycles_per_iteration,
            total_cycles: f.total_cycles,
            kernel_cycles: f.kernel_cycles,
            stats: f.stats,
            flops_per_iteration,
            gflops,
            elapsed_seconds: self.cfg.cycles_to_seconds(f.total_cycles),
            status: f.status,
            fault_events: f.fault_events,
            recoveries: f.recoveries,
            integrity: f.integrity,
            convergence: f.convergence,
        })
    }

    /// One PCG iteration (Listing 1's loop body); returns `||r||`.
    fn iterate(&self, d: &mut Solve, st: &mut Recurrence) -> Step<f64> {
        // Ap = A p, checksum-verified when timed.
        let ap = if d.timing {
            let ap = d.timed(&self.spmv, &st.p, KernelClass::Spmv)?;
            d.verify_spmv(&st.p, &ap)?;
            ap
        } else {
            self.a.spmv(&st.p)
        };
        // alpha = rz / (p . Ap)
        d.vec_ops(VecOp::Dot, 1);
        let p_ap = dense::dot(&st.p, &ap);
        ensure(p_ap.is_finite(), BreakdownKind::NonFinite, || {
            format!("non-finite p.Ap = {p_ap}")
        })?;
        ensure(p_ap != 0.0, BreakdownKind::PApZero, || {
            "p.Ap = 0 (stalled search direction)".to_string()
        })?;
        let alpha = st.rz / p_ap;
        // x += alpha p ; r -= alpha Ap ; convergence check (norm)
        dense::axpy(alpha, &st.p, &mut d.x);
        dense::axpy(-alpha, &ap, &mut st.r);
        d.vec_ops(VecOp::Axpy, 2);
        d.vec_ops(VecOp::Dot, 1);
        // z = L^-T L^-1 r (identity when unpreconditioned). Both solves
        // are checksum-verified when timed: the forward solve against the
        // column checksums of L, the transpose solve against its rows.
        st.z = match (&self.lower, &self.upper) {
            (Some(lo), Some(up)) if d.timing => {
                let y = d.timed(lo, &st.r, KernelClass::Sptrsv)?;
                let z = d.timed(up, &y, KernelClass::Sptrsv)?;
                let checks = d.factor_checksum().map(|cs| {
                    [
                        ("checksum_sptrsv", cs.verify_solve(&y, &st.r)),
                        ("checksum_sptrsv", cs.verify_solve_transpose(&z, &y)),
                    ]
                });
                if let Some(checks) = checks {
                    let bound = checks[0].1.bound.max(checks[1].1.bound);
                    d.abft(&checks, |_| {
                        let reference = self.functional_precond(&st.r);
                        dense::norm2(&dense::sub(&z, &reference)) > bound
                    })?;
                }
                z
            }
            (Some(_), Some(_)) => self.functional_precond(&st.r),
            _ => st.r.clone(),
        };
        // beta = rz_new / rz_old ; p = z + beta p
        d.vec_ops(VecOp::Dot, 1);
        let rz_new = dense::dot(&st.r, &st.z);
        ensure(rz_new.is_finite(), BreakdownKind::NonFinite, || {
            format!("non-finite r.z = {rz_new}")
        })?;
        let beta = rz_new / st.rz;
        dense::xpby(&st.z, beta, &mut st.p);
        d.vec_ops(VecOp::Xpby, 1);
        st.rz = rz_new;

        let rnorm = dense::norm2(&st.r);
        d.check_residual(rnorm)?;
        d.drift_audit(d.iterations + 1, rnorm, None)?;
        let tol_met = d.accept(d.iterations + 1, rnorm)?;
        d.end(rnorm, tol_met);
        Ok(rnorm)
    }

    /// Re-derives the recurrence from the rolled-back `x` with the
    /// reference kernels, so corrupted state cannot leak through a
    /// recovery.
    fn restart(&self, d: &mut Solve) -> Recurrence {
        let r = dense::sub(d.b, &self.a.spmv(&d.x));
        let z = self.functional_precond(&r);
        d.reset_best(dense::norm2(&r));
        Recurrence {
            p: z.clone(),
            rz: dense::dot(&r, &z),
            r,
            z,
        }
    }
}

/// PCG's recurrence state; `x` lives in the driver.
struct Recurrence {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    /// `r · z` of the previous iteration.
    rz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_mapping::strategies::{AzulMapper, Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 17 % 11) as f64) / 11.0 + 0.3)
            .collect()
    }

    #[test]
    fn pcg_sim_converges_and_matches_reference() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = PcgSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &PcgSimConfig::default());
        assert!(report.converged, "residual {}", report.final_residual);
        assert!(report.final_residual <= 1e-8);

        // The reference PCG with the same preconditioner agrees.
        let m = azul_solver::precond::IncompleteCholesky::new(&a).unwrap();
        let reference = azul_solver::pcg(&a, &b, &m, &azul_solver::PcgConfig::default());
        assert_eq!(report.iterations, reference.iterations);
        assert!(dense::rel_l2_diff(&report.x, &reference.x) < 1e-6);
    }

    #[test]
    fn convergence_telemetry_tracks_iterations() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = PcgSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &PcgSimConfig::default());
        // One sample per iteration plus the setup sample.
        assert_eq!(report.convergence.len(), report.iterations + 1);
        assert_eq!(report.convergence[0].iteration, 0);
        assert!((report.convergence[0].residual - dense::norm2(&b)).abs() < 1e-12);
        for (k, s) in report.convergence.iter().enumerate() {
            assert_eq!(s.iteration, k, "iteration numbering is dense");
            assert!(s.cycles > 0, "every sample carries a cycle cost");
            assert!(s.flops > 0);
        }
        // The final sample's residual meets the convergence tolerance.
        assert!(report.convergence.last().unwrap().residual <= 1e-10);
        // Per-iteration cycle deltas are consistent with the steady-state
        // extrapolation (timed iterations are exact; the back-filled rest
        // use the average, so totals agree within rounding).
        let iter_cycles: u64 = report.convergence[1..].iter().map(|s| s.cycles).sum();
        let expect = report.cycles_per_iteration * report.iterations as f64;
        assert!(
            (iter_cycles as f64 - expect).abs() <= report.iterations as f64,
            "iteration cycles {iter_cycles} vs extrapolated {expect}"
        );
    }

    #[test]
    fn timed_iterations_bound_simulation_work() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = PcgSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(
            &b,
            &PcgSimConfig {
                timed_iterations: 1,
                ..Default::default()
            },
        );
        assert_eq!(report.timed_iterations, 1);
        assert!(report.cycles_per_iteration > 0.0);
        assert!(report.total_cycles > report.cycles_per_iteration as u64);
    }

    #[test]
    fn gflops_below_peak_and_positive() {
        let a = generate::fem_mesh_3d(120, 5, 3);
        let grid = TileGrid::new(2, 2);
        let p = AzulMapper::default().map(&a, grid);
        let cfg = SimConfig::azul(grid);
        let sim = PcgSim::build(&a, &p, &cfg).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &PcgSimConfig::default());
        assert!(report.gflops > 0.0);
        assert!(report.fraction_of_peak(&cfg) < 1.0);
        assert!(report.fraction_of_peak(&cfg) > 0.001);
    }

    #[test]
    fn kernel_breakdown_covers_iteration() {
        let a = generate::grid_laplacian_2d(10, 10);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = PcgSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &PcgSimConfig::default());
        let total: f64 = report.kernel_cycles.iter().sum();
        assert!((total - report.cycles_per_iteration).abs() < 1e-6);
        // SpTRSV involves two solves and limited parallelism: it should be
        // a visible fraction.
        assert!(report.kernel_cycles[KernelClass::Sptrsv as usize] > 0.0);
        assert!(report.kernel_cycles[KernelClass::Spmv as usize] > 0.0);
        assert!(report.kernel_cycles[KernelClass::VectorOps as usize] > 0.0);
    }

    #[test]
    fn unpreconditioned_cg_matches_reference_cg() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = PcgSim::build_unpreconditioned(&a, &p, &SimConfig::azul(grid));
        let b = rhs(a.rows());
        let out = sim.run(&b, &PcgSimConfig::default());
        assert!(out.converged);
        let reference = azul_solver::cg(&a, &b, &azul_solver::PcgConfig::default());
        assert_eq!(out.iterations, reference.iterations);
        assert!(dense::rel_l2_diff(&out.x, &reference.x) < 1e-6);
        // No triangular-solve work at all.
        assert_eq!(out.kernel_cycles[KernelClass::Sptrsv as usize], 0.0);
        assert_eq!(out.flops_per_iteration.sptrsv, 0);
    }

    #[test]
    fn update_values_keeps_pattern_and_tracks_new_matrix() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let mut sim = PcgSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let before = sim.run(&b, &PcgSimConfig::default());
        assert!(before.converged);

        // Scale all values by 2: same pattern, solution halves.
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 2.0;
        }
        sim.update_values(&a2, &p).unwrap();
        let after = sim.run(&b, &PcgSimConfig::default());
        assert!(after.converged);
        for i in 0..a.rows() {
            assert!((after.x[i] * 2.0 - before.x[i]).abs() < 1e-7);
        }

        // A different pattern is rejected.
        let other = generate::grid_laplacian_2d(4, 9);
        assert!(sim.update_values(&other, &p).is_err());
    }

    #[test]
    fn wrong_rhs_length_is_a_typed_input_error() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = PcgSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let err = sim
            .try_run(&rhs(a.rows() + 1), &PcgSimConfig::default())
            .unwrap_err();
        assert!(matches!(err, SimError::Input { .. }), "{err}");
        assert!(err.to_string().contains("rhs length 37"), "{err}");
    }

    #[test]
    fn non_finite_rhs_is_a_typed_input_error() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = PcgSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = rhs(a.rows());
            b[7] = bad;
            let err = sim.try_run(&b, &PcgSimConfig::default()).unwrap_err();
            assert!(matches!(err, SimError::Input { .. }), "{err}");
            assert!(err.to_string().contains("rhs entry 7"), "{err}");
        }
    }

    #[test]
    fn stagnation_policy_ends_solve_with_structured_status() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = PcgSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        // Demand a 99.9% residual drop every iteration: even a healthy
        // solve "stagnates" by this bar, exercising the detector.
        let report = sim
            .try_run(
                &b,
                &PcgSimConfig {
                    stagnation: Some(StagnationPolicy::new(1, 0.999)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!report.converged);
        assert_eq!(
            report.status,
            SolveStatus::Breakdown(BreakdownKind::Stagnated)
        );
        // The loop stopped as soon as the window filled.
        assert!(
            report.iterations < 10,
            "ran {} iterations",
            report.iterations
        );
    }

    #[test]
    fn cycle_budget_bounds_the_attempt() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = PcgSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let full = sim.try_run(&b, &PcgSimConfig::default()).unwrap();
        assert!(full.converged);
        let budget = full.total_cycles / 2;
        let capped = sim
            .try_run(
                &b,
                &PcgSimConfig {
                    cycle_budget: budget,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!capped.converged);
        assert_eq!(
            capped.status,
            SolveStatus::Breakdown(BreakdownKind::BudgetExhausted)
        );
        assert!(capped.iterations < full.iterations);
    }

    #[test]
    fn azul_mapping_beats_round_robin_end_to_end() {
        let a = generate::fem_mesh_3d(200, 6, 41);
        let grid = TileGrid::new(4, 4);
        let cfg = SimConfig::azul(grid);
        let b = rhs(a.rows());
        let run_cfg = PcgSimConfig {
            timed_iterations: 1,
            ..Default::default()
        };
        let rr = PcgSim::build(&a, &RoundRobinMapper.map(&a, grid), &cfg)
            .unwrap()
            .run(&b, &run_cfg);
        let az = PcgSim::build(&a, &AzulMapper::default().map(&a, grid), &cfg)
            .unwrap()
            .run(&b, &run_cfg);
        assert!(
            az.cycles_per_iteration < rr.cycles_per_iteration,
            "azul {} vs rr {}",
            az.cycles_per_iteration,
            rr.cycles_per_iteration
        );
    }
}
