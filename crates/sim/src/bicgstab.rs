//! BiCGStab on the simulated accelerator.
//!
//! Sec. II-B: "other iterative solvers like GMRES and BiCGStab have the
//! same kernels and challenges" — every step of BiCGStab is an SpMV, a
//! preconditioner application (two SpTRSVs with a factored `M = F F^T`),
//! or a dense vector operation. This module runs right-preconditioned
//! BiCGStab through exactly the same compiled kernel programs and timing
//! machinery as [`crate::pcg::PcgSim`], demonstrating the generality the
//! paper claims for the hardware.

use crate::config::{SimConfig, StagnationPolicy};
use crate::faults::{FaultRecord, IntegrityAudit, IntegrityPolicy, RecoveryPolicy, RecoveryRecord};
use crate::machine::{run_kernel, SimError};
use crate::program::Program;
use crate::solve::{ensure, Policy, Solve, Step};
use crate::stats::{KernelClass, KernelStats};
use crate::vecops::{VecOp, VecOpModel};
use azul_mapping::Placement;
use azul_solver::flops::{self, FlopBreakdown};
use azul_solver::ic0::ic0;
use azul_solver::{BreakdownKind, SolveStatus, SolverError};
use azul_sparse::{dense, Csr};
use azul_telemetry::report::IterationSample;

/// Run-time configuration for a BiCGStab simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiCgStabSimConfig {
    /// Convergence tolerance on `||r||_2`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Iterations to cycle-simulate (later ones reuse the measured cost).
    pub timed_iterations: usize,
    /// Fault detection + checkpoint/rollback policy. BiCGStab recovers by
    /// restarting the recurrence from the checkpointed `x` (r̂, ρ, α, ω
    /// are reset, exactly like a fresh solve with a warm initial guess).
    pub recovery: RecoveryPolicy,
    /// Optional stagnation detector (see [`StagnationPolicy`]); `None`
    /// (the default) changes nothing.
    pub stagnation: Option<StagnationPolicy>,
    /// Per-attempt cycle budget on the extrapolated cycle count;
    /// `u64::MAX` (the default) disables the check.
    pub cycle_budget: u64,
    /// Silent-corruption detection (see [`IntegrityPolicy`]). BiCGStab
    /// stores no factor, so checksum verification covers the SpMV
    /// launches; the drift and final audits run exactly as in PCG.
    pub integrity: IntegrityPolicy,
}

impl Default for BiCgStabSimConfig {
    fn default() -> Self {
        BiCgStabSimConfig {
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

/// A BiCGStab instance compiled for the accelerator.
#[derive(Debug, Clone)]
pub struct BiCgStabSim {
    cfg: SimConfig,
    a: Csr,
    spmv: Program,
    lower: Program,
    upper: Program,
    vec_model: VecOpModel,
    nnz_l: usize,
}

/// Results of a simulated BiCGStab solve.
#[derive(Debug, Clone)]
pub struct BiCgStabSimReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Whether the solve converged.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// True final residual.
    pub final_residual: f64,
    /// Measured steady-state cycles per iteration.
    pub cycles_per_iteration: f64,
    /// Per-iteration cycles by kernel class `[Spmv, Sptrsv, VectorOps]`.
    pub kernel_cycles: [f64; 3],
    /// Merged statistics over the timed portion.
    pub stats: KernelStats,
    /// FLOPs of one iteration.
    pub flops_per_iteration: FlopBreakdown,
    /// Sustained throughput in GFLOP/s.
    pub gflops: f64,
    /// How the solve terminated.
    pub status: SolveStatus,
    /// Journal of fired fault events (empty without a fault plan).
    pub fault_events: Vec<FaultRecord>,
    /// Executed restart recoveries (empty in a clean run).
    pub recoveries: Vec<RecoveryRecord>,
    /// Integrity journal (checks run, violations, drift samples, escape
    /// count). Empty unless [`BiCgStabSimConfig::integrity`] is enabled.
    pub integrity: IntegrityAudit,
    /// Convergence telemetry: one sample per iteration (sample 0 is the
    /// initial state). Cycle-simulated iterations carry measured deltas;
    /// the rest reuse the steady-state averages.
    pub convergence: Vec<IterationSample>,
}

impl BiCgStabSim {
    /// Builds the pipeline with an IC(0) preconditioner (valid because
    /// this crate's workloads are SPD; BiCGStab itself also handles
    /// non-symmetric systems with other factors).
    ///
    /// # Errors
    ///
    /// Propagates IC(0) breakdowns.
    pub fn build(a: &Csr, placement: &Placement, cfg: &SimConfig) -> Result<Self, SolverError> {
        let l = ic0(a)?;
        Ok(Self::build_with_factor(a, &l, placement, cfg))
    }

    /// Builds with a caller-supplied lower-triangular factor sharing
    /// `tril(a)`'s pattern (any rung of the preconditioner ladder: SGS,
    /// SSOR, Jacobi or identity factors as well as IC(0)).
    ///
    /// # Panics
    ///
    /// Panics if the factor pattern does not match `tril(a)` or the
    /// placement does not match `a`.
    pub fn build_with_factor(a: &Csr, l: &Csr, placement: &Placement, cfg: &SimConfig) -> Self {
        let (lower, upper) = Program::compile_sptrsv_pair(l, a, placement);
        BiCgStabSim {
            cfg: cfg.clone(),
            a: a.clone(),
            spmv: Program::compile_spmv(a, placement),
            lower,
            upper,
            vec_model: VecOpModel::new(placement),
            nnz_l: l.nnz(),
        }
    }

    /// Runs BiCGStab with right-hand side `b`.
    ///
    /// # Panics
    ///
    /// Panics on any error [`BiCgStabSim::try_run`] returns: a wrong
    /// right-hand-side length, or a simulated machine that deadlocks.
    pub fn run(&self, b: &[f64], run_cfg: &BiCgStabSimConfig) -> BiCgStabSimReport {
        match self.try_run(b, run_cfg) {
            Ok(report) => report,
            Err(e) => panic!("simulated BiCGStab failed: {e}"),
        }
    }

    /// Runs BiCGStab, surfacing machine-level failures as errors.
    /// Numerical anomalies roll back (restart from the checkpointed `x`)
    /// when recovery is enabled, else end the solve with
    /// [`SolveStatus::Breakdown`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Input`] when `b.len()` differs from the matrix
    /// dimension, and [`SimError::Deadlock`] when a simulated kernel stops
    /// making progress or exceeds the cycle cap.
    #[must_use = "a dropped result discards both the solve report and the structured failure"]
    pub fn try_run(
        &self,
        b: &[f64],
        run_cfg: &BiCgStabSimConfig,
    ) -> Result<BiCgStabSimReport, SimError> {
        let policy = Policy {
            span: "solve/bicgstab",
            estimate: false,
            tol: run_cfg.tol,
            timed_iterations: run_cfg.timed_iterations,
            recovery: run_cfg.recovery,
            stagnation: run_cfg.stagnation,
            cycle_budget: run_cfg.cycle_budget,
            integrity: run_cfg.integrity,
        };
        // No factor checksum: the stored programs are the only copy of the
        // factor, so the triangular solves are guarded by the drift and
        // final audits alone.
        let mut d = Solve::new(&self.cfg, &self.a, None, &self.vec_model, b, policy)?;
        let mut st = Recurrence::new(b.to_vec());
        d.start();

        while !d.converged && d.iterations < run_cfg.max_iters {
            d.next()?;
            match self.iterate(&mut d, &mut st) {
                Ok(rnorm) => {
                    if st.omega == 0.0 && !d.converged {
                        d.breakdown = Some(BreakdownKind::OmegaZero);
                        break;
                    }
                    if d.exhausted(rnorm) {
                        break;
                    }
                }
                Err(stop) => {
                    if !d.recover(stop)? {
                        break;
                    }
                    st = Recurrence::new(dense::sub(b, &self.a.spmv(&d.x)));
                    d.reset_best(dense::norm2(&st.r));
                }
            }
        }

        let f = d.finish()?;
        // Per-iteration FLOPs: 2 SpMVs, 4 SpTRSVs, ~6 dots + ~6 axpys.
        let flops_per_iteration = FlopBreakdown {
            spmv: 2 * flops::spmv_flops(&self.a),
            sptrsv: 4 * flops::sptrsv_flops(self.nnz_l),
            vector: 12 * flops::dot_flops(self.a.rows()),
        };
        let gflops = if f.cycles_per_iteration > 0.0 {
            flops_per_iteration.total() as f64 / f.cycles_per_iteration * self.cfg.clock_ghz
        } else {
            0.0
        };
        Ok(BiCgStabSimReport {
            x: f.x,
            converged: f.converged,
            iterations: f.iterations,
            final_residual: f.final_residual,
            cycles_per_iteration: f.cycles_per_iteration,
            kernel_cycles: f.kernel_cycles,
            stats: f.stats,
            flops_per_iteration,
            gflops,
            status: f.status,
            fault_events: f.fault_events,
            recoveries: f.recoveries,
            integrity: f.integrity,
            convergence: f.convergence,
        })
    }

    /// One BiCGStab iteration; returns the residual norm it ended on
    /// (`||s||` on the half-step exit).
    fn iterate(&self, d: &mut Solve, st: &mut Recurrence) -> Step<f64> {
        let rho = dense::dot(&st.r_hat, &st.r);
        d.vec_ops(VecOp::Dot, 1);
        ensure(rho != 0.0, BreakdownKind::RhoZero, || {
            "rho = r_hat.r vanished".to_string()
        })?;
        ensure(rho.is_finite(), BreakdownKind::NonFinite, || {
            format!("non-finite rho = {rho}")
        })?;
        let beta = (rho / st.rho_old) * (st.alpha / st.omega);
        for ((p, r), v) in st.p.iter_mut().zip(&st.r).zip(&st.v) {
            *p = r + beta * (*p - st.omega * v);
        }
        d.vec_ops(VecOp::Xpby, 2);

        let y = self.precond(d, &st.p)?;
        st.v = self.matvec(d, &y)?;
        let rhat_v = dense::dot(&st.r_hat, &st.v);
        d.vec_ops(VecOp::Dot, 1);
        ensure(rhat_v != 0.0, BreakdownKind::RhatVZero, || {
            "r_hat.v vanished".to_string()
        })?;
        let alpha = rho / rhat_v;
        st.alpha = alpha;
        ensure(alpha.is_finite(), BreakdownKind::NonFinite, || {
            format!("non-finite alpha = {alpha}")
        })?;
        let mut s = st.r.clone();
        dense::axpy(-alpha, &st.v, &mut s);
        dense::axpy(alpha, &y, &mut d.x);
        d.vec_ops(VecOp::Axpy, 2);

        let snorm = dense::norm2(&s);
        d.vec_ops(VecOp::Dot, 1);
        // Half-step exit, audited like the full step's.
        if d.accept(d.iterations + 1, snorm)? {
            d.end(snorm, true);
            return Ok(snorm);
        }

        let z = self.precond(d, &s)?;
        let t = self.matvec(d, &z)?;
        let tt = dense::dot(&t, &t);
        d.vec_ops(VecOp::Dot, 2);
        ensure(tt != 0.0, BreakdownKind::TtZero, || {
            "t.t vanished".to_string()
        })?;
        let omega = dense::dot(&t, &s) / tt;
        st.omega = omega;
        ensure(omega.is_finite(), BreakdownKind::NonFinite, || {
            format!("non-finite omega = {omega}")
        })?;
        dense::axpy(omega, &z, &mut d.x);
        st.r = s;
        dense::axpy(-omega, &t, &mut st.r);
        d.vec_ops(VecOp::Axpy, 2);

        st.rho_old = rho;
        let rnorm = dense::norm2(&st.r);
        d.vec_ops(VecOp::Dot, 1);
        d.check_residual(rnorm)?;
        d.drift_audit(d.iterations + 1, rnorm, None)?;
        let tol_met = d.accept(d.iterations + 1, rnorm)?;
        d.end(rnorm, tol_met);
        Ok(rnorm)
    }

    /// `A v`: cycle-timed and checksum-verified, or the reference kernel.
    fn matvec(&self, d: &mut Solve, v: &[f64]) -> Step<Vec<f64>> {
        if !d.timing {
            return Ok(self.a.spmv(v));
        }
        let out = d.timed(&self.spmv, v, KernelClass::Spmv)?;
        d.verify_spmv(v, &out)?;
        Ok(out)
    }

    /// `M^-1 v = F^-T (F^-1 v)`: two triangular solves, cycle-timed or
    /// run functionally on the Ideal-PE machine. The untimed path runs
    /// the compiled programs rather than the reference
    /// `sptrsv_lower`/`sptrsv_lower_transpose` because the two sum in
    /// different orders: on 4×4 grids the simulated L/Lᵀ solve differs
    /// bit-for-bit in 183–869 of the 244–1,225 output entries across
    /// lap20, thermal2 Tiny and nd12k Tiny, so switching would change
    /// every untimed BiCGStab iterate.
    fn precond(&self, d: &mut Solve, v: &[f64]) -> Result<Vec<f64>, SimError> {
        if d.timing {
            let y = d.timed(&self.lower, v, KernelClass::Sptrsv)?;
            return d.timed(&self.upper, &y, KernelClass::Sptrsv);
        }
        let ideal = self.cfg_ideal();
        let (y, _) = run_kernel(&ideal, &self.lower, v);
        Ok(run_kernel(&ideal, &self.upper, &y).0)
    }

    /// An ideal-PE twin config used for fast functional-only kernel runs
    /// of untimed iterations. Faults are stripped: the plan's timeline is
    /// owned by the timed session and must not replay here. Tracing is
    /// stripped too — these runs are off the simulated timeline and their
    /// stats are discarded, so recording events would only cost time.
    fn cfg_ideal(&self) -> SimConfig {
        SimConfig {
            pe_model: crate::config::PeModel::Ideal,
            faults: None,
            trace: None,
            ..self.cfg.clone()
        }
    }
}

/// BiCGStab's recurrence state; `x` lives in the driver.
struct Recurrence {
    r: Vec<f64>,
    r_hat: Vec<f64>,
    rho_old: f64,
    alpha: f64,
    omega: f64,
    v: Vec<f64>,
    p: Vec<f64>,
}

impl Recurrence {
    /// A fresh recurrence from residual `r` (a restart from the
    /// checkpointed `x` resets r̂, ρ, α, ω exactly like a new solve with a
    /// warm initial guess).
    fn new(r: Vec<f64>) -> Self {
        let n = r.len();
        Recurrence {
            r_hat: r.clone(),
            r,
            rho_old: 1.0,
            alpha: 1.0,
            omega: 1.0,
            v: vec![0.0; n],
            p: vec![0.0; n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_mapping::strategies::{AzulMapper, Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 11 % 7) as f64) / 7.0 + 0.4).collect()
    }

    #[test]
    fn bicgstab_sim_solves_spd_system() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = BiCgStabSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &BiCgStabSimConfig::default());
        assert!(report.converged, "residual {}", report.final_residual);
        assert!(report.final_residual < 1e-8);
        assert!(report.gflops > 0.0);
        // Same kernel classes as PCG: SpMV + SpTRSV dominate.
        let total: f64 = report.kernel_cycles.iter().sum();
        assert!(report.kernel_cycles[0] + report.kernel_cycles[1] > 0.5 * total);
    }

    #[test]
    fn bicgstab_converges_in_fewer_or_similar_iterations_to_its_reference() {
        let a = generate::fem_mesh_3d(100, 5, 77);
        let grid = TileGrid::new(2, 2);
        let p = AzulMapper::fast_default().map(&a, grid);
        let sim = BiCgStabSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &BiCgStabSimConfig::default());
        assert!(report.converged);
        // The solution truly solves the system.
        let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
        assert!(residual < 1e-7);
    }

    #[test]
    fn convergence_telemetry_tracks_iterations() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = BiCgStabSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &BiCgStabSimConfig::default());
        assert!(report.converged);
        assert_eq!(report.convergence.len(), report.iterations + 1);
        assert_eq!(report.convergence[0].residual, dense::norm2(&b));
        for (i, s) in report.convergence.iter().enumerate() {
            assert_eq!(s.iteration, i, "samples densely numbered");
            if i > 0 {
                assert!(s.cycles > 0, "iteration {i} has a cycle cost");
                assert!(s.flops > 0, "iteration {i} has a FLOP cost");
            }
        }
        let last = report.convergence.last().unwrap();
        assert!(last.residual <= 1e-10, "history ends converged");
    }

    #[test]
    fn wrong_rhs_length_is_a_typed_input_error() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = BiCgStabSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let err = sim
            .try_run(&rhs(a.rows() - 1), &BiCgStabSimConfig::default())
            .unwrap_err();
        assert!(matches!(err, SimError::Input { .. }), "{err}");
    }

    #[test]
    fn timed_iterations_cap_respected() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = BiCgStabSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(
            &b,
            &BiCgStabSimConfig {
                timed_iterations: 1,
                ..Default::default()
            },
        );
        assert!(report.converged);
        assert!(report.cycles_per_iteration > 0.0);
    }
}
