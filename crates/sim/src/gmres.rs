//! Restarted GMRES on the simulated accelerator.
//!
//! Completes the Sec. II-B claim ("other iterative solvers like GMRES and
//! BiCGStab have the same kernels and challenges"): each Arnoldi step is
//! one preconditioner application (two SpTRSVs), one SpMV, and a stream
//! of dot products and axpys over the growing Krylov basis — all existing
//! Azul kernels. Unlike PCG, the vector-op share *grows* with the restart
//! length, which this simulation exposes in its kernel breakdown.

use crate::config::{SimConfig, StagnationPolicy};
use crate::faults::{FaultRecord, IntegrityAudit, IntegrityPolicy, RecoveryPolicy, RecoveryRecord};
use crate::machine::SimError;
use crate::program::Program;
use crate::solve::{ensure, Policy, Solve, Step, Stop};
use crate::stats::{KernelClass, KernelStats};
use crate::vecops::{VecOp, VecOpModel};
use azul_mapping::Placement;
use azul_solver::ic0::ic0;
use azul_solver::kernels::{sptrsv_lower_into, sptrsv_lower_transpose_into};
use azul_solver::{BreakdownKind, SolveStatus, SolverError};
use azul_sparse::{dense, Csr};
use azul_telemetry::report::IterationSample;

/// Run-time configuration for a GMRES simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresSimConfig {
    /// Convergence tolerance on `||r||_2`.
    pub tol: f64,
    /// Restart length.
    pub restart: usize,
    /// Cap on total inner iterations.
    pub max_iters: usize,
    /// Inner iterations to cycle-simulate.
    pub timed_iterations: usize,
    /// Fault detection + checkpoint/rollback policy. GMRES checkpoints x
    /// at each healthy restart boundary; a rollback discards the Krylov
    /// basis and restarts from the checkpointed x.
    pub recovery: RecoveryPolicy,
    /// Optional stagnation detector over the Givens residual estimates
    /// (see [`StagnationPolicy`]); `None` (the default) changes nothing.
    pub stagnation: Option<StagnationPolicy>,
    /// Per-attempt cycle budget on the extrapolated cycle count;
    /// `u64::MAX` (the default) disables the check.
    pub cycle_budget: u64,
    /// Silent-corruption detection (see [`IntegrityPolicy`]). With the
    /// final audit armed, an inner Givens-estimate convergence forces a
    /// restart unless the true residual confirms it.
    pub integrity: IntegrityPolicy,
}

impl Default for GmresSimConfig {
    fn default() -> Self {
        GmresSimConfig {
            tol: 1e-10,
            restart: 30,
            max_iters: 2000,
            timed_iterations: 2,
            recovery: RecoveryPolicy::default(),
            stagnation: None,
            cycle_budget: u64::MAX,
            integrity: IntegrityPolicy::default(),
        }
    }
}

/// A GMRES instance compiled for the accelerator.
#[derive(Debug, Clone)]
pub struct GmresSim {
    cfg: SimConfig,
    a: Csr,
    l: Csr,
    spmv: Program,
    lower: Program,
    upper: Program,
    vec_model: VecOpModel,
}

/// Results of a simulated GMRES solve.
#[derive(Debug, Clone)]
pub struct GmresSimReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Whether the solve converged.
    pub converged: bool,
    /// Inner iterations executed.
    pub iterations: usize,
    /// True final residual.
    pub final_residual: f64,
    /// Measured cycles per inner iteration (averaged over the timed ones;
    /// note GMRES iterations get costlier as the basis grows).
    pub cycles_per_iteration: f64,
    /// Cycles by kernel class over the timed portion.
    pub kernel_cycles: [f64; 3],
    /// Merged statistics over the timed portion.
    pub stats: KernelStats,
    /// Sustained throughput over the timed portion in GFLOP/s.
    pub gflops: f64,
    /// How the solve terminated.
    pub status: SolveStatus,
    /// Journal of fired fault events (empty without a fault plan).
    pub fault_events: Vec<FaultRecord>,
    /// Executed basis-discard recoveries (empty in a clean run).
    pub recoveries: Vec<RecoveryRecord>,
    /// Integrity journal (checks run, violations, drift samples, escape
    /// count). Empty unless [`GmresSimConfig::integrity`] is enabled.
    pub integrity: IntegrityAudit,
    /// Convergence telemetry: one sample per inner iteration (sample 0 is
    /// the initial state; residuals are the Givens recurrence estimates).
    /// Cycle-simulated iterations carry measured deltas; the rest reuse
    /// the steady-state averages.
    pub convergence: Vec<IterationSample>,
}

impl GmresSim {
    /// Builds the pipeline with an IC(0)-factored preconditioner.
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
        GmresSim {
            cfg: cfg.clone(),
            a: a.clone(),
            spmv: Program::compile_spmv(a, placement),
            lower,
            upper,
            vec_model: VecOpModel::new(placement),
            l: l.clone(),
        }
    }

    /// Runs right-preconditioned restarted GMRES with right-hand side `b`.
    ///
    /// # Panics
    ///
    /// Panics on any error [`GmresSim::try_run`] returns: a wrong
    /// right-hand-side length, `restart == 0`, or a simulated machine
    /// that deadlocks.
    pub fn run(&self, b: &[f64], run_cfg: &GmresSimConfig) -> GmresSimReport {
        match self.try_run(b, run_cfg) {
            Ok(report) => report,
            Err(e) => panic!("simulated GMRES failed: {e}"),
        }
    }

    /// Runs restarted GMRES, surfacing machine-level failures as errors.
    /// Numerical anomalies discard the Krylov basis and restart from the
    /// checkpointed x when recovery is enabled, else end the solve with
    /// [`SolveStatus::Breakdown`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Input`] when `b.len()` differs from the matrix
    /// dimension, an entry of `b` is not finite or `restart == 0`, and [`SimError::Deadlock`] when a
    /// simulated kernel stops making progress or exceeds the cycle cap.
    #[must_use = "a dropped result discards both the solve report and the structured failure"]
    pub fn try_run(&self, b: &[f64], run_cfg: &GmresSimConfig) -> Result<GmresSimReport, SimError> {
        if run_cfg.restart == 0 {
            return Err(SimError::Input {
                detail: "GMRES restart length must be positive".to_string(),
            });
        }
        let policy = Policy {
            span: "solve/gmres",
            estimate: true,
            tol: run_cfg.tol,
            timed_iterations: run_cfg.timed_iterations,
            recovery: run_cfg.recovery,
            stagnation: run_cfg.stagnation,
            cycle_budget: run_cfg.cycle_budget,
            integrity: run_cfg.integrity,
        };
        let mut d = Solve::new(
            &self.cfg,
            &self.a,
            Some(&self.l),
            &self.vec_model,
            b,
            policy,
        )?;
        d.start();

        // Analytic FLOPs of the timed iterations, behind `gflops`.
        let mut timed_flops = 0u64;
        let mut best_beta = f64::INFINITY;
        while d.iterations < run_cfg.max_iters {
            d.cancelled()?;
            match self.cycle(&mut d, run_cfg, &mut best_beta, &mut timed_flops) {
                Ok(true) => break,
                Ok(false) => {}
                Err(stop) => {
                    if !d.recover(stop)? {
                        break;
                    }
                }
            }
        }

        let f = d.finish()?;
        let gflops = if f.timed_cycles > 0 {
            timed_flops as f64 / f.timed_cycles as f64 * self.cfg.clock_ghz
        } else {
            0.0
        };
        Ok(GmresSimReport {
            x: f.x,
            converged: f.converged,
            iterations: f.iterations,
            final_residual: f.final_residual,
            cycles_per_iteration: f.cycles_per_iteration,
            kernel_cycles: f.kernel_cycles,
            stats: f.stats,
            gflops,
            status: f.status,
            fault_events: f.fault_events,
            recoveries: f.recoveries,
            integrity: f.integrity,
            convergence: f.convergence,
        })
    }

    /// One restart cycle from the current `x`; returns whether the solve
    /// is over. A rollback discards the (possibly corrupted) Krylov basis
    /// and the next cycle restarts from the checkpointed `x`, which is
    /// taken at each healthy restart boundary.
    fn cycle(
        &self,
        d: &mut Solve,
        run_cfg: &GmresSimConfig,
        best_beta: &mut f64,
        timed_flops: &mut u64,
    ) -> Step<bool> {
        let n = d.x.len();
        let r = dense::sub(d.b, &self.a.spmv(&d.x));
        let beta = dense::norm2(&r);
        let best = *best_beta;
        if !beta.is_finite() || beta > run_cfg.recovery.divergence_factor * best.max(run_cfg.tol) {
            let kind = if beta.is_finite() {
                BreakdownKind::Diverged
            } else {
                BreakdownKind::NonFinite
            };
            return Err(Stop::Anomaly(
                kind,
                format!("restart residual {beta:e} (best {best:e})"),
            ));
        }
        if beta <= run_cfg.tol {
            d.converged = true;
            return Ok(true);
        }
        *best_beta = best.min(beta);
        d.checkpoint(false);

        let k_max = run_cfg.restart.min(run_cfg.max_iters - d.iterations);
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(k_max + 1);
        let mut v0 = r;
        dense::scale(1.0 / beta, &mut v0);
        v.push(v0);
        let mut h = vec![vec![0.0f64; k_max]; k_max + 1];
        let (mut cs, mut sn) = (vec![0.0f64; k_max], vec![0.0f64; k_max]);
        let mut g = vec![0.0f64; k_max + 1];
        g[0] = beta;
        let mut k_done = 0usize;
        // `mz = M^-1 v_k` of the functional preconditioner and its scratch
        // `my`, reused by every Arnoldi step of the cycle.
        let (mut my, mut mz) = (vec![0.0f64; n], vec![0.0f64; n]);

        for k in 0..k_max {
            d.begin();
            // z = M^-1 v_k (two triangular solves), w = A z.
            let mut w = if d.timing {
                let y = d.timed(&self.lower, &v[k], KernelClass::Sptrsv)?;
                let z = d.timed(&self.upper, &y, KernelClass::Sptrsv)?;
                let w = d.timed(&self.spmv, &z, KernelClass::Spmv)?;
                *timed_flops += 2 * self.a.nnz() as u64 + 4 * self.l.nnz() as u64;
                // ABFT over both triangular solves and the SpMV of this
                // Arnoldi step, re-verified together.
                let checks = d
                    .factor_checksum()
                    .zip(d.spmv_checksum())
                    .map(|(csl, csa)| {
                        [
                            ("checksum_sptrsv", csl.verify_solve(&y, &v[k])),
                            ("checksum_sptrsv", csl.verify_solve_transpose(&z, &y)),
                            ("checksum_spmv", csa.verify_spmv(&z, &w)),
                        ]
                    });
                if let Some(checks) = checks {
                    d.abft(&checks, |bad| {
                        self.functional_precond(&v[k], &mut my, &mut mz);
                        let rw = self.a.spmv(&mz);
                        let dev = dense::norm2(&dense::sub(&z, &mz))
                            .max(dense::norm2(&dense::sub(&w, &rw)));
                        dev > bad.bound
                    })?;
                }
                w
            } else {
                self.functional_precond(&v[k], &mut my, &mut mz);
                self.a.spmv(&mz)
            };

            // Modified Gram-Schmidt: k+1 dots and k+1 axpys.
            for (j, vj) in v.iter().enumerate().take(k + 1) {
                let hjk = dense::dot(&w, vj);
                h[j][k] = hjk;
                dense::axpy(-hjk, vj, &mut w);
                d.vec_ops(VecOp::Dot, 1);
                d.vec_ops(VecOp::Axpy, 1);
                if d.timing {
                    *timed_flops += 4 * n as u64;
                }
            }
            let wnorm = dense::norm2(&w);
            h[k + 1][k] = wnorm;
            d.vec_ops(VecOp::Dot, 1);
            if d.timing {
                *timed_flops += 2 * n as u64;
            }

            // Givens rotations (scalar work, negligible time).
            for j in 0..k {
                let t = cs[j] * h[j][k] + sn[j] * h[j + 1][k];
                h[j + 1][k] = -sn[j] * h[j][k] + cs[j] * h[j + 1][k];
                h[j][k] = t;
            }
            let denom = (h[k][k] * h[k][k] + h[k + 1][k] * h[k + 1][k]).sqrt();
            if denom == 0.0 {
                d.abandon();
                k_done = k + 1;
                break;
            }
            cs[k] = h[k][k] / denom;
            sn[k] = h[k + 1][k] / denom;
            h[k][k] = denom;
            h[k + 1][k] = 0.0;
            g[k + 1] = -sn[k] * g[k];
            g[k] *= cs[k];

            // A non-finite residual estimate means the basis is poisoned
            // (e.g. an injected bit flip): discard it rather than spend
            // the rest of the restart cycle on junk.
            ensure(g[k + 1].is_finite(), BreakdownKind::NonFinite, || {
                "non-finite Arnoldi residual estimate; basis discarded".to_string()
            })?;
            k_done = k + 1;
            let res = g[k + 1].abs();
            d.end(res, false);

            // Drift audit on a probe copy of the basis solution so far, so
            // the Arnoldi state is untouched. Right preconditioning
            // preserves the true residual, so the two track each other in
            // a clean run.
            if d.drift_due(d.iterations) {
                let mut probe = d.x.clone();
                self.update_solution(&mut probe, &v, &h, &g, k_done);
                d.drift_audit(d.iterations, res, Some(&probe))?;
            }
            if res <= run_cfg.tol || wnorm == 0.0 {
                // Never converge on the Givens estimate alone: an honest
                // rounding gap forces a restart, whose boundary check on
                // the true residual decides.
                self.update_solution(&mut d.x, &v, &h, &g, k_done);
                d.converged = d.accept(d.iterations, res)?;
                return Ok(d.converged);
            }
            if d.exhausted(res) {
                self.update_solution(&mut d.x, &v, &h, &g, k_done);
                return Ok(true);
            }
            dense::scale(1.0 / wnorm, &mut w);
            v.push(w);
        }
        self.update_solution(&mut d.x, &v, &h, &g, k_done);
        Ok(false)
    }

    /// `z = M^-1 v = L^-T (L^-1 v)` with the reference kernels, through
    /// the scratch `y`.
    fn functional_precond(&self, v: &[f64], y: &mut [f64], z: &mut [f64]) {
        sptrsv_lower_into(&self.l, v, y);
        sptrsv_lower_transpose_into(&self.l, y, z);
    }

    /// Back-solves the small least-squares system and applies the
    /// (right-preconditioned) update `x += M^-1 V y`.
    fn update_solution(&self, x: &mut [f64], v: &[Vec<f64>], h: &[Vec<f64>], g: &[f64], k: usize) {
        if k == 0 {
            return;
        }
        let mut y = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut s = g[i];
            for (j, &yj) in y.iter().enumerate().skip(i + 1) {
                s -= h[i][j] * yj;
            }
            y[i] = s / h[i][i];
        }
        let n = x.len();
        let mut update = vec![0.0f64; n];
        for (j, &yj) in y.iter().enumerate() {
            dense::axpy(yj, &v[j], &mut update);
        }
        let (mut scratch, mut z) = (vec![0.0f64; n], vec![0.0f64; n]);
        self.functional_precond(&update, &mut scratch, &mut z);
        dense::axpy(1.0, &z, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_mapping::strategies::{Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + ((i * 7) % 5) as f64 / 5.0).collect()
    }

    #[test]
    fn gmres_sim_solves_spd_system() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &GmresSimConfig::default());
        assert!(report.converged, "residual {}", report.final_residual);
        assert!(report.final_residual < 1e-8);
        assert!(report.gflops > 0.0);
    }

    #[test]
    fn gmres_restart_still_converges() {
        let a = generate::fem_mesh_3d(100, 5, 3);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(
            &b,
            &GmresSimConfig {
                restart: 5,
                ..Default::default()
            },
        );
        assert!(report.converged);
        let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
        assert!(residual < 1e-7);
    }

    #[test]
    fn convergence_telemetry_tracks_inner_iterations() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &GmresSimConfig::default());
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
        assert!(report.convergence.last().unwrap().residual <= 1e-10);
    }

    #[test]
    fn convergence_deltas_tile_aggregate_stats() {
        // Restart-accounting cross-check: with every inner iteration timed
        // and no faults, the per-iteration convergence deltas must tile
        // the aggregate `KernelStats` exactly — work done around a restart
        // boundary (the setup solves of the next Arnoldi cycle) must be
        // attributed to exactly one iteration, never dropped or counted
        // twice.
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(
            &b,
            &GmresSimConfig {
                restart: 4,          // force several restart boundaries
                timed_iterations: 0, // cycle-simulate everything
                ..Default::default()
            },
        );
        assert!(report.converged);
        assert!(report.iterations > 8, "need multiple restart cycles");
        let sum = |f: fn(&IterationSample) -> u64| report.convergence.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.cycles), report.stats.cycles, "cycles leak");
        assert_eq!(sum(|s| s.messages), report.stats.messages, "messages leak");
        assert_eq!(
            sum(|s| s.link_activations),
            report.stats.link_activations,
            "link activations leak"
        );
        assert_eq!(
            sum(|s| s.flops),
            crate::solve::flops_of_ops(report.stats.ops),
            "FLOPs leak"
        );
    }

    #[test]
    fn bad_input_is_a_typed_error() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let err = sim
            .try_run(&rhs(a.rows() + 2), &GmresSimConfig::default())
            .unwrap_err();
        assert!(matches!(err, SimError::Input { .. }), "{err}");
        let zero_restart = GmresSimConfig {
            restart: 0,
            ..Default::default()
        };
        let err = sim.try_run(&rhs(a.rows()), &zero_restart).unwrap_err();
        assert!(matches!(err, SimError::Input { .. }), "{err}");
    }

    #[test]
    fn non_finite_rhs_is_a_typed_input_error() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let mut b = rhs(a.rows());
        b[a.rows() - 1] = f64::INFINITY;
        let err = sim.try_run(&b, &GmresSimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::Input { .. }), "{err}");
        assert!(err.to_string().contains("not finite"), "{err}");
    }

    #[test]
    fn gmres_kernel_mix_includes_all_three_classes() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &GmresSimConfig::default());
        assert!(report.kernel_cycles.iter().all(|&c| c > 0.0));
    }
}
