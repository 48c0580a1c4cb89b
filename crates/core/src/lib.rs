//! Azul: the end-to-end accelerated sparse iterative solver.
//!
//! This crate is the public face of the reproduction — the API a
//! downstream user adopts. It wires the whole pipeline together
//! (Sec. II-C, Fig. 8's use case):
//!
//! 1. **preprocess** the matrix with graph coloring + symmetric
//!    permutation to expose SpTRSV parallelism (Sec. II-A);
//! 2. **factor** it with IC(0) for the preconditioner;
//! 3. **map** every nonzero and vector element onto the tile grid with
//!    the hypergraph mapper (or a baseline mapper, Sec. IV);
//! 4. **compile** the SpMV/SpTRSV dataflow programs (Sec. IV-A);
//! 5. **simulate** PCG cycle-by-cycle (Sec. V/VI), returning the solution
//!    together with performance, traffic and energy-activity reports.
//!
//! The expensive steps (1–4) are done once by [`Azul::prepare`] and
//! amortized across many solves with the same sparsity structure, exactly
//! the physical-simulation pattern the paper targets: "Azul's placement
//! algorithm spends a few minutes to map each problem, but this cost is
//! quickly recouped when the simulation takes hours."
//!
//! # Example
//!
//! ```
//! use azul_core::{Azul, AzulConfig};
//! use azul_sparse::generate;
//!
//! let a = generate::grid_laplacian_2d(12, 12);
//! let azul = Azul::new(AzulConfig::small_test());
//! let prepared = azul.prepare(&a)?;
//! let b = vec![1.0; a.rows()];
//! let report = prepared.solve(&b);
//! assert!(report.converged);
//! println!("{:.1} GFLOP/s over {} iterations", report.gflops, report.iterations);
//! # Ok::<(), azul_core::AzulError>(())
//! ```

#![forbid(unsafe_code)]

pub mod supervisor;

pub use supervisor::{
    EscalationPolicy, EscalationRecord, EscalationStage, EscalationTrigger, SolveSupervisor,
    SolverChoice, SupervisedSolveReport,
};

use azul_mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper, SparsePMapper};
use azul_mapping::{Placement, TileGrid};
use azul_sim::config::SimConfig;
use azul_sim::pcg::{PcgRecord, PcgSim, PcgSimConfig, PcgSimReport};
use azul_sim::SimError;
use azul_solver::{OperatorChecksum, SolverError};
use azul_sparse::coloring::{color_and_permute, ColoringStrategy};
use azul_sparse::{Csr, Permutation, SparseError};
use azul_telemetry::span;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Errors from the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum AzulError {
    /// The matrix does not fit the accelerator or is malformed.
    Input(String),
    /// The placement overflows a tile's SRAM: Azul is an all-SRAM design
    /// and operands must fit on-chip (Table III capacities).
    Capacity {
        /// The first tile that overflowed.
        tile: usize,
        /// Estimated data-SRAM bytes the placement needs on that tile
        /// (nonzeros + vectors + factor).
        data_bytes: usize,
        /// Estimated accumulator-SRAM bytes needed on that tile.
        accum_bytes: usize,
        /// Per-tile data-SRAM capacity in bytes.
        data_limit: usize,
        /// Per-tile accumulator-SRAM capacity in bytes.
        accum_limit: usize,
    },
    /// A numeric failure (e.g. IC(0) breakdown).
    Numeric(SolverError),
    /// The simulated machine failed (e.g. a fault-induced deadlock).
    Sim(SimError),
    /// A supervised solve ran out of ladder rungs, attempts or time
    /// before any configuration converged ([`supervisor::SolveSupervisor`]).
    /// Aggregates every attempt's failure in order.
    Exhausted {
        /// One entry per failed attempt, in attempt order.
        attempts: Vec<AttemptFailure>,
    },
    /// The pipeline was abandoned cooperatively: the
    /// [`CancelToken`](azul_sim::CancelToken) armed via
    /// `AzulConfig::sim.cancel` tripped. Not a solver or machine
    /// failure — the host (a service deadline monitor, a dropped
    /// client) asked the work to stop. The supervisor treats this as
    /// terminal: cancellation never escalates a ladder.
    Cancelled {
        /// Pipeline stage that observed the cancellation, e.g.
        /// `"preprocess/coloring"` or `"solve"`.
        stage: String,
    },
}

/// One failed attempt of a supervised solve: which configuration ran and
/// how it failed. Collected into [`AzulError::Exhausted`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptFailure {
    /// 1-based attempt number.
    pub attempt: usize,
    /// Human-readable attempt configuration, e.g. `"azul@2x2 ic0 pcg"`.
    pub config: String,
    /// The structured error that ended the attempt.
    pub error: AzulError,
}

impl std::fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "attempt {} ({}): {}",
            self.attempt, self.config, self.error
        )
    }
}

impl std::fmt::Display for AzulError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AzulError::Input(msg) => write!(f, "invalid input: {msg}"),
            AzulError::Capacity {
                tile,
                data_bytes,
                accum_bytes,
                data_limit,
                accum_limit,
            } => write!(
                f,
                "tile {tile} needs ~{data_bytes} B data / {accum_bytes} B accumulator, \
                 exceeding the {data_limit} B / {accum_limit} B tile SRAMs; use a larger \
                 grid (matrix must fit on-chip)"
            ),
            AzulError::Numeric(e) => write!(f, "numeric failure: {e}"),
            AzulError::Sim(e) => write!(f, "simulation failure: {e}"),
            AzulError::Exhausted { attempts } => {
                write!(
                    f,
                    "supervised solve exhausted after {} attempt{}",
                    attempts.len(),
                    if attempts.len() == 1 { "" } else { "s" }
                )?;
                if let Some(last) = attempts.last() {
                    write!(f, "; last {last}")?;
                }
                Ok(())
            }
            AzulError::Cancelled { stage } => {
                write!(f, "solve cancelled during {stage}")
            }
        }
    }
}

impl std::error::Error for AzulError {
    /// Chains to the wrapped cause: the [`SolverError`] behind
    /// [`AzulError::Numeric`], the [`SimError`] behind [`AzulError::Sim`],
    /// and the final attempt's error behind [`AzulError::Exhausted`].
    /// `Input` and `Capacity` are leaves.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AzulError::Numeric(e) => Some(e),
            AzulError::Sim(e) => Some(e),
            AzulError::Exhausted { attempts } => attempts
                .last()
                .map(|a| &a.error as &(dyn std::error::Error + 'static)),
            AzulError::Input(_) | AzulError::Capacity { .. } | AzulError::Cancelled { .. } => None,
        }
    }
}

impl From<SolverError> for AzulError {
    fn from(e: SolverError) -> Self {
        AzulError::Numeric(e)
    }
}

impl From<SparseError> for AzulError {
    fn from(e: SparseError) -> Self {
        AzulError::Input(e.to_string())
    }
}

impl From<SimError> for AzulError {
    /// Machine failures wrap as [`AzulError::Sim`]; a cooperative
    /// [`SimError::Cancelled`] is not a failure of the machine and
    /// surfaces as the typed [`AzulError::Cancelled`] so callers (the
    /// supervisor, `azul-serve`) can distinguish "the host asked us to
    /// stop" from "the simulated hardware broke" without matching
    /// through the wrapper. A [`SimError::Input`] is the caller's
    /// mistake and surfaces as [`AzulError::Input`], which no retry
    /// fixes.
    fn from(e: SimError) -> Self {
        match e {
            SimError::Cancelled { .. } => AzulError::Cancelled {
                stage: "solve".into(),
            },
            SimError::Input { detail } => AzulError::Input(detail),
            other => AzulError::Sim(other),
        }
    }
}

/// Which mapping strategy to use (Sec. VI-C's comparison set).
#[derive(Debug, Clone, PartialEq)]
pub enum MappingStrategy {
    /// Azul's hypergraph mapping (the default).
    Azul(AzulMapper),
    /// Dalorex's round-robin mapping.
    RoundRobin,
    /// Tascade's block mapping.
    Block,
    /// SparseP's coordinate-based 2-D chunking.
    SparseP,
}

impl MappingStrategy {
    fn mapper(&self) -> Box<dyn Mapper + '_> {
        match self {
            MappingStrategy::Azul(m) => Box::new(m.clone()),
            MappingStrategy::RoundRobin => Box::new(RoundRobinMapper),
            MappingStrategy::Block => Box::new(BlockMapper),
            MappingStrategy::SparseP => Box::new(SparsePMapper),
        }
    }

    /// The strategy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            MappingStrategy::Azul(_) => "azul",
            MappingStrategy::RoundRobin => "round-robin",
            MappingStrategy::Block => "block",
            MappingStrategy::SparseP => "sparsep",
        }
    }
}

/// Which preconditioner the accelerator applies (Table II's rows that
/// factor as `F F^T` and thus run on Azul's two-SpTRSV preconditioner
/// step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreconditionerChoice {
    /// Incomplete Cholesky IC(0) — the paper's evaluation default.
    IncompleteCholesky,
    /// Symmetric Gauss-Seidel (`M = (D+L) D^{-1} (D+U)`), the
    /// preconditioner Sec. II-C highlights as trivially updatable because
    /// it "simply takes A's lower triangle".
    SymmetricGaussSeidel,
    /// SSOR with the given relaxation factor in `(0, 2)`.
    Ssor(f64),
    /// Diagonal (Jacobi) scaling expressed as the factor `F = sqrt(D)`,
    /// so it runs on the same two-SpTRSV hardware path as the stronger
    /// rungs. A degradation rung of the supervisor's preconditioner
    /// ladder: weaker than IC(0)/SSOR but only needs a positive diagonal.
    Jacobi,
    /// No preconditioning (`F = I` in tril(A)'s pattern), the ladder's
    /// last rung: the triangular solves become copies and the iteration
    /// degenerates to the unpreconditioned method. Never breaks down.
    None,
}

impl PreconditionerChoice {
    /// The choice's display name.
    pub fn name(&self) -> &'static str {
        match self {
            PreconditionerChoice::IncompleteCholesky => "ic0",
            PreconditionerChoice::SymmetricGaussSeidel => "sgs",
            PreconditionerChoice::Ssor(_) => "ssor",
            PreconditionerChoice::Jacobi => "jacobi",
            PreconditionerChoice::None => "none",
        }
    }
}

/// Full configuration of an Azul accelerator instance.
#[derive(Debug, Clone)]
pub struct AzulConfig {
    /// Hardware configuration (grid, PE model, latencies — Table III).
    pub sim: SimConfig,
    /// Mapping strategy.
    pub mapping: MappingStrategy,
    /// Whether to color + permute the matrix first (the paper always
    /// does; disable for ablations).
    pub coloring: bool,
    /// Preconditioner applied on the accelerator.
    pub preconditioner: PreconditionerChoice,
    /// Reject matrices whose placement overflows any tile's SRAM
    /// (Table III: 72 KB data + 36 KB accumulator per tile). Azul is an
    /// all-SRAM design: operands must fit on-chip.
    pub enforce_capacity: bool,
    /// PCG run parameters (tolerance, iteration caps, timed iterations).
    pub pcg: PcgSimConfig,
}

impl AzulConfig {
    /// The default configuration on a given tile grid.
    pub fn new(grid: TileGrid) -> Self {
        AzulConfig {
            sim: SimConfig::azul(grid),
            mapping: MappingStrategy::Azul(AzulMapper::default()),
            coloring: true,
            preconditioner: PreconditionerChoice::IncompleteCholesky,
            enforce_capacity: true,
            pcg: PcgSimConfig::default(),
        }
    }

    /// A small configuration for tests and doc examples (2x2 tiles).
    pub fn small_test() -> Self {
        AzulConfig::new(TileGrid::new(2, 2))
    }
}

/// The Azul accelerator front-end.
#[derive(Debug, Clone)]
pub struct Azul {
    config: AzulConfig,
}

/// Preprocessing metadata produced by [`Azul::prepare`].
#[derive(Debug, Clone, Copy)]
pub struct PrepareReport {
    /// Colors used by the parallelism-improving permutation (0 when
    /// coloring is disabled).
    pub num_colors: usize,
    /// Wall-clock seconds spent coloring + permuting.
    pub coloring_seconds: f64,
    /// Wall-clock seconds spent in the mapping algorithm (Sec. VI-D's
    /// cost).
    pub mapping_seconds: f64,
    /// Wall-clock seconds spent factoring (IC(0)) and compiling kernels.
    pub compile_seconds: f64,
    /// Nonzero load imbalance of the placement (max/mean).
    pub nnz_imbalance: f64,
}

/// The structure layer of a [`PreparedSolver`]. Coloring and every
/// mapper read only the pattern, so it is what a fresh prepare of new
/// values on the pattern would compute.
#[derive(Debug)]
pub(crate) struct Structure {
    perm: Option<Permutation>,
    placement: Arc<Placement>,
    /// The stamp: what it was prepared under.
    grid: TileGrid,
    mapping: &'static str,
    preconditioner: PreconditionerChoice,
    /// The rung-0 PCG record once a fault-free solve has made it. It
    /// names entries by position, so it fits every values layer here.
    record: OnceLock<PcgRecord>,
}

impl Structure {
    /// Keeps `sim`'s record if this structure has none yet.
    fn keep_record(&self, sim: &PcgSim) {
        if self.record.get().is_none() {
            let _ = sim.record().map(|made| self.record.set(made));
        }
    }
}

/// The permuted matrix, structure layer and report of the prepare
/// pipeline's matrix-shaping stages. The [`supervisor::SolveSupervisor`]
/// caches one per (mapping, grid) rung so preconditioner/solver
/// escalations reuse the expensive placement.
#[derive(Debug, Clone)]
pub(crate) struct Preprocessed {
    pub(crate) pa: Arc<Csr>,
    pub(crate) structure: Arc<Structure>,
    report: PrepareReport,
}

/// Rejects, as [`AzulError::Input`], an operator that is non-square,
/// holds a NaN or infinity, or is non-symmetric.
fn check_operator(a: &Csr) -> Result<(), AzulError> {
    if a.rows() != a.cols() {
        return Err(AzulError::Input(format!(
            "matrix must be square, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    if let Some((r, c, v)) = a.iter().find(|&(_, _, v)| !v.is_finite()) {
        return Err(AzulError::Input(format!(
            "matrix entry ({r}, {c}) is not finite: {v}"
        )));
    }
    if !a.is_symmetric(1e-9 * a.inf_norm().max(1.0)) {
        return Err(AzulError::Input("PCG requires a symmetric matrix".into()));
    }
    Ok(())
}

/// Rejects a right-hand side holding a NaN or infinity: no solver,
/// preconditioner or retry can make it converge.
///
/// # Errors
///
/// Returns [`AzulError::Input`] naming the first non-finite entry.
pub(crate) fn check_finite_rhs(b: &[f64]) -> Result<(), AzulError> {
    match b.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(AzulError::Input(format!(
            "rhs entry {i} is not finite: {}",
            b[i]
        ))),
        None => Ok(()),
    }
}

/// Builds the lower-triangular preconditioner factor `F` (with `M = F
/// F^T` sharing `tril(A)`'s pattern) for the chosen rung, as a value.
///
/// # Errors
///
/// Returns [`AzulError::Input`] for an out-of-range SSOR omega and
/// [`AzulError::Numeric`] for factorization breakdowns (IC(0) pivot
/// loss, non-positive diagonals).
pub(crate) fn factor_for(pa: &Csr, choice: PreconditionerChoice) -> Result<Csr, AzulError> {
    match choice {
        PreconditionerChoice::IncompleteCholesky => {
            azul_solver::ic0::ic0(pa).map_err(AzulError::Numeric)
        }
        PreconditionerChoice::SymmetricGaussSeidel => {
            azul_solver::precond::try_sgs_factor(pa).map_err(AzulError::Numeric)
        }
        PreconditionerChoice::Ssor(omega) => {
            if !(0.0..2.0).contains(&omega) || omega == 0.0 {
                return Err(AzulError::Input(format!(
                    "SSOR omega must be in (0, 2), got {omega}"
                )));
            }
            azul_solver::precond::try_ssor_factor(pa, omega).map_err(AzulError::Numeric)
        }
        PreconditionerChoice::Jacobi => {
            azul_solver::precond::try_jacobi_factor(pa).map_err(AzulError::Numeric)
        }
        PreconditionerChoice::None => {
            azul_solver::precond::identity_factor(pa).map_err(AzulError::Numeric)
        }
    }
}

/// A matrix prepared for repeated solves (Fig. 8's time-stepping loop),
/// in two layers split by what invalidates them (Sec. II-C):
///
/// - the **structure layer**, shared behind an `Arc` by every values
///   layer on one pattern: the permutation, the placement, the stamp it
///   was prepared under (grid, mapping, preconditioner) and the
///   value-free rung-0 PCG record once a solve has made it;
/// - the **values layer**: the permuted matrix, the preconditioner
///   factor and their ABFT checksums, which
///   [`PreparedSolver::verify_integrity`] checks. A replay reads no
///   other value; the record has no checksum.
///
/// [`PreparedSolver::with_values`] builds a values layer on the same
/// structure, whose solves bind the record and replay: new values on a
/// known pattern color, map and compile nothing.
#[derive(Debug, Clone)]
pub struct PreparedSolver {
    structure: Arc<Structure>,
    a: Arc<Csr>,
    factor: Arc<Csr>,
    matrix_checksum: OperatorChecksum,
    factor_checksum: OperatorChecksum,
    prepare: PrepareReport,
    sim_cfg: SimConfig,
    pcg_cfg: PcgSimConfig,
    /// Built once, by [`Azul::prepare`] or else by the first solve.
    sim: OnceLock<PcgSim>,
}

/// The result of one accelerated solve.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The solution `x` (in the caller's original row order).
    pub x: Vec<f64>,
    /// Whether PCG converged.
    pub converged: bool,
    /// PCG iterations executed.
    pub iterations: usize,
    /// True residual `||b - A x||` in permuted space.
    pub final_residual: f64,
    /// Sustained throughput in GFLOP/s.
    pub gflops: f64,
    /// Extrapolated solve latency in seconds of accelerator time.
    pub accelerator_seconds: f64,
    /// The full simulator report (cycles, breakdowns, traffic, activity).
    pub sim: PcgSimReport,
}

impl Azul {
    /// Creates an accelerator front-end with the given configuration.
    pub fn new(config: AzulConfig) -> Self {
        Azul { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AzulConfig {
        &self.config
    }

    /// Prepares a matrix: color/permute, map, factor, compile.
    ///
    /// # Errors
    ///
    /// Returns [`AzulError::Input`] for non-square, non-finite or
    /// non-symmetric matrices, [`AzulError::Capacity`] when the
    /// placement overflows a tile's SRAM, and [`AzulError::Numeric`] for
    /// factorization breakdowns.
    pub fn prepare(&self, a: &Csr) -> Result<PreparedSolver, AzulError> {
        self.prepare_compiling(a, true)
    }

    /// [`Azul::prepare`], compiling the kernels now when `compile` and
    /// at the first solve that needs them otherwise.
    pub(crate) fn prepare_compiling(
        &self,
        a: &Csr,
        compile: bool,
    ) -> Result<PreparedSolver, AzulError> {
        let _prepare_span = span::span("prepare");
        let pre = self.preprocess(a)?;

        // 3+4. Factor + compile.
        let t = Instant::now();
        let _compile_span = span::span("prepare/factor_compile");
        let mut prepared = PreparedSolver::new(pre, self.config.sim.clone(), self.config.pcg)?;
        if compile {
            prepared.sim();
        }
        prepared.prepare.compile_seconds = t.elapsed().as_secs_f64();
        Ok(prepared)
    }

    /// The matrix-shaping front half of [`Azul::prepare`]: input checks,
    /// coloring/permutation, mapping onto the grid and the all-SRAM
    /// capacity check. Factor/compile are left to the caller so the
    /// supervisor can reuse one placement across ladder rungs.
    pub(crate) fn preprocess(&self, a: &Csr) -> Result<Preprocessed, AzulError> {
        // Cooperative cancellation between the expensive host-side
        // stages: coloring and mapping can dominate wall time on large
        // operators, and a service must be able to abandon them too.
        let check_cancel = |stage: &str| -> Result<(), AzulError> {
            match &self.config.sim.cancel {
                Some(tok) if tok.is_cancelled() => Err(AzulError::Cancelled {
                    stage: format!("preprocess/{stage}"),
                }),
                _ => Ok(()),
            }
        };
        check_cancel("input-checks")?;
        check_operator(a)?;

        // 1. Parallelism-improving preprocessing.
        let t0 = Instant::now();
        let (pa, perm, num_colors) = {
            let mut s = span::span("prepare/coloring");
            let out = if self.config.coloring {
                let (pa, perm, coloring) =
                    color_and_permute(a, ColoringStrategy::LargestDegreeFirst);
                (pa, Some(perm), coloring.num_colors())
            } else {
                (a.clone(), None, 0)
            };
            s.annotate("num_colors", out.2);
            out
        };
        let coloring_seconds = t0.elapsed().as_secs_f64();
        check_cancel("coloring")?;

        // 2. Mapping.
        let t1 = Instant::now();
        let placement = {
            let mut s = span::span("prepare/mapping");
            s.annotate("strategy", self.config.mapping.name());
            self.config.mapping.mapper().map(&pa, self.config.sim.grid)
        };
        let mapping_seconds = t1.elapsed().as_secs_f64();
        check_cancel("mapping")?;

        // All-SRAM capacity check: every operand must fit on-chip. PCG
        // keeps ~8 dense vectors per element (x, r, p, z, b, Ap and
        // scratch) plus the L factor, which shares tril(A)'s pattern and
        // roughly doubles the lower-triangle storage; the nonzero bytes
        // below already count A in full, so L adds ~50%.
        if self.config.enforce_capacity {
            let _s = span::span("prepare/capacity_check");
            let usage = placement.sram_usage(&pa, 8);
            for (tile, &(data, accum)) in usage.iter().enumerate() {
                let data_with_factor = data + data / 2;
                if data_with_factor > self.config.sim.data_sram_bytes
                    || accum > self.config.sim.accum_sram_bytes
                {
                    return Err(AzulError::Capacity {
                        tile,
                        data_bytes: data_with_factor,
                        accum_bytes: accum,
                        data_limit: self.config.sim.data_sram_bytes,
                        accum_limit: self.config.sim.accum_sram_bytes,
                    });
                }
            }
        }

        Ok(Preprocessed {
            pa: Arc::new(pa),
            report: PrepareReport {
                num_colors,
                coloring_seconds,
                mapping_seconds,
                compile_seconds: 0.0,
                nnz_imbalance: placement.nnz_imbalance(),
            },
            structure: Arc::new(Structure {
                perm,
                placement: Arc::new(placement),
                grid: self.config.sim.grid,
                mapping: self.config.mapping.name(),
                preconditioner: self.config.preconditioner,
                record: OnceLock::new(),
            }),
        })
    }

    /// Convenience: prepare and solve in one call.
    ///
    /// # Errors
    ///
    /// See [`Azul::prepare`].
    pub fn solve(&self, a: &Csr, b: &[f64]) -> Result<SolveReport, AzulError> {
        Ok(self.prepare(a)?.solve(b))
    }
}

impl PreparedSolver {
    /// The values layer on `pre`: factors the permuted matrix with the
    /// structure's preconditioner and checksums both. Builds no sim.
    fn new(pre: Preprocessed, sim_cfg: SimConfig, pcg: PcgSimConfig) -> Result<Self, AzulError> {
        let factor = factor_for(&pre.pa, pre.structure.preconditioner)?;
        Ok(PreparedSolver {
            matrix_checksum: OperatorChecksum::new(&pre.pa),
            factor_checksum: OperatorChecksum::new(&factor),
            structure: pre.structure,
            a: pre.pa,
            factor: Arc::new(factor),
            prepare: pre.report,
            sim_cfg,
            pcg_cfg: pcg,
            sim: OnceLock::new(),
        })
    }

    /// Preprocessing metadata (mapping cost, coloring stats).
    pub fn prepare_report(&self) -> &PrepareReport {
        &self.prepare
    }

    /// New values on this structure layer, which it shares: `a` is in
    /// the caller's original row order with exactly the prepared
    /// sparsity pattern. Runs [`Azul::prepare`]'s input checks, then
    /// permutes, factors and checksums; it colors, maps and compiles
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`AzulError::Input`] for a matrix [`Azul::prepare`] rejects or
    /// another pattern, [`AzulError::Numeric`] on factor breakdowns.
    pub fn with_values(&self, a: &Csr) -> Result<PreparedSolver, AzulError> {
        check_operator(a)?;
        let pa = match &self.structure.perm {
            Some(p) if a.rows() == self.a.rows() => a.permute_symmetric(p),
            _ => a.clone(),
        };
        if pa.row_ptr() != self.a.row_ptr() || pa.col_idx() != self.a.col_idx() {
            return Err(AzulError::Input(
                "new values require an identical sparsity pattern".into(),
            ));
        }
        let pre = Preprocessed {
            pa: Arc::new(pa),
            structure: Arc::clone(&self.structure),
            report: self.prepare,
        };
        PreparedSolver::new(pre, self.sim_cfg.clone(), self.pcg_cfg)
    }

    /// Replaces the matrix values while keeping the sparsity pattern and
    /// the (expensive) mapping — the paper's Sec. II-C pattern for
    /// simulations whose stiffness values evolve with the state (e.g.
    /// elastic bodies). After a solve has recorded, the next fault-free
    /// solve binds the record to the new values and replays, with no
    /// kernel compiled and none ticked.
    ///
    /// # Errors
    ///
    /// As [`PreparedSolver::with_values`], leaving `self` unchanged.
    pub fn update_values(&mut self, a_new: &Csr) -> Result<(), AzulError> {
        *self = self.with_values(a_new)?;
        Ok(())
    }

    /// The operand placement in use.
    pub fn placement(&self) -> &Placement {
        &self.structure.placement
    }

    /// The coloring permutation in use (`None` with coloring disabled).
    pub fn permutation(&self) -> Option<&Permutation> {
        self.structure.perm.as_ref()
    }

    /// Re-verifies the values layer's ABFT checksums against the
    /// permuted matrix and factor as they sit in memory *now*. Bit-exact:
    /// any silent mutation of a cached artifact (a flip in a long-lived
    /// cache entry, a buggy in-place pass) fails it. The serve layer's
    /// cache scrubber calls this on every hit before trusting the entry.
    pub fn verify_integrity(&self) -> bool {
        self.matrix_checksum.matches(&self.a) && self.factor_checksum.matches(&self.factor)
    }

    /// Corruption hook for scrub testing: flips one bit of the stored
    /// matrix checksum so the artifact and its checksum disagree and
    /// the next [`PreparedSolver::verify_integrity`] fails. This poisons
    /// only the copy it is called on — exactly what a cached-entry
    /// corruption looks like from the scrubber's seat.
    pub fn flip_checksum_bit(&mut self, index: usize, bit: u32) {
        self.matrix_checksum.flip_bit(index, bit);
    }

    /// The persistent sim, built on first use: bound to the structure's
    /// record when it holds one, else compiled.
    fn sim(&self) -> &PcgSim {
        self.sim.get_or_init(|| {
            PcgSim::build_shared(
                Arc::clone(&self.a),
                Arc::clone(&self.factor),
                Arc::clone(&self.structure.placement),
                &self.sim_cfg,
                self.structure.record.get(),
            )
        })
    }

    /// Solves `A x = b` on the accelerator.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the prepared matrix dimension, or
    /// if the simulated machine deadlocks (use
    /// [`PreparedSolver::try_solve`] to handle both as values).
    pub fn solve(&self, b: &[f64]) -> SolveReport {
        match self.try_solve(b) {
            Ok(report) => report,
            Err(e) => panic!("accelerated solve failed: {e}"),
        }
    }

    /// Solves `A x = b`, surfacing a wrong right-hand side and
    /// machine-level failures (e.g. a fault-induced
    /// [`SimError::Deadlock`]) as typed errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`AzulError::Input`] when `b.len()` differs from the
    /// prepared matrix dimension or `b` holds a NaN or infinity, and
    /// [`AzulError::Sim`] when the simulated machine fails.
    #[must_use = "a dropped result discards both the solve report and the structured failure"]
    pub fn try_solve(&self, b: &[f64]) -> Result<SolveReport, AzulError> {
        if b.len() != self.a.rows() {
            return Err(AzulError::Input(format!(
                "rhs length {} does not match the prepared dimension {}",
                b.len(),
                self.a.rows()
            )));
        }
        check_finite_rhs(b)?;
        let perm = &self.structure.perm;
        let pb = match perm {
            Some(p) => p.apply(b),
            None => b.to_vec(),
        };
        let sim = self.sim();
        let report = sim.try_run(&pb, &self.pcg_cfg)?;
        self.structure.keep_record(sim);
        let x = match perm {
            Some(p) => p.apply_inverse(&report.x),
            None => report.x.clone(),
        };
        Ok(SolveReport {
            x,
            converged: report.converged,
            iterations: report.iterations,
            final_residual: report.final_residual,
            gflops: report.gflops,
            accelerator_seconds: report.elapsed_seconds,
            sim: report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_sparse::{dense, generate};

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 23 % 7) as f64) - 2.5).collect()
    }

    #[test]
    fn end_to_end_solve_is_correct() {
        let a = generate::grid_laplacian_2d(10, 10);
        let b = rhs(a.rows());
        let azul = Azul::new(AzulConfig::small_test());
        let report = azul.solve(&a, &b).unwrap();
        assert!(report.converged);
        // Check the *unpermuted* solution against the original system.
        let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
        assert!(residual < 1e-7, "residual {residual}");
        assert!(report.gflops > 0.0);
    }

    #[test]
    fn try_solve_rejects_wrong_rhs_length_with_typed_error() {
        let a = generate::grid_laplacian_2d(6, 6);
        let prepared = Azul::new(AzulConfig::small_test()).prepare(&a).unwrap();
        for len in [0, a.rows() - 1, a.rows() + 1] {
            match prepared.try_solve(&vec![1.0; len]) {
                Err(AzulError::Input(msg)) => assert!(msg.contains("rhs length"), "{msg}"),
                other => panic!("rhs of length {len}: expected AzulError::Input, got {other:?}"),
            }
        }
        assert!(prepared.try_solve(&rhs(a.rows())).unwrap().converged);
    }

    #[test]
    fn try_solve_rejects_non_finite_rhs_with_typed_error() {
        let a = generate::grid_laplacian_2d(4, 4);
        let prepared = Azul::new(AzulConfig::small_test()).prepare(&a).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = rhs(a.rows());
            b[5] = bad;
            match prepared.try_solve(&b) {
                Err(AzulError::Input(msg)) => assert!(msg.contains("rhs entry 5"), "{msg}"),
                other => panic!("rhs with {bad}: expected AzulError::Input, got {other:?}"),
            }
        }
    }

    #[test]
    fn prepare_once_solve_many() {
        // The Fig. 8 pattern: one mapping, many right-hand sides.
        let a = generate::fem_mesh_3d(80, 4, 9);
        let azul = Azul::new(AzulConfig::small_test());
        let prepared = azul.prepare(&a).unwrap();
        for seed in 0..3 {
            let b: Vec<f64> = (0..a.rows())
                .map(|i| ((i * (seed + 3) % 11) as f64) / 11.0 + 0.1)
                .collect();
            let report = prepared.solve(&b);
            assert!(report.converged, "seed {seed}");
            let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
            assert!(residual < 1e-7);
        }
    }

    #[test]
    fn rejects_bad_input() {
        let azul = Azul::new(AzulConfig::small_test());
        // Non-square.
        let rect = azul_sparse::Coo::from_triplets(2, 3, [(0, 0, 1.0)])
            .unwrap()
            .to_csr();
        assert!(matches!(azul.prepare(&rect), Err(AzulError::Input(_))));
        // Non-symmetric.
        let asym = azul_sparse::Coo::from_triplets(2, 2, [(0, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0)])
            .unwrap()
            .to_csr();
        assert!(matches!(azul.prepare(&asym), Err(AzulError::Input(_))));
        // Non-finite values are named before the symmetry test would
        // misreport them.
        let mut nan = generate::grid_laplacian_2d(4, 4);
        nan.values_mut()[3] = f64::NAN;
        match azul.prepare(&nan) {
            Err(AzulError::Input(msg)) => assert!(msg.contains("not finite"), "{msg}"),
            other => panic!("expected AzulError::Input, got {other:?}"),
        }
    }

    #[test]
    fn prepare_report_is_populated() {
        let a = generate::grid_laplacian_2d(8, 8);
        let azul = Azul::new(AzulConfig::small_test());
        let prepared = azul.prepare(&a).unwrap();
        let rep = prepared.prepare_report();
        assert!(rep.num_colors >= 2);
        assert!(rep.mapping_seconds >= 0.0);
        assert!(rep.nnz_imbalance >= 1.0);
    }

    #[test]
    fn coloring_can_be_disabled() {
        let a = generate::grid_laplacian_2d(6, 6);
        let mut cfg = AzulConfig::small_test();
        cfg.coloring = false;
        let azul = Azul::new(cfg);
        let prepared = azul.prepare(&a).unwrap();
        assert_eq!(prepared.prepare_report().num_colors, 0);
        let b = rhs(a.rows());
        assert!(prepared.solve(&b).converged);
    }

    #[test]
    fn baseline_mappings_also_solve_correctly() {
        let a = generate::grid_laplacian_2d(8, 8);
        let b = rhs(a.rows());
        for mapping in [
            MappingStrategy::RoundRobin,
            MappingStrategy::Block,
            MappingStrategy::SparseP,
        ] {
            let mut cfg = AzulConfig::small_test();
            cfg.mapping = mapping.clone();
            let report = Azul::new(cfg).solve(&a, &b).unwrap();
            assert!(report.converged, "{} failed", mapping.name());
            let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
            assert!(residual < 1e-7, "{}: residual {residual}", mapping.name());
        }
    }

    #[test]
    fn all_preconditioner_choices_solve_correctly() {
        let a = generate::fem_mesh_3d(120, 5, 31);
        let b = rhs(a.rows());
        let mut iters = Vec::new();
        for (name, choice) in [
            ("ic0", PreconditionerChoice::IncompleteCholesky),
            ("sgs", PreconditionerChoice::SymmetricGaussSeidel),
            ("ssor", PreconditionerChoice::Ssor(1.2)),
            ("jacobi", PreconditionerChoice::Jacobi),
            ("none", PreconditionerChoice::None),
        ] {
            let mut cfg = AzulConfig::small_test();
            cfg.preconditioner = choice;
            assert_eq!(cfg.preconditioner.name(), name);
            let report = Azul::new(cfg).solve(&a, &b).unwrap();
            assert!(report.converged, "{name} failed");
            let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
            assert!(residual < 1e-7, "{name}: residual {residual}");
            iters.push((name, report.iterations));
        }
        // All converge within the iteration cap; the weak ladder rungs
        // (jacobi, none) legitimately need more iterations.
        assert!(iters.iter().all(|&(_, i)| i > 0 && i < 2000), "{iters:?}");
        // Stronger preconditioning converges no slower than none.
        let of = |n: &str| iters.iter().find(|&&(m, _)| m == n).map(|&(_, i)| i);
        assert!(of("ic0") <= of("none"), "{iters:?}");
    }

    #[test]
    fn invalid_ssor_omega_rejected() {
        let a = generate::grid_laplacian_2d(5, 5);
        let mut cfg = AzulConfig::small_test();
        cfg.preconditioner = PreconditionerChoice::Ssor(2.5);
        assert!(matches!(
            Azul::new(cfg).prepare(&a),
            Err(AzulError::Input(_))
        ));
    }

    #[test]
    fn sgs_update_values_reuses_mapping() {
        let a = generate::fem_mesh_3d(80, 4, 17);
        let mut cfg = AzulConfig::small_test();
        cfg.preconditioner = PreconditionerChoice::SymmetricGaussSeidel;
        let mut prepared = Azul::new(cfg).prepare(&a).unwrap();
        let b = rhs(a.rows());
        assert!(prepared.solve(&b).converged);
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 1.5;
        }
        prepared.update_values(&a2).unwrap();
        let report = prepared.solve(&b);
        assert!(report.converged);
        let residual = dense::norm2(&dense::sub(&b, &a2.spmv(&report.x)));
        assert!(residual < 1e-7);
    }

    #[test]
    fn update_values_reuses_mapping() {
        let a = generate::fem_mesh_3d(80, 4, 13);
        let azul = Azul::new(AzulConfig::small_test());
        let mut prepared = azul.prepare(&a).unwrap();
        let b = rhs(a.rows());
        let before = prepared.solve(&b);
        assert!(before.converged);

        // Stiffen the system (same mesh, new values).
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 3.0;
        }
        prepared.update_values(&a2).unwrap();
        let after = prepared.solve(&b);
        assert!(after.converged);
        let residual = dense::norm2(&dense::sub(&b, &a2.spmv(&after.x)));
        assert!(
            residual < 1e-7,
            "residual against the NEW matrix: {residual}"
        );

        // Wrong-pattern and wrong-size updates are rejected.
        let wrong = generate::fem_mesh_3d(80, 4, 14);
        assert!(prepared.update_values(&wrong).is_err());
        let small = generate::grid_laplacian_2d(4, 4);
        assert!(matches!(
            prepared.update_values(&small),
            Err(AzulError::Input(_))
        ));
    }

    #[test]
    fn updated_values_replay_what_a_fresh_prepare_computes() {
        let a = generate::fem_mesh_3d(80, 4, 13);
        let azul = Azul::new(AzulConfig::small_test());
        let mut prepared = azul.prepare(&a).unwrap();
        let b = rhs(a.rows());
        prepared.solve(&b);

        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 3.0;
        }
        prepared.update_values(&a2).unwrap();
        azul_sim::profile::reset();
        let updated = prepared.solve(&b);
        assert_eq!(
            azul_sim::profile::snapshot().engine_launches,
            0,
            "the record survives the update: nothing ticks"
        );
        let fresh = azul.prepare(&a2).unwrap().solve(&b);
        let bits = |r: &SolveReport| r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&updated),
            bits(&fresh),
            "bit for bit a fresh prepare's"
        );
        assert_eq!(updated.sim.total_cycles, fresh.sim.total_cycles);
        assert_eq!(updated.sim.stats, fresh.sim.stats);
    }

    #[test]
    fn update_values_rejects_non_finite_values() {
        let a = generate::grid_laplacian_2d(6, 6);
        let mut prepared = Azul::new(AzulConfig::small_test()).prepare(&a).unwrap();
        let mut nan = a.clone();
        nan.values_mut()[3] = f64::NAN;
        match prepared.update_values(&nan) {
            Err(AzulError::Input(msg)) => assert!(msg.contains("not finite"), "{msg}"),
            other => panic!("expected AzulError::Input, got {other:?}"),
        }
        assert!(prepared.solve(&rhs(a.rows())).converged, "left as it was");
    }

    #[test]
    fn update_values_rejects_asymmetric_values() {
        let a = generate::grid_laplacian_2d(6, 6);
        let mut prepared = Azul::new(AzulConfig::small_test()).prepare(&a).unwrap();
        let mut asym = a.clone();
        let off = a.col_idx().iter().position(|&c| c != 0).unwrap();
        asym.values_mut()[off] *= 2.0;
        match prepared.update_values(&asym) {
            Err(AzulError::Input(msg)) => assert!(msg.contains("symmetric"), "{msg}"),
            other => panic!("expected AzulError::Input, got {other:?}"),
        }
        assert!(prepared.solve(&rhs(a.rows())).converged, "left as it was");
    }

    #[test]
    fn with_values_shares_what_a_cold_prepare_computes() {
        let a = generate::fem_mesh_3d(80, 4, 13);
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 3.0;
        }
        let azul = Azul::new(AzulConfig::small_test());
        let prepared = azul.prepare(&a).unwrap();
        let updated = prepared.with_values(&a2).unwrap();
        let cold = azul.prepare(&a2).unwrap();
        assert!(Arc::ptr_eq(&updated.structure, &prepared.structure));
        assert_eq!(updated.permutation(), cold.permutation());
        assert_eq!(updated.placement(), cold.placement());
        assert!(updated.verify_integrity());
    }

    #[test]
    fn capacity_enforcement_rejects_oversized_matrices() {
        // A single tile (72 KB data SRAM) cannot hold a ~100k-nonzero
        // matrix (~1.2 MB + vectors).
        let a = generate::fem_mesh_3d(2000, 24, 3);
        assert!(a.nnz() * 12 > 72 * 1024, "test needs an oversized matrix");
        let mut cfg = AzulConfig::new(TileGrid::new(1, 1));
        cfg.mapping = MappingStrategy::Block;
        let err = Azul::new(cfg).prepare(&a);
        match err {
            Err(AzulError::Capacity {
                tile,
                data_bytes,
                data_limit,
                ..
            }) => {
                assert_eq!(tile, 0, "only one tile exists");
                assert!(data_bytes > data_limit);
                assert_eq!(data_limit, 72 * 1024);
            }
            other => panic!("expected a capacity error, got {other:?}"),
        }
        // Disabling the check lets it through.
        let mut cfg2 = AzulConfig::new(TileGrid::new(1, 1));
        cfg2.mapping = MappingStrategy::Block;
        cfg2.enforce_capacity = false;
        assert!(Azul::new(cfg2).prepare(&a).is_ok());
    }

    #[test]
    fn prepare_emits_phase_spans() {
        let collector = azul_telemetry::span::Collector::install();
        let a = generate::grid_laplacian_2d(8, 8);
        let azul = Azul::new(AzulConfig::small_test());
        let prepared = azul.prepare(&a).unwrap();
        let _ = prepared.solve(&rhs(a.rows()));
        azul_telemetry::span::uninstall();
        let records = collector.drain();
        // Other tests may run concurrently and add their own spans; only
        // require that this prepare+solve produced the expected phases.
        for name in [
            "prepare",
            "prepare/coloring",
            "prepare/mapping",
            "mapping/hypergraph",
            "mapping/partition",
            "prepare/capacity_check",
            "prepare/factor_compile",
            "compile/spmv",
            "compile/sptrsv_lower",
            "compile/sptrsv_upper",
            "solve/pcg",
        ] {
            assert!(
                records.iter().any(|r| r.name == name),
                "missing span {name}; got {:?}",
                records.iter().map(|r| r.name.as_str()).collect::<Vec<_>>()
            );
        }
        let solve = records.iter().find(|r| r.name == "solve/pcg").unwrap();
        assert!(solve.cycles.unwrap_or(0) > 0, "solve span carries cycles");
    }

    #[test]
    fn error_conversions() {
        let e: AzulError = SolverError::Breakdown("pivot".into()).into();
        assert!(e.to_string().contains("pivot"));
        let e: AzulError = SimError::Deadlock {
            cycle: 42,
            stalled_pes: vec![1, 3],
            inflight_flits: 7,
        }
        .into();
        assert!(matches!(e, AzulError::Sim(SimError::Deadlock { .. })));
        assert!(e.to_string().contains("cycle 42"), "{e}");
        let cap = AzulError::Capacity {
            tile: 2,
            data_bytes: 100_000,
            accum_bytes: 10,
            data_limit: 73_728,
            accum_limit: 36_864,
        };
        assert!(cap.to_string().contains("tile 2"), "{cap}");
    }

    #[test]
    fn sim_input_errors_convert_to_input() {
        let e: AzulError = SimError::Input {
            detail: "rhs length 3 does not match the 4-row matrix".into(),
        }
        .into();
        match &e {
            AzulError::Input(detail) => assert!(detail.contains("rhs length 3"), "{detail}"),
            other => panic!("expected AzulError::Input, got {other:?}"),
        }
        assert!(std::error::Error::source(&e).is_none(), "Input is a leaf");
    }

    #[test]
    fn error_sources_chain_to_causes() {
        use std::error::Error;
        let e: AzulError = SolverError::Breakdown("pivot".into()).into();
        let src = e.source().expect("Numeric chains to SolverError");
        assert!(src.to_string().contains("pivot"), "{src}");
        let e: AzulError = SimError::Deadlock {
            cycle: 1,
            stalled_pes: vec![],
            inflight_flits: 0,
        }
        .into();
        assert!(e.source().is_some(), "Sim chains to SimError");
        assert!(AzulError::Input("x".into()).source().is_none());
        let cap = AzulError::Capacity {
            tile: 0,
            data_bytes: 1,
            accum_bytes: 1,
            data_limit: 1,
            accum_limit: 1,
        };
        assert!(cap.source().is_none());
        // SolverError itself is a leaf (wrappers chain *to* it).
        assert!(SolverError::Breakdown("b".into()).source().is_none());
        // Exhausted chains to the final attempt's error.
        let ex = AzulError::Exhausted {
            attempts: vec![AttemptFailure {
                attempt: 1,
                config: "azul@2x2 ic0 pcg".into(),
                error: AzulError::Numeric(SolverError::Breakdown("pivot".into())),
            }],
        };
        assert!(ex
            .source()
            .expect("has cause")
            .to_string()
            .contains("pivot"));
        assert!(
            ex.to_string().contains("attempt 1 (azul@2x2 ic0 pcg)"),
            "{ex}"
        );
        assert!(AzulError::Exhausted { attempts: vec![] }.source().is_none());
        // With several attempts, the chain points at the *final* one:
        // service-level transience detection inspects exactly this link,
        // so it must not regress to the first failure.
        let multi = AzulError::Exhausted {
            attempts: vec![
                AttemptFailure {
                    attempt: 1,
                    config: "azul@2x2 ic0 pcg".into(),
                    error: AzulError::Numeric(SolverError::Breakdown("pivot".into())),
                },
                AttemptFailure {
                    attempt: 2,
                    config: "rr@2x2 jacobi bicgstab".into(),
                    error: AzulError::Sim(SimError::Deadlock {
                        cycle: 9,
                        stalled_pes: vec![1],
                        inflight_flits: 3,
                    }),
                },
            ],
        };
        let last = multi.source().expect("chains to final attempt's error");
        assert!(
            last.to_string().contains("simulation"),
            "final attempt's Sim error, not the first attempt's: {last}"
        );
        // ...and walks all the way down to the machine-level leaf.
        let leaf = last.source().expect("Sim chains to SimError");
        assert!(leaf.to_string().contains("cycle 9"), "{leaf}");
        assert!(leaf.source().is_none(), "SimError is the leaf");
        // Cancellation is a host-side verdict with no deeper cause.
        let cancelled = AzulError::Cancelled {
            stage: "solve".into(),
        };
        assert!(cancelled.source().is_none());
        assert!(
            cancelled.to_string().contains("during solve"),
            "{cancelled}"
        );
    }

    #[test]
    fn capacity_error_reports_the_actual_footprint() {
        // Just overflows 2x2: per-tile data x1.5 lands a few percent over
        // the 72 KB limit.
        let a = generate::grid_laplacian_2d(41, 41);
        let mut cfg = AzulConfig::small_test();
        cfg.mapping = MappingStrategy::Block;
        let err = Azul::new(cfg.clone()).prepare(&a).unwrap_err();
        let AzulError::Capacity {
            tile,
            data_bytes,
            accum_bytes,
            data_limit,
            accum_limit,
        } = err
        else {
            panic!("expected a capacity error, got {err:?}");
        };
        assert_eq!(data_limit, 72 * 1024);
        assert_eq!(accum_limit, 36 * 1024);

        // Recompute the footprint from the placement itself (capacity
        // enforcement off) and require the error payload to match the
        // real numbers within 1%.
        let mut cfg2 = cfg;
        cfg2.enforce_capacity = false;
        let pre = Azul::new(cfg2).preprocess(&a).unwrap();
        let usage = pre.structure.placement.sram_usage(&pre.pa, 8);
        let (data, accum) = usage[tile];
        let expected_data = data + data / 2; // L factor adds ~50%
        let rel = |reported: usize, actual: usize| {
            (reported as f64 - actual as f64).abs() / (actual as f64).max(1.0)
        };
        assert!(
            rel(data_bytes, expected_data) <= 0.01,
            "data: reported {data_bytes}, actual {expected_data}"
        );
        assert!(
            rel(accum_bytes, accum) <= 0.01,
            "accum: reported {accum_bytes}, actual {accum}"
        );
        assert!(data_bytes > data_limit, "the matrix really overflows");
    }

    #[test]
    fn try_solve_matches_solve_on_clean_runs() {
        let a = generate::grid_laplacian_2d(8, 8);
        let b = rhs(a.rows());
        let prepared = Azul::new(AzulConfig::small_test()).prepare(&a).unwrap();
        let report = prepared.try_solve(&b).unwrap();
        assert!(report.converged);
        assert!(report.sim.fault_events.is_empty());
        assert!(report.sim.recoveries.is_empty());
        assert_eq!(report.sim.status, azul_solver::SolveStatus::Converged);
    }
}
