//! Azul reproduction — workspace facade.
//!
//! Re-exports the whole stack under one roof for the examples and
//! integration tests:
//!
//! * [`sparse`] — matrix formats, generators, coloring, analysis;
//! * [`solver`] — reference iterative solvers and preconditioners;
//! * [`hypergraph`] — the multilevel multi-constraint partitioner;
//! * [`mapping`] — tile grids, mapping strategies, communication trees;
//! * [`sim`] — the cycle-level accelerator simulator;
//! * [`models`] — GPU/ALRESCHA baselines and area/power models;
//! * [`telemetry`] — structured tracing spans, reports, and heatmaps;
//! * the top-level [`Azul`] API.
//!
//! See `README.md` for a tour and `DESIGN.md` for the paper mapping.

#![forbid(unsafe_code)]

pub use azul_core::{Azul, AzulConfig, AzulError, MappingStrategy, PreparedSolver, SolveReport};

/// Graceful-degradation supervision: retry/escalation ladders across the
/// mapping, preconditioner, and solver layers.
pub use azul_core::supervisor;
pub use azul_core::{
    EscalationPolicy, EscalationRecord, EscalationStage, EscalationTrigger, SolveSupervisor,
    SolverChoice, SupervisedSolveReport,
};

/// Sparse-matrix substrate.
pub use azul_sparse as sparse;

/// Reference solvers.
pub use azul_solver as solver;

/// Hypergraph partitioner.
pub use azul_hypergraph as hypergraph;

/// Data-mapping algorithms.
pub use azul_mapping as mapping;

/// Cycle-level simulator.
pub use azul_sim as sim;

/// Analytic baselines and physical-design models.
pub use azul_models as models;

/// Observability: spans, telemetry reports, JSON export, heatmaps.
pub use azul_telemetry as telemetry;

/// Solve-as-a-service front-end: bounded admission, deadlines,
/// cancellation, retry/backoff, overload shedding, prepare caching.
pub use azul_serve as serve;
