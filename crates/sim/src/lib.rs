//! Cycle-level simulator for the Azul accelerator (Sec. V, VI-A).
//!
//! The paper evaluates Azul "using a cycle-level simulator with detailed
//! timing models for the PEs and network — we model each hardware component
//! as an object and tick each object for each cycle". This crate is that
//! simulator:
//!
//! * [`config::SimConfig`] — the hardware configuration (Table III) plus
//!   the PE model selector: the specialized Azul PE, Dalorex's in-order
//!   scalar core (control-overhead model), or an idealized PE (used for
//!   the mapping studies of Figs. 10/11);
//! * [`program`] — the compiler from a (matrix, placement) pair to
//!   per-tile dataflow task programs for SpMV and SpTRSV (Sec. IV-A:
//!   SendV / ScaleAndAccumCol / ReduceY / Solve tasks, multicast and
//!   reduction trees);
//! * [`router`] — the 2-D-torus packet-switched NoC with per-cycle link
//!   arbitration, bounded queues and tree forwarding;
//! * [`pe`] — the multithreaded PE pipeline: one operation per cycle,
//!   RAW-hazard detection on accumulator slots, message-driven task
//!   dispatch, Fmac/Add/Mul/Send operation mix (Fig. 21's categories);
//! * [`machine`] — the tick engine that runs one kernel to quiescence,
//!   co-simulating function (real `f64` arithmetic, validated against
//!   `azul-solver`) and timing;
//! * [`vecops`] — timing of the purely local dense-vector kernels and the
//!   scalar all-reduce trees of the dot products;
//! * [`invariants`] — debug-gated runtime audit of the machine's
//!   conservation laws (flit conservation, buffer bounds, trace
//!   monotonicity, aggregate-vs-detail cross-checks), enabled via
//!   `SimConfig::check_invariants`;
//! * [`pcg`] — the end-to-end PCG driver (Listing 1 on the accelerator)
//!   producing per-kernel cycle, operation, traffic and energy-activity
//!   breakdowns; [`bicgstab`] and [`gmres`] run the other Krylov methods
//!   on the same kernels, and all three share one private solve driver
//!   for fault recovery, integrity checks and cycle accounting;
//! * [`telemetry`] — conversion of [`stats::KernelStats`] (including the
//!   per-PE/per-link detail collected under
//!   `SimConfig::detailed_stats`) into `azul-telemetry` reports;
//! * [`profile`] — host-side self-profiling probes attributing the
//!   simulator's *wall time* to its components (tick loop, router
//!   arbitration, PE execute, commit, waking parked tiles,
//!   stats), inert unless a harness enables them, plus exact counts of
//!   the tile ticks parking saved.
//!
//! # Example
//!
//! ```
//! use azul_sim::config::SimConfig;
//! use azul_sim::pcg::{PcgSim, PcgSimConfig};
//! use azul_mapping::{strategies::{Mapper, AzulMapper}, TileGrid};
//! use azul_sparse::generate;
//!
//! let a = generate::grid_laplacian_2d(8, 8);
//! let b = vec![1.0; a.rows()];
//! let grid = TileGrid::new(2, 2);
//! let placement = AzulMapper::default().map(&a, grid);
//! let sim = PcgSim::build(&a, &placement, &SimConfig::azul(grid)).unwrap();
//! let report = sim.run(&b, &PcgSimConfig::default());
//! assert!(report.converged);
//! assert!(report.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]

pub mod bicgstab;
pub mod cancel;
pub mod config;
pub mod faults;
pub mod gmres;
pub mod invariants;
pub mod machine;
pub mod pcg;
pub mod pe;
pub mod profile;
pub mod program;
pub mod router;
mod solve;
pub mod stats;
pub mod telemetry;
pub mod vecops;

pub use bicgstab::{BiCgStabSim, BiCgStabSimConfig, BiCgStabSimReport};
pub use cancel::CancelToken;
pub use config::{PeModel, SimConfig};
pub use faults::{
    DriftSample, FaultEvent, FaultKind, FaultPlan, FaultRecord, FaultSession, IntegrityAudit,
    IntegrityPolicy, IntegrityRecord, RecoveryPolicy, RecoveryRecord,
};
pub use gmres::{GmresSim, GmresSimConfig, GmresSimReport};
pub use machine::SimError;
pub use pcg::{PcgSim, PcgSimConfig, PcgSimReport};
pub use stats::{KernelClass, KernelStats, OpKind};
