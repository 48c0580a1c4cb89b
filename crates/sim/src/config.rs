//! Simulated hardware configuration (Table III).

use crate::cancel::CancelToken;
use crate::faults::FaultPlan;
use azul_mapping::TileGrid;
use azul_telemetry::trace::TraceConfig;

/// Which processing-element model each tile uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PeModel {
    /// The specialized Azul PE (Sec. V-A): 1 operation/cycle, hardened
    /// control flow, fine-grained multithreading.
    #[default]
    Azul,
    /// Dalorex's in-order scalar core: every arithmetic/send operation
    /// pays additional bookkeeping-instruction cycles (address
    /// calculation, loop branches), modeled by
    /// [`SimConfig::dalorex_overhead`]. Single-threaded.
    Dalorex,
    /// An idealized PE that executes every task instantly; only the NoC
    /// constrains performance. Used for the mapping studies (Figs. 10/11).
    Ideal,
}

/// Full simulator configuration.
///
/// Equality compares every field but [`SimConfig::cancel`]: two configs
/// that differ only in their cancel token describe the same machine.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The tile grid (the paper's default is 64x64; scaled runs use
    /// smaller grids, see DESIGN.md §3).
    pub grid: TileGrid,
    /// PE model for every tile.
    pub pe_model: PeModel,
    /// Data/Accumulator SRAM access latency in cycles (Table III: 2,
    /// pipelined). Affects the RAW-hazard window.
    pub sram_latency: u32,
    /// NoC per-hop latency in cycles (Table III: 1).
    pub hop_latency: u32,
    /// Number of hardware task contexts per PE (fine-grained
    /// multithreading, Sec. V-A). 1 disables multithreading (Fig. 27).
    pub contexts: usize,
    /// Extra issue cycles per operation for the Dalorex PE model,
    /// calibrated so the Azul PE is ~8x faster at equal mapping (Fig. 2).
    pub dalorex_overhead: u32,
    /// Router input-queue capacity in flits.
    pub router_queue_capacity: usize,
    /// PE message-buffer capacity; triggers beyond this spill to the Data
    /// SRAM (Sec. V-A) and are counted for energy.
    pub msg_buffer_capacity: usize,
    /// Clock frequency in GHz (Table III: 2 GHz), used to convert cycles
    /// to time and GFLOP/s.
    pub clock_ghz: f64,
    /// Safety limit: a kernel that exceeds this many cycles aborts with a
    /// panic (deadlock escape hatch for development).
    pub max_kernel_cycles: u64,
    /// When nonzero, record a `(cycle, cumulative issued ops)` sample
    /// every this many cycles into `KernelStats::trace` (Fig. 17's
    /// time-balancing curves).
    pub trace_interval: u64,
    /// When set, collect per-PE and per-link counters into
    /// `KernelStats::pe` / `KernelStats::links` (utilization and traffic
    /// heatmaps). Off by default: the detail arrays stay empty and the
    /// per-event cost is a length check.
    pub detailed_stats: bool,
    /// Per-tile Data SRAM capacity in bytes (Table III: 72 KB).
    pub data_sram_bytes: usize,
    /// Per-tile Accumulator SRAM capacity in bytes (Table III: 36 KB).
    pub accum_sram_bytes: usize,
    /// Watchdog: abort a kernel with [`SimError::Deadlock`](crate::SimError)
    /// when no counter (ops, messages, link activations, traversals)
    /// moves for this many consecutive cycles while tiles remain active.
    /// 0 disables the no-progress check; `max_kernel_cycles` still caps
    /// total runtime. Finite fault windows suspend the check while
    /// pending so transient outages are not misreported as hangs.
    pub watchdog_no_progress_cycles: u64,
    /// Scheduled fault injection ([`FaultPlan`]). `None` (the default)
    /// keeps the zero-fault fast path: the tick engine never consults
    /// fault state.
    pub faults: Option<FaultPlan>,
    /// Runtime invariant checking ([`crate::invariants`]): NoC flit
    /// conservation, router occupancy bounds, trace monotonicity and
    /// aggregate-vs-detail cross-checks. Violations abort with
    /// [`SimError::Invariant`](crate::SimError). Defaults to on in
    /// debug builds (including `RUSTFLAGS="-C debug-assertions"`
    /// release runs) and off otherwise, so production sweeps pay one
    /// branch per cycle.
    pub check_invariants: bool,
    /// Cycle-accurate event tracing
    /// ([`azul_telemetry::trace`]). `None` (the default) keeps the
    /// zero-trace fast path: every hook is guarded by one branch on an
    /// empty category mask and no event is ever constructed. `Some`
    /// records category-filtered [`azul_telemetry::trace::TraceEvent`]s
    /// into `KernelStats::trace_ev` with deterministic bounded
    /// sampling; traced output is byte-identical with parking on or
    /// off and across repeated seeded-fault runs.
    pub trace: Option<TraceConfig>,
    /// Cooperative cancellation ([`crate::cancel`]). `None` (the
    /// default) keeps the fast path: the tick engine pays one branch
    /// per cycle and never touches an atomic. `Some` makes the engine
    /// sample the token once per cycle, between cycles, and abort with
    /// [`SimError::Cancelled`](crate::SimError) when it trips, so a
    /// service front-end can abandon a solve mid-kernel without tearing
    /// a cycle. This is a host-side control channel, not simulated
    /// hardware: it is absent from telemetry and ignored by config
    /// equality, armed or not.
    pub cancel: Option<CancelToken>,
    /// Cap on the per-iteration convergence-history samples a solve
    /// frontend keeps (`0` = unlimited, the default, which preserves
    /// byte-exact seed output). When a solve runs more iterations than
    /// the limit, the history is thinned by deterministic stride
    /// sampling that always keeps the first and last iterations, so
    /// week-long solves cannot grow `TelemetryReport` without bound.
    pub history_limit: usize,
}

impl PartialEq for SimConfig {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so a new field cannot be left out unnoticed.
        let SimConfig {
            grid,
            pe_model,
            sram_latency,
            hop_latency,
            contexts,
            dalorex_overhead,
            router_queue_capacity,
            msg_buffer_capacity,
            clock_ghz,
            max_kernel_cycles,
            trace_interval,
            detailed_stats,
            data_sram_bytes,
            accum_sram_bytes,
            watchdog_no_progress_cycles,
            faults,
            check_invariants,
            trace,
            cancel: _,
            history_limit,
        } = self;
        *grid == other.grid
            && *pe_model == other.pe_model
            && *sram_latency == other.sram_latency
            && *hop_latency == other.hop_latency
            && *contexts == other.contexts
            && *dalorex_overhead == other.dalorex_overhead
            && *router_queue_capacity == other.router_queue_capacity
            && *msg_buffer_capacity == other.msg_buffer_capacity
            && *clock_ghz == other.clock_ghz
            && *max_kernel_cycles == other.max_kernel_cycles
            && *trace_interval == other.trace_interval
            && *detailed_stats == other.detailed_stats
            && *data_sram_bytes == other.data_sram_bytes
            && *accum_sram_bytes == other.accum_sram_bytes
            && *watchdog_no_progress_cycles == other.watchdog_no_progress_cycles
            && *faults == other.faults
            && *check_invariants == other.check_invariants
            && *trace == other.trace
            && *history_limit == other.history_limit
    }
}

/// Windowed stagnation detector for the iterative-solve frontends.
///
/// The supervisor's solver ladder needs a bounded, deterministic way to
/// decide that an iteration is going nowhere *before* the full
/// `max_iters` budget burns: if the residual norm fails to improve by at
/// least a relative factor `eps` across `window` consecutive iterations,
/// the solve stops with `SolveStatus::Breakdown(Stagnated)`. Purely a
/// function of the residual history, so it perturbs nothing when unset
/// and stays byte-deterministic when set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagnationPolicy {
    /// How many iterations back to compare against (must be > 0 to ever
    /// trigger).
    pub window: usize,
    /// Required relative improvement over the window: the solve is
    /// stagnant when `r_now >= (1 - eps) * r_then`.
    pub eps: f64,
}

impl StagnationPolicy {
    /// A detector requiring `eps` relative progress every `window`
    /// iterations.
    pub fn new(window: usize, eps: f64) -> Self {
        StagnationPolicy { window, eps }
    }

    /// Whether the residual history (one entry per completed iteration,
    /// most recent last) shows stagnation over the configured window.
    pub fn stagnated(&self, rnorms: &[f64]) -> bool {
        if self.window == 0 || rnorms.len() <= self.window {
            return false;
        }
        let now = rnorms[rnorms.len() - 1];
        let then = rnorms[rnorms.len() - 1 - self.window];
        now >= (1.0 - self.eps) * then
    }
}

impl Default for StagnationPolicy {
    /// 25 iterations with less than 1% cumulative improvement.
    fn default() -> Self {
        StagnationPolicy {
            window: 25,
            eps: 0.01,
        }
    }
}

impl SimConfig {
    /// The Azul configuration of Table III on the given grid.
    pub fn azul(grid: TileGrid) -> Self {
        SimConfig {
            grid,
            pe_model: PeModel::Azul,
            ..Self::base(grid)
        }
    }

    /// The Dalorex baseline: same tiles/NoC, scalar in-order cores
    /// (Sec. VI-A baseline 3).
    pub fn dalorex(grid: TileGrid) -> Self {
        SimConfig {
            grid,
            pe_model: PeModel::Dalorex,
            contexts: 1,
            ..Self::base(grid)
        }
    }

    /// Idealized PEs (mapping studies, Figs. 10/11).
    pub fn ideal(grid: TileGrid) -> Self {
        SimConfig {
            grid,
            pe_model: PeModel::Ideal,
            ..Self::base(grid)
        }
    }

    fn base(grid: TileGrid) -> Self {
        SimConfig {
            grid,
            pe_model: PeModel::Azul,
            sram_latency: 2,
            hop_latency: 1,
            contexts: 4,
            dalorex_overhead: 7,
            router_queue_capacity: 16,
            msg_buffer_capacity: 16,
            clock_ghz: 2.0,
            max_kernel_cycles: 500_000_000,
            trace_interval: 0,
            detailed_stats: false,
            data_sram_bytes: 72 * 1024,
            accum_sram_bytes: 36 * 1024,
            watchdog_no_progress_cycles: 50_000,
            faults: None,
            check_invariants: cfg!(debug_assertions),
            trace: None,
            cancel: None,
            history_limit: 0,
        }
    }

    /// The RAW-hazard window in cycles: an operation reading an
    /// accumulator slot must wait this long after the previous write to
    /// the same slot (accumulator read + floating-point accumulate stages,
    /// Table III's pipeline).
    pub fn hazard_latency(&self) -> u64 {
        self.sram_latency as u64 + 2
    }

    /// Peak double-precision throughput in GFLOP/s
    /// (1 FMAC = 2 FLOPs per PE per cycle).
    pub fn peak_gflops(&self) -> f64 {
        self.grid.num_tiles() as f64 * 2.0 * self.clock_ghz
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Total on-chip SRAM capacity in bytes (Table III: 432 MB for the
    /// 64x64 configuration).
    pub fn total_sram_bytes(&self) -> usize {
        self.grid.num_tiles() * (self.data_sram_bytes + self.accum_sram_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_pe_model() {
        let g = TileGrid::square(4);
        assert_eq!(SimConfig::azul(g).pe_model, PeModel::Azul);
        assert_eq!(SimConfig::dalorex(g).pe_model, PeModel::Dalorex);
        assert_eq!(SimConfig::ideal(g).pe_model, PeModel::Ideal);
        assert_eq!(SimConfig::dalorex(g).contexts, 1);
        assert!(SimConfig::azul(g).contexts > 1);
    }

    #[test]
    fn table_iii_numbers() {
        // The paper's 64x64 configuration: 16 TFLOP/s peak at 2 GHz.
        let cfg = SimConfig::azul(TileGrid::square(64));
        assert_eq!(cfg.peak_gflops(), 16384.0);
        assert_eq!(cfg.sram_latency, 2);
        assert_eq!(cfg.hop_latency, 1);
    }

    #[test]
    fn hazard_window_tracks_sram_latency() {
        let g = TileGrid::square(2);
        let mut cfg = SimConfig::azul(g);
        assert_eq!(cfg.hazard_latency(), 4);
        cfg.sram_latency = 4;
        assert_eq!(cfg.hazard_latency(), 6);
    }

    #[test]
    fn engine_knobs_default_to_reference_path() {
        let cfg = SimConfig::azul(TileGrid::square(4));
        assert!(cfg.trace.is_none(), "tracing is opt-in");
        assert_eq!(cfg.history_limit, 0, "history is unbounded by default");
        assert!(cfg.cancel.is_none(), "cancellation is opt-in");
    }

    #[test]
    fn cancel_token_is_invisible_to_config_equality() {
        // Two configs that differ only in their cancel token describe
        // the same simulated machine.
        let base = SimConfig::azul(TileGrid::square(4));
        let mut armed = base.clone();
        armed.cancel = Some(CancelToken::new());
        let mut tripped = base.clone();
        let tok = CancelToken::new();
        tok.cancel();
        tripped.cancel = Some(tok);
        assert_eq!(armed, tripped);
        // Nor does having a token at all.
        assert_eq!(base, armed);
    }

    #[test]
    fn stagnation_policy_windows() {
        let p = StagnationPolicy::new(3, 0.5);
        // Not enough history yet.
        assert!(!p.stagnated(&[1.0, 0.9, 0.8]));
        // 1.0 -> 0.8 over 3 iterations is < 50% improvement: stagnant.
        assert!(p.stagnated(&[1.0, 0.9, 0.85, 0.8]));
        // 1.0 -> 0.2 over 3 iterations is 80% improvement: healthy.
        assert!(!p.stagnated(&[1.0, 0.8, 0.4, 0.2]));
        // A zero window can never trigger.
        assert!(!StagnationPolicy::new(0, 0.5).stagnated(&[1.0, 1.0, 1.0]));
    }

    #[test]
    fn cycle_time_conversion() {
        let cfg = SimConfig::azul(TileGrid::square(2));
        assert!((cfg.cycles_to_seconds(2_000_000_000) - 1.0).abs() < 1e-12);
    }
}
