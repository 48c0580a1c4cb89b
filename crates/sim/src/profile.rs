//! Host-side self-profiling: where does the simulator's *wall time* go?
//!
//! Simulated-time tracing ([`azul_telemetry::trace`]) answers "what did
//! the modeled hardware do"; this module answers "what does the
//! simulator itself spend host cycles on" — the tick loop, router
//! arbitration, PE execution, the commit of each tick (re-arming or
//! parking the tile, landing flit arrivals), waking parked tiles, and
//! stats sampling — and how many tile ticks parking saved.
//! The two must never mix: wall-clock reads inside the deterministic
//! engine are a determinism hazard (`azul-lint`'s `wall-clock-in-sim`
//! rule), so the probes here are the *only* sanctioned wall-clock use
//! inside `crates/sim`, and they are
//! compiled down to a single thread-local flag load unless a harness
//! explicitly calls [`enable`].
//!
//! Recording is thread-scoped: [`enable`], [`disable`], [`reset`] and
//! [`snapshot`] act on the calling thread's own flag and totals, and a
//! probe counts only on a thread that armed it. The tick engine runs a
//! kernel on the calling thread, so a harness profiles the kernels it
//! runs itself; kernels on other threads of the process (other tests,
//! other service workers) record nothing into its totals.
//!
//! Besides wall time, every kernel adds its host work in tile-cycles —
//! tiles ticked, and cycles parked tiles were credited for instead —
//! to the calling thread's totals, probes enabled or not. These counts
//! are exact and host-independent; the `sim_perf` bench gates parking
//! on them.
//!
//! Probe output feeds the `sim_profile` bench, which writes
//! `BENCH_sim_profile.json` with per-component wall-time shares.
//!
//! Contract with the deterministic engine:
//!
//! * disabled (the default), [`scope`] takes no timestamps, allocates
//!   nothing, and returns an inert guard — the simulated results are
//!   byte-identical whether the probes exist or not;
//! * enabled, probes only *observe* host time; no simulated state ever
//!   depends on a probe, so traced/profiled runs still reproduce.
//!
//! ```
//! use azul_sim::profile::{self, Component};
//!
//! profile::reset();
//! profile::enable();
//! {
//!     let _tick = profile::scope(Component::TickLoop);
//!     // ... hot work ...
//! }
//! profile::disable();
//! let snap = profile::snapshot();
//! assert_eq!(snap.calls(Component::TickLoop), 1);
//! ```

use std::cell::Cell;
use std::time::Instant;

/// Simulator components that receive wall-time attribution. The
/// variants index the accumulator arrays, so `ALL` must list every
/// variant in discriminant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The whole `run_kernel` tick loop (encloses the others).
    TickLoop = 0,
    /// Router arbitration and flit forwarding.
    RouterTick = 1,
    /// PE issue/execute.
    PeTick = 2,
    /// Re-arming or parking each ticked tile, and landing the cycle's
    /// flit arrivals.
    Commit = 3,
    /// Waking parked tiles, crediting their skipped cycles, and clock
    /// jumps.
    Park = 4,
    /// Stats sampling and invariant checking.
    Stats = 5,
}

/// Every component, in accumulator-index order.
pub const ALL: [Component; 6] = [
    Component::TickLoop,
    Component::RouterTick,
    Component::PeTick,
    Component::Commit,
    Component::Park,
    Component::Stats,
];

impl Component {
    /// Stable snake_case name used in `BENCH_sim_profile.json`.
    pub fn name(self) -> &'static str {
        match self {
            Component::TickLoop => "tick_loop",
            Component::RouterTick => "router_tick",
            Component::PeTick => "pe_tick",
            Component::Commit => "commit",
            Component::Park => "park",
            Component::Stats => "stats",
        }
    }
}

/// Per-component accumulators plus the cheap enabled flag, one set per
/// thread.
struct Profiler {
    enabled: Cell<bool>,
    wall_ns: [Cell<u64>; 6],
    calls: [Cell<u64>; 6],
    /// Tile-cycles ticked and credited by kernels on this thread.
    tile_cycles: [Cell<u64>; 2],
}

thread_local! {
    static PROFILER: Profiler = const {
        Profiler {
            enabled: Cell::new(false),
            wall_ns: [const { Cell::new(0) }; 6],
            calls: [const { Cell::new(0) }; 6],
            tile_cycles: [const { Cell::new(0) }; 2],
        }
    };
}

/// Turns probe collection on for the calling thread. Call from a
/// harness, never from engine code — the engine must not know whether it
/// is being profiled.
pub fn enable() {
    PROFILER.with(|p| p.enabled.set(true));
}

/// Turns the calling thread's probe collection off; already-recorded
/// totals are kept.
pub fn disable() {
    PROFILER.with(|p| p.enabled.set(false));
}

/// Whether probes are currently recording on the calling thread.
pub fn enabled() -> bool {
    PROFILER.with(|p| p.enabled.get())
}

/// Zeroes the calling thread's totals (does not change its enabled flag).
pub fn reset() {
    PROFILER.with(|p| {
        for i in 0..ALL.len() {
            p.wall_ns[i].set(0);
            p.calls[i].set(0);
        }
        for c in &p.tile_cycles {
            c.set(0);
        }
    });
}

/// Adds one kernel's tile-cycle counts (see
/// [`ProfileSnapshot::ticked_tile_cycles`]) to the calling thread's
/// totals. Recorded whether or not probes are enabled: two adds per
/// kernel cost nothing, and counting needs no timestamps.
pub(crate) fn count_tile_cycles(ticked: u64, credited: u64) {
    PROFILER.with(|p| {
        p.tile_cycles[0].set(p.tile_cycles[0].get() + ticked);
        p.tile_cycles[1].set(p.tile_cycles[1].get() + credited);
    });
}

/// Opens a probe scope attributing its wall time to `component`. Inert
/// (no timestamp, no allocation) while profiling is disabled.
#[inline]
pub fn scope(component: Component) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { live: None };
    }
    ScopeGuard {
        live: Some((component, Instant::now())),
    }
}

/// RAII guard for a probe scope; accumulation happens on drop.
pub struct ScopeGuard {
    live: Option<(Component, Instant)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let Some((component, started)) = self.live.take() else {
            return;
        };
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let i = component as usize;
        PROFILER.with(|p| {
            p.wall_ns[i].set(p.wall_ns[i].get().saturating_add(ns));
            p.calls[i].set(p.calls[i].get() + 1);
        });
    }
}

/// A point-in-time copy of the accumulated totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Wall nanoseconds per component, indexed as [`ALL`].
    pub wall_ns: [u64; 6],
    /// Scope-open counts per component, indexed as [`ALL`].
    pub calls: [u64; 6],
    /// Tile ticks the engine executed. Exact and host-independent.
    pub ticked_tile_cycles: u64,
    /// Tile-cycles parked tiles were credited for instead of ticking;
    /// `ticked + credited` is what the per-cycle loop would tick.
    pub credited_tile_cycles: u64,
}

impl ProfileSnapshot {
    /// Wall nanoseconds attributed to `component`.
    pub fn wall_ns(&self, component: Component) -> u64 {
        self.wall_ns[component as usize]
    }

    /// Number of scopes opened for `component`.
    pub fn calls(&self, component: Component) -> u64 {
        self.calls[component as usize]
    }

    /// Share of [`Component::TickLoop`] wall time spent in `component`,
    /// in parts per million. The tick loop encloses the other probes,
    /// so shares of the inner components plus the unattributed
    /// remainder ([`ProfileSnapshot::other_ppm`]) sum to ~1_000_000.
    pub fn share_ppm(&self, component: Component) -> u64 {
        let total = self.wall_ns(Component::TickLoop);
        if total == 0 {
            return 0;
        }
        self.wall_ns(component).saturating_mul(1_000_000) / total
    }

    /// The tick-loop remainder not attributed to any inner probe
    /// (dispatch overhead, trigger delivery, fault machinery), in parts
    /// per million.
    pub fn other_ppm(&self) -> u64 {
        let inner: u64 = ALL
            .iter()
            .filter(|&&c| c != Component::TickLoop)
            .map(|&c| self.share_ppm(c))
            .sum();
        1_000_000u64.saturating_sub(inner)
    }
}

/// Copies the calling thread's current totals.
pub fn snapshot() -> ProfileSnapshot {
    PROFILER.with(|p| ProfileSnapshot {
        wall_ns: p.wall_ns.each_ref().map(Cell::get),
        calls: p.calls.each_ref().map(Cell::get),
        ticked_tile_cycles: p.tile_cycles[0].get(),
        credited_tile_cycles: p.tile_cycles[1].get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        disable();
        reset();
        {
            let _s = scope(Component::PeTick);
        }
        let snap = snapshot();
        assert_eq!(snap.calls(Component::PeTick), 0);
        assert_eq!(snap.wall_ns(Component::PeTick), 0);
    }

    #[test]
    fn enabled_probes_accumulate_calls_and_time() {
        reset();
        enable();
        {
            let _outer = scope(Component::TickLoop);
            for _ in 0..3 {
                let _inner = scope(Component::RouterTick);
                std::hint::black_box(0u64);
            }
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.calls(Component::TickLoop), 1);
        assert_eq!(snap.calls(Component::RouterTick), 3);
        assert!(
            snap.wall_ns(Component::TickLoop) >= snap.wall_ns(Component::RouterTick),
            "enclosing scope cannot be shorter than what it encloses"
        );
    }

    #[test]
    fn shares_cover_the_tick_loop() {
        reset();
        enable();
        {
            let _outer = scope(Component::TickLoop);
            {
                let _a = scope(Component::PeTick);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _b = scope(Component::Stats);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        disable();
        let snap = snapshot();
        let inner: u64 = ALL
            .iter()
            .filter(|&&c| c != Component::TickLoop)
            .map(|&c| snap.share_ppm(c))
            .sum();
        let total = inner + snap.other_ppm();
        assert!(
            (990_000..=1_000_000).contains(&total),
            "shares + remainder cover the loop, got {total} ppm"
        );
        // Shares are the recorded wall times scaled by the loop's, so
        // they follow those times whatever the host's sleeps did.
        let loop_ns = snap.wall_ns(Component::TickLoop);
        for &c in ALL.iter().filter(|&&c| c != Component::TickLoop) {
            assert_eq!(
                u128::from(snap.share_ppm(c)),
                u128::from(snap.wall_ns(c)) * 1_000_000 / u128::from(loop_ns),
                "{c:?}'s share is its wall time over the loop's"
            );
        }
        let (pe, st) = (Component::PeTick, Component::Stats);
        let (long, short) = if snap.wall_ns(pe) >= snap.wall_ns(st) {
            (pe, st)
        } else {
            (st, pe)
        };
        assert!(
            snap.share_ppm(long) >= snap.share_ppm(short),
            "the longer recorded scope gets the larger share"
        );
    }

    #[test]
    fn component_names_are_stable_and_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names[0], "tick_loop");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "names must be unique");
    }
}
