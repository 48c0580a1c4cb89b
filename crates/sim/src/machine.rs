//! The tick engine: runs one compiled kernel to quiescence.
//!
//! Matching the paper's methodology (Sec. VI-A), every hardware component
//! is ticked each cycle it has work: routers move flits, PEs issue
//! operations. The machine co-simulates function and timing — the output
//! vector carries real `f64` results that are validated against the
//! reference solvers.
//!
//! There is one engine, a per-cycle loop over an active-tile list, so
//! the per-cycle cost is proportional to the tiles that have work. A tile
//! that has work but provably cannot act for a while — a flit in a long
//! hop, a RAW hazard window, a dependence not yet arrived — is *parked*
//! until its wake cycle instead of being ticked, and its skipped cycles
//! are credited in one step when it wakes; when every busy tile is
//! parked the clock jumps to the earliest wake. This matters in the long
//! dependence-limited tails of SpTRSV. Results are byte-identical to
//! ticking every busy tile every cycle, which the unit tests check
//! against exactly that loop (the oracle). See `docs/PERFORMANCE.md`.
//!
//! A program's first fault-free, untraced, unprofiled launch under a
//! config also records its slot arithmetic, and later such launches
//! under an equal config replay that record instead of ticking
//! ([`run_kernel_checked`]; `crate::replay`): same output bits, same
//! statistics, no tick. A record bound to a caller's values replays the
//! same way with no program (`run_bound`).

use crate::config::SimConfig;
use crate::faults::{FaultEvent, FaultKind, FaultSession};
use crate::invariants::Checker;
use crate::pe::{trace_wake, trigger_code, Pe, PeSkipClass, Trigger};
use crate::profile::{self, Component};
use crate::program::Program;
use crate::replay::{self, Plan, Record, Replay};
use crate::router::{tick_router, Accept, Delivery, FlitKind, Router};
use crate::stats::KernelStats;
use azul_telemetry::trace::{TraceEvent, TraceKind, CAT_FAULT, CAT_KERNEL};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stable code carried in the `arg` of [`TraceKind::FaultFire`] events.
fn fault_code(kind: &FaultKind) -> u64 {
    match kind {
        FaultKind::SramBitFlip { .. } => 0,
        FaultKind::LinkDown { .. } => 1,
        FaultKind::LinkDegrade { .. } => 2,
        FaultKind::PeStall { .. } => 3,
        FaultKind::PeKill { .. } => 4,
    }
}

/// A structured failure of a simulated kernel or solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The kernel hung: either no counter moved for
    /// `watchdog_no_progress_cycles` consecutive cycles, or the run hit
    /// the `max_kernel_cycles` deadline with tiles still active.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Tiles whose PE still held undrained work.
        stalled_pes: Vec<u32>,
        /// Flits buffered across all routers at abort time.
        inflight_flits: usize,
    },
    /// A runtime invariant of the simulated machine was violated
    /// ([`crate::invariants`]): a conservation law, buffer bound or
    /// accounting cross-check failed, meaning the model itself (not the
    /// workload) is wrong. Only raised when
    /// `SimConfig::check_invariants` is set.
    Invariant {
        /// The violated rule, one of
        /// [`crate::invariants::RULE_NAMES`].
        rule: &'static str,
        /// Cycle (kernel-local) at which the violation was detected.
        cycle: u64,
        /// Human-readable account of the mismatch.
        detail: String,
    },
    /// A trigger was delivered to a tile whose program has no matching
    /// slot or column range: the compiled routing tables and the tile
    /// programs disagree, so the compiler (not the workload) is wrong.
    /// Formerly a panic inside the PE tick; surfacing it as a typed
    /// error lets the supervisor ladders record the failure instead of
    /// tearing the process down.
    MisroutedTrigger {
        /// Kernel-local cycle at which the trigger was dequeued.
        cycle: u64,
        /// Tile whose PE received the trigger.
        tile: u32,
        /// Which trigger kind and index had no program entry.
        detail: String,
    },
    /// The kernel was abandoned cooperatively: the
    /// [`CancelToken`](crate::CancelToken) armed via
    /// [`SimConfig::cancel`] tripped. The flag is sampled once per loop
    /// iteration, between cycles, so the abort always lands on a cycle
    /// boundary regardless of parked tiles. Not a machine
    /// failure — the host asked the run to stop (deadline, client gone,
    /// service shutdown).
    Cancelled {
        /// Kernel-local cycle at which the cancellation was observed.
        cycle: u64,
    },
    /// The simulator was handed arguments it cannot run: a right-hand
    /// side or kernel input whose length differs from the matrix
    /// dimension, a config grid unlike the program's, or a zero GMRES
    /// restart length. Nothing was simulated.
    Input {
        /// What was wrong with the input.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock {
                cycle,
                stalled_pes,
                inflight_flits,
            } => write!(
                f,
                "kernel deadlocked at cycle {cycle}: {} stalled PE(s) {:?}, {inflight_flits} in-flight flit(s)",
                stalled_pes.len(),
                stalled_pes
            ),
            SimError::Invariant {
                rule,
                cycle,
                detail,
            } => write!(f, "invariant `{rule}` violated at cycle {cycle}: {detail}"),
            SimError::MisroutedTrigger {
                cycle,
                tile,
                detail,
            } => write!(f, "misrouted trigger at cycle {cycle} on tile {tile}: {detail}"),
            SimError::Cancelled { cycle } => {
                write!(f, "kernel cancelled at cycle {cycle}")
            }
            SimError::Input { detail } => write!(f, "invalid simulator input: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Consecutive no-progress ticks after which a busy tile is considered
/// for parking. A single quiet tick is routine (a RAW hazard window, a
/// flit one hop out) and usually followed by progress, so the wake
/// analysis only runs from the second one on.
const PARK_AFTER_QUIET_TICKS: u8 = 2;

/// Host work done by one kernel run, in tile-cycles: `ticked` tile
/// ticks executed, and `credited` tile-cycles a parked tile was
/// credited for instead of being ticked. Their sum is exactly the
/// tick count of the per-cycle loop with parking off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TileCycles {
    ticked: u64,
    credited: u64,
}

/// Parking state (`docs/PERFORMANCE.md`).
///
/// A parked tile is one the per-cycle loop would still tick every
/// cycle, but which provably cannot act before `wake[t]`: its PE wake
/// profile ([`Pe::wake_profile`]) and router head analysis
/// ([`Router::next_event`]) bound the next cycle it could forward,
/// deliver, refill or issue. Those skipped ticks would only rotate the
/// router's arbitration cursor and record idle/stall and occupancy-audit
/// bookkeeping, which is credited **once**, when the tile wakes, over
/// `[since[t], wake)`. An arrival only pulls `wake[t]` earlier and never
/// restarts the span, so a mid-span wake cannot double-credit.
struct Parking {
    /// Consecutive ticks without progress, per tile.
    quiet: Vec<u8>,
    parked: Vec<bool>,
    /// Meaningful only while parked.
    wake: Vec<u64>,
    /// First cycle of the parked span not yet credited.
    since: Vec<u64>,
    class: Vec<PeSkipClass>,
    /// Min-heap of `(wake, tile)` with lazy deletion: an entry is live
    /// only while it matches `wake[t]` of a parked tile. Wakes only move
    /// earlier within a span, so stale entries are always later ones.
    calendar: BinaryHeap<Reverse<(u64, usize)>>,
    num_parked: usize,
    counts: TileCycles,
}

impl Parking {
    fn new(num_tiles: usize) -> Self {
        Parking {
            quiet: vec![0; num_tiles],
            parked: vec![false; num_tiles],
            wake: vec![0; num_tiles],
            since: vec![0; num_tiles],
            class: vec![PeSkipClass::Silent; num_tiles],
            calendar: BinaryHeap::new(),
            num_parked: 0,
            counts: TileCycles::default(),
        }
    }

    fn park(&mut self, t: usize, since: u64, class: PeSkipClass, wake: u64) {
        self.parked[t] = true;
        self.num_parked += 1;
        self.since[t] = since;
        self.class[t] = class;
        self.wake[t] = wake;
        self.calendar.push(Reverse((wake, t)));
    }

    /// An arrival at parked tile `t` that becomes serviceable at `at`.
    fn pull(&mut self, t: usize, at: u64) {
        if at < self.wake[t] {
            self.wake[t] = at;
            self.calendar.push(Reverse((at, t)));
        }
    }

    /// The earliest live wake, discarding stale calendar entries.
    fn next_wake(&mut self) -> Option<u64> {
        while let Some(&Reverse((w, t))) = self.calendar.peek() {
            if self.parked[t] && self.wake[t] == w {
                return Some(w);
            }
            self.calendar.pop();
        }
        None
    }

    /// Unparks the next tile due at or before `now`, returning it with
    /// its span's skip class and uncredited length.
    fn pop_due(&mut self, now: u64) -> Option<(usize, PeSkipClass, u64)> {
        if self.next_wake()? > now {
            return None;
        }
        let Reverse((_, t)) = self.calendar.pop()?;
        self.parked[t] = false;
        self.num_parked -= 1;
        let k = now - self.since[t];
        self.counts.credited += k;
        Some((t, self.class[t], k))
    }
}

/// Every tile's router and PE, with the injected stall/kill windows and
/// the per-cycle scratch buffers of the tick phase.
struct Tiles {
    routers: Vec<Router>,
    pes: Vec<Pe>,
    /// Injected PE stall/kill windows, per tile.
    stalled: Vec<bool>,
    /// Scratch: local deliveries of the tile being ticked.
    deliveries: Vec<Delivery>,
    /// Cross-tile flit arrivals produced this cycle, applied once every
    /// tile has ticked (see "The outbox" in `docs/PERFORMANCE.md`).
    outbox: Vec<Accept>,
}

impl Tiles {
    /// Ticks tile `t` for cycle `now`: its router first, so deliveries
    /// trigger PE tasks this same cycle, then its PE — unless inside an
    /// injected stall/kill window, in which case the router keeps
    /// forwarding and triggers keep queueing so the tile stays active
    /// (and a permanent kill is observable as a watchdog hang). Returns
    /// whether the tile made progress.
    #[allow(clippy::too_many_arguments)]
    fn tick(
        &mut self,
        t: usize,
        now: u64,
        cfg: &SimConfig,
        program: &Program,
        input: &[f64],
        out: &mut [f64],
        profiling: bool,
        stats: &mut KernelStats,
        rec: &mut impl Record,
    ) -> Result<bool, SimError> {
        let router = &mut self.routers[t];
        let pe = &mut self.pes[t];
        self.deliveries.clear();
        let mut progressed = {
            let _p = profiling.then(|| profile::scope(Component::RouterTick));
            tick_router(
                router,
                now,
                cfg.hop_latency as u64,
                program,
                &mut self.deliveries,
                &mut self.outbox,
                stats,
            )
        };
        for d in &self.deliveries {
            let trig = match d.flit.kind {
                FlitKind::X => Trigger::X {
                    idx: d.flit.idx,
                    val: d.flit.val,
                },
                FlitKind::Partial => Trigger::Partial {
                    idx: d.flit.idx,
                    val: d.flit.val,
                    src: d.flit.src,
                },
            };
            pe.push_trigger(cfg, trig, stats);
            trace_wake(stats, now, t as u32, trigger_code(&trig));
        }
        if !self.stalled[t] {
            let _p = profiling.then(|| profile::scope(Component::PeTick));
            let tp = program.tile(t as u32);
            progressed |= pe.tick(now, cfg, tp, program, router, input, out, stats, rec)?;
        }
        Ok(progressed)
    }

    /// Whether tile `t` still holds router or PE work.
    fn busy(&self, t: usize) -> bool {
        self.pes[t].has_work() || !self.routers[t].is_empty()
    }

    /// The skip class and earliest action cycle of tile `t` as of cycle
    /// `now`, right after its tick at `now - 1`: the earlier of its PE's
    /// wake profile and its router's next head event. `None` when
    /// neither reports a self-driven wake.
    fn wake_of(
        &self,
        t: usize,
        now: u64,
        cfg: &SimConfig,
        program: &Program,
    ) -> Option<(PeSkipClass, u64)> {
        let router = &self.routers[t];
        let (class, pe_wake) =
            self.pes[t].wake_profile(now, cfg, program.tile(t as u32), router.can_inject());
        let wake = match (pe_wake, router.next_event(now)) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b)?,
        };
        Some((class, wake))
    }

    /// Re-applies the session's active fault windows onto freshly
    /// cleared router/PE fault state. Called whenever the window set
    /// changes; rare enough that the O(tiles) reset does not matter.
    fn sync_faults(&mut self, session: &FaultSession, local_now: u64) {
        for r in &mut self.routers {
            r.clear_faults();
        }
        self.stalled.fill(false);
        let gnow = session.global_cycle(local_now);
        for &(kind, until) in session.active_windows() {
            if until <= gnow {
                continue;
            }
            match kind {
                FaultKind::LinkDown { tile, dir, .. } => {
                    self.routers[tile as usize].inject_link_down(dir as usize);
                }
                FaultKind::LinkDegrade {
                    tile,
                    extra_latency,
                    ..
                } => self.routers[tile as usize].inject_link_degrade(extra_latency),
                FaultKind::PeStall { tile, .. } | FaultKind::PeKill { tile } => {
                    self.stalled[tile as usize] = true;
                }
                FaultKind::SramBitFlip { .. } => {}
            }
        }
    }
}

/// Runs `program` on the simulated machine.
///
/// `input` is the trigger vector: `x` for SpMV, `b` for SpTRSV. Returns
/// the output vector (`y` or the solved `x`) and kernel statistics.
///
/// This is the infallible zero-fault wrapper around
/// [`run_kernel_checked`]; a plan in `cfg.faults` is still honored (a
/// fresh single-kernel [`FaultSession`] is created internally).
///
/// # Panics
///
/// Panics on any [`SimError`]: a wrong input length or grid, or the
/// `max_kernel_cycles` / watchdog deadlock tripwires.
pub fn run_kernel(cfg: &SimConfig, program: &Program, input: &[f64]) -> (Vec<f64>, KernelStats) {
    match run_kernel_checked(cfg, program, input, None) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Runs `program` on the simulated machine, returning structured errors
/// instead of panicking on hangs, and optionally injecting faults.
///
/// Without a fault session or plan, event trace, per-tile detail,
/// progress trace or host-profiling probes, the first launch of a
/// program under a config records its slot arithmetic, and a later
/// launch under an equal config replays it on the new input instead of
/// ticking: the output bits and statistics are the engine's, a tripped
/// cancel token returns [`SimError::Cancelled`] at cycle 0, and no
/// tile-cycles are counted in [`crate::profile`].
///
/// `faults` threads a [`FaultSession`] across successive kernels so a
/// [`FaultPlan`](crate::faults::FaultPlan)'s global cycle schedule spans
/// a whole solve. When `faults` is `None` but `cfg.faults` holds a plan,
/// a session scoped to this single kernel is created internally. With
/// neither, the fault machinery is never consulted (zero-fault fast
/// path).
///
/// # Errors
///
/// Returns [`SimError::Input`] when `input.len() != program.n` or the
/// config grid does not match the program grid (nothing is simulated),
/// and [`SimError::Deadlock`] when the kernel exceeds
/// `cfg.max_kernel_cycles`, or when no forward progress is observed for
/// `cfg.watchdog_no_progress_cycles` consecutive cycles (e.g. after a
/// `PeKill` fault strands undrained work).
#[must_use = "a dropped result discards both the kernel output and the structured failure"]
pub fn run_kernel_checked(
    cfg: &SimConfig,
    program: &Program,
    input: &[f64],
    faults: Option<&mut FaultSession>,
) -> Result<(Vec<f64>, KernelStats), SimError> {
    let (out, stats, counts) = launch(cfg, program, input, faults)?;
    if let Some(c) = counts {
        profile::count_engine_launch(c.ticked, c.credited);
    }
    Ok((out, stats))
}

/// Launches a kernel that may hold a record bound to its caller's values
/// (`PcgSim`): a launch that qualifies ([`replay::replayable`]) under
/// the record's config replays `bound` with no program; any other runs
/// [`run_kernel_checked`] on `program()`, which may compile it.
pub(crate) fn run_bound<'p>(
    cfg: &SimConfig,
    bound: Option<&Replay>,
    program: impl FnOnce() -> &'p Program,
    input: &[f64],
    faults: Option<&mut FaultSession>,
) -> Result<(Vec<f64>, KernelStats), SimError> {
    match bound {
        Some(r) if replay::replayable(cfg, faults.is_some()) && r.recorded_under(cfg) => {
            replay_launch(cfg, r, input)
        }
        _ => run_kernel_checked(cfg, program(), input, faults),
    }
}

/// A replay of `r` on `input`: [`SimError::Input`] on a wrong length,
/// [`SimError::Cancelled`] at cycle 0 when the token has tripped.
fn replay_launch(
    cfg: &SimConfig,
    r: &Replay,
    input: &[f64],
) -> Result<(Vec<f64>, KernelStats), SimError> {
    if input.len() != r.n() {
        return Err(SimError::Input {
            detail: format!(
                "kernel input has length {}, program expects {}",
                input.len(),
                r.n()
            ),
        });
    }
    if cfg.cancel.as_ref().is_some_and(|tok| tok.is_cancelled()) {
        return Err(SimError::Cancelled { cycle: 0 });
    }
    Ok((r.replay(input), r.stats().clone()))
}

/// One launch of `program`: a replay of its recorded launch when it
/// has one under `cfg` and the launch qualifies
/// ([`replay::replayable`]), the tick engine otherwise. A replayable
/// launch of a program with no record yet records one. Also returns the
/// engine's host work, `None` for a replay, which ticks nothing.
fn launch(
    cfg: &SimConfig,
    program: &Program,
    input: &[f64],
    faults: Option<&mut FaultSession>,
) -> Result<(Vec<f64>, KernelStats, Option<TileCycles>), SimError> {
    let engine = |faults| {
        run_engine(cfg, program, input, faults, true, &mut ()).map(|(o, s, c)| (o, s, Some(c)))
    };
    if !replay::replayable(cfg, faults.is_some()) {
        return engine(faults);
    }
    match replay::plan(cfg, program) {
        Plan::Replay(r) => {
            check_input(cfg, program, input)?;
            replay_launch(cfg, r, input).map(|(out, stats)| (out, stats, None))
        }
        Plan::Record(mut rec) => {
            let (out, stats, c) = run_engine(cfg, program, input, None, true, &mut rec)?;
            replay::keep(cfg, program, rec, &stats);
            Ok((out, stats, Some(c)))
        }
        Plan::Engine => engine(None),
    }
}

/// [`SimError::Input`] unless `input` has the program's length and
/// `cfg` the program's grid.
fn check_input(cfg: &SimConfig, program: &Program, input: &[f64]) -> Result<(), SimError> {
    if input.len() != program.n {
        return Err(SimError::Input {
            detail: format!(
                "kernel input has length {}, program expects {}",
                input.len(),
                program.n
            ),
        });
    }
    let num_tiles = cfg.grid.num_tiles();
    if num_tiles != program.grid.num_tiles() {
        return Err(SimError::Input {
            detail: format!(
                "config grid has {num_tiles} tiles, program was compiled for {}",
                program.grid.num_tiles()
            ),
        });
    }
    Ok(())
}

/// The per-cycle oracle: the same loop as [`run_kernel_checked`] with
/// parking off, so every tile with work ticks every cycle.
#[cfg(test)]
fn run_kernel_oracle(
    cfg: &SimConfig,
    program: &Program,
    input: &[f64],
    faults: Option<&mut FaultSession>,
) -> Result<(Vec<f64>, KernelStats, TileCycles), SimError> {
    run_engine(cfg, program, input, faults, false, &mut ())
}

/// The tick engine behind [`run_kernel_checked`]; `allow_parking`
/// false is the per-cycle oracle. Slot arithmetic goes to `rec` in issue
/// order. Also returns the host work done.
fn run_engine(
    cfg: &SimConfig,
    program: &Program,
    input: &[f64],
    faults: Option<&mut FaultSession>,
    allow_parking: bool,
    rec: &mut impl Record,
) -> Result<(Vec<f64>, KernelStats, TileCycles), SimError> {
    check_input(cfg, program, input)?;
    let num_tiles = cfg.grid.num_tiles();

    let mut stats = KernelStats::default();
    if cfg.detailed_stats {
        stats.enable_detail(num_tiles);
    }
    if let Some(tc) = cfg.trace {
        stats.trace_ev.configure(tc);
        if stats.trace_ev.wants(CAT_KERNEL) {
            stats.trace_ev.push(TraceEvent {
                cycle: 0,
                tile: 0,
                kind: TraceKind::KernelBegin,
                arg: 0,
            });
        }
    }
    let mut inv = Checker::new(cfg);
    let mut out = vec![0.0f64; program.n];
    let mut tiles = Tiles {
        routers: (0..num_tiles)
            .map(|t| Router::new(program.grid, t as u32, cfg.router_queue_capacity))
            .collect(),
        pes: (0..num_tiles as u32)
            .scan(0u32, |base, t| {
                let tp = program.tile(t);
                let pe = Pe::new(t, *base, cfg, tp, input);
                *base += tp.slots.len() as u32;
                Some(pe)
            })
            .collect(),
        stalled: vec![false; num_tiles],
        deliveries: Vec::new(),
        outbox: Vec::new(),
    };

    // Fault session: the caller's cross-kernel session wins; otherwise a
    // config-level plan gets a session scoped to this kernel. `None`
    // keeps the zero-fault fast path (no per-cycle fault checks at all).
    let mut local_session = match &faults {
        None => cfg
            .faults
            .as_ref()
            .filter(|p| !p.is_empty())
            .map(|p| FaultSession::new(p.clone())),
        Some(_) => None,
    };
    let mut session: Option<&mut FaultSession> = faults.or(local_session.as_mut());
    let faulting = session.as_ref().is_some_and(|s| !s.fault_free());
    // Fault runs tick every active tile every cycle: window openings,
    // expiries and injected stalls then need no wake bookkeeping.
    let parking = allow_parking && !faulting;
    let mut fired: Vec<FaultEvent> = Vec::new();
    // Windows opened in an earlier kernel of the same session (e.g. a
    // PeKill) must constrain this kernel from cycle 0.
    if let Some(s) = session.as_deref().filter(|_| faulting) {
        if !s.active_windows().is_empty() {
            tiles.sync_faults(s, 0);
        }
    }

    // Active-tile tracking: a tile ticks while it has router or PE work
    // and is not parked. `ticking` holds the cycle being ticked while
    // `active` collects the next one.
    let mut active: Vec<usize> = Vec::with_capacity(num_tiles);
    let mut ticking: Vec<usize> = Vec::with_capacity(num_tiles);
    let mut on_list: Vec<bool> = vec![false; num_tiles];
    let activate = |t: usize, active: &mut Vec<usize>, on_list: &mut Vec<bool>| {
        if !on_list[t] {
            on_list[t] = true;
            active.push(t);
        }
    };
    let mut park = Parking::new(if parking { num_tiles } else { 0 });

    // Kernel-start triggers.
    for t in 0..num_tiles {
        let pe = &mut tiles.pes[t];
        let tp = program.tile(t as u32);
        for &j in &tp.send_v {
            if program.x_tree[j as usize].is_some() {
                let trig = Trigger::SendV { idx: j };
                pe.push_trigger(cfg, trig, &mut stats);
                trace_wake(&mut stats, 0, t as u32, trigger_code(&trig));
            }
            if tp.saac_range(j).is_some() {
                let trig = Trigger::X {
                    idx: j,
                    val: input[j as usize],
                };
                pe.push_trigger(cfg, trig, &mut stats);
                trace_wake(&mut stats, 0, t as u32, trigger_code(&trig));
            }
        }
        for &i in &tp.initial_solves {
            let trig = Trigger::Solve { idx: i };
            pe.push_trigger(cfg, trig, &mut stats);
            trace_wake(&mut stats, 0, t as u32, trigger_code(&trig));
        }
        if pe.has_work() {
            activate(t, &mut active, &mut on_list);
        }
    }

    let mut now = 0u64;
    // Watchdog state: a monotone progress signature and the last cycle it
    // moved. Any issued op, message, link hop or router traversal counts.
    let mut last_signature = u64::MAX;
    let mut last_progress = 0u64;
    // Closes the fault session on every early exit.
    let abort = |session: &mut Option<&mut FaultSession>, now: u64, e: SimError| {
        if let Some(s) = session.as_deref_mut() {
            s.end_kernel(now);
        }
        Err(e)
    };

    // Host-profiling: one flag load per kernel; the TickLoop scope
    // encloses every inner probe so component shares can be expressed
    // against it.
    let profiling = profile::enabled();
    let prof_loop = profiling.then(|| profile::scope(Component::TickLoop));

    while !active.is_empty() || park.num_parked > 0 {
        // Cooperative cancellation: sampled once per iteration, at the
        // boundary right after the previous cycle's arrivals landed or
        // right after a clock jump, so an abort always lands on a cycle
        // boundary. Untripped (or absent) tokens cost one branch.
        if cfg.cancel.as_ref().is_some_and(|tok| tok.is_cancelled()) {
            return abort(&mut session, now, SimError::Cancelled { cycle: now });
        }

        // Fault schedule: fire due events, expire windows, re-sync
        // injected router/PE state when the window set changes.
        if faulting {
            // azul-lint: allow(unwrap-in-pipeline) `faulting` is derived from `session.is_some_and` above
            let s = session.as_deref_mut().expect("faulting implies session");
            fired.clear();
            let trace_faults = stats.trace_ev.wants(CAT_FAULT);
            let prev_windows = if trace_faults {
                s.active_windows().to_vec()
            } else {
                Vec::new()
            };
            if s.advance(now, num_tiles, &mut fired) {
                tiles.sync_faults(s, now);
                if trace_faults {
                    // Mark each window that opened this cycle
                    // (expired ones just vanish from the set).
                    for &(kind, until) in s.active_windows() {
                        if !prev_windows.contains(&(kind, until)) {
                            stats.trace_ev.push(TraceEvent {
                                cycle: now,
                                tile: kind.tile(),
                                kind: TraceKind::FaultFire,
                                arg: fault_code(&kind),
                            });
                        }
                    }
                }
            }
            for ev in fired.drain(..) {
                if trace_faults {
                    stats.trace_ev.push(TraceEvent {
                        cycle: now,
                        tile: ev.kind.tile(),
                        kind: TraceKind::FaultFire,
                        arg: fault_code(&ev.kind),
                    });
                }
                let FaultKind::SramBitFlip { tile, slot, bit } = ev.kind else {
                    unreachable!("only bit flips are handed to the machine");
                };
                let gnow = s.global_cycle(now);
                match tiles.pes[tile as usize].flip_slot_bit(slot, bit) {
                    Some((old, new)) => {
                        s.record(gnow, ev.kind, true, format!("{old:e} -> {new:e}"));
                    }
                    None => s.record(
                        gnow,
                        ev.kind,
                        false,
                        format!("tile {tile} has no slot {slot}"),
                    ),
                }
            }
            if s.suspends_watchdog(now) {
                last_progress = now;
            }
        }

        // Watchdog: structured deadlock report instead of spinning to
        // the 500M-cycle deadline (or panicking there).
        let prof_stats = profiling.then(|| profile::scope(Component::Stats));
        let sig_src = stats.messages + stats.link_activations;
        let signature = stats.total_ops() + sig_src + stats.router_traversals;
        if signature != last_signature {
            last_signature = signature;
            last_progress = now;
        }
        // Flits in multi-hop transit are progress even while the
        // signature holds still (a long `hop_latency` drain issues
        // nothing for many cycles): every send/forward has been counted
        // but not yet retired as a router traversal, so hold the
        // watchdog off until the counters rebalance. A permanently
        // parked flit (a LinkDown that never lifts) then falls through
        // to the `max_kernel_cycles` deadline.
        let inflight_ctr = sig_src.saturating_sub(stats.router_traversals);
        if inflight_ctr > 0 {
            last_progress = now;
        }
        let wedged = cfg.watchdog_no_progress_cycles > 0
            && now.saturating_sub(last_progress) >= cfg.watchdog_no_progress_cycles;
        if wedged || now >= cfg.max_kernel_cycles {
            let stalled_pes = (0..num_tiles)
                .filter(|&t| tiles.pes[t].has_work())
                .map(|t| t as u32)
                .collect();
            let inflight_flits = tiles.routers.iter().map(Router::occupancy).sum();
            let e = SimError::Deadlock {
                cycle: now,
                stalled_pes,
                inflight_flits,
            };
            return abort(&mut session, now, e);
        }
        drop(prof_stats);

        // Wake parked tiles that are due, crediting each span once with
        // what its skipped ticks would have recorded: the
        // arbitration-cursor rotation, the idle/stall counters and the
        // occupancy audits.
        if park.num_parked > 0 {
            let _prof_park = profiling.then(|| profile::scope(Component::Park));
            while let Some((t, class, k)) = park.pop_due(now) {
                tiles.routers[t].advance_rr(k);
                match class {
                    PeSkipClass::Idle => stats.idle_at_n(t as u32, k),
                    PeSkipClass::Stall => stats.stall_at_n(t as u32, k),
                    PeSkipClass::Silent => {}
                }
                inv.credit_occupancy_checks(k);
                activate(t, &mut active, &mut on_list);
            }
            // Nothing to tick: jump the clock to the earliest wake,
            // clamped so the watchdog and the deadline fire on the cycle
            // they would have fired ticking. The skipped cycles change no
            // state, so the progress samples they would have taken are
            // replayed, and the watchdog refresh (constant across the
            // span) lands on its last cycle.
            if active.is_empty() {
                let mut ne = cfg.max_kernel_cycles;
                if cfg.watchdog_no_progress_cycles > 0 {
                    ne = ne.min(last_progress.saturating_add(cfg.watchdog_no_progress_cycles));
                }
                if let Some(w) = park.next_wake() {
                    ne = ne.min(w);
                }
                if cfg.trace_interval > 0 {
                    let total = stats.total_ops();
                    let iv = cfg.trace_interval;
                    let mut c = now.next_multiple_of(iv);
                    while c < ne {
                        stats.trace.push((c, total));
                        c += iv;
                    }
                }
                if inflight_ctr > 0 {
                    last_progress = ne - 1;
                }
                now = ne;
                continue;
            }
        }

        // Tick phase: every active tile, in list order. A tile that still
        // holds work re-arms for the next cycle or parks.
        std::mem::swap(&mut active, &mut ticking);
        park.counts.ticked += ticking.len() as u64;
        for &t in &ticking {
            let progressed = match tiles.tick(
                t, now, cfg, program, input, &mut out, profiling, &mut stats, rec,
            ) {
                Ok(p) => p,
                Err(e) => return abort(&mut session, now, e),
            };
            // Runtime invariant: the inject queue is the only bounded
            // buffer; exceeding its capacity means a PE bypassed
            // `can_inject` backpressure.
            if let Err(e) = inv.check_router(now, &tiles.routers[t]) {
                return abort(&mut session, now, e);
            }
            let _p = profiling.then(|| profile::scope(Component::Commit));
            on_list[t] = false;
            if !tiles.busy(t) {
                continue;
            }
            if parking {
                if progressed {
                    park.quiet[t] = 0;
                } else {
                    park.quiet[t] = park.quiet[t].saturating_add(1);
                    if park.quiet[t] >= PARK_AFTER_QUIET_TICKS {
                        if let Some((class, w)) = tiles.wake_of(t, now + 1, cfg, program) {
                            if w > now + 1 {
                                park.park(t, now + 1, class, w);
                                continue;
                            }
                        }
                    }
                }
            }
            activate(t, &mut active, &mut on_list);
        }
        ticking.clear();

        // Commit: land the cycle's flit arrivals. An arrival only ever
        // pulls a parked tile's wake earlier. An idle tile whose new
        // flit is not ready next cycle parks straight away: its PE is
        // empty, so the span until the flit is ready is pure idle time.
        let prof_commit = profiling.then(|| profile::scope(Component::Commit));
        for a in tiles.outbox.drain(..) {
            let d = a.dest as usize;
            tiles.routers[d].apply_accept(a.port as usize, a.ready, a.flit);
            let at = a.ready.max(now + 1);
            if parking && park.parked[d] {
                park.pull(d, at);
            } else if parking && !on_list[d] && at > now + 1 {
                let (class, _) = tiles.pes[d].wake_profile(
                    now + 1,
                    cfg,
                    program.tile(d as u32),
                    tiles.routers[d].can_inject(),
                );
                park.park(d, now + 1, class, at);
            } else {
                activate(d, &mut active, &mut on_list);
            }
        }
        drop(prof_commit);

        // Progress trace sample (Fig. 17).
        if cfg.trace_interval > 0 && now.is_multiple_of(cfg.trace_interval) {
            let _p = profiling.then(|| profile::scope(Component::Stats));
            stats.trace.push((now, stats.total_ops()));
        }

        now += 1;
    }
    drop(prof_loop);

    let inflight: usize = tiles.routers.iter().map(Router::occupancy).sum();
    stats.cycles = now;
    // Close the progress trace with an exact final sample so the last
    // entry always matches the kernel totals.
    if cfg.trace_interval > 0 && stats.trace.last() != Some(&(now, stats.total_ops())) {
        stats.trace.push((now, stats.total_ops()));
    }
    // Close and seal the event trace: the KernelEnd marker balances the
    // cycle-0 KernelBegin, and the seal sorts the events into canonical
    // order (then applies the bounded-capacity compaction).
    if stats.trace_ev.mask() != 0 {
        if stats.trace_ev.wants(CAT_KERNEL) {
            stats.trace_ev.push(TraceEvent {
                cycle: now,
                tile: 0,
                kind: TraceKind::KernelEnd,
                arg: 0,
            });
        }
        stats.trace_ev.seal();
    }
    // Kernel-end invariants: flit conservation (the machine never drops
    // flits — faults delay or corrupt payloads, but every queued flit
    // retires — so the dropped-by-fault term is zero; quiescence means
    // in-flight is zero too), trace monotonicity, and the
    // aggregate-vs-detail cross-check.
    let end_check = if inv.enabled() {
        inv.check_kernel_end(&stats, inflight, 0)
    } else {
        Ok(())
    };
    inv.finish(&mut stats);
    if let Some(s) = session {
        s.end_kernel(now);
    }
    end_check?;
    Ok((out, stats, park.counts))
}

#[cfg(test)]
mod oracle_tests;

#[cfg(test)]
mod replay_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeModel;
    use crate::program::Program;
    use azul_mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_solver::ic0::ic0;
    use azul_solver::kernels::{sptrsv_lower, sptrsv_lower_transpose};
    use azul_sparse::{dense, generate};

    fn test_input(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 29 % 13) as f64) / 13.0 + 0.2)
            .collect()
    }

    #[test]
    fn spmv_matches_reference_on_grid() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let prog = Program::compile_spmv(&a, &p);
        let cfg = SimConfig::azul(grid);
        let x = test_input(a.rows());
        let (y, stats) = run_kernel(&cfg, &prog, &x);
        let expect = a.spmv(&x);
        assert!(
            dense::max_abs_diff(&y, &expect) < 1e-10,
            "sim SpMV diverges from reference"
        );
        assert_eq!(stats.ops_of(crate::stats::OpKind::Fmac), a.nnz() as u64);
        assert!(stats.cycles > 0);
        assert!(stats.messages > 0, "multi-tile run must communicate");
    }

    #[test]
    fn spmv_matches_reference_under_all_mappers() {
        let a = generate::fem_mesh_3d(120, 5, 3);
        let grid = TileGrid::new(4, 4);
        let x = test_input(a.rows());
        let expect = a.spmv(&x);
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(RoundRobinMapper),
            Box::new(BlockMapper),
            Box::new(AzulMapper::default()),
        ];
        for m in mappers {
            let p = m.map(&a, grid);
            let prog = Program::compile_spmv(&a, &p);
            let cfg = SimConfig::azul(grid);
            let (y, _) = run_kernel(&cfg, &prog, &x);
            assert!(
                dense::max_abs_diff(&y, &expect) < 1e-9,
                "mapper {} wrong",
                m.name()
            );
        }
    }

    #[test]
    fn sptrsv_lower_matches_reference() {
        let a = generate::fem_mesh_3d(100, 4, 7);
        let l = ic0(&a).unwrap();
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        let cfg = SimConfig::azul(grid);
        let b = test_input(a.rows());
        let (x, stats) = run_kernel(&cfg, &prog, &b);
        let expect = sptrsv_lower(&l, &b);
        assert!(
            dense::rel_l2_diff(&x, &expect) < 1e-10,
            "sim SpTRSV diverges"
        );
        // One Mul (diagonal solve) per row.
        assert_eq!(stats.ops_of(crate::stats::OpKind::Mul), a.rows() as u64);
    }

    #[test]
    fn sptrsv_upper_matches_reference() {
        let a = generate::fem_mesh_3d(100, 4, 7);
        let l = ic0(&a).unwrap();
        let grid = TileGrid::new(2, 2);
        let p = BlockMapper.map(&a, grid);
        let prog = Program::compile_sptrsv_upper(&l, &a, &p);
        let cfg = SimConfig::azul(grid);
        let b = test_input(a.rows());
        let (x, _) = run_kernel(&cfg, &prog, &b);
        let expect = sptrsv_lower_transpose(&l, &b);
        assert!(dense::rel_l2_diff(&x, &expect) < 1e-10);
    }

    #[test]
    fn tridiagonal_sptrsv_is_serial() {
        // The fully sequential case of Fig. 6: cycles must scale ~linearly
        // with n, far above the all-parallel lower bound.
        let a = generate::tridiagonal(64);
        let l = a.lower_triangle();
        let grid = TileGrid::new(2, 2);
        let p = BlockMapper.map(&a, grid);
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        let cfg = SimConfig::azul(grid);
        let b = vec![1.0; 64];
        let (x, stats) = run_kernel(&cfg, &prog, &b);
        let expect = sptrsv_lower(&l, &b);
        assert!(dense::rel_l2_diff(&x, &expect) < 1e-10);
        assert!(
            stats.cycles >= 64 * 2,
            "serial chain must take many cycles, got {}",
            stats.cycles
        );
    }

    #[test]
    fn ideal_pe_is_faster_than_azul_pe() {
        let a = generate::fem_mesh_3d(150, 6, 11);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let prog = Program::compile_spmv(&a, &p);
        let x = test_input(a.rows());
        let (y_azul, s_azul) = run_kernel(&SimConfig::azul(grid), &prog, &x);
        let (y_ideal, s_ideal) = run_kernel(&SimConfig::ideal(grid), &prog, &x);
        assert!(dense::max_abs_diff(&y_azul, &y_ideal) < 1e-9);
        assert!(
            s_ideal.cycles < s_azul.cycles,
            "ideal {} should beat azul {}",
            s_ideal.cycles,
            s_azul.cycles
        );
    }

    #[test]
    fn dalorex_pe_is_much_slower_than_azul_pe() {
        let a = generate::fem_mesh_3d(150, 6, 11);
        let grid = TileGrid::new(2, 2);
        let p = AzulMapper::default().map(&a, grid);
        let prog = Program::compile_spmv(&a, &p);
        let x = test_input(a.rows());
        let (y_a, s_a) = run_kernel(&SimConfig::azul(grid), &prog, &x);
        let (y_d, s_d) = run_kernel(&SimConfig::dalorex(grid), &prog, &x);
        assert!(dense::max_abs_diff(&y_a, &y_d) < 1e-9);
        assert!(
            s_d.cycles as f64 > 3.0 * s_a.cycles as f64,
            "dalorex {} vs azul {}",
            s_d.cycles,
            s_a.cycles
        );
    }

    #[test]
    fn better_mapping_means_fewer_link_activations() {
        let a = generate::fem_mesh_3d(200, 6, 19);
        let grid = TileGrid::new(4, 4);
        let x = test_input(a.rows());
        let run = |p: &azul_mapping::Placement| -> KernelStats {
            let prog = Program::compile_spmv(&a, p);
            run_kernel(&SimConfig::ideal(grid), &prog, &x).1
        };
        let rr = run(&RoundRobinMapper.map(&a, grid));
        let az = run(&AzulMapper::default().map(&a, grid));
        assert!(
            az.link_activations * 2 < rr.link_activations,
            "azul {} vs rr {}",
            az.link_activations,
            rr.link_activations
        );
    }

    #[test]
    fn single_threaded_pe_is_slower_or_equal() {
        let a = generate::fem_mesh_3d(120, 5, 23);
        let grid = TileGrid::new(2, 2);
        let p = AzulMapper::default().map(&a, grid);
        let prog = Program::compile_spmv(&a, &p);
        let x = test_input(a.rows());
        let multi = run_kernel(&SimConfig::azul(grid), &prog, &x).1;
        let mut cfg1 = SimConfig::azul(grid);
        cfg1.contexts = 1;
        cfg1.pe_model = PeModel::Azul;
        let single = run_kernel(&cfg1, &prog, &x).1;
        assert!(single.cycles >= multi.cycles);
    }

    #[test]
    fn watchdog_tolerates_multi_hop_drain_longer_than_window() {
        // Regression: with a hop latency far above the no-progress window,
        // a flit in transit moves no counter for `hop_latency - 1` cycles
        // per hop. On a serial dependence chain nothing else runs during
        // that transit, so the progress signature alone misreported the
        // drain as a deadlock; flits in flight must hold the watchdog off
        // until they retire. The tridiagonal SpTRSV chain crosses tiles
        // with exactly this single-flit quiet window.
        let a = generate::tridiagonal(48);
        let l = a.lower_triangle();
        let grid = TileGrid::new(2, 2);
        let p = BlockMapper.map(&a, grid);
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        let mut cfg = SimConfig::azul(grid);
        cfg.hop_latency = 40;
        cfg.watchdog_no_progress_cycles = 35;
        let b = test_input(48);
        let (x, _) = run_kernel_checked(&cfg, &prog, &b, None)
            .expect("in-flight flits must not trip the watchdog");
        let expect = sptrsv_lower(&l, &b);
        assert!(dense::rel_l2_diff(&x, &expect) < 1e-10);
    }

    #[test]
    fn delivery_to_deactivated_tile_rearms_it() {
        // Regression: a tile that drops off the active list in cycle `c`
        // while a flit arrives for it that same cycle must be re-queued,
        // or the kernel wedges. The serial tridiagonal chain bounces a
        // single dependence between tiles that go idle between messages;
        // sweeping the hop latency shifts the arrival against the
        // deactivation edge.
        let a = generate::tridiagonal(48);
        let l = a.lower_triangle();
        let grid = TileGrid::new(2, 2);
        let p = BlockMapper.map(&a, grid);
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        let b = test_input(48);
        let expect = sptrsv_lower(&l, &b);
        for hop in [1u32, 2, 3, 5, 8] {
            let mut cfg = SimConfig::azul(grid);
            cfg.hop_latency = hop;
            let (x, _) = run_kernel(&cfg, &prog, &b);
            assert!(
                dense::rel_l2_diff(&x, &expect) < 1e-10,
                "hop_latency {hop} lost a wakeup"
            );
        }
    }

    /// Parking engine and per-cycle oracle on the same inputs: asserts
    /// byte-identical results and that the engine's ticked plus credited
    /// tile-cycles are exactly the oracle's ticks. Returns the engine's
    /// result and host work.
    fn assert_matches_oracle(
        cfg: &SimConfig,
        prog: &Program,
        input: &[f64],
    ) -> ((Vec<f64>, KernelStats), TileCycles) {
        let (ox, os, oc) = run_kernel_oracle(cfg, prog, input, None).expect("oracle run");
        let (x, s, c) = run_engine(cfg, prog, input, None, true, &mut ()).expect("engine run");
        assert_eq!(x, ox, "output diverged from the oracle");
        assert_eq!(s, os, "stats diverged from the oracle");
        assert_eq!(oc.credited, 0, "the oracle never parks");
        assert_eq!(c.ticked + c.credited, oc.ticked, "tile-cycle accounting");
        ((x, s), c)
    }

    #[test]
    fn traced_engine_results_match_the_oracle() {
        // Parking is pure host mechanics: outputs and every statistic,
        // including per-tile detail, the progress trace and the sealed
        // event trace (events, order and drop accounting), must be
        // bit-identical to the per-cycle oracle.
        let a = generate::grid_laplacian_2d(10, 10);
        let l = ic0(&a).unwrap();
        let grid = TileGrid::new(4, 4);
        let p = AzulMapper::default().map(&a, grid);
        let spmv = Program::compile_spmv(&a, &p);
        let trsv = Program::compile_sptrsv_lower(&l, &a, &p);
        let input = test_input(a.rows());
        let mut cfg = SimConfig::azul(grid);
        cfg.detailed_stats = true;
        cfg.check_invariants = true;
        cfg.trace_interval = 7;
        cfg.trace = Some(azul_telemetry::trace::TraceConfig::default());
        for prog in [&spmv, &trsv] {
            let (base, _) = assert_matches_oracle(&cfg, prog, &input);
            assert!(
                !base.1.trace_ev.events.is_empty(),
                "traced kernel must record events"
            );
        }
    }

    #[test]
    fn event_engine_wakes_context_blocked_behind_issued_send() {
        // Regression: parking bounds a tile's next action by its PE
        // wake profile. A PE issues at most one operation per cycle, so
        // after a tick that issued from context A, context B can hold a
        // Send whose injection would succeed (`can_inject` true, router
        // possibly empty). Treating every Send front as "router-bound,
        // no self-driven wake" parked such a tile with no wake and an
        // event-less router, and the kernel wedged with zero in-flight
        // flits. This is the exact program/mapping that exposed it.
        let a = generate::grid_laplacian_2d(10, 10);
        let grid = TileGrid::new(4, 4);
        let p = AzulMapper::default().map(&a, grid);
        let prog = Program::compile_spmv(&a, &p);
        let input = test_input(a.rows());
        let mut cfg = SimConfig::azul(grid);
        // Tight watchdog: a reintroduced lost wakeup fails fast instead
        // of burning the full default horizon.
        cfg.watchdog_no_progress_cycles = 2_000;
        assert_matches_oracle(&cfg, &prog, &input);
    }

    #[test]
    fn fast_forward_never_skips_past_blocked_head() {
        // Regression (over-skip audit): a LinkDown outage parks a
        // head-of-line flit with *no* self-driven wake. An engine that
        // jumps past the window anyway would silently deflate the cycle
        // count — the solve would appear to finish before the outage
        // even closed. Blocking every output of the first three tiles
        // for `outage` cycles forces the serial chain to wait the window
        // out: the faulted run must outlast it and match the oracle
        // bit-for-bit.
        let a = generate::tridiagonal(48);
        let l = a.lower_triangle();
        let grid = TileGrid::new(2, 2);
        let p = BlockMapper.map(&a, grid);
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        let b = test_input(48);
        let outage = 2_000u64;
        let mut events = Vec::new();
        for tile in 0..3u32 {
            for dir in 0..4u8 {
                events.push(FaultEvent {
                    at_cycle: 0,
                    kind: FaultKind::LinkDown {
                        tile,
                        dir,
                        for_cycles: outage,
                    },
                });
            }
        }
        let plan = crate::faults::FaultPlan::new(events);
        let mut cfg = SimConfig::azul(grid);
        cfg.detailed_stats = true;
        cfg.check_invariants = true;
        let (clean, _) = assert_matches_oracle(&cfg, &prog, &b);
        cfg.faults = Some(plan);
        let (faulted, counts) = assert_matches_oracle(&cfg, &prog, &b);
        assert!(
            clean.1.cycles < outage,
            "sanity: the clean solve must finish inside the window"
        );
        assert!(
            faulted.1.cycles > outage,
            "the blocked chain must wait the outage out"
        );
        assert_eq!(counts.credited, 0, "fault runs never park");
        let expect = sptrsv_lower(&l, &b);
        assert!(dense::rel_l2_diff(&faulted.0, &expect) < 1e-10);
    }

    #[test]
    fn fault_timeline_is_byte_identical_across_engines() {
        // Regression: a fault window opening (or expiring) inside a
        // span a tile would otherwise sleep through must land on the
        // cycle the per-cycle loop fires it, or the journal records the
        // wrong cycle and the outage covers the wrong traffic. Seeded
        // plans across SpMV + SpTRSV (threaded through one session so
        // events land mid-solve) must journal identical records — cycle,
        // kind, applied flag and note — in the engine and the oracle.
        let a = generate::grid_laplacian_2d(10, 10);
        let l = ic0(&a).unwrap();
        let grid = TileGrid::new(4, 4);
        let p = AzulMapper::default().map(&a, grid);
        let spmv = Program::compile_spmv(&a, &p);
        let trsv = Program::compile_sptrsv_lower(&l, &a, &p);
        let input = test_input(a.rows());
        for seed in [3u64, 11, 42] {
            let plan = crate::faults::FaultPlan::seeded(seed, grid.num_tiles(), 6, 4_000);
            let run = |parking: bool| {
                let mut cfg = SimConfig::azul(grid);
                cfg.detailed_stats = true;
                cfg.check_invariants = true;
                let mut session = FaultSession::new(plan.clone());
                let mut go = |prog: &Program| {
                    run_engine(&cfg, prog, &input, Some(&mut session), parking, &mut ())
                        .expect("windowed faults resolve")
                };
                let r1 = go(&spmv);
                let r2 = go(&trsv);
                (r1, r2, session.records().to_vec())
            };
            let base = run(false);
            let got = run(true);
            assert_eq!(got.2, base.2, "fault journal diverged at seed {seed}");
            assert_eq!(got.0, base.0, "spmv diverged at seed {seed}");
            assert_eq!(got.1, base.1, "sptrsv diverged at seed {seed}");
        }
    }

    #[test]
    fn mid_span_rearm_credits_skipped_cycles_once() {
        // Regression (double-credit audit): when a delivery pulls a
        // parked tile's wake earlier, the span's idle/stall cycles must
        // be credited exactly once — at the wake — never again when the
        // arrival moves the wake. The serial tridiagonal chain parks
        // every tile between messages; sweeping the hop latency shifts
        // arrivals across park/wake edges. Per-tile detail stats and the
        // invariant-audit counters (both part of `KernelStats` equality)
        // would expose any double or missed credit.
        let a = generate::tridiagonal(48);
        let l = a.lower_triangle();
        let grid = TileGrid::new(2, 2);
        let p = BlockMapper.map(&a, grid);
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        let b = test_input(48);
        for hop in [1u32, 2, 3, 5, 8, 13] {
            let mut cfg = SimConfig::azul(grid);
            cfg.hop_latency = hop;
            cfg.detailed_stats = true;
            cfg.check_invariants = true;
            let (_, counts) = assert_matches_oracle(&cfg, &prog, &b);
            if hop >= 5 {
                assert!(counts.credited > 0, "hop {hop}: long transits must park");
            }
        }
    }

    #[test]
    fn wrong_input_length_is_a_typed_error() {
        let a = generate::grid_laplacian_2d(4, 4);
        let grid = TileGrid::new(2, 2);
        let prog = Program::compile_spmv(&a, &RoundRobinMapper.map(&a, grid));
        let err = run_kernel_checked(&SimConfig::azul(grid), &prog, &[1.0; 3], None)
            .expect_err("a short input must be rejected");
        assert!(
            matches!(&err, SimError::Input { detail } if detail.contains("length 3")),
            "{err}"
        );
    }

    #[test]
    fn grid_mismatch_is_a_typed_error() {
        let a = generate::grid_laplacian_2d(4, 4);
        let prog = Program::compile_spmv(&a, &RoundRobinMapper.map(&a, TileGrid::new(2, 2)));
        let cfg = SimConfig::azul(TileGrid::new(4, 4));
        let err = run_kernel_checked(&cfg, &prog, &test_input(a.rows()), None)
            .expect_err("a config grid unlike the program's must be rejected");
        assert!(
            matches!(&err, SimError::Input { detail } if detail.contains("16 tiles")),
            "{err}"
        );
    }

    #[test]
    fn nan_solved_value_is_multicast_as_nan() {
        // Regression: SendV once queued a NaN "read the input" sentinel,
        // so a solved NaN was multicast as the finite b[idx] and half the
        // solution came out finite. A NaN must propagate exactly as the
        // reference solve propagates it.
        let a = generate::grid_laplacian_2d(8, 8);
        let l = ic0(&a).unwrap();
        let grid = TileGrid::new(2, 2);
        let prog = Program::compile_sptrsv_lower(&l, &a, &BlockMapper.map(&a, grid));
        let mut b = test_input(a.rows());
        b[0] = f64::NAN;
        let (x, _) = run_kernel_checked(&SimConfig::azul(grid), &prog, &b, None).unwrap();
        let expect = sptrsv_lower(&l, &b);
        let nan_at = |v: &[f64]| v.iter().map(|x| x.is_nan()).collect::<Vec<_>>();
        assert_eq!(nan_at(&x), nan_at(&expect));
        assert_eq!(x.iter().filter(|v| v.is_nan()).count(), a.rows());
    }

    #[test]
    fn higher_sram_latency_is_slower_or_equal() {
        let a = generate::fem_mesh_3d(120, 5, 29);
        let grid = TileGrid::new(2, 2);
        let p = BlockMapper.map(&a, grid);
        let l = ic0(&a).unwrap();
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        let b = test_input(a.rows());
        let mut fast = SimConfig::azul(grid);
        fast.sram_latency = 1;
        let mut slow = SimConfig::azul(grid);
        slow.sram_latency = 4;
        let f = run_kernel(&fast, &prog, &b).1;
        let s = run_kernel(&slow, &prog, &b).1;
        assert!(
            s.cycles >= f.cycles,
            "slow {} vs fast {}",
            s.cycles,
            f.cycles
        );
    }
}
