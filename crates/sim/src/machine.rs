//! The tick engine: runs one compiled kernel to quiescence.
//!
//! Matching the paper's methodology (Sec. VI-A), every hardware component
//! is ticked each cycle it has work: routers move flits, PEs issue
//! operations. The machine co-simulates function and timing — the output
//! vector carries real `f64` results that are validated against the
//! reference solvers.
//!
//! An active-tile list keeps the per-cycle cost proportional to the tiles
//! that actually have work, which matters in the long dependence-limited
//! tails of SpTRSV.

use crate::config::SimConfig;
use crate::faults::{FaultEvent, FaultKind, FaultSession};
use crate::invariants::{check_router_occupancy, Checker};
use crate::pe::{trace_wake, trigger_code, OutSink, Pe, PeSkipClass, Trigger};
use crate::program::Program;
use crate::router::{tick_router, Accept, Delivery, FlitKind, Router};
use crate::stats::KernelStats;
use azul_telemetry::trace::{TraceEvent, TraceKind, CAT_FAULT, CAT_KERNEL};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

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
    /// iteration at a serial point, so the abort always lands on a cycle
    /// boundary regardless of `threads` / `fast_forward`. Not a machine
    /// failure — the host asked the run to stop (deadline, client gone,
    /// service shutdown).
    Cancelled {
        /// Kernel-local cycle at which the cancellation was observed.
        cycle: u64,
    },
    /// A solver frontend was handed arguments it cannot run: a
    /// right-hand side whose length differs from the matrix dimension,
    /// or a zero GMRES restart length. Nothing was simulated.
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
            SimError::Input { detail } => write!(f, "invalid solver input: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One contiguous slice of the tile array, owned by exactly one worker
/// during the parallel phase of a cycle (`SimConfig::threads` shards).
///
/// All cross-shard traffic is double-buffered: forwards land in
/// `outbox` ([`Accept`]s applied at the cycle barrier), output-vector
/// writes land in `out_buf`, and per-cycle stats land in the shard's
/// own `stats` delta (merged into the main ledger in shard order at
/// kernel end). A shard tick therefore only ever mutates shard-local
/// state, which is what makes the engine's results independent of how
/// many workers run and in what order shards are ticked.
struct Shard {
    /// First global tile id in this shard (tiles `lo..lo + routers.len()`).
    lo: usize,
    routers: Vec<Router>,
    pes: Vec<Pe>,
    /// Injected PE stall/kill windows, per local tile.
    stalled: Vec<bool>,
    /// Global tile ids to tick this cycle (filled by the coordinator).
    bucket: Vec<usize>,
    /// Scratch: local deliveries of the tile currently being ticked.
    deliveries: Vec<Delivery>,
    /// Cross-tile flit arrivals produced this cycle; the coordinator
    /// applies them in shard order at the cycle barrier.
    outbox: Vec<Accept>,
    /// Output-vector writes produced this cycle; applied at the barrier.
    out_buf: Vec<(u32, f64)>,
    /// Tiles of `bucket` still holding work after their tick.
    still: Vec<usize>,
    /// This shard's stats delta (`cycles` stays 0; merge adds counters).
    stats: KernelStats,
    /// Occupancy-rule evaluations performed by this shard's ticks.
    occ_checks: u64,
    /// First invariant violation this shard observed, if any.
    err: Option<SimError>,
}

impl Shard {
    fn router_mut(&mut self, t: usize) -> &mut Router {
        let i = t - self.lo;
        &mut self.routers[i]
    }

    fn pe_mut(&mut self, t: usize) -> &mut Pe {
        let i = t - self.lo;
        &mut self.pes[i]
    }

    fn router_ref(&self, t: usize) -> &Router {
        &self.routers[t - self.lo]
    }

    fn pe_ref(&self, t: usize) -> &Pe {
        &self.pes[t - self.lo]
    }

    fn stalled_at(&self, t: usize) -> bool {
        self.stalled[t - self.lo]
    }
}

/// Ticks every tile in `sh.bucket` for cycle `now`, touching only
/// shard-local state (see [`Shard`]). Safe to run concurrently with the
/// ticks of every other shard.
fn tick_shard(
    sh: &mut Shard,
    now: u64,
    cfg: &SimConfig,
    program: &Program,
    input: &[f64],
    faulting: bool,
    check_occupancy: bool,
) {
    // Destructure so disjoint fields can be borrowed simultaneously.
    // The renamed bindings also make the sharding contract explicit:
    // only *this shard's* routers/PEs are ever indexed here.
    let Shard {
        lo,
        routers: local_routers,
        pes: local_pes,
        stalled,
        bucket,
        deliveries,
        outbox,
        out_buf,
        still,
        stats,
        occ_checks,
        err,
    } = sh;
    let lo = *lo;
    // One flag load per shard-tick, not per tile: host-profiling probes
    // stay off the per-tile fast path unless a harness enabled them.
    let profiling = crate::profile::enabled();
    still.clear();
    for &t in bucket.iter() {
        let local = t - lo;
        // Router first: deliveries trigger PE tasks this same cycle.
        deliveries.clear();
        {
            let _p =
                profiling.then(|| crate::profile::scope(crate::profile::Component::RouterTick));
            tick_router(
                &mut local_routers[local],
                now,
                cfg.hop_latency as u64,
                program,
                deliveries,
                outbox,
                stats,
            );
        }
        for d in deliveries.iter() {
            let trig = match d.flit.kind {
                FlitKind::X => Trigger::X {
                    idx: d.flit.idx,
                    val: d.flit.val,
                },
                FlitKind::Partial => Trigger::Partial {
                    idx: d.flit.idx,
                    val: d.flit.val,
                },
            };
            local_pes[local].push_trigger(cfg, trig, stats);
            trace_wake(stats, now, t as u32, trigger_code(&trig));
        }
        // PE next — unless inside an injected stall/kill window, in
        // which case the router keeps forwarding and triggers keep
        // queueing so the tile stays active (and a permanent kill is
        // observable as a watchdog hang).
        if !(faulting && stalled[local]) {
            let _p = profiling.then(|| crate::profile::scope(crate::profile::Component::PeTick));
            let tp = program.tile(t as u32);
            let ticked = local_pes[local].tick(
                now,
                cfg,
                tp,
                program,
                &mut local_routers[local],
                input,
                &mut OutSink::Buffered(out_buf),
                stats,
            );
            // Misrouted triggers surface through the same first-error-
            // wins channel as invariant violations; the barrier commit
            // aborts the kernel with the typed error.
            if let Err(e) = ticked {
                if err.is_none() {
                    *err = Some(e);
                }
            }
        }
        // Runtime invariant: the inject queue is the only bounded
        // buffer; exceeding its capacity means a PE bypassed
        // `can_inject` backpressure.
        if check_occupancy {
            *occ_checks += 1;
            if err.is_none() {
                if let Err(e) = check_router_occupancy(now, &local_routers[local]) {
                    *err = Some(e);
                }
            }
        }
        // Re-arm check (pre-barrier view): tiles receiving an accept
        // this cycle are re-activated from the outbox instead.
        if local_pes[local].has_work() || local_routers[local].occupancy() > 0 {
            still.push(t);
        }
    }
}

/// A reusable generation-counting spin barrier for the fixed-size
/// worker pool. Spins briefly, then yields: the pool is sized to the
/// host's cores but may still be descheduled (or the host may have a
/// single core), and a blocking barrier would cost a syscall per cycle.
struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Coordinator → worker channel for the parallel engine: the cycle
/// being ticked, the shutdown flag, and the two barriers bracketing
/// each cycle's parallel phase. Shard data itself travels through the
/// per-shard `Mutex`es, which provide the happens-before edges.
struct ParallelCtx {
    pool: usize,
    barrier_a: SpinBarrier,
    barrier_b: SpinBarrier,
    cycle_now: AtomicU64,
    stop: AtomicBool,
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
/// Panics if `input.len() != program.n`, or on any [`SimError`] (the
/// `max_kernel_cycles` / watchdog deadlock tripwires).
pub fn run_kernel(cfg: &SimConfig, program: &Program, input: &[f64]) -> (Vec<f64>, KernelStats) {
    match run_kernel_checked(cfg, program, input, None) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Runs `program` on the simulated machine, returning structured errors
/// instead of panicking on hangs, and optionally injecting faults.
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
/// Returns [`SimError::Deadlock`] when the kernel exceeds
/// `cfg.max_kernel_cycles`, or when no forward progress is observed for
/// `cfg.watchdog_no_progress_cycles` consecutive cycles (e.g. after a
/// `PeKill` fault strands undrained work).
///
/// # Panics
///
/// Panics if `input.len() != program.n` or the config grid does not
/// match the program grid (caller bugs, not machine failures).
#[must_use = "a dropped result discards both the kernel output and the structured failure"]
pub fn run_kernel_checked(
    cfg: &SimConfig,
    program: &Program,
    input: &[f64],
    faults: Option<&mut FaultSession>,
) -> Result<(Vec<f64>, KernelStats), SimError> {
    assert_eq!(input.len(), program.n, "input length mismatch");
    let num_tiles = cfg.grid.num_tiles();
    assert_eq!(
        num_tiles,
        program.grid.num_tiles(),
        "config grid must match program grid"
    );

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

    // Tile sharding: contiguous ranges, one per configured thread. The
    // shard count only partitions work — results are bit-identical for
    // every value — so the worker pool is sized to the host
    // (`available_parallelism`), never above the shard count.
    let num_shards = cfg.threads.max(1).min(num_tiles);
    let pool = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(num_shards);
    let shard_of: Vec<usize> = {
        let mut v = vec![0usize; num_tiles];
        for s in 0..num_shards {
            let lo = s * num_tiles / num_shards;
            let hi = (s + 1) * num_tiles / num_shards;
            for slot in v.iter_mut().take(hi).skip(lo) {
                *slot = s;
            }
        }
        v
    };
    let mut shards: Vec<Mutex<Shard>> = (0..num_shards)
        .map(|s| {
            let lo = s * num_tiles / num_shards;
            let hi = (s + 1) * num_tiles / num_shards;
            let mut shard_stats = KernelStats::default();
            if cfg.detailed_stats {
                // Full-width detail arrays: each shard only touches its
                // own tiles' entries, and merge adds elementwise.
                shard_stats.enable_detail(num_tiles);
            }
            if let Some(tc) = cfg.trace {
                // Shards collect into private buffers; the postlude
                // merge concatenates them in shard order and the seal
                // sorts, so thread count cannot reorder the trace.
                shard_stats.trace_ev.configure(tc);
            }
            Mutex::new(Shard {
                lo,
                routers: (lo..hi)
                    .map(|t| Router::new(t as u32, cfg.router_queue_capacity))
                    .collect(),
                pes: (lo..hi)
                    .map(|t| Pe::new(t as u32, cfg, program.tile(t as u32), input))
                    .collect(),
                stalled: vec![false; hi - lo],
                bucket: Vec::new(),
                deliveries: Vec::new(),
                outbox: Vec::new(),
                out_buf: Vec::new(),
                still: Vec::new(),
                stats: shard_stats,
                occ_checks: 0,
                err: None,
            })
        })
        .collect();

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
    let check_occupancy = inv.occupancy_active();
    let mut fired: Vec<FaultEvent> = Vec::new();
    // Windows opened in an earlier kernel of the same session (e.g. a
    // PeKill) must constrain this kernel from cycle 0.
    if faulting {
        // azul-lint: allow(unwrap-in-pipeline) `faulting` is derived from `session.is_some_and` above
        let s = session.as_deref_mut().expect("faulting implies session");
        if !s.active_windows().is_empty() {
            let mut init: Vec<&mut Shard> = shards
                .iter_mut()
                // azul-lint: allow(unwrap-in-pipeline) poison guard: workers have not spawned yet
                .map(|m| m.get_mut().expect("no shard lock held yet"))
                .collect();
            sync_fault_state(s, 0, &mut init, &shard_of);
        }
    }

    // Active-tile tracking: a tile ticks while it has router or PE work.
    let mut active: Vec<usize> = Vec::with_capacity(num_tiles);
    let mut on_list: Vec<bool> = vec![false; num_tiles];
    let activate = |t: usize, active: &mut Vec<usize>, on_list: &mut Vec<bool>| {
        if !on_list[t] {
            on_list[t] = true;
            active.push(t);
        }
    };

    // Kernel-start triggers.
    for t in 0..num_tiles {
        let sh = shards[shard_of[t]]
            .get_mut()
            // azul-lint: allow(unwrap-in-pipeline) poison guard: workers have not spawned yet
            .expect("no shard lock held yet");
        let tp = program.tile(t as u32);
        for &j in &tp.send_v {
            if program.x_tree[j as usize].is_some() {
                let trig = Trigger::SendV { idx: j };
                sh.pe_mut(t).push_trigger(cfg, trig, &mut stats);
                trace_wake(&mut stats, 0, t as u32, trigger_code(&trig));
            }
            if tp.saac_range(j).is_some() {
                let trig = Trigger::X {
                    idx: j,
                    val: input[j as usize],
                };
                sh.pe_mut(t).push_trigger(cfg, trig, &mut stats);
                trace_wake(&mut stats, 0, t as u32, trigger_code(&trig));
            }
        }
        for &i in &tp.initial_solves {
            let trig = Trigger::Solve { idx: i };
            sh.pe_mut(t).push_trigger(cfg, trig, &mut stats);
            trace_wake(&mut stats, 0, t as u32, trigger_code(&trig));
        }
        if sh.pe_ref(t).has_work() {
            activate(t, &mut active, &mut on_list);
        }
    }

    let mut now = 0u64;
    let ctx = ParallelCtx {
        pool,
        barrier_a: SpinBarrier::new(pool),
        barrier_b: SpinBarrier::new(pool),
        cycle_now: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    };

    // Watchdog state: a monotone progress signature and the last cycle it
    // moved. Any issued op, message, link hop or router traversal counts.
    let mut last_signature = u64::MAX;
    let mut last_progress = 0u64;

    let result: Result<(), SimError> = std::thread::scope(|scope| {
        // Fixed-size worker pool: workers park on `barrier_a` until the
        // coordinator publishes a cycle, tick their strided shard subset,
        // then meet the coordinator at `barrier_b`.
        if ctx.pool > 1 {
            for w in 1..ctx.pool {
                let shards = &shards;
                let ctx = &ctx;
                scope.spawn(move || loop {
                    ctx.barrier_a.wait();
                    if ctx.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let wnow = ctx.cycle_now.load(Ordering::Acquire);
                    let mut s = w;
                    while s < num_shards {
                        let mut sh = shards[s].lock().expect("shard lock poisoned");
                        tick_shard(
                            &mut sh,
                            wnow,
                            cfg,
                            program,
                            input,
                            faulting,
                            check_occupancy,
                        );
                        s += ctx.pool;
                    }
                    ctx.barrier_b.wait();
                });
            }
        }

        // Event-driven engine: same worker pool, same shard protocol,
        // but only *due* tiles tick each iteration (see
        // `run_event_loop`). The reference loop below stays the
        // bit-exactness oracle.
        if cfg.event_engine {
            let r = run_event_loop(
                cfg,
                program,
                input,
                &shards,
                &shard_of,
                &ctx,
                &mut stats,
                &mut inv,
                &mut out,
                &mut session,
                faulting,
                check_occupancy,
                &mut fired,
                &active,
                &mut now,
            );
            if ctx.pool > 1 {
                ctx.stop.store(true, Ordering::Release);
                ctx.barrier_a.wait();
            }
            return r;
        }

        let mut body = || -> Result<(), SimError> {
            // The coordinator holds every shard lock between cycle
            // barriers; during the parallel tick phase the guards are
            // dropped and each shard is locked by exactly one worker.
            let mut guards: Vec<std::sync::MutexGuard<'_, Shard>> = shards
                .iter()
                .map(|m| m.lock().expect("shard lock poisoned"))
                .collect();
            let mut skip_classes: Vec<(usize, PeSkipClass)> = Vec::new();

            // Host-profiling: one flag load per kernel; the TickLoop
            // scope encloses every inner probe so component shares can
            // be expressed against it.
            let profiling = crate::profile::enabled();
            let _prof_loop =
                profiling.then(|| crate::profile::scope(crate::profile::Component::TickLoop));

            while !active.is_empty() {
                // Cooperative cancellation: sampled once per iteration at
                // this serial point — the boundary right after the previous
                // cycle's barrier commit — so an abort always lands on a
                // cycle boundary with every cross-shard effect applied, for
                // any `threads` / `fast_forward` setting. The fast-forward
                // path re-enters here after its jump, so a long tickless
                // skip cannot outrun the check. Untripped (or absent)
                // tokens cost one branch.
                if let Some(tok) = &cfg.cancel {
                    if tok.is_cancelled() {
                        if let Some(s) = session.as_deref_mut() {
                            s.end_kernel(now);
                        }
                        return Err(SimError::Cancelled { cycle: now });
                    }
                }

                // Fault schedule: fire due events, expire windows, re-sync
                // injected router/PE state when the window set changes.
                let mut suspends_now = false;
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
                        sync_fault_state(s, now, &mut guards, &shard_of);
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
                        match guards[shard_of[tile as usize]]
                            .pe_mut(tile as usize)
                            .flip_slot_bit(slot, bit)
                        {
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
                    suspends_now = s.suspends_watchdog(now);
                    if suspends_now {
                        last_progress = now;
                    }
                }

                // Watchdog: structured deadlock report instead of spinning
                // to the 500M-cycle deadline (or panicking there). The
                // signature sums the main ledger and every shard delta.
                let _prof_stats =
                    profiling.then(|| crate::profile::scope(crate::profile::Component::Stats));
                let mut sig_ops = stats.total_ops();
                let mut sig_src = stats.messages + stats.link_activations;
                let mut sig_snk = stats.router_traversals;
                for g in guards.iter() {
                    sig_ops += g.stats.total_ops();
                    sig_src += g.stats.messages + g.stats.link_activations;
                    sig_snk += g.stats.router_traversals;
                }
                let signature = sig_ops + sig_src + sig_snk;
                let progressed = signature != last_signature;
                if progressed {
                    last_signature = signature;
                    last_progress = now;
                }
                // Flits in multi-hop transit are progress even while the
                // signature holds still (a long `hop_latency` drain issues
                // nothing for many cycles): every send/forward has been
                // counted but not yet retired as a router traversal, so
                // hold the watchdog off until the counters rebalance. A
                // permanently parked flit (a LinkDown that never lifts)
                // then falls through to the `max_kernel_cycles` deadline.
                let inflight_ctr = sig_src.saturating_sub(sig_snk);
                if inflight_ctr > 0 {
                    last_progress = now;
                }
                let wedged = cfg.watchdog_no_progress_cycles > 0
                    && now.saturating_sub(last_progress) >= cfg.watchdog_no_progress_cycles;
                if wedged || now >= cfg.max_kernel_cycles {
                    let mut stalled_pes: Vec<u32> = Vec::new();
                    let mut inflight_flits = 0usize;
                    for g in guards.iter() {
                        for (i, pe) in g.pes.iter().enumerate() {
                            if pe.has_work() {
                                stalled_pes.push((g.lo + i) as u32);
                            }
                        }
                        inflight_flits += g.routers.iter().map(Router::occupancy).sum::<usize>();
                    }
                    if let Some(s) = session.as_deref_mut() {
                        s.end_kernel(now);
                    }
                    return Err(SimError::Deadlock {
                        cycle: now,
                        stalled_pes,
                        inflight_flits,
                    });
                }
                drop(_prof_stats);

                // Idle-cycle fast-forward: on a zero-progress cycle, jump
                // the clock to the next cycle anything can happen — the
                // earliest router head becoming ready, PE wake-up
                // (busy_until / RAW slot_ready), fault timeline event or
                // window expiry, watchdog trip, or the kernel deadline —
                // crediting the skipped cycles to the same per-tile
                // idle/stall counters and trace samples the ticked path
                // would have produced. A zero-progress cycle cannot change
                // machine state — except the router arbitration cursors,
                // which rotate on every tick and are replayed below — so
                // skipping to the next event is exact.
                if cfg.fast_forward && !progressed {
                    let _prof_ff = profiling
                        .then(|| crate::profile::scope(crate::profile::Component::FastForward));
                    let mut ne = cfg.max_kernel_cycles;
                    if cfg.watchdog_no_progress_cycles > 0 {
                        ne = ne.min(last_progress.saturating_add(cfg.watchdog_no_progress_cycles));
                    }
                    if faulting {
                        // azul-lint: allow(unwrap-in-pipeline) `faulting` is derived from `session.is_some_and` above
                        let s = session.as_deref_mut().expect("faulting implies session");
                        if let Some(l) = s.next_timeline_local() {
                            ne = ne.min(l);
                        }
                    }
                    skip_classes.clear();
                    for &t in &active {
                        let g = &guards[shard_of[t]];
                        if let Some(e) = g.router_ref(t).next_event(now, program) {
                            ne = ne.min(e);
                        }
                        let (class, wake) = if faulting && g.stalled_at(t) {
                            (PeSkipClass::Silent, None)
                        } else {
                            g.pe_ref(t).wake_profile(
                                now,
                                cfg,
                                program.tile(t as u32),
                                g.router_ref(t).can_inject(),
                            )
                        };
                        if let Some(w) = wake {
                            ne = ne.min(w);
                        }
                        skip_classes.push((t, class));
                    }
                    if ne > now {
                        let k = ne - now;
                        for &(t, class) in &skip_classes {
                            // The ticked path rotates every active
                            // router's arbitration cursor each cycle,
                            // work or not; replay it or arbitration
                            // order diverges after the skip.
                            guards[shard_of[t]].router_mut(t).advance_rr(k);
                            match class {
                                PeSkipClass::Idle => stats.idle_at_n(t as u32, k),
                                PeSkipClass::Stall => stats.stall_at_n(t as u32, k),
                                PeSkipClass::Silent => {}
                            }
                        }
                        inv.credit_occupancy_checks(k * active.len() as u64);
                        if cfg.trace_interval > 0 {
                            let mut total = stats.total_ops();
                            for g in guards.iter() {
                                total += g.stats.total_ops();
                            }
                            let iv = cfg.trace_interval;
                            let mut c = if now.is_multiple_of(iv) {
                                now
                            } else {
                                now.next_multiple_of(iv)
                            };
                            while c < ne {
                                stats.trace.push((c, total));
                                c += iv;
                            }
                        }
                        // The ticked path refreshes `last_progress` every
                        // cycle while flits are in flight or a fault
                        // window suspends the watchdog; both conditions
                        // are constant across the skipped (tickless)
                        // range, so replicate the refresh at its last
                        // cycle.
                        if inflight_ctr > 0 || suspends_now {
                            last_progress = ne - 1;
                        }
                        now = ne;
                        continue;
                    }
                }

                // Partition this cycle's active tiles into their shards.
                for g in guards.iter_mut() {
                    g.bucket.clear();
                }
                for t in active.drain(..) {
                    on_list[t] = false;
                    guards[shard_of[t]].bucket.push(t);
                }

                // Parallel phase: tick every shard's bucket.
                if ctx.pool > 1 {
                    ctx.cycle_now.store(now, Ordering::Release);
                    guards.clear();
                    ctx.barrier_a.wait();
                    let mut s = 0usize;
                    while s < num_shards {
                        let mut sh = shards[s].lock().expect("shard lock poisoned");
                        tick_shard(&mut sh, now, cfg, program, input, faulting, check_occupancy);
                        s += ctx.pool;
                    }
                    ctx.barrier_b.wait();
                    guards = shards
                        .iter()
                        .map(|m| m.lock().expect("shard lock poisoned"))
                        .collect();
                } else {
                    for g in guards.iter_mut() {
                        tick_shard(g, now, cfg, program, input, faulting, check_occupancy);
                    }
                }

                // Serial commit, always in shard order so results do not
                // depend on worker scheduling: first error wins, deferred
                // link transfers land, buffered output writes land, and
                // still-busy tiles re-arm.
                let _prof_commit = profiling
                    .then(|| crate::profile::scope(crate::profile::Component::BarrierCommit));
                for g in guards.iter_mut() {
                    if let Some(e) = g.err.take() {
                        if let Some(s) = session.as_deref_mut() {
                            s.end_kernel(now);
                        }
                        return Err(e);
                    }
                }
                for s in 0..num_shards {
                    let mut accepts = std::mem::take(&mut guards[s].outbox);
                    for a in &accepts {
                        let d = a.dest as usize;
                        guards[shard_of[d]].router_mut(d).apply_accept(
                            a.port as usize,
                            a.ready,
                            a.flit,
                        );
                        activate(d, &mut active, &mut on_list);
                    }
                    accepts.clear();
                    guards[s].outbox = accepts;
                }
                for g in guards.iter_mut() {
                    for &(i, v) in &g.out_buf {
                        out[i as usize] = v;
                    }
                    g.out_buf.clear();
                    for &t in &g.still {
                        activate(t, &mut active, &mut on_list);
                    }
                    g.still.clear();
                }
                drop(_prof_commit);

                // Progress trace sample (Fig. 17).
                if cfg.trace_interval > 0 && now.is_multiple_of(cfg.trace_interval) {
                    let _p =
                        profiling.then(|| crate::profile::scope(crate::profile::Component::Stats));
                    let mut total = stats.total_ops();
                    for g in guards.iter() {
                        total += g.stats.total_ops();
                    }
                    stats.trace.push((now, total));
                }

                now += 1;
            }
            Ok(())
        };
        let r = body();
        if ctx.pool > 1 {
            ctx.stop.store(true, Ordering::Release);
            ctx.barrier_a.wait();
        }
        r
    });
    result?;

    // Postlude (workers joined, locks free): merge shard deltas into the
    // main ledger in shard order, then close out the run.
    let mut inflight = 0usize;
    for m in shards.iter_mut() {
        // azul-lint: allow(unwrap-in-pipeline) poison guard: workers were joined by thread::scope
        let sh = m.get_mut().expect("workers joined");
        stats.merge(&sh.stats);
        inv.credit_occupancy_checks(sh.occ_checks);
        inflight += sh.routers.iter().map(Router::occupancy).sum::<usize>();
    }
    stats.cycles = now;
    // Close the progress trace with an exact final sample so the last
    // entry always matches the kernel totals.
    if cfg.trace_interval > 0 && stats.trace.last() != Some(&(now, stats.total_ops())) {
        stats.trace.push((now, stats.total_ops()));
    }
    // Close and seal the event trace: the KernelEnd marker balances the
    // cycle-0 KernelBegin, and the seal sorts all shards' events into
    // canonical order (then applies the bounded-capacity compaction),
    // erasing any thread-count dependence.
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
    Ok((out, stats))
}

/// Re-applies the session's active fault windows onto freshly cleared
/// router/PE fault state. Called whenever the window set changes; rare
/// enough that the O(tiles) reset does not matter. Generic over the
/// shard handle so it serves both the in-loop coordinator (lock guards)
/// and pre-loop setup (plain `&mut` from `Mutex::get_mut`).
fn sync_fault_state<S: std::ops::DerefMut<Target = Shard>>(
    session: &FaultSession,
    local_now: u64,
    shards: &mut [S],
    shard_of: &[usize],
) {
    for sh in shards.iter_mut() {
        for r in sh.routers.iter_mut() {
            r.clear_faults();
        }
        sh.stalled.fill(false);
    }
    let gnow = session.global_cycle(local_now);
    for &(kind, until) in session.active_windows() {
        if until <= gnow {
            continue;
        }
        match kind {
            FaultKind::LinkDown { tile, dir, .. } => {
                shards[shard_of[tile as usize]]
                    .router_mut(tile as usize)
                    .inject_link_down(dir as usize);
            }
            FaultKind::LinkDegrade {
                tile,
                extra_latency,
                ..
            } => shards[shard_of[tile as usize]]
                .router_mut(tile as usize)
                .inject_link_degrade(extra_latency),
            FaultKind::PeStall { tile, .. } | FaultKind::PeKill { tile } => {
                let sh = &mut shards[shard_of[tile as usize]];
                let lo = sh.lo;
                sh.stalled[tile as usize - lo] = true;
            }
            FaultKind::SramBitFlip { .. } => {}
        }
    }
}

/// The event-driven tick engine (`cfg.event_engine`): instead of
/// ticking every reference-active tile every cycle, each tile reports a
/// next-event (wake) time into a per-shard calendar queue and only
/// *due* tiles tick, so a mostly-idle machine costs O(active) per step.
/// The machine-wide fast-forward is the degenerate case where no tile
/// is due at all and the clock jumps straight to the earliest calendar
/// entry.
///
/// A tile is in one of three states:
/// * **inactive** — no PE work and an empty router; exactly the tiles
///   the reference engine drops from its active list. Never ticked,
///   never credited; revived only by a flit arrival.
/// * **parked** — reference-active, but provably unobservable until
///   `wake[t]`: its PE profile ([`Pe::wake_profile`]) and router head
///   analysis ([`Router::next_event`]) bound the next cycle it could
///   act, and a failed issue never mutates PE state, so the tile is
///   frozen. The reference engine still ticks it every cycle, though:
///   those ticks rotate the router's arbitration cursor and record
///   idle/stall/audit bookkeeping. That per-cycle bookkeeping is
///   credited **lazily** — exactly once, when the tile wakes — over
///   `[since[t], now)`. Arrivals and fault-window changes only move
///   `wake` *earlier* (ending the span sooner); they never re-credit,
///   which is what makes a mid-span re-arm single-credit by
///   construction.
/// * **due/ticking** — popped from the calendar this cycle; ticked by
///   the shared [`tick_shard`] exactly as the reference engine would.
///
/// Wake sources feeding the calendars: PE timers (`busy_until`, RAW
/// `slot_ready`), router queue heads, flit arrivals (commit phase),
/// fault-timeline points (timeline clamp + wake-all-parked on window
/// changes), the watchdog horizon and the kernel deadline. The cancel
/// token and the progress-trace stride are *not* wake sources: cancel
/// is sampled once per iteration at the serial point (as documented on
/// [`SimError::Cancelled`]), and trace samples over tickless spans are
/// replayed arithmetically since the sampled totals cannot change.
#[allow(clippy::too_many_arguments)] // coordinator-side scheduling state, sized once
fn run_event_loop(
    cfg: &SimConfig,
    program: &Program,
    input: &[f64],
    shards: &[Mutex<Shard>],
    shard_of: &[usize],
    ctx: &ParallelCtx,
    stats: &mut KernelStats,
    inv: &mut Checker,
    out: &mut [f64],
    session: &mut Option<&mut FaultSession>,
    faulting: bool,
    check_occupancy: bool,
    fired: &mut Vec<FaultEvent>,
    start_active: &[usize],
    now: &mut u64,
) -> Result<(), SimError> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let num_tiles = cfg.grid.num_tiles();
    let num_shards = shards.len();

    // Coordinator-side scheduling state. `wake[t]` is only meaningful
    // while `parked[t]`; `u64::MAX` means no self-driven wake (the tile
    // waits on an arrival or a fault-window change). `since[t]` is the
    // first cycle of the current parked span not yet credited.
    let mut wake: Vec<u64> = vec![u64::MAX; num_tiles];
    let mut since: Vec<u64> = vec![0u64; num_tiles];
    let mut class: Vec<PeSkipClass> = vec![PeSkipClass::Silent; num_tiles];
    let mut parked: Vec<bool> = vec![false; num_tiles];
    let mut ticking: Vec<bool> = vec![false; num_tiles];
    // Per-shard calendar queues (min-heaps with lazy deletion: an entry
    // is live only while it still matches `wake[t]` of a parked tile;
    // `wake` only ever moves earlier within a span, so stale entries
    // are always larger and harmlessly discarded).
    let mut calendars: Vec<BinaryHeap<Reverse<(u64, usize)>>> = (0..num_shards)
        .map(|_| BinaryHeap::with_capacity(8))
        .collect();
    // Reference-active tiles (parked + ticking); quiescence = 0.
    let mut live = 0usize;

    for &t in start_active {
        parked[t] = true;
        wake[t] = 0;
        since[t] = 0;
        live += 1;
        calendars[shard_of[t]].push(Reverse((0, t)));
    }

    let mut guards: Vec<std::sync::MutexGuard<'_, Shard>> = shards
        .iter()
        .map(|m| m.lock().expect("shard lock poisoned"))
        .collect();

    // Watchdog state, updated exactly as the reference loop does on the
    // iterations this engine takes; across jumped (tickless) spans the
    // refresh conditions are constant and replicated at the span's last
    // cycle, mirroring the machine-wide fast-forward.
    let mut last_signature = u64::MAX;
    let mut last_progress = 0u64;

    let profiling = crate::profile::enabled();
    let _prof_loop = profiling.then(|| crate::profile::scope(crate::profile::Component::TickLoop));

    while live > 0 {
        let now_c = *now;
        // Cooperative cancellation: once per iteration at this serial
        // point, same contract as the reference loop.
        if let Some(tok) = &cfg.cancel {
            if tok.is_cancelled() {
                if let Some(s) = session.as_deref_mut() {
                    s.end_kernel(now_c);
                }
                return Err(SimError::Cancelled { cycle: now_c });
            }
        }

        // Fault schedule: identical to the reference loop, except that a
        // window-set change additionally re-arms every parked tile *this
        // cycle*: a closed outage can free a head-of-line-blocked router
        // (which reported no self-wake), and a fresh window changes how
        // cycles are accounted from here on. The tiles' already-accrued
        // span credits stay valid — the span simply ends now.
        let mut suspends_now = false;
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
            if s.advance(now_c, num_tiles, fired) {
                sync_fault_state(s, now_c, &mut guards, shard_of);
                if trace_faults {
                    for &(kind, until) in s.active_windows() {
                        if !prev_windows.contains(&(kind, until)) {
                            stats.trace_ev.push(TraceEvent {
                                cycle: now_c,
                                tile: kind.tile(),
                                kind: TraceKind::FaultFire,
                                arg: fault_code(&kind),
                            });
                        }
                    }
                }
                for t in 0..num_tiles {
                    if parked[t] && wake[t] > now_c {
                        wake[t] = now_c;
                        calendars[shard_of[t]].push(Reverse((now_c, t)));
                    }
                }
            }
            for ev in fired.drain(..) {
                if trace_faults {
                    stats.trace_ev.push(TraceEvent {
                        cycle: now_c,
                        tile: ev.kind.tile(),
                        kind: TraceKind::FaultFire,
                        arg: fault_code(&ev.kind),
                    });
                }
                let FaultKind::SramBitFlip { tile, slot, bit } = ev.kind else {
                    unreachable!("only bit flips are handed to the machine");
                };
                // A bit flip changes a value, never timing: the reference
                // engine does not activate the tile for it either, so no
                // wake is scheduled.
                let gnow = s.global_cycle(now_c);
                match guards[shard_of[tile as usize]]
                    .pe_mut(tile as usize)
                    .flip_slot_bit(slot, bit)
                {
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
            suspends_now = s.suspends_watchdog(now_c);
            if suspends_now {
                last_progress = now_c;
            }
        }

        // Watchdog sweep — same signature, same refresh rules as the
        // reference loop. Parked tiles cannot move the signature (their
        // reference ticks record only idle/stall bookkeeping), so
        // sweeping just the iterations this engine takes is exact.
        let _prof_stats =
            profiling.then(|| crate::profile::scope(crate::profile::Component::Stats));
        let mut sig_ops = stats.total_ops();
        let mut sig_src = stats.messages + stats.link_activations;
        let mut sig_snk = stats.router_traversals;
        for g in guards.iter() {
            sig_ops += g.stats.total_ops();
            sig_src += g.stats.messages + g.stats.link_activations;
            sig_snk += g.stats.router_traversals;
        }
        let signature = sig_ops + sig_src + sig_snk;
        if signature != last_signature {
            last_signature = signature;
            last_progress = now_c;
        }
        let inflight_ctr = sig_src.saturating_sub(sig_snk);
        if inflight_ctr > 0 {
            last_progress = now_c;
        }
        let wedged = cfg.watchdog_no_progress_cycles > 0
            && now_c.saturating_sub(last_progress) >= cfg.watchdog_no_progress_cycles;
        if wedged || now_c >= cfg.max_kernel_cycles {
            let mut stalled_pes: Vec<u32> = Vec::new();
            let mut inflight_flits = 0usize;
            for g in guards.iter() {
                for (i, pe) in g.pes.iter().enumerate() {
                    if pe.has_work() {
                        stalled_pes.push((g.lo + i) as u32);
                    }
                }
                inflight_flits += g.routers.iter().map(Router::occupancy).sum::<usize>();
            }
            if let Some(s) = session.as_deref_mut() {
                s.end_kernel(now_c);
            }
            return Err(SimError::Deadlock {
                cycle: now_c,
                stalled_pes,
                inflight_flits,
            });
        }
        drop(_prof_stats);

        // Pop due tiles into their shard buckets, crediting each parked
        // span exactly once as it ends: the arbitration-cursor replay,
        // the per-class idle/stall counters and the occupancy-audit
        // budget the reference ticks would have produced. Buckets are
        // sorted so the intra-shard tick order is deterministic.
        let mut any_due = false;
        let mut occ_credit = 0u64;
        for (s, cal) in calendars.iter_mut().enumerate() {
            let g = &mut guards[s];
            g.bucket.clear();
            while let Some(&Reverse((w, t))) = cal.peek() {
                if w > now_c {
                    break;
                }
                cal.pop();
                if !parked[t] || wake[t] != w {
                    continue; // lazily deleted (stale) entry
                }
                parked[t] = false;
                ticking[t] = true;
                g.bucket.push(t);
            }
            g.bucket.sort_unstable();
            for i in 0..g.bucket.len() {
                let t = g.bucket[i];
                let k = now_c - since[t];
                if k == 0 {
                    continue;
                }
                g.router_mut(t).advance_rr(k);
                match class[t] {
                    PeSkipClass::Idle => stats.idle_at_n(t as u32, k),
                    PeSkipClass::Stall => stats.stall_at_n(t as u32, k),
                    PeSkipClass::Silent => {}
                }
                occ_credit += k;
            }
            any_due |= !g.bucket.is_empty();
        }
        inv.credit_occupancy_checks(occ_credit);

        // No tile due: the degenerate machine-wide skip. Jump to the
        // earliest calendar entry, clamped by the fault timeline, the
        // watchdog horizon and the deadline, replaying the tickless
        // trace samples.
        if !any_due {
            let _prof_ff =
                profiling.then(|| crate::profile::scope(crate::profile::Component::FastForward));
            let mut ne = cfg.max_kernel_cycles;
            if cfg.watchdog_no_progress_cycles > 0 {
                ne = ne.min(last_progress.saturating_add(cfg.watchdog_no_progress_cycles));
            }
            if faulting {
                // azul-lint: allow(unwrap-in-pipeline) `faulting` is derived from `session.is_some_and` above
                let s = session.as_deref_mut().expect("faulting implies session");
                if let Some(l) = s.next_timeline_local() {
                    ne = ne.min(l);
                }
            }
            for cal in calendars.iter_mut() {
                while let Some(&Reverse((w, t))) = cal.peek() {
                    if parked[t] && wake[t] == w {
                        ne = ne.min(w);
                        break;
                    }
                    cal.pop();
                }
            }
            if ne > now_c {
                if cfg.trace_interval > 0 {
                    let mut total = stats.total_ops();
                    for g in guards.iter() {
                        total += g.stats.total_ops();
                    }
                    let iv = cfg.trace_interval;
                    let mut c = if now_c.is_multiple_of(iv) {
                        now_c
                    } else {
                        now_c.next_multiple_of(iv)
                    };
                    while c < ne {
                        stats.trace.push((c, total));
                        c += iv;
                    }
                }
                if inflight_ctr > 0 || suspends_now {
                    last_progress = ne - 1;
                }
                *now = ne;
                continue;
            }
        }

        // Parallel phase: tick the due buckets, exactly as the
        // reference loop does.
        if ctx.pool > 1 {
            ctx.cycle_now.store(now_c, Ordering::Release);
            guards.clear();
            ctx.barrier_a.wait();
            let mut s = 0usize;
            while s < num_shards {
                let mut sh = shards[s].lock().expect("shard lock poisoned");
                tick_shard(
                    &mut sh,
                    now_c,
                    cfg,
                    program,
                    input,
                    faulting,
                    check_occupancy,
                );
                s += ctx.pool;
            }
            ctx.barrier_b.wait();
            guards = shards
                .iter()
                .map(|m| m.lock().expect("shard lock poisoned"))
                .collect();
        } else {
            for g in guards.iter_mut() {
                tick_shard(g, now_c, cfg, program, input, faulting, check_occupancy);
            }
        }

        // Serial commit in shard order: first error wins, deferred
        // arrivals land (scheduling their destinations), buffered
        // output writes land, and ticked tiles re-park or retire.
        let _prof_commit =
            profiling.then(|| crate::profile::scope(crate::profile::Component::BarrierCommit));
        for g in guards.iter_mut() {
            if let Some(e) = g.err.take() {
                if let Some(s) = session.as_deref_mut() {
                    s.end_kernel(now_c);
                }
                return Err(e);
            }
        }
        for s in 0..num_shards {
            let mut accepts = std::mem::take(&mut guards[s].outbox);
            for a in &accepts {
                let d = a.dest as usize;
                guards[shard_of[d]]
                    .router_mut(d)
                    .apply_accept(a.port as usize, a.ready, a.flit);
                // Arrivals only ever move a wake *earlier*; they never
                // restart a span's crediting (`since` is untouched), so
                // a mid-span re-arm cannot double-credit.
                let arrival = a.ready.max(now_c + 1);
                if ticking[d] {
                    // Re-parked below with the new flit in view.
                } else if parked[d] {
                    if arrival < wake[d] {
                        wake[d] = arrival;
                        calendars[shard_of[d]].push(Reverse((arrival, d)));
                    }
                } else {
                    // Revived from inactive: the PE is empty, so the new
                    // span is pure idle time (Silent under Ideal) until
                    // the head becomes ready.
                    parked[d] = true;
                    live += 1;
                    since[d] = now_c + 1;
                    let gd = &guards[shard_of[d]];
                    class[d] = gd
                        .pe_ref(d)
                        .wake_profile(
                            now_c + 1,
                            cfg,
                            program.tile(d as u32),
                            gd.router_ref(d).can_inject(),
                        )
                        .0;
                    wake[d] = arrival;
                    calendars[shard_of[d]].push(Reverse((arrival, d)));
                }
            }
            accepts.clear();
            guards[s].outbox = accepts;
        }
        for g in guards.iter_mut() {
            for &(i, v) in &g.out_buf {
                out[i as usize] = v;
            }
            g.out_buf.clear();
        }
        // Re-park every ticked tile from its fresh post-tick state (the
        // arrivals above are already applied, so the router analysis
        // sees them): retire it if it went fully quiet, otherwise
        // compute its next wake and open a new credit span at `now + 1`.
        for s in 0..num_shards {
            let g = &guards[s];
            for &t in &g.bucket {
                ticking[t] = false;
                if !g.pe_ref(t).has_work() && g.router_ref(t).occupancy() == 0 {
                    live -= 1;
                    wake[t] = u64::MAX;
                    continue;
                }
                let (cl, pe_wake) = if faulting && g.stalled_at(t) {
                    // Injected PE stall/kill: the PE tick is skipped
                    // entirely (no idle/stall stats), but the router
                    // still ticks — its head analysis bounds the wake.
                    (PeSkipClass::Silent, None)
                } else {
                    g.pe_ref(t).wake_profile(
                        now_c + 1,
                        cfg,
                        program.tile(t as u32),
                        g.router_ref(t).can_inject(),
                    )
                };
                let router_wake = g.router_ref(t).next_event(now_c + 1, program);
                let w = match (pe_wake, router_wake) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                parked[t] = true;
                class[t] = cl;
                since[t] = now_c + 1;
                wake[t] = w.map_or(u64::MAX, |w| w.max(now_c + 1));
                if wake[t] != u64::MAX {
                    calendars[s].push(Reverse((wake[t], t)));
                }
            }
        }
        drop(_prof_commit);

        // Progress trace sample (Fig. 17), same serial point as the
        // reference loop.
        if cfg.trace_interval > 0 && now_c.is_multiple_of(cfg.trace_interval) {
            let _p = profiling.then(|| crate::profile::scope(crate::profile::Component::Stats));
            let mut total = stats.total_ops();
            for g in guards.iter() {
                total += g.stats.total_ops();
            }
            stats.trace.push((now_c, total));
        }

        *now = now_c + 1;
    }
    Ok(())
}

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

    #[test]
    fn engine_results_invariant_to_thread_count_and_fast_forward() {
        // The engine contract: shard count, worker pool and idle-cycle
        // fast-forward are pure host knobs — outputs and every statistic
        // (including per-tile detail and the progress trace) must be
        // bit-identical across all of them.
        let a = generate::grid_laplacian_2d(10, 10);
        let l = ic0(&a).unwrap();
        let grid = TileGrid::new(4, 4);
        let p = AzulMapper::default().map(&a, grid);
        let spmv = Program::compile_spmv(&a, &p);
        let trsv = Program::compile_sptrsv_lower(&l, &a, &p);
        let input = test_input(a.rows());
        let run = |threads: usize, ff: bool, event: bool, prog: &Program| {
            let mut cfg = SimConfig::azul(grid);
            cfg.threads = threads;
            cfg.fast_forward = ff;
            cfg.event_engine = event;
            cfg.detailed_stats = true;
            cfg.check_invariants = true;
            // Event tracing is part of the contract too: the sealed
            // buffer (events, order and drop accounting) must be
            // bit-identical across every engine configuration.
            cfg.trace = Some(azul_telemetry::trace::TraceConfig::default());
            run_kernel(&cfg, prog, &input)
        };
        for prog in [&spmv, &trsv] {
            let base = run(1, false, false, prog);
            assert!(
                !base.1.trace_ev.events.is_empty(),
                "traced kernel must record events"
            );
            for threads in [1usize, 3, 16] {
                for (ff, event) in [(false, false), (true, false), (false, true), (true, true)] {
                    let got = run(threads, ff, event, prog);
                    assert_eq!(
                        got.0, base.0,
                        "output diverged at threads={threads} ff={ff} event={event}"
                    );
                    assert_eq!(
                        got.1, base.1,
                        "stats diverged at threads={threads} ff={ff} event={event}"
                    );
                }
            }
        }
    }

    #[test]
    fn event_engine_wakes_context_blocked_behind_issued_send() {
        // Regression: the event engine parks each tile until its
        // earliest predicted wake. A PE issues at most one operation
        // per cycle, so after a tick that issued from context A,
        // context B can hold a Send whose injection would succeed
        // (`can_inject` true, router possibly empty). The original
        // `wake_profile` treated every Send front as "router-bound, no
        // self-driven wake" — sound for the machine-wide fast-forward
        // (which only consults profiles on zero-progress cycles, where
        // an issueable Send cannot exist) but a lost wakeup here: the
        // tile parked with no wake and an event-less router, and the
        // kernel wedged with zero in-flight flits. This is the exact
        // program/mapping that exposed it.
        let a = generate::grid_laplacian_2d(10, 10);
        let grid = TileGrid::new(4, 4);
        let p = AzulMapper::default().map(&a, grid);
        let prog = Program::compile_spmv(&a, &p);
        let input = test_input(a.rows());
        let reference = run_kernel(&SimConfig::azul(grid), &prog, &input);
        let mut cfg = SimConfig::azul(grid);
        cfg.event_engine = true;
        // Tight watchdog: a reintroduced lost wakeup fails fast instead
        // of burning the full default horizon.
        cfg.watchdog_no_progress_cycles = 2_000;
        let got = run_kernel_checked(&cfg, &prog, &input, None)
            .expect("pending Send behind an issued op must re-arm the tile");
        assert_eq!(got, reference);
    }

    #[test]
    fn fast_forward_never_skips_past_blocked_head() {
        // Regression (over-skip audit): a LinkDown outage parks a
        // head-of-line flit with *no* self-driven wake. A skip engine
        // that jumps past the window anyway would silently deflate the
        // cycle count — the solve would appear to finish before the
        // outage even closed. Blocking every output of the first three
        // tiles for `outage` cycles forces the serial chain to wait the
        // window out: the faulted run must outlast it, and both skip
        // engines must agree with the reference bit-for-bit.
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
        let run = |ff: bool, event: bool, faults: bool| {
            let mut cfg = SimConfig::azul(grid);
            cfg.fast_forward = ff;
            cfg.event_engine = event;
            cfg.detailed_stats = true;
            cfg.check_invariants = true;
            if faults {
                cfg.faults = Some(plan.clone());
            }
            run_kernel(&cfg, &prog, &b)
        };
        let clean = run(false, false, false);
        let reference = run(false, false, true);
        assert!(
            clean.1.cycles < outage,
            "sanity: the clean solve must finish inside the window"
        );
        assert!(
            reference.1.cycles > outage,
            "the blocked chain must wait the outage out"
        );
        for (ff, event) in [(true, false), (false, true), (true, true)] {
            let got = run(ff, event, true);
            assert_eq!(
                got, reference,
                "skip engine deflated the blocked run at ff={ff} event={event}"
            );
        }
        let expect = sptrsv_lower(&l, &b);
        assert!(dense::rel_l2_diff(&reference.0, &expect) < 1e-10);
    }

    #[test]
    fn fault_timeline_is_byte_identical_across_engines() {
        // Regression: a fault window opening (or expiring) *inside* a
        // span the event engine wanted to jump over must clamp the jump
        // target, or the event fires late: the journal records the
        // wrong cycle and the outage covers the wrong traffic. Seeded
        // plans across SpMV + SpTRSV (threaded through one session so
        // events land mid-solve) must journal identical records — cycle,
        // kind, applied flag and note — with the event engine on or off.
        let a = generate::grid_laplacian_2d(10, 10);
        let l = ic0(&a).unwrap();
        let grid = TileGrid::new(4, 4);
        let p = AzulMapper::default().map(&a, grid);
        let spmv = Program::compile_spmv(&a, &p);
        let trsv = Program::compile_sptrsv_lower(&l, &a, &p);
        let input = test_input(a.rows());
        for seed in [3u64, 11, 42] {
            let plan = crate::faults::FaultPlan::seeded(seed, grid.num_tiles(), 6, 4_000);
            let run = |event: bool| {
                let mut cfg = SimConfig::azul(grid);
                cfg.event_engine = event;
                cfg.detailed_stats = true;
                cfg.check_invariants = true;
                let mut session = FaultSession::new(plan.clone());
                let r1 = run_kernel_checked(&cfg, &spmv, &input, Some(&mut session))
                    .expect("windowed faults resolve");
                let r2 = run_kernel_checked(&cfg, &trsv, &input, Some(&mut session))
                    .expect("windowed faults resolve");
                (r1, r2, session.records().to_vec())
            };
            let base = run(false);
            let got = run(true);
            assert_eq!(
                got.2, base.2,
                "fault journal diverged under the event engine at seed {seed}"
            );
            assert_eq!(got.0, base.0, "spmv diverged at seed {seed}");
            assert_eq!(got.1, base.1, "sptrsv diverged at seed {seed}");
        }
    }

    #[test]
    fn mid_span_rearm_credits_skipped_cycles_once() {
        // Regression (double-credit audit): when a delivery re-arms a
        // parked tile mid-span, the span's idle/stall cycles must be
        // credited exactly once — at the wake — never again when the
        // arrival moves the wake earlier. The serial tridiagonal chain
        // parks every tile between messages; sweeping the hop latency
        // shifts arrivals across park/wake edges. Per-tile detail stats
        // and the invariant-audit counters (both part of `KernelStats`
        // equality) would expose any double or missed credit.
        let a = generate::tridiagonal(48);
        let l = a.lower_triangle();
        let grid = TileGrid::new(2, 2);
        let p = BlockMapper.map(&a, grid);
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        let b = test_input(48);
        for hop in [1u32, 2, 3, 5, 8, 13] {
            let run = |event: bool| {
                let mut cfg = SimConfig::azul(grid);
                cfg.hop_latency = hop;
                cfg.event_engine = event;
                cfg.detailed_stats = true;
                cfg.check_invariants = true;
                run_kernel(&cfg, &prog, &b)
            };
            let reference = run(false);
            let got = run(true);
            assert_eq!(got, reference, "credit divergence at hop_latency {hop}");
        }
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
