//! The Azul processing element (Sec. V-A, Fig. 19).
//!
//! The PE is message-driven: triggers (arriving multicast values, partial
//! sums, or kernel-start tasks) occupy one of a few hardware contexts,
//! each running an operation-generator FSM that emits a stream of
//! Fmac/Add/Mul/Send operations. One operation issues per cycle; an
//! operation that would read an accumulator slot still in the pipeline
//! (RAW hazard) cannot issue, and fine-grained multithreading hides such
//! stalls by issuing from another ready context (Fig. 27 ablates this).
//!
//! Three PE models share this code: the specialized Azul PE, the Dalorex
//! scalar core (each arithmetic operation pays bookkeeping-instruction
//! cycles), and an idealized PE that retires whole tasks instantly
//! (Figs. 10/11's methodology).

use crate::config::{PeModel, SimConfig};
use crate::machine::SimError;
use crate::program::{Program, SlotAction, TileProgram};
use crate::replay::Record;
use crate::router::{Flit, FlitKind, Router, PORT_INJECT};
use crate::stats::{KernelStats, OpKind};
use azul_mapping::TileId;
use azul_telemetry::trace::{TraceEvent, TraceKind, CAT_PE, CAT_ROUTER};
use std::collections::VecDeque;

/// Records a PE operation trace event. One branch on the category mask
/// when tracing is off (`SimConfig::trace = None` leaves the mask 0).
#[inline]
fn trace_op(stats: &mut KernelStats, now: u64, tile: u32, kind: OpKind) {
    if stats.trace_ev.wants(CAT_PE) {
        stats.trace_ev.push(TraceEvent {
            cycle: now,
            tile,
            kind: TraceKind::PeOp,
            arg: kind as u64,
        });
    }
}

/// Records a router-enqueue trace event for a locally injected flit.
#[inline]
fn trace_enqueue(stats: &mut KernelStats, now: u64, tile: u32) {
    if stats.trace_ev.wants(CAT_ROUTER) {
        stats.trace_ev.push(TraceEvent {
            cycle: now,
            tile,
            kind: TraceKind::RouterEnqueue,
            arg: PORT_INJECT as u64,
        });
    }
}

/// The trigger discriminant carried by [`TraceKind::PeWake`] events.
#[inline]
pub(crate) fn trigger_code(trig: &Trigger) -> u64 {
    match trig {
        Trigger::X { .. } => 0,
        Trigger::Partial { .. } => 1,
        Trigger::SendV { .. } => 2,
        Trigger::Solve { .. } => 3,
    }
}

/// Records a PE-wake trace event (a trigger landed in the message
/// buffer). Emitted at the call sites that know the cycle — trigger
/// delivery in the machine's tick, kernel start, and local self-triggers
/// — not inside [`Pe::push_trigger`], which has no clock.
#[inline]
pub(crate) fn trace_wake(stats: &mut KernelStats, now: u64, tile: u32, code: u64) {
    if stats.trace_ev.wants(CAT_PE) {
        stats.trace_ev.push(TraceEvent {
            cycle: now,
            tile,
            kind: TraceKind::PeWake,
            arg: code,
        });
    }
}

/// A task trigger waiting in the PE's message buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// A multicast value arrived: run ScaleAndAccumCol for `idx`.
    X {
        /// Triggering column/variable index.
        idx: u32,
        /// The value.
        val: f64,
    },
    /// A partial sum arrived: combine into `idx`'s slot.
    Partial {
        /// Target row index.
        idx: u32,
        /// The partial value.
        val: f64,
        /// The replay record's name for `val` (the flit's `src`).
        src: u32,
    },
    /// Kernel-start: multicast this tile's input element `idx` (SpMV
    /// SendV).
    SendV {
        /// Column index to send.
        idx: u32,
    },
    /// Kernel-start: variable `idx` has no dependences; solve immediately
    /// (SpTRSV level-0 rows).
    Solve {
        /// Variable index.
        idx: u32,
    },
}

/// How a PE accounts for the skipped cycles of a parked tile. Classes map
/// one-to-one onto what a real tick of a zero-progress cycle would have
/// recorded — see [`Pe::wake_profile`] and `docs/PERFORMANCE.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PeSkipClass {
    /// No work at all: a real tick would count `idle_at` each cycle.
    Idle,
    /// Work held back by a hazard or backpressure: a real tick would
    /// count `stall_at` each cycle.
    Stall,
    /// Active but recording no per-cycle stats (Ideal model, Dalorex
    /// bookkeeping busy window).
    Silent,
}

/// A follow-up operation a task still has to issue.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PendingOp {
    /// `slot += task.value` (reduction combine).
    Combine { slot: u32 },
    /// `x[target] = slot * inv_diag[target]`, then multicast/local-trigger.
    SolveMul { target: u32, slot: u32 },
    /// Inject a multicast flit carrying input element `idx` (SpMV
    /// SendV).
    SendV { idx: u32 },
    /// Inject a multicast flit carrying the solved `val` for `idx`.
    SendX { idx: u32, val: f64 },
    /// Inject a partial-sum flit carrying `val`, a slot's final value,
    /// which the replay record names `src`, for `target`, starting at
    /// tree row `row`.
    SendPartial {
        target: u32,
        row: u32,
        src: u32,
        val: f64,
    },
}

/// One active task context.
#[derive(Debug, Clone)]
struct Task {
    /// Trigger value (multiplicand for SAAC entries).
    value: f64,
    /// Where `value` comes from, for the replay record: the trigger
    /// index of a SAAC task, the record's name for a combine's partial.
    src: u32,
    /// Next entry index in the tile's entry table.
    cur: u32,
    /// One-past-last entry index.
    end: u32,
    /// The queued follow-up operation, issued before further entries.
    /// An issue leaves at most one behind: Fmac and Combine may queue a
    /// SendPartial or a SolveMul, SolveMul may queue a SendX, and a send
    /// queues nothing.
    pending: Option<PendingOp>,
}

impl Task {
    fn done(&self) -> bool {
        self.cur == self.end && self.pending.is_none()
    }

    /// Queues `op` as the task's follow-up operation.
    fn queue(&mut self, op: PendingOp) {
        debug_assert!(
            self.pending.is_none(),
            "a task queues at most one follow-up op: {op:?} after {:?}",
            self.pending
        );
        self.pending = Some(op);
    }
}

/// Per-tile processing element state.
#[derive(Debug, Clone)]
pub struct Pe {
    /// The hardware contexts, each holding at most one task.
    contexts: Vec<Option<Task>>,
    /// How many of `contexts` hold a task.
    busy: usize,
    /// Round-robin issue cursor over `contexts`.
    rr: usize,
    dp: Datapath,
}

/// The state every context of a PE shares: the message buffer, the
/// accumulator slots and the Dalorex issue timer. Kept apart from the
/// contexts so a task issues in place, borrowed next to it.
#[derive(Debug, Clone)]
struct Datapath {
    tile: TileId,
    /// The global number of this tile's slot 0 (`crate::replay`).
    slot_base: u32,
    msg_buffer: VecDeque<Trigger>,
    /// Dalorex: no issue until this cycle (bookkeeping instructions).
    busy_until: u64,
    /// Accumulator values, one per program slot.
    slot_vals: Vec<f64>,
    /// Remaining updates per slot.
    slot_remaining: Vec<u32>,
    /// Earliest cycle each slot may be read again (RAW hazard window).
    slot_ready: Vec<u64>,
}

impl Pe {
    /// Creates the PE of `tile`, sized for `tp`'s slots, with initial
    /// slot values (`b` for SpTRSV home slots, zero otherwise).
    /// `slot_base` numbers its slot 0 across tiles: the slot count of the
    /// tiles before it.
    pub fn new(
        tile: TileId,
        slot_base: u32,
        cfg: &SimConfig,
        tp: &TileProgram,
        input: &[f64],
    ) -> Self {
        Pe {
            contexts: vec![None; cfg.contexts.max(1)],
            busy: 0,
            rr: 0,
            dp: Datapath {
                tile,
                slot_base,
                msg_buffer: VecDeque::new(),
                busy_until: 0,
                slot_vals: tp.slots.iter().map(|s| s.initial(input)).collect(),
                slot_remaining: tp.slots.iter().map(|s| s.remaining).collect(),
                slot_ready: vec![0; tp.slots.len()],
            },
        }
    }

    /// Enqueues a trigger, counting a spill if the register buffer is
    /// full (Sec. V-A: overflow goes to the Data SRAM).
    pub fn push_trigger(&mut self, cfg: &SimConfig, trig: Trigger, stats: &mut KernelStats) {
        let dp = &mut self.dp;
        if dp.msg_buffer.len() >= cfg.msg_buffer_capacity {
            stats.spill_at(dp.tile);
            stats.sram_read_at(dp.tile); // spill write+read modeled as one RMW
        }
        dp.msg_buffer.push_back(trig);
        stats.note_msg_queue_depth(dp.tile, dp.msg_buffer.len());
    }

    /// Whether the PE holds any pending or in-flight work.
    pub fn has_work(&self) -> bool {
        !self.dp.msg_buffer.is_empty() || self.busy > 0
    }

    /// One PE cycle. Returns whether the PE made progress — refilled a
    /// context from the message buffer or issued an operation — or a
    /// [`SimError::MisroutedTrigger`] when a dequeued trigger has no
    /// entry in the tile program. Slot arithmetic goes to `rec` as it
    /// issues.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
        &mut self,
        now: u64,
        cfg: &SimConfig,
        tp: &TileProgram,
        prog: &Program,
        router: &mut Router,
        input: &[f64],
        out: &mut [f64],
        stats: &mut KernelStats,
        rec: &mut impl Record,
    ) -> Result<bool, SimError> {
        if cfg.pe_model == PeModel::Ideal {
            let drained = !self.dp.msg_buffer.is_empty();
            self.dp
                .tick_ideal(now, tp, prog, router, input, out, stats, rec)?;
            return Ok(drained);
        }

        // Refill free contexts, lowest index first, from the message
        // buffer.
        let mut refilled = false;
        if self.busy < self.contexts.len() && !self.dp.msg_buffer.is_empty() {
            for ctx in self.contexts.iter_mut().filter(|c| c.is_none()) {
                let Some(trig) = self.dp.msg_buffer.pop_front() else {
                    break;
                };
                *ctx = Some(self.dp.make_task(now, tp, trig)?);
                self.busy += 1;
                refilled = true;
            }
        }

        if !self.has_work() {
            stats.idle_at(self.dp.tile);
            return Ok(false);
        }

        // Dalorex bookkeeping stall.
        if now < self.dp.busy_until {
            return Ok(refilled);
        }

        // Issue from the first context (round-robin from `rr`) with an
        // issueable operation; single-context configs degrade to
        // in-order behavior.
        let nctx = self.contexts.len();
        for k in 0..nctx {
            let c = (self.rr + k) % nctx;
            let Some(task) = self.contexts[c].as_mut() else {
                continue;
            };
            if self
                .dp
                .try_issue(now, cfg, tp, prog, router, input, out, stats, rec, task)?
            {
                if task.done() {
                    self.contexts[c] = None;
                    self.busy -= 1;
                }
                self.rr = (c + 1) % nctx;
                return Ok(true);
            }
        }
        stats.stall_at(self.dp.tile);
        Ok(refilled)
    }

    /// The per-PE wake prediction (`docs/PERFORMANCE.md`): how each
    /// untaken cycle from `now` on must be accounted for this PE, and
    /// the earliest cycle it could act again (`None` = no self-driven
    /// wake; only a router event, a delivery or a fault-window change
    /// can revive it).
    ///
    /// Valid whenever the PE has not ticked since cycle `now - 1`, so
    /// its state is frozen as of `now`: the engine consults it right
    /// after a tick at `now - 1` to park the tile until the reported
    /// wake. A `Some(w)` with `w <= now` means "cannot skip — tick at
    /// `now`". The class is
    /// stable across the whole parked span: flit arrivals only touch
    /// the router, and a delivery (which would change the class) can
    /// only happen during a tick, which re-evaluates the profile.
    /// `can_inject` is the tile router's current inject capacity
    /// ([`crate::router::Router::can_inject`]): a context whose front
    /// operation is a send can issue at `now` when the queue has room,
    /// so it pins the wake to `now`. When the queue is full the send
    /// reports no wake of its own — the router then necessarily holds
    /// flits, so its `Router::next_event` bounds the park instead.
    /// (Passing `false` here with an injectable send pending would
    /// strand the tile: the PE may have issued a *different* context's
    /// operation on its last tick, leaving the send unattempted with an
    /// empty, event-less router.)
    pub(crate) fn wake_profile(
        &self,
        now: u64,
        cfg: &SimConfig,
        tp: &TileProgram,
        can_inject: bool,
    ) -> (PeSkipClass, Option<u64>) {
        if cfg.pe_model == PeModel::Ideal {
            // Ideal PEs drain fully every tick and record no idle/stall
            // stats; a leftover trigger (should not happen) pins the
            // event to `now` so the engine falls back to real ticking.
            let wake = if self.has_work() { Some(now) } else { None };
            return (PeSkipClass::Silent, wake);
        }
        if !self.has_work() {
            return (PeSkipClass::Idle, None);
        }
        let dp = &self.dp;
        // A buffered trigger plus a free context means a real tick would
        // refill and possibly issue: refuse to skip this tile's cycles.
        if !dp.msg_buffer.is_empty() && self.busy < self.contexts.len() {
            return (PeSkipClass::Stall, Some(now));
        }
        if dp.busy_until > now {
            // Dalorex bookkeeping window: the real tick returns early
            // with no stat recorded until the timer expires.
            return (PeSkipClass::Silent, Some(dp.busy_until));
        }
        // Blocked on hazards/backpressure: a real tick counts one stall
        // per cycle until the earliest slot-ready timer expires.
        let mut wake: Option<u64> = None;
        for task in self.contexts.iter().flatten() {
            let slot = match task.pending {
                Some(PendingOp::Combine { slot }) => Some(slot),
                Some(PendingOp::SolveMul { slot, .. }) => Some(slot),
                Some(PendingOp::SendV { .. })
                | Some(PendingOp::SendX { .. })
                | Some(PendingOp::SendPartial { .. }) => {
                    if can_inject {
                        // Issueable right now: only single-issue
                        // arbitration held it back on the last tick.
                        return (PeSkipClass::Stall, Some(now));
                    }
                    // Router-bound: woken by the router, not a PE timer.
                    None
                }
                None => {
                    debug_assert!(task.cur < task.end);
                    Some(tp.entries[task.cur as usize].slot)
                }
            };
            if let Some(s) = slot {
                let ready = dp.slot_ready[s as usize];
                wake = Some(wake.map_or(ready, |w: u64| w.min(ready)));
            }
        }
        (PeSkipClass::Stall, wake)
    }

    /// The tile this PE belongs to.
    pub fn tile(&self) -> TileId {
        self.dp.tile
    }

    /// Injected SRAM upset: flips `bit` (mod 64) of accumulator slot
    /// `slot`. Returns the `(old, new)` values, or `None` when this
    /// tile's program has no such slot (the upset lands in unused SRAM).
    pub fn flip_slot_bit(&mut self, slot: u32, bit: u32) -> Option<(f64, f64)> {
        let v = self.dp.slot_vals.get_mut(slot as usize)?;
        let old = *v;
        *v = f64::from_bits(old.to_bits() ^ (1u64 << (bit % 64)));
        Some((old, *v))
    }
}

impl Datapath {
    /// Typed error for a trigger this tile's program cannot serve.
    fn misrouted(&self, now: u64, what: &str, idx: u32) -> SimError {
        SimError::MisroutedTrigger {
            cycle: now,
            tile: self.tile,
            // azul-lint: allow(alloc-in-tick-path) failure path: allocates once while aborting the kernel
            detail: format!("{what} {idx} has no entry in this tile's program"),
        }
    }

    /// Builds a task from a trigger, or a [`SimError::MisroutedTrigger`]
    /// when the tile program has no slot/range for it (a compiler bug).
    fn make_task(&mut self, now: u64, tp: &TileProgram, trig: Trigger) -> Result<Task, SimError> {
        Ok(match trig {
            Trigger::X { idx, val } => {
                let (start, end) = tp
                    .saac_range(idx)
                    .ok_or_else(|| self.misrouted(now, "x trigger for column", idx))?;
                Task {
                    value: val,
                    src: idx,
                    cur: start,
                    end,
                    pending: None,
                }
            }
            Trigger::Partial { idx, val, src } => {
                let slot = tp
                    .combine_slot(idx)
                    .ok_or_else(|| self.misrouted(now, "partial for row", idx))?;
                Task {
                    value: val,
                    src,
                    cur: 0,
                    end: 0,
                    pending: Some(PendingOp::Combine { slot }),
                }
            }
            Trigger::SendV { idx } => Task {
                value: 0.0,
                src: 0,
                cur: 0,
                end: 0,
                pending: Some(PendingOp::SendV { idx }),
            },
            Trigger::Solve { idx } => {
                let slot = tp
                    .combine_slot(idx)
                    .ok_or_else(|| self.misrouted(now, "solve trigger for row", idx))?;
                Task {
                    value: 0.0,
                    src: 0,
                    cur: 0,
                    end: 0,
                    pending: Some(PendingOp::SolveMul { target: idx, slot }),
                }
            }
        })
    }

    /// Runs slot-completion logic, queueing `task`'s follow-up op.
    fn complete_slot(
        &mut self,
        slot: u32,
        tp: &TileProgram,
        task: &mut Task,
        out: &mut [f64],
        rec: &mut impl Record,
    ) {
        match tp.slots[slot as usize].action {
            SlotAction::SendPartial { target, row } => {
                task.queue(PendingOp::SendPartial {
                    target,
                    row,
                    src: rec.send(self.slot_base + slot),
                    val: self.slot_vals[slot as usize],
                });
            }
            SlotAction::FinalY { target } => {
                out[target as usize] = self.slot_vals[slot as usize];
                rec.output(self.slot_base + slot, target);
            }
            SlotAction::Solve { target } => {
                task.queue(PendingOp::SolveMul { target, slot });
            }
        }
    }

    /// The row a multicast of `idx` starts at, or a
    /// [`SimError::MisroutedTrigger`] when the program has no tree for it.
    fn multicast_row(&self, now: u64, prog: &Program, idx: u32) -> Result<u32, SimError> {
        prog.multicast_row(idx)
            .ok_or_else(|| self.misrouted(now, "multicast of column", idx))
    }

    /// Injects a `kind` flit for `idx` carrying `val` (the final value
    /// of global slot `src` for a partial), starting at tree row `row`,
    /// and counts the send; inject backpressure ([`Router::can_inject`])
    /// is the caller's to check.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        now: u64,
        router: &mut Router,
        kind: FlitKind,
        idx: u32,
        row: u32,
        src: u32,
        val: f64,
        stats: &mut KernelStats,
    ) {
        router.inject(
            now,
            Flit {
                kind,
                idx,
                row,
                val,
                src,
                outbound: true,
            },
        );
        stats.count_op_at(self.tile, OpKind::Send);
        stats.messages += 1;
        stats.sram_read_at(self.tile);
        trace_op(stats, now, self.tile, OpKind::Send);
        trace_enqueue(stats, now, self.tile);
    }

    /// Attempts to issue `task`'s next operation. Returns whether an
    /// operation issued, or a [`SimError::MisroutedTrigger`] when a
    /// multicast has no tree to start at.
    #[allow(clippy::too_many_arguments)]
    fn try_issue(
        &mut self,
        now: u64,
        cfg: &SimConfig,
        tp: &TileProgram,
        prog: &Program,
        router: &mut Router,
        input: &[f64],
        out: &mut [f64],
        stats: &mut KernelStats,
        rec: &mut impl Record,
        task: &mut Task,
    ) -> Result<bool, SimError> {
        let hazard = cfg.hazard_latency();
        let arith_cost = |s: &mut Self, stats: &mut KernelStats| {
            if cfg.pe_model == PeModel::Dalorex {
                s.busy_until = now + 1 + cfg.dalorex_overhead as u64;
                stats.overhead_cycles += cfg.dalorex_overhead as u64;
            }
        };

        let issued = if let Some(op) = task.pending {
            match op {
                PendingOp::Combine { slot } => {
                    if self.slot_ready[slot as usize] > now {
                        return Ok(false);
                    }
                    task.pending = None;
                    self.slot_vals[slot as usize] += task.value;
                    self.slot_remaining[slot as usize] -= 1;
                    let left = self.slot_remaining[slot as usize];
                    rec.combine(self.slot_base + slot, left, task.src);
                    self.slot_ready[slot as usize] = now + hazard;
                    stats.count_op_at(self.tile, OpKind::Add);
                    stats.accum_rmw_at(self.tile);
                    trace_op(stats, now, self.tile, OpKind::Add);
                    if self.slot_remaining[slot as usize] == 0 {
                        self.complete_slot(slot, tp, task, out, rec);
                    }
                    arith_cost(self, stats);
                    true
                }
                PendingOp::SolveMul { target, slot } => {
                    if self.slot_ready[slot as usize] > now {
                        return Ok(false);
                    }
                    task.pending = None;
                    let x = self.slot_vals[slot as usize] * prog.inv_diag[target as usize];
                    out[target as usize] = x;
                    rec.output(self.slot_base + slot, target);
                    self.slot_ready[slot as usize] = now + hazard;
                    stats.count_op_at(self.tile, OpKind::Mul);
                    stats.sram_read_at(self.tile); // reciprocal diagonal fetch
                    trace_op(stats, now, self.tile, OpKind::Mul);
                    if prog.x_tree[target as usize].is_some() {
                        task.queue(PendingOp::SendX {
                            idx: target,
                            val: x,
                        });
                    }
                    if tp.saac_range(target).is_some() {
                        // Local dependents: trigger our own SAAC directly.
                        self.msg_buffer.push_back(Trigger::X {
                            idx: target,
                            val: x,
                        });
                        stats.note_msg_queue_depth(self.tile, self.msg_buffer.len());
                        trace_wake(stats, now, self.tile, 0);
                    }
                    arith_cost(self, stats);
                    true
                }
                PendingOp::SendV { idx } => {
                    if !router.can_inject() {
                        return Ok(false);
                    }
                    task.pending = None;
                    let row = self.multicast_row(now, prog, idx)?;
                    let v = input[idx as usize];
                    self.send(now, router, FlitKind::X, idx, row, 0, v, stats);
                    true
                }
                PendingOp::SendX { idx, val } => {
                    if !router.can_inject() {
                        return Ok(false);
                    }
                    task.pending = None;
                    let row = self.multicast_row(now, prog, idx)?;
                    self.send(now, router, FlitKind::X, idx, row, 0, val, stats);
                    true
                }
                PendingOp::SendPartial {
                    target,
                    row,
                    src,
                    val,
                } => {
                    if !router.can_inject() {
                        return Ok(false);
                    }
                    task.pending = None;
                    self.send(now, router, FlitKind::Partial, target, row, src, val, stats);
                    true
                }
            }
        } else {
            // Next SAAC entry: an Fmac.
            debug_assert!(task.cur < task.end);
            let entry = tp.entries[task.cur as usize];
            if self.slot_ready[entry.slot as usize] > now {
                return Ok(false);
            }
            task.cur += 1;
            self.slot_vals[entry.slot as usize] += entry.coeff * task.value;
            self.slot_remaining[entry.slot as usize] -= 1;
            let left = self.slot_remaining[entry.slot as usize];
            rec.fmac(
                self.slot_base + entry.slot,
                left,
                task.src,
                entry.pos,
                entry.coeff,
            );
            self.slot_ready[entry.slot as usize] = now + hazard;
            stats.count_op_at(self.tile, OpKind::Fmac);
            stats.sram_read_at(self.tile);
            stats.accum_rmw_at(self.tile);
            trace_op(stats, now, self.tile, OpKind::Fmac);
            if self.slot_remaining[entry.slot as usize] == 0 {
                self.complete_slot(entry.slot, tp, task, out, rec);
            }
            arith_cost(self, stats);
            true
        };
        Ok(issued)
    }

    /// The idealized PE: retires every queued task instantly each cycle.
    #[allow(clippy::too_many_arguments)]
    fn tick_ideal(
        &mut self,
        now: u64,
        tp: &TileProgram,
        prog: &Program,
        router: &mut Router,
        input: &[f64],
        out: &mut [f64],
        stats: &mut KernelStats,
        rec: &mut impl Record,
    ) -> Result<(), SimError> {
        while let Some(trig) = self.msg_buffer.pop_front() {
            let mut task = self.make_task(now, tp, trig)?;
            loop {
                // Execute the full op stream with no timing constraints
                // (slot_ready is ignored by executing effects directly).
                if let Some(op) = task.pending.take() {
                    match op {
                        PendingOp::Combine { slot } => {
                            self.slot_vals[slot as usize] += task.value;
                            self.slot_remaining[slot as usize] -= 1;
                            let left = self.slot_remaining[slot as usize];
                            rec.combine(self.slot_base + slot, left, task.src);
                            stats.count_op_at(self.tile, OpKind::Add);
                            stats.accum_rmw_at(self.tile);
                            trace_op(stats, now, self.tile, OpKind::Add);
                            if self.slot_remaining[slot as usize] == 0 {
                                self.complete_slot(slot, tp, &mut task, out, rec);
                            }
                        }
                        PendingOp::SolveMul { target, slot } => {
                            let x = self.slot_vals[slot as usize] * prog.inv_diag[target as usize];
                            out[target as usize] = x;
                            rec.output(self.slot_base + slot, target);
                            stats.count_op_at(self.tile, OpKind::Mul);
                            stats.sram_read_at(self.tile);
                            trace_op(stats, now, self.tile, OpKind::Mul);
                            if prog.x_tree[target as usize].is_some() {
                                task.queue(PendingOp::SendX {
                                    idx: target,
                                    val: x,
                                });
                            }
                            if tp.saac_range(target).is_some() {
                                self.msg_buffer.push_back(Trigger::X {
                                    idx: target,
                                    val: x,
                                });
                                stats.note_msg_queue_depth(self.tile, self.msg_buffer.len());
                                trace_wake(stats, now, self.tile, 0);
                            }
                        }
                        PendingOp::SendV { idx } => {
                            let row = self.multicast_row(now, prog, idx)?;
                            let v = input[idx as usize];
                            self.send(now, router, FlitKind::X, idx, row, 0, v, stats);
                        }
                        PendingOp::SendX { idx, val } => {
                            let row = self.multicast_row(now, prog, idx)?;
                            self.send(now, router, FlitKind::X, idx, row, 0, val, stats);
                        }
                        PendingOp::SendPartial {
                            target,
                            row,
                            src,
                            val,
                        } => {
                            self.send(now, router, FlitKind::Partial, target, row, src, val, stats);
                        }
                    }
                } else if task.cur < task.end {
                    let entry = tp.entries[task.cur as usize];
                    task.cur += 1;
                    self.slot_vals[entry.slot as usize] += entry.coeff * task.value;
                    self.slot_remaining[entry.slot as usize] -= 1;
                    let left = self.slot_remaining[entry.slot as usize];
                    rec.fmac(
                        self.slot_base + entry.slot,
                        left,
                        task.src,
                        entry.pos,
                        entry.coeff,
                    );
                    stats.count_op_at(self.tile, OpKind::Fmac);
                    stats.sram_read_at(self.tile);
                    stats.accum_rmw_at(self.tile);
                    trace_op(stats, now, self.tile, OpKind::Fmac);
                    if self.slot_remaining[entry.slot as usize] == 0 {
                        self.complete_slot(entry.slot, tp, &mut task, out, rec);
                    }
                } else {
                    break;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_mapping::{Placement, TileGrid};
    use azul_sparse::generate;

    /// A single-tile setup where everything is local.
    fn single_tile_setup() -> (azul_sparse::Csr, Program, SimConfig) {
        let a = generate::grid_laplacian_2d(3, 3);
        let grid = TileGrid::new(1, 1);
        let p = Placement::new(grid, vec![0; a.nnz()], vec![0; 9]);
        let prog = Program::compile_spmv(&a, &p);
        let cfg = SimConfig::azul(grid);
        (a, prog, cfg)
    }

    #[test]
    fn local_spmv_computes_correct_values() {
        let (a, prog, cfg) = single_tile_setup();
        let x: Vec<f64> = (0..9).map(|i| i as f64 + 1.0).collect();
        let tp = prog.tile(0);
        let mut pe = Pe::new(0, 0, &cfg, tp, &x);
        let mut router = Router::new(prog.grid, 0, 16);
        let mut out = vec![0.0; 9];
        let mut stats = KernelStats::default();
        // SpMV start: X triggers for all columns (all local).
        for &j in &tp.send_v {
            if tp.saac_range(j).is_some() {
                pe.push_trigger(
                    &cfg,
                    Trigger::X {
                        idx: j,
                        val: x[j as usize],
                    },
                    &mut stats,
                );
            }
        }
        let mut now = 0u64;
        while pe.has_work() {
            pe.tick(
                now,
                &cfg,
                tp,
                &prog,
                &mut router,
                &x,
                &mut out,
                &mut stats,
                &mut (),
            )
            .unwrap();
            now += 1;
            assert!(now < 10_000, "PE failed to drain");
        }
        let expect = a.spmv(&x);
        for i in 0..9 {
            assert!((out[i] - expect[i]).abs() < 1e-12, "row {i}");
        }
        assert_eq!(stats.ops_of(OpKind::Fmac), a.nnz() as u64);
        assert_eq!(stats.ops_of(OpKind::Send), 0, "all-local: no messages");
    }

    #[test]
    fn hazard_stalls_single_context() {
        // Two FMACs to the same slot back-to-back must be separated by the
        // hazard window when only one context exists.
        let (_, prog, mut cfg) = single_tile_setup();
        cfg.contexts = 1;
        cfg.sram_latency = 8; // widen the hazard window so back-to-back
                              // same-slot FMACs are guaranteed to collide
        let x = vec![1.0; 9];
        let tp = prog.tile(0);
        // Column 4 (grid center) has 5 entries hitting 5 different rows:
        // no hazard there. Instead trigger the same column twice: second
        // task hits the same slots.
        let mut pe = Pe::new(0, 0, &cfg, tp, &x);
        let mut router = Router::new(prog.grid, 0, 16);
        let mut out = vec![0.0; 9];
        let mut stats = KernelStats::default();
        pe.push_trigger(&cfg, Trigger::X { idx: 4, val: 1.0 }, &mut stats);
        pe.push_trigger(&cfg, Trigger::X { idx: 4, val: 1.0 }, &mut stats);
        let mut now = 0u64;
        while pe.has_work() && now < 1000 {
            pe.tick(
                now,
                &cfg,
                tp,
                &prog,
                &mut router,
                &x,
                &mut out,
                &mut stats,
                &mut (),
            )
            .unwrap();
            now += 1;
        }
        assert!(stats.stall_cycles > 0, "same-slot FMACs must stall");
    }

    #[test]
    fn multithreading_reduces_stalls() {
        let (_, prog, base) = single_tile_setup();
        let x = vec![1.0; 9];
        let tp = prog.tile(0);
        let run = |contexts: usize| -> (u64, u64) {
            let mut cfg = base.clone();
            cfg.contexts = contexts;
            let mut pe = Pe::new(0, 0, &cfg, tp, &x);
            let mut router = Router::new(prog.grid, 0, 64);
            let mut out = vec![0.0; 9];
            let mut stats = KernelStats::default();
            // Many tasks hitting overlapping slots.
            for j in 0..9u32 {
                if tp.saac_range(j).is_some() {
                    pe.push_trigger(&cfg, Trigger::X { idx: j, val: 1.0 }, &mut stats);
                }
            }
            let mut now = 0u64;
            while pe.has_work() && now < 10_000 {
                pe.tick(
                    now,
                    &cfg,
                    tp,
                    &prog,
                    &mut router,
                    &x,
                    &mut out,
                    &mut stats,
                    &mut (),
                )
                .unwrap();
                now += 1;
            }
            (now, stats.stall_cycles)
        };
        let (t1, s1) = run(1);
        let (t4, s4) = run(4);
        assert!(
            t4 <= t1,
            "multithreading should not slow down: {t4} vs {t1}"
        );
        assert!(
            s4 <= s1,
            "multithreading should reduce stalls: {s4} vs {s1}"
        );
    }

    #[test]
    fn dalorex_pays_overhead() {
        let (a, prog, base) = single_tile_setup();
        let x = vec![1.0; 9];
        let tp = prog.tile(0);
        let run = |model: PeModel| -> u64 {
            let mut cfg = base.clone();
            cfg.pe_model = model;
            if model == PeModel::Dalorex {
                cfg.contexts = 1;
            }
            let mut pe = Pe::new(0, 0, &cfg, tp, &x);
            let mut router = Router::new(prog.grid, 0, 64);
            let mut out = vec![0.0; 9];
            let mut stats = KernelStats::default();
            for j in 0..9u32 {
                if tp.saac_range(j).is_some() {
                    pe.push_trigger(&cfg, Trigger::X { idx: j, val: 1.0 }, &mut stats);
                }
            }
            let mut now = 0u64;
            while pe.has_work() && now < 100_000 {
                pe.tick(
                    now,
                    &cfg,
                    tp,
                    &prog,
                    &mut router,
                    &x,
                    &mut out,
                    &mut stats,
                    &mut (),
                )
                .unwrap();
                now += 1;
            }
            now
        };
        let azul = run(PeModel::Azul);
        let dalorex = run(PeModel::Dalorex);
        assert!(
            dalorex as f64 > 4.0 * azul as f64,
            "dalorex {dalorex} should be much slower than azul {azul}"
        );
        let _ = a;
    }

    #[test]
    fn ideal_pe_retires_instantly() {
        let (a, prog, mut cfg) = single_tile_setup();
        cfg.pe_model = PeModel::Ideal;
        let x = vec![2.0; 9];
        let tp = prog.tile(0);
        let mut pe = Pe::new(0, 0, &cfg, tp, &x);
        let mut router = Router::new(prog.grid, 0, 1024);
        let mut out = vec![0.0; 9];
        let mut stats = KernelStats::default();
        for j in 0..9u32 {
            if tp.saac_range(j).is_some() {
                pe.push_trigger(&cfg, Trigger::X { idx: j, val: 2.0 }, &mut stats);
            }
        }
        pe.tick(
            0,
            &cfg,
            tp,
            &prog,
            &mut router,
            &x,
            &mut out,
            &mut stats,
            &mut (),
        )
        .unwrap();
        assert!(!pe.has_work(), "ideal PE drains in one tick");
        let expect = a.spmv(&x);
        for i in 0..9 {
            assert!((out[i] - expect[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn spills_counted_beyond_capacity() {
        let (_, prog, mut cfg) = single_tile_setup();
        cfg.msg_buffer_capacity = 2;
        let x = vec![1.0; 9];
        let tp = prog.tile(0);
        let mut pe = Pe::new(0, 0, &cfg, tp, &x);
        let mut stats = KernelStats::default();
        for j in 0..5u32 {
            pe.push_trigger(&cfg, Trigger::X { idx: j, val: 1.0 }, &mut stats);
        }
        assert_eq!(stats.spills, 3);
    }
}
