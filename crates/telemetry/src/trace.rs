//! Deterministic simulated-time event tracing.
//!
//! The telemetry report (see [`crate::report`]) aggregates a whole run
//! into counters and heatmaps; this module records *when* things
//! happened. Producers (the cycle-level simulator) append compact
//! [`TraceEvent`]s — kernel begin/end, PE operations and wakes, router
//! forwards and retirements, fault firings — stamped in simulated
//! cycles, into a [`TraceBuf`] carried alongside the kernel statistics.
//! [`chrome_trace_json`] then renders the buffer as a Chrome
//! trace-event / Perfetto JSON document (one track per PE, one per
//! router, one for the kernel timeline, one for supervisor escalations)
//! that opens directly in `ui.perfetto.dev` or `chrome://tracing`.
//!
//! # Determinism contract
//!
//! Traced runs must stay byte-identical across parked or ticked idle
//! tiles, with host-profiling probes on or off, and across repeated
//! seeded-fault runs. Three properties deliver that:
//!
//! 1. During collection only the per-category filter applies — a pure
//!    per-event predicate, so every engine configuration records the
//!    same multiset of events.
//! 2. Every event is keyed `(cycle, tile, kind, arg)` and [`TraceBuf::
//!    seal`] sorts on exactly that derived order at the end of the
//!    kernel, erasing the order in which tiles were ticked.
//! 3. The bounded-capacity policy is deterministic stride sampling
//!    applied only to the *sorted* buffer (never mid-collection), so
//!    which events are dropped depends only on the sorted content.
//!
//! Events are transitions, not states: the idle cycles of a parked tile
//! contain no events, so not ticking them changes nothing.

use crate::json::Value;

/// Category bit: kernel begin/end markers.
pub const CAT_KERNEL: u8 = 1 << 0;
/// Category bit: PE compute and wake events.
pub const CAT_PE: u8 = 1 << 1;
/// Category bit: router enqueue/forward/retire events.
pub const CAT_ROUTER: u8 = 1 << 2;
/// Category bit: fault-injection firings.
pub const CAT_FAULT: u8 = 1 << 3;
/// Category bit: supervisor escalation markers (export-side only).
pub const CAT_SUPERVISOR: u8 = 1 << 4;
/// All categories.
pub const CAT_ALL: u8 = CAT_KERNEL | CAT_PE | CAT_ROUTER | CAT_FAULT | CAT_SUPERVISOR;

/// What a [`TraceEvent`] records. The discriminant order is part of the
/// deterministic sort key (events sharing a cycle and tile order by
/// kind), so variants must keep their positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// A kernel started (tile 0 by convention; `arg` is unused).
    KernelBegin = 0,
    /// A kernel reached quiescence (`arg` is unused).
    KernelEnd = 1,
    /// A PE issued an operation; `arg` is the operation code
    /// (0 = fmac, 1 = add, 2 = mul, 3 = send).
    PeOp = 2,
    /// A message woke (or queued work on) a PE; `arg` is the trigger
    /// discriminant (0 = x-value, 1 = partial, 2 = send-v, 3 = solve).
    PeWake = 3,
    /// A flit entered a router's injection queue; `arg` is the port.
    RouterEnqueue = 4,
    /// A router forwarded a flit out of a link; `arg` is the direction.
    RouterForward = 5,
    /// A router fully retired a queued flit; `arg` is the port.
    RouterRetire = 6,
    /// An injected fault fired; `arg` is the fault-kind code.
    FaultFire = 7,
}

impl TraceKind {
    /// The category bit this kind belongs to.
    pub fn category(self) -> u8 {
        match self {
            TraceKind::KernelBegin | TraceKind::KernelEnd => CAT_KERNEL,
            TraceKind::PeOp | TraceKind::PeWake => CAT_PE,
            TraceKind::RouterEnqueue | TraceKind::RouterForward | TraceKind::RouterRetire => {
                CAT_ROUTER
            }
            TraceKind::FaultFire => CAT_FAULT,
        }
    }

    /// Stable label used in exports and summaries.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::KernelBegin => "kernel-begin",
            TraceKind::KernelEnd => "kernel-end",
            TraceKind::PeOp => "pe-op",
            TraceKind::PeWake => "pe-wake",
            TraceKind::RouterEnqueue => "router-enqueue",
            TraceKind::RouterForward => "router-forward",
            TraceKind::RouterRetire => "router-retire",
            TraceKind::FaultFire => "fault-fire",
        }
    }
}

/// One traced transition. Field order matters: the derived `Ord` is the
/// deterministic sort key `(cycle, tile, kind, arg)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Simulated cycle the transition happened on.
    pub cycle: u64,
    /// Tile index (0 for machine-level events).
    pub tile: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific payload (op code, port, direction, fault code).
    pub arg: u64,
}

/// How tracing is configured for a run. Referenced from
/// `SimConfig::trace`; `None` there keeps the zero-trace fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Bitmask of [`CAT_KERNEL`]-style category bits to record.
    pub categories: u8,
    /// Maximum events kept per kernel after sealing (0 = unbounded).
    pub capacity: usize,
}

impl Default for TraceConfig {
    /// Everything on, 65 536 events per kernel.
    fn default() -> Self {
        TraceConfig {
            categories: CAT_ALL,
            capacity: 65_536,
        }
    }
}

/// A bounded, category-filtered event buffer. The default value is
/// fully disabled: `wants` answers `false` for every category, so an
/// untraced run never constructs an event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBuf {
    mask: u8,
    capacity: usize,
    /// The recorded events (sorted once sealed).
    pub events: Vec<TraceEvent>,
    /// Events discarded by the bounded-capacity compaction.
    pub dropped: u64,
}

impl TraceBuf {
    /// Arms the buffer with a category mask and per-kernel capacity.
    pub fn configure(&mut self, cfg: TraceConfig) {
        self.mask = cfg.categories;
        self.capacity = cfg.capacity;
    }

    /// Whether any of the given category bits are being recorded. The
    /// hot-path guard: `mask == 0` (the default) short-circuits every
    /// hook to one branch.
    #[inline]
    pub fn wants(&self, category: u8) -> bool {
        self.mask & category != 0
    }

    /// The armed category mask (0 when tracing is off).
    pub fn mask(&self) -> u8 {
        self.mask
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one event. Call only behind [`TraceBuf::wants`].
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Absorbs another buffer, offsetting its cycles by `cycle_offset`
    /// (the number of cycles this buffer already accounts for). Never
    /// compacts: sampling before the sort would depend on the order in
    /// which buffers merge.
    pub fn merge(&mut self, other: &TraceBuf, cycle_offset: u64) {
        self.mask |= other.mask;
        self.capacity = self.capacity.max(other.capacity);
        self.dropped += other.dropped;
        self.events.extend(other.events.iter().map(|e| TraceEvent {
            cycle: e.cycle + cycle_offset,
            ..*e
        }));
    }

    /// Sorts the buffer into its canonical `(cycle, tile, kind, arg)`
    /// order and applies the bounded-capacity stride compaction. Called
    /// serially at the end of every kernel (and again after frontend
    /// merges); idempotent on an already-sealed buffer that fits.
    pub fn seal(&mut self) {
        self.events.sort_unstable();
        if self.capacity == 0 || self.events.len() <= self.capacity {
            return;
        }
        // Kernel begin/end markers are structural (Perfetto needs the
        // balanced B/E pair) and fault firings are rare but semantically
        // critical, so both always survive; the rest is sampled at a
        // deterministic stride computed from the sorted length.
        let pin = |e: &TraceEvent| {
            matches!(
                e.kind,
                TraceKind::KernelBegin | TraceKind::KernelEnd | TraceKind::FaultFire
            )
        };
        let pinned = self.events.iter().filter(|e| pin(e)).count();
        let budget = self.capacity.saturating_sub(pinned).max(1);
        let samplable = self.events.len() - pinned;
        let stride = samplable.div_ceil(budget).max(1);
        let before = self.events.len();
        let mut i = 0usize;
        self.events.retain(|e| {
            if pin(e) {
                return true;
            }
            let keep = i.is_multiple_of(stride);
            i += 1;
            keep
        });
        self.dropped += (before - self.events.len()) as u64;
    }

    /// Events recorded per category, in [`CAT_KERNEL`] bit order:
    /// `[kernel, pe, router, fault]`.
    pub fn category_counts(&self) -> [u64; 4] {
        let mut counts = [0u64; 4];
        for e in &self.events {
            let slot = match e.kind.category() {
                CAT_KERNEL => 0,
                CAT_PE => 1,
                CAT_ROUTER => 2,
                _ => 3,
            };
            counts[slot] += 1;
        }
        counts
    }
}

/// Operation-code labels for [`TraceKind::PeOp`] events (indexes match
/// the simulator's `OpKind` order).
const PE_OP_NAMES: [&str; 4] = ["fmac", "add", "mul", "send"];

fn pe_op_name(arg: u64) -> &'static str {
    PE_OP_NAMES.get(arg as usize).copied().unwrap_or("op")
}

/// Track (pid) assignment in the exported document.
const PID_KERNEL: u64 = 0;
const PID_PE: u64 = 1;
const PID_ROUTER: u64 = 2;
const PID_SUPERVISOR: u64 = 3;

fn metadata(pid: u64, tid: u64, which: &str, label: &str) -> Value {
    Value::object()
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", tid)
        .field("name", which)
        .field("args", Value::object().field("name", label))
}

/// Renders a sealed [`TraceBuf`] as a Chrome trace-event / Perfetto
/// JSON document. One simulated cycle maps to one microsecond of trace
/// time. Every one of the `num_tiles` PEs and routers gets its own
/// named track (emitted as metadata even when it recorded nothing, so
/// the timeline shape is stable). `supervisor_marks` — cycle-stamped
/// escalation labels from a supervised solve — land on a dedicated
/// supervisor track; pass an empty slice for plain runs.
pub fn chrome_trace_json(
    buf: &TraceBuf,
    num_tiles: u32,
    supervisor_marks: &[(u64, String)],
) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(buf.events.len() + 2 * num_tiles as usize + 8);

    // Track names first: process names for the four pids, one thread
    // name per PE and per router.
    events.push(metadata(PID_KERNEL, 0, "process_name", "kernel"));
    events.push(metadata(PID_PE, 0, "process_name", "pe"));
    events.push(metadata(PID_ROUTER, 0, "process_name", "router"));
    if !supervisor_marks.is_empty() {
        events.push(metadata(PID_SUPERVISOR, 0, "process_name", "supervisor"));
        events.push(metadata(PID_SUPERVISOR, 0, "thread_name", "escalations"));
    }
    events.push(metadata(PID_KERNEL, 0, "thread_name", "timeline"));
    for t in 0..num_tiles as u64 {
        events.push(metadata(PID_PE, t, "thread_name", &format!("pe{t}")));
        events.push(metadata(
            PID_ROUTER,
            t,
            "thread_name",
            &format!("router{t}"),
        ));
    }

    // The buffer is sealed (sorted by cycle first), so emitting in
    // order yields globally monotonic timestamps.
    for e in &buf.events {
        let ts = e.cycle;
        let ev = match e.kind {
            TraceKind::KernelBegin => Value::object()
                .field("ph", "B")
                .field("pid", PID_KERNEL)
                .field("tid", 0u64)
                .field("ts", ts)
                .field("name", "kernel"),
            TraceKind::KernelEnd => Value::object()
                .field("ph", "E")
                .field("pid", PID_KERNEL)
                .field("tid", 0u64)
                .field("ts", ts)
                .field("name", "kernel"),
            TraceKind::PeOp => Value::object()
                .field("ph", "X")
                .field("pid", PID_PE)
                .field("tid", e.tile as u64)
                .field("ts", ts)
                .field("dur", 1u64)
                .field("name", pe_op_name(e.arg)),
            TraceKind::PeWake => Value::object()
                .field("ph", "i")
                .field("pid", PID_PE)
                .field("tid", e.tile as u64)
                .field("ts", ts)
                .field("s", "t")
                .field("name", "wake")
                .field("args", Value::object().field("trigger", e.arg)),
            TraceKind::RouterEnqueue => Value::object()
                .field("ph", "i")
                .field("pid", PID_ROUTER)
                .field("tid", e.tile as u64)
                .field("ts", ts)
                .field("s", "t")
                .field("name", "enqueue")
                .field("args", Value::object().field("port", e.arg)),
            TraceKind::RouterForward => Value::object()
                .field("ph", "i")
                .field("pid", PID_ROUTER)
                .field("tid", e.tile as u64)
                .field("ts", ts)
                .field("s", "t")
                .field("name", "forward")
                .field("args", Value::object().field("dir", e.arg)),
            TraceKind::RouterRetire => Value::object()
                .field("ph", "i")
                .field("pid", PID_ROUTER)
                .field("tid", e.tile as u64)
                .field("ts", ts)
                .field("s", "t")
                .field("name", "retire")
                .field("args", Value::object().field("port", e.arg)),
            TraceKind::FaultFire => Value::object()
                .field("ph", "i")
                .field("pid", PID_KERNEL)
                .field("tid", 0u64)
                .field("ts", ts)
                .field("s", "g")
                .field("name", "fault")
                .field(
                    "args",
                    Value::object()
                        .field("tile", e.tile as u64)
                        .field("kind", e.arg),
                ),
        };
        events.push(ev);
    }

    for (cycle, label) in supervisor_marks {
        events.push(
            Value::object()
                .field("ph", "i")
                .field("pid", PID_SUPERVISOR)
                .field("tid", 0u64)
                .field("ts", *cycle)
                .field("s", "g")
                .field("name", label.as_str()),
        );
    }

    Value::object()
        .field("traceEvents", Value::Arr(events))
        .field("displayTimeUnit", "ms")
        .field(
            "otherData",
            Value::object()
                .field("clock", "simulated-cycles")
                .field("cycle_us", 1u64)
                .field("dropped", buf.dropped),
        )
}

/// Summary of a validated Chrome trace document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Non-metadata events in the document.
    pub events: u64,
    /// `ph:"X"`/instant/begin events per category name.
    pub begins: u64,
    /// `ph:"E"` events.
    pub ends: u64,
    /// Distinct (pid, tid) tracks that carry a `thread_name`.
    pub named_tracks: u64,
}

/// Validates a Chrome trace-event document: well-formed envelope,
/// globally monotonic non-decreasing `ts` over non-metadata events, and
/// balanced `B`/`E` pairs per (pid, tid) stack.
///
/// # Errors
///
/// Returns a description of the first structural violation.
pub fn validate_chrome_trace(doc: &Value) -> Result<TraceCheck, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut check = TraceCheck::default();
    let mut last_ts: Option<u64> = None;
    // (pid, tid) -> open-begin depth.
    let mut stacks: std::collections::BTreeMap<(u64, u64), i64> = std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = ev.get("pid").and_then(Value::as_u64).unwrap_or(0);
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
        if ph == "M" {
            if ev.get("name").and_then(Value::as_str) == Some("thread_name") {
                check.named_tracks += 1;
            }
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!("event {i}: ts {ts} < previous {prev}"));
            }
        }
        last_ts = Some(ts);
        check.events += 1;
        match ph {
            "B" => {
                check.begins += 1;
                *stacks.entry((pid, tid)).or_insert(0) += 1;
            }
            "E" => {
                check.ends += 1;
                let depth = stacks.entry((pid, tid)).or_insert(0);
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!("event {i}: E without matching B on {pid}/{tid}"));
                }
            }
            _ => {}
        }
    }
    if let Some(((pid, tid), _)) = stacks.iter().find(|(_, depth)| **depth != 0) {
        return Err(format!("unbalanced B/E on track {pid}/{tid}"));
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, tile: u32, kind: TraceKind, arg: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            tile,
            kind,
            arg,
        }
    }

    #[test]
    fn default_buffer_is_fully_disabled() {
        let buf = TraceBuf::default();
        assert!(!buf.wants(CAT_KERNEL));
        assert!(!buf.wants(CAT_ALL));
        assert_eq!(buf.mask(), 0);
    }

    #[test]
    fn category_filter_masks_pushes() {
        let mut buf = TraceBuf::default();
        buf.configure(TraceConfig {
            categories: CAT_PE,
            capacity: 0,
        });
        assert!(buf.wants(CAT_PE));
        assert!(!buf.wants(CAT_ROUTER));
        assert!(buf.wants(CAT_PE | CAT_ROUTER), "any-bit semantics");
    }

    #[test]
    fn seal_sorts_into_canonical_order() {
        let mut buf = TraceBuf::default();
        buf.configure(TraceConfig::default());
        buf.push(ev(5, 1, TraceKind::PeOp, 0));
        buf.push(ev(2, 3, TraceKind::RouterForward, 1));
        buf.push(ev(2, 0, TraceKind::PeWake, 0));
        buf.push(ev(5, 1, TraceKind::PeOp, 2));
        buf.seal();
        let cycles: Vec<u64> = buf.events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 2, 5, 5]);
        assert_eq!(buf.events[0].tile, 0);
        assert!(buf.events[2].arg < buf.events[3].arg, "arg breaks ties");
    }

    #[test]
    fn seal_order_is_insertion_invariant() {
        let mut a = TraceBuf::default();
        let mut b = TraceBuf::default();
        a.configure(TraceConfig::default());
        b.configure(TraceConfig::default());
        let evs = [
            ev(1, 0, TraceKind::PeOp, 0),
            ev(1, 1, TraceKind::PeOp, 3),
            ev(3, 0, TraceKind::RouterRetire, 4),
            ev(0, 0, TraceKind::KernelBegin, 0),
        ];
        for e in evs {
            a.push(e);
        }
        for e in evs.iter().rev() {
            b.push(*e);
        }
        a.seal();
        b.seal();
        assert_eq!(a, b);
    }

    #[test]
    fn compaction_is_deterministic_and_keeps_kernel_markers() {
        let build = || {
            let mut buf = TraceBuf::default();
            buf.configure(TraceConfig {
                categories: CAT_ALL,
                capacity: 10,
            });
            buf.push(ev(0, 0, TraceKind::KernelBegin, 0));
            for c in 0..100u64 {
                buf.push(ev(c + 1, (c % 4) as u32, TraceKind::PeOp, c % 4));
            }
            buf.push(ev(50, 2, TraceKind::FaultFire, 3));
            buf.push(ev(101, 0, TraceKind::KernelEnd, 0));
            buf.seal();
            buf
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b, "compaction is reproducible");
        assert!(
            a.events.len() <= 11,
            "capacity respected: {}",
            a.events.len()
        );
        assert!(a.dropped >= 90);
        assert!(a.events.iter().any(|e| e.kind == TraceKind::KernelBegin));
        assert!(a.events.iter().any(|e| e.kind == TraceKind::KernelEnd));
        assert!(
            a.events.iter().any(|e| e.kind == TraceKind::FaultFire),
            "fault markers are pinned through compaction"
        );
    }

    #[test]
    fn unbounded_capacity_never_drops() {
        let mut buf = TraceBuf::default();
        buf.configure(TraceConfig {
            categories: CAT_ALL,
            capacity: 0,
        });
        for c in 0..1000u64 {
            buf.push(ev(c, 0, TraceKind::PeOp, 0));
        }
        buf.seal();
        assert_eq!(buf.events.len(), 1000);
        assert_eq!(buf.dropped, 0);
    }

    #[test]
    fn merge_offsets_cycles_and_accumulates_drops() {
        let mut a = TraceBuf::default();
        a.configure(TraceConfig::default());
        a.push(ev(0, 0, TraceKind::KernelBegin, 0));
        a.push(ev(10, 0, TraceKind::KernelEnd, 0));
        a.seal();
        let mut b = TraceBuf::default();
        b.configure(TraceConfig::default());
        b.push(ev(0, 0, TraceKind::KernelBegin, 0));
        b.push(ev(7, 0, TraceKind::KernelEnd, 0));
        b.dropped = 3;
        b.seal();
        a.merge(&b, 10);
        assert_eq!(a.events.len(), 4);
        assert_eq!(a.events[2].cycle, 10, "second kernel begins at offset");
        assert_eq!(a.events[3].cycle, 17);
        assert_eq!(a.dropped, 3);
    }

    #[test]
    fn category_counts_bucket_by_kind() {
        let mut buf = TraceBuf::default();
        buf.configure(TraceConfig::default());
        buf.push(ev(0, 0, TraceKind::KernelBegin, 0));
        buf.push(ev(1, 0, TraceKind::PeOp, 0));
        buf.push(ev(1, 0, TraceKind::PeWake, 1));
        buf.push(ev(2, 0, TraceKind::RouterForward, 0));
        buf.push(ev(3, 0, TraceKind::FaultFire, 2));
        buf.push(ev(4, 0, TraceKind::KernelEnd, 0));
        assert_eq!(buf.category_counts(), [2, 2, 1, 1]);
    }

    #[test]
    fn chrome_export_validates_and_names_every_track() {
        let mut buf = TraceBuf::default();
        buf.configure(TraceConfig::default());
        buf.push(ev(0, 0, TraceKind::KernelBegin, 0));
        buf.push(ev(1, 2, TraceKind::PeWake, 0));
        buf.push(ev(2, 2, TraceKind::PeOp, 0));
        buf.push(ev(2, 1, TraceKind::RouterEnqueue, 4));
        buf.push(ev(3, 1, TraceKind::RouterForward, 0));
        buf.push(ev(4, 1, TraceKind::RouterRetire, 4));
        buf.push(ev(5, 3, TraceKind::FaultFire, 1));
        buf.push(ev(9, 0, TraceKind::KernelEnd, 0));
        buf.seal();
        let doc = chrome_trace_json(&buf, 4, &[(9, "solver:pcg->bicgstab".to_string())]);
        let check = validate_chrome_trace(&doc).expect("valid document");
        // 8 sim events + 1 supervisor mark.
        assert_eq!(check.events, 9);
        assert_eq!(check.begins, 1);
        assert_eq!(check.ends, 1);
        // kernel timeline + 4 PEs + 4 routers + supervisor.
        assert_eq!(check.named_tracks, 10);
        // Round-trips through the strict parser.
        let text = doc.to_string_compact();
        let reparsed = crate::json::parse(&text).expect("parseable");
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn validator_rejects_regressions() {
        // ts going backwards.
        let bad = Value::object().field(
            "traceEvents",
            Value::Arr(vec![
                Value::object()
                    .field("ph", "i")
                    .field("pid", 0u64)
                    .field("tid", 0u64)
                    .field("ts", 5u64)
                    .field("name", "a"),
                Value::object()
                    .field("ph", "i")
                    .field("pid", 0u64)
                    .field("tid", 0u64)
                    .field("ts", 4u64)
                    .field("name", "b"),
            ]),
        );
        assert!(validate_chrome_trace(&bad).is_err());
        // Unbalanced begin.
        let unbalanced = Value::object().field(
            "traceEvents",
            Value::Arr(vec![Value::object()
                .field("ph", "B")
                .field("pid", 0u64)
                .field("tid", 0u64)
                .field("ts", 0u64)
                .field("name", "kernel")]),
        );
        assert!(validate_chrome_trace(&unbalanced).is_err());
        // Missing envelope.
        assert!(validate_chrome_trace(&Value::object()).is_err());
    }
}
