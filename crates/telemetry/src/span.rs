//! Structured phase spans: a minimal tracing-style layer.
//!
//! The real `tracing` crate is unavailable in this build environment, so
//! this module provides the same shape at the scale the repository needs:
//!
//! * [`span`] opens a named span and returns an RAII [`SpanGuard`];
//!   dropping the guard closes the span and reports wall-clock time (and
//!   an optional simulated-cycle count) to the installed subscriber;
//! * [`Subscriber`] is the sink trait; [`Collector`] is the
//!   repo-provided subscriber that accumulates [`SpanRecord`]s for
//!   inclusion in a telemetry report, and [`StderrSubscriber`] prints
//!   close events live for interactive debugging;
//! * recording is globally gated: until [`install`] is called, [`span`]
//!   costs one relaxed atomic load and allocates nothing.
//!
//! Spans nest: guards track their depth so subscribers can reconstruct
//! the phase tree (`prepare` > `coloring`, `prepare` > `mapping`, ...).
//! Depth is per thread: a span opened on a service worker or a helper
//! thread nests under that thread's open spans only. A guard therefore
//! closes on the thread that opened it (it is not `Send`).
//!
//! ```
//! use azul_telemetry::span::{self, Collector};
//!
//! let collector = Collector::install();
//! {
//!     let _prepare = span::span("prepare");
//!     let mut compile = span::span("compile");
//!     compile.record_cycles(1234);
//! } // guards close here
//! let records = collector.drain();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[1].name, "prepare");
//! assert_eq!(records[0].cycles, Some(1234));
//! ```

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A closed span, as delivered to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `"mapping"` or `"kernel/spmv"`.
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u128,
    /// Simulated cycles attributed to the span, if any were recorded.
    pub cycles: Option<u64>,
    /// Free-form key/value annotations added via [`SpanGuard::annotate`].
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    /// Wall-clock duration in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }
}

/// A sink for closed spans.
pub trait Subscriber: Send + Sync {
    /// Called once per span, when its guard drops.
    fn on_close(&self, record: SpanRecord);
}

/// The installed subscriber plus the cheap enabled flag.
struct Registry {
    subscriber: Mutex<Option<Arc<dyn Subscriber>>>,
    enabled: AtomicBool,
}

thread_local! {
    /// Spans open on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        subscriber: Mutex::new(None),
        enabled: AtomicBool::new(false),
    })
}

/// Installs `subscriber` as the global span sink, replacing any previous
/// one, and enables recording.
pub fn install(subscriber: Arc<dyn Subscriber>) {
    let reg = registry();
    *reg.subscriber.lock().unwrap() = Some(subscriber);
    reg.enabled.store(true, Ordering::Release);
}

/// Disables recording and drops the installed subscriber.
pub fn uninstall() {
    let reg = registry();
    reg.enabled.store(false, Ordering::Release);
    *reg.subscriber.lock().unwrap() = None;
}

/// Whether a subscriber is installed (spans are being recorded).
pub fn enabled() -> bool {
    registry().enabled.load(Ordering::Acquire)
}

/// Opens a span named `name`. Near-free when no subscriber is installed.
pub fn span(name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            live: None,
            _thread: PhantomData,
        };
    }
    let depth = DEPTH.replace(DEPTH.get() + 1);
    SpanGuard {
        _thread: PhantomData,
        live: Some(LiveSpan {
            name: name.into(),
            depth,
            // azul-lint: allow(wall-clock-in-sim) spans measure host-side wall time by design; simulated-cycle accounting never reads it
            started: Instant::now(),
            cycles: None,
            fields: Vec::new(),
        }),
    }
}

struct LiveSpan {
    name: String,
    depth: usize,
    started: Instant,
    cycles: Option<u64>,
    fields: Vec<(String, String)>,
}

/// RAII guard for an open span; closing happens on drop.
pub struct SpanGuard {
    live: Option<LiveSpan>,
    /// Pins the guard to its thread's depth counter.
    _thread: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Attributes `cycles` simulated cycles to this span (accumulates
    /// across calls, for spans covering several kernel launches).
    pub fn record_cycles(&mut self, cycles: u64) {
        if let Some(live) = &mut self.live {
            *live.cycles.get_or_insert(0) += cycles;
        }
    }

    /// Attaches a key/value annotation to this span.
    pub fn annotate(&mut self, key: impl Into<String>, value: impl ToString) {
        if let Some(live) = &mut self.live {
            live.fields.push((key.into(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        DEPTH.set(DEPTH.get().saturating_sub(1));
        let reg = registry();
        let record = SpanRecord {
            name: live.name,
            depth: live.depth,
            wall_ns: live.started.elapsed().as_nanos(),
            cycles: live.cycles,
            fields: live.fields,
        };
        // Fetch the subscriber under the lock, deliver outside it, so a
        // subscriber may itself open spans without deadlocking.
        let subscriber = reg.subscriber.lock().unwrap().clone();
        if let Some(sub) = subscriber {
            sub.on_close(record);
        }
    }
}

/// The repo-provided subscriber: collects spans for report export.
#[derive(Default)]
pub struct Collector {
    records: Mutex<Vec<SpanRecord>>,
}

impl Collector {
    /// Creates a collector and installs it globally; returns a handle
    /// for draining.
    pub fn install() -> Arc<Collector> {
        let collector = Arc::new(Collector::default());
        install(collector.clone());
        collector
    }

    /// Takes all records collected so far (close order: children first).
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.records.lock().unwrap())
    }
}

impl Subscriber for Collector {
    fn on_close(&self, record: SpanRecord) {
        self.records.lock().unwrap().push(record);
    }
}

/// A live subscriber that prints each closed span to stderr.
pub struct StderrSubscriber;

impl Subscriber for StderrSubscriber {
    fn on_close(&self, record: SpanRecord) {
        let indent = "  ".repeat(record.depth);
        let cycles = record
            .cycles
            .map(|c| format!(" cycles={c}"))
            .unwrap_or_default();
        eprintln!(
            "[span] {indent}{} wall={:.3}ms{cycles}",
            record.name,
            record.wall_ms()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share one global registry; run them under one lock so
    // parallel test threads don't fight over the installed subscriber.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = serial();
        uninstall();
        let mut s = span("ignored");
        s.record_cycles(10);
        drop(s);
        assert!(!enabled());
    }

    #[test]
    fn collector_sees_nesting_and_cycles() {
        let _guard = serial();
        let collector = Collector::install();
        {
            let mut outer = span("outer");
            outer.annotate("matrix", "demo");
            {
                let mut inner = span("inner");
                inner.record_cycles(5);
                inner.record_cycles(7);
            }
        }
        uninstall();
        let records = collector.drain();
        assert_eq!(records.len(), 2);
        // Children close first.
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[0].depth, 1);
        assert_eq!(records[0].cycles, Some(12));
        assert_eq!(records[1].name, "outer");
        assert_eq!(records[1].depth, 0);
        assert_eq!(records[1].cycles, None);
        assert_eq!(
            records[1].fields,
            vec![("matrix".to_string(), "demo".to_string())]
        );
    }

    #[test]
    fn depth_is_per_thread() {
        const NESTED: usize = 3;
        let _guard = serial();
        let collector = Collector::install();
        // Both threads hold all their spans open at once, so a shared
        // depth counter would hand one of them depths 3, 4, 5.
        let opened = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for name in ["a", "b"] {
                let opened = &opened;
                s.spawn(move || {
                    let guards: Vec<SpanGuard> =
                        (0..NESTED).map(|d| span(format!("{name}{d}"))).collect();
                    opened.wait();
                    // Close innermost first, as scopes would.
                    for g in guards.into_iter().rev() {
                        drop(g);
                    }
                });
            }
        });
        uninstall();
        let records = collector.drain();
        assert_eq!(records.len(), 2 * NESTED);
        for r in &records {
            let want: usize = r.name[1..].parse().unwrap();
            assert_eq!(r.depth, want, "span {}", r.name);
        }
    }
}
