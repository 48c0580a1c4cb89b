//! In-memory span recorder for the traced run.
//!
//! Each span holds a name, start, end, parent and the id of the solve or
//! round it belongs to. Spans stay in memory until the run ends, then
//! [`Tracer::self_times`] folds them into per-name totals (self time is a
//! span's duration minus its children's) and [`Tracer::chrome_json`]
//! writes them as Chrome trace-event JSON.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl LayerTime {
    pub fn mean_s(&self) -> f64 {
        self.total_s / self.calls.max(1) as f64
    }
}

pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                id,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Calls, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_s[p] += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_s) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += s.seconds();
            e.self_s += s.seconds() - children;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, with
    /// the span's id and parent index in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_subtracts_children() {
        let tr = Tracer::default();
        tr.span("outer", 1, || {
            spin(2_000_000);
            tr.span("inner", 1, || spin(3_000_000));
            tr.span("inner", 2, || spin(3_000_000));
        });
        let t = tr.self_times();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
        assert!(outer.self_s >= 0.002 && inner.self_s >= 0.006);
        assert_eq!(inner.self_s, inner.total_s);
        let json = tr.chrome_json("w");
        assert!(json.contains("\"parent\":0"), "{json}");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }
}
