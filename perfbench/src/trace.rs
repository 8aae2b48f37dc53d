//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records its layer (the crate it times), its name, the span
//! that encloses it, the request or pass id it belongs to, and its start
//! and end on the run's [`SystemClock`]. Spans stay in memory and are
//! written to a sidecar file when the run ends; they never reach the
//! result line or any deterministic artifact.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use cim_tune::{Clock, SystemClock};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    layer: &'static str,
    name: &'static str,
    group: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Single-threaded: the benchmark opens spans only on
/// the thread that drives the workload.
pub struct Tracer<'c> {
    clock: &'c SystemClock,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    group: RefCell<u64>,
    enabled: bool,
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl<'c> Tracer<'c> {
    pub fn new(clock: &'c SystemClock) -> Self {
        Tracer {
            clock,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            group: RefCell::new(0),
            enabled: true,
        }
    }

    /// A recorder that records nothing: `span` only calls its closure.
    pub fn off(clock: &'c SystemClock) -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(clock)
        }
    }

    /// Tags the spans opened from now on with a request or pass id.
    pub fn set_group(&self, group: u64) {
        *self.group.borrow_mut() = group;
    }

    /// Runs `f` inside a span of `layer` named `name`.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                parent: self.open.borrow().last().copied(),
                layer,
                name,
                group: *self.group.borrow(),
                start_ns: ns(self.clock.now()),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = ns(self.clock.now());
        if let Some(span) = self.spans.borrow_mut().get_mut(id) {
            span.end_ns = end;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed durations of the spans named `name`, grouped by their
    /// request or pass id, in milliseconds.
    pub fn total_ms_by_group(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.borrow().iter().filter(|s| s.name == name) {
            *out.entry(s.group).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
        }
        out
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part its direct children cover, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in spans.iter().zip(&child_ns) {
            *out.entry(s.layer).or_insert(0.0) +=
                s.duration_ns().saturating_sub(*covered) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one NDJSON line, in opening order.
    pub fn write_sidecar(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"group\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.name, s.group, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let clock = SystemClock::new();
        let t = Tracer::new(&clock);
        t.span("outer", "outer.call", || {
            t.span("inner", "inner.call", || std::hint::black_box(0));
        });
        let spans = t.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = t.self_ms_by_layer();
        let outer = spans[0].duration_ns() - spans[1].duration_ns();
        assert!((by_layer["outer"] - outer as f64 / 1e6).abs() < 1e-9);
    }
}
