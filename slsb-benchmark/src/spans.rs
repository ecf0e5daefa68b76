//! In-memory spans for the traced pass.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API, nested under the rep (or setup) that made it. A span keeps
//! its name, start, end, parent, workload and rep, the allocations made
//! while it was open, and the work counts its caller attaches (requests,
//! engine events, bytes), so per-layer ratios are measured where the work
//! happens. Nothing is written until the benchmark exits.

use crate::alloc;
use serde::Serialize;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub workload: &'static str,
    /// Timed rep index; `None` for set-up and layer-probe spans.
    pub rep: Option<u32>,
    /// Heap allocations made while the span was open (all threads).
    pub allocs: u64,
    pub requests: u64,
    pub events: u64,
    pub bytes: u64,
    /// Filled from [`self_times`] when the trace is written; 0 before.
    pub self_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// its closure.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    workload: &'static str,
    rep: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            workload: "",
            rep: None,
        }
    }

    /// Sets the workload and rep stamped on spans opened from now on.
    pub fn context(&mut self, workload: &'static str, rep: Option<u32>) {
        self.workload = workload;
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            workload: self.workload,
            rep: self.rep,
            allocs: alloc::allocations(),
            requests: 0,
            events: 0,
            bytes: 0,
            self_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = alloc::allocations() - span.allocs;
        out
    }

    /// Adds work counts to the innermost open span.
    pub fn work(&mut self, requests: u64, events: u64, bytes: u64) {
        if let Some(&idx) = self.stack.last() {
            let s = &mut self.spans[idx];
            s.requests += requests;
            s.events += events;
            s.bytes += bytes;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in iv {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            workload: "w",
            rep: Some(0),
            allocs: 0,
            requests: 0,
            events: 0,
            bytes: 0,
            self_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            // Two overlapping children cover [10, 50): 40 ns.
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            // A grandchild only reduces its own parent.
            span("a.inner", 15, 25, Some(1)),
            // A child sticking out of its parent is clipped to it.
            span("c", 90, 120, Some(0)),
            span("leaf", 200, 260, None),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 40 - 10, 30 - 10, 20, 10, 30, 60]);
        assert!(st.iter().zip(&spans).all(|(s, sp)| *s <= sp.duration_ns()));
    }

    #[test]
    fn tracer_nests_spans_and_attaches_work() {
        let mut t = Tracer::new(true);
        t.context("w", Some(3));
        let out = t.span("outer", |t| {
            t.span("inner", |t| t.work(5, 7, 11));
            t.work(1, 0, 0);
            42
        });
        assert_eq!(out, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name.as_str(), s[0].parent), ("outer", None));
        assert_eq!((s[1].name.as_str(), s[1].parent), ("inner", Some(0)));
        assert_eq!((s[1].requests, s[1].events, s[1].bytes), (5, 7, 11));
        assert_eq!(s[0].requests, 1);
        assert_eq!(s[1].rep, Some(3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
