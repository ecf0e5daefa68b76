//! Recorder sinks: where trace events go.
//!
//! The contract every sink must honour is that recording is *purely
//! observational*: a recorder never feeds information back into the
//! simulation, so enabling or disabling one cannot perturb RNG draws or
//! event ordering. Instrumentation sites additionally check
//! [`Recorder::enabled`] before constructing an event, making the
//! disabled path a single branch.

use crate::event::TraceEvent;
use crate::wire;
use slsb_sim::ProfGuard;
use std::io;
use std::io::Write as _;

/// A sink for [`TraceEvent`]s.
pub trait Recorder {
    /// Whether events should be constructed and recorded at all.
    /// Instrumentation sites skip event construction when this is false.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event. Only called when [`Recorder::enabled`] is true.
    fn record(&mut self, ev: &TraceEvent);
}

/// The disabled recorder: `enabled()` is false and `record` is a no-op,
/// so instrumented code runs at (branch-predicted) full speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: &TraceEvent) {}
}

/// Buffers events in memory; the test and analysis workhorse.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    events: Vec<TraceEvent>,
}

impl MemoryRecorder {
    /// An empty in-memory recorder.
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, ev: &TraceEvent) {
        let _p = ProfGuard::enter("recorder");
        self.events.push(*ev);
    }
}

/// Streams events as JSON Lines (one compact JSON object per line) into
/// any [`io::Write`] sink, buffering internally so each event costs a
/// memcpy rather than a syscall-sized write.
///
/// Write errors do not panic mid-simulation: the first error is latched,
/// further events are discarded, and [`JsonlRecorder::finish`] reports it.
/// Because writes are buffered, an underlying failure may only surface at
/// `finish`, which flushes explicitly.
#[derive(Debug)]
pub struct JsonlRecorder<W: io::Write> {
    out: io::BufWriter<W>,
    /// Scratch line, reused across events so steady-state recording does
    /// not allocate.
    line: Vec<u8>,
    written: u64,
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlRecorder<W> {
    /// Wraps a writer. The recorder buffers internally, so callers should
    /// hand over the raw sink (e.g. a `File`) directly.
    pub fn new(out: W) -> Self {
        JsonlRecorder {
            out: io::BufWriter::new(out),
            line: Vec::new(),
            written: 0,
            error: None,
        }
    }

    /// Events accepted (serialized and handed to the buffered writer) so
    /// far.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Flushes the buffer and returns the event count, or the first write
    /// error encountered.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.written)
    }
}

impl<W: io::Write> Recorder for JsonlRecorder<W> {
    fn record(&mut self, ev: &TraceEvent) {
        let _p = ProfGuard::enter("recorder");
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        wire::write_event(ev, &mut self.line);
        self.line.push(b'\n');
        if let Err(e) = self.out.write_all(&self.line) {
            self.error = Some(e);
            return;
        }
        self.written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Component, EventKind};
    use slsb_sim::SimTime;

    fn sample(request: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO,
            kind: EventKind::RequestArrival {
                component: Component::Vm,
                request,
            },
        }
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopRecorder.enabled());
    }

    #[test]
    fn memory_recorder_keeps_order() {
        let mut rec = MemoryRecorder::new();
        for i in 0..5 {
            rec.record(&sample(i));
        }
        let ids: Vec<u64> = rec
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::RequestArrival { request, .. } => request,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut buf = Vec::new();
        let mut rec = JsonlRecorder::new(&mut buf);
        rec.record(&sample(1));
        rec.record(&sample(2));
        let n = rec.finish().unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let ev = wire::parse_event(line.as_bytes()).unwrap();
            assert!(matches!(ev.kind, EventKind::RequestArrival { .. }));
        }
    }

    #[test]
    fn jsonl_reports_write_errors_by_finish() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _b: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Small events sit in the internal buffer until the final flush,
        // so the error is guaranteed to surface at `finish` (it may latch
        // earlier once enough events accumulate to force a write-through).
        let mut rec = JsonlRecorder::new(Failing);
        rec.record(&sample(1));
        rec.record(&sample(2));
        assert!(rec.finish().is_err());
    }

    #[test]
    fn jsonl_discards_events_after_a_latched_error() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _b: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut rec = JsonlRecorder::new(Failing);
        // Enough volume to overflow the internal buffer and latch the
        // error mid-run.
        for i in 0..10_000 {
            rec.record(&sample(i));
        }
        let mid_run = rec.events_written();
        rec.record(&sample(0));
        assert_eq!(rec.events_written(), mid_run);
        assert!(rec.finish().is_err());
    }
}
