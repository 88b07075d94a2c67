//! Trace sinks: where [`TraceEvent`]s go.
//!
//! Three implementations cover the use cases without external dependencies:
//!
//! * [`NullSink`] — discards everything; the compile-time-cheap default
//!   (instrumented code holds a [`TraceHandle`] with *no* sink attached, so
//!   the disabled path is a branch, not a virtual call);
//! * [`RingSink`] — a bounded in-memory ring buffer for interactive
//!   inspection (`lintime trace` renders one), dropping the *oldest* events
//!   once full and counting what it dropped — honesty over completeness;
//! * [`JsonlSink`] — appends one JSON line per event to any writer
//!   (typically a file), producing a replayable on-disk trace that
//!   [`TraceEvent::parse_jsonl`] reads back losslessly.

use crate::event::{EventCategory, TraceEvent};
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A destination for trace events. Implementations must be safe to call from
/// multiple threads (the live runtime's harness and node threads share one).
pub trait TraceSink: Send + Sync {
    /// Record one event. Must not panic; sinks that lose an event (full
    /// buffer, I/O error) should account for it internally.
    fn record(&self, event: TraceEvent);
}

/// A sink that discards every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: TraceEvent) {}
}

/// The cloneable handle instrumented code holds: an optional shared sink
/// plus the wall-clock epoch used to stamp events.
///
/// With no sink attached ([`TraceHandle::null`], the default), emitting is a
/// branch on an `Option` — no allocation, no formatting, no virtual call.
#[derive(Clone)]
pub struct TraceHandle {
    sink: Option<Arc<dyn TraceSink>>,
    epoch: Instant,
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::null()
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceHandle({})", if self.sink.is_some() { "attached" } else { "null" })
    }
}

impl TraceHandle {
    /// A handle with no sink: every emit is a no-op.
    pub fn null() -> TraceHandle {
        TraceHandle { sink: None, epoch: Instant::now() }
    }

    /// A handle feeding `sink`; wall times are measured from now.
    pub fn to_sink(sink: Arc<dyn TraceSink>) -> TraceHandle {
        TraceHandle { sink: Some(sink), epoch: Instant::now() }
    }

    /// True iff a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record an event if a sink is attached. `detail` is rendered lazily.
    pub fn emit(
        &self,
        sim_time: i64,
        pid: Option<usize>,
        category: EventCategory,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                sim_time,
                wall_micros: self.epoch.elapsed().as_micros() as u64,
                pid,
                category,
                detail: detail(),
            });
        }
    }
}

/// A bounded in-memory ring buffer of events.
pub struct RingSink {
    state: Mutex<RingState>,
    capacity: usize,
}

struct RingState {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl fmt::Debug for RingSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RingSink(capacity {})", self.capacity)
    }
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            state: Mutex::new(RingState { buf: VecDeque::with_capacity(capacity), dropped: 0 }),
            capacity,
        }
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.lock().unwrap().buf.iter().cloned().collect()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap().dropped
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: TraceEvent) {
        let mut s = self.state.lock().unwrap();
        if s.buf.len() == self.capacity {
            s.buf.pop_front();
            s.dropped += 1;
        }
        s.buf.push_back(event);
    }
}

/// A sink that appends one JSON line per event to a writer.
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
    io_errors: Mutex<u64>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// Wrap any writer (a `File`, a `Vec<u8>` behind [`SharedBuf`], …).
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink { writer: Mutex::new(writer), io_errors: Mutex::new(0) }
    }

    /// Create (truncate) `path` and stream events to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink::new(Box::new(std::fs::File::create(path)?)))
    }

    /// Number of events lost to write errors so far.
    pub fn io_errors(&self) -> u64 {
        *self.io_errors.lock().unwrap()
    }

    /// Flush the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().unwrap().flush()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: TraceEvent) {
        let line = event.to_jsonl();
        let mut w = self.writer.lock().unwrap();
        if writeln!(w, "{line}").is_err() {
            *self.io_errors.lock().unwrap() += 1;
        }
    }
}

/// A shareable in-memory byte buffer implementing `Write`, so a
/// [`JsonlSink`] can be drained back out in tests and in `lintime trace`.
#[derive(Clone, Debug, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// The buffered bytes as UTF-8 (lossy).
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle_with(sink: Arc<dyn TraceSink>) -> TraceHandle {
        TraceHandle::to_sink(sink)
    }

    #[test]
    fn null_handle_never_renders_detail() {
        let h = TraceHandle::null();
        assert!(!h.enabled());
        let mut rendered = false;
        h.emit(0, None, EventCategory::Send, || {
            rendered = true;
            String::new()
        });
        assert!(!rendered);
    }

    #[test]
    fn ring_sink_evicts_oldest_and_counts_drops() {
        let ring = Arc::new(RingSink::new(3));
        let h = handle_with(ring.clone());
        for i in 0..5i64 {
            h.emit(i, Some(0), EventCategory::Send, || format!("m{i}"));
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "m2", "oldest events evicted first");
        assert_eq!(events[2].detail, "m4");
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let buf = SharedBuf::new();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        let h = handle_with(sink.clone());
        h.emit(10, Some(2), EventCategory::OpInvoke, || "enqueue(7)".into());
        h.emit(20, None, EventCategory::CheckPhase, || "monitor: queue".into());
        sink.flush().unwrap();
        let events = TraceEvent::parse_jsonl(&buf.contents()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].pid, Some(2));
        assert_eq!(events[1].category, EventCategory::CheckPhase);
        assert_eq!(sink.io_errors(), 0);
    }

    #[test]
    fn wall_times_are_monotone() {
        let ring = Arc::new(RingSink::new(4));
        let h = handle_with(ring.clone());
        h.emit(0, None, EventCategory::Send, String::new);
        h.emit(0, None, EventCategory::Recv, String::new);
        let ev = ring.events();
        assert!(ev[0].wall_micros <= ev[1].wall_micros);
    }
}
