//! # lintime-obs
//!
//! Structured observability for the lintime workspace: a **trace layer**
//! ([`event`], [`sink`]) and a **metrics layer** ([`metrics`]), both built on
//! the standard library alone so the workspace stays dependency-free.
//!
//! The deep machinery added by the robustness and fast-monitor extensions —
//! retransmission, fault sweeps, monitor dispatch, Wing–Gong memoization —
//! was previously a black box: a truncated run, an `Unknown` verdict, or a
//! blown checker budget left no structured record of *why*. This crate gives
//! every hot layer a place to put that record:
//!
//! * the simulator engine emits operation, message, and fault-decision
//!   events ([`EventCategory`]);
//! * the recovery layer emits retransmission/duplicate/violation events;
//! * the live runtime's router and harness emit routing and watchdog events;
//! * the checker reports monitor fast-path hits, Wing–Gong node counts, memo
//!   hit rates, and frontier-size histograms.
//!
//! Everything funnels through one cheap, cloneable handle: [`Obs`]. The
//! default ([`Obs::off`]) carries a [`sink::NullSink`] and an inactive flag,
//! so instrumented code paths reduce to a single branch (the `lintime-perf`
//! benchmark reports the on/off cost as `obs.on_ratio.*`); with
//! [`Obs::ring`] or a [`sink::JsonlSink`] the same run becomes fully
//! replayable and auditable.
//!
//! See `docs/OBSERVABILITY.md` for the event taxonomy and a worked example
//! tracing one fault-sweep run end to end.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod metrics;
pub mod sink;

pub use event::{EventCategory, TraceEvent};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use sink::{JsonlSink, NullSink, RingSink, TraceHandle, TraceSink};

use std::sync::Arc;

/// The bundle threaded through the instrumented layers: a trace handle plus
/// a metrics registry, with a single activity flag so disabled observability
/// costs one branch on the hot paths.
///
/// `Obs` is cheap to clone (two `Arc` bumps) and safe to share across
/// threads; sinks serialize internally and metrics are atomic.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Where trace events go. [`TraceHandle::null`] discards them.
    pub trace: TraceHandle,
    /// Where metrics live. Always usable; snapshots render to JSON.
    pub metrics: Registry,
    active: bool,
}

impl Obs {
    /// Observability disabled: a null trace sink, an empty registry, and
    /// [`Obs::is_active`] false. This is the default everywhere, and what
    /// the benchmark measures.
    pub fn off() -> Obs {
        Obs::default()
    }

    /// An active bundle around an explicit sink and registry.
    pub fn new(trace: TraceHandle, metrics: Registry) -> Obs {
        Obs { trace, metrics, active: true }
    }

    /// An active bundle recording trace events into a fresh [`RingSink`]
    /// of the given capacity (returned alongside, for later inspection)
    /// and metrics into a fresh [`Registry`].
    pub fn ring(capacity: usize) -> (Obs, Arc<RingSink>) {
        let ring = Arc::new(RingSink::new(capacity));
        let obs = Obs::new(TraceHandle::to_sink(ring.clone()), Registry::new());
        (obs, ring)
    }

    /// True iff this bundle should be fed: instrumented code guards every
    /// event construction and metric update behind this flag.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Emit a trace event if active. `detail` is only rendered when a sink
    /// is attached, so formatting cost never lands on the disabled path.
    pub fn emit(
        &self,
        sim_time: i64,
        pid: Option<usize>,
        category: EventCategory,
        detail: impl FnOnce() -> String,
    ) {
        if self.active {
            self.trace.emit(sim_time, pid, category, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_bundle_is_inert_and_cheap() {
        let obs = Obs::off();
        assert!(!obs.is_active());
        let mut rendered = false;
        obs.emit(0, None, EventCategory::Send, || {
            rendered = true;
            "never".into()
        });
        assert!(!rendered, "detail must not be rendered when inactive");
    }

    #[test]
    fn ring_bundle_records_events() {
        let (obs, ring) = Obs::ring(8);
        assert!(obs.is_active());
        obs.emit(42, Some(1), EventCategory::Drop, || "lost".into());
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].sim_time, 42);
        assert_eq!(events[0].pid, Some(1));
        assert_eq!(events[0].category, EventCategory::Drop);
        assert_eq!(events[0].detail, "lost");
    }
}
