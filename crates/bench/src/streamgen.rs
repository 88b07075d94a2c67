//! Synthetic operation-event streams for the online checker.
//!
//! The `lintime stream` subcommand, the `lintime-perf` benchmark and the
//! flat-memory test below share these generators: deterministic, legal
//! event streams of arbitrary length that are fed to a [`StreamChecker`]
//! **one event at a time, never materialized** — the point of the exercise
//! is that the checker's resident memory stays flat while the stream length
//! grows without bound.
//!
//! Every scenario drives `procs` concurrent processes in rounds with
//! strictly increasing virtual times and periodic quiescence (each round
//! completes all its operations), so settled-prefix garbage collection has
//! canonical cuts to retire. The generated histories are linearizable by
//! construction; corrupting them is the differential fuzz suite's job
//! (`tests/stream_fuzz.rs`), not the generators'.

use lintime_adt::prelude::*;
use lintime_check::stream::{StreamChecker, StreamConfig, StreamStats, StreamVerdict};
use lintime_sim::engine::OpEvent;
use lintime_sim::time::{Pid, Time};
use std::sync::Arc;

/// Which synthetic stream to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// Rounds of `procs` overlapping enqueues then `procs` overlapping
    /// dequeues of distinct values (the monitor fast path end to end).
    Queue,
    /// One write then `procs` overlapping reads of the written value per
    /// round (exercises the strict-last-write canonical cut).
    Register,
    /// Rounds of `procs` overlapping inserts then ascending `extract_min`s
    /// (the new priority-queue monitor under streaming).
    PriorityQueue,
}

impl StreamKind {
    /// Parse a scenario name as used by `lintime stream --adt`.
    pub fn by_name(name: &str) -> Option<StreamKind> {
        match name {
            "fifo-queue" | "queue" => Some(StreamKind::Queue),
            "register" => Some(StreamKind::Register),
            "priority-queue" | "pq" => Some(StreamKind::PriorityQueue),
            _ => None,
        }
    }

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            StreamKind::Queue => "fifo-queue",
            StreamKind::Register => "register",
            StreamKind::PriorityQueue => "priority-queue",
        }
    }

    /// A fresh spec of the scenario's type.
    pub fn spec(self) -> Arc<dyn ObjectSpec> {
        match self {
            StreamKind::Queue => erase(FifoQueue::new()),
            StreamKind::Register => erase(Register::new(0)),
            StreamKind::PriorityQueue => erase(PriorityQueue::new()),
        }
    }
}

/// Outcome of one generated-stream run.
pub struct StreamReport {
    /// Final streaming verdict (the generated streams are legal, so anything
    /// but `Ok` is a bug — the tests assert this).
    pub verdict: StreamVerdict,
    /// Final checker statistics (throughput inputs, GC and memory figures).
    pub stats: StreamStats,
}

/// Generate a legal `kind` stream of at least `total_ops` completed
/// operations across `procs` processes and feed it event-by-event to a
/// fresh [`StreamChecker`] configured with `cfg`.
pub fn run_scenario(
    kind: StreamKind,
    total_ops: usize,
    procs: usize,
    cfg: StreamConfig,
) -> StreamReport {
    let mut c = StreamChecker::with_config(&kind.spec(), cfg);
    generate(kind, total_ops, procs, |ev| match ev {
        OpEvent::Invoke { pid, t, op, arg } => {
            c.feed_invoke(pid, t, op, arg);
        }
        OpEvent::Respond { pid, t, ret } => {
            c.feed_respond(pid, t, ret);
        }
    });
    let (verdict, stats) = c.finish();
    StreamReport { verdict, stats }
}

/// Hand a legal `kind` stream of at least `total_ops` completed operations
/// across `procs` processes to `feed`, one event at a time.
fn generate(kind: StreamKind, total_ops: usize, procs: usize, mut feed: impl FnMut(OpEvent)) {
    let procs = procs.max(1);
    let mut t = 0i64;
    let mut next_val = 0i64;
    let mut done = 0usize;
    while done < total_ops {
        match kind {
            StreamKind::Queue | StreamKind::PriorityQueue => {
                let (prod, cons) = match kind {
                    StreamKind::Queue => ("enqueue", "dequeue"),
                    _ => ("insert", "extract_min"),
                };
                // `procs` mutually overlapping producers of distinct values…
                for i in 0..procs {
                    let arg = Value::Int(next_val + i as i64);
                    feed(OpEvent::Invoke { pid: Pid(i), t: Time(t + i as i64), op: prod, arg });
                }
                for i in 0..procs {
                    let at = Time(t + (procs + i) as i64);
                    feed(OpEvent::Respond { pid: Pid(i), t: at, ret: Value::Unit });
                }
                t += 2 * procs as i64;
                // …then `procs` mutually overlapping consumers. All producers
                // overlapped pairwise, so the identity matching is legal for
                // FIFO order and (with ascending values) for min order alike.
                for i in 0..procs {
                    let at = Time(t + i as i64);
                    feed(OpEvent::Invoke { pid: Pid(i), t: at, op: cons, arg: Value::Unit });
                }
                for i in 0..procs {
                    let (at, ret) = (Time(t + (procs + i) as i64), Value::Int(next_val + i as i64));
                    feed(OpEvent::Respond { pid: Pid(i), t: at, ret });
                }
                t += 2 * procs as i64;
                next_val += procs as i64;
                done += 2 * procs;
            }
            StreamKind::Register => {
                next_val += 1;
                let arg = Value::Int(next_val);
                feed(OpEvent::Invoke { pid: Pid(0), t: Time(t), op: "write", arg });
                feed(OpEvent::Respond { pid: Pid(0), t: Time(t + 1), ret: Value::Unit });
                t += 2;
                for i in 0..procs {
                    let at = Time(t + i as i64);
                    feed(OpEvent::Invoke { pid: Pid(i), t: at, op: "read", arg: Value::Unit });
                }
                for i in 0..procs {
                    let at = Time(t + (procs + i) as i64);
                    feed(OpEvent::Respond { pid: Pid(i), t: at, ret: Value::Int(next_val) });
                }
                t += 2 * procs as i64;
                done += procs + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_is_legal_and_garbage_collected() {
        for kind in [StreamKind::Queue, StreamKind::Register, StreamKind::PriorityQueue] {
            let cfg = StreamConfig::default().with_flush_ops(64);
            let report = run_scenario(kind, 2_000, 4, cfg);
            assert!(report.verdict.is_ok(), "{}: {:?}", kind.label(), report.verdict);
            assert!(report.stats.ops >= 2_000, "{}: {:?}", kind.label(), report.stats);
            assert!(report.stats.gc_reclaimed > 0, "{}: {:?}", kind.label(), report.stats);
            assert!(
                report.stats.peak_resident < 512,
                "{}: resident {} not flat",
                kind.label(),
                report.stats.peak_resident
            );
        }

        // At the default flush window, residency is bounded by a constant
        // multiple of flush window + concurrency, and a 10× longer queue
        // stream peaks no higher than 1.5× the shorter one.
        let cfg = StreamConfig::default();
        let procs = 4;
        let bound = 2 * cfg.flush_ops + 64 * procs;
        let mut queue_peaks = Vec::new();
        for (kind, ops) in [
            (StreamKind::Queue, 20_000),
            (StreamKind::Queue, 200_000),
            (StreamKind::Register, 20_000),
            (StreamKind::PriorityQueue, 20_000),
        ] {
            let report = run_scenario(kind, ops, procs, cfg.clone());
            let id = format!("{}/{ops}", kind.label());
            assert!(report.verdict.is_ok(), "{id}: {:?}", report.verdict);
            assert!(
                report.stats.peak_resident <= bound,
                "{id}: resident peak {} above {bound}",
                report.stats.peak_resident
            );
            // At most two windows are in flight to the decider.
            assert!(
                report.stats.peak_in_flight <= 2 * bound,
                "{id}: in-flight peak {} above {}",
                report.stats.peak_in_flight,
                2 * bound
            );
            if kind == StreamKind::Queue {
                queue_peaks.push(report.stats.peak_resident);
            }
        }
        let (short, long) = (queue_peaks[0], queue_peaks[1]);
        assert!(
            long as f64 <= short as f64 * 1.5,
            "memory not flat: 200k queue ops peaked at {long} resident vs {short} at 20k"
        );
    }

    /// A checker whose `stats()` is read after every event (waiting for
    /// each window in flight) ends exactly like one never queried before
    /// `finish`, windows in flight and all.
    #[test]
    fn queried_checker_ends_like_an_unqueried_one() {
        let spec = StreamKind::Queue.spec();
        let mut queried = StreamChecker::new(&spec);
        let mut quiet = StreamChecker::new(&spec);
        generate(StreamKind::Queue, 20_000, 4, |ev| {
            queried.feed(&ev);
            queried.stats();
            quiet.feed(&ev);
        });
        let (v1, s1) = queried.finish();
        let (v2, s2) = quiet.finish();
        assert!(v2.is_ok() && s2.flushes > 10, "{v2:?} {s2:?}");
        assert_eq!(format!("{v1:?} {s1:?}"), format!("{v2:?} {s2:?}"));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [StreamKind::Queue, StreamKind::Register, StreamKind::PriorityQueue] {
            assert_eq!(StreamKind::by_name(kind.label()), Some(kind));
        }
        assert_eq!(StreamKind::by_name("pq"), Some(StreamKind::PriorityQueue));
        assert!(StreamKind::by_name("nope").is_none());
    }
}
