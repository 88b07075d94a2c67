//! `check-stream`: the streaming checker alone, on engine-shaped traffic.
//!
//! Set-up records three operation-event streams — fifo-queue, register,
//! priority-queue — from real `BatchedWtlw` engine runs: one 4-process
//! cluster each, open loop, admission epoch 1024, events taken off
//! `SimConfig::with_op_sink`. The timed region feeds each stream to a fresh
//! `StreamChecker` (flush 1024) and finishes it; the engine does nothing
//! there. A lock-step synthetic stream (the old streaming bench) never sends
//! a window to the Wing–Gong fallback; this traffic sends every one, and
//! canonical cuts are scarce.
//!
//! The queue and priority-queue streams arrive at 6 operations per `d` — for
//! a single cluster that is backlog, the shape of a hot shard, and it is the
//! admission epochs of a backlogged engine that give these types their
//! canonically-empty cuts. The register stream arrives at 2.4 per `d`, below
//! the cluster's capacity: under backlog a register stream stops finding
//! strictly-last-write cuts after a few flushes, holds the whole stream
//! resident and decides it in one giant fallback at `finish` — a whole-history
//! check, which `check-offline` measures, and whose cost swings 5× with the
//! seed. Streams are 50k operations, below the checker's 65,536-op resident
//! bound that such a stream would otherwise overflow into `Unknown`.

use super::{Outcome, Round, RunOpts, Workload};
use crate::gen::{self, OpenLoop};
use crate::probes::{self, D_TICKS, FLUSH_OPS};
use crate::trace::Tracer;
use lintime_adt::spec::ObjectSpec;
use lintime_adt::value::Value;
use lintime_bench::streamgen::{run_scenario, StreamKind};
use lintime_check::stream::StreamConfig;
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::{OpEvent, SimConfig};
use lintime_sim::time::Time;
use lintime_sim::workload::Mix;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The streaming-checker workload.
pub struct CheckStream;

/// One recorded stream.
pub struct Recorded {
    kind: StreamKind,
    spec: Arc<dyn ObjectSpec>,
    events: Vec<OpEvent>,
    ops: u64,
    apply_metric: &'static str,
}

/// Operations per recorded stream at full scale.
const STREAM_OPS: usize = 50_000;

/// Record `ops` operations of `kind` from an engine run through the op sink.
fn record(
    kind: StreamKind,
    ops: usize,
    ops_per_d: f64,
    seed: u64,
    apply_metric: &'static str,
) -> Recorded {
    let spec = kind.spec();
    let params = probes::params(4);
    let shape = OpenLoop {
        shards: 1,
        n: params.n,
        total_ops: ops,
        mean_gap: Time((D_TICKS as f64 / ops_per_d).round() as i64),
        mix: Mix::BALANCED,
        zipf_s: 0.0,
        seed,
    };
    let arrivals = gen::open_loop(spec.as_ref(), shape).remove(0);
    let (tx, rx) = mpsc::channel();
    let sim = SimConfig::new(params, DelaySpec::UniformRandom { seed })
        .with_schedule(gen::schedule_of(&arrivals))
        .with_op_sink(tx)
        .with_admission_epoch(FLUSH_OPS as u64);
    let algo = Algorithm::BatchedWtlw { x: Time::ZERO, tick: params.epsilon };
    let run = run_algorithm(algo, &spec, &sim);
    drop(sim);
    let events: Vec<OpEvent> = rx.into_iter().collect();
    assert!(
        run.complete() && run.unadmitted == 0 && events.len() == 2 * ops,
        "recording a {} stream must complete every arrival",
        kind.label()
    );
    Recorded { kind, spec, ops: probes::ops_in(&events), events, apply_metric }
}

fn record_all(ops: usize, seed: u64) -> Vec<Recorded> {
    vec![
        record(StreamKind::Queue, ops, 6.0, seed, "adt.apply_ns_per_op.queue"),
        record(StreamKind::Register, ops, 2.4, seed, "adt.apply_ns_per_op.register"),
        record(StreamKind::PriorityQueue, ops, 6.0, seed, "adt.apply_ns_per_op.pq"),
    ]
}

/// A copy of `events` whose first integer response is shifted by a value no
/// generator produces (the corruption `serve`'s test hook applies).
fn corrupted(events: &[OpEvent]) -> Vec<OpEvent> {
    let mut out = events.to_vec();
    for ev in &mut out {
        if let OpEvent::Respond { ret: Value::Int(v), .. } = ev {
            *v += 1_000_003;
            break;
        }
    }
    out
}

impl Workload for CheckStream {
    type Inputs = Vec<Recorded>;

    fn setup(&self, opts: &RunOpts) -> Vec<Recorded> {
        let ops = opts.scaled(STREAM_OPS, 200);
        let mut quiet = Tracer::new(false);
        for stream in record_all((ops / 10).max(20), opts.seed) {
            std::hint::black_box(probes::feed_stream(&stream.spec, &stream.events, &mut quiet));
        }
        record_all(ops, opts.seed)
    }

    fn round(&self, streams: &Vec<Recorded>, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let mut resident = 0usize;
        for stream in streams {
            let fed = probes::feed_stream(&stream.spec, &stream.events, tracer);
            round.wall += fed.feed + fed.finish;
            round.attempted += stream.ops;
            if fed.verdict.is_ok() && fed.stats.ops == stream.ops {
                round.ops += stream.ops;
            } else {
                round.failed += stream.ops;
                round.notes.push(format!(
                    "{} stream: verdict {} over {} of {} ops",
                    stream.kind.label(),
                    fed.verdict.class(),
                    fed.stats.ops,
                    stream.ops
                ));
            }
            resident = resident.max(fed.stats.peak_resident);
        }
        round.virt.push(("check_peak_resident_ops", resident as f64));
        round
    }

    /// Negative control: the queue stream with one corrupted response must
    /// be refuted.
    fn verify(&self, streams: &Vec<Recorded>, out: &mut Outcome) {
        let queue = &streams[0];
        let fed =
            probes::feed_stream(&queue.spec, &corrupted(&queue.events), &mut Tracer::new(false));
        out.attempted += queue.ops;
        if !fed.verdict.is_violation() {
            out.failed += queue.ops;
            out.notes.push(format!(
                "corrupted {} stream was not refuted: verdict {}",
                queue.kind.label(),
                fed.verdict.class()
            ));
        }
    }

    fn layers(
        &self,
        streams: &Vec<Recorded>,
        _budget: Duration,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) {
        let (mut feed, mut finish, mut ops) = (Duration::ZERO, Duration::ZERO, 0u64);
        let (mut flushes, mut fallbacks, mut reclaimed, mut resident) = (0u64, 0u64, 0u64, 0usize);
        for stream in streams {
            let fed = probes::feed_stream(&stream.spec, &stream.events, tracer);
            feed += fed.feed;
            finish += fed.finish;
            ops += stream.ops;
            flushes += fed.stats.flushes;
            fallbacks += fed.stats.fallbacks;
            reclaimed += fed.stats.gc_reclaimed;
            resident = resident.max(fed.stats.peak_resident);
            let invocations = probes::invocations_of(&stream.events);
            out.set(
                stream.apply_metric,
                probes::apply_ns_per_op(&stream.spec, invocations.iter(), tracer),
            );
        }
        out.set("check.stream.feed_ns_per_op", feed.as_nanos() as f64 / ops.max(1) as f64);
        out.set("check.stream.finish_ns", finish.as_nanos() as f64);
        out.set("check.stream.flushes", flushes as f64);
        out.set("check.stream.fallbacks", fallbacks as f64);
        // Every flush and every finish decides one window.
        out.set(
            "check.stream.fallback_share",
            fallbacks as f64 / (flushes + streams.len() as u64).max(1) as f64,
        );
        out.set("check.stream.gc_reclaimed", reclaimed as f64);
        out.set("check.stream.peak_resident_ops", resident as f64);

        // The old best case, for continuity with BENCH_streaming.json: the
        // lock-step synthetic generator at the same length.
        let (_, lockstep) = tracer.time("check.stream.lockstep", |_| {
            for stream in streams {
                let cfg = StreamConfig::default().with_flush_ops(FLUSH_OPS);
                std::hint::black_box(run_scenario(stream.kind, stream.ops as usize, 4, cfg));
            }
        });
        out.set("check.stream.lockstep_ns_per_op", lockstep.as_nanos() as f64 / ops.max(1) as f64);
    }
}
