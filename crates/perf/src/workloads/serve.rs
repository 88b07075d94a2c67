//! `serve-knee` and `serve-overload`: the composed path through
//! `lintime_bench::serve::serve`.
//!
//! Both run the same deployment — 8 fifo-queue shards on one worker (one
//! engine thread plus its checker consumer, which is all a 2-core box can
//! host without the threads contending), Zipf 1.0, balanced mix, `X = 0`,
//! batch tick `B = ε`, flush window 1024 — under an open loop. `serve-knee`
//! offers 6 operations per `d` (mean gap 1000 ticks, about 75% of the rate
//! where queueing takes off); `serve-overload` offers one per tick, ~600×
//! capacity, so the whole input is backlog.
//!
//! `serve()` is one opaque call, so the traced run gets its layers from a
//! **replica** of its pipeline assembled here from the same public pieces
//! and run three times: engine alone, engine + op sink drained by an idle
//! consumer, engine + sink + streaming checker.

use super::{Outcome, Round, RunOpts, Workload};
use crate::gen::{self, Arrival};
use crate::probes::{self, D_TICKS, FLUSH_OPS};
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use lintime_adt::spec::{ObjectSpec, OpClass};
use lintime_bench::serve::{serve, serve_observed, ServeConfig, ServeReport};
use lintime_bench::streamgen::run_scenario;
use lintime_check::compositional::ShardVerdicts;
use lintime_check::stream::{StreamChecker, StreamConfig, StreamStats, StreamVerdict};
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_obs::{Obs, Registry, TraceHandle};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::{OpEvent, SimConfig};
use lintime_sim::rng::mix;
use lintime_sim::run::Run;
use lintime_sim::time::Time;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The serve workloads; `overload` selects the arrival gap.
pub struct Serve {
    /// `false`: 6 ops per `d` (`serve-knee`); `true`: one per tick.
    pub overload: bool,
}

/// Rates of the ladder, in operations per `d`, with the metric each rung's
/// queue-wait p99 is reported under. Gap = `d / rate`.
const LADDER: [(f64, &str); 5] = [
    (3.0, "serve.ladder.r3.queue_p99_ticks"),
    (5.0, "serve.ladder.r5.queue_p99_ticks"),
    (6.0, "serve.ladder.r6.queue_p99_ticks"),
    (7.5, "serve.ladder.r7_5.queue_p99_ticks"),
    (10.0, "serve.ladder.r10.queue_p99_ticks"),
];

/// Latency limit of the ladder: queue-wait p99 at most `8d`.
const QUEUE_P99_LIMIT: u64 = 8 * D_TICKS as u64;

impl Serve {
    fn config(&self, opts: &RunOpts) -> ServeConfig {
        let (arrivals, gap) = if self.overload { (150_000, 1) } else { (100_000, 1000) };
        ServeConfig {
            total_ops: opts.scaled(arrivals, 400),
            mean_gap: Time(gap),
            seed: opts.seed,
            flush_ops: FLUSH_OPS,
            ..ServeConfig::new(8, 1)
        }
    }
}

fn call_serve(cfg: &ServeConfig) -> ServeReport {
    serve(cfg).expect("the benchmark's serve configuration is valid")
}

/// Judge one `serve()` report: every arrival must complete inside its class
/// envelope on a shard whose verdict is linearizable, and each class's worst
/// service latency must *equal* its envelope (`d − X + B`, `X + ε`,
/// `d + ε + B`) — the simulator attains the bound, so anything else means
/// the algorithm or its timers changed.
fn judge(report: &ServeReport) -> Round {
    // `ServeReport::wall` is the deployment's own clock: it starts after the
    // load is generated, which is what "serving" costs.
    let mut round = Round {
        ops: report.ops,
        attempted: report.arrivals,
        wall: report.wall,
        ..Round::default()
    };
    let mut failed = report.arrivals - report.ops.min(report.arrivals);
    if failed > 0 {
        round.notes.push(format!("{failed} arrivals never completed"));
    }
    failed += report.envelope_violations;
    for s in &report.shard_reports {
        if s.verdict_class != "linearizable" || s.truncated {
            failed += s.ops;
            round.notes.push(format!(
                "shard {}: verdict {}{}",
                s.shard,
                s.verdict_class,
                if s.truncated { " (truncated)" } else { "" }
            ));
        }
    }
    for (label, metric) in [
        ("accessor", "lat_accessor_max_ticks"),
        ("mutator", "lat_mutator_max_ticks"),
        ("mixed", "lat_mixed_max_ticks"),
    ] {
        let of_class =
            || report.shard_reports.iter().flat_map(|s| &s.classes).filter(|c| c.class == label);
        let max = of_class().map(|c| c.max_ticks).max().unwrap_or(0);
        let envelope = of_class().map(|c| c.envelope_ticks).next().unwrap_or(0);
        if max != envelope {
            failed += of_class().map(|c| c.count).sum::<u64>();
            round.notes.push(format!("{label}: worst service latency {max} ≠ envelope {envelope}"));
        }
        round.virt.push((metric, max as f64));
    }
    let bucket = |p: Option<u64>, what: &str, notes: &mut Vec<String>| {
        p.unwrap_or_else(|| {
            notes.push(format!("{what} fell outside the histogram"));
            0
        }) as f64
    };
    round.virt.push(("total_p99_ticks", bucket(report.total_p99, "total p99", &mut round.notes)));
    round.virt.push(("queue_p99_ticks", bucket(report.queue_p99, "queue p99", &mut round.notes)));
    let resident = report.shard_reports.iter().map(|s| s.stats.peak_resident).max().unwrap_or(0);
    round.virt.push(("check_peak_resident_ops", resident as f64));
    round.failed = failed.min(report.arrivals);
    round
}

/// What a replica run attaches to the engine's op sink.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sink {
    /// No sink: the engine alone.
    None,
    /// A consumer thread that only receives (and keeps) the events.
    Drain,
    /// A consumer thread feeding a `StreamChecker`, as `serve()` does.
    Check,
}

/// What the consumer thread of one shard hands back.
struct Consumed {
    events: Vec<OpEvent>,
    checked: Option<(StreamVerdict, StreamStats)>,
    busy: (Instant, Instant),
}

fn consume(spec: Arc<dyn ObjectSpec>, rx: mpsc::Receiver<OpEvent>, check: bool) -> Consumed {
    let start = Instant::now();
    if !check {
        let events = rx.into_iter().collect();
        return Consumed { events, checked: None, busy: (start, Instant::now()) };
    }
    let mut checker =
        StreamChecker::with_config(&spec, StreamConfig::default().with_flush_ops(FLUSH_OPS));
    for ev in rx {
        match ev {
            OpEvent::Invoke { pid, t, op, arg } => checker.feed_invoke(pid, t, op, arg),
            OpEvent::Respond { pid, t, ret } => checker.feed_respond(pid, t, ret),
        };
    }
    let checked = Some(checker.finish());
    Consumed { events: Vec::new(), checked, busy: (start, Instant::now()) }
}

/// One pass of the replica over all shards.
#[derive(Default)]
struct Replica {
    wall: Duration,
    build: Duration,
    engine: Duration,
    join: Duration,
    reconcile: Duration,
    runs: Vec<Run>,
    events: Vec<Vec<OpEvent>>,
    checked: Vec<(StreamVerdict, StreamStats)>,
    total_latency: Vec<f64>,
}

impl Replica {
    fn ops(&self) -> u64 {
        self.runs.iter().map(|r| r.completed().count() as u64).sum()
    }

    fn engine_events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }
}

/// `serve()`'s pipeline from public pieces: per shard, in shard order on this
/// thread (one worker), build the open-loop schedule, run the batched
/// Algorithm 1 cluster with the same delay seed and admission epoch, let a
/// consumer thread take the op events, then reconcile arrivals with the
/// recorded operations.
fn replica(
    cfg: &ServeConfig,
    spec: &Arc<dyn ObjectSpec>,
    arrivals: &[Vec<Arrival>],
    sink: Sink,
    tracer: &mut Tracer,
) -> Replica {
    let mut out = Replica::default();
    let algo = Algorithm::BatchedWtlw { x: cfg.x, tick: cfg.tick };
    let ((), wall) = tracer.time("serve.replica", |t| {
        for (shard, arrived) in arrivals.iter().enumerate() {
            let (schedule, build) = t.time("sim.schedule_build", |_| gen::schedule_of(arrived));
            let mut sim = SimConfig::new(
                cfg.params,
                DelaySpec::UniformRandom { seed: mix(cfg.seed ^ (shard as u64)) },
            )
            .with_schedule(schedule)
            .with_admission_epoch(cfg.flush_ops.max(1) as u64);
            let consumer = (sink != Sink::None).then(|| {
                let (tx, rx) = mpsc::channel();
                sim.op_sink = Some(tx);
                let spec = Arc::clone(spec);
                std::thread::spawn(move || consume(spec, rx, sink == Sink::Check))
            });
            let (run, engine) = t.time("sim.run", |_| run_algorithm(algo, spec, &sim));
            drop(sim); // closes the sink, which ends the consumer's loop
            let (consumed, join) = t.time("serve.consumer_join", |_| {
                consumer.map(|h| h.join().expect("consumer thread panicked"))
            });
            if let Some(c) = consumed {
                t.record("check.consumer_busy", c.busy.0, c.busy.1);
                out.events.push(c.events);
                out.checked.extend(c.checked);
            }
            let ((), reconcile) = t.time("serve.reconcile", |_| {
                let mut by_pid: Vec<VecDeque<&Arrival>> = vec![VecDeque::new(); cfg.params.n];
                for a in arrived {
                    by_pid[a.pid.0].push_back(a);
                }
                for op in &run.ops {
                    let Some(arrival) = by_pid[op.pid.0].pop_front() else { continue };
                    let Some(t_respond) = op.t_respond else { continue };
                    out.total_latency.push((t_respond - arrival.at).as_ticks() as f64);
                }
            });
            out.build += build;
            out.engine += engine;
            out.join += join;
            out.reconcile += reconcile;
            out.runs.push(run);
        }
    });
    out.wall = wall;
    out
}

impl Workload for Serve {
    type Inputs = ServeConfig;

    fn setup(&self, opts: &RunOpts) -> ServeConfig {
        let cfg = self.config(opts);
        let warm = ServeConfig { total_ops: (cfg.total_ops / 10).max(1), ..cfg.clone() };
        std::hint::black_box(call_serve(&warm));
        cfg
    }

    fn round(&self, cfg: &ServeConfig, tracer: &mut Tracer) -> Round {
        let (report, _) = tracer.time("bench.serve", |_| call_serve(cfg));
        judge(&report)
    }

    fn layers(&self, cfg: &ServeConfig, _budget: Duration, tracer: &mut Tracer, out: &mut Outcome) {
        let spec = cfg.kind.spec();
        let (report, _) = tracer.time("bench.serve", |_| call_serve(cfg));
        let serve_wall = report.wall;
        let (arrivals, _) =
            tracer.time("gen.open_loop", |_| gen::open_loop(spec.as_ref(), gen::OpenLoop::of(cfg)));

        let alone = replica(cfg, &spec, &arrivals, Sink::None, tracer);
        let drained = replica(cfg, &spec, &arrivals, Sink::Drain, tracer);
        let full = replica(cfg, &spec, &arrivals, Sink::Check, tracer);

        // The replica must be `serve()`: same traffic, same events, same
        // verdicts. Otherwise its layer costs explain some other pipeline.
        let ops = full.ops();
        let same_traffic = arrivals.iter().map(|a| a.len() as u64).collect::<Vec<_>>()
            == report.shard_reports.iter().map(|s| s.arrivals).collect::<Vec<_>>();
        let healthy = full.checked.iter().all(|(v, _)| v.is_ok());
        out.attempted += report.arrivals;
        if !same_traffic || full.engine_events() != report.events || ops != report.ops || !healthy {
            out.failed += report.arrivals;
            out.notes.push(format!(
                "replica diverged from serve(): traffic equal {same_traffic}, events {} vs {}, \
                 ops {ops} vs {}, all shards ok {healthy}",
                full.engine_events(),
                report.events,
                report.ops
            ));
        }
        let per_op = |d: Duration| d.as_nanos() as f64 / ops.max(1) as f64;
        let events = alone.engine_events();

        // sim
        out.set("sim.events", events as f64);
        out.set("sim.events_per_op", events as f64 / ops.max(1) as f64);
        out.set("sim.engine_ns_per_event", alone.engine.as_nanos() as f64 / events.max(1) as f64);
        out.set("sim.events_per_s", events as f64 / alone.engine.as_secs_f64().max(1e-9));
        out.set("sim.schedule_build_ns_per_op", per_op(alone.build));
        let null_ns =
            probes::null_node_ns_per_event(&spec, cfg.params.n, events / 2, cfg.seed, tracer);
        out.set("sim.null_node_ns_per_event", null_ns);

        // core
        let msgs: u64 = alone.runs.iter().map(|r| r.msgs_sent).sum();
        let bytes: u64 = alone.runs.iter().map(|r| r.bytes_sent).sum();
        let announcements = arrivals.iter().flatten().filter(|a| a.class != OpClass::PureAccessor);
        let flushes = msgs / (cfg.params.n as u64 - 1);
        out.set(
            "core.batched.ns_per_op",
            (per_op(alone.engine) - null_ns * events as f64 / ops.max(1) as f64).max(0.0),
        );
        out.set("core.batched.msgs_per_op", msgs as f64 / ops.max(1) as f64);
        out.set("core.batch_fill", announcements.count() as f64 / flushes.max(1) as f64);
        out.set("msgs_per_op", msgs as f64 / ops.max(1) as f64);
        out.set("bytes_per_op", bytes as f64 / ops.max(1) as f64);

        // adt
        let invocations = arrivals.iter().flatten().map(|a| &a.inv);
        out.set("adt.apply_ns_per_op.queue", probes::apply_ns_per_op(&spec, invocations, tracer));

        // check: the drained run kept every shard's events; feed them again
        // on this thread, alone, for the checker's own cost.
        let (mut feed, mut finish) = (Duration::ZERO, Duration::ZERO);
        let mut stats = Vec::new();
        for events in &drained.events {
            let fed = probes::feed_stream(&spec, events, tracer);
            feed += fed.feed;
            finish += fed.finish;
            stats.push(fed.stats);
        }
        let sum = |f: fn(&StreamStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        out.set("check.stream.feed_ns_per_op", per_op(feed));
        out.set("check.stream.finish_ns", finish.as_nanos() as f64);
        out.set("check.stream.flushes", sum(|s| s.flushes));
        out.set("check.stream.fallbacks", sum(|s| s.fallbacks));
        // Every flush and every finish decides one window.
        out.set(
            "check.stream.fallback_share",
            sum(|s| s.fallbacks) / (sum(|s| s.flushes) + stats.len() as f64).max(1.0),
        );
        out.set("check.stream.gc_reclaimed", sum(|s| s.gc_reclaimed));
        out.set(
            "check.stream.peak_resident_ops",
            stats.iter().map(|s| s.peak_resident).max().unwrap_or(0) as f64,
        );
        let lockstep_ops = cfg.total_ops;
        let (_, lockstep) = tracer.time("check.stream.lockstep", |_| {
            run_scenario(
                cfg.kind,
                lockstep_ops,
                4,
                StreamConfig::default().with_flush_ops(FLUSH_OPS),
            )
        });
        out.set(
            "check.stream.lockstep_ns_per_op",
            lockstep.as_nanos() as f64 / lockstep_ops as f64,
        );
        let (_, compose) = tracer.time("check.compose", |_| {
            let mut verdicts = ShardVerdicts::default();
            for (shard, (verdict, _)) in full.checked.iter().enumerate() {
                verdicts.push(format!("shard-{shard}"), verdict.clone());
            }
            verdicts.class()
        });
        out.set("check.compose_ns", compose.as_nanos() as f64);

        // bench::serve
        let signed_per_op = |a: Duration, b: Duration| {
            (a.as_nanos() as f64 - b.as_nanos() as f64) / ops.max(1) as f64
        };
        out.set("serve.sink_ns_per_op", signed_per_op(drained.wall, alone.wall));
        out.set("serve.checker_wait_ns_per_op", signed_per_op(full.wall, drained.wall));
        out.set("serve.glue_ns_per_op", signed_per_op(serve_wall, full.wall));
        // The full replica's named spans — schedule build, engine with its
        // sink, waiting for the checker to finish, reconciliation — over the
        // wall time `serve()` reports. (How the engine span splits into
        // engine alone, sink and checker is what the three metrics above say.)
        let named = full.build + full.engine + full.join + full.reconcile;
        out.set("serve.explained_share", named.as_secs_f64() / serve_wall.as_secs_f64().max(1e-9));
        out.set(
            "serve.total_p99_ticks_exact",
            percentile(&sorted(full.total_latency.clone()), 0.99),
        );

        // obs: the same deployment with an active registry and a null sink.
        let obs = Obs::new(TraceHandle::null(), Registry::new());
        let (observed, _) = tracer.time("bench.serve_observed", |_| {
            serve_observed(cfg, &obs).expect("the benchmark's serve configuration is valid")
        });
        out.set("obs.on_ratio.serve", observed.wall.as_secs_f64() / serve_wall.as_secs_f64());
        out.set("sim.ingress_peak_depth", obs.metrics.gauge("sim.ingress.depth").get() as f64);
        out.set("sim.admission_epochs", obs.metrics.counter("sim.ingress.epochs").get() as f64);

        if !self.overload {
            self.ladder(cfg, &report, tracer, out);
        }
    }
}

impl Serve {
    /// The rate ladder: the same deployment at 3 / 5 / 6 / 7.5 / 10 operations
    /// per `d`. A rung holds if its queue-wait p99 is within `8d`, nothing
    /// was left unadmitted, and at most 1% of the arrivals were ever in
    /// flight at once (no growing backlog). `max_rate_ok_ops_per_d` is the
    /// highest rung below the first that fails.
    fn ladder(
        &self,
        cfg: &ServeConfig,
        at_six: &ServeReport,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) {
        let mut best = 0.0;
        let mut climbing = true;
        out.notes.push(format!(
            "ladder ({} arrivals per rung; limit: queue p99 ≤ {QUEUE_P99_LIMIT} ticks, \
             unadmitted = 0, peak in-flight ≤ 1%)",
            cfg.total_ops
        ));
        for (rate, metric) in LADDER {
            let gap = Time((D_TICKS as f64 / rate).round() as i64);
            let fresh;
            let report = if gap == cfg.mean_gap {
                at_six
            } else {
                let rung = ServeConfig { mean_gap: gap, ..cfg.clone() };
                fresh = tracer.time("bench.serve", |_| call_serve(&rung)).0;
                &fresh
            };
            let round = judge(report);
            out.attempted += round.attempted;
            out.failed += round.failed;
            out.notes.extend(round.notes);
            let unadmitted: u64 = report.shard_reports.iter().map(|s| s.unadmitted).sum();
            let queue_p99 = report.queue_p99.unwrap_or(u64::MAX);
            let holds = queue_p99 <= QUEUE_P99_LIMIT
                && unadmitted == 0
                && report.peak_in_flight as u64 * 100 <= report.arrivals;
            climbing &= holds;
            if climbing {
                best = rate;
            }
            out.set(metric, report.queue_p99.unwrap_or(0) as f64);
            out.notes.push(format!(
                "  {rate:>4} ops/d (gap {gap:>4}): queue p99 {queue_p99:>9} total p99 {:>9} \
                 peak in-flight {:>6} unadmitted {unadmitted} -> {}",
                report.total_p99.unwrap_or(0),
                report.peak_in_flight,
                if holds { "holds" } else { "fails" }
            ));
        }
        out.set("max_rate_ok_ops_per_d", best);
    }
}
