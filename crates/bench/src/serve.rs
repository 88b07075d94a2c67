//! `lintime serve` — a sharded multi-object service under open-loop load.
//!
//! This module composes every layer of the workspace into one deployment
//! shape: `shards` independent objects (one per shard, all of the same ADT),
//! each implemented by its own Algorithm 1 cluster with **tick-batched
//! mutator broadcasts** ([`lintime_core::batch`]), driven by an **open-loop
//! generator** (arrivals do not wait for responses — a busy process queues
//! them in the engine's ingress queue, see
//! [`lintime_sim::schedule::Schedule::arrival`]), and monitored by one
//! bounded-memory online checker ([`lintime_check::stream::StreamChecker`])
//! consuming the live operation-event stream while the shard executes.
//!
//! # Why the composed verdict is sound
//!
//! Linearizability is *local* (Herlihy–Wing): a history over several objects
//! is linearizable iff each per-object projection is. Shards here are
//! *disjoint objects with disjoint clusters* — no operation ever touches two
//! shards — so the projection is the shard's own history and the whole
//! service's verdict is exactly the conjunction of the per-shard streaming
//! verdicts, composed by [`ShardVerdicts`] with the usual risk asymmetry
//! (one refuted shard refutes the service; one undecided shard degrades it
//! to unknown). Locality also buys *attribution*: a violation names the
//! shard it lives in, rather than drowning in the interleaving.
//!
//! # What is measured
//!
//! Open-loop load splits response time into two parts the closed-loop
//! experiments cannot see: **queueing** (arrival → admission, spent in the
//! ingress queue behind earlier operations of the same process) and
//! **service** (admission → response, the part Algorithm 1's waits bound).
//! Service latencies are checked against the batched envelopes — accessors
//! `≤ d − X + B`, pure mutators `≤ X + ε`, mixed `≤ d + ε + B` — and every
//! excess is counted as an envelope violation, per shard and per class.
//! Queueing latency is reported separately; the model promises nothing
//! about it (it is the generator outrunning the service rate), so it never
//! counts against the envelopes. In-flight load (arrived but not yet
//! responded) is tracked per shard and globally via a merged arrival/response
//! sweep; the online checker's peak-resident figure demonstrates that
//! checking memory stays flat no matter how deep the ingress backlog grows.

use crate::streamgen::StreamKind;
use lintime_adt::spec::{Invocation, ObjectSpec, OpClass};
use lintime_adt::value::Value;
use lintime_check::compositional::ShardVerdicts;
use lintime_check::history::{History, TimedOp};
use lintime_check::stream::{StreamChecker, StreamConfig, StreamStats, StreamVerdict};
use lintime_core::batch::batched_predicted_latency;
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_obs::{Histogram, Obs, Registry};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::{OpEvent, SimConfig};
use lintime_sim::rng::{mix, SplitMix64};
use lintime_sim::schedule::Schedule;
use lintime_sim::time::{ModelParams, Pid, Time};
use lintime_sim::workload::Mix;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of one serve deployment.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Independent objects, one per shard.
    pub shards: usize,
    /// Worker threads; shard `s` runs on worker `s % workers`.
    pub workers: usize,
    /// The ADT every shard implements.
    pub kind: StreamKind,
    /// Model parameters of each shard's cluster.
    pub params: ModelParams,
    /// Algorithm 1 tradeoff parameter `X ∈ [0, d − ε]`.
    pub x: Time,
    /// Batch tick `B` for mutator-announcement batching (0 disables it).
    pub tick: Time,
    /// Total operations generated across all shards.
    pub total_ops: usize,
    /// Mean inter-arrival gap of the open-loop generator, in ticks (arrival
    /// rate ≈ 1 op per `mean_gap` ticks across the whole service). Gaps are
    /// drawn uniformly from `[0, 2·mean_gap]`.
    pub mean_gap: Time,
    /// Operation-class mix of the generated load.
    pub mix: Mix,
    /// Zipf exponent of shard popularity: shard `k` is drawn with weight
    /// `(k+1)^-zipf_s`. 0 = uniform; 1 ≈ classic web-object skew.
    pub zipf_s: f64,
    /// Seed for the generator and the per-shard delay assignments.
    pub seed: u64,
    /// Flush window of each shard's online checker — also used as the
    /// shard's **admission epoch**: the engine holds open-loop admissions
    /// for a quiescence barrier after this many, which is what guarantees
    /// the checker a settled cut (and therefore flat resident memory) even
    /// when the backlog keeps every process busy between barriers.
    pub flush_ops: usize,
    /// Test hook: corrupt this shard's event stream (the first integer
    /// response is shifted by a large prime before reaching the checker), so
    /// attribution and the differential suite can exercise a real violation.
    pub corrupt_shard: Option<usize>,
    /// Retain each shard's completed history (as seen by its checker,
    /// corruption included) for offline differential re-checking. Costs
    /// memory proportional to the run; off in production.
    pub keep_histories: bool,
}

impl ServeConfig {
    /// A deployment with sane defaults: `shards × workers` as given, FIFO
    /// queues, the paper's default parameters, `X = 0`, batch tick `ε`,
    /// balanced mix, Zipf 1.0, and a checker flush window of 1024 ops.
    pub fn new(shards: usize, workers: usize) -> ServeConfig {
        let params = ModelParams::default_experiment();
        ServeConfig {
            shards,
            workers,
            kind: StreamKind::Queue,
            params,
            x: Time::ZERO,
            tick: params.epsilon,
            total_ops: 10_000,
            mean_gap: Time(2),
            mix: Mix::BALANCED,
            zipf_s: 1.0,
            seed: 42,
            flush_ops: 1024,
            corrupt_shard: None,
            keep_histories: false,
        }
    }

    /// The committed-baseline scale: 8 shards on 4 workers, 150k operations
    /// arriving far faster than the service rate, so the ingress backlog
    /// (in-flight load) exceeds 100k operations while each shard's checker
    /// stays within its flush window.
    pub fn default_experiment() -> ServeConfig {
        ServeConfig { total_ops: 150_000, mean_gap: Time(1), ..ServeConfig::new(8, 4) }
    }

    /// Structural validation with actionable messages.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("serve needs at least one shard".into());
        }
        if self.workers == 0 {
            return Err("serve needs at least one worker thread".into());
        }
        if self.x < Time::ZERO || self.x > self.params.d - self.params.epsilon {
            return Err(format!(
                "X = {} outside [0, d - ε] = [0, {}]",
                self.x,
                self.params.d - self.params.epsilon
            ));
        }
        if self.tick < Time::ZERO {
            return Err("batch tick must be non-negative".into());
        }
        if self.zipf_s < 0.0 {
            return Err("zipf exponent must be non-negative".into());
        }
        if let Some(s) = self.corrupt_shard {
            if s >= self.shards {
                return Err(format!("corrupt shard {s} out of range (shards = {})", self.shards));
            }
        }
        Ok(())
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::BatchedWtlw { x: self.x, tick: self.tick }
    }
}

/// One generated open-loop arrival, before it is handed to a shard.
#[derive(Clone, Debug)]
struct Arrival {
    at: Time,
    pid: Pid,
    inv: Invocation,
    class: OpClass,
}

/// Deterministically generate the full arrival stream and split it by shard
/// (Zipfian shard popularity, uniform process choice within the shard).
fn generate(cfg: &ServeConfig) -> Vec<Vec<Arrival>> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    // Zipf CDF over shards.
    let weights: Vec<f64> =
        (0..cfg.shards).map(|k| 1.0 / ((k + 1) as f64).powf(cfg.zipf_s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(cfg.shards);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let spec = cfg.kind.spec();
    let metas = spec.ops();
    let mix_total = cfg.mix.accessors + cfg.mix.mutators + cfg.mix.mixed;
    // Container ADTs (queue, priority queue — anything with a consuming
    // mixed op) only give the settled-prefix GC a *canonical* cut when the
    // structure is provably empty at that cut. The generator therefore pairs
    // every producer with the same process's next operation being the
    // matching consumer: at a quiescence barrier where no process sits
    // mid-pair, every serviced dequeue after the last empty point succeeded,
    // so the structure is empty and the checker can retire the prefix.
    // Registers have no consuming op and need no pairing (their canonical
    // cut is a strictly-last write instead).
    let consumer = metas.iter().find(|m| m.class == OpClass::Mixed);
    let producing = metas.iter().any(|m| m.class == OpClass::PureMutator && m.has_arg);
    let pairing = consumer.filter(|_| producing);
    let mut owes_consumer = vec![vec![false; cfg.params.n]; cfg.shards];

    let mut per_shard: Vec<Vec<Arrival>> = vec![Vec::new(); cfg.shards];
    let mut t = Time::ZERO;
    for _ in 0..cfg.total_ops {
        t += Time(rng.gen_range(0..=(2 * cfg.mean_gap.as_ticks()).max(0)));
        // 53 uniform bits → [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let shard = cdf.partition_point(|&c| c <= u).min(cfg.shards - 1);
        let pid = Pid(rng.gen_range(0..cfg.params.n));
        let meta = if let Some(consumer) = pairing.filter(|_| owes_consumer[shard][pid.0]) {
            owes_consumer[shard][pid.0] = false;
            consumer
        } else {
            let roll = rng.gen_range(0..mix_total);
            let class = if roll < cfg.mix.accessors {
                OpClass::PureAccessor
            } else if roll < cfg.mix.accessors + cfg.mix.mutators {
                OpClass::PureMutator
            } else {
                OpClass::Mixed
            };
            let candidates: Vec<_> = metas.iter().filter(|m| m.class == class).collect();
            if candidates.is_empty() {
                &metas[rng.gen_range(0..metas.len())]
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            }
        };
        if pairing.is_some() && meta.class == OpClass::PureMutator {
            owes_consumer[shard][pid.0] = true;
        }
        let args = spec.suggested_args(meta.name);
        let arg = args[rng.gen_range(0..args.len())].clone();
        per_shard[shard].push(Arrival {
            at: t,
            pid,
            inv: Invocation::new(meta.name, arg),
            class: meta.class,
        });
    }
    per_shard
}

/// Per-class latency aggregate of one shard.
#[derive(Clone, Debug)]
pub struct ClassStats {
    /// `"accessor"`, `"mutator"`, or `"mixed"`.
    pub class: &'static str,
    /// Completed operations of this class.
    pub count: u64,
    /// Mean service latency in ticks.
    pub mean_ticks: f64,
    /// Worst service latency in ticks.
    pub max_ticks: i64,
    /// The paper envelope for this class under `(X, B)`, in ticks.
    pub envelope_ticks: i64,
    /// Operations whose service latency exceeded the envelope.
    pub violations: u64,
}

/// Everything one shard reports back.
#[derive(Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Open-loop arrivals routed to this shard.
    pub arrivals: u64,
    /// Operations completed by the shard's cluster.
    pub ops: u64,
    /// Arrivals still queued when the shard stopped (non-zero only on a
    /// truncated run — the engine otherwise drains its ingress queues).
    pub unadmitted: u64,
    /// True iff the shard's run hit an engine limit; its verdict is then
    /// only about the recorded prefix.
    pub truncated: bool,
    /// Peak in-flight operations (arrived, not yet responded).
    pub peak_in_flight: usize,
    /// Worst arrival → admission wait, in ticks.
    pub max_queue_wait_ticks: i64,
    /// Per-class service-latency aggregates with envelope checks.
    pub classes: Vec<ClassStats>,
    /// Total envelope violations across classes.
    pub envelope_violations: u64,
    /// The online checker's final statistics (peak resident memory, GC).
    pub stats: StreamStats,
    /// The online verdict class (`linearizable` / `not-linearizable` /
    /// `unknown`).
    pub verdict_class: &'static str,
    /// The shard's completed history as its checker saw it (corruption
    /// included), kept only under [`ServeConfig::keep_histories`].
    pub history: Option<History>,
}

/// The whole deployment's report.
#[derive(Debug)]
pub struct ServeReport {
    /// The configuration's algorithm label (e.g. `batched-wtlw(X=0, B=1800)`).
    pub algo: String,
    /// ADT label.
    pub adt: &'static str,
    /// Shards and workers of the run.
    pub shards: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Flush window of each shard's checker.
    pub flush_ops: usize,
    /// Per-shard reports, in shard order.
    pub shard_reports: Vec<ShardReport>,
    /// Composed per-shard verdicts (locality roll-up).
    pub verdicts: ShardVerdicts,
    /// Total completed operations.
    pub ops: u64,
    /// Total generated arrivals.
    pub arrivals: u64,
    /// Total engine events across shards.
    pub events: u64,
    /// Wall-clock duration of the whole deployment (all workers).
    pub wall: Duration,
    /// Completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Global peak in-flight operations (merged sweep across shards; shards
    /// share the virtual time axis, all starting at tick 0).
    pub peak_in_flight: usize,
    /// Total envelope violations across shards.
    pub envelope_violations: u64,
    /// Service-latency percentiles (ticks; bucket upper bounds). `None` when
    /// the quantile exceeds every bound or no samples exist.
    pub service_p50: Option<u64>,
    /// 99th percentile service latency.
    pub service_p99: Option<u64>,
    /// 99.9th percentile service latency.
    pub service_p999: Option<u64>,
    /// 99th percentile total (arrival → response) latency.
    pub total_p99: Option<u64>,
    /// 99th percentile queueing (arrival → admission) wait.
    pub queue_p99: Option<u64>,
}

/// What the live consumer thread hands back per shard.
struct Consumed {
    verdict: StreamVerdict,
    stats: StreamStats,
    history: Option<History>,
}

/// Consume one shard's live event stream: feed the online checker, apply
/// the corruption hook, and (optionally) retain the completed history the
/// checker actually saw.
fn consume(
    spec: Arc<dyn ObjectSpec>,
    cfg: StreamConfig,
    rx: mpsc::Receiver<OpEvent>,
    corrupt: bool,
    keep: bool,
    obs: Obs,
) -> Consumed {
    let mut checker = StreamChecker::observed(&spec, cfg, &obs);
    let mut pending: Vec<Option<(&'static str, Value, Time)>> = Vec::new();
    let mut kept: Vec<TimedOp> = Vec::new();
    let mut corrupt_armed = corrupt;
    for ev in rx {
        match ev {
            OpEvent::Invoke { pid, t, op, arg } => {
                if keep {
                    if pid.0 >= pending.len() {
                        pending.resize_with(pid.0 + 1, || None);
                    }
                    pending[pid.0] = Some((op, arg.clone(), t));
                }
                checker.feed_invoke(pid, t, op, arg);
            }
            OpEvent::Respond { pid, t, mut ret } => {
                if corrupt_armed {
                    if let Value::Int(v) = ret {
                        // A value no generator produces: the shard's stream
                        // (and retained history) becomes soundly refutable.
                        ret = Value::Int(v + 1_000_003);
                        corrupt_armed = false;
                    }
                }
                if keep {
                    if let Some((op, arg, t_invoke)) = pending.get_mut(pid.0).and_then(Option::take)
                    {
                        kept.push(TimedOp {
                            pid,
                            instance: lintime_adt::spec::OpInstance { op, arg, ret: ret.clone() },
                            t_invoke,
                            t_respond: t,
                        });
                    }
                }
                checker.feed_respond(pid, t, ret);
            }
        }
    }
    let (verdict, stats) = checker.finish();
    Consumed { verdict, stats, history: keep.then_some(History { ops: kept }) }
}

/// Shared latency histograms (handles are atomics; one registration, many
/// observer threads).
#[derive(Clone)]
struct LatencyHists {
    service: Histogram,
    total: Histogram,
    queue: Histogram,
}

impl LatencyHists {
    fn register(r: &Registry, cfg: &ServeConfig) -> LatencyHists {
        // Service latencies take only the three envelope values in the
        // deterministic simulator, so bounds at exactly those values make
        // the percentiles exact. Extra trailing bounds catch any excess.
        let mut env: Vec<u64> = [OpClass::PureMutator, OpClass::PureAccessor, OpClass::Mixed]
            .iter()
            .map(|&c| batched_predicted_latency(cfg.params, cfg.x, cfg.tick, c).as_ticks() as u64)
            .collect();
        env.sort_unstable();
        env.dedup();
        let top = *env.last().expect("three classes");
        env.extend([top * 2, top * 4].iter().copied());
        env.dedup();
        // Queueing and total latency are open-ended (backlog can grow with
        // the arrival excess): geometric buckets from ε up to the worst
        // possible backlog — every arrival queued behind every other op at
        // the slowest envelope — so a saturated run's percentiles never
        // land in the overflow bucket (whose upper bound is unknown, which
        // would render them as `null`).
        let d = cfg.params.d.as_ticks() as u64;
        let ceiling = (cfg.total_ops as u64).max(1).saturating_mul(top).max(d * 4096);
        let mut open = vec![cfg.params.epsilon.as_ticks() as u64, d / 2];
        let mut b = d;
        while b <= ceiling {
            open.push(b);
            b *= 2;
        }
        open.sort_unstable();
        open.dedup();
        LatencyHists {
            service: r.histogram("serve.latency.service_ticks", &env),
            total: r.histogram("serve.latency.total_ticks", &open),
            queue: r.histogram("serve.latency.queue_wait_ticks", &open),
        }
    }
}

/// One shard's full outcome: the report, the verdict feeding the locality
/// roll-up, the (arrival, response) deltas for the global in-flight sweep,
/// and the engine's event count.
struct ShardOutcome {
    report: ShardReport,
    verdict: StreamVerdict,
    flight: Vec<(Time, i32)>,
    events: u64,
}

/// Run one shard end to end: build its open-loop schedule, execute the
/// batched Algorithm 1 cluster with a live checker riding the event stream,
/// then reconcile arrivals with the recorded run.
fn run_shard(
    cfg: &ServeConfig,
    shard: usize,
    arrivals: &[Arrival],
    hists: &LatencyHists,
    obs: &Obs,
) -> ShardOutcome {
    let spec = cfg.kind.spec();
    let mut schedule = Schedule::new();
    for a in arrivals {
        schedule = schedule.arrival(a.pid, a.at, a.inv.clone());
    }
    let (tx, rx) = mpsc::channel();
    let sim = SimConfig::new(
        cfg.params,
        DelaySpec::UniformRandom { seed: mix(cfg.seed ^ (shard as u64)) },
    )
    .with_schedule(schedule)
    .with_op_sink(tx)
    .with_admission_epoch(cfg.flush_ops.max(1) as u64)
    .with_obs(obs.clone());

    let stream_cfg = StreamConfig::default().with_flush_ops(cfg.flush_ops);
    let consumer_spec = Arc::clone(&spec);
    let corrupt = cfg.corrupt_shard == Some(shard);
    let keep = cfg.keep_histories;
    let consumer_obs = obs.clone();
    let consumer = std::thread::spawn(move || {
        consume(consumer_spec, stream_cfg, rx, corrupt, keep, consumer_obs)
    });

    let run = run_algorithm(cfg.algorithm(), &spec, &sim);
    drop(sim); // close the op sink so the consumer's recv loop ends
    let consumed = consumer.join().unwrap_or_else(|_| Consumed {
        verdict: StreamVerdict::Unknown(lintime_check::stream::UnknownReason::MalformedStream),
        stats: StreamStats::default(),
        history: None,
    });

    // Reconcile arrivals with the recorded operations: the engine admits
    // per-process FIFO, so the i-th arrival at a pid is the i-th recorded op
    // at that pid. Queue wait = admission − arrival; service = response −
    // admission, checked against the batched envelope for the op's class.
    let mut arr_by_pid: Vec<VecDeque<&Arrival>> = vec![VecDeque::new(); cfg.params.n];
    for a in arrivals {
        arr_by_pid[a.pid.0].push_back(a);
    }
    let mut classes = [
        (OpClass::PureAccessor, "accessor"),
        (OpClass::PureMutator, "mutator"),
        (OpClass::Mixed, "mixed"),
    ]
    .map(|(c, label)| {
        (
            c,
            ClassStats {
                class: label,
                count: 0,
                mean_ticks: 0.0,
                max_ticks: 0,
                envelope_ticks: batched_predicted_latency(cfg.params, cfg.x, cfg.tick, c)
                    .as_ticks(),
                violations: 0,
            },
        )
    });
    let mut sums = [0i128; 3];
    let mut flight: Vec<(Time, i32)> = Vec::with_capacity(2 * run.ops.len());
    let mut max_queue_wait = 0i64;
    for op in &run.ops {
        let Some(arrival) = arr_by_pid[op.pid.0].pop_front() else { continue };
        let Some(t_respond) = op.t_respond else { continue };
        let wait = (op.t_invoke - arrival.at).as_ticks();
        let service = (t_respond - op.t_invoke).as_ticks();
        max_queue_wait = max_queue_wait.max(wait);
        hists.queue.observe_i64(wait);
        hists.service.observe_i64(service);
        hists.total.observe_i64((t_respond - arrival.at).as_ticks());
        flight.push((arrival.at, 1));
        flight.push((t_respond, -1));
        let slot = match arrival.class {
            OpClass::PureAccessor => 0,
            OpClass::PureMutator => 1,
            OpClass::Mixed => 2,
        };
        let cs = &mut classes[slot].1;
        cs.count += 1;
        sums[slot] += service as i128;
        cs.max_ticks = cs.max_ticks.max(service);
        if service > cs.envelope_ticks {
            cs.violations += 1;
        }
    }
    for (slot, (_, cs)) in classes.iter_mut().enumerate() {
        if cs.count > 0 {
            cs.mean_ticks = sums[slot] as f64 / cs.count as f64;
        }
    }

    // Shard-local peak in-flight (sorted in place: the global sweep sorts
    // the concatenation again anyway).
    flight.sort_unstable_by_key(|&(t, delta)| (t, -delta));
    let (mut cur, mut peak) = (0i64, 0i64);
    for &(_, delta) in &flight {
        cur += delta as i64;
        peak = peak.max(cur);
    }

    let classes: Vec<ClassStats> =
        classes.into_iter().map(|(_, cs)| cs).filter(|cs| cs.count > 0).collect();
    let envelope_violations = classes.iter().map(|c| c.violations).sum();
    let report = ShardReport {
        shard,
        arrivals: arrivals.len() as u64,
        ops: run.ops.iter().filter(|o| o.t_respond.is_some()).count() as u64,
        unadmitted: run.unadmitted,
        truncated: run.truncated,
        peak_in_flight: peak as usize,
        max_queue_wait_ticks: max_queue_wait,
        classes,
        envelope_violations,
        verdict_class: consumed.verdict.class(),
        stats: consumed.stats,
        history: consumed.history,
    };
    ShardOutcome { report, verdict: consumed.verdict, flight, events: run.events }
}

/// Run the whole deployment (uninstrumented). See [`serve_observed`].
pub fn serve(cfg: &ServeConfig) -> Result<ServeReport, String> {
    serve_observed(cfg, &Obs::off())
}

/// Run the whole deployment: generate the open-loop load, execute every
/// shard on `cfg.workers` worker threads, compose the per-shard streaming
/// verdicts, and aggregate latency/in-flight figures. The `obs` bundle (when
/// active) additionally collects the engines' `sim.ingress.*` metrics and
/// the checkers' `check.stream.*` counters across all shards.
pub fn serve_observed(cfg: &ServeConfig, obs: &Obs) -> Result<ServeReport, String> {
    cfg.validate()?;
    let per_shard = generate(cfg);
    let arrivals_total: u64 = per_shard.iter().map(|v| v.len() as u64).sum();
    // The latency histograms live in their own registry so percentile math
    // never depends on the caller passing an active Obs.
    let registry = Registry::new();
    let hists = LatencyHists::register(&registry, cfg);

    let t0 = Instant::now();
    let results: Mutex<Vec<Option<ShardOutcome>>> =
        Mutex::new((0..cfg.shards).map(|_| None).collect());
    std::thread::scope(|scope| {
        for w in 0..cfg.workers.min(cfg.shards) {
            let per_shard = &per_shard;
            let results = &results;
            let hists = &hists;
            scope.spawn(move || {
                for s in (w..cfg.shards).step_by(cfg.workers) {
                    let outcome = run_shard(cfg, s, &per_shard[s], hists, obs);
                    results.lock().expect("results poisoned")[s] = Some(outcome);
                }
            });
        }
    });
    let wall = t0.elapsed();

    let mut shard_reports = Vec::with_capacity(cfg.shards);
    let mut verdicts = ShardVerdicts::default();
    let mut flight_all: Vec<(Time, i32)> = Vec::new();
    let mut events = 0u64;
    for slot in results.into_inner().expect("results poisoned") {
        let outcome = slot.expect("every shard ran");
        verdicts.push(format!("shard-{}", outcome.report.shard), outcome.verdict);
        flight_all.extend(outcome.flight);
        events += outcome.events;
        shard_reports.push(outcome.report);
    }
    flight_all.sort_by_key(|&(t, delta)| (t, -delta));
    let (mut cur, mut peak) = (0i64, 0i64);
    for &(_, delta) in &flight_all {
        cur += delta as i64;
        peak = peak.max(cur);
    }

    let ops: u64 = shard_reports.iter().map(|s| s.ops).sum();
    let service = hists.service.snapshot();
    let total = hists.total.snapshot();
    let queue = hists.queue.snapshot();
    Ok(ServeReport {
        algo: cfg.algorithm().label(),
        adt: cfg.kind.label(),
        shards: cfg.shards,
        workers: cfg.workers,
        flush_ops: cfg.flush_ops,
        verdicts,
        ops,
        arrivals: arrivals_total,
        events,
        wall,
        ops_per_sec: ops as f64 / wall.as_secs_f64().max(1e-9),
        peak_in_flight: peak as usize,
        envelope_violations: shard_reports.iter().map(|s| s.envelope_violations).sum(),
        service_p50: service.percentile(0.50),
        service_p99: service.percentile(0.99),
        service_p999: service.percentile(0.999),
        total_p99: total.percentile(0.99),
        queue_p99: queue.percentile(0.99),
        shard_reports,
    })
}

fn opt(v: Option<u64>) -> String {
    v.map_or("null".into(), |x| x.to_string())
}

impl ServeReport {
    /// Human-readable rendering of the deployment outcome.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "serve: {} shards of {} on {} workers, {} ({} flush window)",
            self.shards, self.adt, self.workers, self.algo, self.flush_ops
        )
        .unwrap();
        writeln!(
            out,
            "load:  {} arrivals, {} completed in {:.2?} ({:.0} ops/s wall), \
             peak in-flight {}",
            self.arrivals, self.ops, self.wall, self.ops_per_sec, self.peak_in_flight
        )
        .unwrap();
        writeln!(
            out,
            "latency (ticks): service p50/p99/p999 = {}/{}/{}, total p99 = {}, \
             queue wait p99 = {}",
            opt(self.service_p50),
            opt(self.service_p99),
            opt(self.service_p999),
            opt(self.total_p99),
            opt(self.queue_p99)
        )
        .unwrap();
        writeln!(
            out,
            "verdict: {} ({} envelope violations)",
            self.verdicts.class(),
            self.envelope_violations
        )
        .unwrap();
        if !self.verdicts.is_linearizable() {
            let bad = self.verdicts.violating_shards();
            if !bad.is_empty() {
                writeln!(out, "  violations attributed to: {}", bad.join(", ")).unwrap();
            }
        }
        for s in &self.shard_reports {
            writeln!(
                out,
                "  shard {:>2}: {:>7} ops ({:>7} arrivals), verdict {}, peak in-flight {:>7}, \
                 peak resident {:>5}, {} envelope violations",
                s.shard,
                s.ops,
                s.arrivals,
                s.verdict_class,
                s.peak_in_flight,
                s.stats.peak_resident,
                s.envelope_violations
            )
            .unwrap();
            for c in &s.classes {
                writeln!(
                    out,
                    "      {:<9} n={:<7} mean={:<8.1} max={:<7} envelope={:<7} over={}",
                    c.class, c.count, c.mean_ticks, c.max_ticks, c.envelope_ticks, c.violations
                )
                .unwrap();
            }
        }
        out
    }

    /// The report as JSON rows (`lintime serve --json-out`): one aggregate
    /// row first, then one row per shard, no external serializer.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[\n");
        let max_resident =
            self.shard_reports.iter().map(|s| s.stats.peak_resident).max().unwrap_or(0);
        out.push_str(&format!(
            "  {{\"case\": \"serve\", \"variant\": \"{}\", \"adt\": \"{}\", \"shards\": {}, \
             \"workers\": {}, \"flush_ops\": {}, \"arrivals\": {}, \"ops\": {}, \"events\": {}, \
             \"wall_ns\": {}, \"ops_per_sec\": {}, \"peak_in_flight\": {}, \
             \"envelope_violations\": {}, \"verdict\": \"{}\", \"service_p50_ticks\": {}, \
             \"service_p99_ticks\": {}, \"service_p999_ticks\": {}, \"total_p99_ticks\": {}, \
             \"queue_p99_ticks\": {}, \"max_peak_resident_ops\": {}}}",
            self.algo,
            self.adt,
            self.shards,
            self.workers,
            self.flush_ops,
            self.arrivals,
            self.ops,
            self.events,
            self.wall.as_nanos(),
            self.ops_per_sec,
            self.peak_in_flight,
            self.envelope_violations,
            self.verdicts.class(),
            opt(self.service_p50),
            opt(self.service_p99),
            opt(self.service_p999),
            opt(self.total_p99),
            opt(self.queue_p99),
            max_resident,
        ));
        for s in &self.shard_reports {
            out.push_str(",\n");
            out.push_str(&format!(
                "  {{\"case\": \"serve/shard{}\", \"shard\": {}, \"arrivals\": {}, \"ops\": {}, \
                 \"unadmitted\": {}, \"truncated\": {}, \"verdict\": \"{}\", \
                 \"peak_in_flight\": {}, \"envelope_violations\": {}, \"flush_ops\": {}, \
                 \"peak_resident_ops\": {}, \"flushes\": {}, \"gc_reclaimed\": {}, \
                 \"fallbacks\": {}, \"max_queue_wait_ticks\": {}}}",
                s.shard,
                s.shard,
                s.arrivals,
                s.ops,
                s.unadmitted,
                s.truncated,
                s.verdict_class,
                s.peak_in_flight,
                s.envelope_violations,
                self.flush_ops,
                s.stats.peak_resident,
                s.stats.flushes,
                s.stats.gc_reclaimed,
                s.stats.fallbacks,
                s.max_queue_wait_ticks,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small, fast parameters: virtual ticks are free, events are not.
    fn small() -> ServeConfig {
        let params = ModelParams::new(3, Time(300), Time(120), Time(90));
        ServeConfig {
            params,
            tick: Time(90),
            total_ops: 240,
            mean_gap: Time(10),
            flush_ops: 16,
            ..ServeConfig::new(2, 2)
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = small();
        cfg.shards = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = small();
        cfg.x = cfg.params.d; // > d - ε
        assert!(cfg.validate().unwrap_err().contains("X"));
        let mut cfg = small();
        cfg.corrupt_shard = Some(9);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zipf_generation_skews_toward_low_shards_and_is_deterministic() {
        let mut cfg = small();
        cfg.shards = 4;
        cfg.zipf_s = 1.2;
        cfg.total_ops = 2_000;
        let a = generate(&cfg);
        let b = generate(&cfg);
        let counts: Vec<usize> = a.iter().map(Vec::len).collect();
        assert_eq!(counts.iter().sum::<usize>(), 2_000);
        assert!(counts[0] > counts[3] * 2, "zipf 1.2 must visibly favor shard 0: {counts:?}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len(), "equal seeds, equal streams");
        }
        // Arrival times are non-decreasing (one global open-loop clock).
        for shard in &a {
            for w in shard.windows(2) {
                assert!(w[0].at <= w[1].at);
            }
        }
    }

    #[test]
    fn healthy_deployment_composes_linearizable_with_zero_violations() {
        // The small deployment, and a deep-backlog one at the default model
        // parameters (2 shards × 2 workers, 20k arrivals at a mean gap of 2
        // ticks).
        let backlog = ServeConfig {
            total_ops: 20_000,
            mean_gap: Time(2),
            flush_ops: 256,
            ..ServeConfig::new(2, 2)
        };
        for cfg in [small(), backlog] {
            let report = serve(&cfg).expect("serve");
            assert_eq!(report.verdicts.class(), "linearizable", "{}", report.render_text());
            assert_eq!(report.envelope_violations, 0, "{}", report.render_text());
            assert_eq!(report.arrivals, cfg.total_ops as u64);
            assert_eq!(report.ops, report.arrivals, "open-loop arrivals must all drain");
            assert!(report.shard_reports.iter().all(|s| s.unadmitted == 0 && !s.truncated));
            assert!(report.peak_in_flight >= 1);
            // Admission epochs keep each checker within its flush window,
            // however deep the ingress backlog grows.
            let bound = 8 * cfg.flush_ops + 512;
            for s in &report.shard_reports {
                let peak = s.stats.peak_resident;
                assert!(peak <= bound, "shard {}: resident peak {peak} above {bound}", s.shard);
            }
            // Service percentiles exist and respect the worst envelope.
            let worst = batched_predicted_latency(cfg.params, cfg.x, cfg.tick, OpClass::Mixed);
            let p999 = report.service_p999.expect("samples exist");
            assert!(p999 <= worst.as_ticks() as u64, "p999 {p999} > worst envelope {worst}");
        }
    }

    #[test]
    fn corrupted_shard_is_attributed_and_the_rest_stay_healthy() {
        let mut cfg = small();
        cfg.corrupt_shard = Some(1);
        let report = serve(&cfg).expect("serve");
        assert_eq!(report.verdicts.class(), "not-linearizable");
        assert_eq!(report.verdicts.violating_shards(), vec!["shard-1"]);
        assert_eq!(report.shard_reports[0].verdict_class, "linearizable");
        assert_eq!(report.shard_reports[1].verdict_class, "not-linearizable");
    }

    #[test]
    fn kept_histories_cover_every_completed_op() {
        let mut cfg = small();
        cfg.keep_histories = true;
        let report = serve(&cfg).expect("serve");
        for s in &report.shard_reports {
            let h = s.history.as_ref().expect("history kept");
            assert_eq!(h.ops.len() as u64, s.ops, "shard {}", s.shard);
        }
    }

    #[test]
    fn json_rows_carry_the_gate_fields() {
        let report = serve(&small()).expect("serve");
        let json = report.render_json();
        for key in [
            "\"case\": \"serve\"",
            "\"ops_per_sec\"",
            "\"peak_in_flight\"",
            "\"envelope_violations\": 0",
            "\"verdict\": \"linearizable\"",
            "\"case\": \"serve/shard0\"",
            "\"peak_resident_ops\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn a_burst_exceeds_the_service_rate_and_queues_in_flight() {
        // Everything arrives in the first few ticks; the service needs many
        // envelope-times to drain, so in-flight peaks near the arrival count
        // while the checker's resident window stays *flat*: tripling the
        // burst must not grow per-shard checker memory, only the backlog.
        let burst = |total: usize| {
            let mut cfg = small();
            cfg.total_ops = total;
            cfg.mean_gap = Time::ZERO;
            serve(&cfg).expect("serve")
        };
        let short = burst(600);
        let long = burst(1800);
        assert_eq!(short.ops, 600, "{}", short.render_text());
        assert!(
            short.peak_in_flight >= 550,
            "burst should queue nearly everything: {}",
            short.peak_in_flight
        );
        assert_eq!(short.verdicts.class(), "linearizable");
        assert_eq!(long.verdicts.class(), "linearizable");
        assert_eq!(short.envelope_violations + long.envelope_violations, 0);
        let peak = |r: &ServeReport| {
            r.shard_reports.iter().map(|s| s.stats.peak_resident).max().unwrap_or(0)
        };
        let (p_short, p_long) = (peak(&short), peak(&long));
        assert!(
            p_long <= p_short + p_short / 2,
            "checker memory must stay flat as the burst triples: {p_short} -> {p_long}"
        );
        // Absolute bound: the admission epoch (= flush window) caps the
        // resident window regardless of how deep the ingress backlog is.
        let mut cfg = small();
        cfg.total_ops = 600;
        let bound = 2 * cfg.flush_ops + 64 * cfg.params.n;
        assert!(p_long <= bound, "peak resident {p_long} exceeds the epoch-derived bound {bound}");
        for s in &short.shard_reports {
            assert!(s.max_queue_wait_ticks > 0, "a burst must show queueing");
        }
    }
}
