//! Seeded input generators. Everything a workload feeds to the program under
//! test is built here from `--seed`; the program itself only ever receives
//! these inputs (or the seed, through `ServeConfig::seed`).

use lintime_adt::spec::{Invocation, ObjectSpec, OpClass, OpMeta, SpecKind};
use lintime_adt::value::Value;
use lintime_bench::serve::ServeConfig;
use lintime_sim::rng::{mix, SplitMix64};
use lintime_sim::schedule::{Schedule, Script, TimedInvocation};
use lintime_sim::time::{Pid, Time};
use lintime_sim::workload::Mix;

/// Producers and consumers in equal parts, no accessor. The container
/// monitors defer any history holding a `peek`/`min` to the Wing–Gong search;
/// histories that must be decided whole (tens of thousands of overlapping
/// operations) therefore issue none.
pub const PRODUCE_CONSUME: Mix = Mix { accessors: 0, mutators: 1, mixed: 1 };

/// One open-loop arrival routed to a shard.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Arrival time on the service-wide virtual clock.
    pub at: Time,
    /// Process of the shard's cluster that receives it.
    pub pid: Pid,
    /// The invocation.
    pub inv: Invocation,
    /// Its declared class (selects the latency envelope).
    pub class: OpClass,
}

fn pick_class(mix: Mix, roll: u32) -> OpClass {
    if roll < mix.accessors {
        OpClass::PureAccessor
    } else if roll < mix.accessors + mix.mutators {
        OpClass::PureMutator
    } else {
        OpClass::Mixed
    }
}

/// Draw one operation of `class` (any operation if the type has none of that
/// class) and one of its suggested arguments.
fn draw<'a>(
    rng: &mut SplitMix64,
    spec: &dyn ObjectSpec,
    metas: &'a [OpMeta],
    class: OpClass,
) -> (&'a OpMeta, Invocation) {
    let candidates: Vec<&OpMeta> = metas.iter().filter(|m| m.class == class).collect();
    let meta = if candidates.is_empty() {
        &metas[rng.gen_range(0..metas.len())]
    } else {
        candidates[rng.gen_range(0..candidates.len())]
    };
    (meta, with_arg(rng, spec, meta))
}

fn with_arg(rng: &mut SplitMix64, spec: &dyn ObjectSpec, meta: &OpMeta) -> Invocation {
    let args = spec.suggested_args(meta.name);
    Invocation::new(meta.name, args[rng.gen_range(0..args.len())].clone())
}

/// Replace the written value of a producing invocation by `fresh`, keeping a
/// key if the argument is a `(key, value)` pair. The suggested argument sets
/// are tiny (8 values), and a whole-history check of thousands of operations
/// writing the same 8 values is ambiguous enough to exhaust the Wing–Gong
/// budget; distinct values keep the monitors decisive. Window-sized checks
/// (the streaming path) do not need this and keep the suggested values.
fn distinct(inv: Invocation, meta: &OpMeta, keyed: bool, fresh: i64) -> Invocation {
    if meta.class != OpClass::PureMutator {
        return inv;
    }
    match inv.arg {
        // On a keyed type a bare integer is a key (`del(k)`), not a value.
        Value::Int(_) if !keyed => Invocation::new(inv.op, fresh),
        Value::Pair(key, _) => Invocation::new(inv.op, Value::Pair(key, Box::new(fresh.into()))),
        _ => inv,
    }
}

/// Shape of an open-loop arrival stream (the generator half of a
/// `ServeConfig`, for any ADT).
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Shards the stream is split across (Zipf-routed).
    pub shards: usize,
    /// Processes per shard cluster.
    pub n: usize,
    /// Arrivals to generate.
    pub total_ops: usize,
    /// Mean gap between arrivals, in ticks.
    pub mean_gap: Time,
    /// Operation-class mix.
    pub mix: Mix,
    /// Zipf exponent of shard popularity.
    pub zipf_s: f64,
    /// Generator seed.
    pub seed: u64,
}

impl OpenLoop {
    /// The generator half of a serve deployment.
    pub fn of(cfg: &ServeConfig) -> OpenLoop {
        OpenLoop {
            shards: cfg.shards,
            n: cfg.params.n,
            total_ops: cfg.total_ops,
            mean_gap: cfg.mean_gap,
            mix: cfg.mix,
            zipf_s: cfg.zipf_s,
            seed: cfg.seed,
        }
    }
}

/// An open-loop arrival stream over `spec`, split by shard.
///
/// `serve()` generates its load privately from `ServeConfig::seed`; this is
/// the same sequence of draws (global clock with gaps uniform in
/// `[0, 2·mean_gap]`, Zipf shard routing, mix-weighted class, and every
/// producer followed by the same process's matching consumer), so a pipeline
/// assembled from public pieces sees exactly the traffic `serve()` sees. The
/// serve workloads assert that the two agree on per-shard arrival counts and
/// on the total engine event count.
pub fn open_loop(spec: &dyn ObjectSpec, cfg: OpenLoop) -> Vec<Vec<Arrival>> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let weights: Vec<f64> =
        (0..cfg.shards).map(|k| 1.0 / ((k + 1) as f64).powf(cfg.zipf_s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(cfg.shards);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let metas = spec.ops();
    let mix_total = cfg.mix.accessors + cfg.mix.mutators + cfg.mix.mixed;
    let consumer = metas.iter().find(|m| m.class == OpClass::Mixed);
    let producing = metas.iter().any(|m| m.class == OpClass::PureMutator && m.has_arg);
    let pairing = consumer.filter(|_| producing);
    let mut owes_consumer = vec![vec![false; cfg.n]; cfg.shards];

    let mut per_shard: Vec<Vec<Arrival>> = vec![Vec::new(); cfg.shards];
    let mut t = Time::ZERO;
    for _ in 0..cfg.total_ops {
        t += Time(rng.gen_range(0..=(2 * cfg.mean_gap.as_ticks()).max(0)));
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let shard = cdf.partition_point(|&c| c <= u).min(cfg.shards - 1);
        let pid = Pid(rng.gen_range(0..cfg.n));
        let (meta, inv) = if let Some(consumer) = pairing.filter(|_| owes_consumer[shard][pid.0]) {
            owes_consumer[shard][pid.0] = false;
            (consumer, with_arg(&mut rng, spec, consumer))
        } else {
            let class = pick_class(cfg.mix, rng.gen_range(0..mix_total));
            draw(&mut rng, spec, metas, class)
        };
        if pairing.is_some() && meta.class == OpClass::PureMutator {
            owes_consumer[shard][pid.0] = true;
        }
        per_shard[shard].push(Arrival { at: t, pid, inv, class: meta.class });
    }
    per_shard
}

/// The engine schedule of one shard's arrivals (`Schedule::arrival` each).
pub fn schedule_of(arrivals: &[Arrival]) -> Schedule {
    let mut schedule = Schedule::new();
    for a in arrivals {
        schedule = schedule.arrival(a.pid, a.at, a.inv.clone());
    }
    schedule
}

/// A closed-loop schedule: every one of `n` processes runs a script of
/// `ops_per_process` mix-drawn invocations, each issued the instant the
/// previous one responds (gap 0), all starting at tick 0.
pub fn closed_loop(
    spec: &dyn ObjectSpec,
    n: usize,
    mix_weights: Mix,
    ops_per_process: usize,
    seed: u64,
) -> Schedule {
    let metas = spec.ops();
    let keyed = matches!(spec.kind(), SpecKind::KvStore | SpecKind::GrowSet);
    let total = mix_weights.accessors + mix_weights.mutators + mix_weights.mixed;
    let mut schedule = Schedule::new();
    for pid in 0..n {
        let mut rng = SplitMix64::seed_from_u64(mix(seed ^ (pid as u64 + 1)));
        let invocations = (0..ops_per_process)
            .map(|k| {
                let class = pick_class(mix_weights, rng.gen_range(0..total));
                let (meta, inv) = draw(&mut rng, spec, metas, class);
                distinct(inv, meta, keyed, (k * n + pid) as i64 + 1)
            })
            .collect();
        schedule = schedule.script(Script {
            pid: Pid(pid),
            start: Time::ZERO,
            gap: Time::ZERO,
            invocations,
        });
    }
    schedule
}

/// A paced timed schedule for the live runtime: each of `n` processes
/// invokes once per `period`, process `i` offset by `i·period/n`, for
/// `per_process` invocations each, drawn from a balanced mix. Returns the
/// invocations with their declared classes, in due-time order.
pub fn paced(
    spec: &dyn ObjectSpec,
    n: usize,
    period: Time,
    per_process: usize,
    seed: u64,
) -> Vec<(TimedInvocation, OpClass)> {
    let metas = spec.ops();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let weights = Mix::BALANCED;
    let total = weights.accessors + weights.mutators + weights.mixed;
    let stagger = period.as_ticks() / n as i64;
    let mut out = Vec::with_capacity(n * per_process);
    for k in 0..per_process {
        for pid in 0..n {
            let class = pick_class(weights, rng.gen_range(0..total));
            let (meta, inv) = draw(&mut rng, spec, metas, class);
            let at = Time(k as i64 * period.as_ticks() + pid as i64 * stagger);
            out.push((TimedInvocation { pid: Pid(pid), at, inv }, meta.class));
        }
    }
    out
}
