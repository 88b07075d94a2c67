//! `live-paced`: the real-threads runtime.
//!
//! `run_live_checked` drives `WtlwNode{X=0}` on 8 node threads plus a router
//! thread, `d = 6000` / `u = 2400` ticks at **1 µs per tick** (`d` = 6 ms),
//! `DelaySpec::UniformRandom`, a fifo-queue, with the streaming check on. A
//! round is a series of short **bursts**: one cluster each, in which process
//! `i` invokes one balanced-mix operation at `i × 10 ms` — 8 operations in
//! 70 ms, about 55 per second once the cluster's start-up lead (20 ms) and
//! settle time (50 ms) are counted. The schedule is an open loop (an invocation is due at
//! its time whether or not the runtime keeps up) and the lateness of the
//! harness itself is reported (`runtime.generator_late_p99_us`).
//!
//! In the simulator an operation takes exactly its class formula (`d − X`,
//! `X + ε`, `d + ε`); here it takes that plus whatever the runtime adds —
//! timer wake-ups, channel hops, the router — so **overhead = measured
//! latency − formula** is the number. Node threads sleep more than 95% of the
//! time, so this is the one workload whose numbers include the OS scheduler.
//!
//! Why one operation per process per cluster, and not a long paced schedule:
//! the sandbox stalls. Threads of an otherwise idle process are held off the
//! CPU for 10–15 ms several times a minute, and now and then everything
//! freezes for 50–100 ms. The runtime *skips* an invocation that finds its
//! process busy, so on a long schedule (3 processes at 12 ms, then 8 at
//! 80 ms, were both tried) a freeze longer than the gap between two
//! invocations of one process loses operations, and one run in ten failed.
//! With a single invocation per process nothing can be refused: a stall only
//! shows up where it belongs, in the overhead tail. Operations 10 ms apart
//! also rarely overlap (the slowest class takes 8.1 ms), which keeps a
//! stalled node from serving a stale read — Algorithm 1 is only linearizable
//! while messages arrive within `d`.

use super::{Outcome, Round, RunOpts, Workload};
use crate::gen;
use crate::probes::{self, FLUSH_OPS};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use lintime_adt::spec::{erase, ObjectSpec, OpClass};
use lintime_adt::types::FifoQueue;
use lintime_check::stream::{replay_run, StreamConfig};
use lintime_core::wtlw::{predicted_latency, WtlwNode};
use lintime_obs::Obs;
use lintime_runtime::harness::{run_live_checked, LiveConfig};
use lintime_sim::delay::DelaySpec;
use lintime_sim::run::Run;
use lintime_sim::schedule::TimedInvocation;
use lintime_sim::time::Time;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The live-runtime workload.
pub struct LivePaced;

/// The bursts of one round and the cluster configuration they run on.
pub struct Paced {
    spec: Arc<dyn ObjectSpec>,
    cfg: LiveConfig,
    bursts: Vec<Vec<(TimedInvocation, OpClass)>>,
}

/// Processes of the live cluster.
const N: usize = 8;

/// Ticks between the invocations of consecutive processes (10 ms).
const STAGGER: Time = Time(10_000);

/// Ticks the cluster keeps running after its last invocation (50 ms).
const SETTLE: Time = Time(50_000);

/// Bursts in one round at full scale: about 2 s.
const BURSTS: usize = 14;

fn paced(bursts: usize, seed: u64) -> Paced {
    let spec = erase(FifoQueue::new());
    let mut cfg = LiveConfig::new(
        probes::params(N),
        Duration::from_micros(1),
        DelaySpec::UniformRandom { seed },
    )
    .with_stream_check(StreamConfig::default().with_flush_ops(FLUSH_OPS));
    // The cluster stops this long after its last invocation. The default
    // (3d = 18 ms) leaves the last operation 10 ms of slack, which a stall
    // eats; an unanswered operation would count as failed.
    cfg.settle = SETTLE;
    // One long paced schedule, cut into per-cluster pieces of one invocation
    // per process, each rebased to start at tick 0.
    let period = Time(STAGGER.as_ticks() * N as i64);
    let bursts = gen::paced(spec.as_ref(), N, period, bursts, seed)
        .chunks(N)
        .map(|burst| {
            let base = burst[0].0.at;
            burst
                .iter()
                .map(|(inv, class)| (TimedInvocation { at: inv.at - base, ..inv.clone() }, *class))
                .collect()
        })
        .collect();
    Paced { spec, cfg, bursts }
}

/// Run one burst on a fresh cluster. Returns the run, whether the streaming
/// check certified it, and the wall time of the call.
fn run_burst(
    inputs: &Paced,
    burst: &[(TimedInvocation, OpClass)],
    tracer: &mut Tracer,
) -> (Run, bool, Duration) {
    let timed: Vec<TimedInvocation> = burst.iter().map(|(t, _)| t.clone()).collect();
    let params = inputs.cfg.params;
    let ((run, checked), wall) = tracer.time("runtime.run_live_checked", |_| {
        run_live_checked(&inputs.cfg, &timed, &inputs.spec, |pid| {
            WtlwNode::new(pid, Arc::clone(&inputs.spec), params, Time::ZERO)
        })
    });
    let linearizable = checked.is_some_and(|(verdict, _)| verdict.is_ok());
    (run, linearizable, wall)
}

impl Workload for LivePaced {
    type Inputs = Paced;

    fn setup(&self, opts: &RunOpts) -> Paced {
        let bursts = opts.scaled(BURSTS, 1);
        let warm = paced((bursts / 10).max(1), opts.seed);
        for burst in &warm.bursts {
            std::hint::black_box(run_burst(&warm, burst, &mut Tracer::new(false)));
        }
        paced(bursts, opts.seed)
    }

    fn round(&self, inputs: &Paced, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let params = inputs.cfg.params;
        let mut overhead: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let (mut late, mut missed, mut delay_violations, mut router_msgs) = (Vec::new(), 0, 0, 0);
        for burst in &inputs.bursts {
            let (run, linearizable, wall) = run_burst(inputs, burst, tracer);
            let scheduled = burst.len() as u64;
            round.wall += wall;
            round.attempted += scheduled;
            missed += scheduled - (run.ops.len() as u64).min(scheduled);
            delay_violations += run.delay_violations;
            router_msgs += run.msgs_sent;
            if run.truncated || !linearizable {
                round.failed += scheduled;
                round.notes.push(format!(
                    "live burst not certified: truncated {}, streaming verdict ok {linearizable}, \
                     {:?}",
                    run.truncated, run.errors
                ));
                continue;
            }
            for op in &run.ops {
                // One invocation per process: the process identifies it.
                let (due, class) = &burst[op.pid.0];
                late.push((op.t_invoke - due.at).as_ticks() as f64);
                let Some(latency) = op.latency() else { continue };
                round.ops += 1;
                // One tick is one microsecond.
                let over =
                    (latency - predicted_latency(params, Time::ZERO, *class)).as_ticks() as f64;
                let by_class = match class {
                    OpClass::PureMutator => "overhead.mutator",
                    OpClass::PureAccessor => "overhead.accessor",
                    OpClass::Mixed => "overhead.mixed",
                };
                overhead.entry("overhead").or_default().push(over);
                overhead.entry(by_class).or_default().push(over);
            }
            let answered = run.completed().count() as u64;
            if answered < scheduled {
                round.failed += scheduled - answered;
                round.notes.push(format!(
                    "{} invocations unanswered: {:?}",
                    scheduled - answered,
                    run.errors
                ));
            }
        }
        round.samples = overhead.into_iter().collect();
        round.samples.push(("late", late));
        round.samples.push(("missed", vec![missed as f64]));
        round.samples.push(("delay_violations", vec![delay_violations as f64]));
        round.samples.push(("router_msgs", vec![router_msgs as f64]));
        round
    }

    fn pooled(&self, samples: &BTreeMap<&'static str, Vec<f64>>, out: &mut Outcome) {
        let of = |name: &str| sorted(samples.get(name).cloned().unwrap_or_default());
        let all = of("overhead");
        out.set("live_overhead_p50_us", median(&all));
        out.set("live_overhead_p99_us", percentile(&all, 0.99));
        out.set("runtime.overhead_p50_us.mutator", median(&of("overhead.mutator")));
        out.set("runtime.overhead_p50_us.accessor", median(&of("overhead.accessor")));
        out.set("runtime.overhead_p50_us.mixed", median(&of("overhead.mixed")));
        out.set("runtime.generator_late_p99_us", percentile(&of("late"), 0.99));
        out.set("runtime.missed_invocations", of("missed").iter().sum());
        out.set("runtime.delay_violations", of("delay_violations").iter().sum());
        out.set("runtime.router_msgs", median(&of("router_msgs")));
        out.notes.push(format!("live overhead percentiles over {} operations", all.len()));
    }

    /// The layer probe is one more burst, so a traced run can spend nearly
    /// all of its budget on rounds: the overhead percentiles need samples.
    fn traced_rounds_share(&self) -> f64 {
        0.9
    }

    fn layers(&self, inputs: &Paced, _budget: Duration, tracer: &mut Tracer, out: &mut Outcome) {
        // The streaming check `run_live_checked` runs after the cluster
        // stops, timed alone on one more recorded run.
        let (run, _, _) = run_burst(inputs, &inputs.bursts[0], tracer);
        let stream_cfg = StreamConfig::default().with_flush_ops(FLUSH_OPS);
        let ((verdict, _), took) = tracer
            .time("check.replay_run", |_| replay_run(&inputs.spec, &run, stream_cfg, &Obs::off()));
        out.attempted += run.ops.len() as u64;
        if !verdict.is_ok() {
            out.failed += run.ops.len() as u64;
            out.notes.push(format!("replayed live run: verdict {}", verdict.class()));
        }
        out.set(
            "runtime.replay_check_ns_per_op",
            took.as_nanos() as f64 / run.ops.len().max(1) as f64,
        );
    }
}
