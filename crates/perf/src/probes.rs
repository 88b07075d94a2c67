//! Layer probes shared by several workloads' traced runs: each times one
//! public call of one layer on inputs the workload recorded.

use crate::gen;
use crate::trace::Tracer;
use lintime_adt::spec::{Invocation, ObjectSpec};
use lintime_adt::value::Value;
use lintime_check::stream::{StreamChecker, StreamConfig, StreamStats, StreamVerdict};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::{simulate, OpEvent, SimConfig};
use lintime_sim::node::{Effects, Node};
use lintime_sim::time::{ModelParams, Pid, Time};
use lintime_sim::workload::Mix;
use std::sync::Arc;
use std::time::Duration;

/// Flush window of every stream checker the benchmark builds (the serve
/// default, and the admission epoch of the recorded traffic).
pub const FLUSH_OPS: usize = 1024;

/// The model's delay bound `d` in ticks at the default experiment scale;
/// rates are quoted in operations per `d`.
pub const D_TICKS: i64 = 6000;

/// Delay uncertainty `u` in ticks at the default experiment scale.
pub const U_TICKS: i64 = 2400;

/// Model parameters for an `n`-process cluster at the default scale, with
/// the optimal clock skew `ε = (1 − 1/n)·u`.
pub fn params(n: usize) -> ModelParams {
    ModelParams::with_optimal_epsilon(n, Time(D_TICKS), Time(U_TICKS))
}

/// A node that does nothing an algorithm would: an invocation broadcasts one
/// word and arms one timer, the timer responds. What is left when it runs is
/// the engine's own per-event cost — heap push/pop, delay draw, effect
/// plumbing — which is the baseline the handler costs are measured against.
struct EchoNode {
    wait: Time,
}

impl Node for EchoNode {
    type Msg = u64;
    type Timer = ();

    fn on_invoke(&mut self, _inv: Invocation, fx: &mut Effects<u64, ()>) {
        fx.broadcast(0);
        fx.set_timer(self.wait, ());
    }

    fn on_deliver(&mut self, _from: Pid, _msg: u64, _fx: &mut Effects<u64, ()>) {}

    fn on_timer(&mut self, _timer: (), fx: &mut Effects<u64, ()>) {
        fx.respond(Value::Unit);
    }
}

/// Engine cost per event with the echo node: closed loop on `n` processes,
/// sized to about `events` events. Returns nanoseconds per event.
pub fn null_node_ns_per_event(
    spec: &Arc<dyn ObjectSpec>,
    n: usize,
    events: u64,
    seed: u64,
    tracer: &mut Tracer,
) -> f64 {
    let params = params(n);
    // One op is an invocation, n − 1 deliveries and a timer.
    let ops_per_process = (events as usize / (n * (n + 1))).max(1);
    let schedule = gen::closed_loop(spec.as_ref(), n, Mix::BALANCED, ops_per_process, seed);
    let cfg = SimConfig::new(params, DelaySpec::UniformRandom { seed }).with_schedule(schedule);
    let (run, wall) =
        tracer.time("sim.null_node", |_| simulate(&cfg, |_| EchoNode { wait: params.d }));
    wall.as_nanos() as f64 / run.events.max(1) as f64
}

/// `ObjState::apply` over `invocations` in order on a fresh object: the ADT
/// layer's own cost per operation, in nanoseconds.
pub fn apply_ns_per_op<'a>(
    spec: &Arc<dyn ObjectSpec>,
    invocations: impl Iterator<Item = &'a Invocation>,
    tracer: &mut Tracer,
) -> f64 {
    let invocations: Vec<&Invocation> = invocations.collect();
    let ((), wall) = tracer.time("adt.apply", |_| {
        let mut object = spec.new_object();
        for inv in &invocations {
            std::hint::black_box(object.apply(inv.op, &inv.arg));
        }
    });
    wall.as_nanos() as f64 / invocations.len().max(1) as f64
}

/// One recorded stream pushed through a fresh [`StreamChecker`].
pub struct Fed {
    /// Time in `feed` calls.
    pub feed: Duration,
    /// Time in `finish`.
    pub finish: Duration,
    /// Final verdict.
    pub verdict: StreamVerdict,
    /// Final statistics.
    pub stats: StreamStats,
}

/// Feed `events` one by one to a fresh checker with the benchmark's flush
/// window, then finish it.
pub fn feed_stream(spec: &Arc<dyn ObjectSpec>, events: &[OpEvent], tracer: &mut Tracer) -> Fed {
    let mut checker =
        StreamChecker::with_config(spec, StreamConfig::default().with_flush_ops(FLUSH_OPS));
    let ((), feed) = tracer.time("check.stream.feed", |_| {
        for ev in events {
            checker.feed(ev);
        }
    });
    let ((verdict, stats), finish) = tracer.time("check.stream.finish", |_| checker.finish());
    Fed { feed, finish, verdict, stats }
}

/// Completed operations in an event stream (its response events).
pub fn ops_in(events: &[OpEvent]) -> u64 {
    events.iter().filter(|e| matches!(e, OpEvent::Respond { .. })).count() as u64
}

/// The invocations of an event stream, in stream order.
pub fn invocations_of(events: &[OpEvent]) -> Vec<Invocation> {
    events
        .iter()
        .filter_map(|e| match e {
            OpEvent::Invoke { op, arg, .. } => Some(Invocation { op, arg: arg.clone() }),
            OpEvent::Respond { .. } => None,
        })
        .collect()
}
