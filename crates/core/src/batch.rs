//! Tick-batched mutator announcements for Algorithm 1.
//!
//! Algorithm 1 announces every mutator (and mixed operation) to all peers
//! the instant it is invoked (line 15): one `n − 1`-way broadcast per
//! operation, which at serving scale dominates the communication bill.
//! [`BatchWtlwNode`] changes only that *announce policy*. It runs
//! [`WtlwNode`]'s handlers straight into the engine's effect sink through
//! [`WtlwFx`]; an announcement joins a local buffer, which leaves as one
//! [`BatchMsg`] per peer (one shared allocation) at the next *tick
//! boundary*: a multiple of the batch tick `B` on the local clock, strictly
//! after now. With `B = 0` each announcement leaves at once, alone.
//!
//! The first announcement into an empty buffer arms [`WtlwTimer::Flush`].
//! [`WtlwNode::invoke`] announces before it arms its own timers, so `Flush`
//! is created first, and timers due at one instant fire in creation order.
//!
//! ## Why this stays linearizable
//!
//! An announcement invoked at local time `t` leaves at the next boundary,
//! i.e. at most `B` late, so its worst-case arrival moves from `t + d` to
//! `t + B + d`. That is exactly the lateness profile of the recovery layer's
//! retransmitted messages ([`crate::reliable`]), and the same fix applies:
//! run the inner node with two waits stretched by `B`
//! ([`batched_waits`]) —
//!
//! * `execute = u + ε + B`: a queued mutator waits long enough that no
//!   smaller-timestamped announcement (up to `B` late) can still arrive;
//! * `aop_respond = (d − X) + B`: an accessor waits long enough to have
//!   received every mutator its backdated timestamp must order after.
//!
//! Timestamp backdating and the pure-mutator ack (`X + ε`) are unchanged —
//! neither depends on message arrival. The per-class envelopes become
//! `|AOP| = d − X + B`, `|MOP| = X + ε`, `|OOP| = d + ε + B`: batching
//! trades bounded accessor/mixed latency for an `×(ops per tick)` reduction
//! in messages, and pure mutators pay nothing.

use crate::wtlw::{Waits, WtlwFx, WtlwMsg, WtlwNode, WtlwTimer};
use lintime_adt::spec::{Invocation, OpClass};
use lintime_adt::value::Value;
use lintime_obs::Obs;
use lintime_sim::node::{Effects, Node};
use lintime_sim::time::{ModelParams, Pid, Time};
use std::sync::Arc;

/// The paper's standard waits for tradeoff parameter `x`, with `execute` and
/// `aop_respond` stretched by the batch tick so announcements delayed up to
/// one tick still order correctly (see the module docs).
pub fn batched_waits(params: ModelParams, x: Time, tick: Time) -> Waits {
    assert!(tick >= Time::ZERO, "batch tick must be non-negative");
    let mut w = Waits::standard(params, x);
    w.execute += tick;
    w.aop_respond += tick;
    w
}

/// The batched algorithm's worst-case response time for `class` under
/// parameter `x` and batch tick `tick`: `d − X + B`, `X + ε`, or `d + ε + B`.
pub fn batched_predicted_latency(params: ModelParams, x: Time, tick: Time, class: OpClass) -> Time {
    match class {
        OpClass::PureAccessor => params.d - x + tick,
        OpClass::PureMutator => x + params.epsilon,
        OpClass::Mixed => params.d + params.epsilon + tick,
    }
}

/// Message of the batching layer: every announcement the sender buffered
/// since its previous tick boundary, in invocation order. Every peer's copy
/// shares one allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchMsg {
    /// The batched mutator announcements.
    pub anns: Arc<[WtlwMsg]>,
}

impl BatchMsg {
    /// Estimated serialized size in bytes: a 2-byte count header plus the
    /// announcements — the framing overhead is paid once per batch instead
    /// of once per announcement.
    pub fn wire_bytes(&self) -> usize {
        2 + self.anns.iter().map(WtlwMsg::wire_bytes).sum::<usize>()
    }
}

/// Pre-registered metric handles, built once per node when observability is
/// active (see [`BatchWtlwNode::with_obs`]).
struct BatchMetrics {
    flushes: lintime_obs::Counter,
    announcements: lintime_obs::Counter,
    batch_size: lintime_obs::Histogram,
}

impl BatchMetrics {
    fn register(obs: &Obs) -> BatchMetrics {
        let r = &obs.metrics;
        BatchMetrics {
            flushes: r.counter("batch.flushes"),
            announcements: r.counter("batch.announcements"),
            batch_size: r.histogram("batch.size", &[1, 2, 4, 8, 16, 32, 64]),
        }
    }
}

/// Algorithm 1 with tick-batched announcements.
pub struct BatchWtlwNode {
    tick: Time,
    inner: WtlwNode,
    /// Announcements buffered since the last flush, in invocation order; a
    /// `Flush` timer is armed exactly while it is non-empty.
    buffer: Vec<WtlwMsg>,
    metrics: Option<BatchMetrics>,
}

/// The sink [`BatchWtlwNode`] hands Algorithm 1's handlers: the engine's
/// effects, with announcements buffered for the next tick boundary.
struct Batching<'a> {
    fx: &'a mut Effects<BatchMsg, WtlwTimer>,
    tick: Time,
    buffer: &'a mut Vec<WtlwMsg>,
}

impl WtlwFx for Batching<'_> {
    fn local_time(&self) -> Time {
        self.fx.local_time()
    }

    fn set_timer(&mut self, delay: Time, timer: WtlwTimer) {
        self.fx.set_timer(delay, timer);
    }

    fn cancel_timer(&mut self, timer: WtlwTimer) {
        self.fx.cancel_timer(timer);
    }

    fn respond(&mut self, ret: Value) {
        self.fx.respond(ret);
    }

    fn announce(&mut self, msg: WtlwMsg) {
        let b = self.tick.as_ticks();
        if b == 0 {
            self.fx.broadcast(BatchMsg { anns: Arc::new([msg]) });
            return;
        }
        if self.buffer.is_empty() {
            // Flush at the next tick boundary strictly after now.
            let rem = self.fx.local_time().as_ticks().rem_euclid(b);
            self.fx.set_timer(Time(b - rem), WtlwTimer::Flush);
        }
        self.buffer.push(msg);
    }
}

impl BatchWtlwNode {
    /// A batching node for tradeoff parameter `x` and batch tick `tick`.
    /// The inner node runs with [`batched_waits`]; `tick = 0` disables
    /// batching entirely (announcements leave at once, one per frame, and
    /// the waits are the paper's standard ones).
    pub fn new(
        pid: Pid,
        spec: Arc<dyn lintime_adt::spec::ObjectSpec>,
        params: ModelParams,
        x: Time,
        tick: Time,
    ) -> Self {
        let inner = WtlwNode::with_waits(pid, spec, batched_waits(params, x, tick));
        BatchWtlwNode { tick, inner, buffer: Vec::new(), metrics: None }
    }

    /// Attach an observability bundle: flushes and batched announcement
    /// counts become `batch.*` counters and a `batch.size` histogram.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.metrics = obs.is_active().then(|| BatchMetrics::register(&obs));
        self
    }

    /// Broadcast every buffered announcement as one batch.
    fn flush(&mut self, fx: &mut Effects<BatchMsg, WtlwTimer>) {
        let anns: Arc<[WtlwMsg]> = self.buffer.drain(..).collect();
        if let Some(m) = &self.metrics {
            m.flushes.inc();
            m.announcements.add(anns.len() as u64);
            m.batch_size.observe(anns.len() as u64);
        }
        fx.broadcast(BatchMsg { anns });
    }
}

impl Node for BatchWtlwNode {
    type Msg = BatchMsg;
    type Timer = WtlwTimer;

    fn msg_wire_bytes(msg: &BatchMsg) -> usize {
        msg.wire_bytes()
    }

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<BatchMsg, WtlwTimer>) {
        let mut sink = Batching { fx, tick: self.tick, buffer: &mut self.buffer };
        self.inner.invoke(inv, &mut sink);
    }

    fn on_deliver(&mut self, _from: Pid, msg: BatchMsg, fx: &mut Effects<BatchMsg, WtlwTimer>) {
        let mut sink = Batching { fx, tick: self.tick, buffer: &mut self.buffer };
        for ann in msg.anns.iter() {
            self.inner.deliver(ann.clone(), &mut sink);
        }
    }

    fn on_timer(&mut self, timer: WtlwTimer, fx: &mut Effects<BatchMsg, WtlwTimer>) {
        if timer == WtlwTimer::Flush {
            self.flush(fx);
        } else {
            let mut sink = Batching { fx, tick: self.tick, buffer: &mut self.buffer };
            self.inner.fire(timer, &mut sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_algorithm, Algorithm};
    use lintime_adt::spec::{erase, ObjectSpec};
    use lintime_adt::types::{FifoQueue, Register, RmwRegister};
    use lintime_check::history::History;
    use lintime_check::monitor::check_fast;
    use lintime_check::wing_gong::Verdict;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::SimConfig;
    use lintime_sim::schedule::Schedule;

    fn params() -> ModelParams {
        ModelParams::default_experiment()
    }

    #[test]
    fn batched_waits_stretch_execute_and_aop_only() {
        let p = params();
        let x = Time(1200);
        let b = Time(600);
        let w = batched_waits(p, x, b);
        let base = Waits::standard(p, x);
        assert_eq!(w.execute, base.execute + b);
        assert_eq!(w.aop_respond, base.aop_respond + b);
        assert_eq!(w.aop_backdate, base.aop_backdate);
        assert_eq!(w.mop_respond, base.mop_respond);
        assert_eq!(w.add, base.add);
        assert_eq!(batched_waits(p, x, Time::ZERO), base);
    }

    #[test]
    fn predicted_latencies_follow_the_stretched_envelope() {
        let p = params();
        let (x, b) = (Time(1200), Time(600));
        assert_eq!(batched_predicted_latency(p, x, b, OpClass::PureAccessor), p.d - x + b);
        assert_eq!(batched_predicted_latency(p, x, b, OpClass::PureMutator), x + p.epsilon);
        assert_eq!(batched_predicted_latency(p, x, b, OpClass::Mixed), p.d + p.epsilon + b);
    }

    #[test]
    fn write_read_round_trip_with_batching() {
        let p = params();
        let tick = Time(600);
        let algo = Algorithm::BatchedWtlw { x: Time::ZERO, tick };
        let spec = erase(Register::new(0));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 42)).at(
                Pid(1),
                Time(30_000),
                Invocation::nullary("read"),
            ),
        );
        let run = run_algorithm(algo, &spec, &cfg);
        assert!(run.complete(), "{run}");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        // Pure mutator ack is unchanged; the accessor pays the extra tick.
        assert_eq!(run.ops[0].latency(), Some(p.epsilon));
        assert_eq!(run.ops[1].latency(), Some(p.d + tick));
        assert_eq!(run.ops[1].ret, Some(Value::Int(42)));
    }

    #[test]
    fn batching_reduces_messages_per_op() {
        let p = params();
        let spec = erase(Register::new(0));
        // Five back-to-back writes through one process's ingress queue, each
        // responding after X + ε = 1800: all invocations land inside one
        // 10000-tick batch window.
        let mut sched = Schedule::new();
        for i in 0..5 {
            sched = sched.arrival(Pid(0), Time(i), Invocation::new("write", i));
        }
        let mk_cfg = || SimConfig::new(p, DelaySpec::AllMax).with_schedule(sched.clone());
        let plain = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &mk_cfg());
        let batched = run_algorithm(
            Algorithm::BatchedWtlw { x: Time::ZERO, tick: Time(10_000) },
            &spec,
            &mk_cfg(),
        );
        assert!(plain.complete() && batched.complete());
        // Plain: 5 broadcasts × 3 peers = 15 messages. Batched: all five
        // announcements flush in one batch — 3 messages.
        assert_eq!(plain.msgs_sent, 15);
        assert_eq!(batched.msgs_sent, 3);
        // Both orders agree: a late read sees the last write either way.
        let read = |run: &lintime_sim::run::Run| run.ops.last().unwrap().ret.clone();
        let check = SimConfig::new(p, DelaySpec::AllMax).with_schedule(sched.clone().at(
            Pid(1),
            Time(60_000),
            Invocation::nullary("read"),
        ));
        let plain = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &check);
        let batched = run_algorithm(
            Algorithm::BatchedWtlw { x: Time::ZERO, tick: Time(10_000) },
            &spec,
            &check,
        );
        assert_eq!(read(&plain), Some(Value::Int(4)));
        assert_eq!(read(&batched), Some(Value::Int(4)));
    }

    #[test]
    fn batched_runs_stay_linearizable() {
        let p = params();
        for (spec, sched) in [
            (
                erase(FifoQueue::new()) as Arc<dyn ObjectSpec>,
                Schedule::new()
                    .at(Pid(0), Time(0), Invocation::new("enqueue", 1))
                    .at(Pid(1), Time(5), Invocation::new("enqueue", 2))
                    .at(Pid(2), Time(25_000), Invocation::nullary("dequeue"))
                    .at(Pid(3), Time(50_000), Invocation::nullary("dequeue")),
            ),
            (
                erase(RmwRegister::new(0)) as Arc<dyn ObjectSpec>,
                Schedule::new()
                    .at(Pid(0), Time(0), Invocation::new("rmw", 1))
                    .at(Pid(1), Time(5), Invocation::new("rmw", 1))
                    .at(Pid(2), Time(25_000), Invocation::nullary("read")),
            ),
        ] {
            for delay in
                [DelaySpec::AllMax, DelaySpec::AllMin, DelaySpec::UniformRandom { seed: 9 }]
            {
                let cfg = SimConfig::new(p, delay).with_schedule(sched.clone());
                let run = run_algorithm(
                    Algorithm::BatchedWtlw { x: Time(1200), tick: Time(600) },
                    &spec,
                    &cfg,
                );
                assert!(run.complete(), "{run}");
                let h = History::from_run(&run).expect("complete run");
                assert!(
                    matches!(check_fast(&spec, &h), Verdict::Linearizable(_)),
                    "batched run must stay linearizable: {run}"
                );
            }
        }
    }

    #[test]
    fn zero_tick_is_passthrough() {
        let p = params();
        let spec = erase(Register::new(0));
        let sched = Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 7)).at(
            Pid(1),
            Time(20_000),
            Invocation::nullary("read"),
        );
        let mk_cfg = || SimConfig::new(p, DelaySpec::AllMax).with_schedule(sched.clone());
        let plain = run_algorithm(Algorithm::Wtlw { x: Time(600) }, &spec, &mk_cfg());
        let zero = run_algorithm(
            Algorithm::BatchedWtlw { x: Time(600), tick: Time::ZERO },
            &spec,
            &mk_cfg(),
        );
        assert_eq!(plain.ops[0].latency(), zero.ops[0].latency());
        assert_eq!(plain.ops[1].latency(), zero.ops[1].latency());
        assert_eq!(plain.ops[1].ret, zero.ops[1].ret);
        // Unbatched announcements, but wrapped per-message: same count.
        assert_eq!(plain.msgs_sent, zero.msgs_sent);
    }

    #[test]
    fn observed_batching_counts_flushes_and_sizes() {
        let p = params();
        let spec = erase(Register::new(0));
        let (obs, _ring) = Obs::ring(64);
        let mut sched = Schedule::new();
        for i in 0..3 {
            sched = sched.arrival(Pid(0), Time(i), Invocation::new("write", i));
        }
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(sched).with_obs(obs.clone());
        let run = run_algorithm(
            Algorithm::BatchedWtlw { x: Time::ZERO, tick: Time(10_000) },
            &spec,
            &cfg,
        );
        assert!(run.complete(), "{run}");
        assert_eq!(obs.metrics.counter("batch.flushes").get(), 1);
        assert_eq!(obs.metrics.counter("batch.announcements").get(), 3);
        let sizes = obs.metrics.histogram("batch.size", &[1, 2, 4, 8, 16, 32, 64]).snapshot();
        assert_eq!(sizes.count(), 1);
        assert_eq!(sizes.mean(), Some(3.0));
    }
}
