//! Algorithm 1 of the paper (Wang–Talmage–Lee–Welch): the first
//! linearizable implementation of *arbitrary* data types with every
//! operation faster than the folklore `2d`.
//!
//! Every process keeps a local copy of the object and a priority queue
//! `To_Execute` of mutators waiting for their coordinated execution time.
//! Operations carry timestamps `(local invocation time, pid)`; mutators are
//! executed at every process in timestamp order, which (with the timer
//! discipline below) yields a common linearization.
//!
//! | class | response time | mechanism |
//! |---|---|---|
//! | pure accessor (`AOP`) | `d − X` | timestamp `(t − X, i)`; wait `d − X`, drain smaller-timestamped mutators, execute locally |
//! | pure mutator (`MOP`) | `X + ε` | broadcast; ack after `X + ε`, independent of execution |
//! | mixed (`OOP`) | `d + ε` | broadcast; executes (and responds) when its `u + ε` post-add timer fires |
//!
//! Mutator pipeline at every process: the invoker simulates the minimum
//! message delay with a `d − u` *add* timer (other processes add on message
//! receipt), then a `u + ε` *execute* timer guarantees no smaller timestamp
//! can still arrive (maximum delay spread `u` plus clock skew `ε`). Every
//! execute timer has the same duration, so they fire in the order their
//! entries were added: an entry queued below a larger timestamp that is
//! still waiting is drained by that entry's earlier timer, and arms none of
//! its own.
//!
//! The timer durations are gathered in [`Waits`]; [`Waits::standard`] is the
//! paper's algorithm with tradeoff parameter `X ∈ [0, d − ε]`, and the
//! lower-bound experiments build deliberately-too-fast variants
//! ([`Waits::scaled`]) to act as victims for the Theorem 2–5 adversaries.
//!
//! A replica keeps O(1) state about what it has executed: a count, its
//! execution frontier (the largest timestamp that has taken effect), and a
//! rolling digest of the executed mutator sequence. Lemma 5 — every replica
//! executes the same mutator sequence — reads "equal
//! `(executed(), exec_digest())` at quiescence". The full per-execution
//! record that Construction 1 needs is kept only by an [`ExecRecorder`]
//! other than `()`, which tests instantiate
//! ([`crate::construction::ExecLog`]).

use crate::timestamp::Timestamp;
use lintime_adt::fxhash;
use lintime_adt::spec::{Invocation, ObjState, ObjectSpec, OpClass};
use lintime_adt::value::Value;
use lintime_sim::node::{Effects, Node};
use lintime_sim::time::{ModelParams, Pid, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Timer durations used by [`WtlwNode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Waits {
    /// Pure accessors respond this long after invocation (paper: `d − X`).
    pub aop_respond: Time,
    /// Pure accessor timestamps are backdated by this much (paper: `X`).
    pub aop_backdate: Time,
    /// Pure mutators acknowledge this long after invocation (paper: `X + ε`).
    pub mop_respond: Time,
    /// The invoker adds its own mutator to `To_Execute` after this long
    /// (paper: `d − u`, the minimum message delay).
    pub add: Time,
    /// A mutator executes this long after being added (paper: `u + ε`).
    pub execute: Time,
}

impl Waits {
    /// The paper's Algorithm 1 with tradeoff parameter `x ∈ [0, d − ε]`.
    pub fn standard(params: ModelParams, x: Time) -> Waits {
        assert!(
            x >= Time::ZERO && x <= params.d - params.epsilon,
            "X must lie in [0, d - epsilon]"
        );
        Waits {
            aop_respond: params.d - x,
            aop_backdate: x,
            mop_respond: x + params.epsilon,
            add: params.min_delay(),
            execute: params.u + params.epsilon,
        }
    }

    /// A uniformly scaled (sped-up) variant: every wait multiplied by
    /// `num/den`. Used to build lower-bound victims that respond too fast.
    pub fn scaled(self, num: i64, den: i64) -> Waits {
        let s = |t: Time| Time(t.as_ticks() * num / den);
        Waits {
            aop_respond: s(self.aop_respond),
            aop_backdate: self.aop_backdate,
            mop_respond: s(self.mop_respond),
            add: s(self.add),
            execute: s(self.execute),
        }
    }

    /// Worst-case response time of an operation class under these waits.
    pub fn predicted_latency(self, class: OpClass) -> Time {
        match class {
            OpClass::PureAccessor => self.aop_respond,
            OpClass::PureMutator => self.mop_respond,
            OpClass::Mixed => self.add + self.execute,
        }
    }
}

/// The paper's predicted worst-case latency for `class` under Algorithm 1
/// with parameter `x`: `d − X`, `X + ε`, or `d + ε` (Lemma 4).
pub fn predicted_latency(params: ModelParams, x: Time, class: OpClass) -> Time {
    match class {
        OpClass::PureAccessor => params.d - x,
        OpClass::PureMutator => x + params.epsilon,
        OpClass::Mixed => params.d + params.epsilon,
    }
}

/// Message: announcement of a mutator invocation (line 15 of Algorithm 1).
#[derive(Clone, Debug, PartialEq)]
pub struct WtlwMsg {
    /// The invoked operation.
    pub inv: Invocation,
    /// Its timestamp.
    pub ts: Timestamp,
}

impl WtlwMsg {
    /// Estimated serialized size in bytes: a 12-byte timestamp (8-byte time
    /// plus 4-byte pid) plus the invocation.
    pub fn wire_bytes(&self) -> usize {
        12 + self.inv.wire_bytes()
    }
}

/// Timer tags of Algorithm 1.
#[derive(Clone, Debug, PartialEq)]
pub enum WtlwTimer {
    /// Respond to a pure accessor (lines 3–9).
    RespondAop {
        /// The accessor invocation.
        inv: Invocation,
        /// Its (backdated) timestamp.
        ts: Timestamp,
    },
    /// Acknowledge a pure mutator (lines 16–17).
    RespondMop,
    /// Add the invoker's own mutator to `To_Execute` (lines 14, 18–20).
    Add {
        /// The mutator invocation.
        inv: Invocation,
        /// Its timestamp.
        ts: Timestamp,
    },
    /// Execute mutators with timestamps ≤ `ts` (lines 21–29).
    Execute {
        /// Timestamp of the entry this timer belongs to.
        ts: Timestamp,
    },
    /// Send the buffered announcements. Only the batching policy
    /// ([`crate::batch`]) arms it; Algorithm 1 itself ignores it.
    Flush,
}

/// The effect sink Algorithm 1's handlers write through. How an announcement
/// leaves (line 15) is the one policy a layer changes: [`Effects`] broadcasts
/// it at once, [`crate::batch`] buffers it until a tick boundary, and
/// [`crate::reliable`] tracks it for retransmission. Each layer's sink
/// borrows the engine's `Effects`, so no effect is buffered twice.
pub trait WtlwFx {
    /// The local clock reading for this transition.
    fn local_time(&self) -> Time;
    /// Set `timer` to fire `delay` after now (local clock).
    fn set_timer(&mut self, delay: Time, timer: WtlwTimer);
    /// Cancel every pending timer equal to `timer`.
    fn cancel_timer(&mut self, timer: WtlwTimer);
    /// Respond to the pending operation with `ret`.
    fn respond(&mut self, ret: Value);
    /// Announce a mutator to every other process (line 15).
    fn announce(&mut self, msg: WtlwMsg);
}

impl WtlwFx for Effects<WtlwMsg, WtlwTimer> {
    fn local_time(&self) -> Time {
        self.local_time()
    }

    fn set_timer(&mut self, delay: Time, timer: WtlwTimer) {
        self.set_timer(delay, timer);
    }

    fn cancel_timer(&mut self, timer: WtlwTimer) {
        self.cancel_timer(timer);
    }

    fn respond(&mut self, ret: Value) {
        self.respond(ret);
    }

    fn announce(&mut self, msg: WtlwMsg) {
        self.broadcast(msg);
    }
}

/// Observer of every execution on a [`WtlwNode`]'s local copy.
///
/// Production nodes use `()`, which records nothing and compiles away.
/// [`crate::construction::ExecLog`] keeps the full logs that Construction 1
/// is built from.
pub trait ExecRecorder: Send {
    /// A mutator with timestamp `ts` executed and returned `ret`.
    fn mutator(&mut self, _ts: Timestamp, _inv: &Invocation, _ret: &Value) {}
    /// A locally-invoked pure accessor with timestamp `ts` executed and
    /// returned `ret`.
    fn accessor(&mut self, _ts: Timestamp, _inv: &Invocation, _ret: &Value) {}
}

impl ExecRecorder for () {}

/// One process of Algorithm 1. `R` observes its executions; the default
/// `()` keeps nothing beyond the node's O(1) execution state.
pub struct WtlwNode<R = ()> {
    pid: Pid,
    spec: Arc<dyn ObjectSpec>,
    object: Box<dyn ObjState>,
    waits: Waits,
    /// Queued mutators, each with whether its Execute timer was armed.
    to_execute: BinaryHeap<Reverse<(Timestamp, Invocation, bool)>>,
    /// The largest timestamp queued since `to_execute` was last empty.
    queued_max: Option<Timestamp>,
    /// Timestamp of the locally-invoked *mixed* operation awaiting execution.
    pending_mixed: Option<Timestamp>,
    /// Number of mutators executed on the local copy.
    executed: u64,
    /// The largest timestamp that has taken effect here, from an executed
    /// mutator or a locally-invoked accessor read.
    frontier: Option<Timestamp>,
    /// Rolling hash of the executed mutator sequence's `(ts, op, arg, ret)`.
    digest: u64,
    recorder: R,
}

impl WtlwNode {
    /// A node with the paper's standard waits for tradeoff parameter `x`.
    pub fn new(pid: Pid, spec: Arc<dyn ObjectSpec>, params: ModelParams, x: Time) -> Self {
        Self::with_waits(pid, spec, Waits::standard(params, x))
    }

    /// A node with explicit timer durations (used to build lower-bound
    /// victims; correctness is only guaranteed for [`Waits::standard`]).
    pub fn with_waits(pid: Pid, spec: Arc<dyn ObjectSpec>, waits: Waits) -> Self {
        Self::with_recorder(pid, spec, waits, ())
    }
}

impl<R: ExecRecorder> WtlwNode<R> {
    /// A node whose executions are reported to `recorder`.
    pub fn with_recorder(pid: Pid, spec: Arc<dyn ObjectSpec>, waits: Waits, recorder: R) -> Self {
        let object = spec.new_object();
        WtlwNode {
            pid,
            spec,
            object,
            waits,
            to_execute: BinaryHeap::new(),
            queued_max: None,
            pending_mixed: None,
            executed: 0,
            frontier: None,
            digest: 0,
            recorder,
        }
    }

    /// The recorder this node reports its executions to.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Number of mutators executed on the local copy so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The execution frontier: the largest timestamp that has taken effect
    /// at this process (an executed mutator or a locally-invoked accessor
    /// read), if any.
    pub fn frontier(&self) -> Option<Timestamp> {
        self.frontier
    }

    /// Order-sensitive 64-bit digest of the executed mutator sequence's
    /// `(ts, op, arg, ret)`. Two replicas that executed the same sequence
    /// have equal digests; `0` before the first execution.
    pub fn exec_digest(&self) -> u64 {
        self.digest
    }

    /// Canonical encoding of the local copy's current state.
    pub fn local_state(&self) -> Value {
        self.object.canonical()
    }

    fn add_to_queue(&mut self, inv: Invocation, ts: Timestamp, fx: &mut impl WtlwFx) {
        // Every Execute timer lasts `waits.execute`, so deadlines fire in
        // the order entries were added. While the entry holding `queued_max`
        // is queued, its timer is armed and fires first; if `ts` is below
        // it, that timer drains this entry, whose own timer could only ever
        // be cancelled — so it is never armed.
        let armed = self.queued_max.is_none_or(|max| max <= ts);
        if armed {
            self.queued_max = Some(ts);
            fx.set_timer(self.waits.execute, WtlwTimer::Execute { ts });
        }
        self.to_execute.push(Reverse((ts, inv, armed)));
    }

    /// Execute every queued mutator with timestamp ≤ `up_to`, in timestamp
    /// order (the while-loops of lines 4–8 and 22–29). `firing` is the
    /// timestamp whose own Execute timer triggered this drain (if any), so we
    /// do not try to cancel an already-consumed timer.
    fn drain_up_to(&mut self, up_to: Timestamp, firing: Option<Timestamp>, fx: &mut impl WtlwFx) {
        while let Some(Reverse((ts, _, _))) = self.to_execute.peek() {
            if *ts > up_to {
                break;
            }
            let Reverse((ts, inv, armed)) = self.to_execute.pop().expect("peeked entry");
            let ret = self.object.apply(inv.op, &inv.arg);
            self.executed += 1;
            self.frontier = self.frontier.max(Some(ts));
            self.digest =
                fxhash::combine(self.digest, fxhash::hash64(&(ts, inv.op, &inv.arg, &ret)));
            self.recorder.mutator(ts, &inv, &ret);
            if armed && Some(ts) != firing {
                fx.cancel_timer(WtlwTimer::Execute { ts });
            }
            if self.pending_mixed == Some(ts) {
                self.pending_mixed = None;
                fx.respond(ret);
            }
        }
        if self.to_execute.is_empty() {
            self.queued_max = None;
        }
    }

    /// A user invoked `inv` here ([`Node::on_invoke`] through `fx`).
    pub fn invoke(&mut self, inv: Invocation, fx: &mut impl WtlwFx) {
        let class = self
            .spec
            .op_meta(inv.op)
            .unwrap_or_else(|| {
                panic!("unknown operation {:?} for type {}", inv.op, self.spec.name())
            })
            .class;
        match class {
            OpClass::PureAccessor => {
                // Line 2: timestamp backdated by X; respond timer for d − X.
                let ts = Timestamp::new(fx.local_time() - self.waits.aop_backdate, self.pid);
                fx.set_timer(self.waits.aop_respond, WtlwTimer::RespondAop { inv, ts });
            }
            OpClass::PureMutator | OpClass::Mixed => {
                let ts = Timestamp::new(fx.local_time(), self.pid);
                // Line 15: announce to all other processes. It comes first so
                // that a batching sink arms its Flush before this
                // invocation's own timers.
                fx.announce(WtlwMsg { inv: inv.clone(), ts });
                if class == OpClass::PureMutator {
                    // Line 12: pure mutators acknowledge after X + ε.
                    fx.set_timer(self.waits.mop_respond, WtlwTimer::RespondMop);
                } else {
                    self.pending_mixed = Some(ts);
                }
                // Line 14: simulate the minimum message delay to ourselves.
                fx.set_timer(self.waits.add, WtlwTimer::Add { inv, ts });
            }
        }
    }

    /// Another process's announcement `msg` arrived ([`Node::on_deliver`]
    /// through `fx`).
    pub fn deliver(&mut self, msg: WtlwMsg, fx: &mut impl WtlwFx) {
        // Lines 18–20 (receive branch): queue the remote mutator.
        self.add_to_queue(msg.inv, msg.ts, fx);
    }

    /// `timer` expired ([`Node::on_timer`] through `fx`).
    pub fn fire(&mut self, timer: WtlwTimer, fx: &mut impl WtlwFx) {
        match timer {
            WtlwTimer::RespondAop { inv, ts } => {
                // Lines 3–9: drain smaller-timestamped mutators, then execute
                // the accessor locally and respond.
                self.drain_up_to(ts, None, fx);
                let ret = self.object.apply(inv.op, &inv.arg);
                self.frontier = self.frontier.max(Some(ts));
                self.recorder.accessor(ts, &inv, &ret);
                fx.respond(ret);
            }
            WtlwTimer::RespondMop => {
                // Lines 16–17.
                fx.respond(Value::Unit);
            }
            WtlwTimer::Add { inv, ts } => {
                // Lines 18–20 (timer branch).
                self.add_to_queue(inv, ts, fx);
            }
            WtlwTimer::Execute { ts } => {
                // Lines 21–29.
                self.drain_up_to(ts, Some(ts), fx);
            }
            // The batching policy's timer; nothing of Algorithm 1 waits on it.
            WtlwTimer::Flush => {}
        }
    }
}

impl<R: ExecRecorder> Node for WtlwNode<R> {
    type Msg = WtlwMsg;
    type Timer = WtlwTimer;

    fn msg_wire_bytes(msg: &WtlwMsg) -> usize {
        msg.wire_bytes()
    }

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<WtlwMsg, WtlwTimer>) {
        self.invoke(inv, fx);
    }

    fn on_deliver(&mut self, _from: Pid, msg: WtlwMsg, fx: &mut Effects<WtlwMsg, WtlwTimer>) {
        self.deliver(msg, fx);
    }

    fn on_timer(&mut self, timer: WtlwTimer, fx: &mut Effects<WtlwMsg, WtlwTimer>) {
        self.fire(timer, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::{FifoQueue, Register, RmwRegister};
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::{simulate, SimConfig};
    use lintime_sim::schedule::Schedule;

    fn params() -> ModelParams {
        ModelParams::default_experiment()
    }

    fn wtlw_cluster(spec: Arc<dyn ObjectSpec>, x: Time, cfg: SimConfig) -> lintime_sim::run::Run {
        let p = cfg.params;
        simulate(&cfg, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, x))
    }

    #[test]
    fn waits_standard_matches_paper() {
        let p = params();
        let w = Waits::standard(p, Time(1200));
        assert_eq!(w.aop_respond, Time(4800)); // d - X
        assert_eq!(w.mop_respond, Time(3000)); // X + ε
        assert_eq!(w.add, Time(3600)); // d - u
        assert_eq!(w.execute, Time(4200)); // u + ε
        assert_eq!(w.predicted_latency(OpClass::Mixed), p.d + p.epsilon);
    }

    #[test]
    #[should_panic(expected = "X must lie")]
    fn waits_rejects_out_of_range_x() {
        let p = params();
        let _ = Waits::standard(p, p.d); // d > d - ε
    }

    #[test]
    fn solo_write_read_round_trip() {
        let p = params();
        let x = Time::ZERO;
        let spec = erase(Register::new(0));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 42)).at(
                Pid(1),
                Time(20_000),
                Invocation::nullary("read"),
            ),
        );
        let run = wtlw_cluster(spec, x, cfg);
        assert!(run.complete(), "{run}");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        // Write is a pure mutator: responds at X + ε = 1800.
        assert_eq!(run.ops[0].latency(), Some(p.epsilon));
        // Read (pure accessor): responds at d − X = 6000 and sees the write.
        assert_eq!(run.ops[1].latency(), Some(p.d));
        assert_eq!(run.ops[1].ret, Some(Value::Int(42)));
    }

    #[test]
    fn latencies_match_lemma_4_exactly() {
        // Lemma 4: AOP = d − X, MOP = X + ε, OOP = d + ε, for every X and
        // under any admissible delay assignment.
        let p = params();
        for x in [Time::ZERO, Time(1200), Time(2400), p.d - p.epsilon] {
            for delay in
                [DelaySpec::AllMax, DelaySpec::AllMin, DelaySpec::UniformRandom { seed: 5 }]
            {
                let spec = erase(RmwRegister::new(0));
                let cfg = SimConfig::new(p, delay).with_schedule(
                    Schedule::new()
                        .at(Pid(0), Time(0), Invocation::new("write", 1))
                        .at(Pid(1), Time(0), Invocation::nullary("read"))
                        .at(Pid(2), Time(0), Invocation::new("rmw", 1)),
                );
                let run = wtlw_cluster(spec, x, cfg);
                assert!(run.complete());
                assert_eq!(run.ops[0].latency(), Some(x + p.epsilon), "write at X={x}");
                assert_eq!(run.ops[1].latency(), Some(p.d - x), "read at X={x}");
                assert_eq!(run.ops[2].latency(), Some(p.d + p.epsilon), "rmw at X={x}");
            }
        }
    }

    #[test]
    fn concurrent_writes_execute_in_timestamp_order_everywhere() {
        let p = params();
        let spec = erase(Register::new(0));
        // Two concurrent writes with slightly different invocation times; a
        // late read must see the one with the larger timestamp.
        let cfg = SimConfig::new(p, DelaySpec::AllMin).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("write", 10))
                .at(Pid(1), Time(1), Invocation::new("write", 20))
                .at(Pid(2), Time(30_000), Invocation::nullary("read"))
                .at(Pid(3), Time(30_000), Invocation::nullary("read")),
        );
        let run = wtlw_cluster(spec, Time::ZERO, cfg);
        assert!(run.complete());
        assert_eq!(run.ops[2].ret, Some(Value::Int(20)));
        assert_eq!(run.ops[3].ret, Some(Value::Int(20)));
    }

    #[test]
    fn skewed_clocks_still_agree_on_order() {
        let p = params();
        let spec = erase(Register::new(0));
        // p1's clock is ε ahead; its write at real time 0 gets timestamp ε,
        // while p0's write at real time 1 gets timestamp 1 < ε = 1800. Every
        // replica must order p0's write first and p1's write last.
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_offsets(vec![Time::ZERO, p.epsilon, Time::ZERO, Time::ZERO])
            .with_schedule(
                Schedule::new()
                    .at(Pid(1), Time(0), Invocation::new("write", 111))
                    .at(Pid(0), Time(1), Invocation::new("write", 222))
                    .at(Pid(3), Time(40_000), Invocation::nullary("read")),
            );
        let run = wtlw_cluster(spec, Time::ZERO, cfg);
        assert!(run.complete());
        // Larger timestamp wins: p1's (1800) > p0's (1).
        assert_eq!(run.ops[2].ret, Some(Value::Int(111)));
    }

    #[test]
    fn mixed_op_returns_globally_ordered_value() {
        let p = params();
        let spec = erase(RmwRegister::new(0));
        // Two concurrent rmw(1): exactly one sees 0 and the other sees 1.
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::new("rmw", 1)).at(
                Pid(1),
                Time(5),
                Invocation::new("rmw", 1),
            ),
        );
        let run = wtlw_cluster(spec, Time::ZERO, cfg);
        assert!(run.complete());
        let mut rets: Vec<Value> = run.ops.iter().filter_map(|o| o.ret.clone()).collect();
        rets.sort();
        assert_eq!(rets, vec![Value::Int(0), Value::Int(1)]);
    }

    #[test]
    fn queue_fifo_across_processes() {
        let p = params();
        let spec = erase(FifoQueue::new());
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 11 }).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("enqueue", 1))
                .at(Pid(1), Time(10_000), Invocation::new("enqueue", 2))
                .at(Pid(2), Time(40_000), Invocation::nullary("dequeue"))
                .at(Pid(3), Time(60_000), Invocation::nullary("dequeue")),
        );
        let run = wtlw_cluster(spec, Time(600), cfg);
        assert!(run.complete());
        assert_eq!(run.ops[2].ret, Some(Value::Int(1)));
        assert_eq!(run.ops[3].ret, Some(Value::Int(2)));
    }

    #[test]
    fn accessor_sees_all_previously_completed_mutators() {
        // Lemma 6 case 2: a read invoked after a write responded must see it,
        // even with the read's timestamp backdated by X.
        let p = params();
        let x = p.d - p.epsilon; // most aggressive backdating
        let spec = erase(Register::new(0));
        let write_resp = x + p.epsilon; // MOP latency
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("write", 9))
                // Invoke the read the instant the write responds.
                .at(Pid(1), write_resp, Invocation::nullary("read")),
        );
        let run = wtlw_cluster(spec, x, cfg);
        assert!(run.complete());
        assert_eq!(run.ops[1].ret, Some(Value::Int(9)), "{run}");
    }

    #[test]
    fn quiescence_no_leftover_events() {
        // Eventual Quiescence: a finite workload produces a finite run.
        let p = params();
        let spec = erase(FifoQueue::new());
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(Schedule::new().at(
            Pid(0),
            Time(0),
            Invocation::new("enqueue", 1),
        ));
        let run = wtlw_cluster(spec, Time::ZERO, cfg);
        assert!(run.complete());
        // Run ends once the last replica executes the mutator: invocation
        // message d, plus u + ε execute timer.
        assert_eq!(run.last_time, p.d + p.u + p.epsilon);
    }

    #[test]
    fn history_oblivion_final_states_agree() {
        // After quiescence every replica holds the same state regardless of
        // delay pattern — the History Oblivion property needed in Section 4.
        let p = params();
        let mut rets_per_delay = Vec::new();
        for delay in [DelaySpec::AllMax, DelaySpec::AllMin, DelaySpec::UniformRandom { seed: 3 }] {
            let spec = erase(FifoQueue::new());
            let cfg = SimConfig::new(p, delay).with_schedule(
                Schedule::new()
                    .at(Pid(0), Time(0), Invocation::new("enqueue", 1))
                    .at(Pid(1), Time(2), Invocation::new("enqueue", 2))
                    .at(Pid(2), Time(50_000), Invocation::nullary("peek"))
                    .at(Pid(3), Time(50_000), Invocation::nullary("peek")),
            );
            let run = wtlw_cluster(spec, Time::ZERO, cfg);
            assert!(run.complete());
            assert_eq!(run.ops[2].ret, run.ops[3].ret);
            rets_per_delay.push(run.ops[2].ret.clone());
        }
        // The executed sequence is the same, so all delay patterns agree.
        assert!(rets_per_delay.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn replicas_agree_on_execution_digest_at_quiescence() {
        // Lemma 5: every replica executes the same mutator sequence, so at
        // quiescence all agree on the count, the digest and the state.
        let p = params();
        for spec in [erase(Register::new(0)), erase(FifoQueue::new()), erase(RmwRegister::new(0))] {
            let ops = spec.ops();
            let mut schedule = Schedule::new();
            for i in 0..p.n {
                let invocations = (0..6)
                    .map(|k| {
                        let op = ops[(i + k) % ops.len()].name;
                        let args = spec.suggested_args(op);
                        Invocation::new(op, args[(i + k) % args.len()].clone())
                    })
                    .collect();
                schedule = schedule.script(lintime_sim::schedule::Script {
                    pid: Pid(i),
                    start: Time(i as i64 * 7),
                    gap: Time::ZERO,
                    invocations,
                });
            }
            for x in [Time::ZERO, p.d / 3, p.d - p.epsilon] {
                for delay in
                    [DelaySpec::AllMin, DelaySpec::AllMax, DelaySpec::UniformRandom { seed: 13 }]
                {
                    let label = format!("{} X={x} {delay:?}", spec.name());
                    let cfg = SimConfig::new(p, delay).with_schedule(schedule.clone());
                    let (run, nodes) = lintime_sim::engine::simulate_full(&cfg, |pid| {
                        WtlwNode::new(pid, Arc::clone(&spec), p, x)
                    });
                    assert!(run.complete(), "{label}");
                    let state = |n: &WtlwNode| (n.executed(), n.exec_digest(), n.local_state());
                    assert!(nodes[0].executed() > 0);
                    for (i, node) in nodes.iter().enumerate() {
                        assert_eq!(state(node), state(&nodes[0]), "{label}: replica {i} diverges");
                    }
                }
            }
        }
    }

    /// `(executed, digest)` of p0 after a run of `schedule` on `spec`.
    fn p0_execution(spec: Arc<dyn ObjectSpec>, schedule: Schedule) -> (u64, u64) {
        let p = params();
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(schedule);
        let (run, nodes) = lintime_sim::engine::simulate_full(&cfg, |pid| {
            WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO)
        });
        assert!(run.complete());
        (nodes[0].executed(), nodes[0].exec_digest())
    }

    #[test]
    fn digest_covers_timestamp_argument_and_return() {
        // Each pair executes one mutator and differs in exactly one of
        // (ts, arg, ret); equal digests would hide a Lemma-5 divergence.
        let one = |pid: usize, t: i64, inv: Invocation| Schedule::new().at(Pid(pid), Time(t), inv);
        let write = |v: i64| Invocation::new("write", v);
        let pairs = [
            (
                "ts",
                erase(Register::new(0)),
                one(1, 0, write(1)),
                erase(Register::new(0)),
                one(1, 1, write(1)),
            ),
            (
                "arg",
                erase(Register::new(0)),
                one(1, 0, write(1)),
                erase(Register::new(0)),
                one(1, 0, write(2)),
            ),
            (
                "ret",
                erase(RmwRegister::new(0)),
                one(1, 0, Invocation::new("rmw", 5)),
                erase(RmwRegister::new(1)),
                one(1, 0, Invocation::new("rmw", 5)),
            ),
        ];
        for (what, spec_a, sched_a, spec_b, sched_b) in pairs {
            let (a, b) = (p0_execution(spec_a, sched_a), p0_execution(spec_b, sched_b));
            assert_eq!(a.0, 1);
            assert_eq!(a.0, b.0);
            assert_ne!(a.1, b.1, "digest ignores {what}");
        }
    }

    #[test]
    fn frontier_tracks_the_largest_executed_timestamp() {
        let p = params();
        let x = Time(1200);
        let spec = erase(Register::new(0));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(1), Time(0), Invocation::new("write", 1)).at(
                Pid(0),
                Time(20_000),
                Invocation::nullary("read"),
            ),
        );
        let (run, nodes) = lintime_sim::engine::simulate_full(&cfg, |pid| {
            WtlwNode::new(pid, Arc::clone(&spec), p, x)
        });
        assert!(run.complete());
        // p0's read (backdated by X) is the largest timestamp it executed;
        // everyone else only executed the write.
        assert_eq!(nodes[0].frontier(), Some(Timestamp::new(Time(20_000) - x, Pid(0))));
        assert_eq!(nodes[2].frontier(), Some(Timestamp::new(Time(0), Pid(1))));
        assert_eq!(nodes[0].exec_digest(), nodes[2].exec_digest());
    }

    /// One handler call on a hand-driven node at local time `at`.
    fn step(
        node: &mut WtlwNode,
        at: Time,
        f: impl FnOnce(&mut WtlwNode, &mut Effects<WtlwMsg, WtlwTimer>),
    ) -> lintime_sim::node::EffectParts<WtlwMsg, WtlwTimer> {
        let mut fx = Effects::new(Pid(0), params().n, at);
        f(node, &mut fx);
        fx.into_parts()
    }

    #[test]
    fn delivery_behind_a_larger_queued_timestamp_arms_no_execute_timer() {
        let p = params();
        let spec = erase(Register::new(0));
        let mut node = WtlwNode::new(Pid(0), spec, p, Time::ZERO);
        let w = Waits::standard(p, Time::ZERO);
        let announce = |t: i64, pid: usize, v: i64| WtlwMsg {
            inv: Invocation::new("write", v),
            ts: Timestamp::new(Time(t), Pid(pid)),
        };
        let (big, small) = (announce(100, 1, 1), announce(50, 2, 2));
        let (t_big, t_small) = (Time(3700), Time(3800));
        // The larger timestamp arrives first and arms its timer.
        let fx = step(&mut node, t_big, |n, fx| n.on_deliver(Pid(1), big.clone(), fx));
        assert_eq!(fx.timers_set, vec![(t_big + w.execute, WtlwTimer::Execute { ts: big.ts })]);
        // The smaller one, queued behind it, arms nothing: the earlier
        // deadline drains it anyway.
        let fx = step(&mut node, t_small, |n, fx| n.on_deliver(Pid(2), small.clone(), fx));
        assert!(fx.timers_set.is_empty() && fx.timers_cancelled.is_empty());
        // That deadline executes both, in timestamp order, before the small
        // entry's would-be deadline, and cancels nothing (nothing else armed).
        let fire = t_big + w.execute;
        assert!(fire <= t_small + w.execute);
        let fx = step(&mut node, fire, |n, fx| n.on_timer(WtlwTimer::Execute { ts: big.ts }, fx));
        assert!(fx.timers_cancelled.is_empty());
        assert_eq!(node.executed(), 2);
        assert_eq!(node.local_state(), Value::Int(1));
        // The queue is empty again, so the next entry arms its own timer
        // whatever its timestamp.
        let late = announce(10, 3, 3);
        let fx = step(&mut node, fire, |n, fx| n.on_deliver(Pid(3), late.clone(), fx));
        assert_eq!(fx.timers_set, vec![(fire + w.execute, WtlwTimer::Execute { ts: late.ts })]);
    }

    #[test]
    fn accessor_drain_cancels_only_armed_entries() {
        let p = params();
        let spec = erase(Register::new(0));
        let mut node = WtlwNode::new(Pid(0), spec, p, Time::ZERO);
        let announce = |t: i64, pid: usize| WtlwMsg {
            inv: Invocation::new("write", t),
            ts: Timestamp::new(Time(t), Pid(pid)),
        };
        step(&mut node, Time(3700), |n, fx| n.on_deliver(Pid(1), announce(100, 1), fx));
        step(&mut node, Time(3800), |n, fx| n.on_deliver(Pid(2), announce(50, 2), fx));
        // A read timestamped above both drains both: only the armed entry
        // has a timer to cancel.
        let ts = Timestamp::new(Time(200), Pid(0));
        let read = WtlwTimer::RespondAop { inv: Invocation::nullary("read"), ts };
        let fx = step(&mut node, Time(6200), |n, fx| n.on_timer(read, fx));
        let armed = Timestamp::new(Time(100), Pid(1));
        assert_eq!(fx.timers_cancelled, vec![WtlwTimer::Execute { ts: armed }]);
        assert_eq!(fx.response, Some(Value::Int(100)));
    }

    #[test]
    fn mixed_op_covered_at_a_replica_still_responds_at_d_plus_epsilon() {
        // p1's write (ts 10) reaches p2 in the minimum delay, p0's rmw (ts
        // 0) in the maximum: at p2 the rmw queues behind the larger
        // timestamp and arms no timer. p0 itself still answers at d + ε, and
        // every replica executes the same sequence.
        let p = params();
        let spec = erase(RmwRegister::new(0));
        let delay =
            DelaySpec::matrix_from_fn(
                p.n,
                |i, j| if (i, j) == (1, 2) { p.min_delay() } else { p.d },
            );
        let cfg = SimConfig::new(p, delay).with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::new("rmw", 7)).at(
                Pid(1),
                Time(10),
                Invocation::new("write", 3),
            ),
        );
        let (run, nodes) = lintime_sim::engine::simulate_full(&cfg, |pid| {
            WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO)
        });
        assert!(run.complete() && run.errors.is_empty(), "{run}");
        assert_eq!(run.ops[0].latency(), Some(p.d + p.epsilon));
        assert_eq!(run.ops[0].ret, Some(Value::Int(0)));
        assert_eq!(run.ops[1].latency(), Some(p.epsilon));
        let state = |n: &WtlwNode| (n.executed(), n.exec_digest(), n.local_state());
        assert!(nodes.iter().all(|n| state(n) == state(&nodes[0])));
        // Events: 2 invocations, the write's ack timer, 2 self-adds, 6
        // deliveries, and 8 Execute timers less the two covered ones — at p2
        // and at p1, where the rmw arrives behind p1's own queued write.
        assert_eq!(run.events, 2 + 1 + 2 + 6 + 6);
    }

    #[test]
    fn scaled_waits_truncate_toward_zero_at_small_ticks() {
        // The lower-bound victims are built by integer scaling; at small
        // tick counts the division truncates toward zero, never rounds up —
        // a victim must be *at most* as patient as requested.
        let w = Waits {
            aop_respond: Time(7),
            aop_backdate: Time(3),
            mop_respond: Time(1),
            add: Time(5),
            execute: Time(2),
        };
        let half = w.scaled(1, 2);
        assert_eq!(half.aop_respond, Time(3)); // 7/2 → 3, not 4
        assert_eq!(half.mop_respond, Time(0)); // 1/2 → 0
        assert_eq!(half.add, Time(2)); // 5/2 → 2
        assert_eq!(half.execute, Time(1));
        // The backdate is a timestamp adjustment, not a wait: never scaled.
        assert_eq!(half.aop_backdate, w.aop_backdate);

        let two_thirds = w.scaled(2, 3);
        assert_eq!(two_thirds.aop_respond, Time(4)); // 14/3 → 4
        assert_eq!(two_thirds.add, Time(3)); // 10/3 → 3
        assert_eq!(two_thirds.execute, Time(1)); // 4/3 → 1
    }

    #[test]
    fn scaling_by_one_is_the_identity_and_latencies_follow() {
        let p = params();
        let w = Waits::standard(p, Time(1200));
        assert_eq!(w.scaled(1, 1), w);
        assert_eq!(w.scaled(7, 7), w);
        // predicted_latency tracks the scaled waits exactly.
        let s = w.scaled(3, 4);
        assert_eq!(s.predicted_latency(OpClass::PureAccessor), s.aop_respond);
        assert_eq!(s.predicted_latency(OpClass::PureMutator), s.mop_respond);
        assert_eq!(s.predicted_latency(OpClass::Mixed), s.add + s.execute);
        assert!(s.predicted_latency(OpClass::Mixed) <= w.predicted_latency(OpClass::Mixed));
    }
}
