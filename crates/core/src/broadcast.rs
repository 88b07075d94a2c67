//! Folklore baseline 2 (Section 1): replicate via total-order broadcast.
//!
//! "Have each process use a total order broadcast primitive to notify all
//! other processes when it invokes an operation; whenever a broadcast message
//! arrives at a process, it updates a local copy of the object accordingly.
//! However, this second method is not faster than the centralized scheme when
//! taking into account the time overhead to implement the totally ordered
//! broadcast on top of a point-to-point message system."
//!
//! We implement exactly that overhead: Lamport-clock total-order multicast
//! (requests + acknowledgements). An operation is delivered — and, if local,
//! responded to — once it heads the queue and every process has been heard
//! from with a larger Lamport time, which takes ≈ `2d`: one delay for the
//! request to spread, one for the acknowledgements to return. Unlike
//! Algorithm 1 this uses no synchronized clocks, so its latency cannot be
//! traded against `ε`.
//!
//! Point-to-point channels in the model are not FIFO (independent delays per
//! message), so a sequence-number reordering layer per sender is included —
//! part of the real cost of a broadcast primitive over point-to-point links.

use lintime_adt::spec::{Invocation, ObjState, ObjectSpec};
use lintime_sim::node::{Effects, NoTimer, Node};
use lintime_sim::time::Pid;
use std::collections::VecDeque;
use std::sync::Arc;

/// Lamport-timestamped payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// An operation announcement.
    Request {
        /// Lamport time of the announcement.
        lc: u64,
        /// The announced invocation.
        inv: Invocation,
    },
    /// A bare clock carrier acknowledging receipt.
    Ack {
        /// Lamport time of the acknowledgement.
        lc: u64,
    },
}

/// A sender-sequenced message (FIFO layer over non-FIFO channels).
#[derive(Clone, Debug, PartialEq)]
pub struct BcastMsg {
    /// Per-sender sequence number.
    pub seq: u64,
    /// The Lamport-timestamped payload.
    pub payload: Payload,
}

impl BcastMsg {
    /// Estimated serialized size in bytes: 8-byte sequence number, tag,
    /// 8-byte Lamport clock, and the invocation for requests.
    pub fn wire_bytes(&self) -> usize {
        9 + match &self.payload {
            Payload::Request { inv, .. } => 8 + inv.wire_bytes(),
            Payload::Ack { .. } => 8,
        }
    }
}

/// One process of the total-order-broadcast replica algorithm.
pub struct BroadcastNode {
    pid: Pid,
    spec: Arc<dyn ObjectSpec>,
    object: Box<dyn ObjState>,
    /// Lamport clock.
    lc: u64,
    /// Pending totally-ordered operations keyed by `(lamport, pid)`, sorted
    /// largest key first so the head is `last()`; about one per process.
    queue: Vec<((u64, usize), Invocation)>,
    /// Largest Lamport value heard from each process.
    heard: Vec<u64>,
    /// Key of the locally-invoked operation awaiting delivery.
    pending: Option<(u64, usize)>,
    /// FIFO reordering, per sender: the next expected seq, and a ring of the
    /// messages that overtook it, indexed by `seq − next_seq` (slot 0 is
    /// always empty: that message would have been observed on arrival).
    next_seq: Vec<u64>,
    buffered: Vec<VecDeque<Option<Payload>>>,
    /// Per-destination send sequence counters.
    send_seq: Vec<u64>,
}

impl BroadcastNode {
    /// Create a node for a cluster of `n` processes.
    pub fn new(pid: Pid, n: usize, spec: Arc<dyn ObjectSpec>) -> Self {
        let object = spec.new_object();
        BroadcastNode {
            pid,
            spec,
            object,
            lc: 0,
            queue: Vec::new(),
            heard: vec![0; n],
            pending: None,
            next_seq: vec![0; n],
            buffered: vec![VecDeque::new(); n],
            send_seq: vec![0; n],
        }
    }

    fn tick(&mut self) -> u64 {
        self.lc += 1;
        self.heard[self.pid.0] = self.lc;
        self.lc
    }

    fn send_all(&mut self, payload: Payload, fx: &mut Effects<BcastMsg, NoTimer>) {
        let n = fx.n();
        for i in 0..n {
            if i == self.pid.0 {
                continue;
            }
            let seq = self.send_seq[i];
            self.send_seq[i] += 1;
            fx.send(Pid(i), BcastMsg { seq, payload: payload.clone() });
        }
    }

    fn observe(&mut self, from: Pid, payload: Payload) -> bool {
        // Returns true if the payload was a Request (requires an ack).
        match payload {
            Payload::Request { lc, inv } => {
                self.lc = self.lc.max(lc);
                self.heard[from.0] = self.heard[from.0].max(lc);
                self.enqueue((lc, from.0), inv);
                true
            }
            Payload::Ack { lc } => {
                self.lc = self.lc.max(lc);
                self.heard[from.0] = self.heard[from.0].max(lc);
                false
            }
        }
    }

    /// Insert into the pending queue in key order (an equal key replaces
    /// the entry, as a map insert would).
    fn enqueue(&mut self, key: (u64, usize), inv: Invocation) {
        match self.queue.binary_search_by(|(k, _)| key.cmp(k)) {
            Ok(i) => self.queue[i].1 = inv,
            Err(i) => self.queue.insert(i, (key, inv)),
        }
    }

    fn try_deliver(&mut self, fx: &mut Effects<BcastMsg, NoTimer>) {
        while let Some(&(key, _)) = self.queue.last() {
            let (lc, origin) = key;
            // Deliverable once every process has been heard from with a
            // strictly larger Lamport time (no smaller-keyed request can
            // still arrive: FIFO layer + Lamport monotonicity).
            let ready = self.heard.iter().enumerate().all(|(j, &h)| j == origin || h > lc);
            if !ready {
                break;
            }
            let (_, inv) = self.queue.pop().expect("head exists");
            let ret = self.object.apply(inv.op, &inv.arg);
            if self.pending == Some(key) {
                self.pending = None;
                fx.respond(ret);
            }
        }
    }
}

impl Node for BroadcastNode {
    type Msg = BcastMsg;
    type Timer = NoTimer;

    fn msg_wire_bytes(msg: &BcastMsg) -> usize {
        msg.wire_bytes()
    }

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<BcastMsg, NoTimer>) {
        // The broadcast baseline totally orders every class uniformly; it
        // cannot exploit the accessor/mutator distinction.
        debug_assert!(self.spec.op_meta(inv.op).is_some(), "unknown operation");
        let lc = self.tick();
        let key = (lc, self.pid.0);
        self.enqueue(key, inv.clone());
        self.pending = Some(key);
        self.send_all(Payload::Request { lc, inv }, fx);
        self.try_deliver(fx);
    }

    fn on_deliver(&mut self, from: Pid, msg: BcastMsg, fx: &mut Effects<BcastMsg, NoTimer>) {
        // FIFO reordering per sender: the expected message is observed
        // directly; one that overtook an earlier message waits in
        // `buffered` until the gap fills (nothing changed, so there is
        // nothing to acknowledge or deliver yet). A second copy of an
        // observed message is dropped; one of a waiting message replaces
        // it with the same payload.
        let f = from.0;
        let Some(ahead) = msg.seq.checked_sub(self.next_seq[f]) else { return };
        if ahead > 0 {
            let ring = &mut self.buffered[f];
            let i = ahead as usize;
            if ring.len() <= i {
                ring.resize(i + 1, None);
            }
            ring[i] = Some(msg.payload);
            return;
        }
        self.next_seq[f] += 1;
        self.buffered[f].pop_front();
        let mut needs_ack = self.observe(from, msg.payload);
        while let Some(payload) = self.buffered[f].front_mut().and_then(Option::take) {
            self.buffered[f].pop_front();
            self.next_seq[f] += 1;
            needs_ack |= self.observe(from, payload);
        }
        if needs_ack {
            let lc = self.tick();
            self.send_all(Payload::Ack { lc }, fx);
        }
        self.try_deliver(fx);
    }

    fn on_timer(&mut self, timer: NoTimer, _fx: &mut Effects<BcastMsg, NoTimer>) {
        match timer {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::{FifoQueue, Register};
    use lintime_adt::value::Value;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::{simulate, simulate_full, SimConfig};
    use lintime_sim::faults::FaultPlan;
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::{ModelParams, Time};

    fn run_bcast(
        spec: Arc<dyn ObjectSpec>,
        delay: DelaySpec,
        schedule: Schedule,
    ) -> lintime_sim::run::Run {
        let p = ModelParams::default_experiment();
        let cfg = SimConfig::new(p, delay).with_schedule(schedule);
        simulate(&cfg, |pid| BroadcastNode::new(pid, p.n, Arc::clone(&spec)))
    }

    #[test]
    fn solo_op_takes_about_two_d() {
        let p = ModelParams::default_experiment();
        let spec = erase(Register::new(0));
        let run = run_bcast(
            spec,
            DelaySpec::AllMax,
            Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 1)),
        );
        assert!(run.complete());
        // Request out: d; acks back: d.
        assert_eq!(run.ops[0].latency(), Some(p.d * 2));
    }

    #[test]
    fn reads_are_not_faster_than_writes() {
        // The broadcast baseline cannot exploit operation classes.
        let spec = erase(Register::new(0));
        let run = run_bcast(
            spec,
            DelaySpec::AllMax,
            Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 1)).at(
                Pid(1),
                Time(20_000),
                Invocation::nullary("read"),
            ),
        );
        assert!(run.complete());
        assert_eq!(run.ops[0].latency(), run.ops[1].latency());
        assert_eq!(run.ops[1].ret, Some(Value::Int(1)));
    }

    #[test]
    fn concurrent_ops_agree_on_total_order() {
        let spec = erase(FifoQueue::new());
        let run = run_bcast(
            spec,
            DelaySpec::UniformRandom { seed: 17 },
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("enqueue", 10))
                .at(Pid(1), Time(0), Invocation::new("enqueue", 20))
                .at(Pid(2), Time(0), Invocation::new("enqueue", 30))
                .at(Pid(3), Time(60_000), Invocation::nullary("dequeue"))
                .at(Pid(0), Time(80_000), Invocation::nullary("dequeue"))
                .at(Pid(1), Time(100_000), Invocation::nullary("dequeue")),
        );
        assert!(run.complete(), "{run}");
        let mut dequeued: Vec<i64> =
            run.ops[3..].iter().filter_map(|o| o.ret.as_ref().and_then(|v| v.as_int())).collect();
        assert_eq!(dequeued.len(), 3);
        // All three enqueued values come out, each exactly once.
        dequeued.sort_unstable();
        assert_eq!(dequeued, vec![10, 20, 30]);
    }

    #[test]
    fn fifo_layer_tolerates_reordering_delays() {
        // Random delays can reorder messages between a pair; the seq layer
        // must still deliver a consistent total order.
        let spec = erase(Register::new(0));
        let run = run_bcast(
            spec,
            DelaySpec::UniformRandom { seed: 99 },
            Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("write", 1))
                .at(Pid(1), Time(100), Invocation::new("write", 2))
                .at(Pid(2), Time(200), Invocation::new("write", 3))
                .at(Pid(3), Time(50_000), Invocation::nullary("read"))
                .at(Pid(0), Time(70_000), Invocation::nullary("read")),
        );
        assert!(run.complete(), "{run}");
        // Both late reads agree on the final value.
        assert_eq!(run.ops[3].ret, run.ops[4].ret);
    }

    #[test]
    fn overtaken_message_waits_and_every_process_agrees_on_the_order() {
        // Delays in [100, 1000]: every message takes the minimum except
        // p0 → p1 message 0 (p0's request), held to the maximum. p0's ack of
        // p1's request (message 1 on that link, sent at 100) arrives at 200
        // and waits for it at p1; every other message arrives in order.
        let p = ModelParams::new(3, Time(1000), Time(900), Time(50));
        let plan = FaultPlan::new(1).override_delay(Pid(0), Pid(1), 0, Time(1000));
        let cfg =
            SimConfig::new(p, DelaySpec::AllMin).recording_all().with_faults(plan).with_schedule(
                Schedule::new()
                    .at(Pid(0), Time(0), Invocation::new("enqueue", 10))
                    .at(Pid(1), Time(0), Invocation::new("enqueue", 20))
                    .at(Pid(2), Time(50), Invocation::new("enqueue", 30)),
            );
        let spec = erase(FifoQueue::new());
        let (run, nodes) =
            simulate_full(&cfg, |pid| BroadcastNode::new(pid, p.n, Arc::clone(&spec)));
        assert!(run.complete() && run.errors.is_empty(), "{run}");
        let link: Vec<_> = run.msgs.iter().filter(|m| (m.from, m.to) == (Pid(0), Pid(1))).collect();
        assert!(link[1].t_recv < link[0].t_recv, "message 1 must overtake message 0");
        // Every replica applied the same three enqueues in the same order.
        let states: Vec<_> = nodes.iter().map(|node| node.object.canonical()).collect();
        assert!(states.iter().all(|s| *s == states[0]), "{states:?}");
        assert!(nodes.iter().all(|node| node.buffered.iter().all(VecDeque::is_empty)));
        let mut queue = nodes[0].object.clone_box();
        let mut drained: Vec<_> = (0..3).map(|_| queue.apply("dequeue", &Value::Unit)).collect();
        drained.sort();
        assert_eq!(drained, vec![Value::Int(10), Value::Int(20), Value::Int(30)]);
    }

    #[test]
    fn ring_drops_observed_copies_and_fills_gaps_wider_than_one() {
        // Hand-driven p1 hearing from p0: message 3 overtakes 0..2, copies
        // of 3 and of the already-observed 0 arrive, and the ring releases
        // 1..3 the moment 1 fills the last gap.
        let p = ModelParams::new(3, Time(1000), Time(900), Time(50));
        let mut node = BroadcastNode::new(Pid(1), p.n, erase(FifoQueue::new()));
        let ack = |seq, lc| BcastMsg { seq, payload: Payload::Ack { lc } };
        // The number of messages one delivery sends (acks: one per peer).
        let deliver = |node: &mut BroadcastNode, msg: BcastMsg| {
            let mut fx = Effects::new(Pid(1), p.n, Time(0));
            node.on_deliver(Pid(0), msg, &mut fx);
            fx.into_parts().sends.len()
        };
        let request = |seq, lc, v| BcastMsg {
            seq,
            payload: Payload::Request { lc, inv: Invocation::new("enqueue", v) },
        };
        assert_eq!(deliver(&mut node, request(3, 4, 30)), 0);
        assert_eq!(deliver(&mut node, request(3, 4, 30)), 0);
        assert_eq!(deliver(&mut node, request(0, 1, 10)), 2, "in order: observed and acknowledged");
        assert_eq!(
            deliver(&mut node, request(0, 1, 10)),
            0,
            "a copy of an observed message is dropped"
        );
        assert_eq!(deliver(&mut node, ack(2, 3)), 0);
        assert_eq!((node.next_seq[0], node.buffered[0].len()), (1, 3));
        assert_eq!(deliver(&mut node, ack(1, 2)), 2, "1 fills the gap and releases 2 and 3");
        assert_eq!(node.next_seq[0], 4);
        assert!(node.buffered[0].is_empty());
        assert_eq!(deliver(&mut node, ack(2, 3)), 0, "a late copy below next_seq is dropped");
        let keys: Vec<_> = node.queue.iter().rev().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(1, 0), (4, 0)]);
    }

    #[test]
    fn duplicated_and_reordered_network_keeps_one_order_and_empty_buffers() {
        // Every link duplicates half its messages (the copy at an admissible
        // delay of its own) and p0 → p1 holds its first four messages back
        // behind later ones, so the ring sees gaps wider than one, copies
        // of buffered messages and copies of observed ones.
        let p = ModelParams::new(4, Time(1000), Time(900), Time(50));
        let mut plan = FaultPlan::new(5).duplicate_all(0.5);
        for k in 0..4 {
            plan = plan.override_delay(Pid(0), Pid(1), k, Time(1000));
        }
        let mut schedule = Schedule::new();
        for i in 0..p.n {
            for k in 0..4 {
                let at = Time(i as i64 * 13 + k * 3000);
                schedule = schedule.at(Pid(i), at, Invocation::new("enqueue", (i * 10) as i64 + k));
            }
        }
        let cfg = SimConfig::new(p, DelaySpec::AllMin)
            .recording_all()
            .with_faults(plan)
            .with_schedule(schedule);
        let spec = erase(FifoQueue::new());
        let (run, nodes) =
            simulate_full(&cfg, |pid| BroadcastNode::new(pid, p.n, Arc::clone(&spec)));
        assert!(run.complete() && run.errors.is_empty(), "{run}");
        let copies = run
            .faults
            .iter()
            .filter(|f| matches!(f, lintime_sim::faults::InjectedFault::Duplicated { .. }))
            .count();
        assert!(copies > 10, "{copies} duplicated messages");
        let link: Vec<_> = run.msgs.iter().filter(|m| (m.from, m.to) == (Pid(0), Pid(1))).collect();
        assert!(link[4].t_recv < link[0].t_recv, "message 4 overtakes messages 0..3");
        // Same sequence applied everywhere, nothing left waiting.
        let states: Vec<_> = nodes.iter().map(|node| node.object.canonical()).collect();
        assert!(states.iter().all(|s| *s == states[0]), "{states:?}");
        assert!(nodes.iter().all(|node| node.buffered.iter().all(VecDeque::is_empty)));
        assert!(nodes.iter().all(|node| node.queue.is_empty()));
    }
}
