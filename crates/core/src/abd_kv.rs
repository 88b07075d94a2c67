//! Crash-tolerant kv-store as a **per-key composition** of majority-quorum
//! registers: one Mostéfaoui–Raynal register ([`crate::mr_register`]) per
//! key, all multiplexed over one message type and one replica map.
//!
//! The construction leans on the *locality* (compositionality) of
//! linearizability — Herlihy & Wing's classic observation that a history is
//! linearizable iff its per-object projections are. A kv-store whose
//! operations each touch a single key *is* a product of independent
//! registers, one per key: `put(k, v)` writes `Some(v)` to register `k`,
//! `del(k)` writes `None` (absent), `get(k)` reads register `k`. Since
//! every sub-history linearizes by the register protocol's guarantee, the
//! composed kv-store history linearizes too — at **register cost per key**:
//!
//! * `put`/`del`: two quorum phases, worst-case `4d`, `4(n−1)` messages;
//! * `get`: one round trip (`2d`) when the quorum's timestamps for that key
//!   agree (always in quiescent periods), classic ABD write-back otherwise.
//!
//! Contrast with [`crate::quorum_sm`], which implements *any* type by
//! replicating a whole operation log: the composition is asymptotically
//! cheaper (messages carry one key's 13-byte versioned value, never a log
//! prefix, and no stability wait is needed) but only exists because the
//! kv-store's operations are single-key. Fault envelope is the register's:
//! any `⌊(n−1)/2⌋` crashes, duplication, and unbounded stalls — no clocks
//! are consulted anywhere.

use crate::mr_register::MrTs;
use lintime_adt::spec::{Invocation, ObjectSpec, SpecKind};
use lintime_adt::types::kv_store::ops;
use lintime_adt::value::Value;
use lintime_obs::{EventCategory, Obs};
use lintime_sim::node::{Effects, NoTimer, Node};
use lintime_sim::time::Pid;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Messages of the per-key quorum kv-store. `rid` is the client's
/// per-operation request id; replies carrying a stale `rid` are discarded.
/// Every query/store names the key it addresses; replies don't need to (the
/// client has at most one operation, hence one key, in flight).
#[derive(Clone, Debug, PartialEq)]
pub enum AbdMsg {
    /// Write phase 1: highest sequence number you store for `key`?
    SeqQuery {
        /// Requesting operation id.
        rid: u64,
        /// Key being written.
        key: i64,
    },
    /// Reply to [`AbdMsg::SeqQuery`].
    SeqReply {
        /// Echoed operation id.
        rid: u64,
        /// The replica's current sequence number for the queried key.
        seq: u64,
    },
    /// Read phase 1: what `(ts, value)` do you hold for `key`?
    ValQuery {
        /// Requesting operation id.
        rid: u64,
        /// Key being read.
        key: i64,
    },
    /// Reply to [`AbdMsg::ValQuery`].
    ValReply {
        /// Echoed operation id.
        rid: u64,
        /// The replica's current timestamp for the queried key.
        ts: MrTs,
        /// The replica's current value (`None` = key absent).
        val: Option<i64>,
    },
    /// Store `(ts, val)` under `key` (write phase 2, or a read's
    /// write-back). The replica adopts it iff `ts` exceeds what it holds
    /// for that key, and always acks.
    Store {
        /// Requesting operation id.
        rid: u64,
        /// Key being stored.
        key: i64,
        /// Timestamp to store.
        ts: MrTs,
        /// Value to store (`None` deletes the key).
        val: Option<i64>,
    },
    /// Acknowledgement of an [`AbdMsg::Store`].
    StoreAck {
        /// Echoed operation id.
        rid: u64,
    },
}

impl AbdMsg {
    /// Estimated serialized size in bytes: tag + 8-byte `rid`, plus the
    /// variant payload (key 8, timestamp 12 = 8-byte seq + 4-byte pid,
    /// optioned value 1 + 8). Constant-size regardless of store size — the
    /// payoff of per-key composition over log shipping.
    pub fn wire_bytes(&self) -> usize {
        9 + match self {
            AbdMsg::StoreAck { .. } => 0,
            AbdMsg::SeqQuery { .. } | AbdMsg::ValQuery { .. } | AbdMsg::SeqReply { .. } => 8,
            AbdMsg::ValReply { val, .. } => 12 + 1 + if val.is_some() { 8 } else { 0 },
            AbdMsg::Store { val, .. } => 8 + 12 + 1 + if val.is_some() { 8 } else { 0 },
        }
    }
}

/// Client-side progress of the operation pending at this process — the MR
/// register phases, carrying the key the operation addresses. Each phase
/// records the set of processes heard from (including this one); sets, not
/// counters, so duplicated replies cannot inflate a quorum.
enum Phase {
    Idle,
    /// put/del phase 1: collecting sequence numbers for the key.
    WriteQuery {
        key: i64,
        val: Option<i64>,
        max_seq: u64,
        heard: BTreeSet<Pid>,
    },
    /// put/del phase 2: collecting store acks.
    WriteCommit {
        heard: BTreeSet<Pid>,
    },
    /// get phase 1: collecting `(ts, value)` replies for the key. `uniform`
    /// stays true while every reply carries the same timestamp.
    ReadQuery {
        key: i64,
        best_ts: MrTs,
        best_val: Option<i64>,
        uniform: bool,
        heard: BTreeSet<Pid>,
    },
    /// get slow path: writing the maximum back before responding.
    ReadWriteback {
        val: Option<i64>,
        heard: BTreeSet<Pid>,
    },
}

/// Pre-registered `abd.*` metric handles (see [`AbdKvNode::with_obs`]).
struct AbdMetrics {
    round_trips: lintime_obs::Counter,
    fast_reads: lintime_obs::Counter,
    read_writebacks: lintime_obs::Counter,
}

impl AbdMetrics {
    fn register(obs: &Obs) -> AbdMetrics {
        let r = &obs.metrics;
        AbdMetrics {
            round_trips: r.counter("abd.quorum_round_trips"),
            fast_reads: r.counter("abd.fast_reads"),
            read_writebacks: r.counter("abd.read_writebacks"),
        }
    }
}

/// One process of the per-key quorum kv-store: the replica's versioned map
/// plus the client state machine for its own pending operation.
pub struct AbdKvNode {
    pid: Pid,
    n: usize,
    /// Replica state: per-key `(ts, value)`; absent keys are implicitly at
    /// `(MrTs::INITIAL, None)`.
    store: BTreeMap<i64, (MrTs, Option<i64>)>,
    /// Client state.
    rid: u64,
    phase: Phase,
    /// Completed quorum round trips (each phase of each operation is one).
    round_trips: u64,
    /// Gets that responded after a single round trip.
    fast_reads: u64,
    /// Gets that needed the write-back slow path.
    read_writebacks: u64,
    obs: Obs,
    metrics: Option<AbdMetrics>,
}

impl AbdKvNode {
    /// Build a node. The spec must be the kv-store ([`SpecKind::KvStore`]):
    /// the composition is per-key and relies on every operation addressing
    /// exactly one key.
    pub fn new(pid: Pid, spec: Arc<dyn ObjectSpec>, n: usize) -> Self {
        assert_eq!(
            spec.kind(),
            SpecKind::KvStore,
            "the ABD composition implements a kv-store, not {}",
            spec.name()
        );
        AbdKvNode {
            pid,
            n,
            store: BTreeMap::new(),
            rid: 0,
            phase: Phase::Idle,
            round_trips: 0,
            fast_reads: 0,
            read_writebacks: 0,
            obs: Obs::off(),
            metrics: None,
        }
    }

    /// Attach an observability bundle: quorum round trips, fast reads, and
    /// write-backs become `abd.*` counters and trace events.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.metrics = obs.is_active().then(|| AbdMetrics::register(&obs));
        self.obs = obs;
        self
    }

    /// Majority quorum size `⌊n/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }

    /// Completed quorum round trips at this node.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Gets that completed on the one-round-trip fast path.
    pub fn fast_reads(&self) -> u64 {
        self.fast_reads
    }

    /// Gets that needed the write-back slow path.
    pub fn read_writebacks(&self) -> u64 {
        self.read_writebacks
    }

    /// The replica's `(ts, value)` for a key (absent = initial).
    fn entry(&self, key: i64) -> (MrTs, Option<i64>) {
        self.store.get(&key).copied().unwrap_or((MrTs::INITIAL, None))
    }

    /// Replica adoption: keep the lexicographically larger timestamp per key.
    fn adopt(&mut self, key: i64, ts: MrTs, val: Option<i64>) {
        if ts > self.entry(key).0 {
            self.store.insert(key, (ts, val));
        }
    }

    fn count_round_trip(&mut self) {
        self.round_trips += 1;
        if let Some(m) = &self.metrics {
            m.round_trips.inc();
        }
    }

    /// A fresh phase quorum with the local replica already counted.
    fn heard_self(&self) -> BTreeSet<Pid> {
        let mut heard = BTreeSet::new();
        heard.insert(self.pid);
        heard
    }

    /// The kv-store response for a read value: absent keys answer `Unit`.
    fn get_ret(val: Option<i64>) -> Value {
        val.map_or(Value::Unit, Value::Int)
    }

    /// Drive the client state machine: whenever the current phase has heard
    /// a majority, finish it and start the next (or respond). A loop rather
    /// than recursion — with `n = 1` every quorum is immediately satisfied
    /// and a put falls straight through both phases.
    fn advance(&mut self, fx: &mut Effects<AbdMsg, NoTimer>) {
        loop {
            let q = self.quorum();
            let ready = match &self.phase {
                Phase::WriteQuery { heard, .. }
                | Phase::WriteCommit { heard }
                | Phase::ReadQuery { heard, .. }
                | Phase::ReadWriteback { heard, .. } => heard.len() >= q,
                Phase::Idle => false,
            };
            if !ready {
                return;
            }
            match std::mem::replace(&mut self.phase, Phase::Idle) {
                Phase::Idle => unreachable!("ready implies a live phase"),
                Phase::WriteQuery { key, val, max_seq, .. } => {
                    self.count_round_trip();
                    let ts = MrTs { seq: max_seq + 1, pid: self.pid };
                    self.adopt(key, ts, val);
                    self.phase = Phase::WriteCommit { heard: self.heard_self() };
                    fx.broadcast(AbdMsg::Store { rid: self.rid, key, ts, val });
                }
                Phase::WriteCommit { .. } => {
                    self.count_round_trip();
                    fx.respond(Value::Unit); // put and del ack with Unit
                    return;
                }
                Phase::ReadQuery { key, best_ts, best_val, uniform, .. } => {
                    self.count_round_trip();
                    if uniform {
                        // Every quorum member holds the same timestamp for
                        // this key: the version is already at a majority.
                        self.fast_reads += 1;
                        if let Some(m) = &self.metrics {
                            m.fast_reads.inc();
                        }
                        fx.respond(Self::get_ret(best_val));
                        return;
                    }
                    // Mixed timestamps: write the maximum back to a majority
                    // before responding, so no later get can see older state.
                    self.read_writebacks += 1;
                    if let Some(m) = &self.metrics {
                        m.read_writebacks.inc();
                    }
                    self.obs.emit(fx.local_time().0, Some(self.pid.0), EventCategory::Send, || {
                        format!("get({key}) write-back of {best_ts:?} before responding")
                    });
                    self.adopt(key, best_ts, best_val);
                    self.phase = Phase::ReadWriteback { val: best_val, heard: self.heard_self() };
                    fx.broadcast(AbdMsg::Store { rid: self.rid, key, ts: best_ts, val: best_val });
                }
                Phase::ReadWriteback { val, .. } => {
                    self.count_round_trip();
                    fx.respond(Self::get_ret(val));
                    return;
                }
            }
        }
    }
}

impl Node for AbdKvNode {
    type Msg = AbdMsg;
    type Timer = NoTimer;

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<AbdMsg, NoTimer>) {
        assert!(
            matches!(self.phase, Phase::Idle),
            "one operation at a time per process (engine enforces this)"
        );
        self.rid += 1;
        match inv.op {
            ops::PUT => {
                let (key, v) = inv
                    .arg
                    .as_pair()
                    .and_then(|(a, b)| Some((a.as_int()?, b.as_int()?)))
                    .expect("put requires a (key, value) pair of integers");
                self.phase = Phase::WriteQuery {
                    key,
                    val: Some(v),
                    max_seq: self.entry(key).0.seq,
                    heard: self.heard_self(),
                };
                fx.broadcast(AbdMsg::SeqQuery { rid: self.rid, key });
            }
            ops::DEL => {
                let key = inv.arg.as_int().expect("del requires an integer key");
                self.phase = Phase::WriteQuery {
                    key,
                    val: None,
                    max_seq: self.entry(key).0.seq,
                    heard: self.heard_self(),
                };
                fx.broadcast(AbdMsg::SeqQuery { rid: self.rid, key });
            }
            ops::GET => {
                let key = inv.arg.as_int().expect("get requires an integer key");
                let (best_ts, best_val) = self.entry(key);
                self.phase = Phase::ReadQuery {
                    key,
                    best_ts,
                    best_val,
                    uniform: true,
                    heard: self.heard_self(),
                };
                fx.broadcast(AbdMsg::ValQuery { rid: self.rid, key });
            }
            other => panic!("abd_kv: unsupported operation {other:?}"),
        }
        // n = 1 (or tiny clusters): the local replica may already be a
        // majority on its own.
        self.advance(fx);
    }

    fn on_deliver(&mut self, from: Pid, msg: AbdMsg, fx: &mut Effects<AbdMsg, NoTimer>) {
        match msg {
            // Replica duties: answer queries, adopt stores, always ack.
            AbdMsg::SeqQuery { rid, key } => {
                let seq = self.entry(key).0.seq;
                fx.send(from, AbdMsg::SeqReply { rid, seq });
            }
            AbdMsg::ValQuery { rid, key } => {
                let (ts, val) = self.entry(key);
                fx.send(from, AbdMsg::ValReply { rid, ts, val });
            }
            AbdMsg::Store { rid, key, ts, val } => {
                self.adopt(key, ts, val);
                fx.send(from, AbdMsg::StoreAck { rid });
            }
            // Client-side replies: discarded unless they carry the current
            // operation id *and* fit the current phase.
            AbdMsg::SeqReply { rid, seq } if rid == self.rid => {
                if let Phase::WriteQuery { max_seq, heard, .. } = &mut self.phase {
                    if heard.insert(from) {
                        *max_seq = (*max_seq).max(seq);
                        self.advance(fx);
                    }
                }
            }
            AbdMsg::ValReply { rid, ts, val } if rid == self.rid => {
                if let Phase::ReadQuery { best_ts, best_val, uniform, heard, .. } = &mut self.phase
                {
                    if heard.insert(from) {
                        if ts != *best_ts {
                            *uniform = false;
                        }
                        if ts > *best_ts {
                            *best_ts = ts;
                            *best_val = val;
                        }
                        self.advance(fx);
                    }
                }
            }
            AbdMsg::StoreAck { rid } if rid == self.rid => {
                if let Phase::WriteCommit { heard } | Phase::ReadWriteback { heard, .. } =
                    &mut self.phase
                {
                    if heard.insert(from) {
                        self.advance(fx);
                    }
                }
            }
            // Stale replies from an already-completed operation.
            AbdMsg::SeqReply { .. } | AbdMsg::ValReply { .. } | AbdMsg::StoreAck { .. } => {}
        }
    }

    fn on_timer(&mut self, timer: NoTimer, _fx: &mut Effects<AbdMsg, NoTimer>) {
        match timer {}
    }

    fn msg_wire_bytes(msg: &AbdMsg) -> usize {
        msg.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::KvStore;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::{simulate, simulate_full, SimConfig};
    use lintime_sim::faults::FaultPlan;
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::{ModelParams, Time};

    fn params5() -> ModelParams {
        ModelParams::new(5, Time(6000), Time(2400), Time(1800))
    }

    fn mk(spec: &Arc<dyn ObjectSpec>, n: usize) -> impl FnMut(Pid) -> AbdKvNode + '_ {
        move |pid| AbdKvNode::new(pid, Arc::clone(spec), n)
    }

    fn put(k: i64, v: i64) -> Invocation {
        Invocation::new("put", Value::pair(k, v))
    }

    #[test]
    fn put_get_latencies_match_the_register() {
        let p = params5();
        let spec = erase(KvStore::new());
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), put(1, 42)).at(
                Pid(1),
                Time(100_000),
                Invocation::new("get", 1),
            ),
        );
        let (run, nodes) = simulate_full(&cfg, mk(&spec, p.n));
        assert!(run.complete(), "{run}");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        // Put: two quorum round trips of d each way = 4d — register cost.
        assert_eq!(run.ops[0].latency(), Some(p.d * 4));
        // Quiescent get: all replicas agree, one round trip = 2d.
        assert_eq!(run.ops[1].latency(), Some(p.d * 2));
        assert_eq!(run.ops[1].ret, Some(Value::Int(42)));
        assert_eq!(nodes[1].fast_reads(), 1);
        assert_eq!(nodes[1].read_writebacks(), 0);
        assert_eq!(nodes[0].round_trips(), 2);
    }

    #[test]
    fn del_makes_the_key_absent() {
        let p = params5();
        let spec = erase(KvStore::new());
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), put(3, 30))
                .at(Pid(1), Time(100_000), Invocation::new("del", 3))
                .at(Pid(2), Time(200_000), Invocation::new("get", 3))
                .at(Pid(2), Time(300_000), Invocation::new("get", 99)),
        );
        let run = simulate(&cfg, mk(&spec, p.n));
        assert!(run.complete(), "{run}");
        assert_eq!(run.ops[2].ret, Some(Value::Unit), "deleted key must read absent");
        assert_eq!(run.ops[3].ret, Some(Value::Unit), "never-written key reads absent");
    }

    #[test]
    fn distinct_keys_are_independent_registers() {
        let p = params5();
        let spec = erase(KvStore::new());
        // Concurrent puts on distinct keys, then gets of both: each key's
        // register holds its own value, untouched by the other's traffic.
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 13 }).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), put(1, 10))
                .at(Pid(1), Time(5), put(2, 20))
                .at(Pid(2), Time(100_000), Invocation::new("get", 1))
                .at(Pid(3), Time(100_000), Invocation::new("get", 2)),
        );
        let run = simulate(&cfg, mk(&spec, p.n));
        assert!(run.complete(), "{run}");
        assert_eq!(run.ops[2].ret, Some(Value::Int(10)));
        assert_eq!(run.ops[3].ret, Some(Value::Int(20)));
    }

    #[test]
    fn survives_minority_crashes() {
        let p = params5();
        let spec = erase(KvStore::new());
        let plan = FaultPlan::new(11).crash(Pid(3), Time(1)).crash(Pid(4), Time(1));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_faults(plan).with_schedule(
            Schedule::new().at(Pid(0), Time(0), put(1, 5)).at(Pid(1), Time(50_000), put(1, 6)).at(
                Pid(2),
                Time(100_000),
                Invocation::new("get", 1),
            ),
        );
        let run = simulate(&cfg, mk(&spec, p.n));
        assert!(run.complete(), "a majority is alive, every op must finish: {run}");
        assert!(!run.truncated);
        assert_eq!(run.ops[2].ret, Some(Value::Int(6)));
        assert_eq!(run.crashed_pending, 0);
    }

    #[test]
    fn majority_crash_blocks_instead_of_lying() {
        let p = params5();
        let spec = erase(KvStore::new());
        let plan =
            FaultPlan::new(11).crash(Pid(2), Time(1)).crash(Pid(3), Time(1)).crash(Pid(4), Time(1));
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_faults(plan)
            .with_schedule(Schedule::new().at(Pid(0), Time(0), put(1, 5)));
        let run = simulate(&cfg, mk(&spec, p.n));
        assert!(!run.complete());
        assert_eq!(run.pending().count(), 1);
    }

    #[test]
    fn duplicated_replies_cannot_fake_a_quorum() {
        let p = params5();
        let spec = erase(KvStore::new());
        let plan =
            FaultPlan::new(5).crash(Pid(3), Time(1)).crash(Pid(4), Time(1)).duplicate_all(1.0);
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_faults(plan).with_schedule(
            Schedule::new().at(Pid(0), Time(0), put(7, 9)).at(
                Pid(1),
                Time(100_000),
                Invocation::new("get", 7),
            ),
        );
        let run = simulate(&cfg, mk(&spec, p.n));
        assert!(run.complete(), "{run}");
        assert_eq!(run.ops[1].ret, Some(Value::Int(9)));
    }

    #[test]
    fn single_process_cluster_is_its_own_quorum() {
        // The engine requires n ≥ 2, so drive the node handlers directly:
        // with n = 1 the local replica alone is a majority and both phases
        // complete inside `on_invoke`, with no messages sent.
        let spec = erase(KvStore::new());
        let mut node = AbdKvNode::new(Pid(0), Arc::clone(&spec), 1);

        let mut fx = Effects::new(Pid(0), 1, Time(0));
        node.on_invoke(put(1, 3), &mut fx);
        let parts = fx.into_parts();
        assert!(parts.sends.is_empty());
        assert_eq!(parts.response, Some(Value::Unit));

        let mut fx = Effects::new(Pid(0), 1, Time(10));
        node.on_invoke(Invocation::new("get", 1), &mut fx);
        let parts = fx.into_parts();
        assert!(parts.sends.is_empty());
        assert_eq!(parts.response, Some(Value::Int(3)));

        let mut fx = Effects::new(Pid(0), 1, Time(20));
        node.on_invoke(Invocation::new("del", 1), &mut fx);
        assert_eq!(fx.into_parts().response, Some(Value::Unit));

        let mut fx = Effects::new(Pid(0), 1, Time(30));
        node.on_invoke(Invocation::new("get", 1), &mut fx);
        assert_eq!(fx.into_parts().response, Some(Value::Unit));
    }

    #[test]
    fn observed_node_counts_quorum_metrics() {
        let p = params5();
        let spec = erase(KvStore::new());
        let (obs, _ring) = Obs::ring(1024);
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_schedule(Schedule::new().at(Pid(0), Time(0), put(1, 1)).at(
                Pid(1),
                Time(100_000),
                Invocation::new("get", 1),
            ))
            .with_obs(obs.clone());
        let run = simulate(&cfg, |pid| {
            AbdKvNode::new(pid, Arc::clone(&spec), p.n).with_obs(cfg.obs.clone())
        });
        assert!(run.complete());
        // Put = 2 round trips, fast get = 1.
        assert_eq!(obs.metrics.counter("abd.quorum_round_trips").get(), 3);
        assert_eq!(obs.metrics.counter("abd.fast_reads").get(), 1);
        assert_eq!(obs.metrics.counter("abd.read_writebacks").get(), 0);
    }

    #[test]
    fn wire_bytes_stay_constant_per_message() {
        // The whole point of the composition: message size never depends on
        // how many keys the store holds.
        let small =
            AbdMsg::Store { rid: 1, key: 1, ts: MrTs { seq: 1, pid: Pid(0) }, val: Some(1) };
        let tombstone =
            AbdMsg::Store { rid: 1, key: 1, ts: MrTs { seq: 2, pid: Pid(0) }, val: None };
        assert_eq!(small.wire_bytes(), 9 + 8 + 12 + 1 + 8);
        assert_eq!(tombstone.wire_bytes(), 9 + 8 + 12 + 1);
    }

    #[test]
    #[should_panic(expected = "kv-store")]
    fn non_kv_spec_is_refused() {
        let spec = erase(lintime_adt::types::FifoQueue::new());
        let _ = AbdKvNode::new(Pid(0), spec, 4);
    }
}
