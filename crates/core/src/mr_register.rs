//! Crash-tolerant majority-quorum register backend, after Mostéfaoui &
//! Raynal's time-efficient crash-prone atomic register (arXiv:1601.04820),
//! with the communication-cost lens of Nataf & Moses (arXiv:2604.05862).
//!
//! Every process is both a *client* and a *replica* holding `(value, ts)`
//! where `ts = (seq, pid)` is ordered lexicographically. The protocol needs
//! no timers and no synchronized clocks — unlike Algorithm 1, it stays
//! linearizable under arbitrary message delays and survives crashes of any
//! minority of processes (`⌊(n−1)/2⌋`), at the price of quorum round trips:
//!
//! * **Write** is two-phase: phase 1 queries a majority for the highest
//!   sequence number in use, then phase 2 stores `(v, (max_seq + 1, pid))`
//!   at a majority. Worst-case `4d`, `4(n−1)` messages.
//! * **Read** queries a majority for `(value, ts)`. If every reply carries
//!   the *same* timestamp the quorums overlap cleanly and the read responds
//!   after a single round trip (`2d` — the time-efficient fast path). Mixed
//!   timestamps force the classic ABD write-back of the maximum before
//!   responding, so a later read can never observe an older value.
//!
//! The same node implements the **kv-store** as one such register per key,
//! all multiplexed over one message type and one replica map. This leans on
//! the *locality* of linearizability — Herlihy & Wing's observation that a
//! history is linearizable iff its per-object projections are. Every
//! kv-store operation touches one key, so the store is a product of
//! independent registers: `put(k, v)` writes `v` to register `k`, `del(k)`
//! writes `Unit` (absent), `get(k)` reads register `k`, each at register
//! cost. The register itself is the single register under key `None`.
//! Messages carry one key's versioned value, never a log prefix, and no
//! stability wait is needed — cheaper than [`crate::quorum_sm`], which
//! replicates a whole operation log to implement *any* type.
//!
//! Quorum counting is crash- and duplicate-safe: each phase tracks the *set*
//! of processes heard from (the local replica counts implicitly — the engine
//! forbids self-sends), so fault-injected duplicates never inflate a quorum
//! and lost replies only delay, never corrupt. Linearizability rests on
//! majority intersection: a committed write's timestamp is visible to every
//! later quorum, and replica timestamps only grow.

use lintime_adt::spec::{Invocation, ObjectSpec, SpecKind};
use lintime_adt::types::{kv_store, register};
use lintime_adt::value::Value;
use lintime_obs::{EventCategory, Obs};
use lintime_sim::node::{Effects, NoTimer, Node};
use lintime_sim::time::Pid;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A quorum timestamp: sequence number with process-id tie-breaking. The
/// derived order is lexicographic, so timestamps form a total order agreed
/// on by every replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MrTs {
    /// Write sequence number (phase-1 maximum plus one).
    pub seq: u64,
    /// Writing process (tie-breaker between concurrent writers).
    pub pid: Pid,
}

impl MrTs {
    /// The timestamp every replica starts from (smaller than any write's).
    pub const INITIAL: MrTs = MrTs { seq: 0, pid: Pid(0) };
}

/// Messages of the quorum register. `rid` is the client's per-operation
/// request id; replies carrying a stale `rid` are discarded. Queries and
/// stores name the register they address: `None` for the register, the key
/// for the kv-store. Replies don't need to (the client has at most one
/// operation, hence one key, in flight).
#[derive(Clone, Debug, PartialEq)]
pub enum MrMsg {
    /// Write phase 1: what is the highest sequence number you have stored?
    SeqQuery {
        /// Requesting operation id.
        rid: u64,
        /// Register being written.
        key: Option<i64>,
    },
    /// Reply to [`MrMsg::SeqQuery`].
    SeqReply {
        /// Echoed operation id.
        rid: u64,
        /// The replica's current sequence number for the queried register.
        seq: u64,
    },
    /// Read phase 1: what `(value, ts)` do you hold?
    ValQuery {
        /// Requesting operation id.
        rid: u64,
        /// Register being read.
        key: Option<i64>,
    },
    /// Reply to [`MrMsg::ValQuery`].
    ValReply {
        /// Echoed operation id.
        rid: u64,
        /// The replica's current timestamp.
        ts: MrTs,
        /// The replica's current value (`Unit` for an absent key).
        val: Value,
    },
    /// Store `(val, ts)` (write phase 2, or a read's write-back). The
    /// replica adopts it iff `ts` exceeds what it holds for `key`, and
    /// always acks.
    Store {
        /// Requesting operation id.
        rid: u64,
        /// Register being stored.
        key: Option<i64>,
        /// Timestamp to store.
        ts: MrTs,
        /// Value to store (`Unit` deletes a key).
        val: Value,
    },
    /// Acknowledgement of a [`MrMsg::Store`].
    StoreAck {
        /// Echoed operation id.
        rid: u64,
    },
}

impl MrMsg {
    /// Estimated serialized size in bytes: tag + 8-byte `rid`, plus an
    /// 8-byte key when one is named, plus the variant payload (a timestamp
    /// is 12 bytes: 8-byte seq + 4-byte pid). Constant regardless of how
    /// many keys the store holds.
    pub fn wire_bytes(&self) -> usize {
        let key_bytes = |key: &Option<i64>| if key.is_some() { 8 } else { 0 };
        9 + match self {
            MrMsg::StoreAck { .. } => 0,
            MrMsg::SeqQuery { key, .. } | MrMsg::ValQuery { key, .. } => key_bytes(key),
            MrMsg::SeqReply { .. } => 8,
            MrMsg::ValReply { val, .. } => 12 + val.wire_bytes(),
            MrMsg::Store { key, val, .. } => key_bytes(key) + 12 + val.wire_bytes(),
        }
    }
}

/// Client-side progress of the operation pending at this process. Each
/// phase records the set of processes heard from (including this one);
/// sets, not counters, so duplicated replies cannot inflate a quorum.
enum Phase {
    Idle,
    /// Write phase 1: collecting sequence numbers.
    WriteQuery {
        key: Option<i64>,
        val: Value,
        max_seq: u64,
        heard: BTreeSet<Pid>,
    },
    /// Write phase 2: collecting store acks.
    WriteCommit {
        heard: BTreeSet<Pid>,
    },
    /// Read phase 1: collecting `(value, ts)` replies. `uniform` stays true
    /// while every reply carries the same timestamp.
    ReadQuery {
        key: Option<i64>,
        best_ts: MrTs,
        best_val: Value,
        uniform: bool,
        heard: BTreeSet<Pid>,
    },
    /// Read slow path: writing the maximum back before responding.
    ReadWriteback {
        val: Value,
        heard: BTreeSet<Pid>,
    },
}

/// Pre-registered quorum metric handles (see [`MrNode::with_obs`]).
struct MrMetrics {
    round_trips: lintime_obs::Counter,
    fast_reads: lintime_obs::Counter,
    read_writebacks: lintime_obs::Counter,
}

impl MrMetrics {
    fn register(obs: &Obs, prefix: &str) -> MrMetrics {
        let r = &obs.metrics;
        MrMetrics {
            round_trips: r.counter(&format!("{prefix}.quorum_round_trips")),
            fast_reads: r.counter(&format!("{prefix}.fast_reads")),
            read_writebacks: r.counter(&format!("{prefix}.read_writebacks")),
        }
    }
}

/// One process of the majority-quorum register: replica state plus the
/// client state machine for its own pending operation.
pub struct MrNode {
    pid: Pid,
    n: usize,
    /// Replica state: the highest-timestamped value stored here per
    /// register (`None` is the register, `Some(k)` a kv-store key). An
    /// absent register is implicitly at `(MrTs::INITIAL, initial)`.
    store: BTreeMap<Option<i64>, (MrTs, Value)>,
    initial: Value,
    /// Counter prefix: `mr` for the register, `abd` for the kv-store.
    prefix: &'static str,
    /// Client state.
    rid: u64,
    phase: Phase,
    /// Completed quorum round trips (each phase of each operation is one).
    round_trips: u64,
    /// Reads that responded after a single round trip.
    fast_reads: u64,
    /// Reads that needed the write-back slow path.
    read_writebacks: u64,
    obs: Obs,
    metrics: Option<MrMetrics>,
}

impl MrNode {
    /// Build a node. The spec must be a read/write register
    /// ([`SpecKind::Register`]) or the kv-store ([`SpecKind::KvStore`]):
    /// the protocol replicates overwritable values, one per key, not
    /// arbitrary objects.
    pub fn new(pid: Pid, spec: Arc<dyn ObjectSpec>, n: usize) -> Self {
        let (initial, prefix) = match spec.kind() {
            // Every replica starts from the register's initial value, read
            // off a fresh object so deliberate non-zero initializations are
            // honored.
            SpecKind::Register => {
                (spec.new_object().apply(register::ops::READ, &Value::Unit), "mr")
            }
            // An absent key answers `get` with `Unit`.
            SpecKind::KvStore => (Value::Unit, "abd"),
            _ => panic!(
                "the MR quorum backend implements a read/write register or a kv-store, not {}",
                spec.name()
            ),
        };
        MrNode {
            pid,
            n,
            store: BTreeMap::new(),
            initial,
            prefix,
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
    /// write-backs become `mr.*` (register) or `abd.*` (kv-store) counters
    /// and trace events.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.metrics = obs.is_active().then(|| MrMetrics::register(&obs, self.prefix));
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

    /// Reads that completed on the one-round-trip fast path.
    pub fn fast_reads(&self) -> u64 {
        self.fast_reads
    }

    /// Reads that needed the write-back slow path.
    pub fn read_writebacks(&self) -> u64 {
        self.read_writebacks
    }

    /// The replica's `(ts, value)` for a register.
    fn entry(&self, key: Option<i64>) -> (MrTs, &Value) {
        match self.store.get(&key) {
            Some((ts, val)) => (*ts, val),
            None => (MrTs::INITIAL, &self.initial),
        }
    }

    /// Replica adoption: keep the lexicographically larger timestamp.
    fn adopt(&mut self, key: Option<i64>, ts: MrTs, val: Value) {
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

    /// Drive the client state machine: whenever the current phase has heard
    /// a majority, finish it and start the next (or respond). A loop rather
    /// than recursion — with `n = 1` every quorum is immediately satisfied
    /// and a write falls straight through both phases.
    fn advance(&mut self, fx: &mut Effects<MrMsg, NoTimer>) {
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
                    self.adopt(key, ts, val.clone());
                    self.phase = Phase::WriteCommit { heard: self.heard_self() };
                    fx.broadcast(MrMsg::Store { rid: self.rid, key, ts, val });
                }
                Phase::WriteCommit { .. } => {
                    self.count_round_trip();
                    fx.respond(Value::Unit); // write, put and del ack with Unit
                    return;
                }
                Phase::ReadQuery { key, best_ts, best_val, uniform, .. } => {
                    self.count_round_trip();
                    if uniform {
                        // Every quorum member holds the same timestamp: the
                        // value is already at a majority, respond directly.
                        self.fast_reads += 1;
                        if let Some(m) = &self.metrics {
                            m.fast_reads.inc();
                        }
                        fx.respond(best_val);
                        return;
                    }
                    // Mixed timestamps: write the maximum back to a majority
                    // before responding, so no later read can see older state.
                    self.read_writebacks += 1;
                    if let Some(m) = &self.metrics {
                        m.read_writebacks.inc();
                    }
                    self.obs.emit(fx.local_time().0, Some(self.pid.0), EventCategory::Send, || {
                        let op = key.map_or_else(|| "read".to_string(), |k| format!("get({k})"));
                        format!("{op} write-back of {best_ts:?} before responding")
                    });
                    self.adopt(key, best_ts, best_val.clone());
                    self.phase =
                        Phase::ReadWriteback { val: best_val.clone(), heard: self.heard_self() };
                    fx.broadcast(MrMsg::Store { rid: self.rid, key, ts: best_ts, val: best_val });
                }
                Phase::ReadWriteback { val, .. } => {
                    self.count_round_trip();
                    fx.respond(val);
                    return;
                }
            }
        }
    }
}

impl Node for MrNode {
    type Msg = MrMsg;
    type Timer = NoTimer;

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<MrMsg, NoTimer>) {
        assert!(
            matches!(self.phase, Phase::Idle),
            "one operation at a time per process (engine enforces this)"
        );
        self.rid += 1;
        // The register the operation addresses, and the value it writes
        // (`None` for a read).
        let (key, write) = match inv.op {
            register::ops::WRITE => (None, Some(inv.arg)),
            register::ops::READ => (None, None),
            kv_store::ops::PUT => {
                let (key, v) = inv
                    .arg
                    .as_pair()
                    .and_then(|(a, b)| Some((a.as_int()?, b.as_int()?)))
                    .expect("put requires a (key, value) pair of integers");
                (Some(key), Some(Value::Int(v)))
            }
            kv_store::ops::DEL => {
                (Some(inv.arg.as_int().expect("del requires an integer key")), Some(Value::Unit))
            }
            kv_store::ops::GET => {
                (Some(inv.arg.as_int().expect("get requires an integer key")), None)
            }
            other => panic!("mr_register: unsupported operation {other:?}"),
        };
        let heard = self.heard_self();
        let (ts, held) = self.entry(key);
        let (phase, query) = match write {
            Some(val) => (
                Phase::WriteQuery { key, val, max_seq: ts.seq, heard },
                MrMsg::SeqQuery { rid: self.rid, key },
            ),
            None => (
                Phase::ReadQuery { key, best_ts: ts, best_val: held.clone(), uniform: true, heard },
                MrMsg::ValQuery { rid: self.rid, key },
            ),
        };
        self.phase = phase;
        fx.broadcast(query);
        // n = 1 (or tiny clusters): the local replica may already be a
        // majority on its own.
        self.advance(fx);
    }

    fn on_deliver(&mut self, from: Pid, msg: MrMsg, fx: &mut Effects<MrMsg, NoTimer>) {
        match msg {
            // Replica duties: answer queries, adopt stores, always ack.
            MrMsg::SeqQuery { rid, key } => {
                fx.send(from, MrMsg::SeqReply { rid, seq: self.entry(key).0.seq })
            }
            MrMsg::ValQuery { rid, key } => {
                let (ts, val) = self.entry(key);
                fx.send(from, MrMsg::ValReply { rid, ts, val: val.clone() })
            }
            MrMsg::Store { rid, key, ts, val } => {
                self.adopt(key, ts, val);
                fx.send(from, MrMsg::StoreAck { rid });
            }
            // Client-side replies: discarded unless they carry the current
            // operation id *and* fit the current phase.
            MrMsg::SeqReply { rid, seq } if rid == self.rid => {
                if let Phase::WriteQuery { max_seq, heard, .. } = &mut self.phase {
                    if heard.insert(from) {
                        *max_seq = (*max_seq).max(seq);
                        self.advance(fx);
                    }
                }
            }
            MrMsg::ValReply { rid, ts, val } if rid == self.rid => {
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
            MrMsg::StoreAck { rid } if rid == self.rid => {
                if let Phase::WriteCommit { heard } | Phase::ReadWriteback { heard, .. } =
                    &mut self.phase
                {
                    if heard.insert(from) {
                        self.advance(fx);
                    }
                }
            }
            // Stale replies from an already-completed operation.
            MrMsg::SeqReply { .. } | MrMsg::ValReply { .. } | MrMsg::StoreAck { .. } => {}
        }
    }

    fn on_timer(&mut self, timer: NoTimer, _fx: &mut Effects<MrMsg, NoTimer>) {
        match timer {}
    }

    fn msg_wire_bytes(msg: &MrMsg) -> usize {
        msg.wire_bytes()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The register's unit tests, and the quorum checks it shares with the
    //! kv-store's tests in `crate::abd_kv`: each `check_*` runs once per
    //! instantiation, with the same assertions.

    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::{KvStore, Register};
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::{simulate, simulate_full, SimConfig};
    use lintime_sim::faults::FaultPlan;
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::{ModelParams, Time};

    pub(crate) fn params5() -> ModelParams {
        ModelParams::new(5, Time(6000), Time(2400), Time(1800))
    }

    pub(crate) fn mk(spec: &Arc<dyn ObjectSpec>, n: usize) -> impl FnMut(Pid) -> MrNode + '_ {
        move |pid| MrNode::new(pid, Arc::clone(spec), n)
    }

    pub(crate) fn put(k: i64, v: i64) -> Invocation {
        Invocation::new("put", Value::pair(k, v))
    }

    /// One instantiation of the node: its counter prefix, its spec, how to
    /// write `v` and how to read it back.
    pub(crate) struct Inst {
        prefix: &'static str,
        spec: Arc<dyn ObjectSpec>,
        write: fn(i64) -> Invocation,
        read: fn() -> Invocation,
    }

    /// The register, initial value 0.
    fn register() -> Inst {
        Inst {
            prefix: "mr",
            spec: erase(Register::new(0)),
            write: |v| Invocation::new("write", v),
            read: || Invocation::nullary("read"),
        }
    }

    /// The kv-store, written and read on key 1.
    pub(crate) fn kv() -> Inst {
        Inst {
            prefix: "abd",
            spec: erase(KvStore::new()),
            write: |v| put(1, v),
            read: || Invocation::new("get", 1),
        }
    }

    #[test]
    fn timestamps_order_lexicographically() {
        let a = MrTs { seq: 1, pid: Pid(3) };
        let b = MrTs { seq: 2, pid: Pid(0) };
        let c = MrTs { seq: 2, pid: Pid(1) };
        assert!(a < b && b < c);
        assert!(MrTs::INITIAL < a);
    }

    pub(crate) fn check_round_trip_latencies(inst: Inst) {
        let p = params5();
        let who = inst.prefix;
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), (inst.write)(42)).at(
                Pid(1),
                Time(100_000),
                (inst.read)(),
            ),
        );
        let (run, nodes) = simulate_full(&cfg, mk(&inst.spec, p.n));
        assert!(run.complete(), "{who}: {run}");
        assert!(run.errors.is_empty(), "{who}: {:?}", run.errors);
        // Write: two quorum round trips of d each way = 4d.
        assert_eq!(run.ops[0].latency(), Some(p.d * 4), "{who}");
        // Quiescent read: all replicas agree, one round trip = 2d.
        assert_eq!(run.ops[1].latency(), Some(p.d * 2), "{who}");
        assert_eq!(run.ops[1].ret, Some(Value::Int(42)), "{who}");
        assert_eq!(nodes[1].fast_reads(), 1, "{who}");
        assert_eq!(nodes[1].read_writebacks(), 0, "{who}");
        assert_eq!(nodes[0].round_trips(), 2, "{who}");
    }

    #[test]
    fn write_then_read_round_trips_and_latencies() {
        check_round_trip_latencies(register());
    }

    #[test]
    fn read_of_initial_value_is_fast() {
        let spec = erase(Register::new(7));
        let p = params5();
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(Schedule::new().at(
            Pid(2),
            Time(0),
            Invocation::nullary("read"),
        ));
        let run = simulate(&cfg, mk(&spec, p.n));
        assert!(run.complete());
        assert_eq!(run.ops[0].ret, Some(Value::Int(7)));
        assert_eq!(run.ops[0].latency(), Some(p.d * 2));
    }

    pub(crate) fn check_survives_minority_crashes(inst: Inst) {
        let p = params5();
        let who = inst.prefix;
        // Two of five replicas crash before the workload even starts:
        // majorities of the three survivors must still commit every op.
        let plan = FaultPlan::new(11).crash(Pid(3), Time(1)).crash(Pid(4), Time(1));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_faults(plan).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), (inst.write)(5))
                .at(Pid(1), Time(50_000), (inst.write)(6))
                .at(Pid(2), Time(100_000), (inst.read)()),
        );
        let run = simulate(&cfg, mk(&inst.spec, p.n));
        assert!(run.complete(), "{who}: a majority is alive, every op must finish: {run}");
        assert!(!run.truncated, "{who}");
        assert_eq!(run.ops[2].ret, Some(Value::Int(6)), "{who}");
        assert_eq!(run.crashed_pending, 0, "{who}");
    }

    #[test]
    fn survives_minority_crashes() {
        check_survives_minority_crashes(register());
    }

    pub(crate) fn check_majority_crash_blocks(inst: Inst) {
        let p = params5();
        let who = inst.prefix;
        // Three of five crash: no quorum exists, so the write must hang
        // (pending forever), never respond with an uncommitted value.
        let plan =
            FaultPlan::new(11).crash(Pid(2), Time(1)).crash(Pid(3), Time(1)).crash(Pid(4), Time(1));
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_faults(plan)
            .with_schedule(Schedule::new().at(Pid(0), Time(0), (inst.write)(5)));
        let run = simulate(&cfg, mk(&inst.spec, p.n));
        assert!(!run.complete(), "{who}");
        assert_eq!(run.pending().count(), 1, "{who}");
    }

    #[test]
    fn majority_crash_blocks_instead_of_lying() {
        check_majority_crash_blocks(register());
    }

    #[test]
    fn concurrent_writes_agree_on_a_total_order() {
        let p = params5();
        let spec = erase(Register::new(0));
        // All five write concurrently, then all five read after quiescence:
        // every read must return the same (highest-timestamped) value.
        let mut sched = Schedule::new();
        for i in 0..5 {
            sched = sched.at(Pid(i), Time(10 * i as i64), Invocation::new("write", 10 + i as i64));
        }
        for i in 0..5 {
            sched = sched.at(Pid(i), Time(200_000), Invocation::nullary("read"));
        }
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 9 }).with_schedule(sched);
        let run = simulate(&cfg, mk(&spec, p.n));
        assert!(run.complete(), "{run}");
        let reads: BTreeSet<_> =
            run.ops.iter().filter(|o| o.invocation.op == "read").map(|o| o.ret.clone()).collect();
        assert_eq!(reads.len(), 1, "diverging reads after quiescence: {run}");
    }

    pub(crate) fn check_duplicated_replies(inst: Inst) {
        let p = params5();
        let who = inst.prefix;
        // Crash two replicas and duplicate every message: duplicates from
        // the three live peers must not be double-counted, and the run
        // must still complete correctly off the true quorum.
        let plan =
            FaultPlan::new(5).crash(Pid(3), Time(1)).crash(Pid(4), Time(1)).duplicate_all(1.0);
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_faults(plan).with_schedule(
            Schedule::new().at(Pid(0), Time(0), (inst.write)(9)).at(
                Pid(1),
                Time(100_000),
                (inst.read)(),
            ),
        );
        let run = simulate(&cfg, mk(&inst.spec, p.n));
        assert!(run.complete(), "{who}: {run}");
        assert_eq!(run.ops[1].ret, Some(Value::Int(9)), "{who}");
    }

    #[test]
    fn duplicated_replies_cannot_fake_a_quorum() {
        check_duplicated_replies(register());
    }

    pub(crate) fn check_single_process_quorum(inst: Inst) {
        // The engine requires n ≥ 2, so drive the node handlers directly:
        // with n = 1 the local replica alone is a majority and both phases
        // complete inside `on_invoke`, with no messages sent.
        let who = inst.prefix;
        let mut node = MrNode::new(Pid(0), Arc::clone(&inst.spec), 1);
        let mut steps = vec![((inst.write)(3), Value::Unit), ((inst.read)(), Value::Int(3))];
        if inst.spec.kind() == SpecKind::KvStore {
            // A delete completes locally too, and the key reads absent.
            steps.extend([(Invocation::new("del", 1), Value::Unit), ((inst.read)(), Value::Unit)]);
        }
        for (k, (inv, want)) in steps.into_iter().enumerate() {
            let mut fx = Effects::new(Pid(0), 1, Time(10 * k as i64));
            node.on_invoke(inv, &mut fx);
            let parts = fx.into_parts();
            assert!(parts.sends.is_empty(), "{who}: step {k}");
            assert_eq!(parts.response, Some(want), "{who}: step {k}");
        }
    }

    #[test]
    fn single_process_cluster_is_its_own_quorum() {
        check_single_process_quorum(register());
    }

    pub(crate) fn check_observed_metrics(inst: Inst) {
        let p = params5();
        let who = inst.prefix;
        let (obs, _ring) = Obs::ring(1024);
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_schedule(Schedule::new().at(Pid(0), Time(0), (inst.write)(1)).at(
                Pid(1),
                Time(100_000),
                (inst.read)(),
            ))
            .with_obs(obs.clone());
        let run = simulate(&cfg, |pid| {
            MrNode::new(pid, Arc::clone(&inst.spec), p.n).with_obs(cfg.obs.clone())
        });
        assert!(run.complete(), "{who}");
        // Write = 2 round trips, fast read = 1, under the instantiation's
        // own prefix.
        let count = |name: &str| obs.metrics.counter(&format!("{who}.{name}")).get();
        assert_eq!(count("quorum_round_trips"), 3, "{who}");
        assert_eq!(count("fast_reads"), 1, "{who}");
        assert_eq!(count("read_writebacks"), 0, "{who}");
    }

    #[test]
    fn observed_node_counts_quorum_metrics() {
        check_observed_metrics(register());
    }

    #[test]
    #[should_panic(expected = "read/write register")]
    fn non_register_spec_is_refused() {
        let spec = erase(lintime_adt::types::FifoQueue::new());
        let _ = MrNode::new(Pid(0), spec, 4);
    }
}
