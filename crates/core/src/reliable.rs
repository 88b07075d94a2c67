//! Recovery layer for Algorithm 1 under message-omission faults.
//!
//! The paper's model assumes every message arrives within `[d − u, d]`.
//! [`ReliableWtlwNode`] keeps Algorithm 1 linearizable when that assumption
//! is violated by a lossy network, by wrapping every [`WtlwNode`] broadcast
//! in a reliable-delivery protocol:
//!
//! * **Acks** — every `Data` message is acknowledged by the receiver
//!   (including duplicates, since the sender may have missed an earlier ack);
//! * **Retransmission** — unacked broadcasts are retransmitted with bounded
//!   exponential backoff: retry `k` fires `rto · 2^(k−1)` after retry `k − 1`,
//!   up to [`RecoveryConfig::max_retries`] retries;
//! * **Duplicate suppression** — retransmitted copies are deduplicated by
//!   timestamp (which is `(local time, pid)`, so globally unique).
//!
//! Retransmission stretches the worst-case delivery time of a mutator
//! announcement from `d` to `d + B`, where the *backoff budget*
//! `B = rto · (2^max_retries − 1)` is the latest possible retransmission
//! offset. The wrapped inner node therefore runs with two waits extended by
//! `B` — `execute = u + ε + B` and `aop_respond = (d − X) + B` — so that
//! omission faults degrade latency instead of linearizability. Timestamp
//! backdating and the pure-mutator ack delay are unchanged (neither depends
//! on message arrival).
//!
//! A **violation detector** rides along: whenever a mutator announcement
//! arrives with a timestamp older than the local execution frontier (a
//! mutator or locally-invoked accessor with a larger timestamp has already
//! executed), the detector records it. [`run_reliable`] folds these records
//! into [`Run::suspect`], so a run whose recovery budget was overwhelmed is
//! *flagged*, never silently certified.

use crate::timestamp::Timestamp;
use crate::wtlw::{Waits, WtlwFx, WtlwMsg, WtlwNode, WtlwTimer};
use lintime_adt::spec::{Invocation, ObjectSpec};
use lintime_adt::value::Value;
use lintime_obs::{EventCategory, Obs};
use lintime_sim::engine::{simulate_full, SimConfig};
use lintime_sim::node::{Effects, Node};
use lintime_sim::run::Run;
use lintime_sim::time::{ModelParams, Pid, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Retransmission policy of the recovery layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Retransmission timeout: how long to wait for an ack before the first
    /// retry. Subsequent retries double it (bounded exponential backoff).
    pub rto: Time,
    /// Maximum number of retransmissions per broadcast. `0` disables
    /// retransmission entirely (detection-only mode: acks, duplicate
    /// suppression, and the violation detector stay active).
    pub max_retries: u32,
}

impl RecoveryConfig {
    /// The default policy: `rto = 2d` (an ack round trip takes at most `2d`,
    /// so an earlier retry could only produce duplicates) and two retries.
    pub fn standard(params: ModelParams) -> Self {
        RecoveryConfig { rto: params.d * 2, max_retries: 2 }
    }

    /// Detection-only mode: no retransmission, but duplicate suppression and
    /// the frontier violation detector stay active. The wrapped node runs
    /// with the paper's unmodified waits.
    pub fn detection_only(params: ModelParams) -> Self {
        RecoveryConfig { rto: params.d * 2, max_retries: 0 }
    }

    /// The backoff budget `B = rto · (2^max_retries − 1)`: the worst-case
    /// extra delay a successfully recovered message can accumulate (the last
    /// retry is sent `B` after the original transmission).
    pub fn backoff_budget(&self) -> Time {
        assert!(self.max_retries <= 20, "backoff budget would overflow");
        self.rto * ((1i64 << self.max_retries) - 1)
    }

    /// The paper's standard waits for tradeoff parameter `x`, with
    /// `execute` and `aop_respond` extended by the backoff budget so the
    /// inner algorithm tolerates recovered (late) messages.
    pub fn extended_waits(&self, params: ModelParams, x: Time) -> Waits {
        let b = self.backoff_budget();
        let mut w = Waits::standard(params, x);
        w.execute += b;
        w.aop_respond += b;
        w
    }
}

/// Messages of the recovery layer.
#[derive(Clone, Debug, PartialEq)]
pub enum RelMsg {
    /// A (possibly retransmitted) mutator announcement.
    Data(WtlwMsg),
    /// Acknowledgement of the `Data` message with this timestamp.
    Ack {
        /// Timestamp of the acknowledged announcement.
        ts: Timestamp,
    },
}

impl RelMsg {
    /// Estimated serialized size in bytes: tag plus the wrapped
    /// announcement, or tag plus a 12-byte timestamp for acks.
    pub fn wire_bytes(&self) -> usize {
        1 + match self {
            RelMsg::Data(m) => m.wire_bytes(),
            RelMsg::Ack { .. } => 12,
        }
    }
}

/// Timer tags of the recovery layer.
#[derive(Clone, Debug, PartialEq)]
pub enum RelTimer {
    /// A timer of the wrapped algorithm.
    Inner(WtlwTimer),
    /// Retry broadcast `ts`; `attempt` retransmissions have happened so far.
    Retransmit {
        /// Timestamp of the broadcast being retried.
        ts: Timestamp,
        /// Retransmissions already performed when this timer was set.
        attempt: u32,
    },
}

/// A broadcast awaiting acknowledgement from some peers.
struct PendingBroadcast {
    msg: WtlwMsg,
    unacked: BTreeSet<Pid>,
    attempt: u32,
}

/// Pre-registered metric handles for the recovery layer, built once per node
/// when observability is active (see [`ReliableWtlwNode::with_obs`]).
struct RelMetrics {
    acks_sent: lintime_obs::Counter,
    retransmissions: lintime_obs::Counter,
    duplicates_suppressed: lintime_obs::Counter,
    violations: lintime_obs::Counter,
}

impl RelMetrics {
    fn register(obs: &Obs) -> RelMetrics {
        let r = &obs.metrics;
        RelMetrics {
            acks_sent: r.counter("reliable.acks_sent"),
            retransmissions: r.counter("reliable.retransmissions"),
            duplicates_suppressed: r.counter("reliable.duplicates_suppressed"),
            violations: r.counter("reliable.violations"),
        }
    }
}

/// [`WtlwNode`] wrapped in the reliable-delivery recovery layer.
pub struct ReliableWtlwNode {
    pid: Pid,
    recovery: RecoveryConfig,
    inner: WtlwNode,
    outstanding: BTreeMap<Timestamp, PendingBroadcast>,
    /// Timestamps of announcements already delivered to the inner node.
    seen: BTreeSet<Timestamp>,
    retransmissions: u64,
    duplicates_suppressed: u64,
    violations: Vec<String>,
    obs: Obs,
    metrics: Option<RelMetrics>,
}

impl ReliableWtlwNode {
    /// A recovery-wrapped node for tradeoff parameter `x`. The inner node
    /// runs with [`RecoveryConfig::extended_waits`].
    pub fn new(
        pid: Pid,
        spec: Arc<dyn ObjectSpec>,
        params: ModelParams,
        x: Time,
        recovery: RecoveryConfig,
    ) -> Self {
        let inner = WtlwNode::with_waits(pid, spec, recovery.extended_waits(params, x));
        ReliableWtlwNode {
            pid,
            recovery,
            inner,
            outstanding: BTreeMap::new(),
            seen: BTreeSet::new(),
            retransmissions: 0,
            duplicates_suppressed: 0,
            violations: Vec::new(),
            obs: Obs::off(),
            metrics: None,
        }
    }

    /// Attach an observability bundle: retransmissions, suppressed
    /// duplicates, and detector findings become trace events
    /// ([`EventCategory::Retransmit`], [`EventCategory::Duplicate`],
    /// [`EventCategory::Suspect`]) and `reliable.*` counters.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.metrics = obs.is_active().then(|| RelMetrics::register(&obs));
        self.obs = obs;
        self
    }

    /// Number of `Data` retransmissions this node performed.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Number of duplicate announcements suppressed.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Frontier violations and exhausted-budget reports detected so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// The sink [`ReliableWtlwNode`] hands Algorithm 1's handlers: the engine's
/// effects, with every announcement tracked until each peer acks it.
struct Recovering<'a> {
    fx: &'a mut Effects<RelMsg, RelTimer>,
    recovery: RecoveryConfig,
    pending: &'a mut BTreeMap<Timestamp, PendingBroadcast>,
}

impl WtlwFx for Recovering<'_> {
    fn local_time(&self) -> Time {
        self.fx.local_time()
    }

    fn set_timer(&mut self, delay: Time, timer: WtlwTimer) {
        self.fx.set_timer(delay, RelTimer::Inner(timer));
    }

    fn cancel_timer(&mut self, timer: WtlwTimer) {
        self.fx.cancel_timer(RelTimer::Inner(timer));
    }

    fn respond(&mut self, ret: Value) {
        self.fx.respond(ret);
    }

    fn announce(&mut self, msg: WtlwMsg) {
        if self.recovery.max_retries > 0 {
            let pending = self.pending.entry(msg.ts).or_insert_with(|| {
                self.fx
                    .set_timer(self.recovery.rto, RelTimer::Retransmit { ts: msg.ts, attempt: 0 });
                PendingBroadcast { msg: msg.clone(), unacked: BTreeSet::new(), attempt: 0 }
            });
            let me = self.fx.pid();
            pending.unacked.extend((0..self.fx.n()).map(Pid).filter(|&to| to != me));
        }
        self.fx.broadcast(RelMsg::Data(msg));
    }
}

impl Node for ReliableWtlwNode {
    type Msg = RelMsg;
    type Timer = RelTimer;

    fn msg_wire_bytes(msg: &RelMsg) -> usize {
        msg.wire_bytes()
    }

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<RelMsg, RelTimer>) {
        let mut sink = Recovering { fx, recovery: self.recovery, pending: &mut self.outstanding };
        self.inner.invoke(inv, &mut sink);
    }

    fn on_deliver(&mut self, from: Pid, msg: RelMsg, fx: &mut Effects<RelMsg, RelTimer>) {
        match msg {
            RelMsg::Data(m) => {
                // Always ack, even a duplicate: the sender retransmitted
                // because it never saw our previous ack.
                fx.send(from, RelMsg::Ack { ts: m.ts });
                if let Some(mx) = &self.metrics {
                    mx.acks_sent.inc();
                }
                if !self.seen.insert(m.ts) {
                    self.duplicates_suppressed += 1;
                    self.obs.emit(
                        fx.local_time().0,
                        Some(self.pid.0),
                        EventCategory::Duplicate,
                        || format!("suppressed duplicate announcement {:?} from {from}", m.ts),
                    );
                    if let Some(mx) = &self.metrics {
                        mx.duplicates_suppressed.inc();
                    }
                    return;
                }
                // A mutator arriving below the inner node's execution
                // frontier is too late to be ordered correctly.
                if let Some(frontier) = self.inner.frontier() {
                    if m.ts < frontier {
                        self.violations.push(format!(
                            "process {}: mutator {:?} arrived with timestamp {:?}, older than \
                             the execution frontier {:?} — linearization order may be broken",
                            self.pid, m.inv.op, m.ts, frontier
                        ));
                        self.obs.emit(
                            fx.local_time().0,
                            Some(self.pid.0),
                            EventCategory::Suspect,
                            || format!("mutator {:?} arrived behind frontier {frontier:?}", m.ts),
                        );
                        if let Some(mx) = &self.metrics {
                            mx.violations.inc();
                        }
                    }
                }
                let mut sink =
                    Recovering { fx, recovery: self.recovery, pending: &mut self.outstanding };
                self.inner.deliver(m, &mut sink);
            }
            RelMsg::Ack { ts } => {
                if let Some(e) = self.outstanding.get_mut(&ts) {
                    e.unacked.remove(&from);
                    if e.unacked.is_empty() {
                        let attempt = e.attempt;
                        self.outstanding.remove(&ts);
                        fx.cancel_timer(RelTimer::Retransmit { ts, attempt });
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, timer: RelTimer, fx: &mut Effects<RelMsg, RelTimer>) {
        match timer {
            RelTimer::Inner(t) => {
                let mut sink =
                    Recovering { fx, recovery: self.recovery, pending: &mut self.outstanding };
                self.inner.fire(t, &mut sink);
            }
            RelTimer::Retransmit { ts, attempt } => {
                let Some(e) = self.outstanding.get_mut(&ts) else { return };
                if attempt != e.attempt {
                    return; // stale timer from a superseded attempt
                }
                if attempt >= self.recovery.max_retries {
                    // Budget exhausted with peers still unconfirmed: give up
                    // loudly. run_reliable folds this into Run::suspect.
                    let peers: Vec<usize> = e.unacked.iter().map(|p| p.0).collect();
                    self.violations.push(format!(
                        "process {}: retransmission budget exhausted for {:?}; delivery to \
                         processes {:?} unconfirmed",
                        self.pid, ts, peers
                    ));
                    self.obs.emit(
                        fx.local_time().0,
                        Some(self.pid.0),
                        EventCategory::Suspect,
                        || format!("retransmission budget exhausted for {ts:?}; peers {peers:?}"),
                    );
                    if let Some(mx) = &self.metrics {
                        mx.violations.inc();
                    }
                    self.outstanding.remove(&ts);
                    return;
                }
                for to in e.unacked.iter() {
                    fx.send(*to, RelMsg::Data(e.msg.clone()));
                }
                self.obs.emit(
                    fx.local_time().0,
                    Some(self.pid.0),
                    EventCategory::Retransmit,
                    || {
                        format!(
                            "retry {} of {:?} to {} unacked peers",
                            attempt + 1,
                            ts,
                            e.unacked.len()
                        )
                    },
                );
                if let Some(mx) = &self.metrics {
                    mx.retransmissions.add(e.unacked.len() as u64);
                }
                self.retransmissions += e.unacked.len() as u64;
                e.attempt = attempt + 1;
                // Next retry after rto · 2^attempt; the timer that fires at
                // attempt == max_retries is the final give-up check.
                fx.set_timer(
                    self.recovery.rto * (1i64 << e.attempt),
                    RelTimer::Retransmit { ts, attempt: e.attempt },
                );
            }
        }
    }
}

/// Simulate a cluster of [`ReliableWtlwNode`]s and fold every node's
/// detected violations into [`Run::suspect`], so downstream certification
/// ([`Run::certifiable`]) refuses runs whose recovery layer saw trouble.
pub fn run_reliable(
    spec: &Arc<dyn ObjectSpec>,
    cfg: &SimConfig,
    x: Time,
    recovery: RecoveryConfig,
) -> Run {
    let params = cfg.params;
    // Nodes inherit the config's observability bundle, so one `with_obs` on
    // the SimConfig lights up both the engine and the recovery layer.
    let (mut run, nodes) = simulate_full(cfg, |pid| {
        ReliableWtlwNode::new(pid, Arc::clone(spec), params, x, recovery).with_obs(cfg.obs.clone())
    });
    for node in &nodes {
        run.suspect.extend(node.violations().iter().cloned());
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::Register;
    use lintime_adt::value::Value;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::faults::FaultPlan;
    use lintime_sim::schedule::Schedule;

    fn params() -> ModelParams {
        ModelParams::default_experiment()
    }

    #[test]
    fn backoff_budget_matches_geometric_sum() {
        let p = params();
        let rc = RecoveryConfig { rto: p.d * 2, max_retries: 3 };
        // rto + 2·rto + 4·rto = 7·rto
        assert_eq!(rc.backoff_budget(), p.d * 14);
        assert_eq!(RecoveryConfig::detection_only(p).backoff_budget(), Time::ZERO);
    }

    #[test]
    fn extended_waits_stretch_execute_and_aop_only() {
        let p = params();
        let rc = RecoveryConfig { rto: p.d * 2, max_retries: 1 };
        let x = Time(1200);
        let w = rc.extended_waits(p, x);
        let base = Waits::standard(p, x);
        assert_eq!(w.execute, base.execute + p.d * 2);
        assert_eq!(w.aop_respond, base.aop_respond + p.d * 2);
        assert_eq!(w.aop_backdate, base.aop_backdate);
        assert_eq!(w.mop_respond, base.mop_respond);
        assert_eq!(w.add, base.add);
    }

    #[test]
    fn faultless_run_is_clean_and_complete() {
        let p = params();
        let rc = RecoveryConfig::standard(p);
        let spec = erase(Register::new(0));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 42)).at(
                Pid(1),
                Time(100_000),
                Invocation::nullary("read"),
            ),
        );
        let (run, nodes) = simulate_full(&cfg, |pid| {
            ReliableWtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO, rc)
        });
        assert!(run.complete(), "{run}");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert!(run.certifiable());
        // Write still acks in X + ε; the read waits the extended d − X + B.
        assert_eq!(run.ops[0].latency(), Some(p.epsilon));
        assert_eq!(run.ops[1].latency(), Some(p.d + rc.backoff_budget()));
        assert_eq!(run.ops[1].ret, Some(Value::Int(42)));
        for node in &nodes {
            assert_eq!(node.retransmissions(), 0);
            assert!(node.violations().is_empty());
        }
    }

    #[test]
    fn dropped_broadcast_is_retransmitted_and_recovered() {
        let p = params();
        let rc = RecoveryConfig { rto: p.d * 2, max_retries: 1 };
        let spec = erase(Register::new(0));
        // Drop the very first message on link 0→1: the write announcement.
        // The retransmission must get it through, and p1's read must see it.
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_faults(FaultPlan::new(7).drop_exact(Pid(0), Pid(1), 0))
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 9)).at(
                Pid(1),
                Time(200_000),
                Invocation::nullary("read"),
            ));
        let (run, nodes) = simulate_full(&cfg, |pid| {
            ReliableWtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO, rc)
        });
        assert!(run.complete(), "{run}");
        assert_eq!(run.faults.len(), 1);
        assert_eq!(run.ops[1].ret, Some(Value::Int(9)), "{run}");
        assert!(nodes[0].retransmissions() >= 1);
        assert!(nodes.iter().all(|n| n.violations().is_empty()));
    }

    #[test]
    fn duplicates_are_suppressed() {
        let p = params();
        let rc = RecoveryConfig::standard(p);
        let spec = erase(Register::new(0));
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_faults(FaultPlan::new(3).duplicate_all(1.0))
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 5)).at(
                Pid(1),
                Time(200_000),
                Invocation::nullary("read"),
            ));
        let (run, nodes) = simulate_full(&cfg, |pid| {
            ReliableWtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO, rc)
        });
        assert!(run.complete(), "{run}");
        assert_eq!(run.ops[1].ret, Some(Value::Int(5)));
        let suppressed: u64 = nodes.iter().map(|n| n.duplicates_suppressed()).sum();
        assert!(suppressed > 0, "duplicated network must exercise suppression");
    }

    #[test]
    fn detector_flags_mutator_behind_the_frontier() {
        let p = params();
        let rc = RecoveryConfig::detection_only(p);
        let spec = erase(Register::new(0));
        // p0's write announcement to p1 is delayed far beyond d (a model
        // violation no retransmission will fix, since nothing was dropped).
        // p1 executes its own later write first, so the stale arrival lands
        // behind p1's frontier and must be flagged.
        let late = Time(100) + p.d + p.epsilon + Time(1000);
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_faults(FaultPlan::new(1).override_delay(Pid(0), Pid(1), 0, late))
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 1)).at(
                Pid(1),
                Time(100),
                Invocation::new("write", 2),
            ));
        let run = run_reliable(&spec, &cfg, Time::ZERO, rc);
        assert!(run.complete(), "{run}");
        assert!(run.is_suspect(), "stale arrival must mark the run suspect");
        assert!(!run.certifiable());
        assert!(run.suspect.iter().any(|v| v.contains("execution frontier")), "{:?}", run.suspect);
    }

    #[test]
    fn observed_recovery_traces_retransmissions() {
        let p = params();
        let rc = RecoveryConfig { rto: p.d * 2, max_retries: 1 };
        let spec = erase(Register::new(0));
        let (obs, ring) = Obs::ring(8192);
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_faults(FaultPlan::new(7).drop_exact(Pid(0), Pid(1), 0))
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 9)).at(
                Pid(1),
                Time(200_000),
                Invocation::nullary("read"),
            ))
            .with_obs(obs.clone());
        let run = run_reliable(&spec, &cfg, Time::ZERO, rc);
        assert!(run.complete(), "{run}");
        let events = ring.events();
        assert!(
            events.iter().any(|e| e.category == EventCategory::Retransmit),
            "dropped announcement must surface as a retransmit event"
        );
        assert!(obs.metrics.counter("reliable.retransmissions").get() >= 1);
        assert!(obs.metrics.counter("reliable.acks_sent").get() >= 1);
        assert_eq!(obs.metrics.counter("reliable.violations").get(), 0);
    }
}
