//! The delay-injecting message router.
//!
//! All inter-process traffic flows through one router thread, which holds
//! every message for its assigned delay (drawn from the same [`DelaySpec`]s
//! the simulator uses) before forwarding it to the destination's inbox.
//! This is the substitution for the paper's wide-area network: the delays
//! are WAN-shaped (`[d − u, d]` in virtual ticks) while the transport is
//! local std channels.
//!
//! Given a [`FaultPlan`], [`Router::spawn`] makes the router a *lossy*
//! channel: it consults the same deterministic plan the simulator uses and
//! drops, duplicates, or delay-overrides messages per link, recording every
//! injected fault in the [`RouterReport`].

use crate::clock::LiveClock;
use crate::work::WorkCount;
use lintime_obs::{EventCategory, Obs};
use lintime_sim::delay::DelaySpec;
use lintime_sim::faults::{FaultPlan, InjectedFault};
use lintime_sim::time::{ModelParams, Pid};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A routed message envelope.
pub struct Envelope<M> {
    /// Sender.
    pub from: Pid,
    /// Destination.
    pub to: Pid,
    /// Payload.
    pub msg: M,
}

struct Scheduled<M> {
    due: Instant,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// What the router observed over its lifetime.
#[derive(Debug, Default)]
pub struct RouterReport {
    /// Messages actually forwarded to an inbox.
    pub routed: u64,
    /// Faults injected by the [`FaultPlan`], in injection order.
    pub faults: Vec<InjectedFault>,
}

/// Handle to the router thread.
pub struct Router<M> {
    /// Send side handed to every node.
    pub tx: SyncSender<Envelope<M>>,
    handle: JoinHandle<RouterReport>,
}

impl<M: Clone + Send + 'static> Router<M> {
    /// Spawn the router. `inboxes[i]` receives messages destined for `p_i`,
    /// tagged with the sender (any `I` convertible from `(Pid, M)`, so a
    /// node's merged input channel works directly). The router stops once
    /// all `tx` clones are dropped and the heap drains; `join` yields the
    /// [`RouterReport`].
    ///
    /// With `faults`, the router mirrors the plan onto the live channels:
    /// per-link drops, duplicates, and delay overrides, decided by the same
    /// deterministic plan the simulator uses (identical seeds produce the
    /// same per-link fault pattern). With an active `obs`, every accepted,
    /// forwarded, dropped, duplicated, and delay-overridden message becomes
    /// a trace event, and `router.*` metrics track throughput plus the delay
    /// heap's depth (current and high-water).
    ///
    /// `clock` is called on the router thread before it routes anything, so
    /// the caller can bind the epoch once the thread is up. Each message is
    /// one unit of `work` from its send until the receiver handles it: the
    /// router releases the unit of a message it drops or cannot hand to a
    /// closed inbox, and adds one per duplicate it injects.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn<I: From<(Pid, M)> + Send + 'static>(
        params: ModelParams,
        delay: DelaySpec,
        clock: impl FnOnce() -> LiveClock + Send + 'static,
        inboxes: Vec<SyncSender<I>>,
        faults: Option<FaultPlan>,
        obs: Obs,
        work: Arc<WorkCount>,
    ) -> Router<M> {
        let (tx, rx): (SyncSender<Envelope<M>>, Receiver<Envelope<M>>) = sync_channel(4096);
        let handle = std::thread::Builder::new()
            .name("lintime-router".into())
            .spawn(move || route(params, delay, clock(), rx, inboxes, faults, obs, &work))
            .expect("spawn router");
        Router { tx, handle }
    }

    /// Wait for the router to drain and stop (drop all `tx` clones first).
    pub fn join(self) -> RouterReport {
        drop(self.tx);
        self.handle.join().expect("router panicked")
    }
}

/// Pre-registered router metric handles (only built when `obs` is active).
struct RouterMetrics {
    routed: lintime_obs::Counter,
    queue_depth: lintime_obs::Gauge,
    queue_high_water: lintime_obs::Gauge,
    drops: lintime_obs::Counter,
    duplicates: lintime_obs::Counter,
    delay_overrides: lintime_obs::Counter,
}

impl RouterMetrics {
    fn register(obs: &Obs) -> RouterMetrics {
        let r = &obs.metrics;
        RouterMetrics {
            routed: r.counter("router.routed"),
            queue_depth: r.gauge("router.queue_depth"),
            queue_high_water: r.gauge("router.queue_high_water"),
            drops: r.counter("router.fault.drops"),
            duplicates: r.counter("router.fault.duplicates"),
            delay_overrides: r.counter("router.fault.delay_overrides"),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn route<M: Clone, I: From<(Pid, M)>>(
    params: ModelParams,
    delay: DelaySpec,
    clock: LiveClock,
    rx: Receiver<Envelope<M>>,
    inboxes: Vec<SyncSender<I>>,
    faults: Option<FaultPlan>,
    obs: Obs,
    work: &WorkCount,
) -> RouterReport {
    let n = params.n;
    let mut counters = vec![0u64; n * n];
    let mut heap: BinaryHeap<Reverse<Scheduled<M>>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut report = RouterReport::default();
    let mut closed = false;
    let metrics = obs.is_active().then(|| RouterMetrics::register(&obs));
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(s)| s.due <= now) {
            let Reverse(s) = heap.pop().expect("peeked");
            obs.emit(clock.real_now().0, Some(s.env.to.0), EventCategory::Recv, || {
                format!("forwarded from {} to {}", s.env.from, s.env.to)
            });
            // A closed inbox means the node already shut down; drop quietly.
            if inboxes[s.env.to.0].send(I::from((s.env.from, s.env.msg))).is_err() {
                work.done(1);
            }
            report.routed += 1;
            if let Some(m) = &metrics {
                m.routed.inc();
                m.queue_depth.set(heap.len() as i64);
            }
        }
        if closed && heap.is_empty() {
            return report;
        }
        // Wait for new traffic or the next due time.
        let timeout = heap
            .peek()
            .map(|Reverse(s)| s.due.saturating_duration_since(Instant::now()))
            .unwrap_or(std::time::Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(env) => {
                let k = {
                    let c = &mut counters[env.from.0 * n + env.to.0];
                    let v = *c;
                    *c += 1;
                    v
                };
                let t_send = clock.real_now();
                obs.emit(t_send.0, Some(env.from.0), EventCategory::Send, || {
                    format!("accepted {} -> {} k={k}", env.from, env.to)
                });
                let mut ticks = delay.delay(params, env.from, env.to, k);
                if let Some(plan) = &faults {
                    if let Some(over) = plan.delay_override(env.from, env.to, k) {
                        ticks = over;
                        report.faults.push(InjectedFault::DelayOverridden {
                            from: env.from,
                            to: env.to,
                            k,
                            delay: over,
                        });
                        obs.emit(t_send.0, Some(env.from.0), EventCategory::DelayOverride, || {
                            format!("{} -> {} k={k}: delay forced to {over}", env.from, env.to)
                        });
                        if let Some(m) = &metrics {
                            m.delay_overrides.inc();
                        }
                    }
                    if plan.should_drop(env.from, env.to, k) {
                        report.faults.push(InjectedFault::Dropped {
                            from: env.from,
                            to: env.to,
                            k,
                            t_send,
                        });
                        obs.emit(t_send.0, Some(env.from.0), EventCategory::Drop, || {
                            format!("{} -> {} k={k} dropped", env.from, env.to)
                        });
                        if let Some(m) = &metrics {
                            m.drops.inc();
                        }
                        work.done(1);
                        continue;
                    }
                    if plan.should_duplicate(env.from, env.to, k) {
                        let extra = plan.duplicate_delay(params, env.from, env.to, k);
                        report.faults.push(InjectedFault::Duplicated {
                            from: env.from,
                            to: env.to,
                            k,
                            t_extra: t_send + extra,
                        });
                        obs.emit(t_send.0, Some(env.from.0), EventCategory::Duplicate, || {
                            format!("{} -> {} k={k} duplicated", env.from, env.to)
                        });
                        if let Some(m) = &metrics {
                            m.duplicates.inc();
                        }
                        work.add(1);
                        heap.push(Reverse(Scheduled {
                            due: Instant::now() + clock.to_duration(extra),
                            seq,
                            env: Envelope { from: env.from, to: env.to, msg: env.msg.clone() },
                        }));
                        seq += 1;
                    }
                }
                let due = Instant::now() + clock.to_duration(ticks);
                heap.push(Reverse(Scheduled { due, seq, env }));
                seq += 1;
                if let Some(m) = &metrics {
                    m.queue_depth.set(heap.len() as i64);
                    m.queue_high_water.set_max(heap.len() as i64);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => closed = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_sim::time::Time;
    use std::time::Duration;

    #[test]
    fn routes_with_injected_delay() {
        let params = ModelParams::new(2, Time(300), Time(120), Time(90));
        let tick = Duration::from_micros(100); // d = 30 ms
        let clock = LiveClock::new(Instant::now(), Time(0), tick);
        let (in0_tx, _in0_rx) = sync_channel::<(Pid, u32)>(16);
        let (in1_tx, in1_rx) = sync_channel::<(Pid, u32)>(16);
        let router: Router<u32> = Router::spawn(
            params,
            DelaySpec::AllMin,
            move || clock,
            vec![in0_tx, in1_tx],
            None,
            Obs::off(),
            Arc::default(),
        );
        let start = Instant::now();
        router.tx.send(Envelope { from: Pid(0), to: Pid(1), msg: 42 }).unwrap();
        let (from, msg) = in1_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let elapsed = start.elapsed();
        assert_eq!((from, msg), (Pid(0), 42));
        // d − u = 180 ticks = 18 ms; allow generous jitter upward.
        assert!(elapsed >= Duration::from_millis(17), "{elapsed:?} too fast");
        assert!(elapsed < Duration::from_millis(100), "{elapsed:?} too slow");
        assert_eq!(router.join().routed, 1);
    }

    #[test]
    fn preserves_order_for_equal_delays() {
        let params = ModelParams::new(2, Time(100), Time(50), Time(10));
        let tick = Duration::from_micros(50);
        let clock = LiveClock::new(Instant::now(), Time(0), tick);
        let (in0_tx, _in0) = sync_channel::<(Pid, u32)>(64);
        let (in1_tx, in1_rx) = sync_channel::<(Pid, u32)>(64);
        let router: Router<u32> = Router::spawn(
            params,
            DelaySpec::Constant(Time(60)),
            move || clock,
            vec![in0_tx, in1_tx],
            None,
            Obs::off(),
            Arc::default(),
        );
        for i in 0..10 {
            router.tx.send(Envelope { from: Pid(0), to: Pid(1), msg: i }).unwrap();
        }
        let got: Vec<u32> =
            (0..10).map(|_| in1_rx.recv_timeout(Duration::from_secs(2)).unwrap().1).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        router.join();
    }

    #[test]
    fn lossy_mode_drops_and_records_deterministically() {
        let params = ModelParams::new(2, Time(100), Time(50), Time(10));
        let tick = Duration::from_micros(50);
        let clock = LiveClock::new(Instant::now(), Time(0), tick);
        let plan = FaultPlan::new(11).drop_exact(Pid(0), Pid(1), 0).drop_exact(Pid(0), Pid(1), 2);
        let (in0_tx, _in0) = sync_channel::<(Pid, u32)>(64);
        let (in1_tx, in1_rx) = sync_channel::<(Pid, u32)>(64);
        let work = Arc::new(WorkCount::new());
        let router: Router<u32> = Router::spawn(
            params,
            DelaySpec::Constant(Time(60)),
            move || clock,
            vec![in0_tx, in1_tx],
            Some(plan),
            Obs::off(),
            Arc::clone(&work),
        );
        // Each message is one unit of work from its send on, as in a node.
        work.add(5);
        for i in 0..5 {
            router.tx.send(Envelope { from: Pid(0), to: Pid(1), msg: i }).unwrap();
        }
        let got: Vec<u32> =
            (0..3).map(|_| in1_rx.recv_timeout(Duration::from_secs(2)).unwrap().1).collect();
        assert_eq!(got, vec![1, 3, 4], "messages 0 and 2 must be dropped");
        let report = router.join();
        assert_eq!(report.routed, 3);
        assert_eq!(report.faults.len(), 2);
        // The two drops released their units; the three delivered messages
        // hold theirs until a receiver handles them.
        assert_eq!(work.get(), 3);
        assert!(report
            .faults
            .iter()
            .all(|f| matches!(f, InjectedFault::Dropped { from: Pid(0), to: Pid(1), .. })));
    }
}
