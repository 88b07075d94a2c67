//! The live-cluster harness: spawn one thread per process, drive a timed
//! invocation schedule in wall-clock time, and collect a recorded
//! [`Run`] that the linearizability checker can verify.
//!
//! A run takes as long as its work, not a fixed window. Tick 0 is fixed by
//! a readiness handshake once every node thread is up, and after the last
//! invocation the harness waits on the cluster's shared [`WorkCount`] for
//! quiescence: every invocation, message and timer handled, so nothing can
//! happen any more and every message sent has been handled or dropped.
//! [`LiveConfig::settle`] is only the upper bound for a cluster that never
//! goes quiet, counted from the later of the last scheduled invocation and
//! the instant the harness actually issued it; hitting it shuts the cluster
//! down exactly as a drained stop does, and is reported as a
//! [`EventCategory::Watchdog`] event and the `harness.settle_cutoffs`
//! counter.
//!
//! The recorded [`Run`] carries what the node threads counted: messages
//! handled ([`Run::events`], also [`Run::msgs_sent`]), injected faults
//! (grouped by sending process, each group in injection order), and the
//! [`Run::delay_violations`] of messages handled outside `[d − u, d]` of
//! their logical send (see [`crate::platform`]).
//!
//! The harness never hangs on a sick cluster: configurations are validated
//! up front (undersized delay matrices are a clear error, not a panic), and
//! a watchdog derived from [`LiveConfig::settle`] collects node outputs with
//! a deadline. A node thread that panicked or stalled yields a truncated run
//! carrying a per-process diagnosis instead of a deadlock — and truncated
//! runs are refused by the checker, so they can never be certified.

use crate::clock::LiveClock;
use crate::platform::{spawn_node, Network, NodeInput, NodeOutput};
use crate::work::WorkCount;
use lintime_adt::spec::ObjectSpec;
use lintime_check::stream::{self, StreamConfig, StreamStats, StreamVerdict};
use lintime_obs::{EventCategory, Obs};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::OpEvent;
use lintime_sim::faults::FaultPlan;
use lintime_sim::node::Node;
use lintime_sim::run::Run;
use lintime_sim::schedule::TimedInvocation;
use lintime_sim::time::{ModelParams, Pid, Time};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of a live cluster.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Model parameters, in virtual ticks.
    pub params: ModelParams,
    /// Real duration of one virtual tick. Pick it large enough that OS
    /// scheduling jitter (≈ a millisecond) is small compared to `u` ticks.
    pub tick: Duration,
    /// Clock offsets per process (deliberate skew injection).
    pub offsets: Vec<Time>,
    /// Message-delay model (same specs as the simulator).
    pub delay: DelaySpec,
    /// Upper bound (in ticks after the last invocation, scheduled or
    /// actually issued, whichever is later) on how long the cluster may keep
    /// working. The harness stops as soon as the cluster is quiescent —
    /// every invocation, message and timer handled — and only waits this
    /// long for one that never goes quiet (a stalled or panicked node, a
    /// timer chain that never ends), which it reports through
    /// [`LiveConfig::obs`]. Also sizes the watchdog deadline for node-thread
    /// shutdown.
    pub settle: Time,
    /// Optional deterministic fault plan, applied by each node to its own
    /// sends (drops, duplicates, delay overrides per link).
    pub faults: Option<FaultPlan>,
    /// Observability bundle, shared with the node threads. [`Obs::off`]
    /// (the default) keeps the harness and nodes uninstrumented.
    pub obs: Obs,
    /// Online-checker configuration for [`run_live_checked`]; `None` (the
    /// default) skips streaming verification entirely.
    pub stream_check: Option<StreamConfig>,
    /// Live operation-event sink: every node thread sends an
    /// [`OpEvent`] the moment it records an invocation or response, so an
    /// external consumer (a [`lintime_check::stream::StreamChecker`] thread,
    /// the serve harness) can follow the run *while it executes* instead of
    /// waiting for shutdown. Events from different node threads interleave
    /// in channel order, which may not be globally time-sorted — the
    /// streaming checker tolerates this (non-monotone streams disable GC but
    /// are still decided at finish). A consumer that hangs up is ignored.
    pub op_sink: Option<std::sync::mpsc::Sender<OpEvent>>,
}

impl LiveConfig {
    /// A config with zero offsets, a settle time of `3d`, and no faults.
    pub fn new(params: ModelParams, tick: Duration, delay: DelaySpec) -> Self {
        LiveConfig {
            params,
            tick,
            offsets: vec![Time::ZERO; params.n],
            delay,
            settle: params.d * 3,
            faults: None,
            obs: Obs::off(),
            stream_check: None,
            op_sink: None,
        }
    }

    /// Enable streaming verification in [`run_live_checked`] (builder style).
    pub fn with_stream_check(mut self, cfg: StreamConfig) -> Self {
        self.stream_check = Some(cfg);
        self
    }

    /// Stream live [`OpEvent`]s to `sink` as node threads record them
    /// (builder style). See [`LiveConfig::op_sink`].
    pub fn with_op_sink(mut self, sink: std::sync::mpsc::Sender<OpEvent>) -> Self {
        self.op_sink = Some(sink);
        self
    }

    /// Inject `plan` into the nodes' sends (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach an observability bundle (builder style).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Structural validation, mirroring `SimConfig::validate`: the tick must
    /// be positive, offsets must match `n` and a delay matrix must be `n × n`.
    pub fn validate(&self) -> Result<(), String> {
        if self.tick.is_zero() {
            return Err("tick duration must be positive".to_string());
        }
        if self.offsets.len() != self.params.n {
            return Err(format!(
                "{} clock offsets but the model has n = {} processes",
                self.offsets.len(),
                self.params.n
            ));
        }
        self.delay.validate_shape(self.params.n)
    }
}

/// Readiness handshake: every thread the harness spawns checks in, and the
/// harness fixes the cluster's epoch only once all of them are up, so no
/// thread start-up cost lands inside the timed schedule.
#[derive(Default)]
struct StartGate {
    /// Threads checked in so far, and the epoch once it is fixed.
    state: Mutex<(usize, Option<Instant>)>,
    changed: Condvar,
}

impl StartGate {
    /// On a spawned thread: check in, then block until the epoch is fixed.
    fn check_in(&self) -> Instant {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.0 += 1;
        self.changed.notify_all();
        let state = self
            .changed
            .wait_while(state, |(_, epoch)| epoch.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        state.1.expect("the gate opens with an epoch")
    }

    /// On the harness: wait for `parties` check-ins, then fix the epoch at
    /// the current instant and release every thread.
    fn open(&self, parties: usize) -> Instant {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut state = self
            .changed
            .wait_while(state, |(ready, _)| *ready < parties)
            .unwrap_or_else(PoisonError::into_inner);
        let epoch = Instant::now();
        state.1 = Some(epoch);
        self.changed.notify_all();
        epoch
    }
}

/// [`run_live`] plus streaming verification: when
/// [`LiveConfig::stream_check`] is set, the collected run is driven through
/// the online checker ([`lintime_check::stream`]) in event-time order and
/// the streaming verdict is returned alongside the run.
///
/// Node threads only surface their operation records at shutdown (the
/// watchdog collects them in one sweep), so "streaming" here means the
/// event-ordered replay adapter [`stream::replay_run`]: the same
/// feed-one-event-at-a-time code path, bounded-memory window and GC as a
/// truly live consumer, applied as soon as the records exist. Crashed or
/// still-pending invocations are left pending and decided by the
/// finish-time completion search; a truncated run yields
/// [`stream::UnknownReason::MalformedStream`], never a certificate — mirroring the
/// offline checker's refusal. The checker's `check.stream.*` counters land
/// in [`LiveConfig::obs`].
pub fn run_live_checked<N: Node + 'static>(
    cfg: &LiveConfig,
    schedule: &[TimedInvocation],
    spec: &Arc<dyn ObjectSpec>,
    make_node: impl FnMut(Pid) -> N,
) -> (Run, Option<(StreamVerdict, StreamStats)>) {
    let run = run_live(cfg, schedule, make_node);
    let checked = cfg
        .stream_check
        .clone()
        .map(|stream_cfg| stream::replay_run(spec, &run, stream_cfg, &cfg.obs));
    (run, checked)
}

/// Run a timed schedule against a live cluster of `Node`s and record the
/// result. Invocation and response times are measured in virtual ticks from
/// the cluster epoch, so the returned [`Run`] is directly comparable to a
/// simulator run (modulo scheduling jitter). Returns once the cluster is
/// quiescent after the last invocation, or `settle` after it at the latest.
///
/// Never hangs: an invalid configuration or a crashed/stalled node thread
/// produces a truncated run with a diagnosis in [`Run::errors`].
pub fn run_live<N: Node + 'static>(
    cfg: &LiveConfig,
    schedule: &[TimedInvocation],
    mut make_node: impl FnMut(Pid) -> N,
) -> Run {
    let n = cfg.params.n;
    let mut errors: Vec<String> = Vec::new();
    let mut truncated = false;

    if let Err(e) = cfg.validate() {
        return Run {
            params: cfg.params,
            offsets: cfg.offsets.clone(),
            ops: Vec::new(),
            msgs: Vec::new(),
            views: Vec::new(),
            last_time: Time::ZERO,
            events: 0,
            errors: vec![format!("invalid configuration: {e}")],
            delay_violations: 0,
            truncated: true,
            crashed_pending: 0,
            unadmitted: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            faults: Vec::new(),
            suspect: Vec::new(),
        };
    }

    // One input channel per node: messages from the other nodes and
    // harness commands share it, so the node loop is a single recv.
    let (inboxes, inputs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
    let net = Arc::new(Network {
        params: cfg.params,
        delay: cfg.delay.clone(),
        faults: cfg.faults.clone(),
        inboxes,
        op_sink: cfg.op_sink.clone(),
        obs: cfg.obs.clone(),
        work: WorkCount::new(),
    });
    let (obs, work) = (&net.obs, &net.work);
    // Build every node before spawning a thread, so a panicking constructor
    // cannot leave threads waiting in the start handshake.
    let nodes: Vec<N> = (0..n).map(|i| make_node(Pid(i))).collect();
    let gate = Arc::new(StartGate::default());
    let (results_tx, results_rx) = channel::<(Pid, NodeOutput)>();
    let mut handles = Vec::with_capacity(n);
    for (i, (node, inputs)) in nodes.into_iter().zip(inputs).enumerate() {
        let (gate, offset, tick) = (Arc::clone(&gate), cfg.offsets[i], cfg.tick);
        handles.push(spawn_node(
            Pid(i),
            move || LiveClock::new(gate.check_in(), offset, tick),
            node,
            inputs,
            Arc::clone(&net),
            results_tx.clone(),
        ));
    }
    drop(results_tx);

    // Tick 0 is when every node thread is up.
    let base_clock = LiveClock::new(gate.open(n), Time::ZERO, cfg.tick);

    // Drive the schedule in wall-clock time.
    let mut timed: Vec<TimedInvocation> = schedule.to_vec();
    timed.sort_by_key(|t| t.at);
    let mut last = Time::ZERO;
    for inv in timed {
        let due = base_clock.instant_at_real(inv.at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let pid = inv.pid;
        obs.emit(inv.at.0, Some(pid.0), EventCategory::OpInvoke, || format!("{:?}", inv.inv));
        work.add(1);
        if net.inboxes[pid.0].send(NodeInput::Invoke(inv.inv)).is_err() {
            work.done(1);
            errors.push(format!("process {pid}: invocation not delivered — its thread is dead"));
            truncated = true;
            obs.emit(inv.at.0, Some(pid.0), EventCategory::Watchdog, || {
                "invocation undeliverable: its thread is dead".to_string()
            });
            if obs.is_active() {
                obs.metrics.counter("harness.undeliverable_invocations").inc();
            }
        }
        last = last.max(inv.at);
    }

    // Stop once the cluster is quiescent, or `settle` after the last
    // invocation if it never goes quiet: counted from when that invocation
    // was due or from when it was actually issued, whichever is later, so a
    // harness thread held off the CPU cannot eat the cluster's time. The run
    // is recorded the same way either way.
    let deadline = base_clock
        .instant_at_real(last + cfg.settle)
        .max(Instant::now() + base_clock.to_duration(cfg.settle));
    if !work.wait_idle_until(deadline) {
        let outstanding = work.get();
        obs.emit(base_clock.real_now().0, None, EventCategory::Watchdog, || {
            format!("cluster still busy at last invocation + settle: {outstanding} work units")
        });
        if obs.is_active() {
            obs.metrics.counter("harness.settle_cutoffs").inc();
        }
    }
    for tx in &net.inboxes {
        let _ = tx.send(NodeInput::Shutdown);
    }

    // Watchdog: collect node outputs with a settle-derived wall-clock
    // deadline instead of joining handles that may never finish.
    let grace = base_clock.to_duration(cfg.settle).max(Duration::from_millis(250));
    let deadline = Instant::now() + grace;
    let mut outputs: Vec<Option<NodeOutput>> = (0..n).map(|_| None).collect();
    let mut received = 0usize;
    while received < n {
        let remain = deadline.saturating_duration_since(Instant::now());
        match results_rx.recv_timeout(remain) {
            Ok((pid, out)) => {
                outputs[pid.0] = Some(out);
                received += 1;
            }
            Err(_) => break, // deadline passed or every sender vanished
        }
    }

    let (mut ops, mut events, mut delay_violations, mut faults) = (Vec::new(), 0, 0, Vec::new());
    for (i, slot) in outputs.into_iter().enumerate() {
        match slot {
            Some(out) => {
                if out.panicked {
                    truncated = true;
                }
                ops.extend(out.records);
                errors.extend(out.errors);
                events += out.delivered;
                delay_violations += out.delay_violations;
                faults.extend(out.faults);
            }
            None => {
                truncated = true;
                errors.push(format!(
                    "process p{i}: node thread did not shut down within the {grace:?} watchdog \
                     deadline — crashed, stalled, or deadlocked"
                ));
                obs.emit(base_clock.real_now().0, Some(i), EventCategory::Watchdog, || {
                    format!("node thread missed the {grace:?} shutdown deadline")
                });
                if obs.is_active() {
                    obs.metrics.counter("harness.watchdog_fires").inc();
                }
            }
        }
    }
    // A stuck node thread is left behind; joining it would hang.
    if received == n {
        for h in handles {
            let _ = h.join();
        }
    }

    ops.sort_by_key(|o| (o.t_invoke, o.pid));
    let last_time = ops
        .iter()
        .flat_map(|o| [Some(o.t_invoke), o.t_respond])
        .flatten()
        .max()
        .unwrap_or(Time::ZERO);
    Run {
        params: cfg.params,
        offsets: cfg.offsets.clone(),
        ops,
        msgs: Vec::new(),
        views: Vec::new(),
        last_time,
        events,
        errors,
        delay_violations,
        truncated,
        crashed_pending: 0,
        unadmitted: 0,
        // The nodes count the messages they handle; byte-level wire
        // accounting is a simulator-only refinement.
        msgs_sent: events,
        bytes_sent: 0,
        faults,
        suspect: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::{erase, Invocation};
    use lintime_adt::types::FifoQueue;
    use lintime_adt::value::Value;
    use lintime_check::stream::UnknownReason;
    use lintime_core::wtlw::WtlwNode;
    use lintime_sim::faults::InjectedFault;
    use lintime_sim::node::Effects;
    use std::sync::Arc;

    /// Small virtual scale: d = 300 ticks of 200 µs = 60 ms; jitter of a
    /// millisecond or two is ≈ 10 ticks ≪ u = 120.
    fn cfg() -> LiveConfig {
        let params = ModelParams::new(3, Time(300), Time(120), Time(90));
        LiveConfig::new(params, Duration::from_micros(200), DelaySpec::AllMin)
    }

    #[test]
    fn live_wtlw_queue_round_trip() {
        let cfg = cfg();
        let p = cfg.params;
        let spec = erase(FifoQueue::new());
        let schedule = vec![
            TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::new("enqueue", 7) },
            TimedInvocation { pid: Pid(1), at: Time(1500), inv: Invocation::nullary("peek") },
            TimedInvocation { pid: Pid(2), at: Time(3000), inv: Invocation::nullary("dequeue") },
        ];
        let run =
            run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO));
        assert!(run.complete(), "{run}");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert!(!run.truncated);
        assert_eq!(run.ops[1].ret, Some(Value::Int(7)));
        assert_eq!(run.ops[2].ret, Some(Value::Int(7)));
        // Latencies approximate the formulas: enqueue ≈ ε = 90, peek ≈ d =
        // 300, dequeue ≈ d + ε = 390 (tolerate jitter of ~40 ticks).
        let tol = Time(40);
        let enq = run.ops[0].latency().unwrap();
        assert!(enq >= p.epsilon && enq <= p.epsilon + tol, "enqueue {enq}");
        let peek = run.ops[1].latency().unwrap();
        assert!(peek >= p.d && peek <= p.d + tol, "peek {peek}");
        let deq = run.ops[2].latency().unwrap();
        assert!(deq >= p.d + p.epsilon && deq <= p.d + p.epsilon + tol, "dequeue {deq}");
    }

    #[test]
    fn live_run_is_linearizable() {
        let cfg = cfg();
        let p = cfg.params;
        let spec = erase(FifoQueue::new());
        // Concurrent enqueues from all three processes, then probes.
        let schedule = vec![
            TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::new("enqueue", 1) },
            TimedInvocation { pid: Pid(1), at: Time(55), inv: Invocation::new("enqueue", 2) },
            TimedInvocation { pid: Pid(2), at: Time(60), inv: Invocation::new("enqueue", 3) },
            TimedInvocation { pid: Pid(0), at: Time(2000), inv: Invocation::nullary("dequeue") },
            TimedInvocation { pid: Pid(1), at: Time(3500), inv: Invocation::nullary("dequeue") },
            TimedInvocation { pid: Pid(2), at: Time(5000), inv: Invocation::nullary("dequeue") },
        ];
        let run =
            run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO));
        assert!(run.complete(), "{run}");
        let history = lintime_check::history::History::from_run(&run).unwrap();
        let verdict = lintime_check::monitor::check_fast(&spec, &history);
        assert!(verdict.is_linearizable(), "{run}");
    }

    #[test]
    fn live_run_streams_through_the_online_checker() {
        let cfg = cfg().with_stream_check(StreamConfig::default().with_flush_ops(2));
        let p = cfg.params;
        let spec = erase(FifoQueue::new());
        let schedule = vec![
            TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::new("enqueue", 1) },
            TimedInvocation { pid: Pid(1), at: Time(55), inv: Invocation::new("enqueue", 2) },
            TimedInvocation { pid: Pid(0), at: Time(2000), inv: Invocation::nullary("dequeue") },
            TimedInvocation { pid: Pid(1), at: Time(3500), inv: Invocation::nullary("dequeue") },
        ];
        let (run, checked) = run_live_checked(&cfg, &schedule, &spec, |pid| {
            WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO)
        });
        assert!(run.complete(), "{run}");
        let (verdict, stats) = checked.expect("stream_check was configured");
        assert!(verdict.is_ok(), "{verdict:?}");
        assert_eq!(stats.ops, 4);
    }

    #[test]
    fn op_sink_streams_live_events_to_a_concurrent_checker() {
        use lintime_check::stream::StreamChecker;
        let (tx, rx) = std::sync::mpsc::channel();
        let cfg = cfg().with_op_sink(tx);
        let p = cfg.params;
        let spec = erase(FifoQueue::new());
        // A concurrent consumer drives the online checker while the cluster
        // executes; the channel closes when the last node thread exits.
        let consumer_spec = Arc::clone(&spec);
        let consumer = std::thread::spawn(move || {
            let mut checker = StreamChecker::new(&consumer_spec);
            let mut events = 0u64;
            while let Ok(ev) = rx.recv() {
                checker.feed(&ev);
                events += 1;
            }
            (checker.finish(), events)
        });
        let schedule = vec![
            TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::new("enqueue", 1) },
            TimedInvocation { pid: Pid(1), at: Time(55), inv: Invocation::new("enqueue", 2) },
            TimedInvocation { pid: Pid(0), at: Time(2000), inv: Invocation::nullary("dequeue") },
            TimedInvocation { pid: Pid(1), at: Time(3500), inv: Invocation::nullary("dequeue") },
        ];
        let run =
            run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO));
        assert!(run.complete(), "{run}");
        // The config holds the last sender clone; dropping it closes the
        // channel so the consumer's recv loop terminates.
        drop(cfg);
        let ((verdict, stats), events) = consumer.join().expect("consumer thread");
        assert_eq!(events, 8, "one invoke + one respond per operation");
        assert_eq!(stats.ops, 4);
        assert!(verdict.is_ok(), "{verdict:?}");
    }

    /// A node that panics on its first invocation.
    struct PanicNode;
    impl Node for PanicNode {
        type Msg = ();
        type Timer = ();
        fn on_invoke(&mut self, _inv: Invocation, _fx: &mut Effects<(), ()>) {
            panic!("injected crash for watchdog test");
        }
        fn on_deliver(&mut self, _from: Pid, _msg: (), _fx: &mut Effects<(), ()>) {}
        fn on_timer(&mut self, _t: (), _fx: &mut Effects<(), ()>) {}
    }

    #[test]
    fn panicking_node_yields_diagnosed_truncated_run() {
        let cfg = cfg().with_stream_check(StreamConfig::default());
        let schedule =
            vec![TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::nullary("boom") }];
        let spec: Arc<dyn lintime_adt::spec::ObjectSpec> = erase(FifoQueue::new());
        let (run, checked) = run_live_checked(&cfg, &schedule, &spec, |_| PanicNode);
        assert!(run.truncated, "{run}");
        assert!(!run.certifiable());
        // The streaming path must refuse the truncated record the same way
        // the offline checker does: Unknown, never a certificate.
        let (verdict, _) = checked.unwrap();
        assert!(
            matches!(verdict, StreamVerdict::Unknown(UnknownReason::MalformedStream)),
            "{verdict:?}"
        );
        assert!(
            run.errors.iter().any(|e| e.contains("panicked") && e.contains("injected crash")),
            "{:?}",
            run.errors
        );
    }

    /// A node that wedges (sleeps far past the watchdog) on invocation.
    struct StallNode;
    impl Node for StallNode {
        type Msg = ();
        type Timer = ();
        fn on_invoke(&mut self, _inv: Invocation, _fx: &mut Effects<(), ()>) {
            std::thread::sleep(Duration::from_secs(5));
        }
        fn on_deliver(&mut self, _from: Pid, _msg: (), _fx: &mut Effects<(), ()>) {}
        fn on_timer(&mut self, _t: (), _fx: &mut Effects<(), ()>) {}
    }

    #[test]
    fn stalled_node_trips_the_watchdog_instead_of_hanging() {
        let mut cfg = cfg();
        cfg.settle = Time(300); // keep the test fast: 60 ms settle + grace
        let (obs, ring) = Obs::ring(1024);
        cfg = cfg.with_obs(obs.clone());
        let schedule =
            vec![TimedInvocation { pid: Pid(1), at: Time(50), inv: Invocation::nullary("wedge") }];
        let start = Instant::now();
        let run = run_live(&cfg, &schedule, |_| StallNode);
        assert!(start.elapsed() < Duration::from_secs(4), "watchdog must not wait out the stall");
        assert!(run.truncated, "{run}");
        assert!(
            run.errors.iter().any(|e| e.contains("p1") && e.contains("watchdog")),
            "{:?}",
            run.errors
        );
        // The watchdog firing is also visible through the observability layer.
        assert_eq!(obs.metrics.counter("harness.watchdog_fires").get(), 1);
        assert!(ring.events().iter().any(|e| e.category == EventCategory::Watchdog));
        assert!(
            ring.events().iter().any(|e| e.category == EventCategory::OpInvoke),
            "driven invocations must be traced"
        );
    }

    /// Messages Algorithm 1 sends for `schedule`: every operation but a pure
    /// accessor announces itself to the `n − 1` other processes.
    fn wtlw_sends(spec: &Arc<dyn ObjectSpec>, n: usize, schedule: &[TimedInvocation]) -> u64 {
        let announced = schedule
            .iter()
            .filter(|t| spec.op_meta(t.inv.op).is_some_and(|m| m.class.is_mutator()))
            .count();
        ((n - 1) * announced) as u64
    }

    #[test]
    fn drained_run_returns_long_before_settle() {
        let mut cfg = cfg();
        let p = cfg.params;
        cfg.settle = p.d * 50; // 3 s: an upper bound, never waited out
        let (obs, _ring) = Obs::ring(1024);
        cfg = cfg.with_obs(obs.clone());
        let spec = erase(FifoQueue::new());
        let schedule = vec![
            TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::new("enqueue", 1) },
            TimedInvocation { pid: Pid(1), at: Time(55), inv: Invocation::new("enqueue", 2) },
            TimedInvocation { pid: Pid(2), at: Time(900), inv: Invocation::nullary("peek") },
            TimedInvocation { pid: Pid(0), at: Time(1500), inv: Invocation::nullary("dequeue") },
        ];
        let last = schedule.iter().map(|t| t.at).max().unwrap();
        let start = Instant::now();
        let run =
            run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO));
        let took = start.elapsed();
        let limit = cfg.tick * (last + cfg.settle / 2).as_ticks() as u32;
        assert!(took < limit, "took {took:?}, half the settle ends at {limit:?}");
        assert!(run.complete() && !run.truncated, "{run}");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        // Quiescence means every message sent was routed: three announcing
        // operations, two messages each.
        assert_eq!(run.events, wtlw_sends(&spec, p.n, &schedule));
        assert_eq!(run.events, 6);
        let history = lintime_check::history::History::from_run(&run).unwrap();
        assert!(lintime_check::monitor::check_fast(&spec, &history).is_linearizable(), "{run}");
        assert_eq!(obs.metrics.counter("harness.settle_cutoffs").get(), 0);
    }

    /// A node that answers at once and then keeps a timer re-arming forever.
    struct TickerNode;
    impl Node for TickerNode {
        type Msg = ();
        type Timer = ();
        fn on_invoke(&mut self, _inv: Invocation, fx: &mut Effects<(), ()>) {
            fx.respond(Value::Unit);
            fx.set_timer(Time(10), ());
        }
        fn on_deliver(&mut self, _from: Pid, _msg: (), _fx: &mut Effects<(), ()>) {}
        fn on_timer(&mut self, _t: (), fx: &mut Effects<(), ()>) {
            fx.set_timer(Time(10), ());
        }
    }

    #[test]
    fn endless_timer_chain_stops_at_the_settle_bound() {
        let mut cfg = cfg();
        cfg.settle = Time(300); // 60 ms
        let (obs, ring) = Obs::ring(1024);
        cfg = cfg.with_obs(obs.clone());
        let schedule =
            vec![TimedInvocation { pid: Pid(2), at: Time(50), inv: Invocation::nullary("tick") }];
        let start = Instant::now();
        let run = run_live(&cfg, &schedule, |_| TickerNode);
        let bound = cfg.tick * (Time(50) + cfg.settle).as_ticks() as u32;
        assert!(start.elapsed() >= bound, "stopped at {:?}, before {bound:?}", start.elapsed());
        assert!(run.complete() && !run.truncated, "{run}");
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert_eq!(obs.metrics.counter("harness.settle_cutoffs").get(), 1);
        assert_eq!(obs.metrics.counter("harness.watchdog_fires").get(), 0);
        assert!(ring.events().iter().any(|e| e.category == EventCategory::Watchdog));
    }

    #[test]
    fn lossy_run_still_goes_quiet_and_routes_every_surviving_copy() {
        let mut cfg = cfg().with_faults(
            FaultPlan::new(3)
                .drop_exact(Pid(0), Pid(1), 0)
                .drop_exact(Pid(2), Pid(0), 1)
                .duplicate_all(0.5),
        );
        let p = cfg.params;
        cfg.settle = p.d * 50;
        let (obs, _ring) = Obs::ring(4096);
        cfg = cfg.with_obs(obs.clone());
        let spec = erase(FifoQueue::new());
        let schedule = vec![
            TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::new("enqueue", 1) },
            TimedInvocation { pid: Pid(1), at: Time(55), inv: Invocation::new("enqueue", 2) },
            TimedInvocation { pid: Pid(2), at: Time(60), inv: Invocation::new("enqueue", 3) },
            TimedInvocation { pid: Pid(2), at: Time(900), inv: Invocation::new("enqueue", 4) },
            TimedInvocation { pid: Pid(0), at: Time(1500), inv: Invocation::nullary("dequeue") },
        ];
        let last = schedule.iter().map(|t| t.at).max().unwrap();
        let start = Instant::now();
        let run =
            run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO));
        let limit = cfg.tick * (last + cfg.settle / 2).as_ticks() as u32;
        assert!(start.elapsed() < limit, "took {:?}", start.elapsed());
        assert!(run.complete() && !run.truncated, "{run}");
        assert_eq!(obs.metrics.counter("harness.settle_cutoffs").get(), 0);
        let count = |dup: bool| {
            run.faults
                .iter()
                .filter(|f| {
                    if dup {
                        matches!(f, InjectedFault::Duplicated { .. })
                    } else {
                        matches!(f, InjectedFault::Dropped { .. })
                    }
                })
                .count() as u64
        };
        let (dropped, duplicated) = (count(false), count(true));
        assert_eq!(dropped, 2);
        assert!(duplicated > 0, "the plan must duplicate something: {:?}", run.faults);
        let sent = wtlw_sends(&spec, p.n, &schedule);
        assert_eq!(run.events, sent - dropped + duplicated, "{:?}", run.faults);
    }

    /// Algorithm 1, except that one process's invocation handler stalls
    /// first: a node thread held off the CPU while work piles up behind it.
    struct StallingInvoke {
        inner: WtlwNode,
        stall: Option<Duration>,
    }
    impl Node for StallingInvoke {
        type Msg = <WtlwNode as Node>::Msg;
        type Timer = <WtlwNode as Node>::Timer;
        fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<Self::Msg, Self::Timer>) {
            if let Some(stall) = self.stall {
                std::thread::sleep(stall);
            }
            self.inner.on_invoke(inv, fx);
        }
        fn on_deliver(
            &mut self,
            from: Pid,
            msg: Self::Msg,
            fx: &mut Effects<Self::Msg, Self::Timer>,
        ) {
            self.inner.on_deliver(from, msg, fx);
        }
        fn on_timer(&mut self, timer: Self::Timer, fx: &mut Effects<Self::Msg, Self::Timer>) {
            self.inner.on_timer(timer, fx);
        }
    }

    #[test]
    fn a_stalled_node_handles_what_arrived_before_its_overdue_timers() {
        let cfg = cfg();
        let p = cfg.params;
        let spec = erase(FifoQueue::new());
        // p1's peek starts just after the enqueue answers, then its handler
        // stalls for 2d. The enqueue's announcement reaches p1's inbox at
        // d − u, long before the peek's timer is due at d; when p1 wakes,
        // both are overdue and the announcement must be handled first.
        let schedule = vec![
            TimedInvocation { pid: Pid(0), at: Time(0), inv: Invocation::new("enqueue", 1) },
            TimedInvocation {
                pid: Pid(1),
                at: p.epsilon + Time(10),
                inv: Invocation::nullary("peek"),
            },
        ];
        let stall = cfg.tick * (p.d * 2).as_ticks() as u32;
        let run = run_live(&cfg, &schedule, |pid| StallingInvoke {
            inner: WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO),
            stall: (pid == Pid(1)).then_some(stall),
        });
        assert!(run.complete() && !run.truncated, "{run}");
        assert_eq!(run.ops[1].ret, Some(Value::Int(1)), "the peek missed the enqueue: {run}");
        let history = lintime_check::history::History::from_run(&run).unwrap();
        assert!(lintime_check::monitor::check_fast(&spec, &history).is_linearizable(), "{run}");
        assert_eq!(run.delay_violations, 0, "{run}");
    }

    #[test]
    fn an_overridden_delay_past_d_counts_as_a_delay_violation() {
        let p = cfg().params;
        let plan = FaultPlan::new(1).override_delay(Pid(0), Pid(1), 0, p.d + Time(60));
        let cfg = cfg().with_faults(plan.clone());
        let spec = erase(FifoQueue::new());
        let schedule =
            vec![TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::new("enqueue", 1) }];
        let run =
            run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO));
        assert!(run.complete() && !run.truncated, "{run}");
        assert!(
            run.faults.iter().any(|f| matches!(f, InjectedFault::DelayOverridden { k: 0, .. })),
            "{:?}",
            run.faults
        );
        let sim = lintime_sim::engine::simulate(
            &lintime_sim::engine::SimConfig::new(p, cfg.delay.clone())
                .with_schedule(lintime_sim::schedule::Schedule::new().at(
                    Pid(0),
                    Time(50),
                    Invocation::new("enqueue", 1),
                ))
                .with_faults(plan),
            |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO),
        );
        assert_eq!(sim.delay_violations, 1);
        assert_eq!(run.delay_violations, sim.delay_violations, "{run}");
        assert!(!run.is_admissible());
    }

    /// A trace sink that holds up the first `OpInvoke` it records: the
    /// harness thread descheduled just before it issues the schedule.
    struct LateFirstInvoke {
        nap: Duration,
        napped: std::sync::atomic::AtomicBool,
    }
    impl lintime_obs::TraceSink for LateFirstInvoke {
        fn record(&self, event: lintime_obs::TraceEvent) {
            if event.category == EventCategory::OpInvoke
                && !self.napped.swap(true, std::sync::atomic::Ordering::SeqCst)
            {
                std::thread::sleep(self.nap);
            }
        }
    }

    #[test]
    fn the_settle_bound_counts_from_the_last_invocation_issued() {
        let mut cfg = cfg();
        let p = cfg.params;
        cfg.settle = p.d * 2; // 120 ms: the run drains in d + ε
        let nap = cfg.tick * (cfg.settle * 2).as_ticks() as u32;
        let sink = Arc::new(LateFirstInvoke { nap, napped: Default::default() });
        let obs = Obs::new(lintime_obs::TraceHandle::to_sink(sink), lintime_obs::Registry::new());
        cfg = cfg.with_obs(obs.clone());
        let spec = erase(FifoQueue::new());
        // All three are issued together, 2 × settle after the first is due.
        let schedule = vec![
            TimedInvocation { pid: Pid(0), at: Time(50), inv: Invocation::new("enqueue", 1) },
            TimedInvocation { pid: Pid(1), at: Time(55), inv: Invocation::new("enqueue", 2) },
            TimedInvocation { pid: Pid(2), at: Time(60), inv: Invocation::new("enqueue", 3) },
        ];
        let run =
            run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO));
        assert!(run.complete() && !run.truncated, "{run}");
        assert_eq!(obs.metrics.counter("harness.settle_cutoffs").get(), 0);
    }

    /// Sends `count` numbered messages to p1 when invoked; p1 logs each one
    /// it handles with its delay in logical ticks and in wall-clock time.
    struct Probe {
        count: u32,
        log: Arc<Mutex<Vec<(u32, Time, Duration)>>>,
    }
    impl Node for Probe {
        type Msg = (u32, Time, Instant);
        type Timer = ();
        fn on_invoke(&mut self, _inv: Invocation, fx: &mut Effects<Self::Msg, ()>) {
            for i in 0..self.count {
                fx.send(Pid(1), (i, fx.local_time(), Instant::now()));
            }
            fx.respond(Value::Unit);
        }
        fn on_deliver(&mut self, _from: Pid, msg: Self::Msg, fx: &mut Effects<Self::Msg, ()>) {
            let (i, sent, wall) = msg;
            self.log.lock().unwrap().push((i, fx.local_time() - sent, wall.elapsed()));
        }
        fn on_timer(&mut self, _t: (), _fx: &mut Effects<Self::Msg, ()>) {}
    }

    /// Run one `send` invocation at p0 of a two-process cluster of probes.
    fn probe_run(
        delay: DelaySpec,
        faults: Option<FaultPlan>,
        count: u32,
    ) -> (Run, Vec<(u32, Time, Duration)>) {
        let params = ModelParams::new(2, Time(300), Time(120), Time(90));
        let mut cfg = LiveConfig::new(params, Duration::from_micros(200), delay);
        cfg.faults = faults;
        let log = Arc::new(Mutex::new(Vec::new()));
        let schedule =
            vec![TimedInvocation { pid: Pid(0), at: Time(10), inv: Invocation::nullary("send") }];
        let run = run_live(&cfg, &schedule, |_| Probe { count, log: Arc::clone(&log) });
        assert!(run.complete() && !run.truncated, "{run}");
        let log = log.lock().unwrap().clone();
        (run, log)
    }

    #[test]
    fn all_min_delivers_at_d_minus_u_and_not_earlier() {
        let (run, log) = probe_run(DelaySpec::AllMin, None, 1);
        let p = run.params;
        assert_eq!(log.len(), 1);
        let (_, logical, wall) = log[0];
        assert_eq!(logical, p.min_delay());
        // d − u = 180 ticks = 36 ms; a tick or two goes to flooring the
        // send instant to the tick it falls in.
        let floor = Duration::from_micros(200) * (p.min_delay().as_ticks() as u32 - 2);
        assert!(wall >= floor, "{wall:?} too fast");
        assert!(wall < Duration::from_millis(200), "{wall:?} too slow");
        assert_eq!(run.events, 1);
        assert_eq!(run.delay_violations, 0);
    }

    #[test]
    fn equal_delays_on_one_link_keep_send_order() {
        let (run, log) = probe_run(DelaySpec::Constant(Time(200)), None, 10);
        let order: Vec<u32> = log.iter().map(|(i, _, _)| *i).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        assert!(log.iter().all(|(_, logical, _)| *logical == Time(200)), "{log:?}");
        assert_eq!(run.events, 10);
    }

    #[test]
    fn a_lossy_plan_drops_exactly_its_messages_and_records_them() {
        let plan = FaultPlan::new(11).drop_exact(Pid(0), Pid(1), 0).drop_exact(Pid(0), Pid(1), 2);
        let (run, log) = probe_run(DelaySpec::Constant(Time(200)), Some(plan), 5);
        let got: Vec<u32> = log.iter().map(|(i, _, _)| *i).collect();
        assert_eq!(got, vec![1, 3, 4], "messages 0 and 2 must be dropped");
        assert_eq!(run.events, 3);
        let dropped: Vec<u64> = run
            .faults
            .iter()
            .map(|f| match f {
                InjectedFault::Dropped { from: Pid(0), to: Pid(1), k, .. } => *k,
                other => panic!("unexpected fault {other:?}"),
            })
            .collect();
        assert_eq!(dropped, vec![0, 2]);
    }

    #[test]
    fn invalid_live_config_is_refused_up_front() {
        let mut cfg = cfg();
        cfg.delay = DelaySpec::Matrix(vec![vec![Time(300); 2]; 2]); // 2×2 for n = 3
        let run = run_live(&cfg, &[], |_| PanicNode);
        assert!(run.truncated);
        assert!(run.errors.iter().any(|e| e.contains("invalid configuration")), "{:?}", run.errors);
        // A zero tick is refused before any thread is spawned, not by a
        // clock assertion on the threads after the start handshake.
        let zero_tick = LiveConfig { tick: Duration::ZERO, ..self::cfg() };
        let run = run_live(&zero_tick, &[], |_| PanicNode);
        assert!(run.truncated);
        assert!(run.errors.iter().any(|e| e.contains("tick duration")), "{:?}", run.errors);
    }
}
