//! The live-cluster harness: spawn router + node threads, drive a timed
//! invocation schedule in wall-clock time, and collect a recorded
//! [`Run`] that the linearizability checker can verify.
//!
//! The harness never hangs on a sick cluster: configurations are validated
//! up front (undersized delay matrices are a clear error, not a panic), and
//! a watchdog derived from [`LiveConfig::settle`] collects node outputs with
//! a deadline. A node thread that panicked or stalled yields a truncated run
//! carrying a per-process diagnosis instead of a deadlock — and truncated
//! runs are refused by the checker, so they can never be certified.

use crate::clock::LiveClock;
use crate::platform::{spawn_node, Command, NodeInput, NodeOutput};
use crate::router::Router;
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
use std::sync::mpsc::{channel, sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
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
    /// How long (in ticks) to wait after the last scheduled invocation
    /// before shutting the cluster down. Also sizes the watchdog deadline
    /// for node-thread shutdown.
    pub settle: Time,
    /// Optional deterministic fault plan, mirrored onto the live router
    /// (drops, duplicates, delay overrides per link).
    pub faults: Option<FaultPlan>,
    /// Observability bundle, shared with the router thread. [`Obs::off`]
    /// (the default) keeps the harness and router uninstrumented.
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

    /// Inject `plan` into the router (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach an observability bundle (builder style).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Structural validation, mirroring `SimConfig::validate`: offsets must
    /// match `n` and a delay matrix must be `n × n`.
    pub fn validate(&self) -> Result<(), String> {
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
/// simulator run (modulo scheduling jitter).
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

    // Give threads a little lead time before tick 0.
    let epoch = Instant::now() + Duration::from_millis(20);
    let base_clock = LiveClock::new(epoch, Time::ZERO, cfg.tick);

    // One merged input channel per node: router deliveries + harness
    // commands share it, so the node loop is a single recv.
    let mut input_txs: Vec<SyncSender<NodeInput<N::Msg>>> = Vec::with_capacity(n);
    let mut input_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = sync_channel::<NodeInput<N::Msg>>(4096);
        input_txs.push(tx);
        input_rxs.push(rx);
    }
    let obs = &cfg.obs;
    let router = Router::spawn(
        cfg.params,
        cfg.delay.clone(),
        base_clock,
        input_txs.clone(),
        cfg.faults.clone(),
        obs.clone(),
    );

    let (results_tx, results_rx) = channel::<(Pid, NodeOutput)>();
    let mut handles = Vec::with_capacity(n);
    for (i, inputs) in input_rxs.into_iter().enumerate() {
        let pid = Pid(i);
        let clock = LiveClock::new(epoch, cfg.offsets[i], cfg.tick);
        handles.push(spawn_node(
            pid,
            n,
            clock,
            make_node(pid),
            inputs,
            router.tx.clone(),
            results_tx.clone(),
            cfg.op_sink.clone(),
        ));
    }
    drop(results_tx);

    // Drive the schedule in wall-clock time. try_send keeps the harness
    // immune to a wedged node whose inbox filled up.
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
        if let Err(e) = input_txs[pid.0].try_send(NodeInput::Command(Command::Invoke(inv.inv))) {
            let why = match e {
                TrySendError::Full(_) => "its inbox is full (node wedged?)",
                TrySendError::Disconnected(_) => "its thread is dead",
            };
            errors.push(format!("process {pid}: invocation not delivered — {why}"));
            truncated = true;
            obs.emit(inv.at.0, Some(pid.0), EventCategory::Watchdog, || {
                format!("invocation undeliverable: {why}")
            });
            if obs.is_active() {
                obs.metrics.counter("harness.undeliverable_invocations").inc();
            }
        }
        last = last.max(inv.at);
    }

    // Let in-flight work settle, then stop.
    let stop_at = base_clock.instant_at_real(last + cfg.settle);
    let now = Instant::now();
    if stop_at > now {
        std::thread::sleep(stop_at - now);
    }
    for tx in &input_txs {
        let _ = tx.try_send(NodeInput::Command(Command::Shutdown));
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

    let mut ops = Vec::new();
    for (i, slot) in outputs.into_iter().enumerate() {
        match slot {
            Some(out) => {
                if out.panicked {
                    truncated = true;
                }
                ops.extend(out.records);
                errors.extend(out.errors);
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

    // Only settle accounts with the router when every node exited; a stuck
    // node still holds a router handle and joining would hang.
    let (events, injected) = if received == n {
        for h in handles {
            let _ = h.join();
        }
        let report = router.join();
        (report.routed, report.faults)
    } else {
        (0, Vec::new())
    };

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
        delay_violations: 0,
        truncated,
        crashed_pending: 0,
        unadmitted: 0,
        // The router counts routed messages; byte-level wire accounting is a
        // simulator-only refinement (the live router never inspects payloads).
        msgs_sent: events,
        bytes_sent: 0,
        faults: injected,
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

    #[test]
    fn invalid_live_config_is_refused_up_front() {
        let mut cfg = cfg();
        cfg.delay = DelaySpec::Matrix(vec![vec![Time(300); 2]; 2]); // 2×2 for n = 3
        let run = run_live(&cfg, &[], |_| PanicNode);
        assert!(run.truncated);
        assert!(run.errors.iter().any(|e| e.contains("invalid configuration")), "{:?}", run.errors);
    }
}
