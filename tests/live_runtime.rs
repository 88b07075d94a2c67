//! Integration smoke tests for the real-threads runtime: the same node code
//! as the simulator, exercised on actual parallel hardware with injected
//! delays and skew, then machine-checked.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;

use lintime_core::wtlw::WtlwNode;
use lintime_runtime::prelude::*;
use lintime_sim::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn live_params() -> (ModelParams, Duration) {
    // d = 300 ticks × 200 µs = 60 ms; jitter ≪ u = 120 ticks.
    (ModelParams::new(3, Time(300), Time(120), Time(90)), Duration::from_micros(200))
}

#[test]
fn live_register_with_skewed_clocks() {
    let (p, tick) = live_params();
    let mut cfg = LiveConfig::new(p, tick, DelaySpec::Constant(p.min_delay() + Time(30)));
    cfg.offsets = vec![Time(0), Time(80), Time(-10)];
    let spec = erase(Register::new(0));
    let schedule = vec![
        TimedInvocation { pid: Pid(0), at: Time(10), inv: Invocation::new("write", 5) },
        TimedInvocation { pid: Pid(1), at: Time(900), inv: Invocation::nullary("read") },
        TimedInvocation { pid: Pid(2), at: Time(1800), inv: Invocation::nullary("read") },
    ];
    let run = run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO));
    assert!(run.complete(), "{run}");
    assert!(run.errors.is_empty(), "{:?}", run.errors);
    assert_eq!(run.ops[1].ret, Some(Value::Int(5)));
    assert_eq!(run.ops[2].ret, Some(Value::Int(5)));
    let history = History::from_run(&run).unwrap();
    assert!(check(&spec, &history).is_linearizable());
}

#[test]
fn live_latencies_track_formulas_with_jitter() {
    let (p, tick) = live_params();
    let cfg = LiveConfig::new(p, tick, DelaySpec::AllMin);
    let spec = erase(FifoQueue::new());
    let x = Time(60);
    let schedule = vec![
        TimedInvocation { pid: Pid(0), at: Time(10), inv: Invocation::new("enqueue", 1) },
        TimedInvocation { pid: Pid(1), at: Time(1200), inv: Invocation::nullary("peek") },
        TimedInvocation { pid: Pid(2), at: Time(2400), inv: Invocation::nullary("dequeue") },
    ];
    let run = run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, x));
    assert!(run.complete(), "{run}");
    let tol = Time(45);
    let checks = [
        (0usize, x + p.epsilon), // enqueue: X + ε
        (1, p.d - x),            // peek: d − X
        (2, p.d + p.epsilon),    // dequeue: d + ε
    ];
    for (idx, formula) in checks {
        let lat = run.ops[idx].latency().unwrap();
        assert!(
            lat >= formula && lat <= formula + tol,
            "op {idx}: measured {lat}, formula {formula}"
        );
    }
}

#[test]
fn live_contended_history_linearizes() {
    let (p, tick) = live_params();
    let cfg = LiveConfig::new(p, tick, DelaySpec::UniformRandom { seed: 5 });
    let spec = erase(RmwRegister::new(0));
    // Concurrent fetch-adds from all processes — the Theorem 4 workload, at
    // correct speed: all tickets must be unique.
    let schedule = vec![
        TimedInvocation { pid: Pid(0), at: Time(10), inv: Invocation::new("rmw", 1) },
        TimedInvocation { pid: Pid(1), at: Time(12), inv: Invocation::new("rmw", 1) },
        TimedInvocation { pid: Pid(2), at: Time(14), inv: Invocation::new("rmw", 1) },
        TimedInvocation { pid: Pid(0), at: Time(2000), inv: Invocation::nullary("read") },
    ];
    let run = run_live(&cfg, &schedule, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, Time::ZERO));
    assert!(run.complete(), "{run}");
    let mut tickets: Vec<i64> =
        run.ops[..3].iter().filter_map(|o| o.ret.as_ref().and_then(Value::as_int)).collect();
    tickets.sort_unstable();
    assert_eq!(tickets, vec![0, 1, 2], "duplicate tickets issued");
    assert_eq!(run.ops[3].ret, Some(Value::Int(3)));
    let history = History::from_run(&run).unwrap();
    assert!(check(&spec, &history).is_linearizable());
}

#[test]
fn live_baselines_work_too() {
    // The same node code runs unchanged on threads: the centralized and
    // broadcast baselines stay linearizable live (and slower than WTLW).
    use lintime_core::broadcast::BroadcastNode;
    use lintime_core::centralized::CentralizedNode;
    let (p, tick) = live_params();
    let cfg = LiveConfig::new(p, tick, DelaySpec::AllMin);
    let spec = erase(FifoQueue::new());
    let schedule = vec![
        TimedInvocation { pid: Pid(1), at: Time(10), inv: Invocation::new("enqueue", 4) },
        TimedInvocation { pid: Pid(2), at: Time(1500), inv: Invocation::nullary("peek") },
    ];
    let runs = [
        (
            "centralized",
            run_live(&cfg, &schedule, |pid| CentralizedNode::new(pid, Arc::clone(&spec))),
        ),
        (
            "broadcast",
            run_live(&cfg, &schedule, |pid| BroadcastNode::new(pid, p.n, Arc::clone(&spec))),
        ),
    ];
    for (algo, run) in runs {
        assert!(run.complete(), "{algo}: {run}");
        assert!(run.errors.is_empty(), "{algo}: {:?}", run.errors);
        assert_eq!(run.ops[1].ret, Some(Value::Int(4)));
        let history = History::from_run(&run).unwrap();
        assert!(check(&spec, &history).is_linearizable());
        // Folklore: both ops at least 2(d − u) even live.
        for op in &run.ops {
            assert!(op.latency().unwrap() >= (p.d - p.u) * 2 - Time(5), "{algo} {op:?}");
        }
    }
}

#[test]
fn live_crash_tolerant_backends_work_too() {
    // The quorum register (over a register and over the kv-store) and the
    // recovery wrapper are plain `Node`s too, so they run unchanged on
    // threads as well.
    use lintime_core::mr_register::MrNode;
    use lintime_core::reliable::{RecoveryConfig, ReliableWtlwNode};
    let (p, tick) = live_params();
    let mut cfg = LiveConfig::new(p, tick, DelaySpec::AllMin);
    // The recovery wrapper stretches its inner timers by the retransmission
    // backoff budget, so give in-flight operations a longer settle window.
    cfg.settle = p.d * 10;
    let register = erase(Register::new(0));
    let kv = erase(KvStore::new());
    let write_then_read = |write: Invocation, read: Invocation| {
        vec![
            TimedInvocation { pid: Pid(1), at: Time(10), inv: write },
            TimedInvocation { pid: Pid(2), at: Time(2500), inv: read },
        ]
    };
    let schedule = write_then_read(Invocation::new("write", 6), Invocation::nullary("read"));
    let kv_schedule =
        write_then_read(Invocation::new("put", Value::pair(1, 6)), Invocation::new("get", 1));
    let recovery = RecoveryConfig::standard(p);
    let runs = [
        (
            "mr-register",
            &register,
            run_live(&cfg, &schedule, |pid| MrNode::new(pid, Arc::clone(&register), p.n)),
        ),
        ("abd-kv", &kv, run_live(&cfg, &kv_schedule, |pid| MrNode::new(pid, Arc::clone(&kv), p.n))),
        (
            "reliable-wtlw",
            &register,
            run_live(&cfg, &schedule, |pid| {
                ReliableWtlwNode::new(pid, Arc::clone(&register), p, Time::ZERO, recovery)
            }),
        ),
    ];
    for (algo, spec, run) in runs {
        assert!(run.complete(), "{algo}: {run}");
        assert!(run.errors.is_empty(), "{algo}: {:?}", run.errors);
        assert_eq!(run.ops[1].ret, Some(Value::Int(6)), "{algo}");
        let history = History::from_run(&run).unwrap();
        assert!(check(spec, &history).is_linearizable(), "{algo}");
    }
}
