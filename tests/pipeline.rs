//! End-to-end integration: workload → engine → algorithm → checker →
//! Construction-1 verifier, across data types, algorithms, delay models,
//! clock skews, and tradeoff parameters.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_core::construction;
use lintime_core::prelude::*;
use lintime_core::wtlw::WtlwNode;
use lintime_sim::prelude::*;
use std::sync::Arc;

fn params() -> ModelParams {
    ModelParams::default_experiment()
}

/// A contended workload touching every operation of the type.
fn full_workload(p: ModelParams, spec: &Arc<dyn ObjectSpec>) -> Schedule {
    let mut schedule = Schedule::new();
    let mut t = Time::ZERO;
    // Three rounds; each round invokes every op from a rotating process,
    // with rounds overlapping enough to create real concurrency.
    for round in 0..3usize {
        for (j, meta) in spec.ops().iter().enumerate() {
            let args = spec.suggested_args(meta.name);
            let arg = args[(round + j) % args.len()].clone();
            let pid = Pid((round + j) % p.n);
            schedule = schedule.at(pid, t, Invocation::new(meta.name, arg));
            t += p.d + p.u + p.epsilon + Time(1); // just enough to avoid overlap per pid
        }
    }
    schedule
}

#[test]
fn every_type_linearizable_under_every_delay_model() {
    let p = params();
    for spec in all_types() {
        for delay in [DelaySpec::AllMax, DelaySpec::AllMin, DelaySpec::UniformRandom { seed: 42 }] {
            let cfg = SimConfig::new(p, delay).with_schedule(full_workload(p, &spec));
            let run = run_algorithm(Algorithm::Wtlw { x: Time(1200) }, &spec, &cfg);
            assert!(run.complete(), "{}: incomplete", spec.name());
            assert!(run.errors.is_empty(), "{}: {:?}", spec.name(), run.errors);
            let history = History::from_run(&run).unwrap();
            assert!(
                check(&spec, &history).is_linearizable(),
                "{}: not linearizable\n{run}",
                spec.name()
            );
        }
    }
}

#[test]
fn baselines_are_linearizable_too() {
    let p = params();
    for spec in [erase(FifoQueue::new()), erase(RmwRegister::new(0))] {
        for algo in [Algorithm::Centralized, Algorithm::Broadcast] {
            let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 9 })
                .with_schedule(full_workload(p, &spec));
            let run = run_algorithm(algo, &spec, &cfg);
            assert!(run.complete());
            let history = History::from_run(&run).unwrap();
            assert!(
                check(&spec, &history).is_linearizable(),
                "{} on {}: not linearizable",
                algo.label(),
                spec.name()
            );
        }
    }
}

#[test]
fn skewed_clocks_preserve_correctness_at_every_x() {
    let p = params();
    let spec = erase(FifoQueue::new());
    // Extreme admissible skew: offsets spanning exactly ε.
    let offsets = vec![Time::ZERO, p.epsilon, p.epsilon / 2, p.epsilon / 3];
    for x in [Time::ZERO, Time(2100), p.d - p.epsilon] {
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 4 })
            .with_offsets(offsets.clone())
            .with_schedule(full_workload(p, &spec));
        let run = run_algorithm(Algorithm::Wtlw { x }, &spec, &cfg);
        assert!(run.complete());
        let history = History::from_run(&run).unwrap();
        assert!(check(&spec, &history).is_linearizable(), "X = {x}");
    }
}

#[test]
fn construction_1_verifies_on_contended_runs() {
    let p = params();
    for seed in 0..5u64 {
        let spec = erase(FifoQueue::new());
        let schedule = Schedule::new()
            .at(Pid(0), Time(0), Invocation::new("enqueue", 1))
            .at(Pid(1), Time(3), Invocation::new("enqueue", 2))
            .at(Pid(2), Time(6), Invocation::nullary("dequeue"))
            .at(Pid(3), Time(9), Invocation::nullary("peek"))
            .at(Pid(0), Time(20_000), Invocation::nullary("peek"))
            .at(Pid(1), Time(20_000), Invocation::nullary("dequeue"));
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed }).with_schedule(schedule);
        let x = Time(600);
        let (run, nodes) = simulate_full(&cfg, |pid| {
            let log = construction::ExecLog::default();
            WtlwNode::with_recorder(pid, Arc::clone(&spec), Waits::standard(p, x), log)
        });
        assert!(run.complete());
        construction::verify(&run, &nodes, &spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn config_level_shift_preserves_views() {
    // Theorem 1, executable: re-running a shifted configuration yields
    // identical per-process views.
    let p = params();
    let spec = erase(Register::new(0));
    let schedule = Schedule::new()
        .at(Pid(0), Time(0), Invocation::new("write", 5))
        .at(Pid(1), Time(10), Invocation::nullary("read"))
        .at(Pid(2), Time(20_000), Invocation::nullary("read"));
    let cfg = SimConfig::new(p, DelaySpec::Constant(p.d - p.u / 2))
        .with_schedule(schedule)
        .recording_all();
    let base = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &cfg);

    let x_vec = vec![Time(300), Time(-300), Time(150), Time::ZERO];
    let shifted_cfg = cfg.shifted(&x_vec);
    let shifted = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &shifted_cfg);

    assert!(base.views_equal(&shifted), "views must be shift-invariant");
    // And the record-level shift agrees with re-execution on op intervals
    // (the re-executed run records ops in the new real-time order, so match
    // records by process).
    let mut record_shift = base.shifted(&x_vec).ops;
    let mut reexec = shifted.ops.clone();
    record_shift.sort_by_key(|o| (o.pid, o.t_invoke));
    reexec.sort_by_key(|o| (o.pid, o.t_invoke));
    for (a, b) in record_shift.iter().zip(&reexec) {
        assert_eq!(a.t_invoke, b.t_invoke);
        assert_eq!(a.t_respond, b.t_respond);
        assert_eq!(a.ret, b.ret);
    }
}

#[test]
fn mixed_algorithms_disagree_only_on_latency_not_values() {
    // The same single-writer workload must produce identical return values
    // under every correct algorithm (determinism of the sequential spec).
    let p = params();
    let spec = erase(RmwRegister::new(0));
    let schedule = Schedule::new()
        .at(Pid(1), Time(0), Invocation::new("write", 5))
        .at(Pid(2), Time(30_000), Invocation::new("rmw", 3))
        .at(Pid(3), Time(60_000), Invocation::nullary("read"));
    let mut value_sets = Vec::new();
    for algo in [Algorithm::Wtlw { x: Time::ZERO }, Algorithm::Centralized, Algorithm::Broadcast] {
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(schedule.clone());
        let run = run_algorithm(algo, &spec, &cfg);
        assert!(run.complete());
        let vals: Vec<_> = run.ops.iter().map(|o| o.ret.clone().unwrap()).collect();
        value_sets.push(vals);
    }
    assert!(value_sets.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn quiescence_event_counts_are_bounded() {
    // Eventual Quiescence: event count is linear in ops × n, not unbounded.
    let p = params();
    let spec = erase(FifoQueue::new());
    let ops = 20usize;
    let invocations: Vec<Invocation> =
        (0..ops).map(|i| Invocation::new("enqueue", i as i64)).collect();
    let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(Schedule::new().script(Script {
        pid: Pid(0),
        start: Time::ZERO,
        gap: Time::ZERO,
        invocations,
    }));
    let run = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &cfg);
    assert!(run.complete());
    // Per enqueue: 1 invoke + 1 respond-timer + 1 add-timer + 1 execute at
    // invoker + (n−1) delivers + (n−1) executes ≈ 4 + 2(n−1) = 10.
    assert!(run.events <= (ops as u64) * 12, "events = {}", run.events);
}

#[test]
fn multi_object_runs_and_locality() {
    // Linearizability is local (§2.3): a product-of-objects run is
    // linearizable, and so is its projection onto each component.
    let p = params();
    let product: Arc<dyn ObjectSpec> = Arc::new(lintime_adt::product::ProductSpec::new(
        "reg+queue",
        vec![("reg", erase(Register::new(0))), ("q", erase(FifoQueue::new()))],
    ));
    let schedule = Schedule::new()
        .at(Pid(0), Time(0), Invocation::new("reg/write", 5))
        .at(Pid(1), Time(3), Invocation::new("q/enqueue", 9))
        .at(Pid(2), Time(6), Invocation::new("q/enqueue", 10))
        .at(Pid(3), Time(10_000), Invocation::nullary("reg/read"))
        .at(Pid(0), Time(12_000), Invocation::nullary("q/dequeue"))
        .at(Pid(1), Time(30_000), Invocation::nullary("q/peek"))
        .at(Pid(2), Time(30_000), Invocation::nullary("reg/read"));
    let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 77 }).with_schedule(schedule);
    let run = run_algorithm(Algorithm::Wtlw { x: Time(600) }, &product, &cfg);
    assert!(run.complete(), "{run}");

    // Whole-product history linearizes.
    let history = History::from_run(&run).unwrap();
    assert!(check(&product, &history).is_linearizable());

    // Each per-object projection linearizes against its own spec, with the
    // namespace stripped.
    for (prefix, component) in [("reg", erase(Register::new(0))), ("q", erase(FifoQueue::new()))] {
        let projected = History {
            ops: history
                .ops
                .iter()
                .filter(|o| o.instance.op.starts_with(&format!("{prefix}/")))
                .map(|o| {
                    let mut o = o.clone();
                    let inner = lintime_adt::product::ProductSpec::split(o.instance.op).unwrap().1;
                    o.instance.op = component.op_meta(inner).expect("component op exists").name;
                    o
                })
                .collect(),
        };
        assert!(!projected.is_empty());
        assert!(
            check(&component, &projected).is_linearizable(),
            "projection onto {prefix} must linearize"
        );
    }
}

#[test]
fn closed_loop_back_to_back_operations() {
    // Every process hammers the object closed-loop (next invocation the
    // instant the previous responds): pipelined announcements, overlapping
    // execute timers, AOPs racing MOP acknowledgements — still linearizable,
    // and throughput matches 1/latency.
    let p = params();
    let spec = erase(FifoQueue::new());
    let per = 12usize;
    let mut schedule = Schedule::new();
    for i in 0..p.n {
        let invocations: Vec<Invocation> = (0..per)
            .map(|k| match (i + k) % 3 {
                0 => Invocation::new("enqueue", (i * 100 + k) as i64),
                1 => Invocation::nullary("peek"),
                _ => Invocation::nullary("dequeue"),
            })
            .collect();
        schedule = schedule.script(Script {
            pid: Pid(i),
            start: Time(i as i64 * 7),
            gap: Time::ZERO,
            invocations,
        });
    }
    let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 123 }).with_schedule(schedule);
    let run = run_algorithm(Algorithm::Wtlw { x: Time(1200) }, &spec, &cfg);
    assert!(run.complete(), "{run}");
    assert!(run.errors.is_empty(), "{:?}", run.errors);
    assert_eq!(run.ops.len(), per * p.n);
    let history = History::from_run(&run).unwrap();
    assert!(check(&spec, &history).is_linearizable());
}

/// A `BatchedWtlw` queue cluster under open-loop backlog (about 6 arrivals
/// per `d`), recorded through the op sink. Every enqueue is followed by a
/// dequeue on the same process, so the queue keeps emptying and closed cuts
/// exist; peeks and a small value range make the container monitor defer,
/// so every window goes to Wing–Gong.
fn recorded_queue_stream(ops: usize, seed: u64) -> (Arc<dyn ObjectSpec>, Vec<OpEvent>) {
    let p = params();
    let spec = erase(FifoQueue::new());
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut schedule = Schedule::new();
    let mut t = 0i64;
    while schedule.len() < ops {
        t += rng.gen_range(0..p.d.0 / 3);
        let pid = Pid(rng.gen_range(0..p.n));
        if rng.gen_range(0u32..4) == 0 {
            schedule = schedule.arrival(pid, Time(t), Invocation::new("peek", ()));
        } else {
            let v = rng.gen_range(0i64..8);
            schedule = schedule.arrival(pid, Time(t), Invocation::new("enqueue", v)).arrival(
                pid,
                Time(t + 1),
                Invocation::new("dequeue", ()),
            );
        }
    }
    let (tx, rx) = std::sync::mpsc::channel();
    let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed })
        .with_schedule(schedule)
        .with_op_sink(tx)
        .with_admission_epoch(64);
    let run = run_algorithm(Algorithm::BatchedWtlw { x: Time::ZERO, tick: p.epsilon }, &spec, &cfg);
    drop(cfg);
    assert!(run.complete(), "{run}");
    (spec, rx.into_iter().collect())
}

/// A recorded `BatchedWtlw` queue stream sends its windows to the Wing–Gong
/// fallback, which certifies them.
#[test]
fn stream_certifies_recorded_fallback_windows() {
    let (spec, events) = recorded_queue_stream(6_000, 7);
    let cfg = StreamConfig::default().with_flush_ops(64).keeping_witnesses();
    let mut checker = StreamChecker::with_config(&spec, cfg);
    for ev in &events {
        checker.feed(ev);
    }
    let certified = checker.certified().len();
    let (verdict, stats) = checker.finish();
    assert!(verdict.is_ok(), "{verdict:?}");
    assert!(stats.fallbacks >= 10, "windows must reach Wing–Gong: {stats:?}");
    assert!(certified >= 10, "only {certified} certified windows");
}

/// The engine emits same-instant events with responses before invocations.
/// Here p1's `write(1)` responds at 3800, the instant p0's read is invoked.
/// The read's timestamp ties `write(7)`'s and wins on pid, so it returns 7:
/// linearizable only with the read before `write(1)`, which the touching
/// intervals allow. The streaming checker must not settle `write(1)` before
/// the read arrives, at any flush size.
#[test]
fn stream_waits_for_an_invocation_touching_the_last_response() {
    let p = params();
    let spec = erase(Register::new(0));
    let schedule = Schedule::new()
        .at(Pid(2), Time::ZERO, Invocation::new("write", 7))
        .at(Pid(1), Time(2000), Invocation::new("write", 1))
        .at(Pid(0), Time(3800), Invocation::nullary("read"));
    let cfg = SimConfig::new(p, DelaySpec::AllMax)
        .with_offsets(vec![Time::ZERO, p.epsilon, Time::ZERO, Time::ZERO])
        .with_schedule(schedule);
    let run = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &cfg);
    assert!(run.is_admissible(), "{run}");
    let read = run.ops.iter().find(|r| r.invocation.op == "read").unwrap();
    assert_eq!(read.ret, Some(Value::Int(7)));
    let write1 = run.ops.iter().find(|r| r.invocation.arg == Value::Int(1)).unwrap();
    assert_eq!(write1.t_respond, Some(read.t_invoke), "the intervals touch");
    let history = History::from_run(&run).unwrap();
    assert!(check_fast(&spec, &history).is_linearizable());
    for flush in [1, 2, 4, 1024] {
        let cfg = StreamConfig::default().with_flush_ops(flush);
        let (verdict, _) = replay_run(&spec, &run, cfg, &lintime_obs::Obs::off());
        assert!(verdict.is_ok(), "flush {flush}: {verdict:?}");
    }
}

#[test]
#[ignore = "soak: 100-seed randomized sweep; run with --include-ignored"]
fn linearizability_soak() {
    let p = params();
    for spec in all_types() {
        for seed in 0..100u64 {
            let run = lintime_bench::experiments::random_workload_run(p, &spec, seed);
            let history = History::from_run(&run).unwrap();
            assert!(check(&spec, &history).is_linearizable(), "{} seed {seed}: {run}", spec.name());
        }
    }
}
