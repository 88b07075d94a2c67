//! Edge cases of Algorithm 1's timer discipline: early execution of mixed
//! operations, accessor-driven drains cancelling execute timers, and the
//! backdating semantics of accessor timestamps.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_core::construction::ExecLog;
use lintime_core::prelude::*;
use lintime_core::wtlw::WtlwNode;
use lintime_sim::prelude::*;
use std::sync::Arc;

fn params() -> ModelParams {
    ModelParams::default_experiment()
}

#[test]
fn mixed_op_executed_early_by_a_later_timestamp_responds_once() {
    // p0's rmw (small timestamp) is drained by the execute timer of p1's
    // later-timestamped rmw when message timing makes p1's entry fire first
    // at p0. The response must happen exactly once and the pending Execute
    // timer for p0's own entry must be cancelled (no error, clean
    // quiescence).
    let p = params();
    let spec = erase(RmwRegister::new(0));
    // p0 invokes first; p1 slightly later, so ts(p0) < ts(p1). With AllMin
    // delays, p1's announce reaches p0 at t+1+3600 while p0's own add timer
    // fires at t+3600: both entries queue at p0, and whichever Execute fires
    // last drains both.
    let cfg = SimConfig::new(p, DelaySpec::AllMin).with_schedule(
        Schedule::new().at(Pid(0), Time(0), Invocation::new("rmw", 1)).at(
            Pid(1),
            Time(1),
            Invocation::new("rmw", 1),
        ),
    );
    let run = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &cfg);
    assert!(run.complete());
    assert!(run.errors.is_empty(), "{:?}", run.errors);
    assert_eq!(run.ops[0].ret, Some(Value::Int(0)));
    assert_eq!(run.ops[1].ret, Some(Value::Int(1)));
    let history = History::from_run(&run).unwrap();
    assert!(check(&spec, &history).is_linearizable());
}

#[test]
fn accessor_drain_cancels_execute_timers() {
    // An AOP with a timestamp above a queued mutator executes it during its
    // drain; the mutator's own Execute timer must be cancelled, not fire
    // into an empty queue or double-execute.
    let p = params();
    let spec = erase(FifoQueue::new());
    let x = Time::ZERO;
    let (run, nodes) = {
        let spec2 = Arc::clone(&spec);
        lintime_sim::engine::simulate_full(
            &SimConfig::new(p, DelaySpec::AllMax).with_schedule(
                Schedule::new()
                    .at(Pid(1), Time(0), Invocation::new("enqueue", 9))
                    // p0's peek invoked so its respond (at +d) lands after the
                    // announce arrives (at d) but before p0's execute timer
                    // for the enqueue (at d + u + ε).
                    .at(Pid(0), Time(5), Invocation::nullary("peek")),
            ),
            move |pid| {
                let waits = Waits::standard(p, x);
                WtlwNode::with_recorder(pid, Arc::clone(&spec2), waits, ExecLog::default())
            },
        )
    };
    assert!(run.complete());
    assert!(run.errors.is_empty(), "{:?}", run.errors);
    // The peek saw the enqueue (drained during respond).
    assert_eq!(run.ops[1].ret, Some(Value::Int(9)));
    // p0 executed exactly one mutator, exactly once.
    assert_eq!(nodes[0].executed(), 1);
    let log = nodes[0].recorder();
    assert_eq!(log.mutators.len(), 1);
    // Its accessor log recorded the drain position.
    assert_eq!(log.accessors.len(), 1);
    assert_eq!(log.accessors[0].after, 1);
}

#[test]
fn backdated_accessor_excludes_younger_mutators() {
    // With X = d − ε, an accessor's timestamp is backdated by X; a mutator
    // invoked *just before* the accessor (but with a local timestamp above
    // the backdated one) must NOT be drained by it — the accessor reads the
    // older state, which is linearizable because the two overlap.
    let p = params();
    let x = p.d - p.epsilon;
    let spec = erase(Register::new(0));
    let cfg = SimConfig::new(p, DelaySpec::AllMin).with_schedule(
        Schedule::new()
            .at(Pid(1), Time(0), Invocation::new("write", 5))
            // Read invoked 10 ticks later: its backdated ts = 10 − 4200 < 0,
            // far below the write's ts = 0, so the drain excludes the write.
            .at(Pid(0), Time(10), Invocation::nullary("read")),
    );
    let run = run_algorithm(Algorithm::Wtlw { x }, &spec, &cfg);
    assert!(run.complete());
    // Read overlaps the write (write responds at X + ε = d) and returns the
    // old value.
    assert_eq!(run.ops[1].ret, Some(Value::Int(0)));
    let history = History::from_run(&run).unwrap();
    assert!(check(&spec, &history).is_linearizable());

    // Control: invoked after the write completes, the same read sees 5.
    let cfg = SimConfig::new(p, DelaySpec::AllMin).with_schedule(
        Schedule::new().at(Pid(1), Time(0), Invocation::new("write", 5)).at(
            Pid(0),
            p.d + Time(1),
            Invocation::nullary("read"),
        ),
    );
    let run = run_algorithm(Algorithm::Wtlw { x }, &spec, &cfg);
    assert_eq!(run.ops[1].ret, Some(Value::Int(5)));
}

#[test]
fn local_state_reflects_executed_mutators() {
    let p = params();
    let spec = erase(FifoQueue::new());
    let spec2 = Arc::clone(&spec);
    let (run, nodes) = lintime_sim::engine::simulate_full(
        &SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::new("enqueue", 1)).at(
                Pid(1),
                Time(2),
                Invocation::new("enqueue", 2),
            ),
        ),
        move |pid| WtlwNode::new(pid, Arc::clone(&spec2), p, Time::ZERO),
    );
    assert!(run.complete());
    // After quiescence every replica holds [1, 2].
    let expect = Value::list([Value::Int(1), Value::Int(2)]);
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(node.local_state(), expect, "replica {i}");
        assert_eq!(node.executed(), 2, "replica {i}");
    }
}
