//! Algorithm 1 across a grid of model parameters: Lemma 4 exactness and
//! linearizability must hold for every admissible (n, d, u, ε, X)
//! combination, including the edges (u = d, ε = 0, X = d − ε, n = 2) and a
//! wide cluster (n = 32), where every mutator fans out to 31 peers.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_core::prelude::*;
use lintime_sim::prelude::*;

fn grid() -> Vec<ModelParams> {
    let mut out = Vec::new();
    for n in [2usize, 3, 5, 32] {
        for (d, u) in [(Time(6000), Time(2400)), (Time(6000), Time(6000)), (Time(1200), Time(120))]
        {
            // Optimal skew, zero skew bound, and a loose skew bound.
            for eps in [ModelParams::optimal_epsilon(n, u), Time::ZERO, u] {
                out.push(ModelParams::new(n, d, u, eps));
            }
        }
    }
    out
}

#[test]
fn lemma_4_exact_on_the_whole_grid() {
    let spec = erase(FifoQueue::new());
    for p in grid() {
        for x in [Time::ZERO, (p.d - p.epsilon) / 2, p.d - p.epsilon] {
            let gap = p.d * 3;
            let schedule = Schedule::new()
                .at(Pid(0), Time(0), Invocation::new("enqueue", 1))
                .at(Pid(1 % p.n), gap, Invocation::nullary("peek"))
                .at(Pid(0), gap * 2, Invocation::nullary("dequeue"));
            let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(schedule);
            let run = run_algorithm(Algorithm::Wtlw { x }, &spec, &cfg);
            assert!(run.complete(), "{p:?} X={x}: {run}");
            assert!(run.errors.is_empty(), "{p:?} X={x}: {:?}", run.errors);
            assert_eq!(run.ops[0].latency(), Some(x + p.epsilon), "{p:?} X={x} MOP");
            assert_eq!(run.ops[1].latency(), Some(p.d - x), "{p:?} X={x} AOP");
            assert_eq!(run.ops[2].latency(), Some(p.d + p.epsilon), "{p:?} X={x} OOP");
        }
    }
}

#[test]
fn linearizable_under_contention_on_the_whole_grid() {
    let spec = erase(RmwRegister::new(0));
    for p in grid() {
        let x = (p.d - p.epsilon) / 3;
        // Concurrent rmw from every process, reads afterwards.
        let mut schedule = Schedule::new();
        for i in 0..p.n {
            schedule = schedule.at(Pid(i), Time(i as i64 * 3), Invocation::new("rmw", 1));
        }
        schedule = schedule.at(Pid(0), p.d * 5, Invocation::nullary("read"));
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 31 }).with_schedule(schedule);
        let run = run_algorithm(Algorithm::Wtlw { x }, &spec, &cfg);
        assert!(run.complete(), "{p:?}");
        let history = History::from_run(&run).unwrap();
        assert!(check(&spec, &history).is_linearizable(), "{p:?}: {run}");
        // All rmw tickets distinct, final read = n.
        let mut tickets: Vec<i64> =
            run.ops[..p.n].iter().filter_map(|o| o.ret.as_ref().and_then(Value::as_int)).collect();
        tickets.sort_unstable();
        assert_eq!(tickets, (0..p.n as i64).collect::<Vec<_>>(), "{p:?}");
        assert_eq!(run.ops[p.n].ret, Some(Value::Int(p.n as i64)));
    }
}

#[test]
fn epsilon_zero_is_a_valid_degenerate_model() {
    // ε = 0 (perfect clocks): pure mutators ack instantly at X = 0; ties in
    // timestamps across processes are broken by pid and stay consistent.
    let p = ModelParams::new(3, Time(3000), Time(1000), Time::ZERO);
    let spec = erase(Register::new(0));
    let cfg = SimConfig::new(p, DelaySpec::AllMin).with_schedule(
        Schedule::new()
            .at(Pid(0), Time(0), Invocation::new("write", 10))
            .at(Pid(1), Time(0), Invocation::new("write", 20))
            .at(Pid(2), Time(20_000), Invocation::nullary("read")),
    );
    let run = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &cfg);
    assert!(run.complete());
    assert_eq!(run.ops[0].latency(), Some(Time::ZERO)); // X + ε = 0
                                                        // Tie on timestamps → pid 1 is larger → its write orders last.
    assert_eq!(run.ops[2].ret, Some(Value::Int(20)));
    let history = History::from_run(&run).unwrap();
    assert!(check(&spec, &history).is_linearizable());
}
