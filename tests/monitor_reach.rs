//! The type-specialized monitors' reach on recorded runs: check-offline's
//! five dense history shapes (queue, stack, priority queue, register,
//! kv-store), recorded from Algorithm 1 at X = 0 with 8 processes in a
//! closed loop and distinct produced values, here at 1,000 ops on seeds 42
//! and 7, each beside a copy in which two responses are swapped. Every
//! recorded history must be certified with a replayed witness, so must a
//! swapped copy that is certified at all, and the per-type totals of the
//! monitor step's outcomes are pinned: a rewrite of a monitor must leave
//! every history in its outcome class. (The
//! differential fuzz and the small-scope enumeration of `lintime-check`
//! pin the same totals on their corpora.)

use lintime_adt::spec::{Invocation, ObjectSpec, OpClass, OpMeta, SpecKind};
use lintime_adt::types::by_name;
use lintime_adt::value::Value;
use lintime_check::prelude::*;
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_obs::{Obs, Registry, TraceHandle};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::SimConfig;
use lintime_sim::rng::{mix, SplitMix64};
use lintime_sim::schedule::{Schedule, Script};
use lintime_sim::time::{ModelParams, Pid, Time};
use lintime_sim::workload::Mix;
use std::sync::Arc;

const PROCESSES: usize = 8;
const OPS: usize = 1_000;
/// Producers and consumers only: `peek` and `min` make the monitors defer.
const PRODUCE_CONSUME: Mix = Mix { accessors: 0, mutators: 1, mixed: 1 };

/// A closed-loop script per process; pure mutators get distinct integer
/// values (kv puts a distinct value under the drawn key).
fn dense_schedule(spec: &dyn ObjectSpec, weights: Mix, seed: u64) -> Schedule {
    let metas = spec.ops();
    let keyed = matches!(spec.kind(), SpecKind::KvStore | SpecKind::GrowSet);
    let total = weights.accessors + weights.mutators + weights.mixed;
    let mut schedule = Schedule::new();
    for pid in 0..PROCESSES {
        let mut rng = SplitMix64::seed_from_u64(mix(seed ^ (pid as u64 + 1)));
        let invocations = (0..OPS / PROCESSES)
            .map(|k| {
                let roll = rng.gen_range(0..total);
                let class = if roll < weights.accessors {
                    OpClass::PureAccessor
                } else if roll < weights.accessors + weights.mutators {
                    OpClass::PureMutator
                } else {
                    OpClass::Mixed
                };
                // A type without an op of the class draws from all of them.
                let mut candidates: Vec<&OpMeta> =
                    metas.iter().filter(|m| m.class == class).collect();
                if candidates.is_empty() {
                    candidates = metas.iter().collect();
                }
                let meta = candidates[rng.gen_range(0..candidates.len())];
                let args = spec.suggested_args(meta.name);
                let arg = args[rng.gen_range(0..args.len())].clone();
                let fresh = (k * PROCESSES + pid) as i64 + 1;
                let arg = match arg {
                    _ if meta.class != OpClass::PureMutator => arg,
                    Value::Int(_) if !keyed => Value::Int(fresh),
                    Value::Pair(key, _) => Value::Pair(key, Box::new(fresh.into())),
                    other => other,
                };
                Invocation::new(meta.name, arg)
            })
            .collect();
        schedule = schedule.script(Script {
            pid: Pid(pid),
            start: Time::ZERO,
            gap: Time::ZERO,
            invocations,
        });
    }
    schedule
}

fn dense_history(spec: &Arc<dyn ObjectSpec>, weights: Mix, seed: u64) -> History {
    let params = ModelParams::with_optimal_epsilon(PROCESSES, Time(6000), Time(2400));
    let cfg = SimConfig::new(params, DelaySpec::UniformRandom { seed })
        .with_schedule(dense_schedule(spec.as_ref(), weights, seed));
    let run = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, spec, &cfg);
    History::from_run(&run).expect("a fault-free Algorithm 1 run completes")
}

/// `h` with the responses of two value-returning ops swapped: the first
/// one and the one halfway down the list.
fn one_swap(h: &History) -> History {
    let mut swapped = h.clone();
    let returning: Vec<usize> =
        (0..h.len()).filter(|&i| h.ops[i].instance.ret != Value::Unit).collect();
    let (a, b) = (returning[0], returning[returning.len() / 2]);
    swapped.ops[a].instance.ret = h.ops[b].instance.ret.clone();
    swapped.ops[b].instance.ret = h.ops[a].instance.ret.clone();
    swapped
}

#[test]
fn dense_shapes_keep_their_monitor_outcomes() {
    // Type, dense mix, pinned `[witnesses, deferred, violations]` over the
    // two seeds' recorded and swapped histories.
    let cases = [
        ("fifo-queue", PRODUCE_CONSUME, [2, 0, 2]),
        ("stack", PRODUCE_CONSUME, [2, 0, 2]),
        ("priority-queue", PRODUCE_CONSUME, [2, 0, 2]),
        ("register", Mix::BALANCED, [2, 0, 2]),
        ("kv-store", Mix::BALANCED, [2, 0, 2]),
    ];
    for (name, weights, reach) in cases {
        let spec = by_name(name).expect("a known type");
        let obs = Obs::new(TraceHandle::null(), Registry::new());
        for seed in [42, 7] {
            let h = dense_history(&spec, weights, seed);
            assert_eq!(h.len(), OPS, "{name} seed {seed}");
            let verdict = check_fast_with(&spec, &h, CheckConfig::default(), &obs);
            let Verdict::Linearizable(order) = verdict else {
                panic!("{name} seed {seed}: {verdict:?}");
            };
            assert!(verify_witness(&spec, &h, &order), "{name} seed {seed}");
            let bad = one_swap(&h);
            if let Verdict::Linearizable(order) =
                check_fast_with(&spec, &bad, CheckConfig::default(), &obs)
            {
                assert!(verify_witness(&spec, &bad, &order), "{name} seed {seed}, swapped");
            }
        }
        let got = ["witnesses", "deferred", "violations"]
            .map(|outcome| obs.metrics.counter(&format!("check.monitor.{outcome}")).get());
        assert_eq!(got, reach, "{name}: the monitors' reach moved");
    }
}
