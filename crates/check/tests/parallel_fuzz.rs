//! Parallel-search differential fuzzing: the Wing–Gong search must reach
//! the same verdict *class* at every thread count.
//!
//! The parallel path only engages above `PARALLEL_MIN_OPS` operations, and
//! only after a sequential probe of a few nodes per operation failed to
//! decide, so every generated history here has 9–14 operations. Most of the
//! first three corpora are decided by the probe; the fourth is built so that
//! the probe runs out and the BFS-seeded work-stealing route runs. Four
//! corpora per ADT, all deterministic in the seed:
//!
//! * *legal-by-construction* — sequential replay supplies consistent
//!   returns, overlapping intervals respect the replay order; every thread
//!   count must say `Linearizable` and every witness must replay;
//! * *corrupted* — one return mutated (or all randomized); thread counts
//!   must agree on the class (witness orders may legitimately differ);
//! * *pending* — a suffix of operations stripped to pending invocations;
//!   the completion sweep at every thread count must agree on the class;
//! * *wide* — 6–8 mutually concurrent producers of small (often repeated)
//!   values, then sequential consumers, legal or with one return corrupted.
//!   The search has to try many producer orders, so the probe escalates;
//!   the test asserts that this happens for some history of every ADT at
//!   every thread count above 1.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_check::wing_gong::{check_with_stats, PARALLEL_MIN_OPS};
use lintime_obs::Obs;
use lintime_sim::rng::SplitMix64;
use lintime_sim::time::{Pid, Time};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const SEEDS_PER_KIND: u64 = 200;
/// Seeds (of the first `SEEDS_PER_KIND`) that also draw two wide histories:
/// each one runs a search of up to a few thousand nodes at every thread count.
const WIDE_SEEDS: u64 = 32;

/// One random invocation (op name + argument) for the given type.
fn arb_invocation(kind: &str, rng: &mut SplitMix64) -> (&'static str, Value) {
    match kind {
        "queue" => match rng.gen_range(0usize..5) {
            0 | 1 => ("enqueue", Value::Int(rng.gen_range(0i64..5))),
            2 | 3 => ("dequeue", Value::Unit),
            _ => ("peek", Value::Unit),
        },
        "priority_queue" => match rng.gen_range(0usize..5) {
            0 | 1 => ("insert", Value::Int(rng.gen_range(0i64..5))),
            2 | 3 => ("extract_min", Value::Unit),
            _ => ("min", Value::Unit),
        },
        other => unreachable!("unknown fuzz kind {other}"),
    }
}

/// Build a linearizable-by-construction history with 9–14 operations (always
/// above [`PARALLEL_MIN_OPS`]): replay random invocations sequentially for
/// the returns, then hand out overlapping intervals that the replay order
/// respects, exactly as in `differential_fuzz.rs`.
fn legal_history(spec: &Arc<dyn ObjectSpec>, kind: &str, rng: &mut SplitMix64) -> History {
    let n = rng.gen_range(9usize..15);
    assert!(n > PARALLEL_MIN_OPS);
    let mut obj = spec.new_object();
    let mut tuples = Vec::with_capacity(n);
    for k in 0..n {
        let (op, arg) = arb_invocation(kind, rng);
        let ret = obj.apply(op, &arg);
        let base = 4 * k as i64;
        let t_invoke = base - rng.gen_range(0i64..6);
        let t_respond = base + 1 + rng.gen_range(0i64..6);
        tuples.push((k % 4, OpInstance::new(op, arg, ret), t_invoke, t_respond));
    }
    History::from_tuples(tuples)
}

/// Corrupt one return value (or, rarely, all of them).
fn corrupt(h: &History, rng: &mut SplitMix64) -> History {
    let arb_ret = |rng: &mut SplitMix64| match rng.gen_range(0usize..4) {
        0 => Value::Unit,
        1 => Value::Bool(rng.gen_range(0u64..2) == 0),
        _ => Value::Int(rng.gen_range(0i64..5)),
    };
    let mut tuples: Vec<(usize, OpInstance, i64, i64)> = h
        .ops
        .iter()
        .enumerate()
        .map(|(k, op)| (k % 4, op.instance.clone(), op.t_invoke.0, op.t_respond.0))
        .collect();
    if rng.gen_range(0usize..4) == 0 {
        for t in &mut tuples {
            t.1.ret = arb_ret(rng);
        }
    } else {
        let victim = rng.gen_range(0usize..tuples.len());
        tuples[victim].1.ret = arb_ret(rng);
    }
    History::from_tuples(tuples)
}

/// Strip the last 1–2 operations of `h` into pending invocations, as a crash
/// would. The remaining complete prefix still exceeds [`PARALLEL_MIN_OPS`],
/// so a completion the probe cannot decide may still go parallel.
fn make_pending(h: &History, rng: &mut SplitMix64) -> PendingHistory {
    let cut = rng.gen_range(1usize..3);
    let keep = h.ops.len() - cut;
    let complete = History::from_tuples(
        h.ops
            .iter()
            .take(keep)
            .enumerate()
            .map(|(k, op)| (k % 4, op.instance.clone(), op.t_invoke.0, op.t_respond.0))
            .collect(),
    );
    let pending = h
        .ops
        .iter()
        .skip(keep)
        .map(|op| PendingOp {
            pid: Pid(7),
            invocation: op.instance.invocation(),
            t_invoke: op.t_invoke,
            may_have_effect: true,
        })
        .collect();
    let horizon = h.ops.iter().map(|op| op.t_respond).max().unwrap_or(Time(0)) + Time(1);
    PendingHistory { complete, pending, horizon, malformed: 0 }
}

/// A *wide* history: 6–8 producers all overlapping each other, then 3–5
/// sequential consumers whose returns replay a random producer order (an
/// accessor may sit among them). With `corrupt_one`, one consumer return is
/// replaced by a value no producer writes, so no order works.
fn wide_history(
    spec: &Arc<dyn ObjectSpec>,
    kind: &str,
    rng: &mut SplitMix64,
    corrupt_one: bool,
) -> History {
    let (prod, cons, peek) = match kind {
        "queue" => ("enqueue", "dequeue", "peek"),
        "priority_queue" => ("insert", "extract_min", "min"),
        other => unreachable!("unknown fuzz kind {other}"),
    };
    let producers = rng.gen_range(6usize..9);
    let args: Vec<i64> = (0..producers).map(|_| rng.gen_range(0i64..4)).collect();
    let mut tuples: Vec<(usize, OpInstance, i64, i64)> = args
        .iter()
        .enumerate()
        .map(|(p, &v)| (p % 4, OpInstance::new(prod, v, ()), p as i64, 100))
        .collect();
    // Replay the producers in a shuffled order for the consumers' returns.
    let mut order: Vec<usize> = (0..producers).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut obj = spec.new_object();
    for &p in &order {
        obj.apply(prod, &Value::Int(args[p]));
    }
    let consumers = rng.gen_range(3usize..6);
    let victim = rng.gen_range(0..consumers);
    for c in 0..consumers {
        let t = 200 + 10 * c as i64;
        if c == 1 && rng.gen_range(0u32..2) == 0 {
            tuples.push((0, OpInstance::new(peek, (), obj.apply(peek, &Value::Unit)), t, t + 5));
            continue;
        }
        let mut ret = obj.apply(cons, &Value::Unit);
        if corrupt_one && c == victim {
            ret = Value::Int(7);
        }
        tuples.push((0, OpInstance::new(cons, (), ret), t, t + 5));
    }
    let h = History::from_tuples(tuples);
    assert!(h.len() > PARALLEL_MIN_OPS);
    h
}

/// Decide `h` at thread counts 2 and 4 with statistics: classes must match
/// the sequential search, witnesses must replay, and the node budget must
/// hold. Returns, per thread count, whether the search escalated past the
/// sequential probe (`workers > 1`).
fn escalations(spec: &Arc<dyn ObjectSpec>, h: &History, label: &str) -> [bool; 2] {
    let sequential = check_with(spec, h, CheckConfig { threads: 1, ..CheckConfig::default() });
    [2usize, 4].map(|threads| {
        let cfg = CheckConfig { threads, ..CheckConfig::default() };
        let (v, stats) = check_with_stats(spec, h, cfg);
        assert_eq!(class(&sequential), class(&v), "{label}: threads={threads} gave {v:?}\n{h:?}");
        if let Verdict::Linearizable(order) = &v {
            assert!(verify_witness(spec, h, order), "{label}: bogus witness at {threads}");
        }
        assert!(stats.nodes <= cfg.max_nodes);
        stats.workers > 1
    })
}

fn class(v: &Verdict) -> &'static str {
    match v {
        Verdict::Linearizable(_) => "linearizable",
        Verdict::NotLinearizable => "not-linearizable",
        Verdict::Unknown => "unknown",
    }
}

/// Every thread count must produce the same verdict class on `h`, and every
/// `Linearizable` witness must replay.
fn assert_thread_agreement(spec: &Arc<dyn ObjectSpec>, h: &History, label: &str) {
    let verdicts: Vec<Verdict> = THREAD_COUNTS
        .iter()
        .map(|&threads| check_with(spec, h, CheckConfig { threads, ..CheckConfig::default() }))
        .collect();
    for (threads, v) in THREAD_COUNTS.iter().zip(&verdicts) {
        assert_eq!(
            class(&verdicts[0]),
            class(v),
            "{label}: threads=1 gave {:?}, threads={threads} gave {v:?}\n{h:?}",
            verdicts[0]
        );
        if let Verdict::Linearizable(order) = v {
            assert!(
                verify_witness(spec, h, order),
                "{label}: bogus witness at threads={threads}: {order:?}\n{h:?}"
            );
        }
    }
}

/// The pending-completion sweep must produce the same verdict class at every
/// thread count.
fn assert_pending_agreement(spec: &Arc<dyn ObjectSpec>, ph: &PendingHistory, label: &str) {
    let verdicts: Vec<Verdict> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let cfg = CheckConfig { threads, ..CheckConfig::default() };
            check_fast_pending_with(spec, ph, cfg, &Obs::off())
        })
        .collect();
    for (threads, v) in THREAD_COUNTS.iter().zip(&verdicts) {
        assert_eq!(
            class(&verdicts[0]),
            class(v),
            "{label}: threads=1 gave {:?}, threads={threads} gave {v:?}",
            verdicts[0]
        );
    }
}

fn run_kind(kind: &str, spec: Arc<dyn ObjectSpec>, seeds: u64) {
    // Wide histories that escalated past the probe, at 2 and at 4 threads.
    let mut escalated = [0u64; 2];
    for seed in 0..seeds {
        // Distinct streams per (kind, seed): mix the kind name into the seed.
        let mut rng = SplitMix64::seed_from_u64(
            seed ^ kind.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64)),
        );
        let legal = legal_history(&spec, kind, &mut rng);
        let v = check_with(&spec, &legal, CheckConfig { threads: 4, ..CheckConfig::default() });
        assert!(
            v.is_linearizable(),
            "{kind} seed {seed}: legal-by-construction history rejected in parallel\n{legal:?}"
        );
        assert_thread_agreement(&spec, &legal, &format!("{kind} seed {seed} (legal)"));
        let bad = corrupt(&legal, &mut rng);
        assert_thread_agreement(&spec, &bad, &format!("{kind} seed {seed} (corrupted)"));
        let ph = make_pending(&legal, &mut rng);
        assert_pending_agreement(&spec, &ph, &format!("{kind} seed {seed} (pending)"));
        if seed >= WIDE_SEEDS {
            continue;
        }
        for corrupt_one in [false, true] {
            let wide = wide_history(&spec, kind, &mut rng, corrupt_one);
            let label = format!("{kind} seed {seed} (wide, corrupted: {corrupt_one})");
            for (n, e) in escalated.iter_mut().zip(escalations(&spec, &wide, &label)) {
                *n += e as u64;
            }
        }
    }
    assert!(
        escalated.iter().all(|&n| n > 0),
        "{kind}: no wide history reached the parallel search (escalations at 2/4 threads: \
         {escalated:?})"
    );
}

#[test]
fn queue_parallel_differential() {
    run_kind("queue", erase(FifoQueue::new()), SEEDS_PER_KIND);
}

#[test]
fn priority_queue_parallel_differential() {
    run_kind("priority_queue", erase(PriorityQueue::new()), SEEDS_PER_KIND);
}
