//! Crash-cut differential fuzz: the pending-aware checker versus a
//! brute-force enumeration of **all** Herlihy–Wing completions.
//!
//! A crash cuts a history mid-operation, leaving pending invocations whose
//! effects may or may not have happened. Linearizability then quantifies
//! over completions: each pending operation is either dropped or completed
//! with *some* response. The fast checker enumerates candidate inclusion
//! masks and resolves mixed-operation responses with the free-response
//! search; the oracle here enumerates every inclusion subset **and** every
//! concrete response assignment from the value domain, then permutation-
//! checks each completed history. The two must agree whenever the fast
//! checker is decisive — in particular, `NotLinearizable` may only be
//! claimed when every completion is refuted.

use lintime_adt::prelude::*;
use lintime_adt::spec::OpInstance;
use lintime_check::prelude::*;
use lintime_obs::{Obs, Registry, TraceHandle};
use lintime_sim::rng::SplitMix64;
use lintime_sim::time::{Pid, Time};
use std::sync::Arc;

/// Brute force over complete histories: linearizable iff some permutation
/// is legal and respects real-time precedence.
fn brute_force_complete(spec: &Arc<dyn ObjectSpec>, h: &History) -> bool {
    let n = h.ops.len();
    let mut idx: Vec<usize> = (0..n).collect();
    permute(&mut idx, 0, &mut |perm| {
        for (a, &i) in perm.iter().enumerate() {
            for &j in perm.iter().skip(a + 1) {
                if h.ops[j].precedes(&h.ops[i]) {
                    return false;
                }
            }
        }
        let seq: Vec<OpInstance> = perm.iter().map(|&i| h.ops[i].instance.clone()).collect();
        spec.is_legal(&seq)
    })
}

fn permute(idx: &mut Vec<usize>, k: usize, found: &mut impl FnMut(&[usize]) -> bool) -> bool {
    if k == idx.len() {
        return found(idx);
    }
    for i in k..idx.len() {
        idx.swap(k, i);
        if permute(idx, k + 1, found) {
            idx.swap(k, i);
            return true;
        }
        idx.swap(k, i);
    }
    false
}

/// The response domain a queue completion can draw from: `Unit` (empty
/// dequeue / peek, or a mutator's ack) plus every value ever enqueued in
/// the history. Any legal queue linearization is confined to this set, so
/// enumerating it makes the oracle complete for the fifo-queue spec.
fn ret_domain(ph: &PendingHistory) -> Vec<Value> {
    let mut domain = vec![Value::Unit];
    let enq_args = ph
        .complete
        .ops
        .iter()
        .filter(|o| o.instance.op == "enqueue")
        .map(|o| o.instance.arg.clone())
        .chain(
            ph.pending
                .iter()
                .filter(|p| p.invocation.op == "enqueue")
                .map(|p| p.invocation.arg.clone()),
        );
    for v in enq_args {
        if !domain.contains(&v) {
            domain.push(v);
        }
    }
    domain
}

/// Brute-force Herlihy–Wing: try every subset of the possibly-effective
/// pending operations, every response assignment over [`ret_domain`], and
/// permutation-check each resulting complete history. Pending operations
/// proven effect-free (`may_have_effect == false`) are always dropped — no
/// completion may include them.
fn brute_force_pending(spec: &Arc<dyn ObjectSpec>, ph: &PendingHistory) -> bool {
    let candidates: Vec<&PendingOp> = ph.pending.iter().filter(|p| p.may_have_effect).collect();
    let domain = ret_domain(ph);
    for mask in 0u64..(1 << candidates.len()) {
        let included: Vec<&PendingOp> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, p)| *p)
            .collect();
        // Every assignment of responses to the included ops.
        let mut assignment = vec![0usize; included.len()];
        loop {
            let mut h = ph.complete.clone();
            for (p, &ri) in included.iter().zip(&assignment) {
                h.ops.push(TimedOp {
                    pid: p.pid,
                    instance: OpInstance {
                        op: p.invocation.op,
                        arg: p.invocation.arg.clone(),
                        ret: domain[ri].clone(),
                    },
                    t_invoke: p.t_invoke,
                    t_respond: ph.horizon.max(p.t_invoke),
                });
            }
            if brute_force_complete(spec, &h) {
                return true;
            }
            // Next assignment (odometer).
            let mut k = 0;
            loop {
                if k == assignment.len() {
                    break;
                }
                assignment[k] += 1;
                if assignment[k] < domain.len() {
                    break;
                }
                assignment[k] = 0;
                k += 1;
            }
            if k == assignment.len() {
                break;
            }
        }
    }
    false
}

/// A small random crash-cut queue history: a few completed operations with
/// responses from a tiny value domain (so illegal histories are common),
/// plus one to three pending operations across all classes — pure mutators
/// (enqueue), mixed (dequeue), and pure accessors (peek). Deterministic in
/// `seed`.
fn arb_pending_history(seed: u64) -> PendingHistory {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC4A5_4C07);
    let n_complete = rng.gen_range(1usize..5);
    let mut tuples = Vec::new();
    for _ in 0..n_complete {
        let pid = rng.gen_range(0usize..3);
        let v = rng.gen_range(1i64..4);
        let ti = rng.gen_range(0i64..40);
        let dur = rng.gen_range(1i64..40);
        let instance = match rng.gen_range(0usize..3) {
            0 => OpInstance::new("enqueue", v, ()),
            1 => OpInstance::new("dequeue", (), if v == 1 { Value::Unit } else { Value::Int(v) }),
            _ => OpInstance::new("peek", (), if v == 1 { Value::Unit } else { Value::Int(v) }),
        };
        tuples.push((pid, instance, ti, ti + dur));
    }
    let complete = History::from_tuples(tuples);
    let n_pending = rng.gen_range(1usize..4);
    let mut pending = Vec::new();
    for _ in 0..n_pending {
        let inv = match rng.gen_range(0usize..3) {
            0 => Invocation::new("enqueue", rng.gen_range(1i64..4)),
            1 => Invocation::nullary("dequeue"),
            _ => Invocation::nullary("peek"),
        };
        pending.push(PendingOp {
            pid: Pid(rng.gen_range(0usize..3)),
            invocation: inv,
            t_invoke: Time(rng.gen_range(0i64..80)),
            // A quarter of pending ops are provably effect-free, as if the
            // invoker crashed before executing them.
            may_have_effect: rng.gen_range(0u32..4) != 0,
        });
    }
    PendingHistory { complete, pending, horizon: Time(100), malformed: 0 }
}

#[test]
fn pending_checker_agrees_with_completion_enumeration() {
    let spec = erase(FifoQueue::new());
    let (mut decisive, mut unknown) = (0u32, 0u32);
    for seed in 0u64..300 {
        let ph = arb_pending_history(seed);
        let oracle = brute_force_pending(&spec, &ph);
        match check_fast_pending(&spec, &ph) {
            Verdict::Linearizable(_) => {
                decisive += 1;
                assert!(oracle, "seed {seed}: fast accepted, every completion refuted: {ph:?}");
            }
            Verdict::NotLinearizable => {
                decisive += 1;
                assert!(!oracle, "seed {seed}: fast refuted, but a completion linearizes: {ph:?}");
            }
            Verdict::Unknown => unknown += 1,
        }
    }
    // The corpus must actually exercise the decision procedure: the free
    // completion search should decide the overwhelming majority of these
    // small histories.
    assert!(decisive >= 250, "only {decisive} decisive verdicts ({unknown} unknown)");
}

#[test]
fn observed_pending_checker_matches_unobserved() {
    // The unobserved sweep may run its completions on worker threads; the
    // observed one runs them in order. Both must return the same verdict,
    // witness included.
    let spec = erase(FifoQueue::new());
    let obs = Obs::new(TraceHandle::null(), Registry::new());
    for seed in 0u64..300 {
        let ph = arb_pending_history(seed);
        let off = check_fast_pending_with(&spec, &ph, CheckConfig::default(), &Obs::off());
        let on = check_fast_pending_with(&spec, &ph, CheckConfig::default(), &obs);
        assert_eq!(on, off, "seed {seed}: observing the check changed its verdict: {ph:?}");
    }
    // Completions with a free (mixed) op go straight to the search; the rest
    // take one monitor step each, and every deferral one fallback search.
    let get = |name: &str| obs.metrics.counter(name).get();
    let deferred = get("check.monitor.deferred");
    let steps = get("check.monitor.witnesses") + get("check.monitor.violations") + deferred;
    assert!(steps > 0, "the corpus never reached the monitors");
    assert_eq!(get("check.fallback.runs"), deferred);
    assert_eq!(get("check.monitor.invalid_witnesses"), 0);
}

#[test]
fn crash_cut_forces_the_pending_dequeue_to_take_effect() {
    // enqueue(7), enqueue(8) complete; a later completed dequeue returns 8,
    // skipping 7 — legal only if the crashed process's pending dequeue took
    // effect and consumed 7 first. No response can be fabricated for a
    // mixed op up front; the free search finds the unique completion.
    let spec = erase(FifoQueue::new());
    let complete = History::from_tuples(vec![
        (0, OpInstance::new("enqueue", 7, ()), 0, 10),
        (0, OpInstance::new("enqueue", 8, ()), 20, 30),
        (1, OpInstance::new("dequeue", (), 8), 40, 50),
    ]);
    let ph = PendingHistory {
        complete,
        pending: vec![PendingOp {
            pid: Pid(2),
            invocation: Invocation::nullary("dequeue"),
            t_invoke: Time(15),
            may_have_effect: true,
        }],
        horizon: Time(60),
        malformed: 0,
    };
    assert!(check_fast_pending(&spec, &ph).is_linearizable());
    assert!(brute_force_pending(&spec, &ph));
}

#[test]
fn refutation_requires_every_completion_refuted() {
    // A completed dequeue returns a value that was never enqueued: no
    // completion of the pending dequeue can save it, and the free search
    // proves the negative.
    let spec = erase(FifoQueue::new());
    let complete = History::from_tuples(vec![
        (0, OpInstance::new("enqueue", 7, ()), 0, 10),
        (1, OpInstance::new("dequeue", (), 9), 20, 30),
    ]);
    let ph = PendingHistory {
        complete,
        pending: vec![PendingOp {
            pid: Pid(2),
            invocation: Invocation::nullary("dequeue"),
            t_invoke: Time(5),
            may_have_effect: true,
        }],
        horizon: Time(40),
        malformed: 0,
    };
    assert_eq!(check_fast_pending(&spec, &ph), Verdict::NotLinearizable);
    assert!(!brute_force_pending(&spec, &ph));
}
