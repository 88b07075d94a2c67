//! Exhaustive small-scope check of the monitored types.
//!
//! Every history of at most `k` complete operations, one process per
//! operation, over a small domain per type: every real-time shape (one
//! unlabelled interval order per isomorphism class: 1, 2, 5, 15 and 53 of
//! them for k = 1..5) times every labelling of its intervals with the
//! domain's operations. The permutation brute force of `tests/common` is the
//! oracle; `check_fast` (monitor, witness replay, Wing–Gong fallback) and
//! `wing_gong::check` must both reach its class, never panic and never
//! answer `Unknown`, and every witness must replay.
//!
//! Tier-1 runs k ≤ 4 (about 10⁴ histories per type). The ignored release
//! variant runs k ≤ 5:
//!
//! ```sh
//! cargo test --release -p lintime-check --test small_scope -- --ignored
//! ```

mod common;

use common::brute_force;
use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_obs::{Obs, Registry, TraceHandle};
use std::collections::HashSet;
use std::sync::Arc;

/// One representative interval placement per unlabelled interval order of
/// `k` intervals, as `(t_invoke, t_respond)` pairs with distinct endpoints.
fn shapes(k: usize) -> Vec<Vec<(i64, i64)>> {
    // Every endpoint word: intervals open in index order, close in any.
    fn words(
        k: usize,
        placed: &mut Vec<(i64, i64)>,
        open: &mut Vec<usize>,
        t: i64,
        out: &mut Vec<Vec<(i64, i64)>>,
    ) {
        if placed.len() == k && open.is_empty() {
            out.push(placed.clone());
            return;
        }
        if placed.len() < k {
            open.push(placed.len());
            placed.push((t, i64::MAX));
            words(k, placed, open, t + 1, out);
            placed.pop();
            open.pop();
        }
        for slot in 0..open.len() {
            let i = open.remove(slot);
            placed[i].1 = t;
            words(k, placed, open, t + 1, out);
            placed[i].1 = i64::MAX;
            open.insert(slot, i);
        }
    }
    let mut all = Vec::new();
    words(k, &mut Vec::new(), &mut Vec::new(), 0, &mut all);
    // Keep the first placement of each precedence relation up to renaming.
    let perms = permutations(k);
    let mut seen = HashSet::new();
    all.into_iter()
        .filter(|iv| {
            let canonical = perms
                .iter()
                .map(|p| {
                    let mut bits = 0u64;
                    for a in 0..k {
                        for b in 0..k {
                            bits = bits << 1 | u64::from(iv[p[a]].1 < iv[p[b]].0);
                        }
                    }
                    bits
                })
                .min()
                .expect("at least one permutation");
            seen.insert(canonical)
        })
        .collect()
}

fn permutations(k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(k - 1) {
        for at in 0..k {
            let mut q = p.clone();
            q.insert(at, k - 1);
            out.push(q);
        }
    }
    out
}

/// A type and the operations (with their recorded returns) its histories
/// are labelled with.
fn domains() -> Vec<(&'static str, Arc<dyn ObjectSpec>, Vec<OpInstance>)> {
    let produce_consume = |produce: &'static str, consume: &'static str| {
        vec![
            OpInstance::new(produce, 1, ()),
            OpInstance::new(produce, 2, ()),
            OpInstance::new(consume, (), 1),
            OpInstance::new(consume, (), 2),
            OpInstance::new(consume, (), ()),
        ]
    };
    vec![
        (
            "register",
            erase(Register::new(0)),
            vec![
                OpInstance::new("write", 1, ()),
                OpInstance::new("write", 2, ()),
                OpInstance::new("read", (), 0),
                OpInstance::new("read", (), 1),
                OpInstance::new("read", (), 2),
            ],
        ),
        ("queue", erase(FifoQueue::new()), produce_consume("enqueue", "dequeue")),
        ("stack", erase(Stack::new()), produce_consume("push", "pop")),
        ("pq", erase(PriorityQueue::new()), produce_consume("insert", "extract_min")),
        (
            "kv",
            erase(KvStore::new()),
            vec![
                OpInstance::new("put", Value::pair(0, 1), ()),
                OpInstance::new("put", Value::pair(0, 2), ()),
                OpInstance::new("get", 0, 1),
                OpInstance::new("get", 0, 2),
                OpInstance::new("get", 0, ()),
                OpInstance::new("del", 0, ()),
            ],
        ),
    ]
}

/// Check every history of up to `max_ops` ops of every domain; returns, per
/// domain, the number of histories checked and how the monitor step ended
/// on them (`[witnesses, deferred, violations]`).
fn exhaust(max_ops: usize) -> Vec<(&'static str, usize, [u64; 3])> {
    let shapes: Vec<_> = (1..=max_ops).map(shapes).collect();
    let mut checked = Vec::new();
    for (name, spec, labels) in domains() {
        let obs = Obs::new(TraceHandle::null(), Registry::new());
        let mut count = 0;
        for intervals in shapes.iter().flatten() {
            let k = intervals.len();
            let mut digits = vec![0usize; k];
            loop {
                let h = History::from_tuples(
                    (0..k)
                        .map(|i| (i, labels[digits[i]].clone(), intervals[i].0, intervals[i].1))
                        .collect(),
                );
                decide_like_the_oracle(name, &spec, &h, &obs);
                count += 1;
                // Next labelling, as a base-|labels| counter.
                let Some(d) = digits.iter().position(|&d| d + 1 < labels.len()) else { break };
                digits[d] += 1;
                digits[..d].fill(0);
            }
        }
        let reach = ["witnesses", "deferred", "violations"]
            .map(|outcome| obs.metrics.counter(&format!("check.monitor.{outcome}")).get());
        checked.push((name, count, reach));
    }
    checked
}

fn decide_like_the_oracle(name: &str, spec: &Arc<dyn ObjectSpec>, h: &History, obs: &Obs) {
    let oracle = brute_force(spec, h);
    let observed = check_fast_with(spec, h, CheckConfig::default(), obs);
    assert_eq!(observed, check_fast(spec, h), "{name}: observing the check changed it\n{h:?}");
    for (path, verdict) in [("check_fast", observed), ("wing_gong", check(spec, h))] {
        match verdict {
            Verdict::Linearizable(order) => {
                assert!(oracle, "{name}: {path} certified a history the oracle refutes\n{h:?}");
                assert!(
                    verify_witness(spec, h, &order),
                    "{name}: {path} witness {order:?} does not replay\n{h:?}"
                );
            }
            Verdict::NotLinearizable => {
                assert!(!oracle, "{name}: {path} refuted a linearizable history\n{h:?}")
            }
            Verdict::Unknown => panic!("{name}: {path} answered Unknown\n{h:?}"),
        }
    }
}

#[test]
fn shape_counts_are_the_interval_orders() {
    let counts: Vec<usize> = (1..=5).map(|k| shapes(k).len()).collect();
    assert_eq!(counts, vec![1, 2, 5, 15, 53]);
}

#[test]
fn every_history_of_up_to_four_ops() {
    // Σ_k shapes(k) · |labels|^k: 10,055 histories over five labels, 20,598
    // over the kv-store's six. The monitor outcomes, `[witnesses, deferred,
    // violations]`, are pinned: a rewrite of a monitor must leave every
    // history in its outcome class.
    let expected = [
        ("register", 10_055, [1185, 3434, 5436]),
        ("queue", 10_055, [1011, 3438, 5606]),
        ("stack", 10_055, [1043, 3454, 5558]),
        ("pq", 10_055, [1010, 3446, 5599]),
        ("kv", 20_598, [7116, 0, 13482]),
    ];
    assert_eq!(exhaust(4), expected);
}

#[test]
#[ignore = "release-mode scale: about a million histories"]
fn every_history_of_up_to_five_ops() {
    let expected = [
        ("register", 175_680, [10224, 84630, 80826]),
        ("queue", 175_680, [7816, 84676, 83188]),
        ("stack", 175_680, [7880, 84940, 82860]),
        ("pq", 175_680, [7812, 84734, 83134]),
        ("kv", 432_726, [130338, 0, 302388]),
    ];
    assert_eq!(exhaust(5), expected);
}
