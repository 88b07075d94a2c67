//! Per-key decomposition monitor for sets and key-value stores.
//!
//! Every operation of `GrowSet` (`add`/`remove`/`contains`) and `KvStore`
//! (`put`/`get`/`del`) touches exactly one key, so the object is a product
//! of independent per-key registers and the locality of linearizability
//! (Herlihy–Wing; §2.3 of the paper) applies *exactly*: a history is
//! linearizable iff each per-key sub-history is. This monitor
//!
//! 1. partitions the history by key,
//! 2. reduces each key to a register instance — `add(k)`/`remove(k)` are
//!    writes of `true`/`false` observed by `contains(k)`; `put(k, v)`/`del(k)`
//!    are writes of `v`/"missing" observed by `get(k)` — and runs the
//!    register cluster monitor ([`super::register`]) when the key's writes
//!    are unambiguous, falling back to a per-key Wing–Gong search otherwise
//!    (still exponentially smaller than the whole history), and
//! 3. merges the per-key witnesses with a Kahn scheduler over chain order +
//!    real-time order, which the locality theorem guarantees is acyclic.
//!
//! Keys are borrowed from the decision's arena, never cloned; one counting
//! pass over the arena's `by_invoke` order lays out every key's ops in
//! invocation order, and a per-key search reads a sub-arena gathered from
//! the decision's arena.
//!
//! A per-key violation is sound for the whole history by locality; a per-key
//! `Unknown` (budget) defers to the general search.

use super::register::{order_clusters, Instance, INITIAL};
use super::{MonitorOutcome, Sweep, ValueIds, View};
use crate::arena::HistoryArena;
use crate::wing_gong::{self, CheckConfig, Verdict};
use lintime_adt::spec::{ObjectSpec, SpecKind};
use lintime_adt::value::Value;
use std::collections::VecDeque;
use std::sync::Arc;

/// The values the set and kv writes store: `add`, `remove` and `del`.
static PRESENT: Value = Value::Bool(true);
static ABSENT: Value = Value::Bool(false);
static MISSING: Value = Value::Unit;

/// Monitor a set or kv-store history by per-key decomposition.
pub(crate) fn monitor(spec: &Arc<dyn ObjectSpec>, view: View, cfg: CheckConfig) -> MonitorOutcome {
    let (a, n, kind) = (view.arena, view.len, spec.kind());
    // Each op's key, and the register write it is (the value it stores) or
    // a read (`None`).
    let mut key_of: Vec<&Value> = Vec::with_capacity(n);
    let mut stored: Vec<Option<&Value>> = Vec::with_capacity(n);
    for i in 0..n {
        let (key, writes) = match (kind, a.op[i]) {
            (SpecKind::GrowSet, "add") => (a.arg[i], Some(&PRESENT)),
            (SpecKind::GrowSet, "remove") => (a.arg[i], Some(&ABSENT)),
            (SpecKind::GrowSet, "contains") => (a.arg[i], None),
            (SpecKind::KvStore, "put") => match a.arg[i].as_pair() {
                Some((k, v)) => (k, Some(v)),
                None => return MonitorOutcome::Deferred,
            },
            // del: write "missing"
            (SpecKind::KvStore, "del") => (a.arg[i], Some(&MISSING)),
            (SpecKind::KvStore, "get") => (a.arg[i], None),
            _ => return MonitorOutcome::Deferred,
        };
        key_of.push(key);
        stored.push(writes);
    }
    // Partition by key: each op's key group, numbered by first appearance.
    let (keys, group) = ValueIds::number(&key_of);
    let mut key_values: Vec<&Value> = Vec::with_capacity(keys.len());
    // Keys with a mutator whose return is not the ack.
    let mut bad_ack = vec![false; keys.len()];
    for (i, &g) in group.iter().enumerate() {
        if g as usize == key_values.len() {
            key_values.push(key_of[i]);
        }
        bad_ack[g as usize] |= stored[i].is_some() && *a.ret[i] != Value::Unit;
    }
    // Every key's ops in invocation order.
    let mut start = vec![0u32; key_values.len() + 1];
    for &g in &group {
        start[g as usize + 1] += 1;
    }
    for g in 0..key_values.len() {
        start[g + 1] += start[g];
    }
    let mut by_invoke = vec![0u32; n];
    let mut next = start.clone();
    for &i in view.invoke_order().iter() {
        let g = group[i as usize] as usize;
        by_invoke[next[g] as usize] = i;
        next[g] += 1;
    }

    // Keys in value order: the first key that fails decides the outcome.
    let mut key_order: Vec<usize> = (0..key_values.len()).collect();
    key_order.sort_unstable_by(|&x, &y| key_values[x].cmp(key_values[y]));
    let is_write = stored.iter().map(Option::is_some).collect();
    let mut reduced = Reduced { stored: &stored, is_write, cluster: vec![INITIAL; n] };
    let mut next_in_chain = vec![u32::MAX; n];
    let mut is_head = vec![false; n];
    for g in key_order {
        // A mutator with a non-ack return can be legal in no sequence.
        if bad_ack[g] {
            return MonitorOutcome::Violation;
        }
        let ops = &by_invoke[start[g] as usize..start[g + 1] as usize];
        let chain = match check_key(spec, key_values[g], a, ops, &mut reduced, cfg) {
            Ok(chain) => chain,
            Err(out) => return out,
        };
        for w in chain.windows(2) {
            next_in_chain[w[0]] = w[1] as u32;
        }
        if let Some(&h) = chain.first() {
            is_head[h] = true;
        }
    }
    match merge_chains(view, &next_in_chain, is_head) {
        Some(order) => MonitorOutcome::Witness(order),
        None => MonitorOutcome::Deferred,
    }
}

/// Every op as a register op of its key: the value a write stores (`None`
/// for a read), and the cluster [`check_key`] puts it in.
struct Reduced<'x, 'a> {
    stored: &'x [Option<&'a Value>],
    is_write: Vec<bool>,
    cluster: Vec<u32>,
}

/// Decide one key's sub-history; `Ok` is its linearization (arena indices).
fn check_key(
    spec: &Arc<dyn ObjectSpec>,
    key: &Value,
    a: &HistoryArena,
    ops: &[u32],
    reduced: &mut Reduced,
    cfg: CheckConfig,
) -> Result<Vec<usize>, MonitorOutcome> {
    // Probe the key's initial value from a fresh object instead of assuming
    // an empty structure, so seeded specs (e.g. the streaming checker's
    // carried window state) reduce against the correct baseline.
    let init = match spec.kind() {
        SpecKind::GrowSet => spec.new_object().apply("contains", key),
        _ => spec.new_object().apply("get", key), // kv: current value or Unit
    };
    // The key's writes in invocation order; a write's cluster is its rank
    // there. With every stored value distinct and none the initial value,
    // the key is an unambiguous register instance, and a stored value's id
    // is its write's rank.
    let writers: Vec<u32> = ops.iter().copied().filter(|&i| reduced.is_write[i as usize]).collect();
    let written: Vec<&Value> =
        writers.iter().map(|&w| reduced.stored[w as usize].expect("a write")).collect();
    let (values, value) = ValueIds::number(&written);
    for (k, &w) in writers.iter().enumerate() {
        reduced.cluster[w as usize] = k as u32;
    }
    let ambiguous = values.len() < writers.len() || values.get(&init).is_some();
    let order = |reduced: &Reduced| {
        let instance = Instance {
            by_invoke: ops,
            cluster: &reduced.cluster,
            is_write: &reduced.is_write,
            clusters: writers.len(),
        };
        order_clusters(a, instance)
    };
    if !ambiguous {
        for &r in ops {
            let r = r as usize;
            if !reduced.is_write[r] && *a.ret[r] != init {
                match values.get(a.ret[r]) {
                    Some(c) => reduced.cluster[r] = c,
                    // A read of a value never written and not initial.
                    None => return Err(MonitorOutcome::Violation),
                }
            }
        }
        return match order(reduced) {
            MonitorOutcome::Witness(chain) => Ok(chain),
            out => Err(out),
        };
    }
    if latest_writers(a, &init, ops, reduced, &writers, &values, &value) {
        if let MonitorOutcome::Witness(chain) = order(reduced) {
            return Ok(chain);
        }
    }
    // Per-key general search over the key's ops, gathered from the arena.
    // The sub-history is a valid history of the full type (ops on other keys
    // cannot affect this key's returns).
    let sub = a.gather(ops);
    match wing_gong::decide::<false>(spec, &sub, None, sub.len(), cfg).0 {
        Verdict::Linearizable(local) => Ok(local.into_iter().map(|l| ops[l] as usize).collect()),
        Verdict::NotLinearizable => Err(MonitorOutcome::Violation),
        Verdict::Unknown => Err(MonitorOutcome::Deferred),
    }
}

/// For a key whose writes store some value twice (every `del` stores
/// "missing", which is also what a fresh key reads) or store its initial
/// value: a guess at the reads-from relation, so that the cluster check can
/// find a witness without search. Each read reads from the latest-invoked
/// write of its value that is invoked before the read responds, or from the
/// initial value if there is none; `false` if a read has neither. A guess
/// can be wrong, so only a witness counts: anything else leaves the key to
/// the search. On check-offline's recorded kv-store histories the guess
/// certifies every key.
fn latest_writers(
    a: &HistoryArena,
    init: &Value,
    ops: &[u32],
    reduced: &mut Reduced,
    writers: &[u32],
    values: &ValueIds,
    value: &[u32],
) -> bool {
    // Each value's writes, in invocation order.
    let mut start = vec![0u32; values.len() + 1];
    for &id in value {
        start[id as usize + 1] += 1;
    }
    for v in 0..values.len() {
        start[v + 1] += start[v];
    }
    let mut same_value = vec![0u32; writers.len()];
    let mut next = start.clone();
    for (k, &id) in value.iter().enumerate() {
        same_value[next[id as usize] as usize] = k as u32;
        next[id as usize] += 1;
    }
    for &r in ops {
        let r = r as usize;
        if reduced.is_write[r] {
            continue;
        }
        let latest = values.get(a.ret[r]).and_then(|id| {
            let same = &same_value[start[id as usize] as usize..start[id as usize + 1] as usize];
            let invoked = same
                .partition_point(|&k| a.t_invoke[writers[k as usize] as usize] <= a.t_respond[r]);
            invoked.checked_sub(1).map(|last| same[last])
        });
        reduced.cluster[r] = match latest {
            Some(k) => k,
            None if a.ret[r] == init => INITIAL,
            None => return false,
        };
    }
    true
}

/// Merge per-key linearizations into one global witness: Kahn's algorithm
/// over the union of chain edges and real-time edges, which locality
/// guarantees is acyclic. An op is a source exactly when it heads its chain
/// and is invoked no later than the earliest unemitted response.
fn merge_chains(view: View, next_in_chain: &[u32], mut is_head: Vec<bool>) -> Option<Vec<usize>> {
    let n = view.len;
    let mut sweep = Sweep::new(view);
    let mut admitted = vec![false; n];
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        sweep.admit(|i| {
            admitted[i] = true;
            if is_head[i] {
                ready.push_back(i);
            }
        });
        // Empty only if the chains did not come from real linearizations:
        // a defensive stall.
        let i = ready.pop_front()?;
        order.push(i);
        sweep.emit(i);
        let j = next_in_chain[i];
        if j != u32::MAX {
            is_head[j as usize] = true;
            if admitted[j as usize] {
                ready.push_back(j as usize);
            }
        }
    }
    Some(order)
}
