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
//! A per-key violation is sound for the whole history by locality; a per-key
//! `Unknown` (budget) defers to the general search.

use super::register::{cluster_check, RwKind, RwOp};
use super::{Frontier, MonitorOutcome};
use crate::history::History;
use crate::wing_gong::{self, CheckConfig, Verdict};
use lintime_adt::spec::{ObjectSpec, SpecKind};
use lintime_adt::value::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Monitor a set or kv-store history by per-key decomposition.
pub fn monitor(spec: &Arc<dyn ObjectSpec>, history: &History, cfg: CheckConfig) -> MonitorOutcome {
    // Partition by key (BTreeMap: deterministic key order, hence
    // deterministic witnesses).
    let mut groups: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
    for (i, op) in history.ops.iter().enumerate() {
        let key = match (spec.kind(), op.instance.op) {
            (SpecKind::GrowSet, "add" | "remove" | "contains") => op.instance.arg.clone(),
            (SpecKind::KvStore, "put") => match op.instance.arg.as_pair() {
                Some((k, _)) => k.clone(),
                None => return MonitorOutcome::Deferred,
            },
            (SpecKind::KvStore, "get" | "del") => op.instance.arg.clone(),
            _ => return MonitorOutcome::Deferred,
        };
        groups.entry(key).or_default().push(i);
    }

    let mut chains: Vec<Vec<usize>> = Vec::with_capacity(groups.len());
    for (key, idxs) in &groups {
        match check_key(spec, key, history, idxs, cfg) {
            Ok(chain) => chains.push(chain),
            Err(out) => return out,
        }
    }
    match merge_chains(history, &chains) {
        Some(order) => MonitorOutcome::Witness(order),
        None => MonitorOutcome::Deferred,
    }
}

/// Decide one key's sub-history; `Ok` is its linearization (global indices).
fn check_key(
    spec: &Arc<dyn ObjectSpec>,
    key: &Value,
    history: &History,
    idxs: &[usize],
    cfg: CheckConfig,
) -> Result<Vec<usize>, MonitorOutcome> {
    // Fast path: the key as a register instance.
    if let Some((rw, init)) = as_register_instance(spec, key, history, idxs)? {
        match cluster_check(&rw, &init) {
            MonitorOutcome::Witness(chain) => return Ok(chain),
            MonitorOutcome::Violation => return Err(MonitorOutcome::Violation),
            MonitorOutcome::Deferred => {} // ambiguous key: search it below
        }
    }
    // Per-key general search. The sub-history is a valid history of the full
    // type (ops on other keys cannot affect this key's returns).
    let sub = History { ops: idxs.iter().map(|&i| history.ops[i].clone()).collect() };
    match wing_gong::check_with(spec, &sub, cfg) {
        Verdict::Linearizable(local) => Ok(local.into_iter().map(|l| idxs[l]).collect()),
        Verdict::NotLinearizable => Err(MonitorOutcome::Violation),
        Verdict::Unknown => Err(MonitorOutcome::Deferred),
    }
}

/// The values the set and kv writes store: `add`, `remove` and `del`.
static PRESENT: Value = Value::Bool(true);
static ABSENT: Value = Value::Bool(false);
static MISSING: Value = Value::Unit;

/// Reduce one key's ops to register reads/writes. `Ok(None)` is impossible
/// structurally (kept for symmetry); `Err` short-circuits: a mutator with a
/// non-ack return can be legal in no sequence.
#[allow(clippy::type_complexity)]
fn as_register_instance<'a>(
    spec: &Arc<dyn ObjectSpec>,
    key: &Value,
    history: &'a History,
    idxs: &[usize],
) -> Result<Option<(Vec<RwOp<'a>>, Value)>, MonitorOutcome> {
    // Probe the key's initial value from a fresh object instead of assuming
    // an empty structure, so seeded specs (e.g. the streaming checker's
    // carried window state) reduce against the correct baseline.
    let init = match spec.kind() {
        SpecKind::GrowSet => spec.new_object().apply("contains", key),
        _ => spec.new_object().apply("get", key), // kv: current value or Unit
    };
    let mut rw = Vec::with_capacity(idxs.len());
    for &i in idxs {
        let op = &history.ops[i];
        let kind = match op.instance.op {
            "add" | "remove" | "put" | "del" => {
                if op.instance.ret != Value::Unit {
                    return Err(MonitorOutcome::Violation);
                }
                RwKind::Write(match op.instance.op {
                    "add" => &PRESENT,
                    "remove" => &ABSENT,
                    "put" => match op.instance.arg.as_pair() {
                        Some((_, v)) => v,
                        None => return Err(MonitorOutcome::Deferred),
                    },
                    _ => &MISSING, // del: write "missing"
                })
            }
            _ => RwKind::Read(&op.instance.ret), // contains / get
        };
        rw.push(RwOp { idx: i, invoke: op.t_invoke, respond: op.t_respond, kind });
    }
    Ok(Some((rw, init)))
}

/// Merge per-key linearizations into one global witness: Kahn's algorithm
/// over the union of chain edges and real-time edges, which locality
/// guarantees is acyclic. An op is a source exactly when it heads its chain
/// and is invoked no later than the earliest unemitted response.
fn merge_chains(history: &History, chains: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = history.len();
    let mut next_in_chain: Vec<Option<usize>> = vec![None; n];
    let mut is_head = vec![false; n];
    for chain in chains {
        for w in chain.windows(2) {
            next_in_chain[w[0]] = Some(w[1]);
        }
        if let Some(&h) = chain.first() {
            is_head[h] = true;
        }
    }
    let mut frontier = Frontier::new(history);
    let mut by_invoke: Vec<usize> = (0..n).collect();
    by_invoke.sort_unstable_by_key(|&i| (history.ops[i].t_invoke, i));
    let mut admit = 0;
    let mut admitted = vec![false; n];
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let threshold = frontier.threshold().expect("unemitted ops remain");
        while admit < n && history.ops[by_invoke[admit]].t_invoke <= threshold {
            let i = by_invoke[admit];
            admit += 1;
            admitted[i] = true;
            if is_head[i] {
                ready.push_back(i);
            }
        }
        let Some(i) = ready.pop_front() else {
            return None; // cannot happen if the chains came from real
                         // linearizations; defensive stall
        };
        order.push(i);
        frontier.emit(i);
        if let Some(j) = next_in_chain[i] {
            is_head[j] = true;
            if admitted[j] {
                ready.push_back(j);
            }
        }
    }
    Some(order)
}
