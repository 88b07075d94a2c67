//! Log-linear monitor for read/write register histories.
//!
//! For a register, a linearization is a sequence of *blocks*: each write
//! followed by the reads that return its value, preceded by an initial block
//! of reads returning the initial value. When written values are pairwise
//! distinct (and distinct from the initial value) the reads-from relation is
//! unambiguous, and linearizability reduces to ordering the blocks
//! consistently with real time:
//!
//! * cluster `A` must precede cluster `B` iff some op of `A` responds before
//!   some op of `B` invokes — i.e. `fr(A) < li(B)` where `fr` is the
//!   cluster's first response and `li` its last invocation (a *threshold
//!   digraph*);
//! * a linearization exists iff that digraph is acyclic, which Kahn-style
//!   source extraction decides while simultaneously producing the witness.
//!
//! Soundness of each `Violation` below: a read of a never-written value can
//! be legal in no sequence; a read that responds before its write invokes
//! would have to be ordered before it; an op of a non-initial cluster that
//! responds before an initial-value read invokes forces that cluster before
//! the initial block; and a stalled source extraction exhibits a cycle of
//! forced block orderings. Ambiguous histories (duplicate written values, a
//! written value equal to the initial value) and non-read/write operations
//! defer to the general search.

use super::MonitorOutcome;
use crate::history::History;
use lintime_adt::fxhash::FxBuildHasher;
use lintime_adt::spec::ObjectSpec;
use lintime_adt::value::Value;
use lintime_sim::time::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// A parsed read or write, in history-index space.
pub(crate) struct RwOp<'a> {
    /// Index into `history.ops`.
    pub idx: usize,
    pub invoke: Time,
    pub respond: Time,
    /// `Read(returned value)` or `Write(written value)`.
    pub kind: RwKind<'a>,
}

/// Read (with returned value) or write (with written value), borrowed from
/// the history.
pub(crate) enum RwKind<'a> {
    Read(&'a Value),
    Write(&'a Value),
}

/// Written value → its cluster: the ordinal of its write among the ops'
/// writes. Keys are op values, which can come from outside (a crafted trace
/// can slow only its own check).
type WriteIndex<'a> = HashMap<&'a Value, usize, FxBuildHasher>;

/// Monitor a register history. Defers on any operation other than
/// `read`/`write`.
pub fn monitor(spec: &Arc<dyn ObjectSpec>, history: &History) -> MonitorOutcome {
    // One pass classifies the ops and indexes the written values, so an
    // ambiguous history defers before any per-op record is built.
    let mut writes = WriteIndex::default();
    let mut duplicate = false;
    for op in &history.ops {
        match op.instance.op {
            "read" => {}
            "write" => {
                if op.instance.ret != Value::Unit {
                    // A write acks with Unit in every legal sequence.
                    return MonitorOutcome::Violation;
                }
                if !duplicate {
                    duplicate = writes.insert(&op.instance.arg, writes.len()).is_some();
                }
            }
            _ => return MonitorOutcome::Deferred,
        }
    }
    // The initial value is whatever a fresh object reads.
    let init = spec.new_object().apply("read", &Value::Unit);
    if duplicate || writes.contains_key(&init) {
        return MonitorOutcome::Deferred;
    }
    let rw: Vec<RwOp<'_>> = history
        .ops
        .iter()
        .enumerate()
        .map(|(idx, op)| {
            let kind = match op.instance.op {
                "read" => RwKind::Read(&op.instance.ret),
                _ => RwKind::Write(&op.instance.arg),
            };
            RwOp { idx, invoke: op.t_invoke, respond: op.t_respond, kind }
        })
        .collect();
    order_clusters(&rw, &init, &writes)
}

/// A reads-from cluster: one write (none for the initial cluster) plus the
/// reads returning its value.
struct Cluster {
    /// Position in the caller's `ops` slice; `None` for the initial cluster.
    write: Option<usize>,
    reads: Vec<usize>,
    /// Last invocation over members.
    li: Time,
    /// First response over members.
    fr: Time,
}

impl Cluster {
    fn empty(write: Option<usize>) -> Self {
        Cluster { write, reads: Vec::new(), li: Time(i64::MIN), fr: Time(i64::MAX) }
    }

    fn absorb(&mut self, invoke: Time, respond: Time) {
        self.li = self.li.max(invoke);
        self.fr = self.fr.min(respond);
    }
}

/// The cluster-order decision procedure over parsed read/write ops. `init`
/// is the register's initial value. Used per key by the set/kv monitor
/// ([`super::keyed`]), which reduces each key to a register instance.
pub(crate) fn cluster_check(ops: &[RwOp<'_>], init: &Value) -> MonitorOutcome {
    // One cluster per write, keyed by written value; ambiguity defers.
    let mut by_value = WriteIndex::default();
    for op in ops {
        if let RwKind::Write(v) = op.kind {
            if v == init || by_value.insert(v, by_value.len()).is_some() {
                return MonitorOutcome::Deferred;
            }
        }
    }
    order_clusters(ops, init, &by_value)
}

/// [`cluster_check`] past its ambiguity test: `by_value` indexes the
/// pairwise distinct written values of `ops`, none equal to `init`.
fn order_clusters(ops: &[RwOp<'_>], init: &Value, by_value: &WriteIndex<'_>) -> MonitorOutcome {
    let mut clusters: Vec<Cluster> = Vec::with_capacity(by_value.len());
    for (pos, op) in ops.iter().enumerate() {
        if let RwKind::Write(_) = op.kind {
            let mut c = Cluster::empty(Some(pos));
            c.absorb(op.invoke, op.respond);
            clusters.push(c);
        }
    }
    let mut initial = Cluster::empty(None);
    for (pos, op) in ops.iter().enumerate() {
        if let RwKind::Read(v) = op.kind {
            if v == init {
                initial.reads.push(pos);
                initial.absorb(op.invoke, op.respond);
            } else if let Some(&c) = by_value.get(v) {
                // A read must not wholly precede the write it reads from.
                let w = clusters[c].write.expect("non-initial cluster has a write");
                if op.respond < ops[w].invoke {
                    return MonitorOutcome::Violation;
                }
                clusters[c].reads.push(pos);
                clusters[c].absorb(op.invoke, op.respond);
            } else {
                // Read of a value never written and not initial.
                return MonitorOutcome::Violation;
            }
        }
    }

    let mut order: Vec<usize> = Vec::with_capacity(ops.len());
    let emit_cluster = |c: &mut Cluster, order: &mut Vec<usize>| {
        if let Some(w) = c.write {
            order.push(w);
        }
        c.reads.sort_unstable_by_key(|&p| (ops[p].invoke, p));
        order.extend(c.reads.iter().copied());
    };

    // The initial block must come first: any other cluster forced before it
    // is a contradiction.
    if !initial.reads.is_empty() {
        if clusters.iter().any(|c| c.fr < initial.li) {
            return MonitorOutcome::Violation;
        }
        emit_cluster(&mut initial, &mut order);
    }

    // Kahn source extraction on the threshold digraph (edge A -> B iff
    // fr(A) < li(B)): cluster A is a source among the remaining clusters iff
    // li(A) <= min fr over the *other* remaining clusters. Two lazy min-heaps
    // find, per round, the min-fr holder and the min-li candidates; only the
    // min-li cluster (or, when that is the min-fr holder itself, the
    // runner-up of either heap) can be a source, so each round is O(log m).
    let m = clusters.len();
    let mut alive = vec![true; m];
    let mut fr_heap: BinaryHeap<Reverse<(Time, usize)>> =
        clusters.iter().enumerate().map(|(c, cl)| Reverse((cl.fr, c))).collect();
    let mut li_heap: BinaryHeap<Reverse<(Time, usize)>> =
        clusters.iter().enumerate().map(|(c, cl)| Reverse((cl.li, c))).collect();

    fn peek_alive(
        heap: &mut BinaryHeap<Reverse<(Time, usize)>>,
        alive: &[bool],
    ) -> Option<(Time, usize)> {
        while let Some(&Reverse((t, c))) = heap.peek() {
            if alive[c] {
                return Some((t, c));
            }
            heap.pop();
        }
        None
    }
    type Entry = Option<(Time, usize)>;
    fn top_two(heap: &mut BinaryHeap<Reverse<(Time, usize)>>, alive: &[bool]) -> (Entry, Entry) {
        let Some(first) = peek_alive(heap, alive) else { return (None, None) };
        heap.pop();
        let second = peek_alive(heap, alive);
        heap.push(Reverse(first));
        (Some(first), second)
    }

    for _ in 0..m {
        let ((_, c1), m2) = match top_two(&mut fr_heap, &alive) {
            (Some(first), second) => (first, second.map(|(t, _)| t).unwrap_or(Time(i64::MAX))),
            (None, _) => unreachable!("alive clusters remain"),
        };
        let m1 = clusters[c1].fr;
        let (l1, l2) = top_two(&mut li_heap, &alive);
        let (la, a) = l1.expect("alive clusters remain");
        // A cluster X != c1 is a source iff li(X) <= m1, so a non-c1 source
        // exists iff the smallest li among non-c1 clusters passes; c1 itself
        // is a source iff li(c1) <= m2. (When the min-li cluster is c1, the
        // runner-up of the li heap is the non-c1 minimum.)
        let non_c1_min_li = if a == c1 { l2 } else { Some((la, a)) };
        let chosen = match non_c1_min_li {
            Some((l, x)) if l <= m1 => Some(x),
            _ if clusters[c1].li <= m2 => Some(c1),
            _ => None,
        };
        let Some(c) = chosen else {
            // Every remaining cluster has a forced predecessor: a cycle of
            // forced block orderings, hence no linearization.
            return MonitorOutcome::Violation;
        };
        alive[c] = false;
        let mut cl = std::mem::replace(&mut clusters[c], Cluster::empty(None));
        emit_cluster(&mut cl, &mut order);
    }

    // Map positions in `ops` back to history indices.
    MonitorOutcome::Witness(order.into_iter().map(|p| ops[p].idx).collect())
}
