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
//! One walk of the decision arena's `by_invoke` order gives every cluster
//! its `fr` and `li` and, by a counting pass, its reads in invocation order.
//! The clusters are then sorted by `fr` and by `li` with the arena's
//! near-linear sort for nearly ordered times, and each extraction round
//! reads the two front clusters of each order, skipping extracted ones.
//!
//! Soundness of each `Violation` below: a read of a never-written value can
//! be legal in no sequence; a read that responds before its write invokes
//! would have to be ordered before it; an op of a non-initial cluster that
//! responds before an initial-value read invokes forces that cluster before
//! the initial block; and a stalled source extraction exhibits a cycle of
//! forced block orderings. Ambiguous histories (duplicate written values, a
//! written value equal to the initial value) and non-read/write operations
//! defer to the general search.

use super::{MonitorOutcome, ValueIds, View};
use crate::arena::{sorted_order, HistoryArena};
use lintime_adt::spec::ObjectSpec;
use lintime_adt::value::Value;
use std::sync::Arc;

/// The cluster of the reads that return the initial value.
pub(crate) const INITIAL: u32 = u32::MAX;

/// Monitor a register history. Defers on any operation other than
/// `read`/`write`.
pub(crate) fn monitor(spec: &Arc<dyn ObjectSpec>, view: View) -> MonitorOutcome {
    let (a, n) = (view.arena, view.len);
    // One pass classifies the ops and numbers the written values, so an
    // ambiguous history defers before the reads are looked at. A write's
    // cluster is the ordinal of its value.
    let mut writes = ValueIds::default();
    let mut cluster = vec![INITIAL; n];
    let mut is_write = vec![false; n];
    let mut duplicate = false;
    for i in 0..n {
        match a.op[i] {
            "read" => {}
            "write" => {
                if *a.ret[i] != Value::Unit {
                    // A write acks with Unit in every legal sequence.
                    return MonitorOutcome::Violation;
                }
                if !duplicate {
                    let (c, new) = writes.intern(a.arg[i]);
                    (cluster[i], duplicate) = (c, !new);
                }
                is_write[i] = true;
            }
            _ => return MonitorOutcome::Deferred,
        }
    }
    // The initial value is whatever a fresh object reads.
    let init = spec.new_object().apply("read", &Value::Unit);
    if duplicate || writes.get(&init).is_some() {
        return MonitorOutcome::Deferred;
    }
    for i in 0..n {
        if !is_write[i] && *a.ret[i] != init {
            match writes.get(a.ret[i]) {
                Some(c) => cluster[i] = c,
                // Read of a value never written and not initial.
                None => return MonitorOutcome::Violation,
            }
        }
    }
    let instance = Instance {
        by_invoke: &view.invoke_order(),
        cluster: &cluster,
        is_write: &is_write,
        clusters: writes.len(),
    };
    order_clusters(a, instance)
}

/// One register instance, as [`order_clusters`] reads it: the whole history
/// for the register monitor, one key's ops for the set/kv monitor
/// ([`super::keyed`]).
pub(crate) struct Instance<'x> {
    /// The instance's ops (arena indices) by `(t_invoke, index)`.
    pub by_invoke: &'x [u32],
    /// Per arena index: a write's own cluster, the cluster of the value a
    /// read returns, or [`INITIAL`].
    pub cluster: &'x [u32],
    /// Per arena index: whether the op is a write.
    pub is_write: &'x [bool],
    /// Number of write clusters, `0..clusters`; every one has its write
    /// among the instance's ops, and no write is in [`INITIAL`].
    pub clusters: usize,
}

/// The cluster-order decision procedure. The witness lists arena indices.
pub(crate) fn order_clusters(a: &HistoryArena, inst: Instance) -> MonitorOutcome {
    let m = inst.clusters;
    // Each op's slot, in invocation order: its cluster (`m` for the initial
    // one), with WRITE set for a write.
    const WRITE: u32 = 1 << 31;
    let slots: Vec<u32> = inst
        .by_invoke
        .iter()
        .map(|&i| {
            let c = match inst.cluster[i as usize] {
                INITIAL => m as u32,
                c => c,
            };
            if inst.is_write[i as usize] {
                c | WRITE
            } else {
                c
            }
        })
        .collect();
    let mut li = vec![i64::MIN; m + 1];
    let mut fr = vec![i64::MAX; m + 1];
    let mut write = vec![0u32; m];
    // Reads per cluster, turned into the start of each cluster's run in
    // `reads` below.
    let mut start = vec![0u32; m + 2];
    for (&i, &s) in inst.by_invoke.iter().zip(&slots) {
        let (i, c) = (i as usize, (s & !WRITE) as usize);
        li[c] = a.t_invoke[i];
        fr[c] = fr[c].min(a.t_respond[i]);
        if s & WRITE != 0 {
            write[c] = i as u32;
        } else {
            start[c + 1] += 1;
        }
    }
    for c in 0..=m {
        start[c + 1] += start[c];
    }
    let mut reads = vec![0u32; start[m + 1] as usize];
    let mut next = start.clone();
    for (&i, &c) in inst.by_invoke.iter().zip(&slots) {
        if c & WRITE != 0 {
            continue;
        }
        let c = c as usize;
        // A read must not wholly precede the write it reads from.
        if c < m && a.t_respond[i as usize] < a.t_invoke[write[c] as usize] {
            return MonitorOutcome::Violation;
        }
        reads[next[c] as usize] = i;
        next[c] += 1;
    }
    let cluster_reads = |c: usize| reads[start[c] as usize..start[c + 1] as usize].iter();

    let mut order: Vec<usize> = Vec::with_capacity(inst.by_invoke.len());
    // The initial block must come first: any other cluster forced before it
    // is a contradiction.
    if start[m + 1] > start[m] {
        if fr[..m].iter().any(|&f| f < li[m]) {
            return MonitorOutcome::Violation;
        }
        order.extend(cluster_reads(m).map(|&i| i as usize));
    }

    // Kahn source extraction on the threshold digraph (edge A -> B iff
    // fr(A) < li(B)): cluster A is a source among the remaining clusters iff
    // li(A) <= min fr over the *other* remaining clusters. Only the min-li
    // cluster (or, when that is the min-fr holder itself, the runner-up of
    // either order) can be a source, so each round reads the first two
    // unextracted clusters of the fr order and of the li order.
    let (by_fr, by_li) = (sorted_order(&fr[..m]), sorted_order(&li[..m]));
    let mut extracted = vec![false; m];
    let (mut fr_front, mut li_front) = (Front::default(), Front::default());
    for _ in 0..m {
        let (c1, runner_up) = fr_front.first_two(&by_fr, &extracted);
        let c1 = c1.expect("unextracted clusters remain");
        let (m1, m2) = (fr[c1], runner_up.map_or(i64::MAX, |c| fr[c]));
        let (l1, l2) = li_front.first_two(&by_li, &extracted);
        // A cluster X != c1 is a source iff li(X) <= m1, so a non-c1 source
        // exists iff the smallest li among non-c1 clusters passes; c1 itself
        // is a source iff li(c1) <= m2.
        let non_c1_min_li = if l1 == Some(c1) { l2 } else { l1 };
        let c = match non_c1_min_li {
            Some(x) if li[x] <= m1 => x,
            _ if li[c1] <= m2 => c1,
            // Every remaining cluster has a forced predecessor: a cycle of
            // forced block orderings, hence no linearization.
            _ => return MonitorOutcome::Violation,
        };
        extracted[c] = true;
        order.push(write[c] as usize);
        order.extend(cluster_reads(c).map(|&i| i as usize));
    }
    MonitorOutcome::Witness(order)
}

/// The first two unextracted clusters of one sort order. Clusters are only
/// ever extracted, so both positions only move forward: reading them costs
/// amortized constant time however the extraction order interleaves with
/// this one.
#[derive(Default)]
struct Front {
    first: usize,
    second: usize,
}

impl Front {
    fn first_two(&mut self, order: &[u32], extracted: &[bool]) -> (Option<usize>, Option<usize>) {
        let live = |p: usize| order.get(p).map(|&c| c as usize).filter(|&c| !extracted[c]);
        let skip = |mut p: usize| {
            while p < order.len() && extracted[order[p] as usize] {
                p += 1;
            }
            p
        };
        self.first = skip(self.first);
        self.second = skip(self.second.max(self.first + 1));
        (live(self.first), live(self.second))
    }
}
