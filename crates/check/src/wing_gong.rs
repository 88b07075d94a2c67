//! The linearizability decision procedure (Wing–Gong-style search with the
//! state-memoization improvement of Lowe).
//!
//! Given a concurrent [`History`] and a sequential specification, search for
//! a permutation of the operations that (i) is legal for the specification
//! and (ii) respects the real-time order of non-overlapping operations —
//! exactly the correctness condition of Section 2.3 of the paper.
//!
//! The search explores "done sets": at each node the schedulable operations
//! are those minimal in the remaining precedence order; applying one must
//! reproduce its recorded return value. States `(done set, object state)`
//! already proven fruitless are memoized, which makes the common
//! (linearizable) case near-linear for low-contention histories.
//!
//! ## Hot-path engineering
//!
//! The search runs over the shared read-only [`HistoryArena`] (struct-of-
//! arrays columns plus precomputed sort orders) and keeps the per-node cost
//! flat:
//!
//! * **Prefix frontiers, no precedence lists.** The predecessors of op `i`
//!   are exactly the ops that respond before `i` invokes, so the candidate
//!   set at every node is a *prefix* of the invoke-sorted index array,
//!   bounded by the earliest pending response. That bound never shrinks
//!   down a search path, so each node finds it by galloping over a
//!   contiguous `i64` column from its parent's bound — O(1) when the
//!   frontier barely moves. Frames carry resume pointers past the done
//!   prefixes of both sort orders (`Frame::resp_ptr` / `inv_ptr`), so
//!   neither the threshold scan nor the candidate scan ever re-walks ops
//!   linearized further up the path.
//! * **In-place conditional apply.** Instead of cloning the object per
//!   candidate, the search keeps ONE live object and probes candidates with
//!   [`lintime_adt::spec::ObjState::apply_if`], which commits the operation
//!   iff the specification's response matches the recorded one and leaves
//!   the state untouched otherwise (O(1) for the container types).
//!   Backtracking restores the object from interval snapshots (one clone
//!   every `SNAP_INTERVAL` accepted ops) plus a bounded replay — and the
//!   snapshots themselves are *lazy*: nothing is cloned until the first
//!   restore, so a straight-line search clones no state at all.
//! * **Incremental hash-compacted memoization.** The memo key is a single
//!   64-bit value combining a Zobrist-style done-set hash (maintained
//!   incrementally: `h ^= mix64(i)` on set/clear) with the object state hash
//!   (Lowe's hash-compaction variant; a 64-bit collision could in principle
//!   prune a viable branch, which is why the differential and brute-force
//!   suites cross-validate verdicts). The table is an open-addressing
//!   [`U64Set`] — no `HashSet` bucket metadata, no re-hash on growth.
//! * **Memo arming.** Until the search backtracks for the first time, no
//!   state can possibly be revisited (a revisit needs two paths to the same
//!   done set, and the second is only taken after the first was abandoned),
//!   so the memo — including the object state hashing feeding it — is
//!   skipped entirely. Straight-line searches over well-behaved histories
//!   therefore do *zero* hashing. After arming, each node skipped while
//!   unarmed is re-entered at most once more (its first post-arming entry
//!   inserts it). Children of *forced* frames (schedulable frontier of size
//!   one) also skip the memo: a singleton frontier admits a single
//!   continuation, so the entry could never be reached a second way except
//!   through its (memoized) ancestor.
//! * **Explicit stack.** The recursion is an iterative depth-first loop with
//!   12-byte frames, so deep histories cannot overflow the thread stack and
//!   backtracking restores the frontier in O(1).
//!
//! ## One sequential search
//!
//! The search runs on the calling thread. Its budget counts nodes, not
//! time, so extra workers would only spend the same [`CheckConfig::max_nodes`]
//! in another order; on dense 1k-op register, kv, queue and stack histories
//! two workers decided the same verdict class as one, and were slower on
//! every decided legal register and kv history. Cores earn more as `serve`
//! shard workers, each with its own stream checker.

use crate::arena::HistoryArena;
use crate::bitset::BitSet;
use crate::history::History;
use lintime_adt::fxhash;
use lintime_adt::spec::{ObjState, ObjectSpec};
use std::sync::Arc;

/// The checker's verdict.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Linearizable; contains a witness order (indices into `history.ops`).
    Linearizable(Vec<usize>),
    /// Not linearizable.
    NotLinearizable,
    /// Search exceeded the node budget (result unknown).
    Unknown,
}

impl Verdict {
    /// True iff the verdict is `Linearizable`.
    pub fn is_linearizable(&self) -> bool {
        matches!(self, Verdict::Linearizable(_))
    }
}

/// Configuration of the search.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Maximum number of search nodes before giving up with
    /// [`Verdict::Unknown`]. It bounds the pending-aware checker's search
    /// ([`crate::monitor::check_fast_pending`]) like any other.
    pub max_nodes: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig { max_nodes: 5_000_000 }
    }
}

/// Check whether `history` is linearizable with respect to `spec`.
pub fn check(spec: &Arc<dyn ObjectSpec>, history: &History) -> Verdict {
    check_with(spec, history, CheckConfig::default())
}

/// Upper bounds of the frontier-size histogram collected by
/// [`check_with_stats`]; sizes above the last bound land in the implicit
/// overflow bucket of [`SearchStats::frontier_sizes`].
pub const FRONTIER_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Search statistics collected by [`check_with_stats`].
///
/// These are plain local counters — no atomics, no locks — so collecting them
/// costs a handful of register increments per node; [`check_with`] compiles
/// them out entirely via a const-generic flag.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search nodes expanded (states entered).
    pub nodes: u64,
    /// Prefixes pruned because `(done set, object state)` was already
    /// proven fruitless.
    pub memo_hits: u64,
    /// States inserted into the memo table.
    pub memo_inserts: u64,
    /// Frames popped with their frontier exhausted.
    pub backtracks: u64,
    /// Histogram of schedulable-frontier sizes at frame creation, bucketed
    /// by [`FRONTIER_BUCKETS`] plus one overflow slot.
    pub frontier_sizes: [u64; FRONTIER_BUCKETS.len() + 1],
    /// Largest schedulable frontier seen.
    pub max_frontier: usize,
    /// Memo-table occupancy when the search finished (entries are never
    /// removed, so this is also the peak).
    pub memo_peak: u64,
}

impl SearchStats {
    fn record_frontier(&mut self, size: usize) {
        let idx = FRONTIER_BUCKETS.partition_point(|&b| b < size as u64);
        self.frontier_sizes[idx] += 1;
        self.max_frontier = self.max_frontier.max(size);
    }

    /// Fraction of memo lookups that hit (pruned a branch); `None` before
    /// any lookup happened.
    pub fn memo_hit_rate(&self) -> Option<f64> {
        let total = self.memo_hits + self.memo_inserts;
        (total > 0).then(|| self.memo_hits as f64 / total as f64)
    }
}

/// An open-addressing set of 64-bit memo keys.
///
/// Replaces `HashSet<u64>`: keys are already avalanche-quality hashes, so
/// the table indexes directly by their **top** bits with linear probing.
/// One flat `u64` slot array, zero per-entry metadata, and growth re-places
/// the stored keys without re-hashing — doubling the table just exposes one
/// more top bit.
///
/// Slot value 0 means "empty"; the key 0 itself is tracked out of band.
pub struct U64Set {
    slots: Box<[u64]>,
    /// `64 - log2(slots.len())`: index = `key >> shift`.
    shift: u32,
    len: usize,
    has_zero: bool,
}

impl U64Set {
    const MIN_CAP: usize = 16;

    /// An empty set.
    pub fn new() -> Self {
        U64Set {
            slots: vec![0; Self::MIN_CAP].into_boxed_slice(),
            shift: 64 - Self::MIN_CAP.trailing_zeros(),
            len: 0,
            has_zero: false,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True iff `key` is in the set.
    pub fn contains(&self, key: u64) -> bool {
        if key == 0 {
            return self.has_zero;
        }
        let mask = self.slots.len() - 1;
        let mut i = (key >> self.shift) as usize;
        loop {
            let s = self.slots[i];
            if s == key {
                return true;
            }
            if s == 0 {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `key`; returns true iff it was not already present.
    pub fn insert(&mut self, key: u64) -> bool {
        if key == 0 {
            if self.has_zero {
                return false;
            }
            self.has_zero = true;
            self.len += 1;
            return true;
        }
        // Grow at ~62.5% occupancy, before probing, so the insert below
        // always finds an empty slot.
        if (self.len + 1) * 8 > self.slots.len() * 5 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (key >> self.shift) as usize;
        loop {
            let s = self.slots[i];
            if s == key {
                return false;
            }
            if s == 0 {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![0; new_cap].into_boxed_slice());
        self.shift -= 1;
        let mask = new_cap - 1;
        for &key in old.iter().filter(|&&k| k != 0) {
            let mut i = (key >> self.shift) as usize;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = key;
        }
    }
}

impl Default for U64Set {
    fn default() -> Self {
        Self::new()
    }
}

/// How the depth-first search ended.
enum Outcome {
    /// A complete legal order, and the search's live object after it.
    Found(Vec<u32>, Box<dyn ObjState>),
    /// Every order was refuted.
    Exhausted,
    /// The node budget ran out first.
    Stopped,
}

/// One node of the iterative depth-first search. Frames hold no object
/// state: the search keeps a single live object plus interval snapshots.
/// The default frame is the root's parent: every scan starts at 0.
#[derive(Default)]
struct Frame {
    /// Next position in the invoke-sorted index array to try.
    cand: u32,
    /// Frontier bound: candidates are `by_invoke[..cand_end]` (the ops
    /// invoked no later than the earliest response among undone ops).
    cand_end: u32,
    /// First position in the respond-sorted index array whose op is undone;
    /// children resume their scan here (the prefix before it is all done).
    resp_ptr: u32,
    /// First position in the invoke-sorted index array whose op is undone.
    /// Children resume here too: the done set only grows down a path, so the
    /// done prefix of `by_invoke` is monotone. Without this pointer every
    /// frame would rescan the done prefix — O(n) per node once most ops are
    /// linearized, the dominant cost on long mostly-sequential histories.
    inv_ptr: u32,
}

/// Builds the frontier for a child of `parent` (whose done set was a subset
/// of `done`): the undone scans resume at the parent's pointers, and the
/// frontier bound gallops up from the parent's — the threshold never
/// decreases as the done set grows. Requires at least one undone op.
fn make_frame(arena: &HistoryArena, done: &BitSet, parent: &Frame) -> Frame {
    let mut rp = parent.resp_ptr as usize;
    while done.get(arena.by_respond[rp] as usize) {
        rp += 1;
    }
    let threshold = arena.t_respond[arena.by_respond[rp] as usize];
    let cand_end = gallop(&arena.invokes_sorted, parent.cand_end as usize, threshold) as u32;
    // The op at `by_respond[rp]` is undone and invoked before `threshold`,
    // so the advance stops strictly below `cand_end`.
    let mut iv = parent.inv_ptr as usize;
    while done.get(arena.by_invoke[iv] as usize) {
        iv += 1;
    }
    Frame { cand: iv as u32, cand_end, resp_ptr: rp as u32, inv_ptr: iv as u32 }
}

/// `sorted.partition_point(|&t| t <= threshold)` for a sorted slice whose
/// first `from` entries are known to be `<= threshold`: an exponential
/// search from `from`, then a binary search inside the last step.
fn gallop(sorted: &[i64], from: usize, threshold: i64) -> usize {
    let (mut lo, mut step) = (from, 1);
    // Invariant: `sorted[..lo]` are all `<= threshold`.
    while sorted.get(lo + step - 1).is_some_and(|&t| t <= threshold) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(sorted.len());
    lo + sorted[lo..hi].partition_point(|&t| t <= threshold)
}

/// Accepted ops between object snapshots. Backtracking replays at most
/// `SNAP_INTERVAL - 1` ops from the nearest snapshot; once the first restore
/// has materialized the (lazy) snapshot stack, forward progress pays one
/// `clone_box` per `SNAP_INTERVAL` accepted ops.
const SNAP_INTERVAL: usize = 8;

/// Depth-first search over all linearizations, spending at most `max_nodes`
/// nodes and memoizing into `memo`. The search succeeds once the first
/// `required` ops are all linearized; ops past them are optional and may be
/// left out (see [`decide`]).
///
/// The object-state invariant: `obj` reflects `order[..obj_depth]`, and
/// `obj_depth == order.len()` iff `obj` is current for the search path
/// (every `order.pop()` leaves `obj_depth > order.len()`, which forces a
/// snapshot restore before the next probe). Once materialized, snapshots
/// cover the multiples of [`SNAP_INTERVAL`] along the current path up to the
/// deepest restore so far, so a restore is one clone plus at most
/// `SNAP_INTERVAL - 1` replays (plus a one-off catch-up of any snapshots the
/// lazy scheme skipped).
fn dfs<const STATS: bool>(
    spec: &Arc<dyn ObjectSpec>,
    arena: &HistoryArena,
    free: Option<&[bool]>,
    required: usize,
    max_nodes: u64,
    memo: &mut U64Set,
    stats: &mut SearchStats,
) -> Outcome {
    let n = arena.len();
    // Required ops not yet linearized; the search succeeds when it hits 0.
    let mut left = required;
    debug_assert!(left > 0, "callers guarantee at least one required op");
    let mut nodes_left = max_nodes;
    let mut done = BitSet::new(n);
    let mut done_hash = 0u64;
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut obj = spec.new_object();
    // Snapshots are lazy: nothing is cloned until the first restore, so a
    // search that never backtracks (common on long mostly-forced histories)
    // pays zero snapshot cost. The first restore materializes the stack up
    // to the current depth; from then on it is maintained eagerly.
    let mut snaps: Vec<Box<dyn ObjState>> = Vec::with_capacity(n / SNAP_INTERVAL + 1);
    let mut obj_depth = 0;
    // The memo stays disarmed until the first backtrack: before one, no
    // state can be revisited, so neither lookups nor state hashing buy
    // anything.
    let mut armed = false;

    if nodes_left == 0 {
        return Outcome::Stopped;
    }
    nodes_left -= 1;
    let mut stack: Vec<Frame> = Vec::with_capacity(n + 1);
    stack.push(make_frame(arena, &done, &Frame::default()));
    if STATS {
        stats.nodes += 1;
        stats.record_frontier(stack[0].cand_end as usize);
    }

    loop {
        let top = stack.len() - 1;
        let cand = stack[top].cand;
        if cand >= stack[top].cand_end {
            // Frontier exhausted: provably no linearization extends this
            // prefix. Backtrack (undo the op that created this frame).
            stack.pop();
            armed = true;
            if STATS {
                stats.backtracks += 1;
            }
            if stack.is_empty() {
                return Outcome::Exhausted;
            }
            let iu = order.pop().expect("a frame below the root has a linearized op");
            done.clear(iu as usize);
            done_hash ^= fxhash::mix64(iu as u64);
            left += ((iu as usize) < required) as usize;
            while snaps.len() > 1 && (snaps.len() - 1) * SNAP_INTERVAL > order.len() {
                snaps.pop();
            }
            continue;
        }
        stack[top].cand = cand + 1;
        let iu = arena.by_invoke[cand as usize];
        let i = iu as usize;
        if done.get(i) {
            continue;
        }
        if obj_depth != order.len() {
            // The object still reflects an abandoned deeper path: restore
            // from the nearest snapshot at or below the current depth,
            // materializing any snapshots the lazy scheme skipped.
            let d = order.len();
            let k = d / SNAP_INTERVAL;
            if snaps.is_empty() {
                snaps.push(spec.new_object());
            }
            while snaps.len() <= k {
                let m = snaps.len();
                let mut s = snaps[m - 1].clone_box();
                for &ju in &order[(m - 1) * SNAP_INTERVAL..m * SNAP_INTERVAL] {
                    s.apply(arena.op[ju as usize], arena.arg[ju as usize]);
                }
                snaps.push(s);
            }
            obj = snaps[k].clone_box();
            for &ju in &order[k * SNAP_INTERVAL..] {
                obj.apply(arena.op[ju as usize], arena.arg[ju as usize]);
            }
            obj_depth = d;
        }
        // A free op accepts whatever the specification returns here; a bound
        // op commits iff the specification reproduces its recorded response
        // (`apply_if` leaves the state untouched on mismatch).
        let committed = if free.is_some_and(|f| f[i]) {
            obj.apply(arena.op[i], arena.arg[i]);
            true
        } else {
            obj.apply_if(arena.op[i], arena.arg[i], arena.ret[i])
        };
        if !committed {
            continue;
        }
        done.set(i);
        done_hash ^= fxhash::mix64(iu as u64);
        order.push(iu);
        obj_depth = order.len();
        if i < required {
            left -= 1;
            if left == 0 {
                return Outcome::Found(order, obj);
            }
        }
        // Children of forced frames (singleton frontier) skip the memo: the
        // only path to them goes through their memoized ancestor.
        if armed && stack[top].cand_end as usize - (order.len() - 1) >= 2 {
            let key = fxhash::combine(done_hash, obj.state_hash());
            if !memo.insert(key) {
                // Same done set and object state already proven fruitless.
                if STATS {
                    stats.memo_hits += 1;
                }
                order.pop();
                done.clear(i);
                done_hash ^= fxhash::mix64(iu as u64);
                left += (i < required) as usize;
                // `obj` stays one op deep of `order`; the next accepted
                // candidate triggers a snapshot restore.
                continue;
            }
            if STATS {
                stats.memo_inserts += 1;
            }
        }
        if nodes_left == 0 {
            return Outcome::Stopped;
        }
        nodes_left -= 1;
        let frame = make_frame(arena, &done, &stack[top]);
        stack.push(frame);
        if STATS {
            stats.nodes += 1;
            // Every done op sits inside the cand_end prefix (the respond-time
            // threshold is monotone along a search path), so the schedulable
            // frontier is exactly the prefix minus the linearized ops.
            stats.record_frontier(stack[stack.len() - 1].cand_end as usize - order.len());
        }
        // Snapshot only *surviving* nodes (after the memo check), so the
        // snapshot stack always mirrors the current path.
        if order.len() == snaps.len() * SNAP_INTERVAL {
            snaps.push(obj.clone_box());
        }
    }
}

/// Decide an already-built arena: the one way into the search, one
/// depth-first search with the whole [`CheckConfig::max_nodes`] budget.
/// `STATS = false` compiles every statistics update out of the hot loop.
///
/// `free[i] == true` marks op `i`'s recorded response as a placeholder: the
/// search accepts whatever the specification returns for it. This decides
/// Herlihy–Wing completions of pending operations whose response depends on
/// unknowable state (CAS, dequeue, pop): a deterministic specification
/// produces exactly one response per (state, op) pair and the search tries
/// every admissible position, so `NotLinearizable` refutes **every**
/// response assignment for the marked ops.
///
/// A `Linearizable` verdict comes with the object state its witness ends
/// in: the search's live object at the moment it completed the order, so a
/// caller that carries state forward need not replay the witness again.
///
/// Only the first `required` ops must be linearized; ordinary checks pass
/// `arena.len()`. Ops past them are *optional*: the search succeeds as soon
/// as every required op is linearized, and the witness names the optional
/// ops it placed. This decides every inclusion choice for pending
/// operations in one search, provided each optional op responds no earlier
/// than any op in the arena is invoked — then it precedes nothing, and
/// leaving it out never blocks another op.
pub(crate) fn decide<const STATS: bool>(
    spec: &Arc<dyn ObjectSpec>,
    arena: &HistoryArena,
    free: Option<&[bool]>,
    required: usize,
    cfg: CheckConfig,
) -> (Verdict, SearchStats, Option<Box<dyn ObjState>>) {
    let mut stats = SearchStats::default();
    let n = arena.len();
    debug_assert!(required <= n);
    if required == 0 {
        return (Verdict::Linearizable(Vec::new()), stats, Some(spec.new_object()));
    }
    if let Some(f) = free {
        assert_eq!(f.len(), n, "free mask must cover the history");
    }
    let mut memo = U64Set::new();
    let outcome = dfs::<STATS>(spec, arena, free, required, cfg.max_nodes, &mut memo, &mut stats);
    stats.memo_peak = memo.len() as u64;
    let (verdict, state) = match outcome {
        Outcome::Found(order, state) => {
            (Verdict::Linearizable(order.into_iter().map(|i| i as usize).collect()), Some(state))
        }
        Outcome::Exhausted => (Verdict::NotLinearizable, None),
        Outcome::Stopped => (Verdict::Unknown, None),
    };
    (verdict, stats, state)
}

/// [`check`] with an explicit configuration.
pub fn check_with(spec: &Arc<dyn ObjectSpec>, history: &History, cfg: CheckConfig) -> Verdict {
    decide::<false>(spec, &HistoryArena::from_history(history), None, history.len(), cfg).0
}

/// [`check_with`] plus [`SearchStats`] describing the search that produced
/// the verdict. Slightly slower than [`check_with`] (a few register
/// increments per node); use it when the numbers matter, not on the
/// benchmarked default path.
pub fn check_with_stats(
    spec: &Arc<dyn ObjectSpec>,
    history: &History,
    cfg: CheckConfig,
) -> (Verdict, SearchStats) {
    let (verdict, stats, _) =
        decide::<true>(spec, &HistoryArena::from_history(history), None, history.len(), cfg);
    (verdict, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use lintime_adt::spec::{erase, OpInstance};
    use lintime_adt::types::{FifoQueue, Register, RmwRegister};
    use lintime_adt::value::Value;

    fn inst(op: &'static str, arg: impl Into<Value>, ret: impl Into<Value>) -> OpInstance {
        OpInstance::new(op, arg, ret)
    }

    #[test]
    fn empty_history_is_linearizable() {
        let spec = erase(Register::new(0));
        assert!(check(&spec, &History::default()).is_linearizable());
    }

    #[test]
    fn sequential_legal_history() {
        let spec = erase(Register::new(0));
        let h = History::from_tuples(vec![
            (0, inst("write", 5, ()), 0, 10),
            (1, inst("read", (), 5), 20, 30),
        ]);
        let v = check(&spec, &h);
        assert_eq!(v, Verdict::Linearizable(vec![0, 1]));
    }

    #[test]
    fn sequential_illegal_history() {
        let spec = erase(Register::new(0));
        let h = History::from_tuples(vec![
            (0, inst("write", 5, ()), 0, 10),
            (1, inst("read", (), 6), 20, 30), // reads a value never written
        ]);
        assert_eq!(check(&spec, &h), Verdict::NotLinearizable);
    }

    #[test]
    fn overlapping_ops_can_commute() {
        let spec = erase(Register::new(0));
        // Read overlaps the write and returns the OLD value: must be
        // linearized before the write.
        let h = History::from_tuples(vec![
            (0, inst("write", 5, ()), 0, 100),
            (1, inst("read", (), 0), 50, 60),
        ]);
        assert_eq!(check(&spec, &h), Verdict::Linearizable(vec![1, 0]));
    }

    #[test]
    fn stale_read_after_write_completes_is_rejected() {
        let spec = erase(Register::new(0));
        let h = History::from_tuples(vec![
            (0, inst("write", 5, ()), 0, 10),
            (1, inst("read", (), 0), 20, 30), // stale: write already done
        ]);
        assert_eq!(check(&spec, &h), Verdict::NotLinearizable);
    }

    #[test]
    fn classic_double_rmw_anomaly() {
        let spec = erase(RmwRegister::new(0));
        // Two concurrent fetch-adds both returning 0: not linearizable.
        let h = History::from_tuples(vec![
            (0, inst("rmw", 1, 0), 0, 100),
            (1, inst("rmw", 1, 0), 0, 100),
        ]);
        assert_eq!(check(&spec, &h), Verdict::NotLinearizable);
        // If one returns 1, it is linearizable.
        let h2 = History::from_tuples(vec![
            (0, inst("rmw", 1, 0), 0, 100),
            (1, inst("rmw", 1, 1), 0, 100),
        ]);
        assert!(check(&spec, &h2).is_linearizable());
    }

    #[test]
    fn queue_fifo_violation_detected() {
        let spec = erase(FifoQueue::new());
        let h = History::from_tuples(vec![
            (0, inst("enqueue", 1, ()), 0, 10),
            (0, inst("enqueue", 2, ()), 20, 30),
            (1, inst("dequeue", (), 2), 40, 50), // 2 out before 1: violation
        ]);
        assert_eq!(check(&spec, &h), Verdict::NotLinearizable);
        let ok = History::from_tuples(vec![
            (0, inst("enqueue", 1, ()), 0, 10),
            (0, inst("enqueue", 2, ()), 20, 30),
            (1, inst("dequeue", (), 1), 40, 50),
        ]);
        assert!(check(&spec, &ok).is_linearizable());
    }

    #[test]
    fn real_time_order_is_respected_not_just_legality() {
        let spec = erase(FifoQueue::new());
        // enqueue(1) strictly precedes enqueue(2) in real time, so dequeues
        // must return 1 then 2 even across processes.
        let h = History::from_tuples(vec![
            (0, inst("enqueue", 1, ()), 0, 10),
            (1, inst("enqueue", 2, ()), 15, 25),
            (2, inst("dequeue", (), 2), 30, 40),
            (3, inst("dequeue", (), 1), 45, 55),
        ]);
        assert_eq!(check(&spec, &h), Verdict::NotLinearizable);
    }

    #[test]
    fn concurrent_enqueues_either_order() {
        let spec = erase(FifoQueue::new());
        for (first, second) in [(1, 2), (2, 1)] {
            let h = History::from_tuples(vec![
                (0, inst("enqueue", 1, ()), 0, 100),
                (1, inst("enqueue", 2, ()), 0, 100),
                (2, inst("dequeue", (), first), 200, 210),
                (3, inst("dequeue", (), second), 220, 230),
            ]);
            assert!(check(&spec, &h).is_linearizable(), "order {first},{second}");
        }
    }

    #[test]
    fn witness_order_is_a_valid_linearization() {
        let spec = erase(FifoQueue::new());
        let h = History::from_tuples(vec![
            (0, inst("enqueue", 1, ()), 0, 100),
            (1, inst("enqueue", 2, ()), 0, 100),
            (2, inst("peek", (), 2), 150, 160),
        ]);
        let Verdict::Linearizable(order) = check(&spec, &h) else {
            panic!("expected linearizable");
        };
        // Replay the witness: it must be legal.
        let seq: Vec<_> = order.iter().map(|&i| h.ops[i].instance.clone()).collect();
        assert!(spec.is_legal(&seq));
        // And 2 must have been enqueued first for peek -> 2.
        assert_eq!(seq[0].arg, Value::Int(2));
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        let spec = erase(FifoQueue::new());
        // Many concurrent enqueues with no observers: hugely permutable.
        let ops: Vec<_> = (0..12).map(|i| (i as usize, inst("enqueue", i, ()), 0, 1000)).collect();
        let h = History::from_tuples(ops);
        let v = check_with(&spec, &h, CheckConfig { max_nodes: 3 });
        assert_eq!(v, Verdict::Unknown);
    }

    /// The free-response search: ops marked in `free` accept any response.
    fn check_free(spec: &Arc<dyn ObjectSpec>, h: &History, free: &[bool]) -> Verdict {
        let arena = HistoryArena::from_history(h);
        decide::<false>(spec, &arena, Some(free), h.len(), CheckConfig::default()).0
    }

    #[test]
    fn free_response_search_accepts_any_return() {
        let spec = erase(FifoQueue::new());
        // dequeue's recorded ret (99) is a placeholder: marked free, the
        // search accepts the spec's actual response (1).
        let h = History::from_tuples(vec![
            (0, inst("enqueue", 1, ()), 0, 10),
            (1, inst("dequeue", (), 99), 20, 30),
        ]);
        assert_eq!(check(&spec, &h), Verdict::NotLinearizable);
        let free = [false, true];
        assert!(check_free(&spec, &h, &free).is_linearizable());
        // A free op still cannot repair an unrelated contradiction.
        let bad = History::from_tuples(vec![
            (0, inst("enqueue", 1, ()), 0, 10),
            (1, inst("dequeue", (), 99), 20, 30),
            (2, inst("peek", (), 7), 40, 50), // queue is empty after dequeue
        ]);
        let free = [false, true, false];
        assert_eq!(check_free(&spec, &bad, &free), Verdict::NotLinearizable);
    }

    #[test]
    fn free_response_search_tries_every_position() {
        let spec = erase(RmwRegister::new(0));
        // Completed read -> 5 concurrent with a free rmw(5): the search must
        // place the rmw first (yielding read -> 5), not just append it.
        let h = History::from_tuples(vec![
            (0, inst("rmw", 5, 0), 0, 100),
            (1, inst("read", (), 5), 10, 20),
        ]);
        let free = [true, false];
        assert!(check_free(&spec, &h, &free).is_linearizable());
        // Bound, with the wrong recorded ret, it is refuted.
        let bound = [false, false];
        let h2 = History::from_tuples(vec![
            (0, inst("rmw", 5, 1), 0, 100), // rmw on 0 returns 0, not 1
            (1, inst("read", (), 5), 10, 20),
        ]);
        assert_eq!(check_free(&spec, &h2, &bound), Verdict::NotLinearizable);
    }

    /// A queue history whose dequeues force at least one backtrack (so the
    /// memo arms): concurrent enqueues of `0..k`, then sequential dequeues
    /// returning 1, 0, 2, 3, ... — the greedy index-order path enqueues 0
    /// first and dead-ends at dequeue -> 1.
    fn backtracking_queue_history(k: i64) -> History {
        let mut tuples: Vec<(usize, OpInstance, i64, i64)> =
            (0..k).map(|i| (0usize, inst("enqueue", i, ()), 0, 1000)).collect();
        let mut rets: Vec<i64> = (0..k).collect();
        rets.swap(0, 1);
        for (slot, ret) in rets.into_iter().enumerate() {
            let t = 2000 + 10 * slot as i64;
            tuples.push((1, inst("dequeue", (), ret), t, t + 5));
        }
        History::from_tuples(tuples)
    }

    #[test]
    fn stats_variant_agrees_with_plain_search() {
        let spec = erase(FifoQueue::new());
        let h = backtracking_queue_history(6);
        let cfg = CheckConfig::default();
        let (verdict, stats) = check_with_stats(&spec, &h, cfg);
        assert_eq!(verdict, check_with(&spec, &h, cfg), "stats must not change the verdict");
        assert!(verdict.is_linearizable());
        assert!(stats.nodes > 0);
        assert!(stats.backtracks > 0, "dequeue -> 1 first must force a backtrack");
        assert!(stats.memo_inserts > 0, "after arming, branchy nodes are memoized");
        // One frame (and one frontier sample) per expanded node.
        assert_eq!(stats.frontier_sizes.iter().sum::<u64>(), stats.nodes);
        assert!(stats.max_frontier >= 6, "6 concurrent enqueues are all schedulable at the root");
        let rate = stats.memo_hit_rate().unwrap();
        assert!((0.0..1.0).contains(&rate));
        // Entries are never removed, so peak == inserts.
        assert_eq!(stats.memo_peak, stats.memo_inserts);
    }

    #[test]
    fn memoization_handles_permutable_mutators() {
        // 10 concurrent enqueues then sequential dequeues — naive search is
        // 10! but memoization keeps it tractable.
        let spec = erase(FifoQueue::new());
        let mut tuples: Vec<(usize, OpInstance, i64, i64)> =
            (0..10i64).map(|i| (0usize, inst("enqueue", i, ()), 0, 1000)).collect();
        for (k, i) in (0..10i64).enumerate() {
            tuples.push((1, inst("dequeue", (), i), 2000 + 10 * k as i64, 2005 + 10 * k as i64));
        }
        let h = History::from_tuples(tuples);
        assert!(check(&spec, &h).is_linearizable());
    }

    #[test]
    fn u64set_insert_contains_and_growth() {
        let mut s = U64Set::new();
        assert!(s.is_empty());
        assert!(s.insert(0), "key 0 is representable despite the empty sentinel");
        assert!(!s.insert(0));
        assert!(s.contains(0));
        let keys: Vec<u64> = (0..5_000u64).map(|i| fxhash::mix64(i + 1)).collect();
        for &k in &keys {
            assert!(s.insert(k));
        }
        for &k in &keys {
            assert!(!s.insert(k), "growth must preserve membership");
            assert!(s.contains(k));
        }
        assert_eq!(s.len(), keys.len() + 1);
        assert!(!s.contains(0xdead_beef));
    }

    #[test]
    fn u64set_handles_clustered_keys() {
        // Small sequential keys all share their top bits, forcing long probe
        // chains and several growths.
        let mut s = U64Set::new();
        for k in 1..=300u64 {
            assert!(s.insert(k));
        }
        for k in 1..=300u64 {
            assert!(s.contains(k));
        }
        assert!(!s.contains(301));
        assert_eq!(s.len(), 300);
    }

    /// A queue history that needs thousands of nodes: `k` concurrent enqueues of
    /// `0..k`, then sequential dequeues returning them in reverse order, so
    /// the search walks nearly every enqueue permutation (about `e·k!`
    /// nodes) before it meets the one that works. With `refuted` the first
    /// dequeue returns a value nobody enqueued, and every permutation fails.
    fn escalating_queue_history(k: i64, refuted: bool) -> History {
        let mut tuples: Vec<(usize, OpInstance, i64, i64)> =
            (0..k).map(|i| (i as usize, inst("enqueue", i, ()), 0, 1000)).collect();
        for slot in 0..k {
            let ret = if refuted && slot == 0 { k } else { k - 1 - slot };
            let t = 2000 + 10 * slot;
            tuples.push((0, inst("dequeue", (), ret), t, t + 5));
        }
        History::from_tuples(tuples)
    }

    /// Asserts `order` is a permutation of `h`'s ops that replays legally.
    fn assert_witness_replays(spec: &Arc<dyn ObjectSpec>, h: &History, order: &[usize]) {
        let mut seen = vec![false; h.len()];
        for &i in order {
            assert!(!seen[i], "witness must be a permutation");
            seen[i] = true;
        }
        assert_eq!(order.len(), h.len());
        let seq: Vec<_> = order.iter().map(|&i| h.ops[i].instance.clone()).collect();
        assert!(spec.is_legal(&seq), "witness must replay legally");
    }

    /// The default configuration decides both `k = 6` histories in one
    /// search from the root, spending exactly the pinned node counts.
    #[test]
    fn escalating_histories_spend_the_pinned_node_counts() {
        let spec = erase(FifoQueue::new());
        for (refuted, pinned) in [(false, 2110), (true, 1957)] {
            let h = escalating_queue_history(6, refuted);
            let (verdict, stats) = check_with_stats(&spec, &h, CheckConfig::default());
            assert_eq!(stats.nodes, pinned, "refuted {refuted}");
            match verdict {
                Verdict::Linearizable(order) if !refuted => {
                    assert_witness_replays(&spec, &h, &order)
                }
                Verdict::NotLinearizable if refuted => {}
                other => panic!("{other:?} for refuted {refuted}"),
            }
        }
    }

    /// On a history that needs thousands of nodes, every entry point (the
    /// plain search, the statistics search, and the arena's `decide` in both
    /// modes) finds the same witness, and it replays legally.
    #[test]
    fn parallel_agrees_with_sequential_on_linearizable_history() {
        let spec = erase(FifoQueue::new());
        let h = escalating_queue_history(6, false);
        let cfg = CheckConfig::default();
        let Verdict::Linearizable(order) = check(&spec, &h) else {
            panic!("the search must find the witness");
        };
        assert_witness_replays(&spec, &h, &order);
        let (verdict, stats) = check_with_stats(&spec, &h, cfg);
        assert!(stats.backtracks > 0, "the search must backtrack");
        assert_eq!(verdict, Verdict::Linearizable(order.clone()));
        let arena = HistoryArena::from_history(&h);
        for v in [
            decide::<false>(&spec, &arena, None, h.len(), cfg).0,
            decide::<true>(&spec, &arena, None, h.len(), cfg).0,
        ] {
            assert_eq!(v, Verdict::Linearizable(order.clone()));
        }
    }

    /// A refutation found at once (sequential enqueues `0..6`, then 5
    /// dequeued first) and one found only after thousands of nodes are the
    /// same verdict from every entry point.
    #[test]
    fn parallel_agrees_with_sequential_on_refuted_history() {
        let spec = erase(FifoQueue::new());
        let mut tuples: Vec<(usize, OpInstance, i64, i64)> =
            (0..6i64).map(|i| (0usize, inst("enqueue", i, ()), 10 * i, 10 * i + 5)).collect();
        for (k, i) in [5i64, 0, 1, 2, 3, 4].into_iter().enumerate() {
            tuples.push((1, inst("dequeue", (), i), 2000 + 10 * k as i64, 2005 + 10 * k as i64));
        }
        let easy = History::from_tuples(tuples);
        let hard = escalating_queue_history(6, true);
        let cfg = CheckConfig::default();
        let mut nodes = Vec::new();
        for h in [easy, hard] {
            assert_eq!(check(&spec, &h), Verdict::NotLinearizable);
            let (verdict, stats) = check_with_stats(&spec, &h, cfg);
            assert_eq!(verdict, Verdict::NotLinearizable);
            let arena = HistoryArena::from_history(&h);
            let (v, _, state) = decide::<false>(&spec, &arena, None, h.len(), cfg);
            assert_eq!(v, Verdict::NotLinearizable);
            assert!(state.is_none(), "a refutation has no state");
            nodes.push(stats.nodes);
        }
        assert!(nodes[0] * 10 < nodes[1], "nodes {nodes:?}: the easy refutation is short");
    }

    /// Histories that need far more than a few nodes per op still get the
    /// right class, the same from the plain and the statistics search, and
    /// the same at a budget of exactly the nodes they need.
    #[test]
    fn probe_overflow_gives_the_same_class_at_one_and_two_threads() {
        let spec = erase(FifoQueue::new());
        for refuted in [false, true] {
            let h = escalating_queue_history(6, refuted);
            let (v1, s1) = check_with_stats(&spec, &h, CheckConfig::default());
            assert!(s1.nodes > 100 * h.len() as u64, "the history must need many nodes per op");
            assert_eq!(v1.is_linearizable(), !refuted);
            let v2 = check(&spec, &h);
            assert_eq!(std::mem::discriminant(&v1), std::mem::discriminant(&v2));
            let exact = check_with(&spec, &h, CheckConfig { max_nodes: s1.nodes });
            assert_eq!(std::mem::discriminant(&v1), std::mem::discriminant(&exact));
            if let Verdict::Linearizable(order) = &v2 {
                assert_witness_replays(&spec, &h, order);
            }
        }
    }

    /// Below the nodes a history needs, the verdict is Unknown, never a
    /// refutation, and the search stays within the budget.
    #[test]
    fn budget_within_the_probe_gives_unknown_never_a_refutation() {
        let spec = erase(FifoQueue::new());
        for refuted in [false, true] {
            let h = escalating_queue_history(6, refuted);
            let needed = check_with_stats(&spec, &h, CheckConfig::default()).1.nodes;
            for max_nodes in [1, needed / 2, needed - 1] {
                let (verdict, stats) = check_with_stats(&spec, &h, CheckConfig { max_nodes });
                assert_eq!(verdict, Verdict::Unknown, "max_nodes {max_nodes}, refuted {refuted}");
                assert!(stats.nodes <= max_nodes, "{} nodes > max_nodes {max_nodes}", stats.nodes);
            }
        }
    }

    /// Around the nodes a history needs, the search never spends more than
    /// `max_nodes`: one node short it answers Unknown, and from exactly the
    /// nodes needed up it decides the right class with the same node count.
    #[test]
    fn node_budget_holds_across_the_probe_boundary() {
        let spec = erase(FifoQueue::new());
        for refuted in [false, true] {
            let h = escalating_queue_history(6, refuted);
            let needed = check_with_stats(&spec, &h, CheckConfig::default()).1.nodes;
            for max_nodes in [needed - 1, needed, needed + 1, needed + 40, needed + 400, 5_000] {
                let (verdict, stats) = check_with_stats(&spec, &h, CheckConfig { max_nodes });
                assert!(stats.nodes <= max_nodes, "{} nodes > max_nodes {max_nodes}", stats.nodes);
                if max_nodes < needed {
                    assert_eq!(verdict, Verdict::Unknown, "max_nodes {max_nodes}");
                    continue;
                }
                assert_eq!(stats.nodes, needed, "max_nodes {max_nodes}");
                let expected = if refuted { "refuted" } else { "linearizable" };
                match verdict {
                    Verdict::Linearizable(order) if !refuted => {
                        assert_witness_replays(&spec, &h, &order)
                    }
                    Verdict::NotLinearizable if refuted => {}
                    other => panic!("{other:?} for a {expected} history at {max_nodes}"),
                }
            }
        }
    }

    /// The state `decide` returns is where its witness leaves a fresh
    /// object, on a history that needs thousands of nodes and on one that
    /// backtracks once.
    #[test]
    fn returned_state_is_the_witness_replayed() {
        let spec = erase(FifoQueue::new());
        let cfg = CheckConfig::default();
        for mut h in [escalating_queue_history(6, false), backtracking_queue_history(6)] {
            // Two values left behind, so the final state is not the initial
            // one and its order shows.
            let tail = History::from_tuples(vec![
                (0, inst("enqueue", 100, ()), 5000, 5001),
                (0, inst("enqueue", 101, ()), 5002, 5003),
            ]);
            h.ops.extend(tail.ops);
            let arena = HistoryArena::from_history(&h);
            let (verdict, stats, state) = decide::<true>(&spec, &arena, None, h.len(), cfg);
            assert!(stats.backtracks > 0, "the search must backtrack");
            let Verdict::Linearizable(order) = verdict else {
                panic!("expected a witness");
            };
            let mut replayed = spec.new_object();
            for &i in &order {
                replayed.apply(h.ops[i].instance.op, &h.ops[i].instance.arg);
            }
            let state = state.expect("a witness comes with its state");
            assert_eq!(state.canonical(), replayed.canonical());
        }
        // A refutation has no state.
        let refuted = escalating_queue_history(6, true);
        let arena = HistoryArena::from_history(&refuted);
        let (verdict, _, state) = decide::<false>(&spec, &arena, None, refuted.len(), cfg);
        assert_eq!(verdict, Verdict::NotLinearizable);
        assert!(state.is_none());
    }

    #[test]
    fn galloped_frontier_bound_matches_partition_point() {
        use lintime_sim::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0x6A11_0B00);
        for _ in 0..300 {
            let n = rng.gen_range(1usize..48);
            let tuples = (0..n)
                .map(|i| {
                    let t = rng.gen_range(-30i64..30);
                    (i % 4, inst("write", 0, ()), t, t + rng.gen_range(0i64..20))
                })
                .collect();
            let h = History::from_tuples(tuples);
            let arena = HistoryArena::from_history(&h);
            let mut done = BitSet::new(n);
            let mut frame = make_frame(&arena, &done, &Frame::default());
            // Along a random, monotonically growing done set, each child
            // gallops from its parent's bound to the exact bound.
            for step in 0..n {
                let threshold = (0..n).filter(|&i| !done.get(i)).map(|i| arena.t_respond[i]).min();
                let exact = arena.invokes_sorted.partition_point(|&t| t <= threshold.unwrap());
                assert_eq!(frame.cand_end as usize, exact, "step {step} of {n}");
                if step + 1 == n {
                    break;
                }
                let undone: Vec<usize> = (0..n).filter(|&i| !done.get(i)).collect();
                done.set(undone[rng.gen_range(0..undone.len())]);
                frame = make_frame(&arena, &done, &frame);
            }
        }
    }

    #[test]
    fn gallop_edges() {
        let sorted = [-5i64, -5, 0, 3, 3, 3, 9];
        for from in 0..=sorted.len() {
            for threshold in -7..11 {
                let exact = sorted.partition_point(|&t| t <= threshold);
                if from <= exact {
                    assert_eq!(gallop(&sorted, from, threshold), exact, "{from} {threshold}");
                }
            }
        }
        assert_eq!(gallop(&[], 0, 0), 0);
    }

    #[test]
    fn arena_entry_point_matches_history_entry_point() {
        let spec = erase(FifoQueue::new());
        for h in [
            backtracking_queue_history(5),
            History::from_tuples(vec![
                (0, inst("enqueue", 1, ()), 0, 10),
                (1, inst("dequeue", (), 2), 20, 30),
            ]),
        ] {
            // One arena serves both statistics modes, with the same verdict
            // (witness included) as the history entry points.
            let arena = HistoryArena::from_history(&h);
            let cfg = CheckConfig::default();
            let n = h.len();
            assert_eq!(decide::<false>(&spec, &arena, None, n, cfg).0, check_with(&spec, &h, cfg));
            let (v1, s1, _) = decide::<true>(&spec, &arena, None, n, cfg);
            let (v2, s2) = check_with_stats(&spec, &h, cfg);
            assert_eq!(v1, v2);
            assert_eq!(s1, s2);
        }
    }
}
