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
//! ## Parallel search
//!
//! Every search starts sequentially. With [`CheckConfig::threads`] > 1 (or
//! left at 0 = auto on a multi-core host) and more than [`PARALLEL_MIN_OPS`]
//! operations, that first search is a *probe* capped at a few nodes per
//! operation: most histories are decided by a single descent with little or
//! no backtracking, and for them spawning workers costs more than the whole
//! search. Only a probe that runs out of budget escalates, and the parallel
//! search gets the budget the probe left (so the total stays within
//! [`CheckConfig::max_nodes`]). Whether a history escalates is a property of
//! the history alone, so a probe-decided verdict — witness included — does
//! not depend on the thread count.
//!
//! The escalated search is split across OS threads: a breadth-first seeding
//! pass expands the root into disjoint frontier branches (deduplicated per
//! layer by `(done set, state)` key), which become jobs in a shared work
//! queue that idle workers steal from. Workers share a lock-striped
//! `ShardedMemo` and a global node budget, and cooperatively cancel as soon
//! as any worker finds a witness.
//!
//! Cross-worker memo pruning is sound because the state graph is *graded*:
//! every edge strictly grows the done set, so two in-flight explorations can
//! never prune against each other cyclically, and under a `NotLinearizable`
//! verdict (all workers exhausted, no cancellation, budget intact) every
//! memo entry is backed by a completed exhaustive exploration — shown by
//! induction downward on the done-set size. Workers stopped by the budget
//! force the weaker [`Verdict::Unknown`] instead, so an incompletely
//! explored entry can never support a refutation.

use crate::arena::HistoryArena;
use crate::bitset::BitSet;
use crate::history::History;
use lintime_adt::fxhash;
use lintime_adt::spec::{ObjState, ObjectSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;

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
    /// [`Verdict::Unknown`]. Shared across all workers when the search runs
    /// in parallel, and bounding the pending-aware checker's search
    /// ([`crate::monitor::check_fast_pending`]) like any other.
    pub max_nodes: u64,
    /// Worker threads for the parallel search. `0` (the default) resolves to
    /// [`std::thread::available_parallelism`]; `1` forces the sequential
    /// search. Parallelism only engages for histories longer than
    /// [`PARALLEL_MIN_OPS`], and only after a sequential probe of a few nodes
    /// per operation failed to decide — most histories never spawn a thread.
    pub threads: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig { max_nodes: 5_000_000, threads: 0 }
    }
}

impl CheckConfig {
    /// The number of worker threads this configuration resolves to (`0`
    /// means "ask the OS", once per process).
    pub fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        // On Linux the answer comes from reading cgroup limits, ~10 µs a
        // call: more than deciding a short history.
        static HOST: OnceLock<usize> = OnceLock::new();
        *HOST.get_or_init(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }
}

/// Histories at most this long are always checked sequentially, regardless
/// of [`CheckConfig::threads`]: job seeding and thread startup cost more
/// than the whole search. Longer histories may go parallel, but only after
/// a bounded sequential probe fails to decide them.
pub const PARALLEL_MIN_OPS: usize = 8;

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
/// These are plain local counters — no atomics, no locks (parallel workers
/// each keep their own copy, merged after the search) — so collecting them
/// costs a handful of register increments per node; [`check_with`] compiles
/// them out entirely via a const-generic flag.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search nodes expanded (states entered, summed across workers).
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
    /// Worker threads the search ran on (1 when the sequential search or
    /// probe decided it).
    pub workers: u64,
    /// Jobs a worker pulled from the shared queue beyond its first — the
    /// work-stealing traffic. Always 0 for the sequential path.
    pub steals: u64,
    /// Lock stripes of the shared memo (1 for the sequential path's
    /// unsharded table).
    pub memo_shards: u64,
    /// 1 iff the parallel search was cooperatively cancelled because a
    /// worker found a witness before the others finished.
    pub cancelled: u64,
}

impl SearchStats {
    fn record_frontier(&mut self, size: usize) {
        let idx = FRONTIER_BUCKETS.partition_point(|&b| b < size as u64);
        self.frontier_sizes[idx] += 1;
        self.max_frontier = self.max_frontier.max(size);
    }

    /// Merge a worker's counters into the aggregate.
    fn absorb(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.memo_hits += other.memo_hits;
        self.memo_inserts += other.memo_inserts;
        self.backtracks += other.backtracks;
        for (a, b) in self.frontier_sizes.iter_mut().zip(other.frontier_sizes.iter()) {
            *a += b;
        }
        self.max_frontier = self.max_frontier.max(other.max_frontier);
        self.steals += other.steals;
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
/// the table indexes directly by their **top** bits (the low bits pick the
/// shard in `ShardedMemo`, so the two never alias) with linear probing.
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

/// Lock stripes in the parallel search's shared memo.
const MEMO_SHARDS: usize = 64;

/// A lock-striped concurrent memo: [`MEMO_SHARDS`] independently locked
/// [`U64Set`]s. The shard is picked from the key's folded **low** bits while
/// the table inside indexes by **top** bits, so striping does not skew the
/// in-shard distribution.
struct ShardedMemo {
    shards: Box<[Mutex<U64Set>]>,
}

impl ShardedMemo {
    fn new() -> Self {
        let shards: Vec<_> = (0..MEMO_SHARDS).map(|_| Mutex::new(U64Set::new())).collect();
        ShardedMemo { shards: shards.into_boxed_slice() }
    }

    fn insert(&self, key: u64) -> bool {
        let shard = ((key ^ (key >> 32)) as usize) & (MEMO_SHARDS - 1);
        self.shards[shard].lock().unwrap().insert(key)
    }

    fn total_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }
}

/// The search's environment: memoization, node budget, and cooperative
/// cancellation. Monomorphized so the sequential path pays no atomics.
trait Ctx {
    /// Record a node key; false means the state was already known (prune).
    fn memo_insert(&mut self, key: u64) -> bool;
    /// Charge one node against the budget; false means the budget is spent.
    fn try_node(&mut self) -> bool;
    /// True once the search should abandon work (another worker won).
    fn should_stop(&self) -> bool;
}

/// Sequential context: private memo, plain counter budget, never cancelled.
struct LocalCtx {
    memo: U64Set,
    used: u64,
    max: u64,
}

impl Ctx for LocalCtx {
    fn memo_insert(&mut self, key: u64) -> bool {
        self.memo.insert(key)
    }

    fn try_node(&mut self) -> bool {
        if self.used >= self.max {
            return false;
        }
        self.used += 1;
        true
    }

    fn should_stop(&self) -> bool {
        false
    }
}

/// Nodes a parallel worker reserves from the shared budget per CAS, so the
/// atomic is touched once every `NODE_BATCH` nodes instead of per node.
const NODE_BATCH: u64 = 256;

/// Shared context for parallel workers: lock-striped memo, batched atomic
/// budget, cancellation flag.
struct SharedCtx<'a> {
    memo: &'a ShardedMemo,
    remaining: &'a AtomicU64,
    quota: u64,
    cancel: &'a AtomicBool,
}

impl Ctx for SharedCtx<'_> {
    fn memo_insert(&mut self, key: u64) -> bool {
        self.memo.insert(key)
    }

    fn try_node(&mut self) -> bool {
        if self.quota > 0 {
            self.quota -= 1;
            return true;
        }
        let mut cur = self.remaining.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            let take = cur.min(NODE_BATCH);
            match self.remaining.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.quota = take - 1;
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    fn should_stop(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// A complete legal order and the state it ends in.
struct Witness {
    order: Vec<u32>,
    /// The search's live object after `order`.
    state: Box<dyn ObjState>,
}

/// How one depth-first exploration ended.
enum Outcome {
    /// A complete legal order (includes the job prefix).
    Found(Witness),
    /// Every extension of the prefix was refuted.
    Exhausted,
    /// Budget spent or cancelled before the subtree was exhausted.
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

/// Depth-first search over all linearizations extending `prefix`. The search
/// succeeds once the first `required` ops are all linearized; ops past them
/// are optional and may be left out (see [`decide`]).
///
/// The object-state invariant: `obj` reflects `order[..obj_depth]`, and
/// `obj_depth == order.len()` iff `obj` is current for the search path
/// (every `order.pop()` leaves `obj_depth > order.len()`, which forces a
/// snapshot restore before the next probe). Once materialized, snapshots
/// cover the multiples of [`SNAP_INTERVAL`] along the current path up to the
/// deepest restore so far, so a restore is one clone plus at most
/// `SNAP_INTERVAL - 1` replays (plus a one-off catch-up of any snapshots the
/// lazy scheme skipped).
fn dfs<const STATS: bool, C: Ctx>(
    spec: &Arc<dyn ObjectSpec>,
    arena: &HistoryArena,
    free: Option<&[bool]>,
    required: usize,
    prefix: &[u32],
    ctx: &mut C,
    stats: &mut SearchStats,
) -> Outcome {
    let n = arena.len();
    // Required ops not yet linearized; the search succeeds when it hits 0.
    let mut left = required - prefix.iter().filter(|&&i| (i as usize) < required).count();
    debug_assert!(left > 0, "callers guarantee at least one undone required op");
    let mut done = BitSet::new(n);
    let mut done_hash = 0u64;
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut obj = spec.new_object();
    // Snapshots are lazy: nothing is cloned until the first restore, so a
    // search that never backtracks (common on long mostly-forced histories)
    // pays zero snapshot cost. The first restore materializes the stack up
    // to the current depth; from then on it is maintained eagerly.
    let mut snaps: Vec<Box<dyn ObjState>> = Vec::with_capacity(n / SNAP_INTERVAL + 1);
    for &iu in prefix {
        let i = iu as usize;
        obj.apply(arena.op[i], arena.arg[i]);
        done.set(i);
        done_hash ^= fxhash::mix64(iu as u64);
        order.push(iu);
    }
    let mut obj_depth = order.len();
    // The memo stays disarmed until the first backtrack: before one, no
    // state can be revisited, so neither lookups nor state hashing buy
    // anything.
    let mut armed = false;

    if !ctx.try_node() {
        return Outcome::Stopped;
    }
    let mut stack: Vec<Frame> = Vec::with_capacity(n - order.len() + 1);
    stack.push(make_frame(arena, &done, &Frame::default()));
    if STATS {
        stats.nodes += 1;
        // Every done op sits inside the cand_end prefix (the respond-time
        // threshold is monotone along a search path), so the schedulable
        // frontier is exactly the prefix minus the linearized ops.
        stats.record_frontier(stack[0].cand_end as usize - order.len());
    }

    loop {
        if ctx.should_stop() {
            return Outcome::Stopped;
        }
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
                return Outcome::Found(Witness { order, state: obj });
            }
        }
        // Children of forced frames (singleton frontier) skip the memo: the
        // only path to them goes through their memoized ancestor.
        if armed && stack[top].cand_end as usize - (order.len() - 1) >= 2 {
            let key = fxhash::combine(done_hash, obj.state_hash());
            if !ctx.memo_insert(key) {
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
        if !ctx.try_node() {
            return Outcome::Stopped;
        }
        let frame = make_frame(arena, &done, &stack[top]);
        stack.push(frame);
        if STATS {
            stats.nodes += 1;
            stats.record_frontier(stack[stack.len() - 1].cand_end as usize - order.len());
        }
        // Snapshot only *surviving* nodes (after the memo check), so the
        // snapshot stack always mirrors the current path.
        if order.len() == snaps.len() * SNAP_INTERVAL {
            snaps.push(obj.clone_box());
        }
    }
}

/// One breadth-first seeding node: a viable prefix with its replayed state.
struct SeedNode {
    prefix: Vec<u32>,
    /// Required ops not in `prefix`.
    left: usize,
    done: BitSet,
    done_hash: u64,
    obj: Box<dyn ObjState>,
}

/// Result of job seeding: either the BFS already decided the instance (with
/// the witness's final state when linearizable), or a layer of disjoint
/// viable prefixes to hand to the workers.
enum Seeded {
    Done(Verdict, Option<Box<dyn ObjState>>),
    Jobs(Vec<Vec<u32>>),
}

/// Seeding never descends past this depth; pathological sequential histories
/// (frontier width 1 forever) otherwise degenerate BFS into the whole
/// search.
const SEED_DEPTH_CAP: usize = 64;

/// Expand the root breadth-first until at least `target` distinct viable
/// prefixes exist (or the instance is decided outright). Each layer is
/// deduplicated by `(done-set hash, state hash)` — sound because equal
/// states have equal futures, and complete because the state graph is graded
/// by done-set size, so equal states can only meet within one layer.
fn seed_jobs<const STATS: bool>(
    spec: &Arc<dyn ObjectSpec>,
    arena: &HistoryArena,
    free: Option<&[bool]>,
    required: usize,
    target: usize,
    budget: &mut u64,
    stats: &mut SearchStats,
) -> Seeded {
    let mut layer = vec![SeedNode {
        prefix: Vec::new(),
        left: required,
        done: BitSet::new(arena.len()),
        done_hash: 0,
        obj: spec.new_object(),
    }];
    let mut depth = 0usize;
    while layer.len() < target && depth < SEED_DEPTH_CAP {
        let mut next: Vec<SeedNode> = Vec::new();
        let mut dedup = U64Set::new();
        for node in &layer {
            let frame = make_frame(arena, &node.done, &Frame::default());
            for &iu in &arena.by_invoke[..frame.cand_end as usize] {
                let i = iu as usize;
                if node.done.get(i) {
                    continue;
                }
                let mut obj = node.obj.clone_box();
                let committed = if free.is_some_and(|f| f[i]) {
                    obj.apply(arena.op[i], arena.arg[i]);
                    true
                } else {
                    obj.apply_if(arena.op[i], arena.arg[i], arena.ret[i])
                };
                if !committed {
                    continue;
                }
                if *budget == 0 {
                    return Seeded::Done(Verdict::Unknown, None);
                }
                *budget -= 1;
                if STATS {
                    stats.nodes += 1;
                }
                let mut prefix = node.prefix.clone();
                prefix.push(iu);
                let left = node.left - (i < required) as usize;
                if left == 0 {
                    let order = prefix.into_iter().map(|i| i as usize).collect();
                    return Seeded::Done(Verdict::Linearizable(order), Some(obj));
                }
                let done_hash = node.done_hash ^ fxhash::mix64(iu as u64);
                if !dedup.insert(fxhash::combine(done_hash, obj.state_hash())) {
                    continue;
                }
                let mut done = node.done.clone();
                done.set(i);
                next.push(SeedNode { prefix, left, done, done_hash, obj });
            }
        }
        if next.is_empty() {
            // Every viable prefix at this depth is a dead end, and the
            // layers cover all viable states: no linearization exists.
            return Seeded::Done(Verdict::NotLinearizable, None);
        }
        layer = next;
        depth += 1;
    }
    Seeded::Jobs(layer.into_iter().map(|s| s.prefix).collect())
}

/// Viable prefixes seeded per worker before the parallel search starts; a
/// few spare jobs per thread keep fast finishers stealing instead of idling.
const JOBS_PER_WORKER: usize = 4;

/// The parallel driver: seed disjoint jobs, run `threads` workers over a
/// shared queue with a striped memo and a common budget, cancel on the first
/// witness. Returns what [`decide`] returns.
fn parallel<const STATS: bool>(
    spec: &Arc<dyn ObjectSpec>,
    arena: &HistoryArena,
    free: Option<&[bool]>,
    required: usize,
    cfg: CheckConfig,
    threads: usize,
) -> (Verdict, SearchStats, Option<Box<dyn ObjState>>) {
    let mut stats = SearchStats::default();
    let mut budget = cfg.max_nodes;
    let target = threads * JOBS_PER_WORKER;
    let jobs =
        match seed_jobs::<STATS>(spec, arena, free, required, target, &mut budget, &mut stats) {
            Seeded::Done(verdict, state) => return (verdict, stats, state),
            Seeded::Jobs(jobs) => jobs,
        };
    let queue: Mutex<VecDeque<Vec<u32>>> = Mutex::new(jobs.into());
    let remaining = AtomicU64::new(budget);
    let cancel = AtomicBool::new(false);
    let stopped = AtomicBool::new(false);
    let witness: Mutex<Option<Witness>> = Mutex::new(None);
    let memo = ShardedMemo::new();
    let (tx, rx) = mpsc::channel::<SearchStats>();
    thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (queue, remaining, cancel, stopped, witness, memo) =
                (&queue, &remaining, &cancel, &stopped, &witness, &memo);
            s.spawn(move || {
                let mut local = SearchStats::default();
                let mut first = true;
                while !cancel.load(Ordering::Relaxed) {
                    let Some(prefix) = queue.lock().unwrap().pop_front() else { break };
                    if !first {
                        local.steals += 1;
                    }
                    first = false;
                    let mut ctx = SharedCtx { memo, remaining, quota: 0, cancel };
                    match dfs::<STATS, _>(
                        spec, arena, free, required, &prefix, &mut ctx, &mut local,
                    ) {
                        Outcome::Found(found) => {
                            let mut w = witness.lock().unwrap();
                            if w.is_none() {
                                *w = Some(found);
                            }
                            drop(w);
                            cancel.store(true, Ordering::Relaxed);
                            break;
                        }
                        Outcome::Exhausted => {}
                        Outcome::Stopped => {
                            // Budget exhaustion taints the verdict; a stop
                            // caused by cancellation does not (a witness
                            // already exists).
                            if !cancel.load(Ordering::Relaxed) {
                                stopped.store(true, Ordering::Relaxed);
                            }
                            break;
                        }
                    }
                }
                let _ = tx.send(local);
            });
        }
        drop(tx);
        for local in rx.iter() {
            stats.absorb(&local);
        }
    });
    stats.workers = threads as u64;
    stats.memo_shards = MEMO_SHARDS as u64;
    stats.memo_peak = memo.total_len() as u64;
    stats.cancelled = cancel.load(Ordering::Relaxed) as u64;
    match witness.into_inner().unwrap() {
        Some(Witness { order, state }) => {
            let order = order.into_iter().map(|i| i as usize).collect();
            (Verdict::Linearizable(order), stats, Some(state))
        }
        None if stopped.load(Ordering::Relaxed) => (Verdict::Unknown, stats, None),
        None => (Verdict::NotLinearizable, stats, None),
    }
}

/// Nodes per operation the sequential probe may spend before a parallel
/// search takes over. A search that never backtracks spends one per op.
const PROBE_NODES_PER_OP: u64 = 4;

/// Flat allowance on top of [`PROBE_NODES_PER_OP`], so short histories get
/// room for a few early dead ends.
const PROBE_SLACK_NODES: u64 = 64;

/// Decide an already-built arena: the one way into the search. The
/// sequential search always runs first; when the parallel route is open
/// (`threads > 1` and more than [`PARALLEL_MIN_OPS`] ops) it runs as a probe
/// capped at `PROBE_NODES_PER_OP · n + PROBE_SLACK_NODES` nodes, and only a
/// probe that runs out of budget escalates to [`parallel`] with the nodes it
/// left over. `STATS = false` compiles every statistics update out of the
/// hot loop.
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
    let threads = cfg.effective_threads();
    let may_fork = threads > 1 && n > PARALLEL_MIN_OPS;
    let budget = if may_fork {
        (PROBE_NODES_PER_OP * n as u64 + PROBE_SLACK_NODES).min(cfg.max_nodes)
    } else {
        cfg.max_nodes
    };
    let mut ctx = LocalCtx { memo: U64Set::new(), used: 0, max: budget };
    let outcome = dfs::<STATS, _>(spec, arena, free, required, &[], &mut ctx, &mut stats);
    let (verdict, state) = match outcome {
        Outcome::Found(Witness { order, state }) => {
            (Verdict::Linearizable(order.into_iter().map(|i| i as usize).collect()), Some(state))
        }
        Outcome::Exhausted => (Verdict::NotLinearizable, None),
        Outcome::Stopped if may_fork && ctx.used < cfg.max_nodes => {
            // The probe's memo is not reusable: entries on its abandoned path
            // were never exhaustively explored. The parallel search starts
            // over from the root with whatever budget the probe left.
            let rest = CheckConfig { max_nodes: cfg.max_nodes - ctx.used, ..cfg };
            let (verdict, mut par, state) =
                parallel::<STATS>(spec, arena, free, required, rest, threads);
            par.absorb(&stats);
            return (verdict, par, state);
        }
        Outcome::Stopped => (Verdict::Unknown, None),
    };
    stats.workers = 1;
    stats.memo_shards = 1;
    stats.memo_peak = ctx.memo.len() as u64;
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
        let v = check_with(&spec, &h, CheckConfig { max_nodes: 3, ..CheckConfig::default() });
        assert_eq!(v, Verdict::Unknown);
        // The parallel path must degrade the same way: here the probe spends
        // its share, seeding a little more, and the workers the rest.
        let hard = escalating_queue_history(6, false);
        let max_nodes = probe_budget(&hard) + 300;
        let (v4, stats) = check_with_stats(&spec, &hard, CheckConfig { max_nodes, threads: 4 });
        assert_eq!(v4, Verdict::Unknown);
        assert_eq!(stats.workers, 4, "the search must escalate past the probe");
        assert!(stats.nodes <= max_nodes, "{} nodes > budget {max_nodes}", stats.nodes);
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
        let cfg = CheckConfig { threads: 1, ..CheckConfig::default() };
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
        // Sequential search: entries are never removed, so peak == inserts.
        assert_eq!(stats.memo_peak, stats.memo_inserts);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.memo_shards, 1);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.cancelled, 0);
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

    /// The node budget of the sequential probe for `h`.
    fn probe_budget(h: &History) -> u64 {
        PROBE_NODES_PER_OP * h.len() as u64 + PROBE_SLACK_NODES
    }

    /// A queue history the probe cannot decide: `k` concurrent enqueues of
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

    #[test]
    fn parallel_agrees_with_sequential_on_linearizable_history() {
        let spec = erase(FifoQueue::new());
        let h = escalating_queue_history(6, false);
        assert!(h.len() > PARALLEL_MIN_OPS, "history must be large enough to engage parallelism");
        for threads in [2, 4] {
            let cfg = CheckConfig { threads, ..CheckConfig::default() };
            let (verdict, stats) = check_with_stats(&spec, &h, cfg);
            assert_eq!(stats.workers, threads as u64, "the probe must escalate");
            let Verdict::Linearizable(order) = verdict else {
                panic!("parallel search must find the witness at {threads} threads");
            };
            // The witness may differ from the sequential one (workers race),
            // but it must be a legal permutation.
            assert_witness_replays(&spec, &h, &order);
        }
    }

    #[test]
    fn parallel_agrees_with_sequential_on_refuted_history() {
        let spec = erase(FifoQueue::new());
        // Probe-decided: sequential enqueues 0..6, then a FIFO violation.
        let mut tuples: Vec<(usize, OpInstance, i64, i64)> =
            (0..6i64).map(|i| (0usize, inst("enqueue", i, ()), 10 * i, 10 * i + 5)).collect();
        for (k, i) in [5i64, 0, 1, 2, 3, 4].into_iter().enumerate() {
            tuples.push((1, inst("dequeue", (), i), 2000 + 10 * k as i64, 2005 + 10 * k as i64));
        }
        let easy = History::from_tuples(tuples);
        let hard = escalating_queue_history(6, true);
        for (h, escalates) in [(easy, false), (hard, true)] {
            assert!(h.len() > PARALLEL_MIN_OPS);
            for threads in [1, 2, 4] {
                let cfg = CheckConfig { threads, ..CheckConfig::default() };
                let (verdict, stats) = check_with_stats(&spec, &h, cfg);
                assert_eq!(verdict, Verdict::NotLinearizable, "{threads} threads");
                let workers = if escalates { threads } else { 1 };
                assert_eq!(stats.workers, workers as u64, "{threads} threads");
            }
        }
    }

    #[test]
    fn parallel_stats_report_workers_and_shards() {
        let spec = erase(FifoQueue::new());
        let h = escalating_queue_history(6, false);
        let cfg = CheckConfig { threads: 2, ..CheckConfig::default() };
        let (verdict, stats) = check_with_stats(&spec, &h, cfg);
        assert!(verdict.is_linearizable());
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.memo_shards, MEMO_SHARDS as u64);
        assert!(stats.nodes > probe_budget(&h), "the probe's nodes are counted too");
    }

    /// The state `decide` returns is where its witness leaves a fresh
    /// object: from the sequential search (threads 1) and from a parallel
    /// worker's `Found` (the escalating history at threads 2).
    #[test]
    fn returned_state_is_the_witness_replayed() {
        let spec = erase(FifoQueue::new());
        for mut h in [escalating_queue_history(6, false), backtracking_queue_history(6)] {
            // Two values left behind, so the final state is not the initial
            // one and its order shows.
            let tail = History::from_tuples(vec![
                (0, inst("enqueue", 100, ()), 5000, 5001),
                (0, inst("enqueue", 101, ()), 5002, 5003),
            ]);
            h.ops.extend(tail.ops);
            let arena = HistoryArena::from_history(&h);
            for threads in [1, 2] {
                let cfg = CheckConfig { threads, ..CheckConfig::default() };
                let (verdict, stats, state) = decide::<true>(&spec, &arena, None, h.len(), cfg);
                assert_eq!(stats.workers, threads as u64, "the probe must escalate");
                let Verdict::Linearizable(order) = verdict else {
                    panic!("expected a witness at {threads} threads");
                };
                let mut replayed = spec.new_object();
                for &i in &order {
                    replayed.apply(h.ops[i].instance.op, &h.ops[i].instance.arg);
                }
                let state = state.expect("a witness comes with its state");
                assert_eq!(state.canonical(), replayed.canonical(), "{threads} threads");
            }
        }
        // A refutation has no state.
        let refuted = escalating_queue_history(6, true);
        let arena = HistoryArena::from_history(&refuted);
        let cfg = CheckConfig { threads: 2, ..CheckConfig::default() };
        let (verdict, _, state) = decide::<false>(&spec, &arena, None, refuted.len(), cfg);
        assert_eq!(verdict, Verdict::NotLinearizable);
        assert!(state.is_none());
    }

    #[test]
    fn probe_decides_easy_histories_without_forking() {
        let spec = erase(FifoQueue::new());
        // One early dead end (enqueue 0 first cannot dequeue 1 first), then
        // a straight descent through sequential enqueue/dequeue pairs.
        let mut tuples = vec![
            (0usize, inst("enqueue", 0, ()), 0, 1000),
            (1, inst("enqueue", 1, ()), 0, 1000),
            (0, inst("dequeue", (), 1), 2000, 2005),
            (0, inst("dequeue", (), 0), 2010, 2015),
        ];
        for i in 2..8i64 {
            let t = 3000 + 20 * i;
            tuples.push((0, inst("enqueue", i, ()), t, t + 5));
            tuples.push((1, inst("dequeue", (), i), t + 10, t + 15));
        }
        let h = History::from_tuples(tuples);
        let sequential =
            check_with(&spec, &h, CheckConfig { threads: 1, ..CheckConfig::default() });
        for threads in [2, 4] {
            let cfg = CheckConfig { threads, ..CheckConfig::default() };
            let (verdict, stats) = check_with_stats(&spec, &h, cfg);
            assert_eq!(stats.workers, 1, "{threads} threads");
            assert_eq!(stats.memo_shards, 1);
            assert!(stats.nodes <= probe_budget(&h));
            // Decided by the same sequential descent: the same witness.
            assert_eq!(verdict, sequential, "{threads} threads");
        }
    }

    #[test]
    fn probe_overflow_gives_the_same_class_at_one_and_two_threads() {
        let spec = erase(FifoQueue::new());
        for refuted in [false, true] {
            let h = escalating_queue_history(6, refuted);
            let one = CheckConfig { threads: 1, ..CheckConfig::default() };
            let (v1, s1) = check_with_stats(&spec, &h, one);
            assert!(s1.nodes > probe_budget(&h), "the history must need more than the probe");
            assert_eq!(s1.workers, 1);
            let two = CheckConfig { threads: 2, ..CheckConfig::default() };
            let (v2, s2) = check_with_stats(&spec, &h, two);
            assert_eq!(s2.workers, 2);
            assert_eq!(v1.is_linearizable(), !refuted);
            assert_eq!(std::mem::discriminant(&v1), std::mem::discriminant(&v2));
            if let Verdict::Linearizable(order) = &v2 {
                assert_witness_replays(&spec, &h, order);
            }
        }
    }

    #[test]
    fn budget_within_the_probe_gives_unknown_never_a_refutation() {
        let spec = erase(FifoQueue::new());
        let h = escalating_queue_history(6, false);
        let probe = probe_budget(&h);
        for max_nodes in [1, probe / 2, probe - 1, probe] {
            for threads in [2, 4] {
                let cfg = CheckConfig { max_nodes, threads };
                let (verdict, stats) = check_with_stats(&spec, &h, cfg);
                assert_eq!(verdict, Verdict::Unknown, "max_nodes {max_nodes}, {threads} threads");
                assert_eq!(stats.workers, 1, "nothing is left to escalate with");
                assert!(stats.nodes <= max_nodes);
            }
        }
    }

    #[test]
    fn node_budget_holds_across_the_probe_boundary() {
        let spec = erase(FifoQueue::new());
        for refuted in [false, true] {
            let h = escalating_queue_history(6, refuted);
            let probe = probe_budget(&h);
            for max_nodes in [probe - 1, probe, probe + 1, probe + 40, probe + 400, 5_000] {
                for threads in [2, 4] {
                    let cfg = CheckConfig { max_nodes, threads };
                    let (verdict, stats) = check_with_stats(&spec, &h, cfg);
                    assert!(
                        stats.nodes <= max_nodes,
                        "{} nodes > max_nodes {max_nodes} at {threads} threads",
                        stats.nodes
                    );
                    let expected = if refuted { "refuted" } else { "linearizable" };
                    match verdict {
                        Verdict::Unknown => {}
                        Verdict::Linearizable(order) if !refuted => {
                            assert_witness_replays(&spec, &h, &order)
                        }
                        Verdict::NotLinearizable if refuted => {}
                        other => panic!("{other:?} for a {expected} history at {max_nodes}"),
                    }
                }
            }
        }
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
            let cfg = CheckConfig { threads: 1, ..CheckConfig::default() };
            let n = h.len();
            assert_eq!(decide::<false>(&spec, &arena, None, n, cfg).0, check_with(&spec, &h, cfg));
            let (v1, s1, _) = decide::<true>(&spec, &arena, None, n, cfg);
            let (v2, s2) = check_with_stats(&spec, &h, cfg);
            assert_eq!(v1, v2);
            assert_eq!(s1, s2);
        }
    }
}
