//! A cache-conscious struct-of-arrays **history arena**.
//!
//! [`crate::history::History`] stores one `TimedOp` per operation — an
//! array-of-structs whose `Value` payloads sit between the timestamps the
//! checker actually scans. The arena transposes that layout: operation name,
//! argument, response, process, and the two timestamps live in separate
//! dense vectors indexed by `u32`, with the two sort orders the Wing–Gong
//! search needs (`by_invoke`, `by_respond`) precomputed once. It is built a
//! single time per decision — by the monitor-first decision ladder behind
//! [`crate::monitor::check_fast`] when the monitor defers, or by the
//! [`crate::wing_gong`] entry points themselves — and then shared read-only
//! by every search the decision spawns, including all parallel workers (the
//! arena is `Sync`; workers never touch anything but `&HistoryArena`).
//!
//! Timestamp scans (frontier thresholds, predecessor prefixes) thus walk
//! contiguous `i64` arrays the prefetcher can stream, and the done-set
//! machinery operates on [`crate::bitset::BitSet`] words instead of per-op
//! edge lists.

use crate::history::{History, TimedOp};
use lintime_adt::value::Value;

/// The struct-of-arrays form of a concurrent history. All columns have the
/// same length and are indexed by the operation's position in the source
/// [`History::ops`] vector, cast to `u32` (histories are capped at `u32::MAX`
/// operations, far beyond what any search could visit).
#[derive(Clone, Debug, Default)]
pub struct HistoryArena {
    /// Operation names.
    pub op: Vec<&'static str>,
    /// Argument values.
    pub arg: Vec<Value>,
    /// Recorded responses.
    pub ret: Vec<Value>,
    /// Invoking processes.
    pub pid: Vec<u32>,
    /// Invocation times.
    pub t_invoke: Vec<i64>,
    /// Response times.
    pub t_respond: Vec<i64>,
    /// Indices sorted by `(t_invoke, index)`: the schedulable frontier at any
    /// search node is a prefix of this array.
    pub by_invoke: Vec<u32>,
    /// `t_invoke[by_invoke[k]]`, so frontier bounds are one `partition_point`
    /// over a contiguous array.
    pub invokes_sorted: Vec<i64>,
    /// Indices sorted by `(t_respond, index)`: the earliest not-yet-done
    /// entry bounds the frontier.
    pub by_respond: Vec<u32>,
}

impl HistoryArena {
    /// Transpose a history into arena form (one `O(n log n)` pass; the only
    /// allocation the checker performs per decision besides its own stack).
    pub fn from_history(history: &History) -> HistoryArena {
        Self::from_ops(&history.ops, &[])
    }

    /// The arena of `head` followed by `tail`, without concatenating them
    /// first.
    pub(crate) fn from_ops(head: &[TimedOp], tail: &[TimedOp]) -> HistoryArena {
        let n = head.len() + tail.len();
        assert!(u32::try_from(n).is_ok(), "history too large for u32 arena indices");
        let mut arena = HistoryArena {
            op: Vec::with_capacity(n),
            arg: Vec::with_capacity(n),
            ret: Vec::with_capacity(n),
            pid: Vec::with_capacity(n),
            t_invoke: Vec::with_capacity(n),
            t_respond: Vec::with_capacity(n),
            by_invoke: Vec::new(),
            invokes_sorted: Vec::with_capacity(n),
            by_respond: Vec::new(),
        };
        for op in head.iter().chain(tail) {
            arena.op.push(op.instance.op);
            arena.arg.push(op.instance.arg.clone());
            arena.ret.push(op.instance.ret.clone());
            arena.pid.push(op.pid.0 as u32);
            arena.t_invoke.push(op.t_invoke.0);
            arena.t_respond.push(op.t_respond.0);
        }
        arena.by_invoke = sorted_order(&arena.t_invoke);
        arena.invokes_sorted.extend(arena.by_invoke.iter().map(|&i| arena.t_invoke[i as usize]));
        arena.by_respond = sorted_order(&arena.t_respond);
        arena
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.op.len()
    }

    /// True iff the arena holds no operations.
    pub fn is_empty(&self) -> bool {
        self.op.is_empty()
    }
}

/// The indices of `times` sorted by `(time, index)`. A column already in
/// order is the identity — stream windows arrive in response order and
/// recorded runs in invocation order — and is returned without sorting;
/// otherwise packed `(time, index)` keys are sorted as plain integers.
fn sorted_order(times: &[i64]) -> Vec<u32> {
    if times.is_sorted() {
        return (0..times.len() as u32).collect();
    }
    // Flipping the sign bit maps i64 order onto u64 order.
    let mut keys: Vec<u128> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| ((t ^ i64::MIN) as u64 as u128) << 32 | i as u128)
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| k as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::OpInstance;

    fn inst(op: &'static str) -> OpInstance {
        OpInstance::new(op, 0, 0)
    }

    #[test]
    fn columns_and_sort_orders() {
        let h = History::from_tuples(vec![
            (2, inst("b"), 10, 40),
            (0, inst("a"), 0, 5),
            (1, inst("c"), 10, 20),
        ]);
        let a = HistoryArena::from_history(&h);
        assert_eq!(a.len(), 3);
        assert_eq!(a.op, vec!["b", "a", "c"]);
        assert_eq!(a.pid, vec![2, 0, 1]);
        assert_eq!(a.by_invoke, vec![1, 0, 2], "invoke ties break by index");
        assert_eq!(a.invokes_sorted, vec![0, 10, 10]);
        assert_eq!(a.by_respond, vec![1, 2, 0]);
    }

    #[test]
    fn predecessor_sets_match_definition() {
        // The search reads op i's real-time predecessors as the prefix of
        // `by_respond` that responds strictly before i invokes.
        let h = History::from_tuples(vec![
            (0, inst("a"), 0, 10),
            (1, inst("b"), 5, 40),
            (2, inst("c"), 12, 20),
            (3, inst("d"), 25, 30),
            (4, inst("e"), 25, 35),
            (5, inst("f"), 50, 60),
        ]);
        let a = HistoryArena::from_history(&h);
        for i in 0..h.len() {
            let cut = a.by_respond.partition_point(|&j| a.t_respond[j as usize] < a.t_invoke[i]);
            let mut prefix: Vec<usize> = a.by_respond[..cut].iter().map(|&j| j as usize).collect();
            prefix.sort_unstable();
            let naive: Vec<usize> =
                (0..h.len()).filter(|&j| j != i && h.ops[j].precedes(&h.ops[i])).collect();
            assert_eq!(prefix, naive, "op {i}");
        }
    }

    #[test]
    fn sort_orders_match_a_reference_sort_in_and_out_of_order() {
        use lintime_sim::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0xA7E4A);
        // Narrow time ranges force equal-time ties; they straddle zero.
        let mut ops: Vec<(usize, OpInstance, i64, i64)> = (0..200)
            .map(|i| {
                let t = rng.gen_range(-8i64..8);
                (i % 5, OpInstance::new("op", i as i64, 0), t, t + rng.gen_range(0i64..6))
            })
            .collect();
        let reference = |times: &[i64]| {
            let mut order: Vec<u32> = (0..times.len() as u32).collect();
            order.sort_by_key(|&i| (times[i as usize], i));
            order
        };
        // Shuffled, then in invocation order (a recorded run), then in
        // response order (a stream window): each sorted column skips its sort.
        for round in 0..3 {
            match round {
                1 => ops.sort_by_key(|o| o.2),
                2 => ops.sort_by_key(|o| o.3),
                _ => {}
            }
            let a = HistoryArena::from_history(&History::from_tuples(ops.clone()));
            assert_eq!(a.t_invoke, ops.iter().map(|o| o.2).collect::<Vec<_>>(), "round {round}");
            assert_eq!(a.by_invoke, reference(&a.t_invoke), "round {round}");
            assert_eq!(a.by_respond, reference(&a.t_respond), "round {round}");
            let invokes: Vec<i64> = a.by_invoke.iter().map(|&i| a.t_invoke[i as usize]).collect();
            assert_eq!(a.invokes_sorted, invokes, "round {round}");
        }
    }

    #[test]
    fn empty_arena() {
        let a = HistoryArena::from_history(&History::default());
        assert!(a.is_empty());
        assert!(a.by_invoke.is_empty() && a.by_respond.is_empty());
    }
}
