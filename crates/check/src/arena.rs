//! A cache-conscious struct-of-arrays **history arena**.
//!
//! [`crate::history::History`] stores one `TimedOp` per operation — an
//! array-of-structs whose `Value` payloads sit between the timestamps the
//! checker actually scans. The arena transposes that layout: operation name,
//! argument, response and the two timestamps live in separate
//! dense vectors indexed by `u32`, with the two sort orders the Wing–Gong
//! search needs (`by_invoke`, `by_respond`) precomputed once. Arguments and
//! responses are borrowed from the ops the arena was built from, never
//! copied, so the arena lives no longer than they do. It is built a single
//! time per decision — first thing in the decision ladder behind
//! [`crate::monitor::check_fast`], or by the [`crate::wing_gong`] entry
//! points themselves — and then read, never written: by the type-specialized
//! monitor, by the replay of its witness and, when the monitor defers, by
//! the one search that decides the history.
//!
//! Timestamp scans (frontier thresholds, predecessor prefixes, the
//! monitors' sweeps) thus walk contiguous `i64` arrays the prefetcher can
//! stream, the monitors take their invocation and response orders from
//! `by_invoke` and `by_respond` instead of sorting their own, and the
//! done-set machinery operates on [`crate::bitset::BitSet`] words instead
//! of per-op edge lists.

use crate::history::{History, TimedOp};
use lintime_adt::value::Value;

/// The struct-of-arrays form of a concurrent history. All columns have the
/// same length and are indexed by the operation's position in the source
/// [`History::ops`] vector, cast to `u32` (histories are capped at `u32::MAX`
/// operations, far beyond what any search could visit).
#[derive(Clone, Debug, Default)]
pub struct HistoryArena<'a> {
    /// Operation names.
    pub op: Vec<&'static str>,
    /// Argument values, borrowed from the source ops.
    pub arg: Vec<&'a Value>,
    /// Recorded responses, borrowed from the source ops.
    pub ret: Vec<&'a Value>,
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

impl<'a> HistoryArena<'a> {
    /// Transpose a history into arena form. Names and timestamps are
    /// copied into their columns; arguments and responses are borrowed, not
    /// copied. The two sort orders cost O(n) for columns that are in order
    /// or nearly so, and O(n log n) otherwise (see `sorted_order`).
    pub fn from_history(history: &'a History) -> HistoryArena<'a> {
        Self::from_ops(&history.ops, &[])
    }

    /// The arena of `head` followed by `tail`, without concatenating them
    /// first.
    pub(crate) fn from_ops(head: &'a [TimedOp], tail: &'a [TimedOp]) -> HistoryArena<'a> {
        let n = head.len() + tail.len();
        assert!(u32::try_from(n).is_ok(), "history too large for u32 arena indices");
        // One tight pass per column beats one pass pushing to all five.
        let ops = || head.iter().chain(tail);
        Self::with_orders(HistoryArena {
            op: ops().map(|o| o.instance.op).collect(),
            arg: ops().map(|o| &o.instance.arg).collect(),
            ret: ops().map(|o| &o.instance.ret).collect(),
            t_invoke: ops().map(|o| o.t_invoke.0).collect(),
            t_respond: ops().map(|o| o.t_respond.0).collect(),
            ..HistoryArena::default()
        })
    }

    /// The arena of the ops at `idxs`, in that order: op `k` of the result
    /// is op `idxs[k]` of `self`. Payloads stay borrowed from the source ops.
    pub(crate) fn gather(&self, idxs: &[u32]) -> HistoryArena<'a> {
        let column = |col: &[i64]| idxs.iter().map(|&i| col[i as usize]).collect();
        Self::with_orders(HistoryArena {
            op: idxs.iter().map(|&i| self.op[i as usize]).collect(),
            arg: idxs.iter().map(|&i| self.arg[i as usize]).collect(),
            ret: idxs.iter().map(|&i| self.ret[i as usize]).collect(),
            t_invoke: column(&self.t_invoke),
            t_respond: column(&self.t_respond),
            ..HistoryArena::default()
        })
    }

    /// Fill in the sort orders of an arena whose columns are set.
    fn with_orders(mut arena: HistoryArena<'a>) -> HistoryArena<'a> {
        arena.by_invoke = sorted_order(&arena.t_invoke);
        arena.invokes_sorted =
            arena.by_invoke.iter().map(|&i| arena.t_invoke[i as usize]).collect();
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

/// Element moves, per operation, that the insertion pass of
/// [`sorted_order`] may spend before it hands over to a full sort.
const INSERTION_MOVES_PER_OP: usize = 2;

/// Flat allowance on top of [`INSERTION_MOVES_PER_OP`], so a short column
/// with one far-displaced entry still takes the insertion pass.
const INSERTION_SLACK_MOVES: usize = 64;

/// The indices of `times` sorted by `(time, index)`.
///
/// A column already in order is the identity and is returned without
/// sorting. Otherwise an insertion pass, which finishes in O(n) on a nearly
/// ordered column — a stream window's invoke times, a recorded run's
/// response times — and gives up after a bounded number of moves; a column
/// it gives up on is sorted in full as packed `(time, index)` integers.
/// Both routes order by `(time, index)`, so they yield the same order.
pub(crate) fn sorted_order(times: &[i64]) -> Vec<u32> {
    if times.is_sorted() {
        return (0..times.len() as u32).collect();
    }
    let budget = INSERTION_MOVES_PER_OP * times.len() + INSERTION_SLACK_MOVES;
    insertion_order(times, budget).unwrap_or_else(|| {
        // Flipping the sign bit maps i64 order onto u64 order.
        let mut keys: Vec<u128> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| ((t ^ i64::MIN) as u64 as u128) << 32 | i as u128)
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|k| k as u32).collect()
    })
}

/// The indices of `times` sorted by `(time, index)` by insertion, or `None`
/// once that would take more than `budget` moves. Only strictly later times
/// move, so equal times keep index order.
fn insertion_order(times: &[i64], mut budget: usize) -> Option<Vec<u32>> {
    let mut order: Vec<u32> = Vec::with_capacity(times.len());
    for (k, &t) in times.iter().enumerate() {
        order.push(k as u32);
        let mut j = k;
        while j > 0 && times[order[j - 1] as usize] > t {
            budget = budget.checked_sub(1)?;
            order[j] = order[j - 1];
            j -= 1;
        }
        order[j] = k as u32;
    }
    Some(order)
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
        assert_eq!(a.by_invoke, vec![1, 0, 2], "invoke ties break by index");
        assert_eq!(a.invokes_sorted, vec![0, 10, 10]);
        assert_eq!(a.by_respond, vec![1, 2, 0]);
        // Arguments and responses are borrowed, not copied.
        for (i, op) in h.ops.iter().enumerate() {
            assert!(std::ptr::eq(a.arg[i], &op.instance.arg));
            assert!(std::ptr::eq(a.ret[i], &op.instance.ret));
        }
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
        let reference = |times: &[i64]| {
            let mut order: Vec<u32> = (0..times.len() as u32).collect();
            order.sort_by_key(|&i| (times[i as usize], i));
            order
        };
        let check = |ops: &[(usize, OpInstance, i64, i64)], case: &str| {
            let h = History::from_tuples(ops.to_vec());
            let a = HistoryArena::from_history(&h);
            assert_eq!(a.t_invoke, ops.iter().map(|o| o.2).collect::<Vec<_>>(), "{case}");
            assert_eq!(a.by_invoke, reference(&a.t_invoke), "{case}");
            assert_eq!(a.by_respond, reference(&a.t_respond), "{case}");
            let invokes: Vec<i64> = a.by_invoke.iter().map(|&i| a.t_invoke[i as usize]).collect();
            assert_eq!(a.invokes_sorted, invokes, "{case}");
        };
        let op = |i: usize, t_invoke: i64, t_respond: i64| {
            (i % 5, OpInstance::new("op", i as i64, 0), t_invoke, t_respond)
        };
        // Narrow time ranges force equal-time ties; they straddle zero.
        let mut ops: Vec<(usize, OpInstance, i64, i64)> = (0..200)
            .map(|i| {
                let t = rng.gen_range(-8i64..8);
                op(i, t, t + rng.gen_range(0i64..6))
            })
            .collect();
        // Shuffled, then in invocation order (a recorded run), then in
        // response order (a stream window): each sorted column skips its sort.
        check(&ops, "shuffled");
        ops.sort_by_key(|o| o.2);
        check(&ops, "invoke-sorted");
        ops.sort_by_key(|o| o.3);
        check(&ops, "respond-sorted");

        // Nearly ordered with bounded displacement: a stream window, in
        // response order, whose invocations lag by up to two ticks, two ops
        // per tick (equal-time ties in both columns), straddling zero. On
        // recorded engine traffic both columns need under one move per op.
        let times = |ops: &[(usize, OpInstance, i64, i64)],
                     col: fn(&(usize, OpInstance, i64, i64)) -> i64| {
            ops.iter().map(col).collect::<Vec<i64>>()
        };
        let window: Vec<_> = (0..600)
            .map(|i| {
                let t_respond = i as i64 / 2 - 150;
                op(i, t_respond - rng.gen_range(0i64..3), t_respond)
            })
            .collect();
        let invokes = times(&window, |o| o.2);
        let budget = INSERTION_MOVES_PER_OP * invokes.len() + INSERTION_SLACK_MOVES;
        assert!(!invokes.is_sorted(), "the invoke column needs the insertion pass");
        assert!(
            insertion_order(&invokes, budget).is_some(),
            "bounded displacement fits the budget"
        );
        check(&window, "stream window");
        // A recorded run, in invocation order, whose responses come back
        // within a bounded delay: the respond column takes the same pass.
        let mut run = window.clone();
        run.sort_by_key(|o| o.2);
        let responds = times(&run, |o| o.3);
        assert!(!responds.is_sorted());
        assert!(insertion_order(&responds, budget).is_some());
        check(&run, "recorded run");

        // A reversed column needs ~n²/2 moves: past the budget, the full
        // sort takes over.
        let reversed: Vec<_> = (0..200).map(|i| op(i, 100 - i as i64 / 2, 200)).collect();
        let invokes = times(&reversed, |o| o.2);
        let budget = INSERTION_MOVES_PER_OP * invokes.len() + INSERTION_SLACK_MOVES;
        assert!(
            insertion_order(&invokes, budget).is_none(),
            "a reversed column takes the fallback"
        );
        check(&reversed, "reversed");

        // Times that straddle zero, far from it too, in random order: past
        // the budget, where the sign-bit flip of the packed keys must order
        // every negative time before every non-negative one.
        let extremes = [i64::MIN, i64::MIN + 1, -2, -1, 0, 1, 2, i64::MAX - 1, i64::MAX];
        let straddle: Vec<_> = (0..300)
            .map(|i| {
                let t = extremes[rng.gen_range(0..extremes.len())];
                op(i, t, t.saturating_add(rng.gen_range(0i64..2)))
            })
            .collect();
        let invokes = times(&straddle, |o| o.2);
        let budget = INSERTION_MOVES_PER_OP * invokes.len() + INSERTION_SLACK_MOVES;
        assert!(insertion_order(&invokes, budget).is_none());
        check(&straddle, "straddling zero");
        // And nearly ordered around zero: the insertion pass.
        let near_zero: Vec<_> = (0..300)
            .map(|i| {
                let t_respond = i as i64 / 2 - 75;
                op(i, t_respond - rng.gen_range(0i64..5), t_respond)
            })
            .collect();
        check(&near_zero, "nearly ordered around zero");
    }

    #[test]
    fn empty_arena() {
        let h = History::default();
        let a = HistoryArena::from_history(&h);
        assert!(a.is_empty());
        assert!(a.by_invoke.is_empty() && a.by_respond.is_empty());
    }
}
