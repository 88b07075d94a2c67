//! Log-linear monitors for FIFO-queue, stack, and priority-queue histories.
//!
//! All three monitors share a producer/consumer skeleton: `enqueue`/`push`/
//! `insert` ops are matched to the `dequeue`/`pop`/`extract_min` returning
//! their value (unambiguous when produced values are pairwise distinct;
//! duplicate values defer to the general search, as does any `peek`/`min`).
//! Violations are detected by interval sweeps over sound patterns — each
//! implies a real-time/legality contradiction in every candidate
//! linearization:
//!
//! * a consumer returning a never-produced value, two consumers of the same
//!   value, or a consumer that responds before its producer invokes;
//! * **queue FIFO tunneling**: producers `v`, `w` with
//!   `prodR(v) < prodI(w)` (v provably enqueued first) and
//!   `consR(w) < consI(v)` (w provably dequeued first), or `v` never
//!   dequeued at all while `w` is;
//! * **stack LIFO covering**: `v` popped although some `w` was provably
//!   pushed after `v` and before `v`'s pop, and is popped only after `v`
//!   (or never) — `w` sits on top of `v` when `v` is popped;
//! * **priority inversion** (after Lee & Mathur's unambiguous-history
//!   matching, arXiv:2410.04581): `extract_min` returned `v` although some
//!   smaller `u < v` was provably in the queue across the whole extract —
//!   inserted before the extract invoked and extracted only after it
//!   responded (or never);
//! * **non-empty emptiness**: a consumer returned "empty" although some
//!   value was provably produced before it and consumed only after it (or
//!   never).
//!
//! When no pattern fires, a greedy scheduler builds a witness: it emits any
//! ready consumer matching the structure head (queue front / stack top),
//! ready "empty" consumers while the structure is empty, and otherwise a
//! ready producer — earliest consumer deadline first for queues (FIFO:
//! urgent values in front), latest deadline first for stacks (LIFO: urgent
//! values on top, never-popped values at the bottom). "Ready" is the
//! real-time frontier of the monitor module's `Sweep`. A stalled schedule is
//! *not* a verdict — the monitor defers; the dispatcher replay-verifies any
//! witness.
//!
//! Every sweep walks the decision arena's `by_invoke` and `by_respond`
//! orders, picking out the producers or consumers it needs, instead of
//! sorting its own index arrays; only the priority ranks are sorted.

use super::{MonitorOutcome, Sweep, ValueIds, View};
use lintime_adt::value::Value;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A pair's consumer before one is matched.
const UNCONSUMED: u32 = u32::MAX;

/// A produced value's lifecycle: its producer op and matching consumer
/// (arena indices).
struct Pair {
    /// The producer (`enqueue`/`push`/`insert`).
    prod: u32,
    /// The matching consumer (`dequeue`/`pop`/`extract_min`), or
    /// [`UNCONSUMED`].
    cons: u32,
}

impl Pair {
    fn consumed(&self) -> Option<usize> {
        (self.cons != UNCONSUMED).then_some(self.cons as usize)
    }
}

/// What an op is, in producer/consumer terms.
#[derive(Clone, Copy)]
enum Role {
    /// Producer of pair `.0`.
    Prod(u32),
    /// Consumer of pair `.0`.
    Cons(u32),
    /// Consumer that returned "empty".
    Empty,
}

struct Parsed<'x> {
    pairs: Vec<Pair>,
    /// Produced value → its pair.
    values: ValueIds<'x>,
    /// Whether some consumer returned "empty".
    empties: bool,
    role: Vec<Role>,
    t_invoke: &'x [i64],
    t_respond: &'x [i64],
    by_invoke: Cow<'x, [u32]>,
    by_respond: Cow<'x, [u32]>,
}

impl Parsed<'_> {
    fn prod_invoke(&self, p: usize) -> i64 {
        self.t_invoke[self.pairs[p].prod as usize]
    }

    fn prod_respond(&self, p: usize) -> i64 {
        self.t_respond[self.pairs[p].prod as usize]
    }

    /// The pairs of the producers in `order`, `consumed` ones only if asked.
    fn producers<'o>(
        &'o self,
        order: &'o [u32],
        consumed_only: bool,
    ) -> impl Iterator<Item = usize> + 'o {
        order.iter().filter_map(move |&i| match self.role[i as usize] {
            Role::Prod(p) if !consumed_only || self.pairs[p as usize].cons != UNCONSUMED => {
                Some(p as usize)
            }
            _ => None,
        })
    }

    /// The pairs of the (non-empty) consumers in `order`.
    fn consumers<'o>(&'o self, order: &'o [u32]) -> impl Iterator<Item = usize> + 'o {
        order.iter().filter_map(move |&i| match self.role[i as usize] {
            Role::Cons(p) => Some(p as usize),
            _ => None,
        })
    }
}

/// Match producers to consumers. `Err` carries the short-circuit outcome
/// (Deferred for unknown/ambiguous structure, Violation for sound
/// impossibilities).
fn parse<'x>(
    view: View<'x, '_>,
    prod_name: &str,
    cons_name: &str,
) -> Result<Parsed<'x>, MonitorOutcome> {
    let (a, n) = (view.arena, view.len);
    let mut pairs: Vec<Pair> = Vec::with_capacity(n);
    // Produced value → its pair.
    let mut values = ValueIds::default();
    let mut role = vec![Role::Empty; n];
    let mut empties = false;
    // Producers first so consumers can match in one pass each.
    for (i, role) in role.iter_mut().enumerate() {
        if a.op[i] == prod_name {
            if *a.ret[i] != Value::Unit {
                return Err(MonitorOutcome::Violation); // producers ack with Unit
            }
            let (p, new) = values.intern(a.arg[i]);
            if !new {
                return Err(MonitorOutcome::Deferred); // ambiguous: duplicate value
            }
            *role = Role::Prod(p);
            pairs.push(Pair { prod: i as u32, cons: UNCONSUMED });
        }
    }
    for (i, role) in role.iter_mut().enumerate() {
        if a.op[i] == prod_name {
            continue;
        }
        if a.op[i] != cons_name {
            return Err(MonitorOutcome::Deferred); // peek or unknown op
        }
        if *a.ret[i] == Value::Unit {
            empties = true;
            continue;
        }
        let Some(p) = values.get(a.ret[i]) else {
            return Err(MonitorOutcome::Violation); // consumed a never-produced value
        };
        let pair = &mut pairs[p as usize];
        if pair.cons != UNCONSUMED {
            return Err(MonitorOutcome::Violation); // value consumed twice
        }
        pair.cons = i as u32;
        if a.t_respond[i] < a.t_invoke[pair.prod as usize] {
            return Err(MonitorOutcome::Violation); // consumed before produced
        }
        *role = Role::Cons(p);
    }
    Ok(Parsed {
        pairs,
        values,
        empties,
        role,
        t_invoke: &a.t_invoke,
        t_respond: &a.t_respond,
        by_invoke: view.invoke_order(),
        by_respond: view.respond_order(),
    })
}

/// Sound "non-empty emptiness" sweep, shared by all three: an
/// empty-returning consumer `e` is impossible if some value was provably in
/// the structure across `e`'s whole interval — produced before `e` invokes,
/// and consumed only after `e` responds (or never).
fn empties_feasible(parsed: &Parsed) -> bool {
    if !parsed.empties {
        return true;
    }
    let mut admit = parsed.producers(&parsed.by_respond, false).peekable();
    let mut unconsumed_admitted = false;
    let mut max_cons_invoke = i64::MIN;
    let empties = parsed.by_invoke.iter().map(|&e| e as usize);
    for e in empties.filter(|&e| matches!(parsed.role[e], Role::Empty)) {
        let e_invoke = parsed.t_invoke[e];
        while let Some(p) = admit.next_if(|&p| parsed.prod_respond(p) < e_invoke) {
            match parsed.pairs[p].consumed() {
                None => unconsumed_admitted = true,
                Some(c) => max_cons_invoke = max_cons_invoke.max(parsed.t_invoke[c]),
            }
        }
        if unconsumed_admitted || max_cons_invoke > parsed.t_respond[e] {
            return false;
        }
    }
    true
}

/// Monitor a FIFO-queue history (`enqueue`/`dequeue`; any `peek` defers).
pub(crate) fn monitor_queue(view: View) -> MonitorOutcome {
    let parsed = match parse(view, "enqueue", "dequeue") {
        Ok(p) => p,
        Err(out) => return out,
    };
    if !empties_feasible(&parsed) {
        return MonitorOutcome::Violation;
    }

    // A never-dequeued value provably enqueued before a dequeued one blocks
    // that dequeue forever.
    let mut min_unconsumed_prod_respond = i64::MAX;
    let mut max_consumed_prod_invoke = i64::MIN;
    for (p, pair) in parsed.pairs.iter().enumerate() {
        match pair.consumed() {
            None => {
                min_unconsumed_prod_respond =
                    min_unconsumed_prod_respond.min(parsed.prod_respond(p))
            }
            Some(_) => {
                max_consumed_prod_invoke = max_consumed_prod_invoke.max(parsed.prod_invoke(p))
            }
        }
    }
    if min_unconsumed_prod_respond < max_consumed_prod_invoke {
        return MonitorOutcome::Violation;
    }

    // Pairwise FIFO: v provably enqueued before w, but w provably dequeued
    // before v. Sweep w by enqueue-invoke; admit v by enqueue-respond;
    // compare w's dequeue-respond against the running max dequeue-invoke.
    let mut admit = parsed.producers(&parsed.by_respond, true).peekable();
    let mut max_cons_invoke = i64::MIN;
    for w in parsed.producers(&parsed.by_invoke, true) {
        let w_prod_invoke = parsed.prod_invoke(w);
        while let Some(v) = admit.next_if(|&v| parsed.prod_respond(v) < w_prod_invoke) {
            let cv = parsed.pairs[v].cons as usize;
            max_cons_invoke = max_cons_invoke.max(parsed.t_invoke[cv]);
        }
        if max_cons_invoke > parsed.t_respond[parsed.pairs[w].cons as usize] {
            return MonitorOutcome::Violation;
        }
    }

    match greedy_witness(view, &parsed, false) {
        Some(order) => MonitorOutcome::Witness(order),
        None => MonitorOutcome::Deferred,
    }
}

/// Monitor a stack history (`push`/`pop`; any `peek` defers).
pub(crate) fn monitor_stack(view: View) -> MonitorOutcome {
    let parsed = match parse(view, "push", "pop") {
        Ok(p) => p,
        Err(out) => return out,
    };
    if !empties_feasible(&parsed) {
        return MonitorOutcome::Violation;
    }
    if stack_cover_violation(&parsed) {
        return MonitorOutcome::Violation;
    }
    match greedy_witness(view, &parsed, true) {
        Some(order) => MonitorOutcome::Witness(order),
        None => MonitorOutcome::Deferred,
    }
}

/// Monitor a priority-queue history (`insert`/`extract_min`; any `min`
/// defers, as does a non-integer priority).
pub(crate) fn monitor_pq(view: View) -> MonitorOutcome {
    let parsed = match parse(view, "insert", "extract_min") {
        Ok(p) => p,
        Err(out) => return out,
    };
    // "Smaller" needs a priority order: defer unless every value is an Int.
    let mut vals = Vec::with_capacity(parsed.pairs.len());
    for pair in &parsed.pairs {
        match view.arena.arg[pair.prod as usize].as_int() {
            Some(v) => vals.push(v),
            None => return MonitorOutcome::Deferred,
        }
    }
    if !empties_feasible(&parsed) {
        return MonitorOutcome::Violation;
    }
    if pq_priority_violation(&parsed, &vals) {
        return MonitorOutcome::Violation;
    }
    match greedy_witness_pq(view, &parsed, &vals) {
        Some(order) => MonitorOutcome::Witness(order),
        None => MonitorOutcome::Deferred,
    }
}

/// Priority-inversion sweep: an `extract_min` returning `v` is impossible if
/// some `u < v` was provably in the queue across the extract's whole
/// interval — inserted before the extract invoked (`prodR(u) < consI(v)`,
/// so `u` is present at every point the extract could linearize) and
/// extracted only after it responded (`consI(u) > consR(v)`, so the only op
/// that could remove `u` linearizes strictly later) or never extracted at
/// all. Then the minimum at the extract's linearization point is at most
/// `u < v`, a legality contradiction in every candidate order.
///
/// Sweeping extracts by invoke admits inserts by respond into a Fenwick max
/// keyed by ascending value rank, holding the matching extract's invoke
/// (`i64::MAX` for never-extracted values); the query is a prefix max over
/// the ranks strictly below `v`'s.
fn pq_priority_violation(parsed: &Parsed, vals: &[i64]) -> bool {
    let m = parsed.pairs.len();
    // Rank every pair by priority (values are distinct after `parse`).
    let mut rank = vec![0usize; m];
    let by_val: Vec<u32> = match parsed.values.ascending_ints() {
        Some(ascending) => ascending.collect(),
        None => {
            let mut by_val: Vec<u32> = (0..m as u32).collect();
            by_val.sort_unstable_by_key(|&p| vals[p as usize]);
            by_val
        }
    };
    for (r, &p) in by_val.iter().enumerate() {
        rank[p as usize] = r;
    }
    let mut fen = FenwickMax::new(m);
    let mut admit = parsed.producers(&parsed.by_respond, false).peekable();
    for v in parsed.consumers(&parsed.by_invoke) {
        let cv = parsed.pairs[v].cons as usize;
        while let Some(u) = admit.next_if(|&u| parsed.prod_respond(u) < parsed.t_invoke[cv]) {
            let extracted_at = parsed.pairs[u].consumed().map_or(i64::MAX, |c| parsed.t_invoke[c]);
            fen.update(rank[u], extracted_at);
        }
        if fen.prefix_max(rank[v]) > parsed.t_respond[cv] {
            return true; // a smaller value provably sits in the queue
        }
    }
    false
}

/// Greedy priority-queue witness. Mirrors [`greedy_witness`] with the
/// structure head replaced by the minimum of a min-heap: emit the minimum's
/// extract when ready, empty extracts while the queue is empty, and
/// otherwise the ready insert with the earliest extract deadline. A stall is
/// not a verdict — the caller defers.
fn greedy_witness_pq(view: View, parsed: &Parsed, vals: &[i64]) -> Option<Vec<usize>> {
    let n = view.len;
    let mut sweep = Sweep::new(view);
    let deadline = |p: usize| parsed.pairs[p].consumed().map_or(i64::MAX, |c| parsed.t_invoke[c]);
    let mut prod_pool: BinaryHeap<(i64, u32)> = BinaryHeap::new(); // max-heap on -deadline
    let mut empty_pool: VecDeque<usize> = VecDeque::new();
    let mut cons_ready = vec![false; parsed.pairs.len()];
    // (priority, pair), minimum on top.
    let mut structure: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
    let mut order: Vec<usize> = Vec::with_capacity(n);

    while order.len() < n {
        sweep.admit(|i| match parsed.role[i] {
            Role::Prod(p) => prod_pool.push((-deadline(p as usize), p)),
            Role::Cons(p) => cons_ready[p as usize] = true,
            Role::Empty => empty_pool.push_back(i),
        });
        // 1. Extract the minimum if its consumer is ready.
        if let Some(&Reverse((_, p))) = structure.peek() {
            if cons_ready[p as usize] {
                structure.pop();
                let c = parsed.pairs[p as usize].cons as usize;
                order.push(c);
                sweep.emit(c);
                continue;
            }
        }
        // 2. Empty extracts linearize while the queue is empty.
        if structure.is_empty() {
            if let Some(e) = empty_pool.pop_front() {
                order.push(e);
                sweep.emit(e);
                continue;
            }
        }
        // 3. Insert the most urgent ready value.
        if let Some((_, p)) = prod_pool.pop() {
            structure.push(Reverse((vals[p as usize], p)));
            let i = parsed.pairs[p as usize].prod as usize;
            order.push(i);
            sweep.emit(i);
            continue;
        }
        return None; // stall: no rule applies, defer to the general search
    }
    Some(order)
}

/// LIFO covering sweep: popped value `v` is impossible if some `w` was
/// provably pushed after `v` (`prodR(v) < prodI(w)`) and before `v`'s pop
/// (`prodR(w) < consI(v)`), yet popped only after `v` (`consR(v) < consI(w)`)
/// or never — then `w` is above `v` whenever `v`'s pop linearizes.
///
/// Sweeping `v` by pop-invoke admits candidate `w`s by push-respond; the
/// remaining two conditions are a max query over push-invoke suffixes,
/// answered by a running max for never-popped `w`s and a Fenwick max (pop
/// invoke keyed by descending push-invoke rank) for popped ones.
fn stack_cover_violation(parsed: &Parsed) -> bool {
    // Popped pairs by push-invoke; descending rank turns the suffix query
    // into a prefix query on the Fenwick tree.
    let by_push_invoke: Vec<usize> = parsed.producers(&parsed.by_invoke, true).collect();
    if by_push_invoke.is_empty() {
        return false;
    }
    let push_invokes: Vec<i64> = by_push_invoke.iter().map(|&p| parsed.prod_invoke(p)).collect();
    let mut rank = vec![0usize; parsed.pairs.len()];
    for (r, &p) in by_push_invoke.iter().enumerate() {
        rank[p] = by_push_invoke.len() - 1 - r;
    }
    let mut fen = FenwickMax::new(by_push_invoke.len());

    let mut admit = parsed.producers(&parsed.by_respond, false).peekable();
    let mut max_unpopped_push_invoke = i64::MIN;
    for v in parsed.consumers(&parsed.by_invoke) {
        let cv = parsed.pairs[v].cons as usize;
        while let Some(w) = admit.next_if(|&w| parsed.prod_respond(w) < parsed.t_invoke[cv]) {
            match parsed.pairs[w].consumed() {
                None => {
                    max_unpopped_push_invoke = max_unpopped_push_invoke.max(parsed.prod_invoke(w))
                }
                Some(cw) => fen.update(rank[w], parsed.t_invoke[cw]),
            }
        }
        let v_push_respond = parsed.prod_respond(v);
        if max_unpopped_push_invoke > v_push_respond {
            return true; // never-popped w provably above v at v's pop
        }
        // Popped w with push-invoke > prodR(v): suffix of the ascending
        // push-invoke order, i.e. prefix of the descending rank order.
        let cut = gallop(&push_invokes, by_push_invoke.len() - rank[v], |t| t <= v_push_respond);
        if fen.prefix_max(push_invokes.len() - cut) > parsed.t_respond[cv] {
            return true; // w popped provably after v
        }
    }
    false
}

/// `slice.partition_point(pred)` for a `pred` known to hold before `from`,
/// found by doubling steps from there: O(log d) for a cut `d` past `from`.
fn gallop(slice: &[i64], from: usize, pred: impl Fn(i64) -> bool) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= slice.len() && pred(slice[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(slice.len() + 1) - 1;
    lo + slice[lo..hi].partition_point(|&t| pred(t))
}

/// Fenwick tree over `max`, for offline dominance sweeps.
struct FenwickMax {
    tree: Vec<i64>,
}

impl FenwickMax {
    fn new(n: usize) -> Self {
        FenwickMax { tree: vec![i64::MIN; n + 1] }
    }

    /// Raise position `i` to at least `v`.
    fn update(&mut self, i: usize, v: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].max(v);
            i += i & i.wrapping_neg();
        }
    }

    /// Max over positions `[0, len)`.
    fn prefix_max(&self, len: usize) -> i64 {
        let mut i = len.min(self.tree.len() - 1);
        let mut best = i64::MIN;
        while i > 0 {
            best = best.max(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        best
    }
}

/// Greedy witness construction shared by queue (`lifo = false`) and stack
/// (`lifo = true`). Returns `None` on a stall (the caller defers).
fn greedy_witness(view: View, parsed: &Parsed, lifo: bool) -> Option<Vec<usize>> {
    let n = view.len;
    let mut sweep = Sweep::new(view);
    // Producer deadline: its consumer's invoke (a value must be in position
    // by the time its consumer can linearize); never-consumed values have no
    // deadline. Queues emit earliest deadline first, stacks latest first.
    // Max-heap on (key, pair): queues negate the deadline so the earliest
    // deadline has the largest key.
    let prod_key = |p: usize| {
        let deadline = parsed.pairs[p].consumed().map_or(i64::MAX, |c| parsed.t_invoke[c]);
        if lifo {
            deadline
        } else {
            -deadline
        }
    };
    let mut prod_pool: BinaryHeap<(i64, u32)> = BinaryHeap::new();
    let mut empty_pool: VecDeque<usize> = VecDeque::new();
    let mut cons_ready = vec![false; parsed.pairs.len()];

    // Pair indices in structure order (front = index 0 for FIFO, top = last
    // for LIFO).
    let mut structure: VecDeque<u32> = VecDeque::new();
    let mut order: Vec<usize> = Vec::with_capacity(n);

    while order.len() < n {
        sweep.admit(|i| match parsed.role[i] {
            Role::Prod(p) => prod_pool.push((prod_key(p as usize), p)),
            Role::Cons(p) => cons_ready[p as usize] = true,
            Role::Empty => empty_pool.push_back(i),
        });
        // 1. Consume the structure head if its consumer is ready.
        let head = if lifo { structure.back() } else { structure.front() }.copied();
        if let Some(p) = head.filter(|&p| cons_ready[p as usize]) {
            if lifo {
                structure.pop_back();
            } else {
                structure.pop_front();
            }
            let c = parsed.pairs[p as usize].cons as usize;
            order.push(c);
            sweep.emit(c);
            continue;
        }
        // 2. Empty consumers linearize while the structure is empty.
        if structure.is_empty() {
            if let Some(e) = empty_pool.pop_front() {
                order.push(e);
                sweep.emit(e);
                continue;
            }
        }
        // 3. Produce the most urgent ready value.
        if let Some((_, p)) = prod_pool.pop() {
            structure.push_back(p);
            let i = parsed.pairs[p as usize].prod as usize;
            order.push(i);
            sweep.emit(i);
            continue;
        }
        return None; // stall: no rule applies, defer to the general search
    }
    Some(order)
}
