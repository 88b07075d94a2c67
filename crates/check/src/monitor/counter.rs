//! Interval-bound monitor for counter histories.
//!
//! With only non-negative contributions (`increment`, `add k` for `k >= 0`)
//! and `read`, the counter's value along any linearization is a
//! non-decreasing prefix sum, which yields sound per-read bounds checkable
//! by two sweeps:
//!
//! * `lo(r)` — the sum of contributions that respond before `r` invokes
//!   (each is forced before `r`): a read below `lo` is impossible;
//! * `hi(r)` — the total minus contributions invoked after `r` responds
//!   (each is forced after `r`): a read above `hi` is impossible;
//! * two reads ordered in real time must return non-decreasing values.
//!
//! If no bound fires, a greedy scheduler attempts a witness: reads in
//! ascending returned value; before each read, the contributions forced
//! before it (respond-ordered), topped up with ready contributions to hit
//! the read's value exactly. Hitting an exact target with heterogeneous
//! contribution sizes is subset-sum-hard in general, so the greedy simply
//! defers on a stall or an overshoot — uniform workloads (the common case)
//! always schedule. `fetch_inc` (an OOP) and negative `add` arguments defer
//! outright.
//!
//! Contributions and reads come out of the decision arena's `by_invoke` and
//! `by_respond` orders already sorted; only the reads' value order is
//! sorted here.

use super::{MonitorOutcome, Sweep, View};
use lintime_adt::spec::ObjectSpec;
use lintime_adt::value::Value;
use std::sync::Arc;

/// What an op contributes: an `increment`/`add` delta, or a read's value.
#[derive(Clone, Copy)]
enum Role {
    Add(i64),
    Read(i64),
}

/// Monitor a counter history (`increment`/`add`/`read`; `fetch_inc` defers).
///
/// The base value is probed from the spec (a fresh object's `read`) rather
/// than assumed zero, so seeded specs — e.g. the streaming checker's carried
/// window state — are monitored against the correct initial sum.
pub(crate) fn monitor(spec: &Arc<dyn ObjectSpec>, view: View) -> MonitorOutcome {
    let Some(base) = spec.new_object().apply("read", &Value::Unit).as_int() else {
        return MonitorOutcome::Deferred; // not a counter-shaped spec
    };
    let a = view.arena;
    let mut role = Vec::with_capacity(view.len);
    for i in 0..view.len {
        role.push(match a.op[i] {
            "increment" | "add" => {
                if *a.ret[i] != Value::Unit {
                    return MonitorOutcome::Violation; // mutators ack with Unit
                }
                if a.op[i] == "increment" {
                    Role::Add(1)
                } else {
                    match a.arg[i].as_int() {
                        Some(k) if k >= 0 => Role::Add(k),
                        // Negative deltas break monotonicity; non-int args
                        // are not this monitor's problem.
                        _ => return MonitorOutcome::Deferred,
                    }
                }
            }
            "read" => match a.ret[i].as_int() {
                Some(ret) => Role::Read(ret),
                None => return MonitorOutcome::Violation, // reads return ints
            },
            _ => return MonitorOutcome::Deferred, // fetch_inc or unknown
        });
    }
    let (by_invoke, by_respond) = (view.invoke_order(), view.respond_order());
    let of = |order: &[u32], read: bool| -> Vec<(usize, i64)> {
        let pick = |i: u32| match role[i as usize] {
            Role::Add(d) if !read => Some((i as usize, d)),
            Role::Read(r) if read => Some((i as usize, r)),
            _ => None,
        };
        order.iter().filter_map(|&i| pick(i)).collect()
    };
    // Contributions and reads as (arena index, delta or value), by invoke
    // and by respond.
    let (adds_by_invoke, adds_by_respond) = (of(&by_invoke, false), of(&by_respond, false));
    let (reads_by_invoke, reads_by_respond) = (of(&by_invoke, true), of(&by_respond, true));
    // Guard the arithmetic: totals beyond i64 would make the sequential
    // spec's wrapping arithmetic diverge from these non-wrapping bounds.
    let total: i128 = adds_by_invoke.iter().map(|&(_, d)| i128::from(d)).sum();
    if i128::from(base) + total > i128::from(i64::MAX) {
        return MonitorOutcome::Deferred;
    }

    // lo(r): prefix sums over respond-sorted contributions; hi(r): suffix
    // sums over invoke-sorted contributions.
    let prefix = |adds: &[(usize, i64)]| {
        let mut sums = vec![0i128; adds.len() + 1];
        for (k, &(_, d)) in adds.iter().enumerate() {
            sums[k + 1] = sums[k] + i128::from(d);
        }
        sums
    };
    let (prefix_lo, prefix_inv) = (prefix(&adds_by_respond), prefix(&adds_by_invoke));
    for &(r, ret) in &reads_by_invoke {
        let cut_lo = adds_by_respond.partition_point(|&(x, _)| a.t_respond[x] < a.t_invoke[r]);
        let lo = prefix_lo[cut_lo];
        let cut_hi = adds_by_invoke.partition_point(|&(x, _)| a.t_invoke[x] <= a.t_respond[r]);
        let hi = total - (prefix_inv[adds_by_invoke.len()] - prefix_inv[cut_hi]);
        let ret = i128::from(ret);
        if ret < i128::from(base) + lo || ret > i128::from(base) + hi {
            return MonitorOutcome::Violation;
        }
    }
    // Monotonicity of real-time-ordered reads.
    let mut admit = reads_by_respond.iter().peekable();
    let mut max_prior_ret = i64::MIN;
    for &(r, ret) in &reads_by_invoke {
        while let Some(&(_, q_ret)) = admit.next_if(|&&(q, _)| a.t_respond[q] < a.t_invoke[r]) {
            max_prior_ret = max_prior_ret.max(q_ret);
        }
        if max_prior_ret > ret {
            return MonitorOutcome::Violation;
        }
    }

    match greedy_witness(view, base, &adds_by_respond, reads_by_invoke) {
        Some(order) => MonitorOutcome::Witness(order),
        None => MonitorOutcome::Deferred,
    }
}

/// Greedy schedule: reads in ascending returned value, contributions woven
/// in to hit each read's value exactly. `None` on stall or overshoot.
fn greedy_witness(
    view: View,
    base: i64,
    adds_by_respond: &[(usize, i64)],
    mut reads: Vec<(usize, i64)>,
) -> Option<Vec<usize>> {
    let (t_invoke, t_respond) = (&view.arena.t_invoke, &view.arena.t_respond);
    let mut sweep = Sweep::new(view);
    // Contributions are emitted in respond order (which always respects
    // their pairwise real-time order), skipping already-emitted ones. Reads
    // go by (value, invoke, index): stable on the invocation order.
    let mut add_emitted = vec![false; adds_by_respond.len()];
    reads.sort_by_key(|&(_, ret)| ret);

    let mut order = Vec::with_capacity(view.len);
    let mut sum: i64 = base;
    let mut forced_ptr = 0;
    for (r, ret) in reads {
        // Contributions responding before this read invokes are forced
        // before it.
        while let Some(&(x, delta)) = adds_by_respond.get(forced_ptr) {
            if t_respond[x] >= t_invoke[r] {
                break;
            }
            if !add_emitted[forced_ptr] {
                if !sweep.ready(x) {
                    return None;
                }
                add_emitted[forced_ptr] = true;
                sum += delta;
                sweep.emit(x);
                order.push(x);
            }
            forced_ptr += 1;
        }
        // Top up to the read's value with ready unforced contributions,
        // most urgent (earliest respond) first.
        while sum < ret {
            let need = ret - sum;
            let k = (forced_ptr..adds_by_respond.len()).find(|&k| {
                let (x, delta) = adds_by_respond[k];
                !add_emitted[k] && delta <= need && sweep.ready(x)
            })?;
            let (x, delta) = adds_by_respond[k];
            add_emitted[k] = true;
            sum += delta;
            sweep.emit(x);
            order.push(x);
        }
        if sum != ret || !sweep.ready(r) {
            return None; // overshoot or read not schedulable yet
        }
        sweep.emit(r);
        order.push(r);
    }
    // Remaining contributions, in respond order (each is ready when it is
    // the earliest-responding unemitted op).
    for (k, &(x, _)) in adds_by_respond.iter().enumerate() {
        if add_emitted[k] {
            continue;
        }
        if !sweep.ready(x) {
            return None;
        }
        sweep.emit(x);
        order.push(x);
    }
    Some(order)
}
