//! Executable lower-bound constructions (Theorems 2–5).
//!
//! Each theorem says: any algorithm whose operation beats the bound admits a
//! complete admissible run that is not linearizable. These functions *build*
//! that run for a concrete victim algorithm, following the proofs'
//! schedules, clock-offset vectors, delay matrices, and shift vectors, and
//! hand the result to the linearizability checker:
//!
//! * [`thm2_attack`] — pure accessors (`u/4`): alternating accessor chain on
//!   `p0`/`p1` straddling a mutator, then the `±u/4` shift of the proof of
//!   Theorem 2 re-executed;
//! * [`thm3_attack`] — last-sensitive mutators (`(1 − 1/k)u`): `k`
//!   concurrent instances under the circulant delay matrix of Theorem 3,
//!   shifted so the algorithm's last-ordered instance responds before its
//!   cyclic successor is invoked, then probed;
//! * [`thm4_attack`] — pair-free operations (`d + min{ε,u,d/3}`): the
//!   two-process schedule distilled from the chop construction of Theorem 4
//!   (clock offsets `(−m, 0, …)`, both instances invoked `m` apart);
//! * [`thm5_attack`] — transposable mutator + discriminating accessor sums
//!   (`d + min{ε,u,d/3}`): the repaired post-chop run `R2` of Theorem 5.
//!
//! An attack *succeeds* (the victim is proven non-linearizable) when the
//! checker rejects either the base run or the shifted run. Against the
//! standard Algorithm 1 every attack must fail — the lower-bound reports sweep
//! victim speeds to locate the empirical crossover and compare it to the
//! formulas.

use lintime_adt::spec::{Invocation, ObjectSpec};
use lintime_adt::value::Value;
use lintime_check::history::History;
use lintime_check::wing_gong::{check, Verdict};
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::SimConfig;
use lintime_sim::run::Run;
use lintime_sim::schedule::Schedule;
use lintime_sim::time::{ModelParams, Pid, Time};
use std::sync::Arc;

/// Result of running one adversarial construction against a victim.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The base (unshifted) run was already non-linearizable.
    ViolationInBase,
    /// The base run was fine, but the shifted/extended run is
    /// non-linearizable — the interesting case exercising the proof.
    ViolationInShifted,
    /// No violation found: the victim respected the bound in this
    /// construction.
    NoViolation,
    /// The construction could not be carried out (e.g. the victim is too
    /// slow for the proof's schedule, so the bound is trivially respected,
    /// or the checker ran out of budget).
    Inconclusive(String),
}

impl Outcome {
    /// True iff a linearizability violation was exhibited.
    pub fn violated(&self) -> bool {
        matches!(self, Outcome::ViolationInBase | Outcome::ViolationInShifted)
    }
}

/// A full report of one attack.
#[derive(Clone, Debug)]
pub struct AttackReport {
    /// Which theorem's construction ran.
    pub theorem: &'static str,
    /// The outcome.
    pub outcome: Outcome,
    /// The base run (diagnostics).
    pub base: Option<Run>,
    /// The shifted/extended run, if one was produced.
    pub shifted: Option<Run>,
}

fn verdict_of(spec: &Arc<dyyn_hack::ObjectSpecDyn>, run: &Run) -> Result<Verdict, String> {
    let history = History::from_run(run)?;
    Ok(check(spec, &history))
}

/// Type-alias indirection (see `verdict_of`); kept private.
mod dyyn_hack {
    pub type ObjectSpecDyn = dyn lintime_adt::spec::ObjectSpec;
}

/// Theorem 2 construction: pure-accessor lower bound `u/4`.
///
/// * `mutator` — an instance whose effect `accessor` can observe;
/// * `accessor` — the pure accessor under attack;
/// * `claimed_aop` — the victim's (claimed) worst-case accessor latency;
///   must be `< u/4` for the attack to be meaningful;
/// * `claimed_op` — the victim's worst-case latency for `mutator`, used to
///   size the accessor chain (`k = ⌈|OP| / (u/4)⌉`).
pub fn thm2_attack(
    p: ModelParams,
    spec: &Arc<dyn ObjectSpec>,
    mutator: Invocation,
    accessor: Invocation,
    claimed_aop: Time,
    claimed_op: Time,
    victim: Algorithm,
) -> AttackReport {
    let theorem = "Theorem 2 (pure accessor ≥ u/4)";
    assert!(p.n >= 3, "Theorem 2 needs n ≥ 3");
    let q = p.u / 4;
    if claimed_aop >= q {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive(format!(
                "victim accessor latency {claimed_aop} ≥ u/4 = {q}; bound respected by assumption"
            )),
            base: None,
            shifted: None,
        };
    }
    let k = (claimed_op.as_ticks() + q.as_ticks() - 1) / q.as_ticks();
    let t0 = Time(10_000);

    // Schedule: k + 2 alternating accessors on p0/p1 every u/4; the mutator
    // on p2 at t0 + u/4.
    let mut schedule = Schedule::new();
    for i in 0..=(k + 1) {
        let pid = Pid((i % 2) as usize);
        schedule = schedule.at(pid, t0 + q * i, accessor.clone());
    }
    schedule = schedule.at(Pid(2), t0 + q, mutator);

    let delay = DelaySpec::Constant(p.d - p.u / 2);
    let cfg = SimConfig::new(p, delay).with_schedule(schedule);
    debug_assert!(cfg.admissible().is_ok());
    let base = run_algorithm(victim, spec, &cfg);
    if !base.errors.is_empty() {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive(format!(
                "victim too slow for the u/4-spaced schedule: {:?}",
                base.errors[0]
            )),
            base: Some(base),
            shifted: None,
        };
    }
    match verdict_of(spec, &base) {
        Ok(Verdict::NotLinearizable) => {
            return AttackReport {
                theorem,
                outcome: Outcome::ViolationInBase,
                base: Some(base),
                shifted: None,
            }
        }
        Ok(Verdict::Unknown) | Err(_) => {
            return AttackReport {
                theorem,
                outcome: Outcome::Inconclusive("checker could not decide the base run".into()),
                base: Some(base),
                shifted: None,
            }
        }
        Ok(Verdict::Linearizable(_)) => {}
    }

    // Find the transition: the last accessor instance returning the
    // "old" value (the value the accessor returns in the initial state).
    let old_ret = spec.run_history(std::slice::from_ref(&accessor)).pop().expect("one ret");
    let accessor_records: Vec<&lintime_sim::run::OpRecord> =
        base.ops.iter().filter(|o| o.invocation == accessor).collect();
    let j = accessor_records.iter().rposition(|o| o.ret.as_ref() == Some(&old_ret));
    let Some(j) = j else {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive("no accessor returned the old value".into()),
            base: Some(base),
            shifted: None,
        };
    };
    if j == accessor_records.len() - 1 {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive(
                "every accessor returned the old value; mutator effect never observed".into(),
            ),
            base: Some(base),
            shifted: None,
        };
    }

    // Case split on the parity of j (which process invoked aop_j); shift
    // that process later by u/4 and the other earlier by u/4.
    let mut x = vec![Time::ZERO; p.n];
    if j % 2 == 0 {
        x[0] = q;
        x[1] = -q;
    } else {
        x[0] = -q;
        x[1] = q;
    }
    let cfg2 = cfg.shifted(&x);
    if cfg2.admissible().is_err() {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive("shifted configuration inadmissible (ε < u/2?)".into()),
            base: Some(base),
            shifted: None,
        };
    }
    let shifted = run_algorithm(victim, spec, &cfg2);
    let outcome = match verdict_of(spec, &shifted) {
        Ok(Verdict::NotLinearizable) => Outcome::ViolationInShifted,
        Ok(Verdict::Linearizable(_)) => Outcome::NoViolation,
        Ok(Verdict::Unknown) | Err(_) => Outcome::Inconclusive("checker budget exceeded".into()),
    };
    AttackReport { theorem, outcome, base: Some(base), shifted: Some(shifted) }
}

/// Theorem 3 construction: last-sensitive mutator lower bound `(1 − 1/k)u`.
///
/// * `op` — the last-sensitive operation's name;
/// * `args` — `k ≤ n` pairwise-distinct arguments (the `k` instances);
/// * `probe` — a sequence of accessor invocations run long afterwards on
///   `p0` that determines which instance took effect last.
pub fn thm3_attack(
    p: ModelParams,
    spec: &Arc<dyn ObjectSpec>,
    op: &'static str,
    args: &[Value],
    probe: &[Invocation],
    victim: Algorithm,
) -> AttackReport {
    let theorem = "Theorem 3 (last-sensitive mutator ≥ (1 − 1/k)u)";
    let k = args.len();
    assert!(k >= 2 && k <= p.n, "need 2 ≤ k ≤ n instances");
    let ki = k as i64;
    assert_eq!(p.u.as_ticks() % (2 * ki), 0, "u must be divisible by 2k for an exact construction");
    let t0 = Time(10_000);
    let t_probe = t0 + p.d * 4;

    // The circulant delay matrix of the proof: d_ij = d − (((i − j) mod k)/k)·u
    // among the first k processes, d − u/2 elsewhere.
    let delay = DelaySpec::matrix_from_fn(p.n, |i, j| {
        if i < k && j < k {
            let r = (i as i64 - j as i64).rem_euclid(ki);
            p.d - Time(p.u.as_ticks() * r / ki)
        } else {
            p.d - p.u / 2
        }
    });

    let mut schedule = Schedule::new();
    for (i, arg) in args.iter().enumerate() {
        schedule = schedule.at(Pid(i), t0, Invocation::new(op, arg.clone()));
    }
    schedule = schedule.script(lintime_sim::schedule::Script {
        pid: Pid(0),
        start: t_probe,
        gap: Time::ZERO,
        invocations: probe.to_vec(),
    });

    let cfg = SimConfig::new(p, delay).with_schedule(schedule);
    debug_assert!(cfg.admissible().is_ok(), "{:?}", cfg.admissible());
    let base = run_algorithm(victim, spec, &cfg);
    if !base.errors.is_empty() {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive(format!("schedule error: {:?}", base.errors[0])),
            base: Some(base),
            shifted: None,
        };
    }
    let witness = match verdict_of(spec, &base) {
        Ok(Verdict::Linearizable(w)) => w,
        Ok(Verdict::NotLinearizable) => {
            return AttackReport {
                theorem,
                outcome: Outcome::ViolationInBase,
                base: Some(base),
                shifted: None,
            }
        }
        Ok(Verdict::Unknown) | Err(_) => {
            return AttackReport {
                theorem,
                outcome: Outcome::Inconclusive("checker could not decide the base run".into()),
                base: Some(base),
                shifted: None,
            }
        }
    };

    // z = index (pid) of the OP instance the algorithm ordered last, read
    // off the linearization witness (the probe pins the mutator order).
    let history = History::from_run(&base).expect("complete");
    let z = witness
        .iter()
        .rev()
        .map(|&i| &history.ops[i])
        .find(|o| o.instance.op == op)
        .map(|o| o.pid.0)
        .expect("some OP instance exists");

    // Shift vector of the proof: x_i = (−(k−1)/(2k) + ((z − i) mod k)/k)·u.
    let u = p.u.as_ticks();
    let mut x = vec![Time::ZERO; p.n];
    for (i, xi) in x.iter_mut().enumerate().take(k) {
        let r = ((z as i64 - i as i64).rem_euclid(ki)) as i64;
        *xi = Time(-(ki - 1) * u / (2 * ki) + r * u / ki);
    }
    let cfg2 = cfg.shifted(&x);
    if cfg2.admissible().is_err() {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive(format!(
                "shifted configuration inadmissible: {:?}",
                cfg2.admissible()
            )),
            base: Some(base),
            shifted: None,
        };
    }
    let shifted = run_algorithm(victim, spec, &cfg2);
    let outcome = match verdict_of(spec, &shifted) {
        Ok(Verdict::NotLinearizable) => Outcome::ViolationInShifted,
        Ok(Verdict::Linearizable(_)) => Outcome::NoViolation,
        Ok(Verdict::Unknown) | Err(_) => Outcome::Inconclusive("checker budget exceeded".into()),
    };
    AttackReport { theorem, outcome, base: Some(base), shifted: Some(shifted) }
}

/// Theorem 4 construction: pair-free operation lower bound `d + m`.
///
/// The distilled two-process schedule: `p0`'s clock runs `m` behind; `p1`
/// invokes `op1` at `t`, `p0` invokes `op0` at `t + m` (so both carry equal
/// local timestamps), with all delays at the maximum `d`. A victim whose
/// pair-free operation responds in under `d + m` cannot learn of the other
/// instance in time, and both respond as if alone — which the pair-free
/// property makes non-linearizable.
pub fn thm4_attack(
    p: ModelParams,
    spec: &Arc<dyn ObjectSpec>,
    op0: Invocation,
    op1: Invocation,
    victim: Algorithm,
) -> AttackReport {
    thm4_attack_seeded(p, spec, &[], op0, op1, victim)
}

/// [`thm4_attack`] with a seeding prefix ρ: the `prefix` invocations run
/// sequentially on `p2` long before the contended pair, establishing the
/// state at which the operation is pair-free (e.g. one `enqueue` before two
/// racing `dequeue`s, or one `deposit` before two racing `withdraw_all`s).
pub fn thm4_attack_seeded(
    p: ModelParams,
    spec: &Arc<dyn ObjectSpec>,
    prefix: &[Invocation],
    op0: Invocation,
    op1: Invocation,
    victim: Algorithm,
) -> AttackReport {
    let theorem = "Theorem 4 (pair-free ≥ d + m)";
    let m = p.m();
    // Leave the prefix plenty of quiescence room before the contended pair.
    let t0 = Time(10_000) + p.d * 4 * (prefix.len() as i64);
    let mut offsets = vec![Time::ZERO; p.n];
    offsets[0] = -m;
    let mut schedule = Schedule::new();
    for (k, inv) in prefix.iter().enumerate() {
        schedule = schedule.at(Pid(2 % p.n), p.d * 4 * (k as i64), inv.clone());
    }
    let cfg = SimConfig::new(p, DelaySpec::AllMax)
        .with_offsets(offsets)
        .with_schedule(schedule.at(Pid(1), t0, op1).at(Pid(0), t0 + m, op0));
    debug_assert!(cfg.admissible().is_ok());
    let run = run_algorithm(victim, spec, &cfg);
    let outcome = match verdict_of(spec, &run) {
        Ok(Verdict::NotLinearizable) => Outcome::ViolationInBase,
        Ok(Verdict::Linearizable(_)) => Outcome::NoViolation,
        Ok(Verdict::Unknown) => Outcome::Inconclusive("checker budget exceeded".into()),
        Err(e) => Outcome::Inconclusive(e),
    };
    AttackReport { theorem, outcome, base: Some(run), shifted: None }
}

/// Theorem 5 construction: `|OP| + |AOP| ≥ d + m` for a transposable
/// mutator `OP` and a discriminating pure accessor `AOP`.
///
/// Implements the repaired post-chop run `R2` of the proof (with the roles
/// of `p0`/`p1` chosen for a tie-breaking-by-pid algorithm): `p1` invokes
/// `OP(a1)` at `t`; `p0`, whose clock runs `m` behind, invokes `OP(a0)` at
/// `t + m`; once both respond, `p0`, `p1`, and `p2` each run the accessor.
/// The delay matrix keeps `p0 → p1` at the repaired maximum `d` while third
/// parties hear everything by `t + d`, so a fast victim's `p1`-accessor
/// misses `op0` even though `op0`'s invoker already heard both.
pub fn thm5_attack(
    p: ModelParams,
    spec: &Arc<dyn ObjectSpec>,
    mop: &'static str,
    a0: Value,
    a1: Value,
    aop: Invocation,
    victim: Algorithm,
) -> AttackReport {
    let theorem = "Theorem 5 (transposable + accessor sum ≥ d + m)";
    assert!(p.n >= 3, "Theorem 5 needs n ≥ 3");
    let m = p.m();
    let t0 = Time(10_000);
    let mut offsets = vec![Time::ZERO; p.n];
    offsets[0] = -m;

    // Repaired delay matrix (Theorem 5, Step "repair and extend", roles
    // reversed): messages into p1 and from p0 to third parties take d − m;
    // p0 → p1 is the repaired maximum d; everything else d.
    let delay = DelaySpec::matrix_from_fn(p.n, |i, j| {
        if i == 0 && j == 1 {
            p.d
        } else if i == 0 || j == 1 {
            p.d - m
        } else {
            p.d
        }
    });

    // Phase A: mutators only, to measure their response times.
    let cfg_a = SimConfig::new(p, delay.clone()).with_offsets(offsets.clone()).with_schedule(
        Schedule::new().at(Pid(1), t0, Invocation::new(mop, a1.clone())).at(
            Pid(0),
            t0 + m,
            Invocation::new(mop, a0.clone()),
        ),
    );
    debug_assert!(cfg_a.admissible().is_ok());
    let phase_a = run_algorithm(victim, spec, &cfg_a);
    if !phase_a.complete() {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive("mutators did not complete".into()),
            base: Some(phase_a),
            shifted: None,
        };
    }
    // t_max is the proof's R1 quantity: invocations both at t, so it equals
    // t + max(|op0|, |op1|). In the shifted coordinates of R2, p0's mutator
    // (and its accessor) sit m later, while p1's accessor stays at t_max —
    // possibly *overlapping* p0's mutator, exactly as in the proof.
    let max_latency = phase_a.ops.iter().filter_map(|o| o.latency()).max().expect("two ops");
    let t_max = t0 + max_latency;

    // Phase B: the full R2 with the three accessors.
    let cfg_b = SimConfig::new(p, delay).with_offsets(offsets).with_schedule(
        Schedule::new()
            .at(Pid(1), t0, Invocation::new(mop, a1))
            .at(Pid(0), t0 + m, Invocation::new(mop, a0))
            .at(Pid(0), t_max + m, aop.clone())
            .at(Pid(1), t_max, aop.clone())
            .at(Pid(2), t_max + m, aop),
    );
    let run = run_algorithm(victim, spec, &cfg_b);
    if !run.errors.is_empty() {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive(format!("schedule error: {:?}", run.errors[0])),
            base: Some(run),
            shifted: None,
        };
    }
    let outcome = match verdict_of(spec, &run) {
        Ok(Verdict::NotLinearizable) => Outcome::ViolationInBase,
        Ok(Verdict::Linearizable(_)) => Outcome::NoViolation,
        Ok(Verdict::Unknown) => Outcome::Inconclusive("checker budget exceeded".into()),
        Err(e) => Outcome::Inconclusive(e),
    };
    AttackReport { theorem, outcome, base: Some(run), shifted: None }
}

/// The generalized Lipton–Sandberg interference bound (Section 6.1):
/// if `op1` is a mutator whose effect the accessor `op2` can observe
/// ("`OP1` and `OP2` interfere"), then `|OP1| + |OP2| ≥ d` — the accessor's
/// invoker must have time to hear about the completed mutator.
///
/// This is the bound that still applies to pairs *outside* Theorem 5's
/// hypotheses (e.g. stack `push` + `peek`, Table 3). The construction is a
/// single admissible run: `p0` runs the mutator; the instant it responds,
/// `p1` runs the accessor; all delays at the maximum `d`.
pub fn interference_attack(
    p: ModelParams,
    spec: &Arc<dyn ObjectSpec>,
    mutator: Invocation,
    accessor: Invocation,
    victim: Algorithm,
) -> AttackReport {
    let theorem = "Lipton–Sandberg (interfering pair sum ≥ d)";
    let t0 = Time(10_000);
    // Phase A: measure the victim's mutator latency.
    let cfg_a = SimConfig::new(p, DelaySpec::AllMax).with_schedule(Schedule::new().at(
        Pid(0),
        t0,
        mutator.clone(),
    ));
    let phase_a = run_algorithm(victim, spec, &cfg_a);
    let Some(resp) = phase_a.ops.first().and_then(|o| o.t_respond) else {
        return AttackReport {
            theorem,
            outcome: Outcome::Inconclusive("mutator did not complete".into()),
            base: Some(phase_a),
            shifted: None,
        };
    };
    // Phase B: accessor invoked one tick after the mutator's response, so
    // the real-time precedence is strict and the accessor must observe it.
    let cfg_b = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
        Schedule::new().at(Pid(0), t0, mutator).at(Pid(1), resp + Time(1), accessor),
    );
    let run = run_algorithm(victim, spec, &cfg_b);
    let outcome = match verdict_of(spec, &run) {
        Ok(Verdict::NotLinearizable) => Outcome::ViolationInBase,
        Ok(Verdict::Linearizable(_)) => Outcome::NoViolation,
        Ok(Verdict::Unknown) => Outcome::Inconclusive("checker budget exceeded".into()),
        Err(e) => Outcome::Inconclusive(e),
    };
    AttackReport { theorem, outcome, base: Some(run), shifted: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::{FifoQueue, Register, RmwRegister};
    use lintime_core::wtlw::Waits;

    fn p() -> ModelParams {
        ModelParams::default_experiment()
    }

    fn standard() -> Algorithm {
        Algorithm::Wtlw { x: Time::ZERO }
    }

    // ---------------- Theorem 2 ----------------

    fn thm2_victim(aop_respond: Time) -> (Algorithm, Time) {
        // Standard waits at X = d − ε (so the base run stays linearizable),
        // with only the accessor response time cut below u/4.
        let params = p();
        let x = params.d - params.epsilon;
        let mut w = Waits::standard(params, x);
        w.aop_respond = aop_respond;
        (Algorithm::WtlwWaits(w), w.mop_respond)
    }

    #[test]
    fn thm2_fast_accessor_is_defeated() {
        let params = p();
        let spec = erase(FifoQueue::new());
        let (victim, claimed_op) = thm2_victim(Time(500)); // < u/4 = 600
        let report = thm2_attack(
            params,
            &spec,
            Invocation::new("enqueue", 7),
            Invocation::nullary("peek"),
            Time(500),
            claimed_op,
            victim,
        );
        assert!(report.outcome.violated(), "expected a violation, got {:?}", report.outcome);
    }

    #[test]
    fn thm2_standard_algorithm_survives() {
        let params = p();
        let spec = erase(FifoQueue::new());
        // Standard algorithm's accessor latency is d − X ≥ ε ≥ u/4: the
        // attack is inconclusive by assumption (bound respected).
        let report = thm2_attack(
            params,
            &spec,
            Invocation::new("enqueue", 7),
            Invocation::nullary("peek"),
            params.d, // claimed |AOP| for X = 0
            params.epsilon,
            standard(),
        );
        assert!(!report.outcome.violated());
    }

    // ---------------- Theorem 3 ----------------

    #[test]
    fn thm3_fast_writer_is_defeated() {
        let params = p();
        let spec = erase(Register::new(0));
        // Victim: writes acknowledge in (1 − 1/k)u − 300 < 1800.
        let mut w = Waits::standard(params, Time::ZERO);
        w.mop_respond = Time(1500);
        let args: Vec<Value> = (0..4).map(|i| Value::Int(100 + i)).collect();
        let report = thm3_attack(
            params,
            &spec,
            "write",
            &args,
            &[Invocation::nullary("read")],
            Algorithm::WtlwWaits(w),
        );
        assert!(report.outcome.violated(), "expected a violation, got {:?}", report.outcome);
    }

    #[test]
    fn thm3_standard_algorithm_survives() {
        let params = p();
        let spec = erase(Register::new(0));
        let args: Vec<Value> = (0..4).map(|i| Value::Int(100 + i)).collect();
        let report =
            thm3_attack(params, &spec, "write", &args, &[Invocation::nullary("read")], standard());
        assert_eq!(report.outcome, Outcome::NoViolation);
    }

    // ---------------- Theorem 4 ----------------

    #[test]
    fn thm4_fast_rmw_is_defeated() {
        let params = p();
        let spec = erase(RmwRegister::new(0));
        // Victim: mixed ops execute after d − u + u/2 < d + m.
        let mut w = Waits::standard(params, Time::ZERO);
        w.execute = params.u / 2;
        let report = thm4_attack(
            params,
            &spec,
            Invocation::new("rmw", 1),
            Invocation::new("rmw", 1),
            Algorithm::WtlwWaits(w),
        );
        assert!(report.outcome.violated(), "expected a violation, got {:?}", report.outcome);
    }

    #[test]
    fn thm4_naive_local_is_defeated() {
        let params = p();
        let spec = erase(RmwRegister::new(0));
        let report = thm4_attack(
            params,
            &spec,
            Invocation::new("rmw", 1),
            Invocation::new("rmw", 1),
            Algorithm::NaiveLocal(params.d),
        );
        assert!(report.outcome.violated());
    }

    #[test]
    fn thm4_standard_algorithm_survives() {
        let params = p();
        let spec = erase(RmwRegister::new(0));
        let report = thm4_attack(
            params,
            &spec,
            Invocation::new("rmw", 1),
            Invocation::new("rmw", 1),
            standard(),
        );
        assert_eq!(report.outcome, Outcome::NoViolation);
    }

    #[test]
    fn thm4_dequeue_and_pop_also_defeated() {
        // Corollary 2: Dequeue and Pop are pair-free too.
        let params = p();
        let mut w = Waits::standard(params, Time::ZERO);
        w.execute = params.u / 2;
        for (spec, op) in
            [(erase(FifoQueue::new()), "dequeue"), (erase(lintime_adt::types::Stack::new()), "pop")]
        {
            // Both dequeue empty: both would return the single element...
            // seed one element first via the initial schedule? Instead use
            // empty-queue pair-freedom: dequeue on empty returns Unit; two
            // dequeues on a 1-element queue are the pair-free witness, so
            // enqueue once long before.
            let m = params.m();
            let t0 = Time(50_000);
            let mut offsets = vec![Time::ZERO; params.n];
            offsets[0] = -m;
            let cfg =
                SimConfig::new(params, DelaySpec::AllMax).with_offsets(offsets).with_schedule(
                    Schedule::new()
                        .at(
                            Pid(2),
                            Time(0),
                            Invocation::new(if op == "dequeue" { "enqueue" } else { "push" }, 7),
                        )
                        .at(Pid(1), t0, Invocation::nullary(op))
                        .at(Pid(0), t0 + m, Invocation::nullary(op)),
                );
            let run = run_algorithm(Algorithm::WtlwWaits(w), &spec, &cfg);
            let history = History::from_run(&run).expect("complete");
            let verdict = check(&spec, &history);
            assert_eq!(verdict, Verdict::NotLinearizable, "{op}: {run}");
        }
    }

    // ---------------- Theorem 5 ----------------

    #[test]
    fn thm5_fast_enqueue_peek_is_defeated() {
        let params = p();
        let spec = erase(FifoQueue::new());
        // Victim: |MOP| + |AOP| = (X + ε) + (d − X) − δ < d + m. Cut the
        // accessor wait by 2m so the sum is d + ε − 2m = d − m < d.
        let x = Time::ZERO;
        let mut w = Waits::standard(params, x);
        w.aop_respond -= params.m() * 2;
        let report = thm5_attack(
            params,
            &spec,
            "enqueue",
            Value::Int(1),
            Value::Int(2),
            Invocation::nullary("peek"),
            Algorithm::WtlwWaits(w),
        );
        assert!(report.outcome.violated(), "expected a violation, got {:?}", report.outcome);
    }

    #[test]
    fn thm5_in_band_victim_is_defeated() {
        // The interesting regime the chop technique buys: a victim with
        // d ≤ |MOP| + |AOP| < d + m. The classic [15]-style argument cannot
        // refute it; the Theorem 5 construction can.
        let params = p();
        let spec = erase(FifoQueue::new());
        let x = Time::ZERO;
        let mut w = Waits::standard(params, x);
        // sum = ε + aop_respond; pick sum = d + m − 600 ∈ [d, d + m).
        w.aop_respond = params.d + params.m() - Time(600) - params.epsilon;
        let sum = w.mop_respond + w.aop_respond;
        assert!(sum >= params.d && sum < params.d + params.m());
        let report = thm5_attack(
            params,
            &spec,
            "enqueue",
            Value::Int(1),
            Value::Int(2),
            Invocation::nullary("peek"),
            Algorithm::WtlwWaits(w),
        );
        assert!(
            report.outcome.violated(),
            "expected an in-band violation, got {:?}",
            report.outcome
        );
    }

    #[test]
    fn thm5_standard_algorithm_survives() {
        let params = p();
        let spec = erase(FifoQueue::new());
        let report = thm5_attack(
            params,
            &spec,
            "enqueue",
            Value::Int(1),
            Value::Int(2),
            Invocation::nullary("peek"),
            standard(),
        );
        assert_eq!(report.outcome, Outcome::NoViolation);
    }
}
