//! Acceptance tests for the crash-tolerant quorum backend and the
//! cross-backend availability matrix.
//!
//! The headline claims, verified over many differential-fuzz seeds:
//!
//! * with `n = 5` and two injected crashes (the largest tolerated minority)
//!   the MR quorum register, and the kv-store built from it one register
//!   per key, complete the *entire* surviving workload — no
//!   truncation, and every pending operation is attributable to the crash
//!   of its own invoker — and each history passes the pending-aware
//!   linearizability checker;
//! * quorum reads racing concurrent writes linearize on every seed;
//! * the recovery wrapper under *combined* drops + duplicates + stalls on
//!   one seed is never silently wrong: every unflagged run is certified.

use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_core::prelude::*;
use lintime_core::reliable::{run_reliable, RecoveryConfig};
use lintime_sim::prelude::*;
use lintime_sim::rng::SplitMix64;
use std::sync::Arc;

fn params5() -> ModelParams {
    let base = ModelParams::default_experiment();
    ModelParams::new(5, base.d, base.u, base.epsilon)
}

/// How a quorum-register instantiation writes `v` and reads it back.
type WriteRead = (fn(i64) -> Invocation, fn() -> Invocation);

/// The quorum register's two instantiations: the register itself, and the
/// kv-store (one register per key) driven through put/get on key 1.
fn quorum_registers() -> [(Algorithm, Arc<dyn ObjectSpec>, WriteRead); 2] {
    [
        (
            Algorithm::MrRegister,
            erase(Register::new(0)),
            (|v| Invocation::new("write", v), || Invocation::nullary("read")),
        ),
        (
            Algorithm::AbdKv,
            erase(KvStore::new()),
            (|v| Invocation::new("put", Value::pair(1, v)), || Invocation::new("get", 1)),
        ),
    ]
}

/// A seeded register workload over all `n` processes: distinct-value writes
/// at random times, then two rounds of reads from every process. Processes
/// that will crash still get invocations — their pending ops must be
/// attributed honestly, not silently lost.
fn register_workload(p: ModelParams, seed: u64, (write, read): WriteRead) -> Schedule {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x011A_B1E5);
    let mut schedule = Schedule::new();
    let mut next_free = vec![Time::ZERO; p.n];
    for w in 0..6 {
        let pid = rng.gen_range(0usize..p.n);
        let at = next_free[pid] + Time(rng.gen_range(0i64..2 * p.d.as_ticks()));
        next_free[pid] = at + p.d * 6;
        schedule = schedule.at(Pid(pid), at, write(w + 1));
    }
    let mut base = *next_free.iter().max().unwrap();
    for _ in 0..2 {
        for (i, nf) in next_free.iter_mut().enumerate() {
            let at = base.max(*nf) + Time(rng.gen_range(0i64..p.d.as_ticks()));
            *nf = at + p.d * 6;
            schedule = schedule.at(Pid(i), at, read());
        }
        base = *next_free.iter().max().unwrap();
    }
    schedule
}

#[test]
fn mr_register_survives_two_crashes_on_fifty_seeds() {
    // The acceptance criterion: n = 5, two crashes (⌊(n−1)/2⌋, the claimed
    // maximum), 50 differential-fuzz seeds, for the register and the
    // kv-store alike. Every run must complete the full surviving workload
    // and linearize.
    let p = params5();
    for (algo, spec, ops) in quorum_registers() {
        let label = algo.label();
        assert_eq!(algo.tolerance(p).crashes, 2, "{label}");
        for seed in 0..50u64 {
            // Crash the two highest pids mid-workload so in-flight
            // operations (not just unstarted ones) get cut.
            let crash_at = Time(1 + (seed as i64 % 17) * 1000);
            let plan =
                FaultPlan::new(seed).crash(Pid(p.n - 2), crash_at).crash(Pid(p.n - 1), crash_at);
            let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed })
                .with_faults(plan)
                .with_schedule(register_workload(p, seed, ops));
            let out = run_backend(&algo, &spec, &cfg).expect("spec supported");
            let run = &out.run;
            assert!(!run.truncated, "{label} seed {seed}: truncated: {run}");
            assert!(!run.is_suspect(), "{label} seed {seed}: suspect: {run}");
            // Full workload completion: every response lost is attributable
            // to the invoker's own crash — surviving processes never starve.
            let pending = run.ops.iter().filter(|o| o.ret.is_none()).count() as u64;
            assert_eq!(
                pending, run.crashed_pending,
                "{label} seed {seed}: a non-crashed invoker starved: {run}"
            );
            let ph = History::from_run_with_pending(run).unwrap();
            assert!(
                check_fast_pending(&spec, &ph).is_linearizable(),
                "{label} seed {seed}: quorum register run did not linearize: {run}"
            );
        }
    }
}

#[test]
fn mr_quorum_reads_race_concurrent_writes() {
    // Reads overlapping in-flight writes exercise both the fast path
    // (uniform quorum timestamps) and the write-back path; every
    // interleaving must linearize, on every seed, for the register and the
    // kv-store alike.
    let p = params5();
    for (algo, spec, (write, read)) in quorum_registers() {
        let label = algo.label();
        for seed in 0..50u64 {
            let schedule = Schedule::new()
                .at(Pid(0), Time(0), write(1))
                .at(Pid(1), Time(100), write(2))
                .at(Pid(2), Time(50), read())
                .at(Pid(3), Time(150), read())
                .at(Pid(4), Time(200), read())
                .at(Pid(2), Time(60_000), read())
                .at(Pid(3), Time(60_100), read());
            let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed }).with_schedule(schedule);
            let out = run_backend(&algo, &spec, &cfg).expect("spec supported");
            assert!(out.run.complete(), "{label} seed {seed}: {}", out.run);
            let history = History::from_run(&out.run).unwrap();
            assert!(
                check_fast(&spec, &history).is_linearizable(),
                "{label} seed {seed}: racing reads/writes not linearizable: {}",
                out.run
            );
            // The two late reads are quiescent: both agree on the final value.
            let n_ops = out.run.ops.len();
            assert_eq!(
                out.run.ops[n_ops - 1].ret,
                out.run.ops[n_ops - 2].ret,
                "{label} seed {seed}"
            );
            assert!(out.quorum_round_trips > 0, "{label}");
        }
    }
}

#[test]
fn reliable_wrapper_honest_under_combined_faults() {
    // Drops, duplicates, and a stall injected together on the same seed:
    // the recovery wrapper must never be *silently* wrong — any run it does
    // not flag as suspect must be certified linearizable (or land in the
    // checker's explicit Unknown bucket).
    let p = params5();
    let recovery = RecoveryConfig { rto: p.d * 2, max_retries: 2 };
    let slack = p.d + p.u + p.epsilon + recovery.backoff_budget() + Time(1);
    let mut flagged = 0u32;
    for seed in 0..24u64 {
        let spec = erase(Register::new(0));
        let plan = FaultPlan::new(seed).drop_all(0.10).duplicate_all(0.20).stall(
            Pid(1),
            Time::ZERO,
            p.d * 5,
        );
        let mut schedule = Schedule::new();
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC0FFEE);
        let mut next_free = vec![Time::ZERO; p.n];
        for w in 0..5 {
            let pid = rng.gen_range(0usize..p.n);
            let at = next_free[pid] + Time(rng.gen_range(0i64..p.d.as_ticks()));
            next_free[pid] = at + slack;
            schedule = schedule.at(Pid(pid), at, Invocation::new("write", w + 1));
        }
        let base = *next_free.iter().max().unwrap() + slack;
        for i in 0..p.n {
            schedule = schedule.at(Pid(i), base + Time(i as i64 * 10), Invocation::nullary("read"));
        }
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed })
            .with_faults(plan)
            .with_schedule(schedule);
        let run = run_reliable(&spec, &cfg, Time::ZERO, recovery);
        assert!(!run.truncated, "seed {seed}: {run}");
        if run.is_suspect() {
            flagged += 1;
            continue;
        }
        assert!(run.complete(), "seed {seed}: unflagged yet incomplete: {run}");
        let history = History::from_run(&run).unwrap();
        let verdict = check_fast(&spec, &history);
        assert_ne!(verdict, Verdict::NotLinearizable, "seed {seed}: unflagged run refuted: {run}");
    }
    // The combined-fault plan must actually bite on some seeds, or this
    // test exercises nothing.
    assert!(flagged > 0, "no seed tripped the recovery layer's detectors");
    assert!(flagged < 24, "every seed was flagged; no certified runs exercised");
}

#[test]
fn matrix_gates_on_confirmed_violations_only() {
    // The CI gate's definition, pinned: a refuted non-suspect run counts
    // only in a tolerated cell. An *untolerated* cell may show refutations
    // (bare WTLW under drops does) without tripping the gate.
    let m = lintime_bench::matrix::availability_matrix(3, &lintime_obs::Obs::off());
    assert_eq!(m.confirmed_violations(), 0, "{}", m.render());
    for cell in &m.cells {
        if !cell.tolerated {
            assert_eq!(cell.confirmed_violations, 0, "gate counted an untolerated cell");
        }
    }
    // JSON artifact shape for CI consumers.
    let json = m.to_json();
    for key in ["\"availability\"", "\"msgs_per_op\"", "\"bytes_per_op\"", "\"quorum_round_trips\""]
    {
        assert!(json.contains(key), "matrix JSON lost {key}");
    }
}
