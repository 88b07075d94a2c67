//! Golden-run corpus: the op-level behaviour of every node kind, pinned.
//!
//! Each row is one deterministic run — an `Algorithm` arm × a schedule ×
//! a delay model — reduced to two numbers: a 64-bit digest (vendored
//! `fxhash`) of every operation's `(pid, op, arg, ret, t_invoke,
//! t_respond)` in record order plus the run's `msgs_sent`, `bytes_sent`,
//! `crashed_pending`, `truncated` flag and error/suspect counts; and,
//! separately, `Run::events`. A change that must not alter behaviour leaves
//! the digest column alone; a change that only removes work the engine did
//! (a timer that could only ever be cancelled) may move the events column,
//! and only there.
//!
//! The corpus lives in `golden/runs.txt`. After an intended behaviour
//! change, re-bless it with
//!
//! ```sh
//! LINTIME_BLESS=1 cargo test -p lintime-core --test golden_runs
//! ```
//!
//! and review the diff: which rows moved, and in which column.

use lintime_adt::fxhash;
use lintime_adt::prelude::*;
use lintime_core::prelude::*;
use lintime_sim::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/runs.txt");

/// Operations per process in every schedule (64 ops a run at n = 4, 80 at
/// n = 5).
const PER_PROCESS: usize = 16;

fn params() -> ModelParams {
    ModelParams::default_experiment()
}

/// The arms of `Algorithm` the corpus covers, with their row labels.
fn arms(p: ModelParams) -> Vec<(&'static str, Algorithm)> {
    vec![
        ("wtlw-x0", Algorithm::Wtlw { x: Time::ZERO }),
        ("wtlw-x1200", Algorithm::Wtlw { x: Time(1200) }),
        // B = 0: every announcement leaves at once in a one-announcement
        // frame.
        ("batched-x0-b0", Algorithm::BatchedWtlw { x: Time::ZERO, tick: Time::ZERO }),
        ("batched-x0-b600", Algorithm::BatchedWtlw { x: Time::ZERO, tick: Time(600) }),
        // B = ε, the tick `serve` runs at.
        ("batched-x0-b1800", Algorithm::BatchedWtlw { x: Time::ZERO, tick: p.epsilon }),
        (
            "reliable-x600",
            Algorithm::ReliableWtlw { x: Time(600), recovery: RecoveryConfig::standard(p) },
        ),
        // A lower-bound victim: every wait of X = 1200 halved.
        ("victim-half", Algorithm::WtlwWaits(Waits::standard(p, Time(1200)).scaled(1, 2))),
        ("centralized", Algorithm::Centralized),
        ("broadcast", Algorithm::Broadcast),
        ("quorum-sm", Algorithm::QuorumSm),
    ]
}

/// Builds the invocation for a draw `r ∈ 0..4` writing the distinct value
/// `v`.
type Pick = fn(u32, i64) -> Invocation;

/// The read/write/rmw mix of the Algorithm 1 and baseline arms.
fn rmw_op(r: u32, v: i64) -> Invocation {
    match r {
        0 => Invocation::nullary("read"),
        1 | 2 => Invocation::new("write", v),
        _ => Invocation::new("rmw", v),
    }
}

/// Half reads, half writes: the quorum register's two operations.
fn register_op(r: u32, v: i64) -> Invocation {
    match r {
        0 | 1 => Invocation::nullary("read"),
        _ => Invocation::new("write", v),
    }
}

/// Half gets, then puts and deletes, over three keys.
fn kv_op(r: u32, v: i64) -> Invocation {
    let key = v % 3;
    match r {
        0 | 1 => Invocation::new("get", key),
        2 => Invocation::new("put", Value::pair(key, v)),
        _ => Invocation::new("del", key),
    }
}

/// `PER_PROCESS` random invocations for `pid`, one `pick` draw each;
/// written values are distinct so a reordering shows in the returns.
fn invocations(seed: u64, pid: usize, pick: Pick) -> Vec<Invocation> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ ((pid as u64 + 1) * 0x9E37_79B9));
    (0..PER_PROCESS).map(|k| pick(rng.gen_range(0..4u32), (k * 4 + pid) as i64 + 1)).collect()
}

/// The three schedule shapes, each on every process of `p`.
fn schedules(p: ModelParams, pick: Pick) -> Vec<(&'static str, Schedule, Option<u64>)> {
    // Closed loop: every process issues its next operation the instant the
    // previous one responds (staggered starts).
    let mut closed = Schedule::new();
    for pid in 0..p.n {
        closed = closed.script(Script {
            pid: Pid(pid),
            start: Time(pid as i64 * 7),
            gap: Time::ZERO,
            invocations: invocations(1, pid, pick),
        });
    }
    // Open loop, faster than service, behind an admission epoch of 8: the
    // ingress queues fill and drain through quiescent barriers.
    let mut rng = SplitMix64::seed_from_u64(2);
    let mut epoch = Schedule::new();
    for pid in 0..p.n {
        let mut t = 0;
        for inv in invocations(2, pid, pick) {
            t += rng.gen_range(0..2000i64);
            epoch = epoch.arrival(Pid(pid), Time(t), inv);
        }
    }
    // Open loop on a 600-tick grid: every latency of the default
    // parameters is a multiple of 600, so arrivals land on the same instant
    // as responses, as each other, and twice at one process.
    let mut tie = Schedule::new();
    for pid in 0..p.n {
        for (k, inv) in invocations(3, pid, pick).into_iter().enumerate() {
            tie = tie.arrival(Pid(pid), Time(600 * (k as i64 / 2) * 3), inv);
        }
    }
    vec![("closed", closed, None), ("open-epoch8", epoch, Some(8)), ("open-tie", tie, None)]
}

/// The digest of everything a run's user and its cost ledger can see.
fn digest(run: &Run) -> u64 {
    let mut h = 0;
    for op in &run.ops {
        let key = (
            op.pid.0,
            op.invocation.op,
            &op.invocation.arg,
            &op.ret,
            op.t_invoke.as_ticks(),
            op.t_respond.map(Time::as_ticks),
        );
        h = fxhash::combine(h, fxhash::hash64(&key));
    }
    let ledger = (
        run.msgs_sent,
        run.bytes_sent,
        run.crashed_pending,
        run.truncated,
        run.errors.len(),
        run.suspect.len(),
    );
    fxhash::combine(h, fxhash::hash64(&ledger))
}

/// The three delay models every shape runs under.
fn delays() -> [(&'static str, DelaySpec); 3] {
    [
        ("min", DelaySpec::AllMin),
        ("max", DelaySpec::AllMax),
        ("uniform", DelaySpec::UniformRandom { seed: 5 }),
    ]
}

/// Every run of the corpus, as `label digest events` lines.
fn corpus() -> String {
    let p = params();
    let spec = erase(RmwRegister::new(0));
    let mut out = String::new();
    let mut row = |label: String, n: usize, run: &Run| {
        // The victim may return wrong values, but every run finishes clean:
        // an operation still pending is one its invoker's crash cut off,
        // and only a crash stops a process's workload early.
        let pending = run.pending().count() as u64;
        assert!(pending == run.crashed_pending && run.errors.is_empty(), "{label}: {run}");
        let crashed = run.faults.iter().any(|f| matches!(f, InjectedFault::Crashed { .. }));
        assert!(!run.truncated && (crashed || run.ops.len() == n * PER_PROCESS), "{label}");
        writeln!(out, "{label} {:016x} {}", digest(run), run.events).expect("write to a String");
    };
    for (arm, algo) in arms(p) {
        for (shape, schedule, epoch) in schedules(p, rmw_op) {
            for (delay_label, delay) in delays() {
                let mut cfg = SimConfig::new(p, delay).with_schedule(schedule.clone());
                if let Some(epoch) = epoch {
                    cfg = cfg.with_admission_epoch(epoch);
                }
                let run = run_algorithm(algo, &spec, &cfg);
                row(format!("{arm}/{shape}/{delay_label}"), p.n, &run);
            }
        }
    }
    // The broadcast baseline's FIFO layer under a network that duplicates
    // a third of all messages and holds some back past their successors.
    let (_, closed, _) = schedules(p, rmw_op).swap_remove(0);
    let mut plan = FaultPlan::new(11).duplicate_all(0.3);
    for k in 0..6 {
        plan = plan.override_delay(Pid(0), Pid(1), 3 * k, p.d).override_delay(
            Pid(2),
            Pid(3),
            2 * k + 1,
            p.d,
        );
    }
    let cfg = SimConfig::new(p, DelaySpec::AllMin).with_schedule(closed).with_faults(plan);
    row(
        "broadcast/closed/dup-reorder".to_string(),
        p.n,
        &run_algorithm(Algorithm::Broadcast, &spec, &cfg),
    );
    // The quorum register over both specs it implements, at n = 5 so that
    // two crashes are a tolerated minority: every shape and delay model,
    // then the closed loop with two processes crashing mid-workload and
    // with a third of all messages duplicated.
    let p5 = ModelParams::new(5, p.d, p.u, p.epsilon);
    let quorum: [(&str, Algorithm, Arc<dyn ObjectSpec>, Pick); 2] = [
        ("mr-register", Algorithm::MrRegister, erase(Register::new(0)), register_op),
        ("abd-kv", Algorithm::AbdKv, erase(KvStore::new()), kv_op),
    ];
    for (arm, algo, spec, pick) in quorum {
        for (shape, schedule, epoch) in schedules(p5, pick) {
            for (delay_label, delay) in delays() {
                let mut cfg = SimConfig::new(p5, delay).with_schedule(schedule.clone());
                if let Some(epoch) = epoch {
                    cfg = cfg.with_admission_epoch(epoch);
                }
                row(
                    format!("{arm}/{shape}/{delay_label}"),
                    p5.n,
                    &run_algorithm(algo, &spec, &cfg),
                );
            }
        }
        let (_, closed, _) = schedules(p5, pick).swap_remove(0);
        for (faults, plan) in [
            ("crash2", FaultPlan::new(11).crash(Pid(3), Time(30_000)).crash(Pid(4), Time(30_000))),
            ("dup", FaultPlan::new(11).duplicate_all(0.3)),
        ] {
            let cfg = SimConfig::new(p5, DelaySpec::UniformRandom { seed: 5 })
                .with_schedule(closed.clone())
                .with_faults(plan);
            row(format!("{arm}/closed/{faults}"), p5.n, &run_algorithm(algo, &spec, &cfg));
        }
    }
    out
}

#[test]
fn golden_runs_are_unchanged() {
    let got = corpus();
    if std::env::var_os("LINTIME_BLESS").is_some() {
        std::fs::write(CORPUS, &got).expect("write the golden corpus");
        return;
    }
    let want = std::fs::read_to_string(CORPUS).expect("read the golden corpus");
    let parse = |s: &str| -> Vec<(String, String, String)> {
        s.lines()
            .map(|l| {
                let f: Vec<&str> = l.split(' ').collect();
                (f[0].to_string(), f[1].to_string(), f[2].to_string())
            })
            .collect()
    };
    let (got, want) = (parse(&got), parse(&want));
    let labels = |rows: &[(String, String, String)]| -> Vec<String> {
        rows.iter().map(|r| r.0.clone()).collect()
    };
    assert_eq!(labels(&got), labels(&want), "the corpus rows changed");
    let mut moved = Vec::new();
    for ((label, digest, events), (_, want_digest, want_events)) in got.iter().zip(&want) {
        if digest != want_digest {
            moved.push(format!("{label}: op digest {want_digest} -> {digest}"));
        }
        if events != want_events {
            moved.push(format!("{label}: events {want_events} -> {events}"));
        }
    }
    assert!(moved.is_empty(), "golden runs moved:\n{}", moved.join("\n"));
}
