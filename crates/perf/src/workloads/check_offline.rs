//! `check-offline`: the checker crate used the other way — whole histories,
//! no garbage collection.
//!
//! Set-up records, for each of five ADTs (fifo-queue, stack, priority-queue,
//! register, kv-store), two complete 10k-operation histories from `Wtlw{X=0}`
//! engine runs:
//!
//! * **dense** — 8 processes, closed loop, so 8 operations overlap at every
//!   instant. These go through `check_fast`, i.e. the type-specialised
//!   monitors. The queue, stack and priority-queue runs issue no accessor
//!   (`peek`/`min` make the monitors defer) and write distinct values.
//! * **sparse** — 4 processes, open loop at 2.4 operations per `d`, balanced
//!   mix with the accessors, producers paired with consumers. These go
//!   through `check` (Wing–Gong), and, cut at ¼, ½ and ¾ of the run into
//!   crash-cut `PendingHistory`s, through `check_fast_pending`.
//!
//! Wing–Gong gets the sparse histories because on the dense ones it is a
//! coin flip: the same 4k-op queue history shape is decided in 0.4 ms on one
//! seed and exhausts the 5M-node budget on the next. A benchmark number has
//! to repeat, so the search is measured where it is polynomial.
//!
//! Every `Linearizable` verdict of `check_fast` and `check` carries a witness,
//! and every witness is replayed with `verify_witness` inside the timed
//! region (it is the checker's own soundness step).

use super::{Outcome, Round, RunOpts, Workload};
use crate::gen::{self, OpenLoop, PRODUCE_CONSUME};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;
use lintime_adt::spec::ObjectSpec;
use lintime_adt::types::by_name;
use lintime_check::arena::HistoryArena;
use lintime_check::history::{History, PendingHistory, PendingOp};
use lintime_check::monitor::{check_fast, check_fast_pending, verify_witness};
use lintime_check::wing_gong::{check, Verdict};
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::SimConfig;
use lintime_sim::time::Time;
use lintime_sim::workload::Mix;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The offline-checker workload.
pub struct CheckOffline;

/// The recorded histories of one ADT.
pub struct Case {
    label: &'static str,
    spec: Arc<dyn ObjectSpec>,
    dense: History,
    sparse: History,
    cuts: Vec<PendingHistory>,
    fast_metric: &'static str,
    wing_gong_metric: &'static str,
    apply_metric: Option<&'static str>,
}

/// Operations per recorded history at full scale.
const HISTORY_OPS: usize = 10_000;

/// The ADTs checked: type name, the mix of the dense run, and the metrics
/// each leg reports under.
struct Adt {
    name: &'static str,
    dense_mix: Mix,
    fast_metric: &'static str,
    wing_gong_metric: &'static str,
    apply_metric: Option<&'static str>,
}

const ADTS: [Adt; 5] = [
    Adt {
        name: "fifo-queue",
        dense_mix: PRODUCE_CONSUME,
        fast_metric: "check.offline.fast_ns_per_op.queue",
        wing_gong_metric: "check.offline.wing_gong_ns_per_op.queue",
        apply_metric: Some("adt.apply_ns_per_op.queue"),
    },
    Adt {
        name: "stack",
        dense_mix: PRODUCE_CONSUME,
        fast_metric: "check.offline.fast_ns_per_op.stack",
        wing_gong_metric: "check.offline.wing_gong_ns_per_op.stack",
        apply_metric: None,
    },
    Adt {
        name: "priority-queue",
        dense_mix: PRODUCE_CONSUME,
        fast_metric: "check.offline.fast_ns_per_op.pq",
        wing_gong_metric: "check.offline.wing_gong_ns_per_op.pq",
        apply_metric: Some("adt.apply_ns_per_op.pq"),
    },
    Adt {
        name: "register",
        dense_mix: Mix::BALANCED,
        fast_metric: "check.offline.fast_ns_per_op.register",
        wing_gong_metric: "check.offline.wing_gong_ns_per_op.register",
        apply_metric: Some("adt.apply_ns_per_op.register"),
    },
    Adt {
        name: "kv-store",
        dense_mix: Mix::BALANCED,
        fast_metric: "check.offline.fast_ns_per_op.kv",
        wing_gong_metric: "check.offline.wing_gong_ns_per_op.kv",
        apply_metric: None,
    },
];

fn recorded(spec: &Arc<dyn ObjectSpec>, cfg: &SimConfig) -> History {
    let run = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, spec, cfg);
    History::from_run(&run).expect("a fault-free Algorithm 1 run completes")
}

/// The history as a crash at `at` would leave it: operations that responded
/// by then are complete, operations in flight are pending, later ones never
/// happened.
fn crash_cut(history: &History, at: Time) -> PendingHistory {
    PendingHistory {
        complete: History {
            ops: history.ops.iter().filter(|o| o.t_respond <= at).cloned().collect(),
        },
        pending: history
            .ops
            .iter()
            .filter(|o| o.t_invoke <= at && o.t_respond > at)
            .map(|o| PendingOp {
                pid: o.pid,
                invocation: o.instance.invocation(),
                t_invoke: o.t_invoke,
                may_have_effect: true,
            })
            .collect(),
        horizon: at,
        malformed: 0,
    }
}

fn record_all(ops: usize, seed: u64) -> Vec<Case> {
    ADTS.iter()
        .map(|adt| {
            let spec = by_name(adt.name).unwrap_or_else(|| panic!("no ADT named {}", adt.name));
            let dense_cfg =
                SimConfig::new(probes::params(8), DelaySpec::UniformRandom { seed }).with_schedule(
                    gen::closed_loop(spec.as_ref(), 8, adt.dense_mix, (ops / 8).max(1), seed),
                );
            let shape = OpenLoop {
                shards: 1,
                n: 4,
                total_ops: ops,
                mean_gap: Time(2500),
                mix: Mix::BALANCED,
                zipf_s: 0.0,
                seed,
            };
            let arrivals = gen::open_loop(spec.as_ref(), shape).remove(0);
            let sparse_cfg = SimConfig::new(probes::params(4), DelaySpec::UniformRandom { seed })
                .with_schedule(gen::schedule_of(&arrivals));
            let sparse = recorded(&spec, &sparse_cfg);
            let end = sparse.ops.iter().map(|o| o.t_respond).max().unwrap_or(Time::ZERO);
            let cuts = (1..4).map(|q| crash_cut(&sparse, Time(end.as_ticks() * q / 4))).collect();
            Case {
                label: adt.name,
                dense: recorded(&spec, &dense_cfg),
                sparse,
                cuts,
                spec,
                fast_metric: adt.fast_metric,
                wing_gong_metric: adt.wing_gong_metric,
                apply_metric: adt.apply_metric,
            }
        })
        .collect()
}

/// One full check of a case. Returns `(ops verified, ops failed, fast,
/// wing_gong, pending)` with the three legs' durations.
fn check_case(
    case: &Case,
    tracer: &mut Tracer,
    notes: &mut Vec<String>,
) -> (u64, u64, [Duration; 3]) {
    let (mut ok, mut failed) = (0u64, 0u64);
    let mut certified = |what: &str, history: &History, verdict: Verdict, tracer: &mut Tracer| {
        let replayed = match &verdict {
            Verdict::Linearizable(order) => {
                tracer.time("check.verify_witness", |_| verify_witness(&case.spec, history, order))
            }
            _ => (false, Duration::ZERO),
        };
        if replayed.0 {
            ok += history.len() as u64;
        } else {
            failed += history.len() as u64;
            notes.push(format!("{} {what}: not certified", case.label));
        }
        replayed.1
    };
    let (verdict, mut fast) =
        tracer.time("check.offline.fast", |_| check_fast(&case.spec, &case.dense));
    fast += certified("check_fast on the dense history", &case.dense, verdict, tracer);
    let (verdict, mut wing_gong) =
        tracer.time("check.offline.wing_gong", |_| check(&case.spec, &case.sparse));
    wing_gong += certified("check on the sparse history", &case.sparse, verdict, tracer);
    let mut pending = Duration::ZERO;
    for cut in &case.cuts {
        let (verdict, took) =
            tracer.time("check.offline.pending", |_| check_fast_pending(&case.spec, cut));
        pending += took;
        let size = (cut.complete.len() + cut.pending.len()) as u64;
        if verdict.is_linearizable() {
            ok += size;
        } else {
            failed += size;
            notes.push(format!("{} crash cut at {}: {verdict:?}", case.label, cut.horizon));
        }
    }
    (ok, failed, [fast, wing_gong, pending])
}

impl Workload for CheckOffline {
    type Inputs = Vec<Case>;

    fn setup(&self, opts: &RunOpts) -> Vec<Case> {
        let ops = opts.scaled(HISTORY_OPS, 80);
        let mut quiet = Tracer::new(false);
        for case in record_all((ops / 10).max(16), opts.seed) {
            std::hint::black_box(check_case(&case, &mut quiet, &mut Vec::new()));
        }
        record_all(ops, opts.seed)
    }

    fn round(&self, cases: &Vec<Case>, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        for case in cases {
            let (ok, failed, legs) = check_case(case, tracer, &mut round.notes);
            round.ops += ok;
            round.attempted += ok + failed;
            round.failed += failed;
            round.wall += legs.iter().sum::<Duration>();
        }
        round
    }

    fn layers(&self, cases: &Vec<Case>, budget: Duration, tracer: &mut Tracer, out: &mut Outcome) {
        // The legs are milliseconds long: repeat the pass while the budget
        // lasts and report per-metric medians.
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let started = Instant::now();
        let mut passes = 0;
        while passes == 0 || (passes < 50 && started.elapsed() < budget / 2) {
            passes += 1;
            let (mut pending, mut pending_ops) = (Duration::ZERO, 0usize);
            let (mut arena, mut arena_ops) = (Duration::ZERO, 0usize);
            for case in cases {
                let (ok, failed, [fast, wing_gong, cut]) = check_case(case, tracer, &mut out.notes);
                out.attempted += ok + failed;
                out.failed += failed;
                let per = |d: Duration, ops: usize| d.as_nanos() as f64 / ops.max(1) as f64;
                samples.entry(case.fast_metric).or_default().push(per(fast, case.dense.len()));
                samples
                    .entry(case.wing_gong_metric)
                    .or_default()
                    .push(per(wing_gong, case.sparse.len()));
                pending += cut;
                pending_ops +=
                    case.cuts.iter().map(|c| c.complete.len() + c.pending.len()).sum::<usize>();
                let (built, took) = tracer
                    .time("check.offline.arena_build", |_| HistoryArena::from_history(&case.dense));
                std::hint::black_box(built);
                arena += took;
                arena_ops += case.dense.len();
                if let Some(apply_metric) = case.apply_metric {
                    let invocations: Vec<_> =
                        case.sparse.ops.iter().map(|o| o.instance.invocation()).collect();
                    samples.entry(apply_metric).or_default().push(probes::apply_ns_per_op(
                        &case.spec,
                        invocations.iter(),
                        tracer,
                    ));
                }
            }
            samples
                .entry("check.offline.pending_ns_per_op")
                .or_default()
                .push(pending.as_nanos() as f64 / pending_ops.max(1) as f64);
            samples
                .entry("check.offline.arena_build_ns_per_op")
                .or_default()
                .push(arena.as_nanos() as f64 / arena_ops.max(1) as f64);
        }
        for (name, values) in samples {
            out.set(name, median(&values));
        }
    }
}
