//! The benchmark's catalogue: every workload and every metric it can emit,
//! with unit, clock, direction and bound.
//!
//! `BENCHMARK.json` at the repository root is the driver-facing copy of this
//! table (the self-test asserts the two agree). Its `end_to_end` list holds
//! the [`Tier::Gated`] metrics — the ones defined and non-zero on *every*
//! workload, which is what the driver's contract requires of a gated metric.
//! Its `per_layer` list holds everything else: the workload-specific
//! end-to-end metrics ([`Tier::EndToEnd`], still bounded here and checked by
//! `lintime-perf compare`) and the per-layer metrics ([`Tier::Layer`]).

use Better::{Higher, Lower};

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock (or CPU, or memory) on the sandbox: noisy, bounded by a
    /// share of the median.
    Host,
    /// A property of the modelled algorithm under a seeded scheduler: model
    /// ticks and exact counts. Repeats bit-for-bit for a given seed.
    Virtual,
}

/// Where a metric is reported and how it is gated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// End to end on every workload; in `BENCHMARK.json`'s `end_to_end`
    /// list, emitted by the untraced run, gated by the driver.
    Gated,
    /// End to end on the workloads it applies to; emitted by the traced run,
    /// bounded by `compare`.
    EndToEnd,
    /// One layer's number; emitted by the traced run, no bound.
    Layer,
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as emitted.
    pub name: &'static str,
    /// Unit as emitted.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
    /// Tier.
    pub tier: Tier,
    /// Share of the baseline median by which the metric may worsen; `0.0`
    /// means exact equality. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// One workload of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
}

/// The six workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "serve-knee",
        why: "serve() open loop at 6 ops per d (75% of the virtual knee): every layer works at a \
              sustainable point; its traced run climbs a rate ladder for the highest rate within \
              the latency limit",
    },
    WorkloadDef {
        name: "serve-overload",
        why: "the same deployment 600x past capacity: the whole input is ingress backlog drained \
              through admission epochs; a gain bought for shallow queues that costs deep ones (or \
              memory) shows here",
    },
    WorkloadDef {
        name: "engine-storm",
        why: "closed-loop run_algorithm over Wtlw n=16, Centralized, Broadcast, QuorumSm with no \
              sink and no checker in the timed region: event loop and node handlers do all the \
              work",
    },
    WorkloadDef {
        name: "check-stream",
        why: "StreamChecker alone on engine-recorded queue/register/priority-queue traffic \
              (fallbacks, scarce cuts); the engine does nothing in the timed region",
    },
    WorkloadDef {
        name: "check-offline",
        why: "whole-history checking of recorded 10k-op histories: monitors on dense histories, \
              Wing-Gong and crash-cut pending checks on sparse ones, every witness replayed",
    },
    WorkloadDef {
        name: "live-paced",
        why: "the real-threads runtime (router, timers, channels) at 1 us per tick on a paced \
              schedule: latency is injected delay plus overhead, so the number is the overhead",
    },
];

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, clock: Clock::Host, tier: Tier::Gated, bound: Some(bound) }
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, clock: Clock::Host, tier: Tier::EndToEnd, bound: Some(bound) }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, clock: Clock::Virtual, tier: Tier::EndToEnd, bound: Some(0.0) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    MetricDef { name, unit, better, clock, tier: Tier::Layer, bound: None }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    layer(name, unit, better, Clock::Host)
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    layer(name, unit, better, Clock::Virtual)
}

/// Every metric the benchmark can emit.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end, every workload (BENCHMARK.json `end_to_end`) ----
    gated("setup_s", "s", Lower, 0.25),
    gated("ops_per_s", "1/s", Higher, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.15),
    // ---- end to end, where they apply ----
    exact("fail_share", "ratio", Lower),
    exact("total_p99_ticks", "ticks", Lower),
    exact("queue_p99_ticks", "ticks", Lower),
    exact("max_rate_ok_ops_per_d", "1/d", Higher),
    exact("lat_accessor_max_ticks", "ticks", Lower),
    exact("lat_mutator_max_ticks", "ticks", Lower),
    exact("lat_mixed_max_ticks", "ticks", Lower),
    exact("msgs_per_op", "count", Lower),
    exact("bytes_per_op", "B", Lower),
    exact("check_peak_resident_ops", "count", Lower),
    bounded("live_overhead_p50_us", "us", Lower, 0.15),
    bounded("live_overhead_p99_us", "us", Lower, 0.25),
    // ---- sim ----
    host("sim.engine_ns_per_event", "ns", Lower),
    count("sim.events_per_op", "count", Lower),
    count("sim.events", "count", Lower),
    host("sim.null_node_ns_per_event", "ns", Lower),
    host("sim.schedule_build_ns_per_op", "ns", Lower),
    count("sim.ingress_peak_depth", "count", Lower),
    count("sim.admission_epochs", "count", Lower),
    host("sim.events_per_s", "1/s", Higher),
    // ---- core ----
    host("core.wtlw.ns_per_op", "ns", Lower),
    host("core.batched.ns_per_op", "ns", Lower),
    host("core.centralized.ns_per_op", "ns", Lower),
    host("core.broadcast.ns_per_op", "ns", Lower),
    host("core.quorum_sm.ns_per_op", "ns", Lower),
    count("core.wtlw.msgs_per_op", "count", Lower),
    count("core.batched.msgs_per_op", "count", Lower),
    count("core.centralized.msgs_per_op", "count", Lower),
    count("core.broadcast.msgs_per_op", "count", Lower),
    count("core.quorum_sm.msgs_per_op", "count", Lower),
    count("core.batch_fill", "count", Higher),
    // ---- adt ----
    host("adt.apply_ns_per_op.queue", "ns", Lower),
    host("adt.apply_ns_per_op.register", "ns", Lower),
    host("adt.apply_ns_per_op.pq", "ns", Lower),
    // ---- check ----
    host("check.stream.feed_ns_per_op", "ns", Lower),
    host("check.stream.finish_ns", "ns", Lower),
    count("check.stream.flushes", "count", Higher),
    count("check.stream.fallbacks", "count", Lower),
    count("check.stream.fallback_share", "ratio", Lower),
    count("check.stream.gc_reclaimed", "count", Higher),
    count("check.stream.peak_resident_ops", "count", Lower),
    host("check.stream.lockstep_ns_per_op", "ns", Lower),
    host("check.offline.arena_build_ns_per_op", "ns", Lower),
    host("check.offline.fast_ns_per_op.queue", "ns", Lower),
    host("check.offline.fast_ns_per_op.stack", "ns", Lower),
    host("check.offline.fast_ns_per_op.pq", "ns", Lower),
    host("check.offline.fast_ns_per_op.register", "ns", Lower),
    host("check.offline.fast_ns_per_op.kv", "ns", Lower),
    host("check.offline.wing_gong_ns_per_op.queue", "ns", Lower),
    host("check.offline.wing_gong_ns_per_op.stack", "ns", Lower),
    host("check.offline.wing_gong_ns_per_op.pq", "ns", Lower),
    host("check.offline.wing_gong_ns_per_op.register", "ns", Lower),
    host("check.offline.wing_gong_ns_per_op.kv", "ns", Lower),
    host("check.offline.pending_ns_per_op", "ns", Lower),
    host("check.compose_ns", "ns", Lower),
    // ---- bench::serve ----
    host("serve.sink_ns_per_op", "ns", Lower),
    host("serve.checker_wait_ns_per_op", "ns", Lower),
    host("serve.glue_ns_per_op", "ns", Lower),
    host("serve.explained_share", "ratio", Higher),
    count("serve.total_p99_ticks_exact", "ticks", Lower),
    count("serve.ladder.r3.queue_p99_ticks", "ticks", Lower),
    count("serve.ladder.r5.queue_p99_ticks", "ticks", Lower),
    count("serve.ladder.r6.queue_p99_ticks", "ticks", Lower),
    count("serve.ladder.r7_5.queue_p99_ticks", "ticks", Lower),
    count("serve.ladder.r10.queue_p99_ticks", "ticks", Lower),
    // ---- obs ----
    host("obs.on_ratio.serve", "ratio", Lower),
    host("obs.on_ratio.engine", "ratio", Lower),
    // ---- runtime ----
    host("runtime.overhead_p50_us.mutator", "us", Lower),
    host("runtime.overhead_p50_us.accessor", "us", Lower),
    host("runtime.overhead_p50_us.mixed", "us", Lower),
    host("runtime.generator_late_p99_us", "us", Lower),
    host("runtime.missed_invocations", "count", Lower),
    host("runtime.delay_violations", "count", Lower),
    host("runtime.router_msgs", "count", Lower),
    host("runtime.replay_check_ns_per_op", "ns", Lower),
    // ---- trace ----
    host("trace.overhead_ratio", "ratio", Lower),
];

/// Look a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics the untraced run emits (`BENCHMARK.json`'s `end_to_end`).
pub fn gated_metrics() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.tier == Tier::Gated)
}

/// The metrics the traced run emits (`BENCHMARK.json`'s `per_layer`).
pub fn traced_metrics() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.tier != Tier::Gated)
}

/// Whether `s` is a well-formed metric or workload name for the driver: at
/// most 64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `s` is a well-formed unit for the driver: at most 16 of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in METRICS {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert_eq!(m.bound.is_none(), m.tier == Tier::Layer, "{}", m.name);
            if m.clock == Clock::Virtual {
                assert!(m.bound.is_none_or(|b| b == 0.0), "virtual metrics are exact: {}", m.name);
            }
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        assert!(gated_metrics().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(traced_metrics().count() <= 128);
    }
}
