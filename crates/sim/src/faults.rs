//! Deterministic, seedable fault injection.
//!
//! The paper's model (Section 2.2) assumes no failures and message delays
//! within `[d − u, d]`. A [`FaultPlan`] deliberately breaks those
//! assumptions — per-message drops, duplicates and delay overrides, node
//! crashes, and stall/resume windows — so that experiments can measure how
//! implementations degrade *outside* the model, and so the recovery layer in
//! `lintime-core` can be shown to restore linearizability under omission
//! faults.
//!
//! Every decision is a pure function of `(seed, kind, from, to, k)`, so a
//! plan injects the identical fault sequence on every run with the same
//! configuration: faulty runs are exactly as replayable as fault-free ones.
//! Faults actually injected are recorded in [`crate::run::Run::faults`].

use crate::rng::mix;
use crate::time::{ModelParams, Pid, Time};

/// Probability scale for per-message fault rules: parts per million.
///
/// Rates are stored as integers (not `f64`) so that plans are `Eq`,
/// hashable, and bit-for-bit portable across platforms.
pub const PPM: u32 = 1_000_000;

/// A probabilistic per-message rule on a set of links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkRule {
    /// Sending process (`None` = any).
    pub from: Option<Pid>,
    /// Receiving process (`None` = any).
    pub to: Option<Pid>,
    /// Fault probability in parts per million (see [`PPM`]).
    pub rate_ppm: u32,
}

impl LinkRule {
    fn matches(&self, from: Pid, to: Pid) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// A targeted delay override: the `k`-th message from `from` to `to` takes
/// exactly `delay` instead of what the [`crate::delay::DelaySpec`] assigns.
/// The override may lie outside `[d − u, d]`; such deliveries count toward
/// `delay_violations` as usual.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayOverride {
    /// Sending process.
    pub from: Pid,
    /// Receiving process.
    pub to: Pid,
    /// Per-link message index (0-based, counting retransmissions).
    pub k: u64,
    /// The delay to apply.
    pub delay: Time,
}

/// A stall window: every event at `pid` with real time in `[from, until)` is
/// deferred to `until` (the process freezes, then resumes and handles the
/// backlog).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallWindow {
    /// The stalled process.
    pub pid: Pid,
    /// Start of the freeze (inclusive).
    pub from: Time,
    /// End of the freeze (exclusive); deferred events fire here.
    pub until: Time,
}

/// A fault actually injected during a run, recorded for replay and
/// reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// A message was dropped at send time.
    Dropped {
        /// Sender.
        from: Pid,
        /// Intended recipient.
        to: Pid,
        /// Per-link message index.
        k: u64,
        /// Real send time.
        t_send: Time,
    },
    /// A message was delivered twice; the copy arrives at `t_extra`.
    Duplicated {
        /// Sender.
        from: Pid,
        /// Recipient.
        to: Pid,
        /// Per-link message index.
        k: u64,
        /// Real arrival time of the duplicate copy.
        t_extra: Time,
    },
    /// A message's delay was overridden to `delay`.
    DelayOverridden {
        /// Sender.
        from: Pid,
        /// Recipient.
        to: Pid,
        /// Per-link message index.
        k: u64,
        /// The delay applied instead of the spec's.
        delay: Time,
    },
    /// A process crashed: it takes no steps at or after `at`.
    Crashed {
        /// The crashed process.
        pid: Pid,
        /// Real crash time.
        at: Time,
    },
    /// A process stalled: events in `[from, until)` were deferred to
    /// `until`.
    Stalled {
        /// The stalled process.
        pid: Pid,
        /// Window start.
        from: Time,
        /// Window end.
        until: Time,
    },
}

/// A deterministic, seedable fault schedule.
///
/// Build one with the chainable constructors and thread it through
/// [`crate::engine::SimConfig::with_faults`] (or the live runtime's
/// `LiveConfig`). An empty plan injects nothing.
///
/// ```
/// use lintime_sim::prelude::*;
///
/// let plan = FaultPlan::new(42)
///     .drop_all(0.10)                      // 10% omission on every link
///     .crash(Pid(2), Time(5_000))          // p2 dies at t = 5000
///     .stall(Pid(1), Time(100), Time(400)); // p1 freezes for 300 ticks
/// assert!(!plan.is_empty());
/// // Decisions are pure functions of (seed, link, message index):
/// assert_eq!(plan.should_drop(Pid(0), Pid(1), 7), plan.should_drop(Pid(0), Pid(1), 7));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions.
    pub seed: u64,
    /// Probabilistic drop rules.
    pub drops: Vec<LinkRule>,
    /// Exact drops: `(from, to, k)` triples dropped unconditionally.
    pub drops_exact: Vec<(Pid, Pid, u64)>,
    /// Probabilistic duplication rules.
    pub duplicates: Vec<LinkRule>,
    /// Targeted delay overrides.
    pub delay_overrides: Vec<DelayOverride>,
    /// Crash times per process.
    pub crashes: Vec<(Pid, Time)>,
    /// Stall windows.
    pub stalls: Vec<StallWindow>,
}

/// Domain-separation salts so drop and duplicate decisions on the same
/// message are independent.
const SALT_DROP: u64 = 0xD809_91DE_AD10_55E5;
const SALT_DUP: u64 = 0xD0B1_E0F0_0D5E_ED11;
const SALT_DUP_DELAY: u64 = 0x1A7E_C0FF_EE00_0D15;

fn rate_to_ppm(rate: f64) -> u32 {
    assert!((0.0..=1.0).contains(&rate), "fault rate must lie in [0, 1]");
    (rate * PPM as f64).round() as u32
}

impl FaultPlan {
    /// An empty plan with the given decision seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Drop every message on every link with probability `rate` ∈ [0, 1].
    pub fn drop_all(mut self, rate: f64) -> FaultPlan {
        self.drops.push(LinkRule { from: None, to: None, rate_ppm: rate_to_ppm(rate) });
        self
    }

    /// Drop exactly the `k`-th message from `from` to `to` (0-based,
    /// counting every transmission on the link including retransmissions).
    pub fn drop_exact(mut self, from: Pid, to: Pid, k: u64) -> FaultPlan {
        self.drops_exact.push((from, to, k));
        self
    }

    /// Duplicate every message on every link with probability `rate`.
    pub fn duplicate_all(mut self, rate: f64) -> FaultPlan {
        self.duplicates.push(LinkRule { from: None, to: None, rate_ppm: rate_to_ppm(rate) });
        self
    }

    /// Override the delay of the `k`-th message from `from` to `to`.
    pub fn override_delay(mut self, from: Pid, to: Pid, k: u64, delay: Time) -> FaultPlan {
        self.delay_overrides.push(DelayOverride { from, to, k, delay });
        self
    }

    /// Crash `pid` at real time `at`: it takes no steps from then on.
    pub fn crash(mut self, pid: Pid, at: Time) -> FaultPlan {
        self.crashes.push((pid, at));
        self
    }

    /// Stall `pid` over `[from, until)`: its events are deferred to `until`.
    pub fn stall(mut self, pid: Pid, from: Time, until: Time) -> FaultPlan {
        assert!(from < until, "stall window must be non-empty");
        self.stalls.push(StallWindow { pid, from, until });
        self
    }

    /// True iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty()
            && self.drops_exact.is_empty()
            && self.duplicates.is_empty()
            && self.delay_overrides.is_empty()
            && self.crashes.is_empty()
            && self.stalls.is_empty()
    }

    fn decide(&self, salt: u64, from: Pid, to: Pid, k: u64, rules: &[LinkRule]) -> bool {
        // Effective rate = max over matching rules, so rule order is
        // irrelevant and decisions stay independent of unrelated rules.
        let rate =
            rules.iter().filter(|r| r.matches(from, to)).map(|r| r.rate_ppm).max().unwrap_or(0);
        if rate == 0 {
            return false;
        }
        if rate >= PPM {
            return true;
        }
        let h = mix(self.seed
            ^ salt
            ^ (from.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (to.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ k.wrapping_mul(0x1656_67B1_9E37_79F9));
        (h % PPM as u64) < rate as u64
    }

    /// Should the `k`-th message from `from` to `to` be dropped?
    pub fn should_drop(&self, from: Pid, to: Pid, k: u64) -> bool {
        self.drops_exact.contains(&(from, to, k))
            || self.decide(SALT_DROP, from, to, k, &self.drops)
    }

    /// Should the `k`-th message from `from` to `to` be duplicated?
    pub fn should_duplicate(&self, from: Pid, to: Pid, k: u64) -> bool {
        self.decide(SALT_DUP, from, to, k, &self.duplicates)
    }

    /// The admissible delay of the duplicate copy of message `k` (uniform in
    /// `[d − u, d]`, derived from the seed).
    pub fn duplicate_delay(&self, params: ModelParams, from: Pid, to: Pid, k: u64) -> Time {
        let h = mix(self.seed
            ^ SALT_DUP_DELAY
            ^ (from.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (to.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ k.wrapping_mul(0x1656_67B1_9E37_79F9));
        let span = (params.u.as_ticks() + 1) as u64;
        params.min_delay() + Time((h % span) as i64)
    }

    /// The delay override for message `k` on `(from, to)`, if any.
    pub fn delay_override(&self, from: Pid, to: Pid, k: u64) -> Option<Time> {
        self.delay_overrides
            .iter()
            .find(|o| o.from == from && o.to == to && o.k == k)
            .map(|o| o.delay)
    }

    /// The crash time of `pid`, if it is scheduled to crash.
    pub fn crashed_at(&self, pid: Pid) -> Option<Time> {
        self.crashes.iter().filter(|(p, _)| *p == pid).map(|(_, at)| *at).min()
    }

    /// If `pid` is stalled at real time `t`, the end of the (longest
    /// applicable) stall window; events should be deferred there.
    pub fn stall_until(&self, pid: Pid, t: Time) -> Option<Time> {
        self.stalls
            .iter()
            .filter(|w| w.pid == pid && w.from <= t && t < w.until)
            .map(|w| w.until)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::default_experiment()
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_empty());
        for k in 0..100 {
            assert!(!plan.should_drop(Pid(0), Pid(1), k));
            assert!(!plan.should_duplicate(Pid(0), Pid(1), k));
            assert!(plan.delay_override(Pid(0), Pid(1), k).is_none());
        }
        assert!(plan.crashed_at(Pid(0)).is_none());
        assert!(plan.stall_until(Pid(0), Time(5)).is_none());
    }

    #[test]
    fn drop_decisions_are_deterministic_and_rate_accurate() {
        let plan = FaultPlan::new(7).drop_all(0.25);
        let again = FaultPlan::new(7).drop_all(0.25);
        let mut dropped = 0;
        for k in 0..10_000 {
            let d = plan.should_drop(Pid(0), Pid(1), k);
            assert_eq!(d, again.should_drop(Pid(0), Pid(1), k));
            dropped += d as u32;
        }
        // 25% ± a generous margin.
        assert!((2_000..3_000).contains(&dropped), "{dropped}");
        // A different seed decides differently.
        let other = FaultPlan::new(8).drop_all(0.25);
        let agree = (0..1000)
            .filter(|&k| {
                plan.should_drop(Pid(0), Pid(1), k) == other.should_drop(Pid(0), Pid(1), k)
            })
            .count();
        assert!(agree < 1000);
    }

    #[test]
    fn link_rules_scope_correctly() {
        let rule = LinkRule { from: Some(Pid(0)), to: Some(Pid(1)), rate_ppm: PPM };
        let plan = FaultPlan { drops: vec![rule], ..FaultPlan::new(3) };
        for k in 0..50 {
            assert!(plan.should_drop(Pid(0), Pid(1), k));
            assert!(!plan.should_drop(Pid(1), Pid(0), k));
            assert!(!plan.should_drop(Pid(0), Pid(2), k));
        }
    }

    #[test]
    fn exact_drops_hit_only_their_index() {
        let plan = FaultPlan::new(0).drop_exact(Pid(2), Pid(0), 5);
        assert!(plan.should_drop(Pid(2), Pid(0), 5));
        assert!(!plan.should_drop(Pid(2), Pid(0), 4));
        assert!(!plan.should_drop(Pid(2), Pid(0), 6));
        assert!(!plan.should_drop(Pid(0), Pid(2), 5));
    }

    #[test]
    fn drop_and_duplicate_decisions_are_independent() {
        let plan = FaultPlan::new(11).drop_all(0.5).duplicate_all(0.5);
        let both = (0..1000)
            .filter(|&k| {
                plan.should_drop(Pid(0), Pid(1), k) && plan.should_duplicate(Pid(0), Pid(1), k)
            })
            .count();
        // If decisions were correlated this would be ~0 or ~500.
        assert!((150..350).contains(&both), "{both}");
    }

    #[test]
    fn duplicate_delay_is_admissible() {
        let plan = FaultPlan::new(5).duplicate_all(1.0);
        for k in 0..1000 {
            let d = plan.duplicate_delay(p(), Pid(0), Pid(1), k);
            assert!(p().delay_ok(d), "{d}");
        }
    }

    #[test]
    fn crash_and_stall_queries() {
        let plan = FaultPlan::new(0).crash(Pid(1), Time(100)).stall(Pid(2), Time(50), Time(80));
        assert_eq!(plan.crashed_at(Pid(1)), Some(Time(100)));
        assert_eq!(plan.crashed_at(Pid(0)), None);
        assert_eq!(plan.stall_until(Pid(2), Time(50)), Some(Time(80)));
        assert_eq!(plan.stall_until(Pid(2), Time(79)), Some(Time(80)));
        assert_eq!(plan.stall_until(Pid(2), Time(80)), None);
        assert_eq!(plan.stall_until(Pid(2), Time(49)), None);
        assert_eq!(plan.stall_until(Pid(1), Time(60)), None);
    }

    #[test]
    fn overlapping_stalls_defer_to_the_latest_end() {
        let plan =
            FaultPlan::new(0).stall(Pid(0), Time(10), Time(30)).stall(Pid(0), Time(20), Time(50));
        assert_eq!(plan.stall_until(Pid(0), Time(25)), Some(Time(50)));
        assert_eq!(plan.stall_until(Pid(0), Time(12)), Some(Time(30)));
    }

    #[test]
    #[should_panic(expected = "fault rate must lie in [0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::new(0).drop_all(1.5);
    }
}
