//! Virtual time and the model parameters `(n, d, u, ε)`.
//!
//! The paper works with real-numbered time. We use integer *ticks* (one tick
//! ≈ 1 µs of model time) so that all arithmetic in the bound formulas and the
//! shifting constructions is exact. Choose `d` and `u` divisible by 12·n when
//! configuring experiments so quantities like `u/4`, `d/3`, and `(1 - 1/n)u`
//! are integral; [`ModelParams::exact`] checks this.
//!
//! Times may be negative: shifting moves events backwards, and the paper's
//! canonical run `R_A(ρ, C, D)` starts at *clock* time 0, i.e. real time
//! `-c_0`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in time or a duration, in integer ticks (1 tick ≈ 1 µs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub i64);

impl Time {
    /// Zero time.
    pub const ZERO: Time = Time(0);
    /// The maximum representable time.
    pub const MAX: Time = Time(i64::MAX);
    /// The minimum representable time.
    pub const MIN: Time = Time(i64::MIN);

    /// Construct from raw ticks.
    pub const fn ticks(t: i64) -> Time {
        Time(t)
    }

    /// Raw tick count.
    pub const fn as_ticks(self) -> i64 {
        self.0
    }

    /// Absolute value.
    pub fn abs(self) -> Time {
        Time(self.0.abs())
    }

    /// Maximum of two times.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Minimum of two times.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Neg for Time {
    type Output = Time;
    fn neg(self) -> Time {
        Time(-self.0)
    }
}

impl Mul<i64> for Time {
    type Output = Time;
    fn mul(self, rhs: i64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<i64> for Time {
    type Output = Time;
    fn div(self, rhs: i64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        Time(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Process identifier `p_i`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub usize);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The system model parameters of Section 2.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelParams {
    /// Number of processes `n ≥ 2`.
    pub n: usize,
    /// Maximum message delay `d > 0`.
    pub d: Time,
    /// Delay uncertainty `u ∈ (0, d]`; delays fall in `[d - u, d]`.
    pub u: Time,
    /// Clock-skew bound `ε ≥ 0`: `|c_i - c_j| ≤ ε`.
    pub epsilon: Time,
}

impl ModelParams {
    /// Construct and validate parameters. Panics on nonsensical values.
    pub fn new(n: usize, d: Time, u: Time, epsilon: Time) -> Self {
        assert!(n >= 2, "need at least two processes");
        assert!(d > Time::ZERO, "d must be positive");
        assert!(u > Time::ZERO && u <= d, "u must be in (0, d]");
        assert!(epsilon >= Time::ZERO, "epsilon must be non-negative");
        ModelParams { n, d, u, epsilon }
    }

    /// Parameters with the *optimal* clock skew `ε = (1 - 1/n)u` from \[16\]
    /// (Lundelius–Lynch), as assumed in Section 5.
    pub fn with_optimal_epsilon(n: usize, d: Time, u: Time) -> Self {
        let eps = Self::optimal_epsilon(n, u);
        Self::new(n, d, u, eps)
    }

    /// The optimal skew `(1 - 1/n)u = u - u/n`.
    pub fn optimal_epsilon(n: usize, u: Time) -> Time {
        u - u / (n as i64)
    }

    /// The default experiment parameters used throughout the benchmark
    /// harness: `n = 4`, `d = 6000`, `u = 2400`, `ε = (1 - 1/4)·2400 = 1800`.
    /// All divisions appearing in the paper's bounds are exact for these.
    pub fn default_experiment() -> Self {
        Self::with_optimal_epsilon(4, Time(6000), Time(2400))
    }

    /// Minimum message delay `d - u`.
    pub fn min_delay(self) -> Time {
        self.d - self.u
    }

    /// `min{ε, u, d/3}` — the `m` of Theorems 4 and 5.
    pub fn m(self) -> Time {
        self.epsilon.min(self.u).min(self.d / 3)
    }

    /// True iff a delay value is admissible: `δ ∈ [d - u, d]`.
    pub fn delay_ok(self, delay: Time) -> bool {
        delay >= self.min_delay() && delay <= self.d
    }

    /// Check that the divisions used by the bound formulas and the shifting
    /// constructions are exact for these parameters (recommended for
    /// experiments so measured values match formulas exactly).
    pub fn exact(self) -> bool {
        let n = self.n as i64;
        self.u.0 % 4 == 0 && self.u.0 % (2 * n) == 0 && self.d.0 % 3 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Time(10);
        let b = Time(3);
        assert_eq!(a + b, Time(13));
        assert_eq!(a - b, Time(7));
        assert_eq!(-a, Time(-10));
        assert_eq!(a * 2, Time(20));
        assert_eq!(a / 2, Time(5));
        assert_eq!(Time(-4).abs(), Time(4));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: Time = [a, b].into_iter().sum();
        assert_eq!(total, Time(13));
    }

    #[test]
    fn default_experiment_params_are_exact() {
        let p = ModelParams::default_experiment();
        assert_eq!(p.n, 4);
        assert_eq!(p.epsilon, Time(1800));
        assert_eq!(p.min_delay(), Time(3600));
        assert_eq!(p.m(), Time(1800)); // min{1800, 2400, 2000}
        assert!(p.exact());
    }

    #[test]
    fn optimal_epsilon_formula() {
        assert_eq!(ModelParams::optimal_epsilon(4, Time(2400)), Time(1800));
        assert_eq!(ModelParams::optimal_epsilon(2, Time(100)), Time(50));
        assert_eq!(ModelParams::optimal_epsilon(3, Time(900)), Time(600));
    }

    #[test]
    fn delay_ok_bounds() {
        let p = ModelParams::default_experiment();
        assert!(p.delay_ok(Time(3600)));
        assert!(p.delay_ok(Time(6000)));
        assert!(!p.delay_ok(Time(3599)));
        assert!(!p.delay_ok(Time(6001)));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_process() {
        let _ = ModelParams::new(1, Time(100), Time(10), Time(1));
    }

    #[test]
    #[should_panic(expected = "u must be")]
    fn rejects_u_larger_than_d() {
        let _ = ModelParams::new(2, Time(100), Time(200), Time(1));
    }

    #[test]
    fn m_picks_d_over_3_when_smallest() {
        let p = ModelParams::new(3, Time(300), Time(300), Time(300));
        assert_eq!(p.m(), Time(100));
    }
}
