//! Wall-clock ↔ virtual-time mapping for the live runtime.
//!
//! The live platform maps one virtual *tick* to a configurable real
//! [`Duration`]. All processes share an epoch `Instant`; each has a fixed
//! virtual offset, giving exactly the paper's drift-free offset clocks
//! (modulo OS scheduling jitter, which is why live experiments use tick
//! durations large enough that jitter ≪ `u`).

use lintime_sim::time::Time;
use std::time::{Duration, Instant};

/// A process-local clock: shared epoch, per-process offset, tick scale.
#[derive(Clone, Copy, Debug)]
pub struct LiveClock {
    epoch: Instant,
    offset: Time,
    tick: Duration,
}

impl LiveClock {
    /// Create a clock.
    pub fn new(epoch: Instant, offset: Time, tick: Duration) -> Self {
        assert!(!tick.is_zero(), "tick duration must be positive");
        LiveClock { epoch, offset, tick }
    }

    /// Real (virtual) time elapsed since the epoch, in ticks.
    pub fn real_now(&self) -> Time {
        let elapsed = Instant::now().saturating_duration_since(self.epoch);
        Time((elapsed.as_nanos() / self.tick.as_nanos()) as i64)
    }

    /// Local clock reading: real time plus this process's offset.
    pub fn local_now(&self) -> Time {
        self.real_now() + self.offset
    }

    /// The `Instant` at which the given *real* tick count occurs. A time too
    /// far out for the platform's `Instant` saturates to a late one it can
    /// hold, never to one near the epoch.
    pub fn instant_at_real(&self, t: Time) -> Instant {
        let mut later = self.to_duration(t);
        loop {
            if let Some(at) = self.epoch.checked_add(later) {
                return at;
            }
            later /= 2;
        }
    }

    /// This process's offset: local = real + offset.
    pub fn offset(&self) -> Time {
        self.offset
    }

    /// Convert a tick count to a real duration, computed in `u128`
    /// nanoseconds and saturating at `u64::MAX` nanoseconds (≈ 584 years).
    pub fn to_duration(&self, t: Time) -> Duration {
        if t <= Time::ZERO {
            return Duration::ZERO;
        }
        let nanos = self.tick.as_nanos() * t.as_ticks() as u128;
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_is_real_plus_offset() {
        let epoch = Instant::now();
        let c = LiveClock::new(epoch, Time(500), Duration::from_micros(100));
        let real = c.real_now();
        let local = c.local_now();
        // Within a tick or two of each other.
        assert!((local - real - Time(500)).abs() <= Time(2));
    }

    #[test]
    fn instants_round_trip() {
        let epoch = Instant::now();
        let c = LiveClock::new(epoch, Time(0), Duration::from_micros(50));
        let at = c.instant_at_real(Time(100));
        assert_eq!(at.duration_since(epoch), Duration::from_micros(5000));
        assert_eq!(c.to_duration(Time(10)), Duration::from_micros(500));
        assert_eq!(c.to_duration(Time(-5)), Duration::ZERO);
    }

    #[test]
    fn instants_past_u32_ticks_do_not_wrap() {
        let epoch = Instant::now();
        let c = LiveClock::new(epoch, Time(0), Duration::from_micros(1));
        let far = Time((1 << 32) + 5);
        let want = Duration::from_micros((1 << 32) + 5);
        assert_eq!(c.to_duration(far), want);
        assert_eq!(c.instant_at_real(far).duration_since(epoch), want);
        // Beyond u64 nanoseconds the duration saturates instead of wrapping.
        let coarse = LiveClock::new(epoch, Time(0), Duration::from_secs(1));
        assert_eq!(coarse.to_duration(Time(i64::MAX)), Duration::from_nanos(u64::MAX));
        assert!(coarse.instant_at_real(Time(i64::MAX)) > epoch + Duration::from_secs(1 << 32));
    }

    #[test]
    fn clock_advances() {
        let c = LiveClock::new(Instant::now(), Time(0), Duration::from_micros(50));
        let a = c.real_now();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.real_now();
        assert!(b > a);
    }

    #[test]
    #[should_panic(expected = "tick duration")]
    fn zero_tick_rejected() {
        let _ = LiveClock::new(Instant::now(), Time(0), Duration::ZERO);
    }
}
