//! Outstanding work in a live cluster, so the harness can stop a run the
//! moment it drains instead of sleeping out a fixed settle window.
//!
//! One shared [`WorkCount`] holds a unit for every piece of work that may
//! still cause an effect:
//!
//! * an invocation handed to a node (released when the node has handled it);
//! * a message a node sends (released when the receiver has handled it, or
//!   when the sender's fault plan drops it or the receiver's inbox is
//!   closed); a duplicate the fault plan injects is one more;
//! * a timer a node arms (released when it has fired and been handled, or
//!   when it is cancelled).
//!
//! A handler adds the units of its effects *before* it releases its own, so
//! the count cannot touch zero while anything is still in flight. Once the
//! last invocation is issued, zero means the cluster is quiescent: no input,
//! message or timer is left that could make it act again.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// A counter of outstanding work that a waiter can block on until it
/// reaches zero.
#[derive(Debug, Default)]
pub struct WorkCount {
    count: Mutex<i64>,
    idle: Condvar,
}

impl WorkCount {
    /// A counter at zero.
    pub fn new() -> Self {
        WorkCount::default()
    }

    /// Record `k` new units of outstanding work.
    pub fn add(&self, k: usize) {
        if k > 0 {
            *self.lock() += k as i64;
        }
    }

    /// Release `k` units; wakes the waiter when the count reaches zero.
    pub fn done(&self, k: usize) {
        if k == 0 {
            return;
        }
        let mut count = self.lock();
        *count -= k as i64;
        debug_assert!(*count >= 0, "work released that was never added");
        if *count == 0 {
            self.idle.notify_all();
        }
    }

    /// The current count.
    pub fn get(&self) -> i64 {
        *self.lock()
    }

    /// Block until the count is zero or `deadline` passes. True iff the
    /// count reached zero.
    pub fn wait_idle_until(&self, deadline: Instant) -> bool {
        let mut count = self.lock();
        while *count != 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            count = self.idle.wait_timeout(count, left).unwrap_or_else(PoisonError::into_inner).0;
        }
        true
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, i64> {
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn waits_for_zero_across_threads() {
        let work = Arc::new(WorkCount::new());
        work.add(3);
        let worker = Arc::clone(&work);
        let t = std::thread::spawn(move || {
            for _ in 0..3 {
                std::thread::sleep(Duration::from_millis(2));
                worker.done(1);
            }
        });
        assert!(work.wait_idle_until(Instant::now() + Duration::from_secs(5)));
        assert_eq!(work.get(), 0);
        t.join().unwrap();
    }

    #[test]
    fn deadline_passes_while_work_is_outstanding() {
        let work = WorkCount::new();
        work.add(1);
        let start = Instant::now();
        assert!(!work.wait_idle_until(start + Duration::from_millis(10)));
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert_eq!(work.get(), 1);
    }
}
