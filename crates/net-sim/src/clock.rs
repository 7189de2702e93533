//! The workspace's single wall-clock authority.
//!
//! Given a seed, a chaos schedule must replay identically, so no code in the
//! workspace reads real time or sleeps directly: clippy's `disallowed-methods`
//! (see `clippy.toml`) bans `Instant::now`, `SystemTime::now` and `thread::sleep`
//! everywhere but here. Real time is still needed at the edges (blocking-wait
//! deadlines, reorder backstops, chaos hold timers, heartbeat and drain back-offs),
//! and this module is the one place it enters the system. Concentrating the calls
//! here keeps the blast radius of nondeterminism auditable: a grep of `clock::`
//! callers is the complete list of time-dependent behaviour.
//!
//! The functions are deliberately thin aliases of `std` — the point is the choke
//! point, not an abstraction. If a virtual clock ever becomes necessary (e.g. to
//! make blocking timeouts deterministic under test), this is the only file that
//! changes.
//!
//! [`sleep`] is a blocking wait: under lock-order tracing it records any traced
//! lock the sleeping thread still holds (`parking_lot::order::on_block`), exactly
//! like a condvar park does.

use std::time::{Duration, Instant};

#[cfg(test)]
thread_local! {
    static READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Read the wall clock. The only approved `Instant::now` in the workspace.
#[inline]
pub fn now() -> Instant {
    #[cfg(test)]
    READS.with(|reads| reads.set(reads.get() + 1));
    #[expect(
        clippy::disallowed_methods,
        reason = "the approved clock: every other module reads time through here"
    )]
    Instant::now()
}

/// How often the calling thread has read the clock: lets a test assert that a path
/// reads it not at all.
#[cfg(test)]
pub(crate) fn reads() -> u64 {
    READS.with(std::cell::Cell::get)
}

/// Put the calling thread to sleep for `duration`. The only approved
/// `thread::sleep` in the workspace.
#[track_caller]
pub fn sleep(duration: Duration) {
    parking_lot::order::on_block(std::panic::Location::caller());
    #[expect(
        clippy::disallowed_methods,
        reason = "the approved clock: every other module sleeps through here"
    )]
    std::thread::sleep(duration);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::{order, Mutex};

    #[test]
    fn clock_is_monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
        assert!(now().duration_since(a) >= Duration::ZERO);
        assert_eq!(reads(), 3);
    }

    #[test]
    fn a_sleep_with_a_guard_held_is_recorded() {
        // The finding is planted on purpose: under an ambient traced run it would
        // land in the suite's dump and fail the held-across-block gate.
        if order::ambient() {
            eprintln!("skipping: ambient lock-order tracing is enabled");
            return;
        }
        order::force_enable();
        let lock = Mutex::new(0u32);
        let lock_line = line!() - 1;
        let guard = lock.lock();
        let sleep_line = line!() + 1;
        sleep(Duration::from_millis(1));
        drop(guard);
        sleep(Duration::from_millis(1));

        let snap = order::snapshot();
        let findings: Vec<(&str, &str)> = snap
            .held_across_block
            .iter()
            .filter(|(_, at, _)| at.contains("clock.rs:"))
            .map(|(held, at, _)| (held.as_str(), at.as_str()))
            .collect();
        assert_eq!(findings.len(), 1, "one sleep held the guard: {findings:?}");
        assert!(findings[0].0.contains(&format!("clock.rs:{lock_line}:")));
        assert!(findings[0].1.contains(&format!("clock.rs:{sleep_line}:")));
    }
}
