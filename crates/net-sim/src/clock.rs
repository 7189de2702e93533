//! The simulator's single wall-clock authority.
//!
//! Every other module in `net-sim` (and every `chaos.rs` in the workspace) is a
//! *deterministic* path: given a seed, a chaos schedule must replay identically,
//! so those modules may not read real time or sleep directly — the in-tree
//! analyzer's `no-wall-clock` rule enforces that. Real time is still needed at
//! the edges (blocking-wait deadlines, reorder backstops, chaos hold timers),
//! and this module is the one approved place it enters the system. Concentrating
//! the calls here keeps the blast radius of nondeterminism auditable: a grep of
//! `clock::` callers is the complete list of time-dependent behaviour in the
//! simulator.
//!
//! The functions are deliberately thin aliases of `std` — the point is the choke
//! point, not an abstraction. If a virtual clock ever becomes necessary (e.g. to
//! make blocking timeouts deterministic under test), this is the only file that
//! changes.

use std::time::{Duration, Instant};

#[cfg(test)]
thread_local! {
    static READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Read the wall clock. The only approved `Instant::now` in the simulator.
#[inline]
pub fn now() -> Instant {
    #[cfg(test)]
    READS.with(|reads| reads.set(reads.get() + 1));
    Instant::now()
}

/// How often the calling thread has read the clock: lets a test assert that a path
/// reads it not at all.
#[cfg(test)]
pub(crate) fn reads() -> u64 {
    READS.with(std::cell::Cell::get)
}

/// Elapsed time since `start`, via the approved clock.
#[inline]
pub fn elapsed_since(start: Instant) -> Duration {
    now().duration_since(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
        assert!(elapsed_since(a) >= Duration::ZERO);
        assert_eq!(reads(), 3);
    }
}
