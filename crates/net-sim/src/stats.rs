//! Fabric traffic counters.
//!
//! These are observability hooks for the benchmark harness (message/byte counts feed
//! the runtime-overhead model) and for tests (e.g. verifying that a MANA drain really
//! did empty the network). They are *not* part of the checkpoint image: fabric state is
//! exactly the state MANA refuses to save.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing all traffic a fabric has carried.
#[derive(Debug, Default)]
pub(crate) struct FabricStats {
    /// Point-to-point messages injected.
    pub messages_sent: AtomicU64,
    /// Point-to-point payload bytes injected.
    pub bytes_sent: AtomicU64,
    /// Point-to-point messages consumed by receives.
    pub(crate) messages_received: AtomicU64,
    /// Collective exchange rounds completed (one per collective call per communicator).
    pub collective_rounds: AtomicU64,
    /// Collective payload bytes contributed.
    pub(crate) collective_bytes: AtomicU64,
    /// Payload bytes genuinely materialized (a fresh allocation was filled). The
    /// initial injection of each payload counts here; so would any accidental
    /// re-copy on a retransmit or fan-out path.
    pub bytes_copied: AtomicU64,
    /// Payload bytes handed off by refcount bump instead of copying: chaos
    /// redeliveries, retransmits and collective fan-out reads all land here.
    /// `bytes_shared > 0` under chaos is the measured proof of resharing.
    pub bytes_shared: AtomicU64,
    /// Times a rank parked in a blocking wait — a receive, a collective exchange or
    /// a registration round that was not satisfied by the end of its spin (one per
    /// wait slice).
    pub parks: AtomicU64,
}

impl FabricStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a point-to-point injection of `bytes` payload bytes.
    pub(crate) fn record_send(&self, bytes: usize) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record a point-to-point receive.
    pub(crate) fn record_recv(&self) {
        self.messages_received.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one rank's contribution to a collective.
    pub(crate) fn record_collective(&self, bytes: usize) {
        self.collective_rounds.fetch_add(1, Ordering::Relaxed);
        self.collective_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record that `bytes` payload bytes were materialized into a fresh allocation.
    pub(crate) fn record_payload_copy(&self, bytes: usize) {
        self.bytes_copied.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record that `bytes` payload bytes were handed off by sharing the allocation.
    pub(crate) fn record_payload_share(&self, bytes: usize) {
        self.bytes_shared.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record that a rank is about to park in a blocking wait.
    pub(crate) fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters as plain numbers.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            messages_received: self.messages_received.load(Ordering::Relaxed),
            collective_rounds: self.collective_rounds.load(Ordering::Relaxed),
            collective_bytes: self.collective_bytes.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            bytes_shared: self.bytes_shared.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of `FabricStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Point-to-point messages injected.
    pub messages_sent: u64,
    /// Point-to-point payload bytes injected.
    pub bytes_sent: u64,
    /// Point-to-point messages consumed by receives.
    pub(crate) messages_received: u64,
    /// Collective exchange rounds completed.
    pub collective_rounds: u64,
    /// Collective payload bytes contributed.
    pub(crate) collective_bytes: u64,
    /// Payload bytes genuinely materialized into fresh allocations.
    pub bytes_copied: u64,
    /// Payload bytes handed off by refcount bump instead of copying.
    pub bytes_shared: u64,
    /// Times a rank parked in a blocking wait.
    pub parks: u64,
}

impl StatsSnapshot {
    /// Messages injected but not yet received at the time of the snapshot.
    pub fn in_flight(&self) -> u64 {
        self.messages_sent.saturating_sub(self.messages_received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = FabricStats::new();
        stats.record_send(100);
        stats.record_send(50);
        stats.record_recv();
        stats.record_collective(8);
        let snap = stats.snapshot();
        assert_eq!(snap.messages_sent, 2);
        assert_eq!(snap.bytes_sent, 150);
        assert_eq!(snap.messages_received, 1);
        assert_eq!(snap.in_flight(), 1);
        assert_eq!(snap.collective_rounds, 1);
        assert_eq!(snap.collective_bytes, 8);
    }

    #[test]
    fn copy_and_share_accounting() {
        let stats = FabricStats::new();
        stats.record_payload_copy(64);
        stats.record_payload_share(64);
        stats.record_payload_share(64);
        let snap = stats.snapshot();
        assert_eq!(snap.bytes_copied, 64);
        assert_eq!(snap.bytes_shared, 128);
    }
}
