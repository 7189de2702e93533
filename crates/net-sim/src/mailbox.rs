//! Per-rank mailboxes holding messages that have been injected into the fabric but not
//! yet received.
//!
//! The contents of a mailbox are precisely the "pending point-to-point messages still
//! in the network" that MANA must drain before a checkpoint (paper §5, category 1): a
//! checkpoint image never includes them, so anything left here at checkpoint time would
//! be lost.
//!
//! The mailbox is also the **re-sequencing lane** that masks chaos-injected network
//! misbehaviour: every envelope carries a consecutive per-(source, destination)
//! `pair_seq` assigned at injection time, and an envelope arriving *ahead of a gap*
//! (because an earlier one was delayed, dropped-and-retransmitted, or deliberately
//! reordered by a [`crate::chaos::ChaosPlan`]) is parked — invisible to probes and
//! receives — until the missing envelopes arrive. The MPI layer above therefore
//! always observes the reliable, per-sender-FIFO network it was built against, which
//! is exactly how a real transport (TCP, verbs RC, Slingshot reliable delivery)
//! masks the same faults.
//!
//! This lane is copy-free: deposit, park, gap-release and take all *move* the
//! envelope, and the payload is a refcounted [`crate::bytes::PayloadBuf`], so even
//! paths that must duplicate an envelope (chaos retransmit, collective fan-out)
//! share one allocation. The fabric's `bytes_copied` / `bytes_shared` counters
//! (`crate::stats::FabricStats`) measure this.

use crate::message::{Envelope, MatchSpec};
use mpi_model::types::Rank;
use std::collections::HashMap;

/// An ordered multiset of undelivered envelopes addressed to one rank.
///
/// Arrival order is preserved; matching always selects the earliest matching envelope,
/// which (together with the monotone sequence numbers assigned at injection) gives the
/// per-(sender, context) FIFO ordering MPI guarantees.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    envelopes: Vec<Envelope>,
    /// Envelopes that arrived ahead of a per-(source, destination) sequence gap:
    /// unmatchable until the gap fills.
    parked: Vec<Envelope>,
    /// The next expected `pair_seq` from each source world rank.
    next_expected: HashMap<Rank, u64>,
    /// Total number of envelopes ever delivered into this mailbox.
    pub delivered: u64,
    /// Total number of envelopes ever consumed from this mailbox.
    pub consumed: u64,
    /// Total number of envelopes that arrived out of order and had to be parked
    /// (a direct count of how much network misbehaviour this lane has masked).
    pub(crate) resequenced: u64,
}

impl Mailbox {
    /// Create an empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Deposit an envelope (called by the sender's side of the fabric).
    ///
    /// An envelope whose `pair_seq` is ahead of the next expected sequence number
    /// from its source is parked until the gap fills; in-order envelopes (the only
    /// kind a chaos-free fabric produces) go straight to the matchable queue.
    pub fn deposit(&mut self, envelope: Envelope) {
        let expected = self.next_expected.entry(envelope.source_world).or_insert(0);
        if envelope.pair_seq != *expected {
            self.resequenced += 1;
            self.parked.push(envelope);
            return;
        }
        let source = envelope.source_world;
        *expected += 1;
        self.delivered += 1;
        self.envelopes.push(envelope);
        // The arrival may have filled a gap: release every parked envelope from the
        // same source that is now in sequence.
        loop {
            // The entry was created at the top of this call; `get` (rather than
            // indexing) keeps a hypothetical bookkeeping bug from panicking the
            // owning rank's delivery pump.
            let Some(&expected) = self.next_expected.get(&source) else {
                return;
            };
            let Some(idx) = self
                .parked
                .iter()
                .position(|e| e.source_world == source && e.pair_seq == expected)
            else {
                return;
            };
            let released = self.parked.swap_remove(idx);
            if let Some(next) = self.next_expected.get_mut(&source) {
                *next += 1;
            }
            self.delivered += 1;
            self.envelopes.push(released);
        }
    }

    /// Find the earliest envelope matching `spec` without removing it.
    pub fn probe(&self, spec: &MatchSpec) -> Option<&Envelope> {
        self.envelopes.iter().find(|e| spec.matches(e))
    }

    /// Remove and return the earliest envelope matching `spec`.
    pub fn take(&mut self, spec: &MatchSpec) -> Option<Envelope> {
        let idx = self.envelopes.iter().position(|e| spec.matches(e))?;
        self.consumed += 1;
        Some(self.envelopes.remove(idx))
    }

    /// Number of undelivered envelopes currently queued (parked ones included: they
    /// are still "in the network" for drain-accounting purposes).
    pub fn pending(&self) -> usize {
        self.envelopes.len() + self.parked.len()
    }

    /// Number of envelopes currently parked behind a sequence gap.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Number of undelivered envelopes queued for a particular context.
    #[cfg(test)]
    pub(crate) fn pending_for_context(&self, context: u64) -> usize {
        self.envelopes
            .iter()
            .chain(self.parked.iter())
            .filter(|e| e.context == context)
            .count()
    }

    /// Number of undelivered envelopes from a particular world rank.
    #[cfg(test)]
    fn pending_from(&self, source_world: Rank) -> usize {
        self.envelopes
            .iter()
            .chain(self.parked.iter())
            .filter(|e| e.source_world == source_world)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(source: Rank, context: u64, tag: i32, seq: u64) -> Envelope {
        Envelope {
            source_world: source,
            source_comm_rank: source,
            dest_world: 0,
            context,
            tag,
            seq,
            pair_seq: seq,
            payload: crate::bytes::PayloadBuf::from_vec(vec![seq as u8]),
        }
    }

    #[test]
    fn fifo_matching() {
        let mut mb = Mailbox::new();
        mb.deposit(env(1, 5, 0, 0));
        mb.deposit(env(1, 5, 0, 1));
        let mut third = env(2, 5, 0, 2);
        third.pair_seq = 0;
        mb.deposit(third);
        let spec = MatchSpec::from_mpi_args(5, 1, 0);
        let first = mb.take(&spec).unwrap();
        assert_eq!(first.seq, 0, "earliest matching envelope is taken first");
        let second = mb.take(&spec).unwrap();
        assert_eq!(second.seq, 1);
        assert!(mb.take(&spec).is_none());
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn probe_does_not_consume() {
        let mut mb = Mailbox::new();
        mb.deposit(env(1, 5, 7, 0));
        let spec = MatchSpec::from_mpi_args(5, 1, 7);
        assert!(mb.probe(&spec).is_some());
        assert_eq!(mb.pending(), 1);
        assert!(mb.take(&spec).is_some());
        assert!(mb.probe(&spec).is_none());
    }

    #[test]
    fn per_context_counts() {
        let mut mb = Mailbox::new();
        mb.deposit(env(0, 1, 0, 0));
        let mut second = env(0, 2, 0, 1);
        second.pair_seq = 1;
        mb.deposit(second);
        let mut third = env(1, 2, 0, 2);
        third.pair_seq = 0;
        mb.deposit(third);
        assert_eq!(mb.pending_for_context(1), 1);
        assert_eq!(mb.pending_for_context(2), 2);
        assert_eq!(mb.pending_from(0), 2);
        assert_eq!(mb.pending_from(1), 1);
        assert_eq!(mb.delivered, 3);
        assert_eq!(mb.consumed, 0);
    }

    #[test]
    fn out_of_order_arrivals_are_parked_until_the_gap_fills() {
        let mut mb = Mailbox::new();
        let spec = MatchSpec::from_mpi_args(5, 1, 0);
        // pair_seq 1 and 2 arrive before 0: both parked, nothing matchable.
        mb.deposit(env(1, 5, 0, 1));
        mb.deposit(env(1, 5, 0, 2));
        assert!(mb.probe(&spec).is_none());
        assert_eq!(mb.parked(), 2);
        assert_eq!(mb.pending(), 2, "parked envelopes are still in the network");
        // The gap arrives: all three become matchable, in sequence order.
        mb.deposit(env(1, 5, 0, 0));
        assert_eq!(mb.parked(), 0);
        assert_eq!(mb.resequenced, 2);
        for expected in 0..3u64 {
            assert_eq!(mb.take(&spec).unwrap().pair_seq, expected);
        }
    }

    #[test]
    fn resequencing_is_per_source() {
        let mut mb = Mailbox::new();
        // Source 1's gap must not park source 2's in-order traffic.
        mb.deposit(env(1, 5, 0, 1));
        let mut other = env(2, 5, 0, 9);
        other.pair_seq = 0;
        mb.deposit(other);
        assert_eq!(mb.parked(), 1);
        assert!(mb.take(&MatchSpec::from_mpi_args(5, 2, 0)).is_some());
        assert!(mb.take(&MatchSpec::from_mpi_args(5, 1, 0)).is_none());
    }
}
