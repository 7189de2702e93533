//! Regression tests for the point-to-point wrapper bugs fixed alongside the
//! two-phase collective work:
//!
//! * `recv` used to consume a drained (buffered) message *before* checking the
//!   receive buffer was large enough, destroying the payload on `MPI_ERR_TRUNCATE`;
//! * `wait`/`test` used to leak the request descriptor when the lower-half receive
//!   (or the peer-rank translation) failed, because the `?` early-returns skipped
//!   `translator.remove`.
//!
//! It also pins what a collective costs in crossings with and without the
//! registration round, which only ranks with an installed intercept run.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use ckpt_store::CheckpointStorage;
use job_runtime::run_world;
use mana::{CheckpointIntercept, IntentOutcome, ManaConfig, ManaRank, StoragePolicy};
use mpi_engine::Backend;
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::PrimitiveType;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::{PredefinedOp, UserFunctionRegistry};
use parking_lot::RwLock;
use std::sync::Arc;

fn launch_mana(world: usize) -> Vec<ManaRank> {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    Backend::Mpich
        .launch(world, Arc::clone(&registry), 1)
        .unwrap()
        .0
        .into_iter()
        .map(|lower| {
            let config = ManaConfig::new_design().with_storage(StoragePolicy::FullImage);
            ManaRank::new(lower, config, Arc::clone(&registry)).unwrap()
        })
        .collect()
}

/// Drive a two-rank world to the state where rank 1 holds one 8-byte drained message
/// in its upper-half buffer (rank 0 sent it, both ranks checkpointed, the drain moved
/// it out of the network), then return rank 1.
fn rank_with_buffered_message() -> ManaRank {
    let storage = CheckpointStorage::unmetered();
    let ranks = launch_mana(2);
    let mut out = run_world(ranks, move |rank_index, mut rank: ManaRank| {
        let world = rank.world().unwrap();
        let byte = rank
            .constant(PredefinedObject::Datatype(PrimitiveType::Byte))
            .unwrap();
        if rank_index == 0 {
            rank.send(&[1, 2, 3, 4, 5, 6, 7, 8], byte, 1, 7, world)
                .unwrap();
        }
        rank.checkpoint_into(&storage).unwrap();
        Ok(rank)
    })
    .unwrap();
    let receiver = out.remove(1);
    assert_eq!(
        receiver.buffered_messages(),
        1,
        "the checkpoint must have drained the in-flight message"
    );
    receiver
}

#[test]
fn truncated_recv_keeps_the_drained_message_buffered() {
    let mut receiver = rank_with_buffered_message();
    let world = receiver.world().unwrap();
    let byte = receiver
        .constant(PredefinedObject::Datatype(PrimitiveType::Byte))
        .unwrap();

    // A too-small receive fails with MPI_ERR_TRUNCATE — and must NOT destroy the
    // buffered payload.
    let err = receiver.recv(byte, 4, 0, 7, world).unwrap_err();
    assert!(matches!(
        err,
        MpiError::Truncate {
            message_bytes: 8,
            buffer_bytes: 4
        }
    ));
    assert_eq!(
        receiver.buffered_messages(),
        1,
        "truncation must leave the drained message in the buffer"
    );

    // Retrying with a large enough buffer still receives the original payload.
    let (payload, status) = receiver.recv(byte, 64, 0, 7, world).unwrap();
    assert_eq!(payload, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(status.source, 0);
    assert_eq!(receiver.buffered_messages(), 0);
}

#[test]
fn truncated_wait_keeps_the_message_and_consumes_the_request() {
    let mut receiver = rank_with_buffered_message();
    let world = receiver.world().unwrap();
    let byte = receiver
        .constant(PredefinedObject::Datatype(PrimitiveType::Byte))
        .unwrap();

    let before = receiver.descriptor_count();
    let request = receiver.irecv(byte, 4, 0, 7, world).unwrap();
    let err = receiver.wait(request).unwrap_err();
    assert!(matches!(err, MpiError::Truncate { .. }));
    assert_eq!(
        receiver.descriptor_count(),
        before,
        "a failed wait must not leak the request descriptor"
    );
    assert_eq!(
        receiver.buffered_messages(),
        1,
        "the drained message survives the truncated wait"
    );

    // A fresh request with a big enough buffer completes and delivers the payload.
    let request = receiver.irecv(byte, 64, 0, 7, world).unwrap();
    let (status, payload) = receiver.wait(request).unwrap();
    assert_eq!(payload.unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(status.count_bytes, 8);
    assert_eq!(receiver.descriptor_count(), before);
}

#[test]
fn failing_wait_releases_the_request_descriptor() {
    let ranks = launch_mana(2);
    let results = run_world(ranks, |rank_index, mut rank: ManaRank| {
        let world = rank.world().unwrap();
        let byte = rank
            .constant(PredefinedObject::Datatype(PrimitiveType::Byte))
            .unwrap();
        if rank_index == 0 {
            // An 8-byte message the receiver's request cannot hold: the lower-half
            // receive inside `wait` fails with MPI_ERR_TRUNCATE, and before the fix
            // the `?` early-return skipped the descriptor removal.
            rank.send(&[7; 8], byte, 1, 11, world).unwrap();
            return Ok(0);
        }
        let before = rank.descriptor_count();
        let request = rank.irecv(byte, 4, 0, 11, world).unwrap();
        assert_eq!(rank.descriptor_count(), before + 1);
        let err = rank.wait(request).unwrap_err();
        assert!(matches!(err, MpiError::Truncate { .. }));
        assert_eq!(
            rank.descriptor_count(),
            before,
            "a failed wait must remove the request descriptor"
        );
        Ok(1)
    })
    .unwrap();
    assert_eq!(results, vec![0, 1]);
}

#[test]
fn failing_test_releases_the_request_descriptor() {
    let ranks = launch_mana(2);
    let results = run_world(ranks, |rank_index, mut rank: ManaRank| {
        let world = rank.world().unwrap();
        let byte = rank
            .constant(PredefinedObject::Datatype(PrimitiveType::Byte))
            .unwrap();
        if rank_index == 0 {
            // An 8-byte message the receiver's request cannot hold.
            rank.send(&[9; 8], byte, 1, 3, world).unwrap();
            return Ok(0);
        }
        let before = rank.descriptor_count();
        let request = rank.irecv(byte, 4, 0, 3, world).unwrap();
        // Poll until the message arrives; the completion attempt then fails with
        // MPI_ERR_TRUNCATE coming from the lower half.
        let error = loop {
            match rank.test(request) {
                Ok(None) => std::thread::yield_now(),
                Ok(Some(_)) => panic!("an oversized message must not complete the request"),
                Err(error) => break error,
            }
        };
        assert!(matches!(error, MpiError::Truncate { .. }));
        assert_eq!(
            rank.descriptor_count(),
            before,
            "a failed test must remove the request descriptor"
        );
        Ok(1)
    })
    .unwrap();
    assert_eq!(results, vec![0, 1]);
}

#[test]
fn pending_test_keeps_the_request_retryable() {
    let mut ranks = launch_mana(1);
    let mut rank = ranks.remove(0);
    let world = rank.world().unwrap();
    let byte = rank
        .constant(PredefinedObject::Datatype(PrimitiveType::Byte))
        .unwrap();

    let before = rank.descriptor_count();
    let request = rank.irecv(byte, 16, 0, 0, world).unwrap();
    assert!(rank.test(request).unwrap().is_none(), "nothing sent yet");
    assert_eq!(
        rank.descriptor_count(),
        before + 1,
        "a still-pending request stays live after a test"
    );
    // Satisfy it so the world shuts down clean.
    rank.send(&[1], byte, 0, 0, world).unwrap();
    let completed = rank.wait(request).unwrap();
    assert_eq!(completed.1.unwrap(), vec![1]);
    assert_eq!(rank.descriptor_count(), before);
}

/// An intercept that never raises an intent: it only switches the rank's collectives
/// onto the registration round.
struct SilentIntercept;

impl CheckpointIntercept for SilentIntercept {
    fn intent_pending(&self) -> bool {
        false
    }

    fn service(&self, _rank: &mut ManaRank) -> MpiResult<IntentOutcome> {
        // Never called: no intent is ever pending.
        Ok(IntentOutcome::Continue)
    }
}

/// The crossings of one `u64` sum allreduce over `world` on a one-rank world.
fn one_rank_allreduce_crossings(intercept: bool) -> u64 {
    let mut rank = launch_mana(1).remove(0);
    if intercept {
        rank.set_intercept(Arc::new(SilentIntercept));
    }
    let world = rank.world().unwrap();
    let unsigned_long = rank
        .constant(PredefinedObject::Datatype(PrimitiveType::UnsignedLong))
        .unwrap();
    let sum = rank
        .constant(PredefinedObject::Op(PredefinedOp::Sum))
        .unwrap();
    let before = rank.crossings();
    let total = rank
        .allreduce(&7u64.to_le_bytes(), unsigned_long, sum, world)
        .unwrap();
    assert_eq!(total, 7u64.to_le_bytes());
    rank.crossings() - before
}

/// With an intercept installed, a collective runs the registration round. On a
/// one-rank world every registration commits its own round, so the collective is
/// exactly two crossings: the registration and the collective itself. Nothing waits,
/// and nothing is polled.
#[test]
fn a_one_rank_allreduce_crosses_into_the_lower_half_exactly_twice() {
    assert_eq!(
        one_rank_allreduce_crossings(true),
        2,
        "register, then the allreduce"
    );
}

/// Without an intercept no intent can be serviced inside the collective, so there is
/// no registration round: the collective is exactly one crossing.
#[test]
fn a_one_rank_allreduce_without_an_intercept_crosses_exactly_once() {
    assert_eq!(
        one_rank_allreduce_crossings(false),
        1,
        "the allreduce alone"
    );
}

/// What one rank of [`run_collectives`] saw: each collective's result bytes (empty
/// for a barrier) and the crossings it cost, in call order.
type CollectiveRun = Vec<(Vec<u8>, u64)>;

/// Allreduce, alltoall, bcast and barrier, first on world and then on a `comm_dup`
/// of it, on a two-rank world, with or without an intercept on every rank.
fn run_collectives(intercept: bool) -> Vec<CollectiveRun> {
    run_world(launch_mana(2), move |index, mut rank: ManaRank| {
        if intercept {
            rank.set_intercept(Arc::new(SilentIntercept));
        }
        let me = index as u64;
        let unsigned_long =
            rank.constant(PredefinedObject::Datatype(PrimitiveType::UnsignedLong))?;
        let sum = rank.constant(PredefinedObject::Op(PredefinedOp::Sum))?;
        let world = rank.world()?;
        let dup = rank.comm_dup(world)?;
        let mut run = CollectiveRun::new();
        for comm in [world, dup] {
            let before = rank.crossings();
            let total = rank.allreduce(&(me * 7 + 3).to_le_bytes(), unsigned_long, sum, comm)?;
            run.push((total, rank.crossings() - before));

            let blocks: Vec<u8> = (0..2u8).flat_map(|to| [index as u8, to, 0xa5]).collect();
            let before = rank.crossings();
            let exchanged = rank.alltoall(&blocks, 3, comm)?;
            run.push((exchanged, rank.crossings() - before));

            let mut buf = if index == 1 {
                vec![9, 8, 7, 6]
            } else {
                Vec::new()
            };
            let before = rank.crossings();
            rank.bcast(&mut buf, 1, comm)?;
            run.push((buf, rank.crossings() - before));

            let before = rank.crossings();
            rank.barrier(comm)?;
            run.push((Vec::new(), rank.crossings() - before));
        }
        Ok(run)
    })
    .unwrap()
}

/// The registration round changes what a collective costs, never what it computes:
/// the same collectives give bit-identical results with and without an intercept,
/// cost exactly one crossing each without one, and at least two with one (a
/// registrant parked for its peer comes back every intent-patience slice to look
/// for an intent, and crosses again each time).
#[test]
fn collectives_give_the_same_bytes_with_and_without_the_registration_round() {
    let direct = run_collectives(false);
    let registered = run_collectives(true);
    for (rank, (direct, registered)) in std::iter::zip(&direct, &registered).enumerate() {
        assert_eq!(direct.len(), 8, "rank {rank}");
        let results = |run: &CollectiveRun| {
            run.iter()
                .map(|(bytes, _)| bytes.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(results(direct), results(registered), "rank {rank}");
        for (call, ((_, without), (_, with))) in std::iter::zip(direct, registered).enumerate() {
            assert_eq!(
                *without, 1,
                "rank {rank}, call {call}: without an intercept"
            );
            assert!(
                *with >= 2,
                "rank {rank}, call {call}: with an intercept, {with}"
            );
        }
    }
    // The results are the collectives' own, not merely equal between the runs.
    let total = (0..2u64).map(|me| me * 7 + 3).sum::<u64>();
    assert_eq!(direct[0][0].0, total.to_le_bytes());
    assert_eq!(direct[1][1].0, vec![0, 1, 0xa5, 1, 1, 0xa5]);
    assert_eq!(direct[0][6].0, vec![9, 8, 7, 6]);
}
