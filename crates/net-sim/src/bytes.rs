//! The fabric's payload buffer: a re-export of [`mpi_model::payload::PayloadBuf`]
//! plus the sharing-semantics tests that pin down what "zero-copy" means here.
//!
//! The type itself lives in `mpi-model` because the [`mpi_model::api::MpiApi`]
//! contract speaks it (and `net-sim` depends on `mpi-model`, so defining it there is
//! the only cycle-free home). Fabric code imports it from this module: the fabric's
//! sharing discipline — one allocation per injected payload, refcounts bumped at
//! every mailbox deposit, retransmit and collective fan-out — is a `net-sim`
//! property, and this is where it is specified and tested.
//!
//! Sharing discipline:
//!
//! * [`Endpoint::send`](crate::fabric::Endpoint::send) takes the payload by value as
//!   a [`PayloadBuf`]; injection never copies one. (Handing it a `Vec<u8>` converts
//!   first, and that conversion is a copy — see [`PayloadBuf::from_vec`].)
//! * A chaos hold (delay, reorder, drop-then-retransmit) moves the envelope; the
//!   re-delivered envelope references the same allocation as the injected one.
//! * A collective result is an `Arc<Vec<PayloadBuf>>`; all `N` readers receive
//!   refcount bumps of the same `N` contribution buffers.
//! * `FabricStats` counts `bytes_shared` (refcount
//!   bumps observed at fan-out/redelivery) against `bytes_copied` (genuine
//!   materializations), so "the fabric reshares" is a measured claim.

pub use mpi_model::payload::PayloadBuf;

#[cfg(test)]
mod tests {
    use super::PayloadBuf;
    use crate::fabric::{Fabric, FabricConfig};
    use crate::message::{Envelope, MatchSpec};

    #[test]
    fn envelope_clone_shares_the_payload_allocation() {
        let env = Envelope {
            source_world: 0,
            source_comm_rank: 0,
            dest_world: 1,
            context: 1,
            tag: 0,
            seq: 0,
            pair_seq: 0,
            payload: PayloadBuf::from_vec(vec![1, 2, 3, 4]),
        };
        let cloned = env.clone();
        assert!(env.payload.shares_allocation_with(&cloned.payload));
    }

    #[test]
    fn delivered_payload_shares_the_senders_allocation() {
        let fabric = Fabric::new(FabricConfig::new(2, 7));
        let e0 = fabric.endpoint(0).unwrap();
        let e1 = fabric.endpoint(1).unwrap();
        let payload = PayloadBuf::from_vec(vec![0xAB; 64]);
        let sent = payload.clone();
        e0.send(1, 0, 1, 5, payload).unwrap();
        let env = e1
            .recv_blocking(&MatchSpec::from_mpi_args(1, 0, 5))
            .unwrap();
        assert!(
            env.payload.shares_allocation_with(&sent),
            "the mailbox must deposit the sender's buffer, not a copy"
        );
    }

    #[test]
    fn slicing_a_received_payload_is_zero_copy() {
        let fabric = Fabric::new(FabricConfig::new(2, 7));
        let e0 = fabric.endpoint(0).unwrap();
        let e1 = fabric.endpoint(1).unwrap();
        e0.send(1, 0, 1, 0, PayloadBuf::from_vec((0..32).collect()))
            .unwrap();
        let env = e1
            .recv_blocking(&MatchSpec::from_mpi_args(1, 0, 0))
            .unwrap();
        let tail = env.payload.slice(16..32);
        assert!(tail.shares_allocation_with(&env.payload));
        assert_eq!(&tail[..], &(16..32).collect::<Vec<u8>>()[..]);
    }
}
