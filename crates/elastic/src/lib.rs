//! # elastic
//!
//! The one restart engine of the MANA reproduction: restore a checkpoint generation
//! taken by an `N`-rank world onto `M` fresh ranks — the same size (`M == N`, the
//! identity map, which moves no state), shrinking (`M < N`, e.g. after unhealed
//! node loss) or growing (`M > N`).
//!
//! The subsystem has three layers:
//!
//! * [`RankMap`] (`rankmap`) — the explicit old-rank→new-rank assignment
//!   ([`RemapPolicy::Block`], [`RemapPolicy::RoundRobin`], or custom), with the
//!   hosted/primary/new-rank queries both other layers share.
//! * The restore engine ([`restore`]) — [`restart_job`] / [`restart_job_from_storage`]
//!   dismantle every image of a generation, rewrite virtual-id memberships, replay
//!   logs, collective ledgers and drain counters through a non-identity map,
//!   synthesize state for fresh ranks, and reassemble each new rank via MANA's
//!   standard record-replay restart.
//! * [`Repartition`] ([`repartition`]) — the application hook that redistributes
//!   domain state: each new rank ingests the state slices of the old ranks mapped
//!   onto it. [`NoRepartition`] is the explicit no-op.
//!
//! Derived communicators survive a real resize only when they are
//! *world-equivalent* (a dup of world, a `comm_create` over the full membership);
//! proper-subset communicators are either consumed (dropped everywhere, when the
//! application's [`Repartition::consumes_derived_comms`] promises to rebuild them)
//! or rejected with a typed [`MpiError::ElasticResize`](mpi_model::error::MpiError)
//! error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod rankmap;
pub mod repartition;
pub mod restore;

pub use rankmap::{RankMap, RemapPolicy};
pub use repartition::{NoRepartition, Repartition};
pub use restore::{restart_job, restart_job_from_storage};
