//! # mana
//!
//! A Rust reproduction of MANA's *implementation-oblivious* transparent
//! checkpoint-restart layer for MPI ("Implementation-Oblivious Transparent
//! Checkpoint-Restart for MPI", SC 2023).
//!
//! The crate sits between an MPI application (the proxy mini-apps in `mana-apps`, the
//! examples, or your own code written against [`runtime::ManaRank`]) and *any*
//! simulated MPI implementation that satisfies the required subset of paper §5
//! (the four `mpi_engine::Backend` personalities). It provides:
//!
//! * **Wrapper (stub) functions** for the MPI calls the application makes
//!   ([`wrappers`]): each call translates application-visible *virtual ids* into the
//!   lower half's *physical handles*, forwards to the lower half, and translates
//!   results back — counting one upper↔lower crossing per forwarded call.
//! * **The new virtual-id subsystem** ([`virtid`]): a single unified table of
//!   descriptors indexed by a 32-bit id that encodes the object kind, a predefined
//!   flag, and a ggid/index — the design of paper §4.2 — able to stand in for `int`
//!   handles, 64-bit pointer handles, and lazily-resolved constants alike.
//! * **The legacy baseline** ([`legacy`]): per-type, string-keyed associative maps with
//!   separate metadata side-tables, reproducing the pre-paper production design and its
//!   documented drawbacks (paper §4.1) so the benchmarks can compare the two.
//! * **Transparent checkpoint** ([`ckpt`]): a cooperative, collective checkpoint that
//!   drains in-flight point-to-point traffic using only `MPI_Iprobe`/`MPI_Recv`/
//!   `MPI_Test`/`MPI_Alltoall` (§5 categories 1 and 3), then serializes the upper half
//!   (application regions + MANA descriptors + drained-message buffer) into a
//!   [`split_proc::CheckpointImage`].
//! * **Restart** ([`restart`]): binds one rank's checkpointed state to a fresh lower
//!   half (same or *different* MPI implementation), re-resolves every global
//!   constant, replays the recorded object-creation log to build semantically
//!   equivalent communicators, groups, datatypes and ops, and rebinds the
//!   descriptors' physical handles — leaving every virtual id the application holds
//!   in its own memory valid. The job-level restart engine that drives it lives in
//!   `crates/elastic`.
//! * **MPI-subset auditing** (`subset_check`): verifies that a candidate lower half
//!   provides the three categories of functions MANA needs (§5).
//! * **The typed session layer** ([`api`]): [`api::Session`] and the typed handles
//!   ([`api::Comm`], [`api::Datatype`], [`api::Op`], [`api::Request`]) — the
//!   misuse-resistant, marshalling-free API applications program against, layered
//!   *above* (never replacing) the byte-faithful wrappers the paper's protocol
//!   requires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod ckpt;
pub mod config;
pub mod legacy;
pub mod record;
pub mod restart;
pub mod runtime;
pub(crate) mod subset_check;
pub mod virtid;
pub mod wrappers;

pub use api::{Comm, Datatype, Group, Op, Request, Session};
pub use ckpt::{CheckpointIntercept, DrainObserver, DrainPlan, IntentOutcome, LocalDrainObserver};
pub use config::{ManaConfig, StoragePolicy, VirtIdMode};
pub use record::{CollectiveKind, CollectiveLog, CollectiveRecord};
pub use restart::{assemble_rank, dismantle_image, RestoredUpper};
pub use runtime::{AppHandle, ManaRank};
pub use subset_check::ManaCompatibility;
pub use virtid::{Descriptor, VirtualId, VirtualIdTable};
