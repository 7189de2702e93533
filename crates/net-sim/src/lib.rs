//! # net-sim
//!
//! A simulated interconnect fabric standing in for the network stack (TCP, InfiniBand,
//! Slingshot, ...) underneath the simulated MPI implementations.
//!
//! The fabric exists for two reasons that mirror the paper:
//!
//! 1. **It is what the lower half talks to.** Every simulated MPI implementation
//!    (the `mpi-engine` personalities) moves bytes exclusively through a
//!    [`fabric::Endpoint`], so the MANA layer above them never needs network-specific
//!    knowledge — the "Network-Agnostic" half of MANA's design.
//! 2. **It holds state that cannot be checkpointed.** Messages that have been injected
//!    but not yet received live inside the fabric mailboxes, and each fabric instance
//!    carries a per-session nonce modelling NIC/switch hardware state. A checkpoint
//!    that naively saved and restored this state would be incorrect; MANA's answer —
//!    drain in-flight point-to-point traffic *through MPI calls* before checkpointing,
//!    and rebuild the lower half from scratch at restart — is exercised against exactly
//!    this structure.
//!
//! The fabric is deliberately synchronous and in-memory: ranks are threads, a send
//! deposits an envelope in the destination's mailbox (eager protocol), and a blocking
//! receive parks the calling thread on a condition variable until a matching envelope
//! arrives. Collectives use a generation-counted exchange slot keyed by communication
//! context, giving the same rendezvous semantics a real implementation builds from
//! point-to-point or hardware collectives.
//!
//! The [`chaos`] module adds a third reason to exist: seeded fault injection. A
//! [`ChaosPlan`] installed on a fabric can delay, drop or reorder messages (masked by
//! per-pair sequencing and the mailbox re-sequencing lane), partition rank sets, and
//! kill ranks or whole nodes (detected through the fabric's heartbeat lane). This is
//! what the self-healing orchestrator in `job-runtime` is exercised against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod chaos;
pub mod clock;
pub mod fabric;
pub mod mailbox;
pub mod message;
pub mod stats;

pub use bytes::PayloadBuf;
pub use chaos::{ChaosMenu, ChaosPlan, FaultKind, SplitMix64};
pub use fabric::{Endpoint, Fabric, FabricConfig};
pub use message::{Envelope, MatchSpec};
