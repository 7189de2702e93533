//! # mpi-model
//!
//! A shared model of MPI semantics used by every simulated MPI implementation in this
//! workspace, and by the MANA wrapper layer that sits on top of them.
//!
//! The real MANA system ("Implementation-Oblivious Transparent Checkpoint-Restart for
//! MPI", SC 2023) interposes on the `mpi.h` C API of a production MPI library. In this
//! reproduction the `mpi.h` contract is expressed as the [`api::MpiApi`] trait: every
//! simulated implementation (the `mpi-engine` personalities) implements it,
//! and MANA's wrapper layer only ever talks to the lower half through it. The trait
//! deliberately deals in *physical handles* ([`types::PhysHandle`]) whose bit-level
//! meaning is private to each implementation, exactly as the integer handles of the
//! MPICH family and the struct pointers of Open MPI are opaque to an application.
//!
//! The crate also contains the *semantic* building blocks that any standards-compliant
//! implementation needs and that MANA must be able to reconstruct at restart time:
//!
//! * [`datatype`] — primitive and derived datatype descriptors, including the
//!   `MPI_Type_get_envelope` / `MPI_Type_get_contents` decode surface (paper §5,
//!   category 2).
//! * [`group`] — process groups and rank translation.
//! * [`comm`] — communicator semantics (context ids, split/dup bookkeeping).
//! * [`op`] — reduction operations, predefined and user-defined.
//! * [`request`] / [`status`] — non-blocking request lifecycle and message statuses.
//! * [`constants`] — the predefined objects (MPI_COMM_WORLD, MPI_INT, MPI_SUM, ...)
//!   together with the *resolution policy* each implementation family uses for them
//!   (compile-time integers vs. startup-resolved pointers vs. lazy shared pointers),
//!   which is the crux of paper §4.3.
//! * [`subset`] — the minimal MPI subset MANA requires from an implementation
//!   (paper §5), as an auditable feature list.
//! * [`payload`] — the refcounted immutable [`payload::PayloadBuf`] every layer of
//!   the messaging stack shares instead of copying `Vec<u8>` payloads.
//! * [`typed`] — the [`typed::MpiData`] mapping from Rust element types onto
//!   datatype descriptors/envelopes and wire bytes, which the typed session layer
//!   (`mana::api`) builds its misuse-resistant generic API on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod buffer;
pub mod comm;
pub mod constants;
pub mod datatype;
pub mod error;
pub mod group;
pub mod op;
pub mod payload;
pub mod request;
pub mod status;
pub mod subset;
pub mod typed;
pub mod types;

pub use api::MpiApi;
pub use constants::{ConstantResolution, PredefinedObject};
pub use datatype::{PrimitiveType, TypeCombiner, TypeContents, TypeDescriptor, TypeEnvelope};
pub use error::{MpiError, MpiResult};
pub use group::GroupDescriptor;
pub use op::{OpDescriptor, PredefinedOp};
pub use payload::PayloadBuf;
pub use status::Status;
pub use subset::{SubsetFeature, REQUIRED_SUBSET};
pub use typed::{DoubleInt, MpiData};
pub use types::{HandleKind, PhysHandle, Rank, Tag, ANY_SOURCE, ANY_TAG};
