//! # mpi-engine
//!
//! The simulated MPI implementations: one engine, four personalities.
//!
//! The paper's analysis (§3) is that MPI implementations differ, from MANA's point of
//! view, in three externally visible ways:
//!
//! 1. **Handle representation** — 32-bit two-level-table integers (MPICH family),
//!    64-bit struct pointers (Open MPI), enum discriminants plus lazy shared pointers
//!    (ExaMPI).
//! 2. **Global-constant resolution** — compile-time integers vs. startup-resolved
//!    pointers vs. lazily-materialized pointers (§4.3).
//! 3. **Feature coverage** — full MPI-3 versus an experimental subset (§5).
//!
//! What they do *not* differ in — the message-matching rules, collective semantics,
//! communicator/group algebra — is standardized by MPI itself. The [`Engine`]
//! implements that standardized behaviour once, generically over a
//! [`codec::HandleCodec`], and [`personality`] supplies the differences as data: one
//! [`Backend`] row per implementation plus one codec per handle representation. So the
//! backends differ exactly where real implementations differ, and MANA can be tested
//! against genuinely different handle/constant regimes without triplicating the MPI
//! semantics. (The real systems of course also differ internally; those differences are
//! invisible through the `mpi.h` boundary that MANA — and this reproduction — operate
//! at. See DESIGN.md, "Substitutions".)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod engine;
pub mod factory;
pub mod objects;
pub mod personality;
pub mod store;

#[cfg(test)]
mod tests;

pub use codec::HandleCodec;
pub use engine::{Engine, EngineConfig};
pub use personality::Backend;
