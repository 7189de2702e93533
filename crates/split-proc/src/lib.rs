//! # split-proc
//!
//! A simulation of MANA's split-process architecture (paper §2.2, Figure 1).
//!
//! In the real system two programs are loaded into one Linux address space: the *upper
//! half* is the MPI application plus the MANA library, and the *lower half* is a small
//! helper program containing the actual MPI library, the network libraries and their
//! kernel/driver state. Checkpointing saves only the upper half; restart launches a
//! fresh lower half and maps the saved upper half back into place. Every MPI call made
//! by the application crosses from the upper half to the lower half and back, and on
//! x86-64 each crossing must switch the `fs` segment register — cheaply with the
//! userspace FSGSBASE instructions on modern kernels, or expensively with a
//! `prctl(ARCH_SET_FS, ...)` system call on older kernels (paper §6, §6.3, §6.4).
//!
//! This crate models those mechanics without `unsafe` process surgery:
//!
//! * [`address_space`] — the upper half as a set of named memory regions that can be
//!   serialized into, and restored from, a checkpoint image.
//! * [`image`] — the checkpoint image format (binary, self-describing) and its
//!   round-trip encoding.
//! * [`crossing`] — the upper↔lower crossing counter and cost model (FSGSBASE vs
//!   `prctl`), which is what turns "MPI calls per second" into the runtime overheads of
//!   Figures 2-4.
//! * [`integrity`] — CRC-32 and XXH64 digests shared by the image format and
//!   the `ckpt-store` incremental storage engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address_space;
pub mod crossing;
pub mod image;
pub mod integrity;

pub use address_space::UpperHalfSpace;
pub use crossing::{CrossingCounter, CrossingMode, CrossingProfile};
pub use image::CheckpointImage;
