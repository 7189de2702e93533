//! The lock-order analyzer for this workspace (`cargo run -p analyzer --
//! lock-graph DIR`).
//!
//! It merges the per-process dumps recorded by the instrumented `parking_lot` shim
//! (`MANA_LOCK_ORDER_DIR=... cargo test`), builds the global lock-order graph,
//! detects cycles, and writes `LOCK_graph.json` with named construction sites. The
//! same dumps carry the shim's held-across-block findings: a traced lock still
//! held when its thread parked on a condvar or slept through
//! `net_sim::clock::sleep`. Any cycle or finding fails the run.
//!
//! The repo's static rules (no panics in library code, time only through
//! `net_sim::clock`, no unnamed payload copies, every exemption an `#[expect]` with
//! a reason) are clippy configuration: `[workspace.lints.clippy]` in the root
//! `Cargo.toml` and `clippy.toml`.

pub mod lockgraph;

pub use lockgraph::{LockGraph, LockGraphReport, LockOrderDump};
