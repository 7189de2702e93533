//! # ckpt-service
//!
//! The multi-tenant checkpoint service now lives in `ckpt-store`, beside the store
//! whose catalog it meters. This crate only re-exports the names the repo benchmark
//! imports from it; workspace crates depend on `ckpt-store` directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ckpt_store::{CkptService, ServiceConfig, ServiceHandle, TenantQuota};
