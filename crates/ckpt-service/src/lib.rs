//! # ckpt-service
//!
//! A multi-tenant checkpoint service over the `ckpt-store` engine: many concurrent
//! jobs checkpoint into one shared, content-addressed chunk space.
//!
//! The paper's runtime assumes one job writing to one store; a production fleet has
//! hundreds of jobs checkpointing into shared capacity. This crate adds the service
//! layer that makes that safe and cheap:
//!
//! * **Cross-job dedup** — each tenant writes generations into its own catalog
//!   namespace ([`CheckpointStorage::tenant_view`]), but chunks are content-addressed
//!   in one shared, ref-counted space: two jobs running the same app store identical
//!   chunks once, and the saving is accounted per tenant ([`TenantStats`]).
//! * **Quotas + GC** — per-tenant logical-byte and generation-count caps
//!   ([`TenantQuota`]), enforced by reclaiming a tenant's **oldest** committed
//!   generations after every landed write; GC never touches its newest committed
//!   one — the store's own `prune_before` floor guarantees it.
//! * **Admission control** — a shared [`FlusherPool`](ckpt_store::FlusherPool) with
//!   a total in-flight cap and per-tenant in-flight budgets; a rejected submission
//!   returns a typed, retryable [`AdmissionError`] *with the image handed back*, so
//!   the job can fall back to a synchronous write instead of skipping a checkpoint.
//!   This is the only route into storage: every job is a tenant from construction,
//!   and a job without a shared service is the sole tenant of a private one
//!   ([`CkptService::sole_tenant`]), which writes the job's own store. Its
//!   synchronous writes are metered like any tenant's, and its pool spawns no
//!   thread until the job flushes asynchronously.
//! * **Disk tiering** — when the hot set outgrows its target, least-recently-
//!   referenced chunks spill to a tempdir-rooted cold tier and are CRC-revalidated
//!   on promote, transparently to reads and restart.
//!
//! [`CheckpointStorage::tenant_view`]: ckpt_store::CheckpointStorage::tenant_view

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod gc;
pub mod service;

pub use gc::TenantQuota;
pub use service::{
    AdmissionError, CkptService, RejectedSubmission, ServiceConfig, ServiceHandle, ServiceStats,
    TenantId, TenantStats,
};
