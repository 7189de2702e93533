//! Per-tenant quotas and the reclaim rule that enforces them.
//!
//! Quotas are expressed over a tenant's **committed** generations; the service
//! reclaims the oldest of them by pruning below a cutoff. Whatever the cutoff,
//! the store's [`prune_before`](ckpt_store::CheckpointStorage::prune_before)
//! guarantees still hold: a tenant's newest committed generation (its only restart
//! point) and any pending generation are never reclaimed.

/// Limits applied to one tenant of a [`CkptService`](crate::CkptService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum **logical** bytes across the tenant's committed generations, or
    /// `None` for unlimited. Logical bytes (the uncompressed upper-half payload
    /// size) are what the tenant observes, independent of how well its chunks
    /// dedup or compress — physical accounting would let one tenant's quota hinge
    /// on what *other* tenants happen to have written.
    pub(crate) max_logical_bytes: Option<u64>,
    /// Maximum number of committed generations retained, or `None` for unlimited.
    pub(crate) max_generations: Option<usize>,
    /// Maximum checkpoint submissions this tenant may have in flight on the shared
    /// flusher pool at once; further submissions are rejected with a typed,
    /// retryable error (the submitter falls back to a synchronous write).
    pub(crate) max_in_flight: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_logical_bytes: None,
            max_generations: None,
            max_in_flight: 2,
        }
    }
}

impl TenantQuota {
    /// An unlimited quota (the default) with the given in-flight budget.
    pub fn with_max_in_flight(mut self, budget: usize) -> Self {
        self.max_in_flight = budget.max(1);
        self
    }

    /// Cap the tenant's committed logical bytes.
    pub fn with_max_logical_bytes(mut self, bytes: u64) -> Self {
        self.max_logical_bytes = Some(bytes);
        self
    }

    /// Cap the tenant's committed generation count.
    pub fn with_max_generations(mut self, generations: usize) -> Self {
        self.max_generations = Some(generations.max(1));
        self
    }
}

/// The prune cutoff that brings a tenant back under `quota`: every committed
/// generation strictly below it is reclaimed, oldest first, one by one, until the
/// tenant is under both quota axes — `None` to reclaim nothing. `generations` are
/// the tenant's committed generations, ascending, each with the logical bytes it
/// holds (summed across ranks). The newest committed generation is never a
/// candidate, however far over quota the tenant is; the store enforces the same
/// floor (the newest committed generation and anything pending survive any
/// cutoff).
pub(crate) fn reclaim_cutoff(quota: &TenantQuota, generations: &[(u64, u64)]) -> Option<u64> {
    let mut live_bytes: u64 = generations.iter().map(|(_, bytes)| bytes).sum();
    let mut live_count = generations.len();
    let mut cutoff = None;
    // The newest committed generation is excluded outright: even if dropping
    // everything else leaves the tenant over quota, the restart point stays.
    for (generation, bytes) in &generations[..live_count.saturating_sub(1)] {
        let over_bytes = quota
            .max_logical_bytes
            .is_some_and(|limit| live_bytes > limit);
        let over_count = quota
            .max_generations
            .is_some_and(|limit| live_count > limit);
        if !over_bytes && !over_count {
            break;
        }
        live_bytes -= bytes;
        live_count -= 1;
        cutoff = Some(generation + 1);
    }
    cutoff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_quota_reclaims_nothing() {
        let quota = TenantQuota::default().with_max_generations(3);
        assert_eq!(reclaim_cutoff(&quota, &[(1, 10), (2, 10)]), None);
    }

    #[test]
    fn generation_count_quota_drops_oldest_first() {
        let quota = TenantQuota::default().with_max_generations(2);
        let cutoff = reclaim_cutoff(&quota, &[(1, 10), (2, 10), (3, 10), (4, 10)]);
        assert_eq!(cutoff, Some(3), "drop generations 1 and 2, keep 3 and 4");
    }

    #[test]
    fn byte_quota_never_claims_the_newest_generation() {
        let quota = TenantQuota::default().with_max_logical_bytes(5);
        // Even the newest generation alone exceeds the quota: the cutoff still
        // stops short of it.
        let cutoff = reclaim_cutoff(&quota, &[(1, 10), (2, 10), (3, 10)]);
        assert_eq!(cutoff, Some(3), "generations 1 and 2 go, 3 survives");
    }

    #[test]
    fn single_generation_is_untouchable() {
        let quota = TenantQuota::default().with_max_logical_bytes(1);
        assert_eq!(reclaim_cutoff(&quota, &[(7, 100)]), None);
    }
}
