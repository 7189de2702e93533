//! Per-tenant quotas and the pluggable GC policy that enforces them.
//!
//! Quotas are expressed over a tenant's **committed** generations; a policy decides
//! which of them to reclaim by returning a prune cutoff. Whatever the policy says,
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
    pub max_logical_bytes: Option<u64>,
    /// Maximum number of committed generations retained, or `None` for unlimited.
    pub max_generations: Option<usize>,
    /// Maximum checkpoint submissions this tenant may have in flight on the shared
    /// flusher pool at once; further submissions are rejected with a typed,
    /// retryable error (the submitter falls back to a synchronous write).
    pub max_in_flight: usize,
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

/// What a GC policy sees when deciding what to reclaim for one tenant.
#[derive(Debug, Clone)]
pub struct TenantUsage {
    /// The tenant's quota.
    pub quota: TenantQuota,
    /// The tenant's committed generations, ascending, each with the logical bytes
    /// it holds (summed across ranks).
    pub generations: Vec<(u64, u64)>,
}

impl TenantUsage {
    /// Total logical bytes across the committed generations.
    pub fn live_logical_bytes(&self) -> u64 {
        self.generations.iter().map(|(_, bytes)| bytes).sum()
    }

    /// Whether the usage exceeds either quota axis.
    pub(crate) fn over_quota(&self) -> bool {
        let over_bytes = self
            .quota
            .max_logical_bytes
            .is_some_and(|limit| self.live_logical_bytes() > limit);
        let over_count = self
            .quota
            .max_generations
            .is_some_and(|limit| self.generations.len() > limit);
        over_bytes || over_count
    }
}

/// Decides which of an over-quota tenant's committed generations to reclaim.
///
/// A policy returns a prune cutoff: every committed generation strictly below it is
/// a reclaim candidate. The store itself enforces the safety floor — the newest
/// committed generation and anything pending survive any cutoff — so a policy
/// cannot destroy a tenant's restart point even if it tries.
pub trait GcPolicy: Send + Sync {
    /// The cutoff to prune below, or `None` to reclaim nothing.
    fn reclaim_cutoff(&self, usage: &TenantUsage) -> Option<u64>;
}

/// The default policy: drop the tenant's **oldest** committed generations, one by
/// one, until the tenant is back under both quota axes — never touching the newest
/// committed generation, however far over quota the tenant is.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReclaimOldest;

impl GcPolicy for ReclaimOldest {
    fn reclaim_cutoff(&self, usage: &TenantUsage) -> Option<u64> {
        if !usage.over_quota() || usage.generations.len() <= 1 {
            return None;
        }
        let mut live_bytes = usage.live_logical_bytes();
        let mut live_count = usage.generations.len();
        let mut cutoff = None;
        // The newest committed generation is excluded outright: even if dropping
        // everything else leaves the tenant over quota, the restart point stays.
        for (generation, bytes) in &usage.generations[..usage.generations.len() - 1] {
            let over_bytes = usage
                .quota
                .max_logical_bytes
                .is_some_and(|limit| live_bytes > limit);
            let over_count = usage
                .quota
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(quota: TenantQuota, generations: &[(u64, u64)]) -> TenantUsage {
        TenantUsage {
            quota,
            generations: generations.to_vec(),
        }
    }

    #[test]
    fn under_quota_reclaims_nothing() {
        let policy = ReclaimOldest;
        let quota = TenantQuota::default().with_max_generations(3);
        assert_eq!(
            policy.reclaim_cutoff(&usage(quota, &[(1, 10), (2, 10)])),
            None
        );
    }

    #[test]
    fn generation_count_quota_drops_oldest_first() {
        let policy = ReclaimOldest;
        let quota = TenantQuota::default().with_max_generations(2);
        let cutoff = policy.reclaim_cutoff(&usage(quota, &[(1, 10), (2, 10), (3, 10), (4, 10)]));
        assert_eq!(cutoff, Some(3), "drop generations 1 and 2, keep 3 and 4");
    }

    #[test]
    fn byte_quota_never_claims_the_newest_generation() {
        let policy = ReclaimOldest;
        let quota = TenantQuota::default().with_max_logical_bytes(5);
        // Even the newest generation alone exceeds the quota: the policy still
        // stops short of it.
        let cutoff = policy.reclaim_cutoff(&usage(quota, &[(1, 10), (2, 10), (3, 10)]));
        assert_eq!(cutoff, Some(3), "generations 1 and 2 go, 3 survives");
    }

    #[test]
    fn single_generation_is_untouchable() {
        let policy = ReclaimOldest;
        let quota = TenantQuota::default().with_max_logical_bytes(1);
        assert_eq!(policy.reclaim_cutoff(&usage(quota, &[(7, 100)])), None);
    }
}
