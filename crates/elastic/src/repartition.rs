//! The application-side half of an elastic restart.
//!
//! The restart engine can rewrite MANA's own state (virtual-id tables, drain
//! counters, replay logs) through the [`RankMap`], but it cannot know
//! how the *application's* domain state is partitioned. The [`Repartition`] trait is
//! the hook an application implements so its state follows the map: each new rank
//! ingests the state slices of the old ranks mapped onto it.

use crate::rankmap::RankMap;
use mpi_model::error::MpiResult;
use mpi_model::types::Rank;
use split_proc::address_space::UpperHalfSpace;

/// Redistributes application domain state across a resized world.
///
/// Called once per new rank during a resized restart — never under the identity
/// map, which moves no state — after MANA's state has been adopted (for ranks with
/// a primary) or freshly initialized (for fresh ranks on growth), and before the new
/// world runs its first step. `old` holds every old rank's upper half in rank order
/// — the implementation typically reads only the regions of `map.hosted_by(new_rank)`
/// and rewrites its state region in `upper`.
pub trait Repartition: Send + Sync {
    /// Rebuild `new_rank`'s application state in `upper` from the old world's upper
    /// halves, following `map`.
    fn repartition(
        &self,
        old: &[UpperHalfSpace],
        map: &RankMap,
        new_rank: Rank,
        upper: &mut UpperHalfSpace,
    ) -> MpiResult<()>;

    /// Whether this application *consumes* derived communicators and groups across a
    /// resize: it rebuilds whatever sub-communicators it needs from the new world
    /// itself, so the restart engine should drop — rather than reject — derived
    /// objects whose membership cannot survive the rank map.
    ///
    /// Defaults to `false`: a derived communicator that cannot survive the resize is
    /// then a clean [`MpiError::ElasticResize`](mpi_model::error::MpiError) error.
    fn consumes_derived_comms(&self) -> bool {
        false
    }
}

/// A repartition that moves nothing: correct only for applications whose per-rank
/// state is host-independent. The engine never calls a hook under the identity map,
/// so this is also what a same-size restart passes. Useful in tests and as the
/// explicit "no application state" choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRepartition;

impl Repartition for NoRepartition {
    fn repartition(
        &self,
        _old: &[UpperHalfSpace],
        _map: &RankMap,
        _new_rank: Rank,
        _upper: &mut UpperHalfSpace,
    ) -> MpiResult<()> {
        Ok(())
    }
}
