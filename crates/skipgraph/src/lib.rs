//! A skip-graph overlay simulator.
//!
//! The paper notes (§I) that "the techniques for Chord are applicable to
//! SkipGraphs \[2\]" — this crate demonstrates it. A skip graph (Aspnes &
//! Shah) arranges nodes in sorted key order; each node draws a random
//! **membership vector**, and level `i` links every node to its nearest
//! neighbors (left and right) among the nodes sharing its first `i`
//! membership bits — so level-`i` neighbors are ~`2^i` positions away in
//! expectation, the same exponential geometry as Chord fingers, but in
//! *rank* space rather than id space.
//!
//! Search walks toward the target key without overshooting, dropping
//! levels as it closes in — `O(log n)` hops w.h.p. Auxiliary neighbors
//! (the paper's contribution) are extra long-range links consulted
//! exactly like level links (§III-1). The Chord selection algorithm
//! transfers by running it in rank space: see the skip-graph arm of
//! `SimOverlay::select_aware_into` in `peercache-sim`, which the stable
//! driver (and the `ext_all_overlays` experiment) runs.
//!
//! The forwarding rule lives in one function, [`SkipGraphNetwork`]'s
//! `peercache_faults::Substrate::step`, which reads the node's level
//! links and aux pointers in place: it probes the usable candidate
//! closest to the key, and a timed-out one is excluded through the walk's
//! trace before the step decides again. [`SkipGraphNetwork::search`] is
//! the repairing walk over it (dead links probed en route are forgotten
//! afterwards); the simulator's read-only, fault-injected and
//! node-runtime walks drive the same step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;

pub use network::{NetworkError, SkipGraphConfig, SkipGraphNetwork, SkipNode};

use peercache_faults::{FaultedRoute, LookupFailure};
use peercache_id::Id;

/// How a search ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// Terminated at the true owner (the key's predecessor).
    Success,
    /// Terminated elsewhere (stale links under churn).
    WrongOwner(Id),
    /// Hop budget exhausted (defensive).
    HopLimit,
}

/// The result of one search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// How the search ended.
    pub outcome: SearchOutcome,
    /// Successful forwards taken.
    pub hops: u32,
    /// Dead neighbors probed (timeouts), not counted as hops.
    pub failed_probes: u32,
    /// Nodes visited, starting at the source.
    pub path: Vec<Id>,
}

impl SearchResult {
    /// Whether the search reached the true owner.
    pub fn is_success(&self) -> bool {
        self.outcome == SearchOutcome::Success
    }

    /// The result of a walk; `None` when its origin was down.
    fn from_route(route: FaultedRoute) -> Option<Self> {
        let outcome = match route.outcome {
            Ok(_) => SearchOutcome::Success,
            // The step reports a dead end only for a current node missing
            // from the graph, which a walk over probed-live nodes never
            // reaches; it ends at the wrong node either way.
            Err(LookupFailure::WrongOwner(at) | LookupFailure::DeadEnd(at)) => {
                SearchOutcome::WrongOwner(at)
            }
            Err(LookupFailure::HopLimit) => SearchOutcome::HopLimit,
            Err(LookupFailure::OriginDown(_)) => return None,
        };
        Some(SearchResult {
            outcome,
            hops: route.trace.hops,
            failed_probes: route.trace.timeouts,
            path: route.trace.path,
        })
    }
}
