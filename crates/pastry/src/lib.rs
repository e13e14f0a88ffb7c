//! A Pastry overlay simulator — the substrate for the paper's Pastry
//! experiments (the paper used FreePastry, which we reproduce in Rust; see
//! DESIGN.md substitution 1).
//!
//! * **Key assignment**: a key belongs to the node *numerically closest*
//!   to it on the ring (§II-A).
//! * **Core neighbors**: a digit-indexed routing table (row `l` holds
//!   nodes sharing exactly `l` digits with the owner) plus a leaf set of
//!   ring neighbors.
//! * **Routing**: prefix routing — forward to a node sharing a strictly
//!   longer prefix with the key, falling back to numerical progress at the
//!   same prefix length. **Auxiliary neighbors** participate exactly like
//!   core entries (§III-1).
//! * **Locality** ([`RoutingMode::LocalityAware`]): FreePastry picks,
//!   among the candidates that make prefix progress, the one closest in
//!   *network proximity* — the behaviour behind the paper's Figure-4
//!   artifact (gains that *grow* with `k`). Proximity is synthesised from
//!   uniform random coordinates on the unit square, FreePastry's own
//!   simulation-mode topology. [`RoutingMode::GreedyPrefix`] instead takes
//!   the candidate closest to the key (the paper's Chord-style tiebreak).
//!
//! The forwarding rule is written once, over a read-only prefix-table
//! accessor (leaf set, table cell, proximity, config), and it is the
//! `peercache_faults::Substrate::step` of both storage forms of the
//! routing state: the materialised [`PastryNetwork`] and the scale
//! tier's virtual [`PastryArena`]. A probe that times out excludes the
//! hop and the decision re-runs. [`PastryNetwork::route`] is the
//! repairing walk over it (excluded entries are forgotten afterwards);
//! the simulator's read-only, fault-injected, scale and node-runtime
//! walks drive the same step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod network;
mod node;
mod rule;

pub use arena::PastryArena;
pub use network::{NetworkError, PastryConfig, PastryNetwork};
pub use node::PastryNode;

use peercache_faults::{FaultedRoute, LookupFailure};
use peercache_id::Id;

/// Next-hop tie-breaking policy (§VI-D).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// Among prefix-progress candidates, pick the one closest to the
    /// current node in proximity space (FreePastry's behaviour).
    LocalityAware,
    /// Among all valid candidates, pick the one that gets numerically
    /// closest to the key (maximal progress).
    GreedyPrefix,
}

/// How a route ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Terminated at the true owner of the key.
    Success,
    /// Terminated at a node that wrongly believes it is numerically
    /// closest (stale leaf set under churn).
    WrongOwner(Id),
    /// No live candidate made progress.
    DeadEnd(Id),
    /// Hop budget exhausted (defensive).
    HopLimit,
}

/// The result of routing one query.
#[derive(Clone, Debug)]
pub struct RouteResult {
    /// How the route ended.
    pub outcome: RouteOutcome,
    /// Number of successful forwards.
    pub hops: u32,
    /// Dead neighbors probed (timeouts), not counted as hops.
    pub failed_probes: u32,
    /// Nodes visited, starting at the source.
    pub path: Vec<Id>,
}

impl RouteResult {
    /// Whether the route reached the true owner.
    pub fn is_success(&self) -> bool {
        self.outcome == RouteOutcome::Success
    }

    /// The result of a walk; `None` when its origin was down.
    fn from_route(route: FaultedRoute) -> Option<Self> {
        let outcome = match route.outcome {
            Ok(_) => RouteOutcome::Success,
            Err(LookupFailure::WrongOwner(at)) => RouteOutcome::WrongOwner(at),
            Err(LookupFailure::DeadEnd(at)) => RouteOutcome::DeadEnd(at),
            Err(LookupFailure::HopLimit) => RouteOutcome::HopLimit,
            Err(LookupFailure::OriginDown(_)) => return None,
        };
        Some(RouteResult {
            outcome,
            hops: route.trace.hops,
            failed_probes: route.trace.timeouts,
            path: route.trace.path,
        })
    }
}
