//! A Tapestry overlay simulator.
//!
//! The paper notes (§I) that "the techniques presented for Pastry can be
//! directly applied to Tapestry" — this crate demonstrates it. Tapestry
//! routes by prefix digits like Pastry, but has **no leaf set**: where a
//! routing-table cell is empty, *surrogate routing* deterministically
//! bumps to the next filled digit value in the same row (wrapping), and a
//! key's owner is its **surrogate root** — the unique node where that
//! procedure terminates from anywhere in the overlay.
//!
//! Because Tapestry's hop structure is the same digits-to-fix geometry as
//! Pastry's, the paper's [`PastryProblem`]-based selection applies
//! unchanged: auxiliary neighbors act as extra routing-table entries and
//! are preferred whenever they advance the prefix further (§III-1).
//!
//! The forwarding rule lives in one function, [`TapestryNetwork`]'s
//! `peercache_faults::Substrate::step`, which reads the routing table in
//! place: prefix progress needs only the aux pointers and cell
//! `(lcp, key digit)`, since a row-`r` entry shares exactly `r` digits
//! with its owner. A probe that times out excludes the hop and the
//! decision re-runs. [`TapestryNetwork::route`] is the
//! repairing walk over it (excluded entries are forgotten afterwards);
//! the simulator's read-only, fault-injected and node-runtime walks drive
//! the same step.
//!
//! [`PastryProblem`]: https://docs.rs/peercache-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;

pub use network::{NetworkError, TapestryConfig, TapestryNetwork, TapestryNode};

use peercache_faults::{FaultedRoute, LookupFailure};
use peercache_id::Id;

/// How a route ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Terminated at the key's surrogate root.
    Success,
    /// Terminated at a node that wrongly believes it is the root (stale
    /// tables under churn).
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
    /// Successful forwards taken.
    pub hops: u32,
    /// Dead neighbors probed (timeouts), not counted as hops.
    pub failed_probes: u32,
    /// Nodes visited, starting at the source.
    pub path: Vec<Id>,
}

impl RouteResult {
    /// Whether the route reached the true surrogate root.
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
