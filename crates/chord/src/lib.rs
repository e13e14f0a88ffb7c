//! A Chord overlay simulator — the substrate for the paper's Chord
//! experiments (§VI), built to the paper's variant of the protocol (§II-B):
//!
//! * **Key assignment**: a key belongs to its *predecessor* — the last
//!   node whose id is ≤ the key on the clockwise ring.
//! * **Core neighbors**: finger `i` is the first node in
//!   `[x + 2^i, x + 2^{i+1})` (possibly none), plus a successor list for
//!   fault tolerance.
//! * **Routing**: forward to the known neighbor (finger, successor, or
//!   **auxiliary neighbor** — auxiliaries are used exactly like core
//!   entries, §III-1) that is closest to the target while staying between
//!   the current node and the target clockwise.
//!
//! Churn realism follows the evaluation setup of the paper (and its
//! reference \[13\]): failed nodes leave **stale entries** behind; each
//! node repairs its state only at its periodic stabilization, and probing
//! a dead neighbor during a lookup costs a timeout (tracked separately
//! from hops) before the next-best candidate is tried. Lookups that
//! terminate at a node that wrongly believes it owns the key are reported
//! as [`LookupOutcome::WrongOwner`] — the "unanswered queries" churn
//! produces.
//!
//! The forwarding rule lives in one function, [`ChordNetwork`]'s
//! `peercache_faults::Substrate::step`, which reads the node's fingers,
//! successors and aux pointers in place: it probes the usable candidate
//! closest to the key, and a timed-out one is excluded through the walk's
//! trace before the step decides again. [`ChordNetwork::lookup`] is the
//! repairing walk over it (dead neighbors probed en route are forgotten
//! afterwards); the simulator's read-only, fault-injected and node-runtime
//! walks drive the same step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;
mod node;

pub use network::{ChordConfig, ChordNetwork, NetworkError};
pub use node::ChordNode;

use peercache_faults::{FaultedRoute, LookupFailure};
use peercache_id::Id;

/// How a lookup ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Terminated at the true owner of the key.
    Success,
    /// Terminated at a node that believes it owns the key but does not
    /// (stale successor pointer under churn).
    WrongOwner(Id),
    /// A node had no live candidate to forward to.
    DeadEnd(Id),
    /// Hop budget exhausted (defensive; cannot happen in a stable ring).
    HopLimit,
}

/// The result of routing one query.
#[derive(Clone, Debug)]
pub struct LookupResult {
    /// How the lookup ended.
    pub outcome: LookupOutcome,
    /// Number of successful forwards taken.
    pub hops: u32,
    /// Dead neighbors probed along the way (timeouts), not counted as hops.
    pub failed_probes: u32,
    /// The nodes visited, starting with the source.
    pub path: Vec<Id>,
}

impl LookupResult {
    /// Whether the lookup reached the true owner.
    pub fn is_success(&self) -> bool {
        self.outcome == LookupOutcome::Success
    }

    /// The result of a walk; `None` when its origin was down.
    fn from_route(route: FaultedRoute) -> Option<Self> {
        let outcome = match route.outcome {
            Ok(_) => LookupOutcome::Success,
            Err(LookupFailure::WrongOwner(at)) => LookupOutcome::WrongOwner(at),
            Err(LookupFailure::DeadEnd(at)) => LookupOutcome::DeadEnd(at),
            Err(LookupFailure::HopLimit) => LookupOutcome::HopLimit,
            Err(LookupFailure::OriginDown(_)) => return None,
        };
        Some(LookupResult {
            outcome,
            hops: route.trace.hops,
            failed_probes: route.trace.timeouts,
            path: route.trace.path,
        })
    }
}
