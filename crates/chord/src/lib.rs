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
//! terminate at a node that wrongly believes it owns the key fail with
//! `peercache_faults::LookupFailure::WrongOwner` — the "unanswered
//! queries" churn produces.
//!
//! The forwarding rule lives in one function, [`ChordNetwork`]'s
//! `peercache_faults::Substrate::step`, which reads the node's fingers,
//! successors and aux pointers in place and hands the shared probe loop,
//! `peercache_faults::arrive`, its decision (the usable candidate
//! closest to the key, `peercache_faults::clockwise_closest`, shared with
//! the skip graph), its core test and its ownership verdict; a timed-out
//! candidate is excluded through the walk's trace before the decision
//! re-runs. [`ChordNetwork::lookup`] is the repairing walk over it (dead
//! neighbors probed en route are forgotten afterwards) and returns the
//! walk's `FaultedRoute`; the simulator's read-only, fault-injected and
//! node-runtime walks drive the same step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;
mod node;

pub use network::{ChordConfig, ChordNetwork};
pub use node::ChordNode;
pub use peercache_faults::NetworkError;
