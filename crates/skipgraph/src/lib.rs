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
//! links and aux pointers in place and hands the shared probe loop,
//! `peercache_faults::arrive`, Chord's decision (the usable candidate
//! closest to the key, `peercache_faults::clockwise_closest`), its core
//! test and its verdict (a node with no live candidate left believes it
//! is the key's predecessor); a timed-out candidate is excluded through
//! the walk's trace before the decision re-runs.
//! [`SkipGraphNetwork::search`] is the repairing walk over it (dead links
//! probed en route are forgotten afterwards) and returns the walk's
//! `FaultedRoute`; the simulator's read-only, fault-injected and
//! node-runtime walks drive the same step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;

pub use network::{SkipGraphConfig, SkipGraphNetwork, SkipNode};
pub use peercache_faults::NetworkError;
