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
//! with its owner. The step hands that decision, its one-cell core test
//! and its dead-end verdict to the shared probe loop,
//! `peercache_faults::arrive`: a probe that times out excludes the hop
//! and the decision re-runs. [`TapestryNetwork::route`] is the repairing
//! walk over it (excluded entries are forgotten afterwards) and returns
//! the walk's `FaultedRoute`; the simulator's read-only, fault-injected
//! and node-runtime walks drive the same step.
//!
//! [`PastryProblem`]: https://docs.rs/peercache-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;

pub use network::{TapestryConfig, TapestryNetwork, TapestryNode};
pub use peercache_faults::NetworkError;
