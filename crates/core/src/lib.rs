//! # peercache-core
//!
//! Optimal auxiliary-neighbor selection for structured P2P overlays — a
//! from-scratch implementation of
//!
//! > *Accelerating Lookups in P2P Systems using Peer Caching*
//! > (Deb, Linga, Rastogi, Srinivasan — ICDE 2008).
//!
//! A DHT node routes with `O(log n)` **core neighbors** chosen for
//! worst-case hop counts. This crate answers the paper's question: given
//! the access frequencies `f_v` of the peers a node has seen queries for,
//! which `k` **auxiliary neighbors** should it additionally cache to
//! minimise the *average* lookup cost
//!
//! ```text
//! Cost(A) = Σ_v f_v · (1 + d(v, N ∪ A))          (eq. 1)
//! ```
//!
//! under the overlay's id-derived hop-distance estimate `d`?
//!
//! ## Solvers
//!
//! | Function | System | Algorithm | Complexity |
//! |----------|--------|-----------|------------|
//! | [`pastry::select_dp`] | Pastry | trie DP (§IV-A) | `O(n·k²·b)` |
//! | [`pastry::select_greedy`] | Pastry | greedy trie DP (§IV-B) | `O(n·k·b)` |
//! | [`pastry::PastryOptimizer`] | Pastry | incremental (§IV-C) | `O(k·b)` per change |
//! | [`chord::select_naive`] | Chord | ring DP (§V-A) | `O(n²·k)` |
//! | [`chord::select_fast`] | Chord | oracle + concave DP (§V-B) | `O((n + c)·b + k·n·log n)`, `c` core neighbors |
//! | [`baseline::ObliviousDraw`], [`baseline::pastry_oblivious`], [`baseline::chord_oblivious`] | both | frequency-oblivious baseline (§VI-A) | draw `O(n + \|N\|)`; pricing it by eq. 1 `O(n·log(\|N\|+k))` |
//! | [`exhaustive::pastry_exhaustive`], [`exhaustive::chord_exhaustive`] | both | brute force (validation) | exponential |
//!
//! Every solver honours optional per-candidate **QoS delay bounds**
//! (§IV-D, §V-C): queries for a bounded peer must resolve within its
//! `max_hops`.
//!
//! ## Example
//!
//! ```
//! use peercache_core::{Candidate, ChordProblem, chord::select_fast};
//! use peercache_id::{Id, IdSpace};
//!
//! let space = IdSpace::new(16).unwrap();
//! let problem = ChordProblem::new(
//!     space,
//!     Id::new(0),                      // the selecting node
//!     vec![Id::new(1), Id::new(700)],  // its core neighbors
//!     vec![
//!         Candidate::new(Id::new(40_000), 120.0), // hot, far peer
//!         Candidate::new(Id::new(3), 2.0),        // cold, near peer
//!     ],
//!     1,
//! ).unwrap();
//! let selection = select_fast(&problem).unwrap();
//! assert_eq!(selection.aux, vec![Id::new(40_000)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub(crate) mod cast;
pub mod chord;
pub mod cost;
pub mod exhaustive;
#[cfg(feature = "check-invariants")]
pub(crate) mod invariants;
pub mod pastry;
mod problem;

pub use problem::{Candidate, ChordProblem, PastryProblem, SelectError, Selection};
