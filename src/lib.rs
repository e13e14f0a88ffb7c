//! # peercache
//!
//! **Accelerating lookups in P2P systems by caching auxiliary neighbor
//! pointers** — a from-scratch Rust reproduction of Deb, Linga, Rastogi &
//! Srinivasan (ICDE 2008).
//!
//! Structured P2P overlays (Chord, Pastry) give every node `O(log n)`
//! *core* neighbors tuned for worst-case lookup hops. This library adds
//! the paper's contribution: each node also caches `k` **auxiliary
//! neighbors**, chosen *optimally* from the peers it has seen queries
//! for, to minimise the frequency-weighted average lookup cost
//! `Σ_v f_v (1 + d(v, N ∪ A))`.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |--------|---------------|----------|
//! | [`id`] | `peercache-id` | b-bit ring identifiers, prefix/digit ops, hop estimates |
//! | [`freq`] | `peercache-freq` | access-frequency tracking (exact, Space-Saving) |
//! | [`select`] | `peercache-core` | the optimal selection algorithms (Pastry trie DP/greedy/incremental, Chord DPs, QoS, baselines) |
//! | [`chord`] | `peercache-chord` | Chord overlay (fingers, successor lists, stabilization, churn) |
//! | [`pastry`] | `peercache-pastry` | Pastry overlay (prefix routing, leaf sets, locality-aware forwarding) |
//! | [`tapestry`] | `peercache-tapestry` | Tapestry overlay (surrogate routing; §I's Pastry-transfer claim) |
//! | [`skipgraph`] | `peercache-skipgraph` | skip-graph overlay (membership-vector levels; §I's Chord-transfer claim) |
//! | [`workload`] | `peercache-workload` | Zipf samplers, popularity rankings, item catalogs |
//! | [`faults`] | `peercache-faults` | deterministic fault plans, traced routes, walk steps |
//! | [`sim`] | `peercache-sim` | deterministic event simulation + the paper's experiments |
//! | [`node`] | `peercache-node` | deterministic event-loop node runtime + persistent peer store |
//!
//! ## Quickstart
//!
//! ```
//! use peercache::select::chord::select_fast;
//! use peercache::{Candidate, ChordProblem, Id, IdSpace};
//!
//! // A node at id 0 with two core fingers has seen queries for two peers;
//! // which single extra pointer minimises its average lookup hops?
//! let space = IdSpace::new(16).unwrap();
//! let problem = ChordProblem::new(
//!     space,
//!     Id::new(0),
//!     vec![Id::new(1), Id::new(700)],
//!     vec![
//!         Candidate::new(Id::new(40_000), 120.0), // hot and far
//!         Candidate::new(Id::new(3), 2.0),        // cold and near
//!     ],
//!     1,
//! )
//! .unwrap();
//! let selection = select_fast(&problem).unwrap();
//! assert_eq!(selection.aux, vec![Id::new(40_000)]);
//! ```
//!
//! Run the examples for full scenarios:
//! `cargo run --release --example quickstart` (and `p2p_dns`,
//! `location_service`, `qos_classes`), and the figure harness:
//! `cargo run --release -p peercache-bench --bin all_figures`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use peercache_chord as chord;
pub use peercache_core as select;
pub use peercache_faults as faults;
pub use peercache_freq as freq;
pub use peercache_id as id;
pub use peercache_node as node;
pub use peercache_pastry as pastry;
pub use peercache_sim as sim;
pub use peercache_skipgraph as skipgraph;
pub use peercache_tapestry as tapestry;
pub use peercache_workload as workload;

pub use peercache_core::{Candidate, ChordProblem, PastryProblem, SelectError, Selection};
pub use peercache_freq::{FrequencyEstimator, FrequencySnapshot};
pub use peercache_id::{Id, IdSpace};
