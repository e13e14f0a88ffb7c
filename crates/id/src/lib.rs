//! Identifier-space primitives for structured P2P overlays.
//!
//! Both Chord and Pastry place nodes and items in a circular identifier
//! space of `b`-bit ids (the paper uses `b = 32`). This crate provides the
//! shared substrate:
//!
//! * [`Id`] — an opaque identifier value,
//! * [`IdSpace`] — the ring of `b`-bit identifiers with modular ("clockwise")
//!   arithmetic, interval tests, and prefix/digit decomposition,
//! * [`splitmix64`] — the one 64-bit hash finalizer the deterministic
//!   layers derive their id-keyed decisions from,
//! * the id-derived **hop-distance estimates** the selection algorithms are
//!   built on:
//!   * [`IdSpace::pastry_hops`] — `⌈(b − l)/d⌉` where `l` is the longest
//!     common prefix (paper §IV, with digit size `d`; `d = 1` gives the
//!     paper's `b − l`),
//!   * [`IdSpace::chord_hops`] — the position of the leftmost `1` in the
//!     clockwise distance `(v − u) mod 2^b` (paper eq. 6).
//!
//! The estimates are *steady-state upper bounds computed only from ids*: a
//! node selecting auxiliary neighbors cannot know the true positions of all
//! other nodes, so it prices a candidate pointer by how many id bits remain
//! to be fixed after taking it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod error;
mod id;
mod space;

pub use error::IdError;
pub use id::Id;
pub use space::IdSpace;

/// The identifier width used throughout the paper's experiments.
pub const PAPER_ID_BITS: u8 = 32;

/// The SplitMix64 finalizer: a cheap, strong 64-bit mixing step. The
/// fault plan's decision hash, Pastry's routing-table fill (materialised
/// and virtual) and the scale tier's per-node seeds all mix through this
/// one definition, so their bits cannot drift apart.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
