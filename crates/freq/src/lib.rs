//! Access-frequency tracking for auxiliary-neighbor selection.
//!
//! The paper's algorithms consume, per selecting node, the set `V` of peers
//! it has seen queries for together with an access frequency `f_v` for each
//! (§III). This crate provides the machinery for *maintaining* those
//! frequencies as queries stream past:
//!
//! * [`ExactCounter`] — one counter per observed peer; the reference
//!   estimator and the right choice when `|V|` is modest.
//! * [`SpaceSaving`] — the Space-Saving stream summary (Metwally et al.),
//!   which the paper points to ("standard streaming algorithms \[3\]") for
//!   tracking only the top-`n` frequent peers under a storage limit. Its
//!   count over-estimates are bounded by `N / capacity` for a stream of
//!   length `N`.
//!
//! All estimators produce a [`FrequencySnapshot`], the frozen
//! `(peer, weight)` table handed to the selection algorithms in
//! `peercache-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod snapshot;
mod space_saving;

pub use exact::ExactCounter;
pub use snapshot::{FrequencySnapshot, SnapshotEntry};
pub use space_saving::SpaceSaving;

use peercache_id::Id;

/// Common interface over the frequency estimators.
///
/// `observe` is called once per routed query with the id of the peer that
/// owned the queried item (§III: "noting the node containing the queried
/// item for every query"); `snapshot` freezes the current estimates for the
/// selection algorithms.
pub trait FrequencyEstimator {
    /// Record one access to `peer`.
    fn observe(&mut self, peer: Id);

    /// Current estimate of the number of accesses to `peer` (zero when the
    /// peer is not tracked).
    fn estimate(&self, peer: Id) -> u64;

    /// Total number of observations fed into the estimator.
    fn observations(&self) -> u64;

    /// Freeze the current estimates into a snapshot for the optimiser.
    fn snapshot(&self) -> FrequencySnapshot;

    /// [`snapshot`](Self::snapshot) into a caller-owned buffer: rebuild
    /// `out` in place from the current estimates. Semantically identical
    /// to `*out = self.snapshot()`; estimators whose estimates are
    /// per-peer counts override this with
    /// [`FrequencySnapshot::refill_from_counts`] so that, at warmed
    /// capacity, freezing a snapshot allocates nothing — the refresh
    /// engines call this on every recompute tick.
    fn snapshot_into(&self, out: &mut FrequencySnapshot) {
        *out = self.snapshot();
    }
}
