use std::collections::HashMap;

use peercache_id::Id;

use crate::{FrequencyEstimator, FrequencySnapshot};

/// Exact per-peer access counters.
///
/// The reference estimator: one `u64` per distinct peer observed. This is
/// what the paper's evaluation effectively uses (every node tracks the full
/// access history for the measurement window).
#[derive(Clone, Debug, Default)]
pub struct ExactCounter {
    counts: HashMap<Id, u64>,
    total: u64,
}

impl ExactCounter {
    /// Create an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `count` accesses to `peer` at once.
    fn observe_many(&mut self, peer: Id, count: u64) {
        if count == 0 {
            return;
        }
        *self.counts.entry(peer).or_insert(0) += count;
        self.total += count;
    }

    /// Number of distinct peers observed.
    pub fn distinct_peers(&self) -> usize {
        self.counts.len()
    }

    /// Forget everything (e.g. at the start of a new measurement window).
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// Iterate over `(peer, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, u64)> + '_ {
        self.counts.iter().map(|(&p, &c)| (p, c))
    }
}

impl FrequencyEstimator for ExactCounter {
    fn observe(&mut self, peer: Id) {
        self.observe_many(peer, 1);
    }

    fn estimate(&self, peer: Id) -> u64 {
        self.counts.get(&peer).copied().unwrap_or(0)
    }

    fn observations(&self) -> u64 {
        self.total
    }

    fn snapshot(&self) -> FrequencySnapshot {
        FrequencySnapshot::from_counts(self.iter())
    }

    fn snapshot_into(&self, out: &mut FrequencySnapshot) {
        // Counts are keyed by distinct peer, so the refill sums at most
        // one entry per peer — bit-identical to `snapshot()`.
        out.refill_from_counts(self.iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    fn counts_accumulate() {
        let mut c = ExactCounter::new();
        c.observe(id(1));
        c.observe(id(1));
        c.observe(id(2));
        assert_eq!(c.estimate(id(1)), 2);
        assert_eq!(c.estimate(id(2)), 1);
        assert_eq!(c.estimate(id(3)), 0);
        assert_eq!(c.observations(), 3);
        assert_eq!(c.distinct_peers(), 2);
    }

    #[test]
    fn observe_many_batches() {
        let mut c = ExactCounter::new();
        c.observe_many(id(7), 100);
        c.observe_many(id(7), 0);
        assert_eq!(c.estimate(id(7)), 100);
        assert_eq!(c.observations(), 100);
    }

    #[test]
    fn clear_resets() {
        let mut c = ExactCounter::new();
        c.observe(id(1));
        c.clear();
        assert_eq!(c.estimate(id(1)), 0);
        assert_eq!(c.observations(), 0);
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn snapshot_into_matches_snapshot() {
        let mut c = ExactCounter::new();
        for v in [3u128, 9, 3, 7, 3, 9] {
            c.observe(id(v));
        }
        let mut out = FrequencySnapshot::from_counts(vec![(id(1), 1)]);
        c.snapshot_into(&mut out);
        assert_eq!(out, c.snapshot());
    }

    #[test]
    fn snapshot_contains_all_counts() {
        let mut c = ExactCounter::new();
        c.observe_many(id(3), 5);
        c.observe_many(id(9), 2);
        let s = c.snapshot();
        assert_eq!(s.len(), 2);
        assert_eq!(s.weight_of(id(3)), 5.0);
        assert_eq!(s.weight_of(id(9)), 2.0);
        assert_eq!(s.total_weight(), 7.0);
    }
}
