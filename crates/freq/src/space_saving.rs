use std::collections::{BTreeMap, BTreeSet, HashMap};

use peercache_id::Id;

use crate::{FrequencyEstimator, FrequencySnapshot};

#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Estimated count (never under-estimates the true count).
    count: u64,
    /// Maximum possible over-estimation: the evicted count this slot
    /// inherited when its peer was admitted.
    over: u64,
}

/// The Space-Saving top-`n` stream summary (Metwally, Agrawal, El Abbadi).
///
/// The paper suggests tracking only the top-`n` frequent peers "using
/// standard streaming algorithms \[3\]" when storage is limited (§III-2).
/// Space-Saving monitors at most `capacity` peers; on observing an
/// unmonitored peer while full, the minimum-count entry is evicted and its
/// count inherited.
///
/// Guarantees, for a stream of `N` observations:
///
/// * a monitored peer's [`estimate`](FrequencyEstimator::estimate) never
///   under-estimates its true count;
/// * the over-estimation of any entry is at most `⌊N / capacity⌋`;
/// * every peer whose true count exceeds `⌊N / capacity⌋` is monitored.
///
/// Count buckets are kept in a `BTreeMap`, giving `O(log C)` per update
/// (`C` = number of distinct count values), with deterministic eviction
/// (smallest id within the minimum-count bucket).
///
/// ```
/// use peercache_freq::{FrequencyEstimator, SpaceSaving};
/// use peercache_id::Id;
///
/// let mut top = SpaceSaving::new(2);
/// for _ in 0..10 { top.observe(Id::new(7)); }
/// top.observe(Id::new(1));
/// top.observe(Id::new(2)); // evicts 1 (min count), inherits its count
/// assert_eq!(top.estimate(Id::new(7)), 10);
/// assert_eq!(top.estimate(Id::new(1)), 0);
/// assert_eq!(top.estimate(Id::new(2)), 2);
/// assert_eq!(top.guaranteed_count(Id::new(2)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    entries: HashMap<Id, Slot>,
    /// count → monitored peers at that count. Invariant: the union of all
    /// bucket sets is exactly `entries.keys()`.
    buckets: BTreeMap<u64, BTreeSet<Id>>,
    total: u64,
}

impl SpaceSaving {
    /// Create a summary monitoring at most `capacity` peers.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a summary with no slots is a
    /// programming error, not a runtime condition.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SpaceSaving capacity must be positive");
        SpaceSaving {
            capacity,
            entries: HashMap::with_capacity(capacity),
            buckets: BTreeMap::new(),
            total: 0,
        }
    }

    /// The maximum number of peers monitored simultaneously.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of peers currently monitored.
    pub fn monitored(&self) -> usize {
        self.entries.len()
    }

    /// Lower bound on the true count of `peer`: `estimate − over`.
    /// Zero for unmonitored peers.
    pub fn guaranteed_count(&self, peer: Id) -> u64 {
        self.entries
            .get(&peer)
            .map(|s| s.count - s.over)
            .unwrap_or(0)
    }

    /// The maximum over-estimation currently possible for `peer`.
    pub fn over_estimation(&self, peer: Id) -> u64 {
        self.entries.get(&peer).map(|s| s.over).unwrap_or(0)
    }

    fn bucket_remove(&mut self, count: u64, peer: Id) {
        let bucket = self
            .buckets
            .get_mut(&count)
            .expect("slot count always has a bucket");
        bucket.remove(&peer);
        if bucket.is_empty() {
            self.buckets.remove(&count);
        }
    }

    fn bucket_insert(&mut self, count: u64, peer: Id) {
        self.buckets.entry(count).or_default().insert(peer);
    }
}

impl FrequencyEstimator for SpaceSaving {
    fn observe(&mut self, peer: Id) {
        self.total += 1;
        if let Some(slot) = self.entries.get(&peer).copied() {
            self.bucket_remove(slot.count, peer);
            self.bucket_insert(slot.count + 1, peer);
            self.entries.get_mut(&peer).expect("checked above").count += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(peer, Slot { count: 1, over: 0 });
            self.bucket_insert(1, peer);
            return;
        }
        // Evict the minimum-count entry (deterministically: the smallest id
        // in the minimum bucket) and inherit its count.
        let (&min, bucket) = self.buckets.iter_mut().next().expect("summary is full");
        let victim = *bucket.iter().next().expect("buckets are non-empty");
        self.bucket_remove(min, victim);
        self.entries.remove(&victim);
        self.entries.insert(
            peer,
            Slot {
                count: min + 1,
                over: min,
            },
        );
        self.bucket_insert(min + 1, peer);
    }

    fn estimate(&self, peer: Id) -> u64 {
        self.entries.get(&peer).map(|s| s.count).unwrap_or(0)
    }

    fn observations(&self) -> u64 {
        self.total
    }

    fn snapshot(&self) -> FrequencySnapshot {
        FrequencySnapshot::from_counts(self.entries.iter().map(|(&p, s)| (p, s.count)))
    }

    fn snapshot_into(&self, out: &mut FrequencySnapshot) {
        // Monitored peers are distinct, so the refill sums at most one
        // entry per peer — bit-identical to `snapshot()`.
        out.refill_from_counts(self.entries.iter().map(|(&p, s)| (p, s.count)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::new(0);
    }

    #[test]
    fn exact_until_capacity() {
        let mut ss = SpaceSaving::new(3);
        for _ in 0..4 {
            ss.observe(id(1));
        }
        ss.observe(id(2));
        ss.observe(id(3));
        assert_eq!(ss.estimate(id(1)), 4);
        assert_eq!(ss.estimate(id(2)), 1);
        assert_eq!(ss.over_estimation(id(1)), 0);
        assert_eq!(ss.monitored(), 3);
        assert_eq!(ss.observations(), 6);
    }

    #[test]
    fn eviction_inherits_min_count() {
        let mut ss = SpaceSaving::new(2);
        ss.observe(id(1));
        ss.observe(id(1));
        ss.observe(id(2)); // full: {1:2, 2:1}
        ss.observe(id(3)); // evicts 2 (min count 1) → 3 has count 2, over 1
        assert_eq!(ss.estimate(id(2)), 0);
        assert_eq!(ss.estimate(id(3)), 2);
        assert_eq!(ss.over_estimation(id(3)), 1);
        assert_eq!(ss.guaranteed_count(id(3)), 1);
        assert_eq!(ss.guaranteed_count(id(1)), 2);
    }

    #[test]
    fn eviction_is_deterministic_smallest_id() {
        let mut ss = SpaceSaving::new(2);
        ss.observe(id(5));
        ss.observe(id(9)); // both count 1
        ss.observe(id(7)); // evicts id 5 (smallest in min bucket)
        assert_eq!(ss.estimate(id(5)), 0);
        assert_eq!(ss.estimate(id(9)), 1);
        assert_eq!(ss.estimate(id(7)), 2);
    }

    #[test]
    fn heavy_hitter_survives_noise() {
        // One peer with 40% of a stream of 1000, 600 singleton ids; with
        // capacity 20, the heavy hitter must be monitored with a tight
        // estimate (true ≤ est ≤ true + N/m).
        let mut ss = SpaceSaving::new(20);
        let n = 1000u64;
        for i in 0..n {
            if i % 5 < 2 {
                ss.observe(id(424242));
            } else {
                ss.observe(id(u128::from(i)));
            }
        }
        let est = ss.estimate(id(424242));
        let true_count = 400;
        assert!(est >= true_count, "no under-estimation: {est}");
        assert!(est <= true_count + n / 20, "over-estimation bounded: {est}");
    }

    #[test]
    fn snapshot_into_matches_snapshot() {
        let mut ss = SpaceSaving::new(4);
        for i in 0..100u128 {
            ss.observe(id(i % 7));
        }
        let mut out = FrequencySnapshot::default();
        ss.snapshot_into(&mut out);
        assert_eq!(out, ss.snapshot());
    }

    #[test]
    fn snapshot_has_at_most_capacity_entries() {
        let mut ss = SpaceSaving::new(4);
        for i in 0..100u128 {
            ss.observe(id(i));
        }
        assert_eq!(ss.snapshot().len(), 4);
        assert_eq!(ss.monitored(), 4);
    }
}
