use peercache_id::Id;

/// One `(peer, weight)` row of a [`FrequencySnapshot`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    /// The peer the accesses were for.
    pub peer: Id,
    /// The (possibly estimated) access weight `f_v`.
    pub weight: f64,
}

/// A frozen access-frequency table: the input the selection algorithms in
/// `peercache-core` consume (the paper's `V` with frequencies `f_v`, §III).
///
/// Entries are deduplicated by peer and sorted by id so that consumers and
/// tests are deterministic regardless of the estimator's internal iteration
/// order. Weights are non-negative; zero-weight entries are dropped.
///
/// ```
/// use peercache_freq::FrequencySnapshot;
/// use peercache_id::Id;
///
/// let snapshot = FrequencySnapshot::from_counts(vec![
///     (Id::new(5), 10u64),
///     (Id::new(2), 3),
///     (Id::new(9), 1),
/// ]);
/// // The paper's §III-2 storage limitation: keep only the top-n peers.
/// let top = snapshot.top_n(2);
/// assert_eq!(top.weight_of(Id::new(5)), 10.0);
/// assert_eq!(top.weight_of(Id::new(9)), 0.0);
/// // Core neighbors are filtered out before selection.
/// let filtered = snapshot.without(vec![Id::new(2)]);
/// assert_eq!(filtered.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrequencySnapshot {
    entries: Vec<SnapshotEntry>,
}

impl FrequencySnapshot {
    /// Build a snapshot from raw `(peer, weight)` pairs.
    ///
    /// Duplicate peers have their weights summed; non-finite and
    /// non-positive weights are discarded.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (Id, f64)>,
    {
        let mut entries: Vec<SnapshotEntry> = pairs
            .into_iter()
            .filter(|(_, w)| w.is_finite() && *w > 0.0)
            .map(|(peer, weight)| SnapshotEntry { peer, weight })
            .collect();
        entries.sort_by_key(|e| e.peer);
        entries.dedup_by(|dup, keep| {
            if dup.peer == keep.peer {
                keep.weight += dup.weight;
                true
            } else {
                false
            }
        });
        FrequencySnapshot { entries }
    }

    /// Build a snapshot from integer counts.
    pub fn from_counts<I>(counts: I) -> Self
    where
        I: IntoIterator<Item = (Id, u64)>,
    {
        Self::from_pairs(counts.into_iter().map(|(p, c)| (p, c as f64)))
    }

    /// Rebuild this snapshot **in place** from raw `(peer, weight)`
    /// pairs — the zero-alloc counterpart of
    /// [`from_pairs`](Self::from_pairs): once the entry buffer's
    /// capacity has warmed up, refilling allocates nothing.
    ///
    /// Semantics match `from_pairs` (non-finite and non-positive weights
    /// dropped, duplicates summed, entries sorted by peer) with one
    /// bit-level caveat: the sort is *unstable*, so when the input holds
    /// **three or more** entries for one peer the summation order — and
    /// thus the exact f64 bits — may differ from `from_pairs`. With at
    /// most two entries per peer the sum is a single two-operand IEEE
    /// addition, which is commutative, so the result is bit-identical.
    /// Every estimator and refresh-engine call site feeds at most two
    /// entries per peer (a base weight plus one counter estimate).
    pub fn refill_from_pairs<I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (Id, f64)>,
    {
        self.entries.clear();
        self.entries.extend(
            pairs
                .into_iter()
                .filter(|(_, w)| w.is_finite() && *w > 0.0)
                .map(|(peer, weight)| SnapshotEntry { peer, weight }),
        );
        self.entries.sort_unstable_by_key(|e| e.peer);
        self.entries.dedup_by(|dup, keep| {
            if dup.peer == keep.peer {
                keep.weight += dup.weight;
                true
            } else {
                false
            }
        });
    }

    /// [`refill_from_pairs`](Self::refill_from_pairs) over integer
    /// counts — the in-place counterpart of
    /// [`from_counts`](Self::from_counts).
    pub fn refill_from_counts<I>(&mut self, counts: I)
    where
        I: IntoIterator<Item = (Id, u64)>,
    {
        self.refill_from_pairs(counts.into_iter().map(|(p, c)| (p, c as f64)));
    }

    /// Rebuild this snapshot **in place** as a filtered copy of
    /// `source`: keep exactly the entries whose peer satisfies `keep`,
    /// preserving order and weights. The in-place counterpart of
    /// [`without`](Self::without) for callers that already know the
    /// exclusion test (e.g. a sorted core-neighbor set to binary-search)
    /// — no exclusion vector is materialised and, at warmed capacity,
    /// nothing allocates.
    pub fn refill_filtered<F>(&mut self, source: &FrequencySnapshot, mut keep: F)
    where
        F: FnMut(Id) -> bool,
    {
        self.entries.clear();
        self.entries
            .extend(source.entries.iter().filter(|e| keep(e.peer)).copied());
    }

    /// The entries, sorted by peer id.
    pub fn entries(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// Number of distinct peers (the paper's `n = |V|`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no peer has been observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> f64 {
        self.entries.iter().map(|e| e.weight).sum()
    }

    /// The weight recorded for `peer`, or zero.
    pub fn weight_of(&self, peer: Id) -> f64 {
        self.entries
            .binary_search_by_key(&peer, |e| e.peer)
            .map(|i| self.entries[i].weight)
            .unwrap_or(0.0)
    }

    /// Restrict the snapshot to the `n` heaviest peers (ties broken by
    /// smaller id), modelling the paper's "store the top-n frequent nodes"
    /// storage-limitation strategy (§III-2). Returns a new snapshot.
    pub fn top_n(&self, n: usize) -> FrequencySnapshot {
        let mut by_weight = self.entries.clone();
        by_weight.sort_by(|a, b| {
            b.weight
                .partial_cmp(&a.weight)
                .expect("weights are finite")
                .then(a.peer.cmp(&b.peer))
        });
        by_weight.truncate(n);
        by_weight.sort_by_key(|e| e.peer);
        FrequencySnapshot { entries: by_weight }
    }

    /// Remove a set of peers (e.g. the selecting node itself and its core
    /// neighbors, which are never candidates for auxiliary selection).
    pub fn without<I>(&self, peers: I) -> FrequencySnapshot
    where
        I: IntoIterator<Item = Id>,
    {
        let mut excluded: Vec<Id> = peers.into_iter().collect();
        excluded.sort();
        excluded.dedup();
        let entries = self
            .entries
            .iter()
            .filter(|e| excluded.binary_search(&e.peer).is_err())
            .copied()
            .collect();
        FrequencySnapshot { entries }
    }

    /// Iterate over `(peer, weight)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, f64)> + '_ {
        self.entries.iter().map(|e| (e.peer, e.weight))
    }
}

impl FromIterator<(Id, f64)> for FrequencySnapshot {
    fn from_iter<I: IntoIterator<Item = (Id, f64)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

impl FromIterator<(Id, u64)> for FrequencySnapshot {
    fn from_iter<I: IntoIterator<Item = (Id, u64)>>(iter: I) -> Self {
        Self::from_counts(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    fn from_pairs_sorts_dedups_and_sums() {
        let s = FrequencySnapshot::from_pairs(vec![
            (id(5), 2.0),
            (id(1), 1.0),
            (id(5), 3.0),
            (id(2), 4.0),
        ]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.weight_of(id(5)), 5.0);
        assert_eq!(s.weight_of(id(1)), 1.0);
        let peers: Vec<_> = s.iter().map(|(p, _)| p.value()).collect();
        assert_eq!(peers, vec![1, 2, 5]);
    }

    #[test]
    fn drops_zero_negative_and_nonfinite_weights() {
        let s = FrequencySnapshot::from_pairs(vec![
            (id(1), 0.0),
            (id(2), -3.0),
            (id(3), f64::NAN),
            (id(4), f64::INFINITY),
            (id(5), 1.5),
        ]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.weight_of(id(5)), 1.5);
    }

    #[test]
    fn total_weight_sums_entries() {
        let s = FrequencySnapshot::from_counts(vec![(id(1), 3), (id(2), 7)]);
        assert_eq!(s.total_weight(), 10.0);
        assert_eq!(FrequencySnapshot::default().total_weight(), 0.0);
    }

    #[test]
    fn top_n_keeps_heaviest_with_id_tiebreak() {
        let s =
            FrequencySnapshot::from_counts(vec![(id(1), 5), (id(2), 9), (id(3), 5), (id(4), 1)]);
        let top = s.top_n(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top.weight_of(id(2)), 9.0);
        // tie between 1 and 3 at weight 5 → smaller id wins.
        assert_eq!(top.weight_of(id(1)), 5.0);
        assert_eq!(top.weight_of(id(3)), 0.0);
    }

    #[test]
    fn top_n_larger_than_len_is_identity() {
        let s = FrequencySnapshot::from_counts(vec![(id(1), 5), (id(2), 9)]);
        assert_eq!(s.top_n(10), s);
    }

    #[test]
    fn without_removes_listed_peers() {
        let s = FrequencySnapshot::from_counts(vec![(id(1), 5), (id(2), 9), (id(3), 2)]);
        let filtered = s.without(vec![id(2), id(9)]);
        assert_eq!(filtered.len(), 2);
        assert_eq!(filtered.weight_of(id(2)), 0.0);
        assert_eq!(filtered.weight_of(id(1)), 5.0);
    }

    #[test]
    fn weight_of_missing_is_zero() {
        let s = FrequencySnapshot::from_counts(vec![(id(1), 5)]);
        assert_eq!(s.weight_of(id(42)), 0.0);
    }

    #[test]
    fn refill_matches_from_pairs_on_two_way_duplicates() {
        let pairs = vec![(id(5), 2.5), (id(1), 1.0), (id(5), 3.25), (id(2), 4.0)];
        let fresh = FrequencySnapshot::from_pairs(pairs.clone());
        let mut refilled = FrequencySnapshot::default();
        refilled.refill_from_pairs(pairs.clone());
        assert_eq!(refilled, fresh);
        // Refilling again over stale contents fully replaces them.
        refilled.refill_from_pairs(pairs);
        assert_eq!(refilled, fresh);
    }

    #[test]
    fn refill_drops_invalid_weights_like_from_pairs() {
        let pairs = vec![(id(1), 0.0), (id(2), -1.0), (id(3), f64::NAN), (id(4), 2.0)];
        let mut s = FrequencySnapshot::from_counts(vec![(id(9), 7)]);
        s.refill_from_pairs(pairs.clone());
        assert_eq!(s, FrequencySnapshot::from_pairs(pairs));
        assert_eq!(s.weight_of(id(9)), 0.0, "stale entries are replaced");
    }

    #[test]
    fn refill_filtered_matches_without() {
        let s = FrequencySnapshot::from_counts(vec![(id(1), 5), (id(2), 9), (id(3), 2)]);
        let excluded = [id(2), id(9)];
        let mut filtered = FrequencySnapshot::default();
        filtered.refill_filtered(&s, |p| excluded.binary_search(&p).is_err());
        assert_eq!(filtered, s.without(excluded.iter().copied()));
    }
}
