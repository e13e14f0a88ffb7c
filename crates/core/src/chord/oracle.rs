//! The `s(j, m)` oracle of paper §V-B.
//!
//! For each potential anchor (candidate rank or core neighbor) we
//! precompute, in `O((n + c)·b)` for `n` candidates and `c` core
//! neighbors:
//!
//! * `pcount[r]` — how many candidates lie within estimated distance `r`
//!   of the anchor (the paper's `p_j(r)` as a rank count), and
//! * `wsum[r]` — the cumulative weighted cost `Σ_{r'≤r} r'·ΔF` of those
//!   candidates (a prefix-aggregated form of eq. 9, making each segment
//!   evaluation `O(1)` instead of `O(b)`).
//!
//! The anchors arrive in distance order and each count only grows with
//! the anchor, so the build walks one forward pointer per radius over
//! the sorted distance list instead of searching it per
//! `(anchor, radius)`.
//!
//! A full `s(j, m)` query then decomposes at the core neighbors between
//! `j` and `m` (eq. 10): one partial segment from the pointer, a
//! prefix-summed run of whole core segments, and one partial segment from
//! the last core. The first piece depends on the pointer's rank alone and
//! the last on the target's rank alone, so both are priced once per rank
//! at build time, and so are the rank↔core partition points (one merge
//! walk over the two sorted distance lists): a query performs no binary
//! search at all — it is a handful of flat table reads.
//!
//! The oracle owns every table in a flat `Vec` and exposes
//! [`rebuild`](SegmentOracle::rebuild), so a warmed-up workspace can
//! re-prime it for a new ring without allocating.

use crate::cast;
use crate::chord::ring::{bitlen, RingView};

/// Range-maximum sparse table over the QoS thresholds, so "is `s(j, m)`
/// feasible" is one `O(1)` query. All levels share one flat backing
/// vector (`offsets[level]` indexes the start of each level's row).
struct SparseMax {
    offsets: Vec<usize>,
    data: Vec<u128>,
}

impl SparseMax {
    fn empty() -> Self {
        SparseMax {
            offsets: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Rebuild in place from `values` (level 0 is the values themselves;
    /// level `L` holds maxima over windows of width `2^L`).
    fn rebuild(&mut self, values: impl Iterator<Item = u128>) {
        self.offsets.clear();
        self.data.clear();
        self.offsets.push(0);
        self.data.extend(values);
        let n = self.data.len();
        let mut width = 1usize;
        let mut prev = 0usize;
        while width * 2 <= n {
            let off = self.data.len();
            for i in 0..=n - width * 2 {
                let v = self.data[prev + i].max(self.data[prev + i + width]);
                self.data.push(v);
            }
            self.offsets.push(off);
            prev = off;
            width *= 2;
        }
    }

    /// Max over `values[lo..hi)`; 0 when the range is empty.
    fn max(&self, lo: usize, hi: usize) -> u128 {
        if lo >= hi {
            return 0;
        }
        let level = cast::usize_from_u32(usize::BITS - 1 - (hi - lo).leading_zeros());
        let width = 1usize << level;
        let off = self.offsets[level];
        self.data[off + lo].max(self.data[off + hi - width])
    }
}

/// The distance span of estimate `r`: every target at most `2^r − 1`
/// past the anchor is within `r` hops of it.
fn span(r: u32) -> u128 {
    if r >= 128 {
        u128::MAX
    } else {
        (1u128 << r) - 1
    }
}

/// Anchor tables, flattened: entry `a * stride + r` with
/// `stride = bits + 1`.
struct AnchorTables {
    stride: usize,
    pcount: Vec<u32>,
    wsum: Vec<f64>,
}

impl AnchorTables {
    fn empty() -> Self {
        AnchorTables {
            stride: 0,
            pcount: Vec::new(),
            wsum: Vec::new(),
        }
    }

    /// Re-prime for `anchors` (sorted by distance). `reach[r]` is the
    /// radius-`r` pointer: the count `#{d ≤ a + 2^r − 1}` never shrinks
    /// as the anchor `a` grows, so each pointer only moves forward and
    /// the whole build is `O((anchors + n)·(bits + 1))`. Returns the
    /// pointer steps taken (one per comparison).
    fn rebuild(&mut self, ring: &RingView, anchors: &[u128], reach: &mut Vec<usize>) -> u64 {
        self.stride = cast::usize_from_u32(ring.bits) + 1;
        self.pcount.clear();
        self.wsum.clear();
        reach.clear();
        reach.resize(self.stride, 0);
        let n = ring.dist.len();
        let mut steps = 0u64;
        for &a in anchors {
            let mut acc = 0.0;
            let mut prev_count = 0usize;
            for (r, count) in (0..=ring.bits).zip(reach.iter_mut()) {
                let limit = a.saturating_add(span(r));
                while *count < n && ring.dist[*count] <= limit {
                    *count += 1;
                    steps += 1;
                }
                steps += 1;
                if r > 0 {
                    acc += f64::from(r) * (ring.prefix_w[*count] - ring.prefix_w[prev_count]);
                }
                self.pcount.push(cast::index_to_u32(*count));
                self.wsum.push(acc);
                prev_count = *count;
            }
        }
        steps
    }

    /// Cost of ranks `l` with `anchor_dist < dist[l] ≤ dist[m0]`, priced
    /// from anchor `idx` (eq. 9 in prefix-aggregated form).
    fn pure(&self, ring: &RingView, idx: usize, anchor_dist: u128, m0: usize) -> f64 {
        debug_assert!(
            anchor_dist <= ring.dist[m0],
            "anchor must not lie past the segment end"
        );
        let d_bits = bitlen(ring.dist[m0] - anchor_dist);
        if d_bits == 0 {
            return 0.0;
        }
        let d = cast::usize_from_u32(d_bits);
        let base = idx * self.stride;
        let inner = self.wsum[base + d - 1];
        let covered = cast::index_from_u32(self.pcount[base + d - 1]);
        inner + f64::from(d_bits) * (ring.prefix_w[m0 + 1] - ring.prefix_w[covered])
    }
}

/// The oracle: precomputed structures answering `s(j, m)` queries.
///
/// Owns its tables (no borrow of the ring); every query method takes the
/// ring it was [`rebuild`](Self::rebuild)-primed with.
pub(crate) struct SegmentOracle {
    cand: AnchorTables,
    core: AnchorTables,
    /// The per-radius pointers of the anchor-table build (scratch).
    reach: Vec<usize>,
    /// `core_seg_prefix[q]` = Σ over core indices `q' < q` of the whole
    /// segment cost from core `q'` to just before core `q' + 1`.
    core_seg_prefix: Vec<f64>,
    /// Per candidate rank `r`: number of cores at distance ≤ `dist[r]`
    /// (the partition point `q1`/`q2` of eq. 10, precomputed).
    cores_through: Vec<u32>,
    /// Per core index `q`: first candidate rank at distance
    /// ≥ `core_dist[q]` (the partition point `r1` of eq. 10).
    first_rank_at: Vec<u32>,
    /// Per pointer rank `j0`: eq. 10's leading piece, the partial
    /// segment from `j0` to just before the first core past it, as the
    /// running total a core-crossing query starts from.
    lead: Vec<f64>,
    /// Per target rank `m0`: eq. 10's trailing piece, the partial
    /// segment up to `m0` priced from the last core at or before it.
    tail: Vec<f64>,
    qos: SparseMax,
    has_qos: bool,
}

impl SegmentOracle {
    /// An unprimed oracle; call [`rebuild`](Self::rebuild) before querying.
    pub fn empty() -> Self {
        SegmentOracle {
            cand: AnchorTables::empty(),
            core: AnchorTables::empty(),
            reach: Vec::new(),
            core_seg_prefix: Vec::new(),
            cores_through: Vec::new(),
            first_rank_at: Vec::new(),
            lead: Vec::new(),
            tail: Vec::new(),
            qos: SparseMax::empty(),
            has_qos: false,
        }
    }

    /// Precompute the tables for `ring` (`O((n + c)·b)` space and time);
    /// afterwards every [`s`](Self::s) query is `O(1)`.
    pub fn new(ring: &RingView) -> Self {
        let mut oracle = SegmentOracle::empty();
        oracle.rebuild(ring);
        oracle
    }

    /// Re-prime the oracle for `ring`, reusing every table's allocation.
    /// Returns the anchor tables' pointer steps, at most
    /// `(b + 1)·(3n + c)`.
    pub fn rebuild(&mut self, ring: &RingView) -> u64 {
        let mut steps = self.cand.rebuild(ring, &ring.dist, &mut self.reach);
        steps += self.core.rebuild(ring, &ring.core_dist, &mut self.reach);
        let n = ring.len();
        let c = ring.core_dist.len();

        // Rank↔core partition points by one merge walk each (both lists
        // are sorted by distance).
        self.cores_through.clear();
        let mut q = 0usize;
        for &d in &ring.dist {
            while q < c && ring.core_dist[q] <= d {
                q += 1;
            }
            self.cores_through.push(cast::index_to_u32(q));
        }
        self.first_rank_at.clear();
        let mut r = 0usize;
        for &cd in &ring.core_dist {
            while r < n && ring.dist[r] < cd {
                r += 1;
            }
            self.first_rank_at.push(cast::index_to_u32(r));
        }
        #[cfg(feature = "check-invariants")]
        self.assert_partition_tables_match_search(ring);

        self.core_seg_prefix.clear();
        self.core_seg_prefix.push(0.0);
        for q in 0..c {
            // Whole segment: ranks after core q, before core q + 1 (or the
            // end of the ring for the last core). A candidate never sits
            // on a core neighbor in a validated problem; skipping one that
            // does keeps `d ≤ core` out of the segment all the same.
            let at = cast::index_from_u32(self.first_rank_at[q]);
            let seg_start = if at < n && ring.dist[at] == ring.core_dist[q] {
                at + 1
            } else {
                at
            };
            let seg_end = if q + 1 < c {
                cast::index_from_u32(self.first_rank_at[q + 1])
            } else {
                n
            };
            let cost = if seg_start >= seg_end {
                0.0 // no candidates between this core and the next
            } else {
                self.pure_from_core(ring, q, seg_end - 1)
            };
            let prev = self.core_seg_prefix[q];
            self.core_seg_prefix.push(prev + cost);
        }

        // eq. 10's rank-local pieces, priced once per rank.
        self.lead.clear();
        for j0 in 0..n {
            let q1 = cast::index_from_u32(self.cores_through[j0]);
            let mut lead = 0.0;
            if q1 < c {
                let r1 = cast::index_from_u32(self.first_rank_at[q1]);
                debug_assert!(r1 > j0);
                if r1 - 1 > j0 {
                    lead += self.pure_from_cand(ring, j0, r1 - 1);
                }
            }
            self.lead.push(lead);
        }
        self.tail.clear();
        for m0 in 0..n {
            let q2 = cast::index_from_u32(self.cores_through[m0]);
            let tail = if q2 > 0 {
                self.pure_from_core(ring, q2 - 1, m0)
            } else {
                0.0 // no core at or before m0: no query ends a crossing here
            };
            self.tail.push(tail);
        }

        self.has_qos = ring.qos_lo.iter().any(std::option::Option::is_some);
        if self.has_qos {
            self.qos.rebuild(ring.qos_lo.iter().map(|q| q.unwrap_or(0)));
        }
        steps
    }

    /// Cross-check the merge-walk partition tables against the binary
    /// searches they replace.
    #[cfg(feature = "check-invariants")]
    fn assert_partition_tables_match_search(&self, ring: &RingView) {
        for (r, &d) in ring.dist.iter().enumerate() {
            let reference = ring.core_dist.partition_point(|&cd| cd <= d);
            debug_assert!(
                cast::index_from_u32(self.cores_through[r]) == reference,
                "cores_through[{r}] = {} disagrees with partition_point {reference}",
                self.cores_through[r],
            );
        }
        for (q, &cd) in ring.core_dist.iter().enumerate() {
            let reference = ring.dist.partition_point(|&d| d < cd);
            debug_assert!(
                cast::index_from_u32(self.first_rank_at[q]) == reference,
                "first_rank_at[{q}] = {} disagrees with partition_point {reference}",
                self.first_rank_at[q],
            );
        }
    }

    fn pure_from_cand(&self, ring: &RingView, j0: usize, m0: usize) -> f64 {
        self.cand.pure(ring, j0, ring.dist[j0], m0)
    }

    fn pure_from_core(&self, ring: &RingView, q: usize, m0: usize) -> f64 {
        self.core.pure(ring, q, ring.core_dist[q], m0)
    }

    /// `s(j, m)` over 0-indexed ranks: the cost of ranks `(j0 .. m0]` when
    /// the nearest auxiliary pointer is at rank `j0` (∞ when a QoS bound
    /// inside the range is out of the pointer's reach).
    pub fn s(&self, ring: &RingView, j0: usize, m0: usize) -> f64 {
        debug_assert!(j0 <= m0);
        if j0 == m0 {
            return 0.0;
        }
        if self.has_qos && self.qos.max(j0 + 1, m0 + 1) > ring.dist[j0] {
            return f64::INFINITY;
        }
        // Core neighbors strictly between the pointer and the target.
        let q1 = cast::index_from_u32(self.cores_through[j0]);
        let q2 = cast::index_from_u32(self.cores_through[m0]);
        if q1 == q2 {
            return self.pure_from_cand(ring, j0, m0);
        }
        // eq. 10: pointer segment + whole core segments + partial last,
        // summed left to right so the bits match pricing each piece here.
        (self.lead[j0] + (self.core_seg_prefix[q2 - 1] - self.core_seg_prefix[q1])) + self.tail[m0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Candidate, ChordProblem};
    use peercache_id::{Id, IdSpace};

    /// Direct (quadratic) evaluation of s(j, m) for cross-checking.
    fn s_direct(ring: &RingView, j0: usize, m0: usize) -> f64 {
        let mut total = 0.0;
        for l in j0 + 1..=m0 {
            if let Some(lo) = ring.qos_lo[l] {
                if ring.dist[j0] < lo {
                    return f64::INFINITY;
                }
            }
            total += ring.weight[l] * f64::from(ring.dist_via(j0, l));
        }
        total
    }

    fn ring_of(bits: u8, core: Vec<u128>, cands: Vec<(u128, f64)>) -> RingView {
        let problem = ChordProblem::new(
            IdSpace::new(bits).unwrap(),
            Id::ZERO,
            core.into_iter().map(Id::new).collect(),
            cands
                .into_iter()
                .map(|(i, w)| Candidate::new(Id::new(i), w))
                .collect(),
            1,
        )
        .unwrap();
        RingView::new(&problem).unwrap()
    }

    /// The build this oracle replaced, kept as the bit-exact reference:
    /// one `partition_point` search per (anchor, radius) and two per
    /// core segment, and every core-crossing `s` summed from its pieces
    /// at query time.
    mod reference {
        use super::super::{span, AnchorTables};
        use crate::chord::ring::RingView;

        pub fn tables(ring: &RingView, anchors: &[u128]) -> AnchorTables {
            let mut t = AnchorTables::empty();
            t.stride = usize::try_from(ring.bits).unwrap() + 1;
            for &a in anchors {
                let mut prev_count = ring.dist.partition_point(|&d| d <= a);
                t.pcount.push(u32::try_from(prev_count).unwrap());
                t.wsum.push(0.0);
                let mut acc = 0.0;
                for r in 1..=ring.bits {
                    let reach = a.saturating_add(span(r));
                    let count = ring.dist.partition_point(|&d| d <= reach);
                    acc += f64::from(r) * (ring.prefix_w[count] - ring.prefix_w[prev_count]);
                    t.pcount.push(u32::try_from(count).unwrap());
                    t.wsum.push(acc);
                    prev_count = count;
                }
            }
            t
        }

        pub struct Oracle {
            pub cand: AnchorTables,
            pub core: AnchorTables,
            pub core_seg_prefix: Vec<f64>,
        }

        impl Oracle {
            pub fn new(ring: &RingView) -> Self {
                let cand = tables(ring, &ring.dist);
                let core = tables(ring, &ring.core_dist);
                let (n, c) = (ring.len(), ring.core_dist.len());
                let mut core_seg_prefix = vec![0.0];
                for q in 0..c {
                    let seg_end = if q + 1 < c {
                        ring.dist.partition_point(|&d| d < ring.core_dist[q + 1])
                    } else {
                        n
                    };
                    let seg_start = ring.dist.partition_point(|&d| d <= ring.core_dist[q]);
                    let cost = if seg_start >= seg_end {
                        0.0
                    } else {
                        core.pure(ring, q, ring.core_dist[q], seg_end - 1)
                    };
                    core_seg_prefix.push(core_seg_prefix[q] + cost);
                }
                Oracle {
                    cand,
                    core,
                    core_seg_prefix,
                }
            }

            pub fn s(&self, ring: &RingView, j0: usize, m0: usize) -> f64 {
                if j0 == m0 {
                    return 0.0;
                }
                for l in j0 + 1..=m0 {
                    if ring.qos_lo[l].is_some_and(|lo| lo > ring.dist[j0]) {
                        return f64::INFINITY;
                    }
                }
                let q1 = ring.core_dist.partition_point(|&cd| cd <= ring.dist[j0]);
                let q2 = ring.core_dist.partition_point(|&cd| cd <= ring.dist[m0]);
                if q1 == q2 {
                    return self.cand.pure(ring, j0, ring.dist[j0], m0);
                }
                let mut total = 0.0;
                let r1 = ring.dist.partition_point(|&d| d < ring.core_dist[q1]);
                if r1 - 1 > j0 {
                    total += self.cand.pure(ring, j0, ring.dist[j0], r1 - 1);
                }
                total += self.core_seg_prefix[q2 - 1] - self.core_seg_prefix[q1];
                total += self.core.pure(ring, q2 - 1, ring.core_dist[q2 - 1], m0);
                total
            }
        }
    }

    /// A seeded ring mixing the shapes the oracle special-cases: widths
    /// b ∈ {8, 12, 16, 32}, 0–20 cores (scattered, in one run of
    /// consecutive ids, or past every candidate) and QoS bounds.
    fn seeded_ring(seed: u64) -> RingView {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = [8u8, 12, 16, 32][rng.gen_range(0..4usize)];
        let size = 1u128 << bits;
        let half = size / 2;
        let n = rng.gen_range(0..=60usize);
        let n_core = rng.gen_range(0..=20u128);
        let layout = rng.gen_range(0..3u8);
        let core: Vec<u128> = match layout {
            0 => (0..n_core).map(|_| rng.gen_range(1..size)).collect(),
            // One run of consecutive ids: empty core segments.
            1 => {
                let base = rng.gen_range(1..size - 20);
                (base..base + n_core).collect()
            }
            _ => (0..n_core).map(|_| rng.gen_range(half..size)).collect(),
        };
        let cand_hi = if layout == 2 { half } else { size };
        let qos = rng.gen_bool(0.3);
        let mut taken = core.clone();
        let mut candidates: Vec<Candidate> = Vec::with_capacity(n);
        while candidates.len() < n {
            let off = rng.gen_range(1..cand_hi);
            if taken.contains(&off) {
                continue;
            }
            taken.push(off);
            let weight = rng.gen_range(0.0..100.0);
            candidates.push(if qos && rng.gen_bool(0.3) {
                let hops = rng.gen_range(1..=u32::from(bits) + 1);
                Candidate::with_max_hops(Id::new(off), weight, hops)
            } else {
                Candidate::new(Id::new(off), weight)
            });
        }
        let mut core: Vec<Id> = core.into_iter().map(Id::new).collect();
        core.sort_unstable();
        core.dedup();
        let problem =
            ChordProblem::new(IdSpace::new(bits).unwrap(), Id::ZERO, core, candidates, 1).unwrap();
        RingView::new(&problem).unwrap()
    }

    #[test]
    fn oracle_is_bit_identical_to_the_search_built_reference() {
        let mut oracle = SegmentOracle::empty();
        for seed in 0..300 {
            let ring = seeded_ring(seed);
            let steps = oracle.rebuild(&ring);
            // One step per (anchor, radius), plus at most n forward moves
            // per radius pointer in each of the two tables.
            let (n, c) = (ring.len() as u64, ring.core_dist.len() as u64);
            let radii = u64::from(ring.bits) + 1;
            assert!(
                steps >= radii * (n + c),
                "one step per (anchor, radius), seed {seed}"
            );
            assert!(steps <= radii * (3 * n + c), "seed {seed}: {steps} steps");
            let reference = reference::Oracle::new(&ring);
            for (built, expected) in [
                (&oracle.cand, &reference.cand),
                (&oracle.core, &reference.core),
            ] {
                assert_eq!(built.pcount, expected.pcount, "pcount, seed {seed}");
                let bits =
                    |t: &AnchorTables| t.wsum.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(built), bits(expected), "wsum, seed {seed}");
            }
            for j in 0..ring.len() {
                for m in j..ring.len() {
                    assert_eq!(
                        oracle.s(&ring, j, m).to_bits(),
                        reference.s(&ring, j, m).to_bits(),
                        "s({j},{m}), seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_max_matches_scan() {
        let values = [3u128, 1, 4, 1, 5, 9, 2, 6];
        let mut sm = SparseMax::empty();
        sm.rebuild(values.iter().copied());
        for lo in 0..values.len() {
            for hi in lo..=values.len() {
                let expected = values[lo..hi].iter().copied().max().unwrap_or(0);
                assert_eq!(sm.max(lo, hi), expected, "range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn sparse_max_rebuild_reuses_cleanly() {
        let mut sm = SparseMax::empty();
        sm.rebuild([7u128, 7, 7, 7, 7, 7, 7, 7, 7].into_iter());
        let values = [3u128, 1, 4, 1, 5];
        sm.rebuild(values.iter().copied());
        for lo in 0..values.len() {
            for hi in lo..=values.len() {
                let expected = values[lo..hi].iter().copied().max().unwrap_or(0);
                assert_eq!(sm.max(lo, hi), expected, "range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn oracle_matches_direct_no_cores() {
        let ring = ring_of(
            6,
            vec![],
            vec![
                (3, 2.0),
                (7, 1.0),
                (12, 4.0),
                (30, 3.0),
                (45, 0.5),
                (61, 2.5),
            ],
        );
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                let (fast, direct) = (oracle.s(&ring, j, m), s_direct(&ring, j, m));
                assert!(
                    (fast - direct).abs() < 1e-9,
                    "s({j},{m}) = {fast} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn oracle_matches_direct_with_cores() {
        let ring = ring_of(
            6,
            vec![5, 16, 33, 50],
            vec![
                (3, 2.0),
                (7, 1.0),
                (12, 4.0),
                (30, 3.0),
                (45, 0.5),
                (61, 2.5),
                (18, 1.5),
            ],
        );
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                let (fast, direct) = (oracle.s(&ring, j, m), s_direct(&ring, j, m));
                assert!(
                    (fast - direct).abs() < 1e-9,
                    "s({j},{m}) = {fast} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn oracle_handles_empty_core_segments() {
        // Regression: consecutive core neighbors with NO candidate between
        // them used to anchor a segment past its end and underflow.
        let ring = ring_of(
            6,
            vec![10, 12, 14, 40],
            vec![(5, 2.0), (50, 3.0), (62, 1.0)],
        );
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                let (fast, direct) = (oracle.s(&ring, j, m), s_direct(&ring, j, m));
                assert!(
                    (fast - direct).abs() < 1e-9,
                    "s({j},{m}) = {fast} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn oracle_handles_cores_past_all_candidates() {
        let ring = ring_of(6, vec![60, 62], vec![(5, 2.0), (20, 3.0)]);
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                assert!((oracle.s(&ring, j, m) - s_direct(&ring, j, m)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn oracle_rebuild_matches_fresh_build() {
        let warm = ring_of(6, vec![5, 16], vec![(3, 2.0), (30, 3.0), (61, 2.5)]);
        let ring = ring_of(
            6,
            vec![10, 12, 14, 40],
            vec![(5, 2.0), (18, 1.5), (50, 3.0), (62, 1.0)],
        );
        let mut reused = SegmentOracle::new(&warm);
        reused.rebuild(&ring);
        let fresh = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                assert_eq!(
                    reused.s(&ring, j, m).to_bits(),
                    fresh.s(&ring, j, m).to_bits(),
                    "s({j},{m}) differs after rebuild"
                );
            }
        }
    }

    #[test]
    fn oracle_matches_direct_with_qos() {
        let problem = ChordProblem::new(
            IdSpace::new(6).unwrap(),
            Id::ZERO,
            vec![Id::new(5)],
            vec![
                Candidate::new(Id::new(3), 2.0),
                Candidate::with_max_hops(Id::new(30), 3.0, 3),
                Candidate::new(Id::new(45), 0.5),
                Candidate::with_max_hops(Id::new(61), 2.5, 2),
            ],
            1,
        )
        .unwrap();
        let ring = RingView::new(&problem).unwrap();
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                let (fast, direct) = (oracle.s(&ring, j, m), s_direct(&ring, j, m));
                assert!(
                    fast == direct || (fast - direct).abs() < 1e-9,
                    "s({j},{m}) = {fast} vs {direct}"
                );
            }
        }
    }
}
