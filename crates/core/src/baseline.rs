//! The frequency-oblivious baseline of the paper's evaluation (§VI-A).
//!
//! The comparison scheme picks the `k` auxiliary neighbors *without*
//! looking at access frequencies, but still spread structurally:
//!
//! * **Chord**: with `k = r·log n`, pick `r` random candidates per
//!   distance slice `(2^i, 2^{i+1}]` (equivalently: per value of the hop
//!   estimate) for every non-empty slice;
//! * **Pastry**: pick `r` random candidates per length of the prefix
//!   shared with the selecting node.
//!
//! Slices with too few candidates donate their leftover budget to a
//! uniform draw over the remaining pool, so exactly `min(k, n)` pointers
//! are always returned.
//!
//! One drawer, [`ObliviousDraw`], makes every draw. The problem path
//! ([`chord_oblivious`], [`pastry_oblivious`]) hands it a problem's
//! candidates. The experiment drivers hand it the sorted live ring
//! ([`ObliviousDraw::draw_ring`]): it walks the ring once per node,
//! skipping the node and its core by a merge, and builds no candidate
//! list, no problem and no cost.

use std::borrow::Cow;

use peercache_id::{Id, IdSpace};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::cast::usize_from_u32;
use crate::cost::{chord_cost, pastry_cost};
use crate::problem::{validate_core, validate_digit_bits};
use crate::problem::{ChordProblem, PastryProblem, SelectError, Selection};

/// How the baseline slices its pool.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Slicing {
    /// By the Chord hop estimate `chord_hops(s, v)`: Chord and the skip
    /// graph.
    Chord,
    /// By the number of digits shared with the source: Pastry and
    /// Tapestry.
    Prefix {
        /// Digit width in bits.
        digit_bits: u8,
    },
}

impl Slicing {
    /// The slice of `v ≠ source` as seen from `source`. For distinct ids
    /// the shared digit count is `⌊shared bits / d⌋`, which is what
    /// `IdSpace::common_prefix_digits` returns for them. A Prefix width
    /// is validated before any ring draw, and a problem's on
    /// construction, so a zero width never reaches here; slice 0 keeps
    /// the draw total regardless.
    fn key(self, space: IdSpace, source: Id, v: Id) -> usize {
        match self {
            Slicing::Chord => usize_from_u32(space.chord_hops(source, v)),
            Slicing::Prefix { digit_bits } => space
                .common_prefix_len(v, source)
                .checked_div(digit_bits)
                .map_or(0, usize::from),
        }
    }
}

/// `ring` (ascending) without `source` and the members of the ascending
/// `core`, by a merge.
fn pool<'a>(ring: &'a [Id], source: Id, core: &'a [Id]) -> impl Iterator<Item = Id> + 'a {
    let mut core = core.iter().copied().peekable();
    ring.iter().copied().filter(move |&v| {
        while core.next_if(|&c| c < v).is_some() {}
        v != source && core.peek() != Some(&v)
    })
}

/// The slice-balanced draw over one id space and its reusable buffers:
/// one id list per slice key and the leftover pool. A sweep over many
/// nodes keeps one drawer, so a draw allocates only the set it returns.
#[derive(Debug)]
pub struct ObliviousDraw {
    space: IdSpace,
    slicing: Slicing,
    slices: Vec<Vec<Id>>,
    leftovers: Vec<Id>,
}

impl ObliviousDraw {
    /// A drawer for `space` sliced by `slicing`; buffers grow to fit on
    /// first use.
    pub fn new(space: IdSpace, slicing: Slicing) -> Self {
        let keys = match slicing {
            Slicing::Chord => usize::from(space.bits()) + 1,
            Slicing::Prefix { digit_bits } => space
                .digit_count(digit_bits)
                .map_or(1, |count| usize::from(count) + 1),
        };
        ObliviousDraw {
            space,
            slicing,
            slices: vec![Vec::new(); keys],
            leftovers: Vec::new(),
        }
    }

    /// The baseline set of `source` over the whole live `ring` (ascending
    /// ids) minus `source` and its `core` neighbors: exactly the draw,
    /// and the RNG stream position after it, of [`chord_oblivious`] or
    /// [`pastry_oblivious`] on the problem whose candidates are those
    /// ids at weight 1, without building that problem.
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] when that problem would be
    /// malformed: an invalid digit width, a source or core neighbor
    /// outside the space, a core neighbor equal to the source, or a
    /// repeated core neighbor. The error is the problem's own.
    pub fn draw_ring<R: Rng + ?Sized>(
        &mut self,
        source: Id,
        core: &[Id],
        ring: &[Id],
        k: usize,
        rng: &mut R,
    ) -> Result<Vec<Id>, SelectError> {
        let core = self.checked_core(source, core)?;
        Ok(self.draw(source, pool(ring, source, &core), k, rng))
    }

    /// The problem checks a ring draw stands in for; the core comes back
    /// sorted.
    fn checked_core<'a>(&self, source: Id, core: &'a [Id]) -> Result<Cow<'a, [Id]>, SelectError> {
        if let Slicing::Prefix { digit_bits } = self.slicing {
            validate_digit_bits(self.space, digit_bits)?;
        }
        validate_core(self.space, source, core)
    }

    /// Draw `k` ids of `pool` slice-balanced: shuffle each non-empty
    /// slice in key order and take `⌊k / #slices⌋` (+1 for the first
    /// `k mod #slices` slices) from its front; when some slice falls
    /// short of its quota, shuffle what the slices left, in key order,
    /// and top up from its front. Returned sorted.
    fn draw<R: Rng + ?Sized>(
        &mut self,
        source: Id,
        pool: impl Iterator<Item = Id>,
        k: usize,
        rng: &mut R,
    ) -> Vec<Id> {
        self.slices.iter_mut().for_each(Vec::clear);
        let mut total = 0;
        for v in pool {
            self.slices[self.slicing.key(self.space, source, v)].push(v);
            total += 1;
        }
        let k = k.min(total);
        if k == 0 {
            return Vec::new();
        }
        let nslices = self.slices.iter().filter(|ids| !ids.is_empty()).count();
        let quota = |i: usize| k / nslices + usize::from(i < k % nslices);
        let mut chosen = Vec::with_capacity(k);
        let mut short = false;
        let slices = self.slices.iter_mut().filter(|ids| !ids.is_empty());
        for (i, ids) in slices.enumerate() {
            ids.shuffle(rng);
            let take = quota(i).min(ids.len());
            chosen.extend_from_slice(&ids[..take]);
            short |= take < quota(i);
        }
        // Only a slice short of its quota leaves budget for the pool of
        // leftovers.
        if short {
            self.leftovers.clear();
            let slices = self.slices.iter().filter(|ids| !ids.is_empty());
            for (i, ids) in slices.enumerate() {
                self.leftovers
                    .extend_from_slice(&ids[quota(i).min(ids.len())..]);
            }
            self.leftovers.shuffle(rng);
            let need = k - chosen.len();
            chosen.extend_from_slice(&self.leftovers[..need]);
        }
        chosen.sort_unstable();
        chosen
    }
}

/// Frequency-oblivious auxiliary selection for Chord: random picks per
/// distance slice (hop-estimate value), ignoring weights.
pub fn chord_oblivious<R: Rng + ?Sized>(problem: &ChordProblem, rng: &mut R) -> Selection {
    let ids = problem.candidates.iter().map(|c| c.id);
    let aux =
        ObliviousDraw::new(problem.space, Slicing::Chord).draw(problem.source, ids, problem.k, rng);
    let cost = chord_cost(problem, &aux);
    Selection { aux, cost }
}

/// Frequency-oblivious auxiliary selection for Pastry: random picks per
/// shared-prefix length with the source, ignoring weights.
pub fn pastry_oblivious<R: Rng + ?Sized>(problem: &PastryProblem, rng: &mut R) -> Selection {
    let ids = problem.candidates.iter().map(|c| c.id);
    let slicing = Slicing::Prefix {
        digit_bits: problem.digit_bits,
    };
    let aux = ObliviousDraw::new(problem.space, slicing).draw(problem.source, ids, problem.k, rng);
    let cost = pastry_cost(problem, &aux);
    Selection { aux, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Candidate;
    use peercache_id::IdSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    fn chord_problem(k: usize) -> ChordProblem {
        ChordProblem::new(
            IdSpace::new(6).unwrap(),
            id(0),
            vec![id(1)],
            (2..40u128)
                .map(|i| Candidate::new(id(i), (i % 7) as f64 + 1.0))
                .collect(),
            k,
        )
        .unwrap()
    }

    #[test]
    fn returns_exactly_k_distinct_pointers() {
        let p = chord_problem(6);
        let mut rng = StdRng::seed_from_u64(7);
        let sel = chord_oblivious(&p, &mut rng);
        assert_eq!(sel.aux.len(), 6);
        let mut dedup = sel.aux.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 6, "no duplicates");
        assert_eq!(sel.cost, chord_cost(&p, &sel.aux));
    }

    #[test]
    fn k_larger_than_pool_takes_everything() {
        let p = chord_problem(1000);
        let mut rng = StdRng::seed_from_u64(7);
        let sel = chord_oblivious(&p, &mut rng);
        assert_eq!(sel.aux.len(), 38);
    }

    #[test]
    fn k_zero_selects_nothing() {
        let p = chord_problem(0);
        let mut rng = StdRng::seed_from_u64(7);
        let sel = chord_oblivious(&p, &mut rng);
        assert!(sel.aux.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let p = chord_problem(5);
        let a = chord_oblivious(&p, &mut StdRng::seed_from_u64(42));
        let b = chord_oblivious(&p, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn spreads_across_distance_slices() {
        // Candidates in three distinct slices; k = 3 must hit all three.
        let p = ChordProblem::new(
            IdSpace::new(6).unwrap(),
            id(0),
            vec![],
            vec![
                Candidate::new(id(2), 1.0),  // slice 2
                Candidate::new(id(3), 1.0),  // slice 2
                Candidate::new(id(9), 1.0),  // slice 4
                Candidate::new(id(12), 1.0), // slice 4
                Candidate::new(id(40), 1.0), // slice 6
                Candidate::new(id(60), 1.0), // slice 6
            ],
            3,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = chord_oblivious(&p, &mut rng);
        let slices: std::collections::HashSet<u32> = sel
            .aux
            .iter()
            .map(|&a| p.space.chord_hops(p.source, a))
            .collect();
        assert_eq!(slices.len(), 3, "one per slice: {:?}", sel.aux);
    }

    #[test]
    fn pastry_variant_spreads_across_prefix_slices() {
        let p = PastryProblem::new(
            IdSpace::new(4).unwrap(),
            1,
            id(0b0000),
            vec![],
            vec![
                Candidate::new(id(0b1000), 1.0), // shares 0 bits
                Candidate::new(id(0b1111), 1.0), // shares 0 bits
                Candidate::new(id(0b0100), 1.0), // shares 1 bit
                Candidate::new(id(0b0111), 1.0), // shares 1 bit
                Candidate::new(id(0b0010), 1.0), // shares 2 bits
                Candidate::new(id(0b0011), 1.0), // shares 2 bits
            ],
            3,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = pastry_oblivious(&p, &mut rng);
        assert_eq!(sel.aux.len(), 3);
        let slices: std::collections::HashSet<u8> = sel
            .aux
            .iter()
            .map(|&a| p.space.common_prefix_digits(a, p.source, 1).unwrap())
            .collect();
        assert_eq!(slices.len(), 3, "one per prefix slice: {:?}", sel.aux);
        assert_eq!(sel.cost, pastry_cost(&p, &sel.aux));
    }

    #[test]
    fn shortfall_slices_donate_budget() {
        // Slice "2" has one candidate, slice "4" has five; k = 4 must
        // still return 4 pointers.
        let p = ChordProblem::new(
            IdSpace::new(6).unwrap(),
            id(0),
            vec![],
            vec![
                Candidate::new(id(2), 1.0),
                Candidate::new(id(8), 1.0),
                Candidate::new(id(9), 1.0),
                Candidate::new(id(10), 1.0),
                Candidate::new(id(11), 1.0),
                Candidate::new(id(12), 1.0),
            ],
            4,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let sel = chord_oblivious(&p, &mut rng);
        assert_eq!(sel.aux.len(), 4);
    }

    #[test]
    fn a_malformed_ring_draw_fails_as_its_problem_would() {
        let space = IdSpace::new(6).unwrap();
        let ring: Vec<Id> = (0..64u128).step_by(3).map(id).collect();
        let candidates = |source: Id, core: &[Id]| -> Vec<Candidate> {
            ring.iter()
                .filter(|&&v| v != source && !core.contains(&v))
                .map(|&v| Candidate::new(v, 1.0))
                .collect()
        };
        let (source, far) = (id(9), id(1u128 << 7));
        for core in [vec![id(3), source], vec![id(3), id(3)], vec![far]] {
            let expected =
                ChordProblem::new(space, source, core.clone(), candidates(source, &core), 2)
                    .unwrap_err();
            let mut draw = ObliviousDraw::new(space, Slicing::Chord);
            let got = draw.draw_ring(source, &core, &ring, 2, &mut StdRng::seed_from_u64(1));
            assert_eq!(got, Err(expected), "core {core:?}");
        }
        for digit_bits in [0, 7] {
            let expected = PastryProblem::new(
                space,
                digit_bits,
                source,
                vec![],
                candidates(source, &[]),
                2,
            )
            .unwrap_err();
            let mut draw = ObliviousDraw::new(space, Slicing::Prefix { digit_bits });
            let got = draw.draw_ring(source, &[], &ring, 2, &mut StdRng::seed_from_u64(1));
            assert_eq!(got, Err(expected), "digit width {digit_bits}");
        }
    }
}
