use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use peercache_id::{Id, IdSpace};

/// A peer the selecting node has seen queries for: a member of the paper's
/// set `V` with access frequency `f_v` (§III), plus an optional QoS bound.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Candidate {
    /// The peer's identifier.
    pub id: Id,
    /// The access frequency `f_v` (any non-negative finite weight).
    pub weight: f64,
    /// QoS delay bound: queries for this peer must complete within this
    /// many hops, i.e. `1 + d(v, N ∪ A) ≤ max_hops` (§IV-D, §V-C).
    /// `None` means unconstrained.
    pub max_hops: Option<u32>,
}

impl Candidate {
    /// An unconstrained candidate.
    pub fn new(id: Id, weight: f64) -> Self {
        Candidate {
            id,
            weight,
            max_hops: None,
        }
    }

    /// A candidate whose queries carry a QoS delay bound (in hops,
    /// including the first hop out of the selecting node).
    pub fn with_max_hops(id: Id, weight: f64, max_hops: u32) -> Self {
        Candidate {
            id,
            weight,
            max_hops: Some(max_hops),
        }
    }
}

/// Errors from problem validation or selection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError {
    /// The problem instance is malformed (duplicate/out-of-space ids,
    /// candidate equal to the source or a core neighbor, bad weights…).
    InvalidProblem(String),
    /// The QoS delay bounds cannot all be met with `k` auxiliary pointers.
    QosInfeasible {
        /// Minimum number of auxiliary pointers any feasible solution needs
        /// (`u32::MAX` when no number of pointers can satisfy a bound).
        required: u32,
        /// The number of pointers available.
        k: u32,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
            SelectError::QosInfeasible { required, k } => write!(
                f,
                "QoS bounds need at least {required} auxiliary pointers, only {k} available"
            ),
        }
    }
}

impl Error for SelectError {}

/// The result of an auxiliary-neighbor selection.
#[derive(Clone, Debug, PartialEq)]
pub struct Selection {
    /// The chosen auxiliary neighbors `A_s`, sorted by id.
    pub aux: Vec<Id>,
    /// The objective value `Cost(A_s) = Σ_v f_v (1 + d(v, N_s ∪ A_s))`
    /// (paper eq. 1) over the problem's candidates.
    pub cost: f64,
}

/// `ids` in increasing order: borrowed when already sorted (the
/// substrates hand out id-ordered core sets), a sorted copy otherwise.
fn sorted(ids: &[Id]) -> Cow<'_, [Id]> {
    if ids.windows(2).all(|w| w[0] <= w[1]) {
        Cow::Borrowed(ids)
    } else {
        let mut owned = ids.to_vec();
        owned.sort_unstable();
        Cow::Owned(owned)
    }
}

/// The smallest id that occurs more than once in the sorted `ids`.
fn repeated(ids: &[Id]) -> Option<Id> {
    ids.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// Validate the source and its core neighbors; the core comes back in
/// increasing order. The frequency-oblivious baseline's ring draw
/// ([`ObliviousDraw`](crate::baseline::ObliviousDraw)) runs this check
/// too, so both paths reject a malformed core with the same error.
pub(crate) fn validate_core(
    space: IdSpace,
    source: Id,
    core: &[Id],
) -> Result<Cow<'_, [Id]>, SelectError> {
    space
        .check(source)
        .map_err(|e| SelectError::InvalidProblem(format!("source: {e}")))?;
    for &c in core {
        space
            .check(c)
            .map_err(|e| SelectError::InvalidProblem(format!("core neighbor: {e}")))?;
        if c == source {
            return Err(SelectError::InvalidProblem(format!(
                "core neighbor {c} equals the source node"
            )));
        }
    }
    let core = sorted(core);
    if let Some(c) = repeated(&core) {
        return Err(SelectError::InvalidProblem(format!(
            "duplicate core neighbor {c}"
        )));
    }
    Ok(core)
}

/// Validate a Pastry digit width: it must split the id space into
/// digits, and a digit must fit the trie's `u16` slots.
pub(crate) fn validate_digit_bits(space: IdSpace, digit_bits: u8) -> Result<(), SelectError> {
    space
        .digit_count(digit_bits)
        .map_err(|e| SelectError::InvalidProblem(e.to_string()))?;
    if digit_bits > 16 {
        // Digits are represented as u16 and each trie vertex holds 2^d
        // child slots; wider digits are never useful and would overflow
        // both representations.
        return Err(SelectError::InvalidProblem(format!(
            "digit width {digit_bits} exceeds the supported maximum of 16 bits"
        )));
    }
    Ok(())
}

fn validate_common(
    space: IdSpace,
    source: Id,
    core: &[Id],
    candidates: &[Candidate],
) -> Result<(), SelectError> {
    let core = validate_core(space, source, core)?;
    for cand in candidates {
        space
            .check(cand.id)
            .map_err(|e| SelectError::InvalidProblem(format!("candidate: {e}")))?;
        if !cand.weight.is_finite() || cand.weight < 0.0 {
            return Err(SelectError::InvalidProblem(format!(
                "candidate {} has invalid weight {}",
                cand.id, cand.weight
            )));
        }
        if cand.id == source {
            return Err(SelectError::InvalidProblem(format!(
                "candidate {} equals the source node",
                cand.id
            )));
        }
        if core.binary_search(&cand.id).is_ok() {
            return Err(SelectError::InvalidProblem(format!(
                "candidate {} is already a core neighbor; filter the \
                 frequency snapshot with `without` first",
                cand.id
            )));
        }
        if cand.max_hops == Some(0) {
            return Err(SelectError::InvalidProblem(format!(
                "candidate {}: max_hops must be ≥ 1 (the first hop is always taken)",
                cand.id
            )));
        }
    }
    // Snapshot-derived candidates arrive strictly increasing, which one
    // scan proves duplicate-free; anything else is sorted and scanned.
    if candidates.windows(2).any(|w| w[0].id >= w[1].id) {
        let mut ids: Vec<Id> = candidates.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        if let Some(id) = repeated(&ids) {
            return Err(SelectError::InvalidProblem(format!(
                "duplicate candidate {id}"
            )));
        }
    }
    Ok(())
}

/// An auxiliary-neighbor selection problem for a Pastry node (§IV).
///
/// The selecting node `source` holds core neighbors `core` (its routing
/// table) and has observed queries for `candidates`; it wants the `k`
/// candidates that minimise eq. (1) under the prefix-routing distance
/// estimate `d_uv = ⌈b/d⌉ − ⌊lcp(u,v)/d⌋` digits.
#[derive(Clone, Debug)]
pub struct PastryProblem {
    /// The identifier space.
    pub space: IdSpace,
    /// Digit width `d` in bits (the paper exposits `d = 1`; footnote 2
    /// notes the extension to arbitrary bases, which we support).
    pub digit_bits: u8,
    /// The selecting node `s`.
    pub source: Id,
    /// The core neighbors `N_s` (Pastry routing-table entries).
    pub core: Vec<Id>,
    /// The observed peers `V` with access frequencies.
    pub candidates: Vec<Candidate>,
    /// Number of auxiliary pointers to choose (clamped to `|V|`).
    pub k: usize,
}

impl PastryProblem {
    /// Validate and construct a problem instance.
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] on malformed input (see the variant
    /// docs).
    pub fn new(
        space: IdSpace,
        digit_bits: u8,
        source: Id,
        core: Vec<Id>,
        candidates: Vec<Candidate>,
        k: usize,
    ) -> Result<Self, SelectError> {
        validate_digit_bits(space, digit_bits)?;
        validate_common(space, source, &core, &candidates)?;
        Ok(PastryProblem {
            space,
            digit_bits,
            source,
            core,
            candidates,
            k,
        })
    }

    /// The effective number of pointers: `min(k, |V|)`.
    pub fn effective_k(&self) -> usize {
        self.k.min(self.candidates.len())
    }
}

/// An auxiliary-neighbor selection problem for a Chord node (§V).
///
/// Distances use the Chord estimate `d_uv = position of the leftmost 1 in
/// (v − u) mod 2^b` (paper eq. 6). The algorithms re-base all ids so the
/// selecting node sits at the ring origin (the paper's "zero-node").
#[derive(Clone, Debug)]
pub struct ChordProblem {
    /// The identifier space.
    pub space: IdSpace,
    /// The selecting node `s`.
    pub source: Id,
    /// The core neighbors `N_s` (Chord fingers and successors).
    pub core: Vec<Id>,
    /// The observed peers `V` with access frequencies.
    pub candidates: Vec<Candidate>,
    /// Number of auxiliary pointers to choose (clamped to `|V|`).
    pub k: usize,
}

impl ChordProblem {
    /// Validate and construct a problem instance.
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] on malformed input.
    pub fn new(
        space: IdSpace,
        source: Id,
        core: Vec<Id>,
        candidates: Vec<Candidate>,
        k: usize,
    ) -> Result<Self, SelectError> {
        validate_common(space, source, &core, &candidates)?;
        Ok(ChordProblem {
            space,
            source,
            core,
            candidates,
            k,
        })
    }

    /// The effective number of pointers: `min(k, |V|)`.
    pub fn effective_k(&self) -> usize {
        self.k.min(self.candidates.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    fn space() -> IdSpace {
        IdSpace::new(8).unwrap()
    }

    #[test]
    fn accepts_well_formed_problem() {
        let p = PastryProblem::new(
            space(),
            1,
            id(0),
            vec![id(128)],
            vec![Candidate::new(id(1), 2.0), Candidate::new(id(2), 3.0)],
            1,
        );
        assert!(p.is_ok());
        assert_eq!(p.unwrap().effective_k(), 1);
    }

    #[test]
    fn effective_k_clamps_to_candidates() {
        let p = ChordProblem::new(space(), id(0), vec![], vec![Candidate::new(id(1), 2.0)], 10)
            .unwrap();
        assert_eq!(p.effective_k(), 1);
    }

    #[test]
    fn rejects_candidate_equal_to_source() {
        let e = ChordProblem::new(space(), id(5), vec![], vec![Candidate::new(id(5), 1.0)], 1)
            .unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_candidate_in_core() {
        let e = ChordProblem::new(
            space(),
            id(0),
            vec![id(7)],
            vec![Candidate::new(id(7), 1.0)],
            1,
        )
        .unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_duplicate_candidates() {
        let e = ChordProblem::new(
            space(),
            id(0),
            vec![],
            vec![Candidate::new(id(7), 1.0), Candidate::new(id(7), 2.0)],
            1,
        )
        .unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_duplicate_core_neighbors() {
        let e = ChordProblem::new(space(), id(0), vec![id(7), id(7)], vec![], 1).unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    /// An `InvalidProblem` whose message says `what` about `culprit`.
    fn assert_invalid_naming(e: SelectError, what: &str, culprit: Id) {
        let SelectError::InvalidProblem(msg) = e else {
            panic!("expected InvalidProblem, got {e:?}");
        };
        assert!(
            msg.contains(what) && msg.contains(&culprit.to_string()),
            "{msg:?} should say {what:?} about {culprit}"
        );
    }

    fn cands(ids: &[u128]) -> Vec<Candidate> {
        ids.iter().map(|&v| Candidate::new(id(v), 1.0)).collect()
    }

    #[test]
    fn unsorted_inputs_take_the_sort_and_scan_path() {
        let e = ChordProblem::new(space(), id(0), vec![], cands(&[9, 3, 200, 9]), 1).unwrap_err();
        assert_invalid_naming(e, "duplicate candidate", id(9));
        let e = PastryProblem::new(space(), 1, id(0), vec![id(70), id(5), id(70)], vec![], 1)
            .unwrap_err();
        assert_invalid_naming(e, "duplicate core neighbor", id(70));
        let core = vec![id(90), id(12), id(40)];
        let e = ChordProblem::new(space(), id(0), core.clone(), cands(&[1, 40]), 1).unwrap_err();
        assert_invalid_naming(e, "already a core neighbor", id(40));
        // Distinct but unsorted input is well-formed.
        assert!(ChordProblem::new(space(), id(0), core, cands(&[5, 3]), 1).is_ok());
    }

    #[test]
    fn sorted_inputs_pass_the_scan() {
        let sorted: Vec<u128> = (1..=100).filter(|v| v % 10 != 0).collect();
        let core = vec![id(10), id(20), id(30)];
        assert!(PastryProblem::new(space(), 2, id(0), core.clone(), cands(&sorted), 4).is_ok());
        // The scan still catches adjacent duplicates in otherwise sorted input.
        let mut dup = sorted;
        dup.insert(1, 1);
        let e = ChordProblem::new(space(), id(0), core, cands(&dup), 4).unwrap_err();
        assert_invalid_naming(e, "duplicate candidate", id(1));
    }

    #[test]
    fn rejects_out_of_space_ids() {
        let e = ChordProblem::new(
            space(),
            id(0),
            vec![],
            vec![Candidate::new(id(256), 1.0)],
            1,
        )
        .unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_bad_weights() {
        for w in [f64::NAN, f64::INFINITY, -1.0] {
            let e = ChordProblem::new(space(), id(0), vec![], vec![Candidate::new(id(1), w)], 1)
                .unwrap_err();
            assert!(matches!(e, SelectError::InvalidProblem(_)), "weight {w}");
        }
    }

    #[test]
    fn rejects_zero_hop_bound() {
        let e = ChordProblem::new(
            space(),
            id(0),
            vec![],
            vec![Candidate::with_max_hops(id(1), 1.0, 0)],
            1,
        )
        .unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_invalid_digit_bits() {
        let e = PastryProblem::new(space(), 0, id(0), vec![], vec![], 1).unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_digit_bits_beyond_u16() {
        let wide = IdSpace::new(64).unwrap();
        let e = PastryProblem::new(wide, 17, id(0), vec![], vec![], 1).unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
        assert!(PastryProblem::new(wide, 16, id(0), vec![], vec![], 1).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let e = SelectError::QosInfeasible { required: 5, k: 2 };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('2'));
    }
}
