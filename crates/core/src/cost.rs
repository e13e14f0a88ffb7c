//! Direct evaluation of the paper's objective (eq. 1).
//!
//! These evaluators compute `Cost(A) = Σ_v f_v (1 + d(v, N ∪ A))` with no
//! dynamic programming. They are the ground truth every optimiser in this
//! crate is validated against, and the reporting path for experiments.
//!
//! [`pastry_set_distance`] and [`chord_set_distance`] are the definition
//! of `d`: a minimum over the whole set. The cost and QoS evaluators use
//! sorted-neighbour evaluation instead. They sort `N ∪ A` once, find each
//! candidate's best neighbour by binary search, and apply the definition
//! to the one- or two-element window that holds it. Each term is
//! therefore the definitional term, and terms are summed in candidate
//! order, so the result is bit-identical to the definition for any
//! weights, at `O((|V| + |N ∪ A|) · log |N ∪ A|)` instead of
//! `O(|V| · |N ∪ A|)`.

use peercache_id::{Id, IdSpace};

use crate::problem::{Candidate, ChordProblem, PastryProblem};

/// Pastry distance estimate `d(v, S)`: the minimum over `w ∈ S` of the
/// digits-to-fix estimate (paper §IV). With `S = ∅` the estimate is the
/// full digit count (nothing is known about `v`, routing may fix every
/// digit).
pub fn pastry_set_distance(space: IdSpace, digit_bits: u8, v: Id, set: &[Id]) -> u32 {
    // No estimate exceeds the digit count, so folding down from it yields
    // the minimum, and the count itself for `S = ∅`.
    space
        .digit_count(digit_bits)
        .and_then(|count| {
            set.iter().try_fold(u32::from(count), |best, &w| {
                Ok(best.min(space.pastry_hops(v, w, digit_bits)?))
            })
        })
        .expect("validated digit width")
}

/// Chord distance estimate `d(S, v)` as seen from `source`: the minimum
/// over usable `w ∈ S` of the leftmost-one estimate from `w` to `v`
/// (paper eq. 6).
///
/// Only neighbors on the clockwise arc from `source` to `v` are usable —
/// Chord forwards exclusively to a neighbor *between* the current node
/// and the target, so a neighbor past `v` never serves a lookup for `v`
/// (this is also what the paper's recurrences credit). With no usable
/// neighbor the estimate is `b` (worst case).
pub fn chord_set_distance(space: IdSpace, source: Id, v: Id, set: &[Id]) -> u32 {
    let dv = space.clockwise_distance(source, v);
    set.iter()
        .filter(|&&w| space.clockwise_distance(source, w) <= dv)
        .map(|&w| space.chord_hops(w, v))
        .min()
        .unwrap_or(space.max_chord_hops())
}

/// `v ↦ d(v, N ∪ A)` for a Pastry problem, by sorted-neighbour
/// evaluation. In bit-string order, `x ≤ y ≤ v` implies
/// `lcp(x, v) ≤ lcp(y, v)`, so the longest prefix shared with `v` belongs
/// to one of the two ids around `v`'s insertion point, and the estimate
/// only falls as the prefix grows. `aux` is not validated by the problem
/// types, so its ids are reduced into the space first: the estimate masks
/// to `b` bits anyway, and masked values sort in bit-string order.
fn pastry_distance(problem: &PastryProblem, aux: &[Id]) -> impl Fn(Id) -> u32 {
    let (space, digit_bits) = (problem.space, problem.digit_bits);
    let mut set: Vec<Id> = problem
        .core
        .iter()
        .chain(aux)
        .map(|w| space.normalize(w.value()))
        .collect();
    set.sort_unstable();
    move |v| {
        let at = set.partition_point(|&w| w < v);
        let window = &set[at.saturating_sub(1)..set.len().min(at + 1)];
        pastry_set_distance(space, digit_bits, v, window)
    }
}

/// `v ↦ d(N ∪ A, v)` from the problem's source, by sorted-neighbour
/// evaluation. A usable neighbour `w` sits at clockwise offset
/// `o_w ≤ o_v` from the source, and its estimate is the bit length of
/// `o_v − o_w`, so the usable neighbour with the largest offset is a
/// minimiser.
fn chord_distance(problem: &ChordProblem, aux: &[Id]) -> impl Fn(Id) -> u32 {
    let (space, source) = (problem.space, problem.source);
    let mut set: Vec<Id> = problem.core.iter().chain(aux).copied().collect();
    set.sort_unstable_by_key(|&w| space.clockwise_distance(source, w));
    move |v| {
        let dv = space.clockwise_distance(source, v);
        let usable = set.partition_point(|&w| space.clockwise_distance(source, w) <= dv);
        chord_set_distance(space, source, v, &set[usable.saturating_sub(1)..usable])
    }
}

fn total_cost(candidates: &[Candidate], dist: impl Fn(Id) -> u32) -> f64 {
    candidates
        .iter()
        .map(|c| c.weight * (1.0 + f64::from(dist(c.id))))
        .sum()
}

#[allow(clippy::int_plus_one)] // mirrors the paper's `1 + d(v, N ∪ A) ≤ x` form
fn qos_satisfied(candidates: &[Candidate], dist: impl Fn(Id) -> u32) -> bool {
    candidates.iter().all(|c| match c.max_hops {
        None => true,
        Some(bound) => 1 + dist(c.id) <= bound,
    })
}

/// Evaluate eq. (1) for a Pastry problem with auxiliary set `aux`.
pub fn pastry_cost(problem: &PastryProblem, aux: &[Id]) -> f64 {
    total_cost(&problem.candidates, pastry_distance(problem, aux))
}

/// Evaluate eq. (1) for a Chord problem with auxiliary set `aux`.
pub fn chord_cost(problem: &ChordProblem, aux: &[Id]) -> f64 {
    total_cost(&problem.candidates, chord_distance(problem, aux))
}

/// Whether every QoS delay bound in `candidates` is met by `N ∪ A` under
/// the Pastry distance estimate: `1 + d(v, N ∪ A) ≤ max_hops`.
pub fn pastry_qos_satisfied(problem: &PastryProblem, aux: &[Id]) -> bool {
    qos_satisfied(&problem.candidates, pastry_distance(problem, aux))
}

/// Whether every QoS delay bound in `candidates` is met by `N ∪ A` under
/// the Chord distance estimate.
pub fn chord_qos_satisfied(problem: &ChordProblem, aux: &[Id]) -> bool {
    qos_satisfied(&problem.candidates, chord_distance(problem, aux))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Candidate;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    fn space() -> IdSpace {
        IdSpace::new(4).unwrap()
    }

    #[test]
    fn pastry_set_distance_takes_minimum() {
        let s = space();
        // v = 0b1011; 0b1111 shares 1 bit (dist 3), 0b1010 shares 3 (dist 1).
        let d = pastry_set_distance(s, 1, id(0b1011), &[id(0b1111), id(0b1010)]);
        assert_eq!(d, 1);
    }

    #[test]
    fn pastry_set_distance_empty_is_digit_count() {
        assert_eq!(pastry_set_distance(space(), 1, id(3), &[]), 4);
        assert_eq!(pastry_set_distance(space(), 2, id(3), &[]), 2);
    }

    #[test]
    fn pastry_member_distance_is_zero() {
        assert_eq!(pastry_set_distance(space(), 1, id(3), &[id(3)]), 0);
    }

    #[test]
    fn chord_set_distance_respects_direction() {
        let s = space();
        // From source 0 to v = 4: neighbor 3 precedes v (cw dist 3 ≤ 4)
        // and is 1 away; neighbor 5 is past v and unusable.
        assert_eq!(chord_set_distance(s, id(0), id(4), &[id(3)]), 1);
        assert_eq!(chord_set_distance(s, id(0), id(4), &[id(5)]), 4);
        assert_eq!(chord_set_distance(s, id(0), id(4), &[id(3), id(5)]), 1);
    }

    #[test]
    fn chord_set_distance_ignores_neighbors_past_target() {
        let s = space();
        // Neighbor 15 is 2 ids behind v = 1 on the raw ring (bitlen 2),
        // but from source 0 it lies PAST v, so Chord cannot use it.
        assert_eq!(chord_set_distance(s, id(0), id(1), &[id(15)]), 4);
        // From source 14 the same neighbor precedes v and is usable.
        assert_eq!(chord_set_distance(s, id(14), id(1), &[id(15)]), 2);
    }

    #[test]
    fn chord_set_distance_empty_is_bits() {
        assert_eq!(chord_set_distance(space(), id(0), id(4), &[]), 4);
    }

    #[test]
    fn pastry_cost_matches_hand_computation() {
        let s = space();
        let problem = PastryProblem::new(
            s,
            1,
            id(0b0000),
            vec![id(0b1000)], // core: shares 0 bits with 0b0111 → d 4... etc.
            vec![
                Candidate::new(id(0b1001), 2.0), // lcp with core 1000 = 3 → d 1
                Candidate::new(id(0b0111), 5.0), // lcp with core = 0 → d 4
            ],
            1,
        )
        .unwrap();
        // No aux: cost = 2(1+1) + 5(1+4) = 29.
        assert_eq!(pastry_cost(&problem, &[]), 29.0);
        // Aux at 0b0111: its distance drops to 0 → 2(1+1) + 5(1+0) = 9.
        assert_eq!(pastry_cost(&problem, &[id(0b0111)]), 9.0);
    }

    #[test]
    fn chord_cost_matches_hand_computation() {
        let s = space();
        let problem = ChordProblem::new(
            s,
            id(0),
            vec![id(1)],
            vec![
                Candidate::new(id(2), 1.0), // from core 1: cw 1 → d 1
                Candidate::new(id(9), 3.0), // from core 1: cw 8 → d 4
            ],
            1,
        )
        .unwrap();
        assert_eq!(chord_cost(&problem, &[]), 1.0 * 2.0 + 3.0 * 5.0);
        // Aux at 9 zeroes its own distance.
        assert_eq!(chord_cost(&problem, &[id(9)]), 1.0 * 2.0 + 3.0 * 1.0);
    }

    #[test]
    fn qos_checks_use_the_one_plus_distance_form() {
        let s = space();
        let problem = ChordProblem::new(
            s,
            id(0),
            vec![],
            vec![Candidate::with_max_hops(id(8), 1.0, 1)],
            1,
        )
        .unwrap();
        // Bound 1 hop ⇒ d must be 0 ⇒ only the node itself as neighbor works.
        assert!(!chord_qos_satisfied(&problem, &[]));
        assert!(chord_qos_satisfied(&problem, &[id(8)]));
    }
}
