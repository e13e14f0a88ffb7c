//! Property tests for sorted-neighbour evaluation: `pastry_cost`,
//! `chord_cost` and the two QoS checks must equal their definitional
//! forms — `Σ w·(1 + d(v, N ∪ A))` and `1 + d(v, N ∪ A) ≤ max_hops` with
//! `d` taken by `*_set_distance` over the whole set — bit for bit.
//!
//! Widths include ragged digit splits (`b mod d ≠ 0`) and 128-bit
//! spaces. Ids cluster around a random centre so shared prefixes of every
//! length occur, small rings make Chord wrap-around common, and the
//! auxiliary set may be empty, overlap the core, or hold candidate ids
//! or the source itself.

use std::collections::BTreeSet;

use peercache_core::cost::{
    chord_cost, chord_qos_satisfied, chord_set_distance, pastry_cost, pastry_qos_satisfied,
    pastry_set_distance,
};
use peercache_core::{Candidate, ChordProblem, PastryProblem};
use peercache_id::{Id, IdSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Id widths: small rings, widths no digit size above 1 divides evenly,
/// and the full 128 bits.
const WIDTHS: [u8; 8] = [3, 5, 7, 13, 31, 64, 100, 128];

/// Weight scales: a sum over weights this far apart depends on its order.
const SCALES: [f64; 6] = [1e-4, 0.1, 1.0, 3.0, 1e3, 1e7];

/// One generated instance.
struct Case {
    space: IdSpace,
    source: Id,
    core: Vec<Id>,
    candidates: Vec<Candidate>,
    aux: Vec<Id>,
}

fn case(bits: u8, seed: u64) -> Case {
    let space = IdSpace::new(bits).expect("valid width");
    let mut rng = StdRng::seed_from_u64(seed);
    // Flipping only the low `span` bits of a shared centre keeps the top
    // bits common, so long prefixes occur even at 128 bits.
    let centre: u128 = rng.gen();
    let draw = |rng: &mut StdRng| {
        let span = rng.gen_range(0..=u32::from(bits));
        let flip = if span == 0 {
            0
        } else {
            rng.gen::<u128>() >> (128 - span)
        };
        space.normalize(centre ^ flip)
    };
    let target = rng.gen_range(1..48usize);
    let mut distinct = BTreeSet::new();
    for _ in 0..4 * target {
        distinct.insert(draw(&mut rng));
        if distinct.len() == target {
            break;
        }
    }
    let mut pool: Vec<Id> = distinct.into_iter().collect();
    pool.shuffle(&mut rng);
    let source = pool[0];
    let n_core = rng.gen_range(0..=(pool.len() - 1).min(6));
    let core = pool[1..=n_core].to_vec();
    let candidates = pool[1 + n_core..]
        .iter()
        .map(|&id| {
            let weight = rng.gen::<f64>() * SCALES[rng.gen_range(0..SCALES.len())];
            if rng.gen_bool(0.3) {
                Candidate::with_max_hops(id, weight, rng.gen_range(1..=u32::from(bits) + 1))
            } else {
                Candidate::new(id, weight)
            }
        })
        .collect();
    let aux = (0..rng.gen_range(0..=6usize))
        .map(|_| {
            if rng.gen_bool(0.7) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                draw(&mut rng)
            }
        })
        .collect();
    Case {
        space,
        source,
        core,
        candidates,
        aux,
    }
}

fn definitional_cost(candidates: &[Candidate], dist: impl Fn(Id) -> u32) -> f64 {
    candidates
        .iter()
        .map(|c| c.weight * (1.0 + f64::from(dist(c.id))))
        .sum()
}

fn definitional_qos(candidates: &[Candidate], dist: impl Fn(Id) -> u32) -> bool {
    candidates.iter().all(|c| match c.max_hops {
        None => true,
        Some(bound) => dist(c.id) < bound,
    })
}

fn pastry_matches(problem: &PastryProblem, aux: &[Id]) -> Result<(), TestCaseError> {
    let set: Vec<Id> = problem.core.iter().chain(aux).copied().collect();
    let dist = |v| pastry_set_distance(problem.space, problem.digit_bits, v, &set);
    prop_assert_eq!(
        pastry_cost(problem, aux).to_bits(),
        definitional_cost(&problem.candidates, dist).to_bits(),
        "cost, bits {} d {} aux {:?}",
        problem.space.bits(),
        problem.digit_bits,
        aux
    );
    prop_assert_eq!(
        pastry_qos_satisfied(problem, aux),
        definitional_qos(&problem.candidates, dist)
    );
    Ok(())
}

fn chord_matches(problem: &ChordProblem, aux: &[Id]) -> Result<(), TestCaseError> {
    let set: Vec<Id> = problem.core.iter().chain(aux).copied().collect();
    let dist = |v| chord_set_distance(problem.space, problem.source, v, &set);
    prop_assert_eq!(
        chord_cost(problem, aux).to_bits(),
        definitional_cost(&problem.candidates, dist).to_bits(),
        "cost, bits {} aux {:?}",
        problem.space.bits(),
        aux
    );
    prop_assert_eq!(
        chord_qos_satisfied(problem, aux),
        definitional_qos(&problem.candidates, dist)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn pastry_sorted_neighbour_cost_is_the_definition(
        width in 0..WIDTHS.len(),
        digit in 1u8..=16,
        seed in any::<u64>(),
    ) {
        let bits = WIDTHS[width];
        let c = case(bits, seed);
        let problem =
            PastryProblem::new(c.space, digit.min(bits), c.source, c.core, c.candidates, 1)
                .expect("generated problems are well-formed");
        pastry_matches(&problem, &c.aux)?;
    }

    #[test]
    fn chord_sorted_neighbour_cost_is_the_definition(
        width in 0..WIDTHS.len(),
        seed in any::<u64>(),
    ) {
        let c = case(WIDTHS[width], seed);
        let problem = ChordProblem::new(c.space, c.source, c.core, c.candidates, 1)
            .expect("generated problems are well-formed");
        chord_matches(&problem, &c.aux)?;
    }
}

fn id(v: u128) -> Id {
    Id::new(v)
}

#[test]
fn empty_neighbour_set_takes_the_worst_case_estimate() {
    let space = IdSpace::new(7).expect("valid width");
    let candidates = vec![Candidate::new(id(3), 2.0), Candidate::new(id(100), 0.5)];
    let pastry =
        PastryProblem::new(space, 3, id(0), vec![], candidates.clone(), 1).expect("well-formed");
    // ⌈7 / 3⌉ = 3 digits to fix for every candidate.
    assert_eq!(pastry_cost(&pastry, &[]), 2.0 * 4.0 + 0.5 * 4.0);
    pastry_matches(&pastry, &[]).expect("matches the definition");
    let chord = ChordProblem::new(space, id(0), vec![], candidates, 1).expect("well-formed");
    assert_eq!(chord_cost(&chord, &[]), 2.0 * 8.0 + 0.5 * 8.0);
    chord_matches(&chord, &[]).expect("matches the definition");
}

#[test]
fn chord_neighbours_past_zero_serve_targets_past_zero() {
    // Source 250 on an 8-bit ring: neighbour 2 sits at offset 8 and the
    // candidate 5 at offset 11, so 2 serves it (d = bitlen(3) = 2), while
    // neighbour 240 sits 246 ids clockwise, past the candidate.
    let space = IdSpace::new(8).expect("valid width");
    let problem = ChordProblem::new(
        space,
        id(250),
        vec![id(240), id(2)],
        vec![Candidate::new(id(5), 1.0), Candidate::new(id(245), 1.0)],
        1,
    )
    .expect("well-formed");
    chord_matches(&problem, &[]).expect("matches the definition");
    chord_matches(&problem, &[id(4), id(251)]).expect("matches the definition");
    assert_eq!(chord_set_distance(space, id(250), id(5), &[id(2)]), 2);
}

#[test]
fn aux_overlapping_core_and_candidates_matches_the_definition() {
    let space = IdSpace::new(128).expect("valid width");
    let top = 1u128 << 127;
    let core = vec![id(top | 0xff), id(0x10)];
    let candidates = vec![
        Candidate::new(id(top | 0xfe), 1.5),
        Candidate::new(id(0x11), 2.5),
        Candidate::new(id(u128::MAX), 0.25),
    ];
    let aux = [id(top | 0xff), id(0x11), id(0x11), id(0)];
    let pastry =
        PastryProblem::new(space, 5, id(0), core.clone(), candidates.clone(), 2).expect("valid");
    pastry_matches(&pastry, &aux).expect("matches the definition");
    let chord = ChordProblem::new(space, id(0), core, candidates, 2).expect("valid");
    chord_matches(&chord, &aux).expect("matches the definition");
}
