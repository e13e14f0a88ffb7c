//! Differential test: `SimOverlay::select_oblivious_uniform` against the
//! reference composition it stands for — a uniform `FrequencySnapshot`
//! over the live ring, `without` the node and its core neighbours, then
//! `{Chord,Pastry}Problem::new` and `baseline::{chord,pastry}_oblivious`.
//!
//! Twin RNGs feed the two paths. Every node's `aux` and `cost` bits must
//! agree, and so must the next `u64` of each stream after the sweep, which
//! pins the stream position. The reference cost is also checked against
//! the definitional eq. 1 sum over `*_set_distance`.

use peercache_core::cost::{chord_set_distance, pastry_set_distance};
use peercache_core::{baseline, Candidate, ChordProblem, PastryProblem, SelectError, Selection};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_pastry::RoutingMode;
use peercache_sim::{OverlayKind, SimOverlay};
use peercache_workload::random_ids;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const NODES: usize = 64;
const K: usize = 6;
const SEEDS: u64 = 16;

fn kinds() -> [OverlayKind; 4] {
    [
        OverlayKind::Chord,
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        OverlayKind::Tapestry { digit_bits: 1 },
        OverlayKind::SkipGraph,
    ]
}

fn build(kind: OverlayKind, seed: u64) -> (SimOverlay, Vec<Id>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(IdSpace::paper(), NODES, &mut rng);
    (
        SimOverlay::build(kind, IdSpace::paper(), &ids, &mut rng),
        ids,
    )
}

fn definitional_cost(candidates: &[Candidate], dist: impl Fn(Id) -> u32) -> f64 {
    candidates
        .iter()
        .map(|c| c.weight * (1.0 + f64::from(dist(c.id))))
        .sum()
}

/// The baseline selection of `node` by the reference composition.
fn reference(overlay: &SimOverlay, node: Id, rng: &mut StdRng) -> Result<Selection, SelectError> {
    let space = IdSpace::paper();
    let core = overlay.core_neighbors(node);
    let uniform = FrequencySnapshot::from_pairs(overlay.live_ids().into_iter().map(|id| (id, 1.0)));
    let candidates: Vec<Candidate> = uniform
        .without(core.iter().copied().chain(std::iter::once(node)))
        .iter()
        .map(|(id, weight)| Candidate::new(id, weight))
        .collect();
    let (selection, definition) = match overlay.kind() {
        OverlayKind::Chord | OverlayKind::SkipGraph => {
            let problem = ChordProblem::new(space, node, core, candidates, K)?;
            let sel = baseline::chord_oblivious(&problem, rng);
            let set: Vec<Id> = problem.core.iter().chain(&sel.aux).copied().collect();
            let definition = definitional_cost(&problem.candidates, |v| {
                chord_set_distance(space, node, v, &set)
            });
            (sel, definition)
        }
        OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
            let problem = PastryProblem::new(space, digit_bits, node, core, candidates, K)?;
            let sel = baseline::pastry_oblivious(&problem, rng);
            let set: Vec<Id> = problem.core.iter().chain(&sel.aux).copied().collect();
            let definition = definitional_cost(&problem.candidates, |v| {
                pastry_set_distance(space, digit_bits, v, &set)
            });
            (sel, definition)
        }
    };
    assert_eq!(
        selection.cost.to_bits(),
        definition.to_bits(),
        "node {node}: cost differs from the eq. 1 definition"
    );
    Ok(selection)
}

/// Select for every node of `nodes` through both paths on twin streams.
fn check(label: &str, overlay: &SimOverlay, nodes: &[Id], seed: u64) {
    let mut fast_rng = StdRng::seed_from_u64(seed);
    let mut reference_rng = StdRng::seed_from_u64(seed);
    for &node in nodes {
        let fast = overlay.select_oblivious_uniform(node, K, &mut fast_rng);
        match (fast, reference(overlay, node, &mut reference_rng)) {
            (Ok(fast), Ok(expected)) => {
                assert_eq!(fast.aux, expected.aux, "{label}: node {node}: aux");
                assert_eq!(
                    fast.cost.to_bits(),
                    expected.cost.to_bits(),
                    "{label}: node {node}: cost bits"
                );
            }
            (fast, expected) => assert!(
                fast.is_err() && expected.is_err(),
                "{label}: node {node}: {fast:?} vs {expected:?}"
            ),
        }
    }
    assert_eq!(
        fast_rng.next_u64(),
        reference_rng.next_u64(),
        "{label}: RNG stream position diverged"
    );
}

#[test]
fn matches_the_reference_composition_on_every_substrate() {
    for kind in kinds() {
        for seed in 0..SEEDS {
            let (overlay, ids) = build(kind, seed);
            check(
                &format!("{kind:?} seed {seed}"),
                &overlay,
                &ids,
                seed.wrapping_add(3),
            );
        }
    }
}

#[test]
fn matches_the_reference_composition_on_chord_with_failed_nodes() {
    for seed in 0..SEEDS {
        let (mut overlay, ids) = build(OverlayKind::Chord, seed);
        // Crash every fifth node without stabilizing, so the survivors'
        // fingers and successor lists still name dead nodes.
        for &dead in ids.iter().step_by(5) {
            assert!(overlay.fail(dead));
        }
        assert!(
            overlay.live_ids().iter().any(|&n| overlay
                .core_neighbors(n)
                .iter()
                .any(|&c| !overlay.is_live(c))),
            "seed {seed}: some core set must name a dead node"
        );
        // Dead nodes select too: their core is empty, their pool the ring.
        check(
            &format!("failed Chord seed {seed}"),
            &overlay,
            &ids,
            seed.wrapping_add(3),
        );
    }
}
