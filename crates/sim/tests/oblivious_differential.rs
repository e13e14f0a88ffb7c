//! Differential test: the frequency-oblivious ring draw against the
//! reference composition it stands for — a uniform `FrequencySnapshot`
//! over the live ring, `without` the node and its core neighbours, then
//! `{Chord,Pastry}Problem::new` and `baseline::{chord,pastry}_oblivious`.
//! Both paths draw through one drawer, so the reference also re-draws
//! each set by the historical slice-balanced code, kept in this file, and
//! must match it set for set and stream position for stream position.
//!
//! Twin RNGs feed the two paths. `SimOverlay::select_oblivious_uniform`
//! must agree with the reference on every node's `aux` and `cost` bits,
//! and so must the next `u64` of each stream after the sweep, which pins
//! the stream position. The stable set-up's own draw
//! (`RuntimeFixture::oblivious_table`) must agree with the reference on
//! every node's `aux`. The reference cost is also checked against the
//! definitional eq. 1 sum over `*_set_distance`.
//!
//! Each sweep counts the draws that reach the leftover shuffle (some
//! slice holds fewer ids than its quota), and every substrate must reach
//! it: a second, larger `k` makes Tapestry's slices fall short too.

use std::collections::BTreeMap;

use peercache_core::cost::{chord_set_distance, pastry_set_distance};
use peercache_core::{baseline, Candidate, ChordProblem, PastryProblem, SelectError, Selection};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_pastry::RoutingMode;
use peercache_sim::{OverlayKind, RuntimeFixture, SimOverlay, StableConfig};
use peercache_workload::random_ids;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

const NODES: usize = 64;
/// The budgets each sweep runs at: `k = log₂ n`, and one large enough
/// that every substrate has slices short of their quota.
const KS: [usize; 2] = [6, 24];
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

/// The slice-balanced draw as the baseline made it before the ring
/// draw, kept here as an independent reference: one list per slice in a
/// `BTreeMap`, each shuffled in key order with its quota drained to the
/// set and its rest to a leftover pool, which is shuffled and drained
/// only when the set is short. Also returns whether the draw reached
/// that leftover shuffle.
fn historical_draw(
    ids: impl Iterator<Item = Id>,
    slice: impl Fn(Id) -> u32,
    k: usize,
    rng: &mut StdRng,
) -> (Vec<Id>, bool) {
    let mut slices: BTreeMap<u32, Vec<Id>> = BTreeMap::new();
    for id in ids {
        slices.entry(slice(id)).or_default().push(id);
    }
    let total: usize = slices.values().map(Vec::len).sum();
    let k = k.min(total);
    if k == 0 {
        return (Vec::new(), false);
    }
    let (per, extra) = (k / slices.len(), k % slices.len());
    let mut chosen = Vec::with_capacity(k);
    let mut leftovers: Vec<Id> = Vec::new();
    for (i, (_, mut ids)) in slices.into_iter().enumerate() {
        let quota = per + usize::from(i < extra);
        ids.shuffle(rng);
        let take = quota.min(ids.len());
        chosen.extend(ids.drain(..take));
        leftovers.extend(ids);
    }
    let short = chosen.len() < k;
    if short {
        leftovers.shuffle(rng);
        let need = k - chosen.len();
        chosen.extend(leftovers.drain(..need));
    }
    chosen.sort();
    (chosen, short)
}

/// The baseline selection of `node` by the reference composition, and
/// whether its draw reaches the leftover shuffle. The problem path's set
/// and stream position must equal [`historical_draw`]'s.
fn reference(
    overlay: &SimOverlay,
    node: Id,
    k: usize,
    rng: &mut StdRng,
) -> Result<(Selection, bool), SelectError> {
    let space = IdSpace::paper();
    let core = overlay.core_neighbors(node);
    let uniform = FrequencySnapshot::from_pairs(overlay.live_ids().into_iter().map(|id| (id, 1.0)));
    let candidates: Vec<Candidate> = uniform
        .without(core.iter().copied().chain(std::iter::once(node)))
        .iter()
        .map(|(id, weight)| Candidate::new(id, weight))
        .collect();
    let ids = || candidates.iter().map(|c| c.id);
    let mut historical_rng = rng.clone();
    let (selection, definition, (historical, short)) = match overlay.kind() {
        OverlayKind::Chord | OverlayKind::SkipGraph => {
            let problem = ChordProblem::new(space, node, core, candidates.clone(), k)?;
            let sel = baseline::chord_oblivious(&problem, rng);
            let set: Vec<Id> = problem.core.iter().chain(&sel.aux).copied().collect();
            let definition = definitional_cost(&problem.candidates, |v| {
                chord_set_distance(space, node, v, &set)
            });
            let slice = |v| space.chord_hops(node, v);
            (
                sel,
                definition,
                historical_draw(ids(), slice, k, &mut historical_rng),
            )
        }
        OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
            let problem = PastryProblem::new(space, digit_bits, node, core, candidates.clone(), k)?;
            let sel = baseline::pastry_oblivious(&problem, rng);
            let set: Vec<Id> = problem.core.iter().chain(&sel.aux).copied().collect();
            let definition = definitional_cost(&problem.candidates, |v| {
                pastry_set_distance(space, digit_bits, v, &set)
            });
            let slice = |v| {
                let digits = space.common_prefix_digits(v, node, digit_bits);
                u32::from(digits.expect("valid digit width"))
            };
            (
                sel,
                definition,
                historical_draw(ids(), slice, k, &mut historical_rng),
            )
        }
    };
    assert_eq!(selection.aux, historical, "node {node}: historical draw");
    assert_eq!(
        rng.clone().next_u64(),
        historical_rng.next_u64(),
        "node {node}: historical stream position"
    );
    assert_eq!(
        selection.cost.to_bits(),
        definition.to_bits(),
        "node {node}: cost differs from the eq. 1 definition"
    );
    Ok((selection, short))
}

/// Select for every node of `nodes` through both paths on twin streams;
/// returns how many draws reached the leftover shuffle.
fn check(label: &str, overlay: &SimOverlay, nodes: &[Id], k: usize, seed: u64) -> usize {
    let mut fast_rng = StdRng::seed_from_u64(seed);
    let mut reference_rng = StdRng::seed_from_u64(seed);
    let mut leftovers = 0;
    for &node in nodes {
        let fast = overlay.select_oblivious_uniform(node, k, &mut fast_rng);
        match (fast, reference(overlay, node, k, &mut reference_rng)) {
            (Ok(fast), Ok((expected, short))) => {
                assert_eq!(fast.aux, expected.aux, "{label}: node {node}: aux");
                assert_eq!(
                    fast.cost.to_bits(),
                    expected.cost.to_bits(),
                    "{label}: node {node}: cost bits"
                );
                leftovers += usize::from(short);
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
    leftovers
}

#[test]
fn matches_the_reference_composition_on_every_substrate() {
    for kind in kinds() {
        let mut leftovers = 0;
        for k in KS {
            for seed in 0..SEEDS {
                let (overlay, ids) = build(kind, seed);
                let label = format!("{kind:?} k {k} seed {seed}");
                leftovers += check(&label, &overlay, &ids, k, seed.wrapping_add(3));
            }
        }
        assert!(
            leftovers > 0,
            "{kind:?}: no draw reached the leftover shuffle"
        );
    }
}

#[test]
fn the_stable_set_up_draws_the_reference_sets() {
    for kind in kinds() {
        let mut leftovers = 0;
        for (seed, k) in (0..4).flat_map(|seed| KS.map(|k| (seed, k))) {
            let mut config = StableConfig::paper_defaults(kind, NODES, seed);
            config.k = k;
            config.queries = 1;
            let fixture = RuntimeFixture::build(&config);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
            for (node, aux) in fixture.oblivious_table() {
                let label = format!("{kind:?} k {k} seed {seed}: node {node}");
                let Ok((expected, short)) = reference(fixture.overlay(), node, k, &mut rng) else {
                    panic!("{label}: the stable problem is malformed");
                };
                assert_eq!(aux, expected.aux, "{label}: aux");
                leftovers += usize::from(short);
            }
        }
        assert!(
            leftovers > 0,
            "{kind:?}: no set-up draw reached the leftover shuffle"
        );
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
        for k in KS {
            check(
                &format!("failed Chord k {k} seed {seed}"),
                &overlay,
                &ids,
                k,
                seed.wrapping_add(3),
            );
        }
    }
}
