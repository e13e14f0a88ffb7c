//! Differential test: `SimOverlay::select_aware_into`, which fills the
//! core set and the candidate pool into its `SelectScratch` in place and
//! solves through the scratch's workspaces, against the reference
//! composition it stands for — `core_neighbors`, the snapshot `without`
//! the node and its core, `{Chord,Pastry}Problem::new` and a one-shot
//! solve (`select_fast`, or `select_greedy` for the prefix overlays; the
//! skip graph's rank-space mapping is kept here too).
//!
//! Every overlay is churned first: nodes crash without a repair, so
//! surviving tables keep dead core entries, and some rejoin.
//! Then every node, live or dead, is solved at budgets 0, 1, 3 and 10
//! through **one** scratch, with pools drawn from the whole membership
//! (the node itself, its core neighbors and dead ids included) whose
//! sizes run from empty to well past the budget, shrinking and growing
//! between calls. The results, errors included, must be equal, cost bits
//! and all.

use peercache_core::chord::select_fast;
use peercache_core::pastry::select_greedy;
use peercache_core::{Candidate, ChordProblem, PastryProblem, SelectError, Selection};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_pastry::RoutingMode;
use peercache_sim::overlay::SelectScratch;
use peercache_sim::{OverlayKind, SimOverlay};
use peercache_workload::random_ids;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const NODES: usize = 96;
const KS: [usize; 4] = [0, 1, 3, 10];
/// Pool sizes cycled through, node after node: empty, under, at and
/// past every budget, in an order that shrinks and grows the buffers.
const POOLS: [usize; 9] = [0, 14, 3, 40, 1, 10, 11, 90, 6];

fn kinds() -> [OverlayKind; 4] {
    [
        OverlayKind::Chord,
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        OverlayKind::Tapestry { digit_bits: 2 },
        OverlayKind::SkipGraph,
    ]
}

/// The overlay over `NODES` paper-width ids after churn without repair:
/// a fifth of the nodes crash and every other one of them rejoins (the
/// skip graph relinks on a join), then a tenth more crash, so surviving
/// tables keep dead entries on every substrate.
fn churned(kind: OverlayKind, seed: u64) -> (SimOverlay, Vec<Id>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(IdSpace::paper(), NODES, &mut rng);
    let mut overlay = SimOverlay::build(kind, IdSpace::paper(), &ids, &mut rng);
    let mut order = ids.clone();
    order.shuffle(&mut rng);
    let (first, second) = order.split_at(NODES / 5);
    for &id in first {
        assert!(overlay.fail(id));
    }
    for &id in first.iter().step_by(2) {
        assert!(overlay.join(id, &mut rng));
    }
    for &id in &second[..NODES / 10] {
        assert!(overlay.fail(id));
    }
    (overlay, ids)
}

/// A pool of `size` distinct peers drawn from the whole membership, at
/// small positive weights (ties included).
fn pool(ids: &[Id], size: usize, rng: &mut StdRng) -> FrequencySnapshot {
    let mut peers = ids.to_vec();
    peers.shuffle(rng);
    peers.truncate(size);
    FrequencySnapshot::from_pairs(
        peers
            .into_iter()
            .map(|id| (id, f64::from(rng.gen_range(1u32..=5)))),
    )
}

/// The rank offset of `w` from `source` on the sorted live `ring`.
fn rank_id(ring: &[Id], source: Id, w: Id) -> Id {
    let n = ring.len();
    let rank_of = |x: Id| ring.binary_search(&x).unwrap_or(0);
    Id::new(((rank_of(w) + n - rank_of(source)) % n) as u128)
}

/// The selection as the one-shot composition computes it.
fn reference(
    overlay: &SimOverlay,
    node: Id,
    freqs: &FrequencySnapshot,
    k: usize,
) -> Result<Selection, SelectError> {
    let space = IdSpace::paper();
    let core = overlay.core_neighbors(node);
    let candidates: Vec<Candidate> = freqs
        .without(core.iter().copied().chain([node]))
        .iter()
        .map(|(id, weight)| Candidate::new(id, weight))
        .collect();
    match overlay.kind() {
        OverlayKind::Chord => select_fast(&ChordProblem::new(space, node, core, candidates, k)?),
        OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
            select_greedy(&PastryProblem::new(
                space, digit_bits, node, core, candidates, k,
            )?)
        }
        OverlayKind::SkipGraph => {
            let ring = overlay.live_ids();
            let n = ring.len();
            let rank_bits = u8::try_from(usize::BITS - n.leading_zeros() + 1).expect("at most 65");
            let rank_space = IdSpace::new(rank_bits).expect("1 to 65 bits");
            let cands = candidates
                .into_iter()
                .filter(|c| overlay.is_live(c.id))
                .map(|c| Candidate {
                    id: rank_id(&ring, node, c.id),
                    ..c
                })
                .collect();
            let core_ranks = core
                .iter()
                .filter(|&&c| overlay.is_live(c))
                .map(|&c| rank_id(&ring, node, c))
                .collect();
            let sel = select_fast(&ChordProblem::new(
                rank_space,
                Id::new(0),
                core_ranks,
                cands,
                k,
            )?)?;
            let my_rank = ring.binary_search(&node).map_err(|_| {
                SelectError::InvalidProblem(format!("selecting node {node} is not live"))
            })?;
            let aux = sel
                .aux
                .iter()
                .map(|r| ring[(my_rank + usize::try_from(r.value()).expect("a rank below n")) % n])
                .collect();
            Ok(Selection {
                aux,
                cost: sel.cost,
            })
        }
    }
}

#[test]
fn buffered_selection_matches_the_one_shot_composition_on_churned_overlays() {
    for kind in kinds() {
        for seed in 0..3u64 {
            let (overlay, ids) = churned(kind, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut scratch = SelectScratch::new();
            let (mut dead_cores, mut covered, mut errors, mut solves) = (0, 0, 0, 0);
            for (i, &node) in ids.iter().enumerate() {
                let core = overlay.core_neighbors(node);
                if overlay.is_live(node) && core.iter().any(|&c| !overlay.is_live(c)) {
                    dead_cores += 1;
                }
                let k = KS[i % KS.len()];
                let freqs = pool(&ids, POOLS[i % POOLS.len()], &mut rng);
                let expected = reference(&overlay, node, &freqs, k);
                let got = overlay.select_aware_into(node, &freqs, k, &mut scratch);
                match (&got, &expected) {
                    (Ok(g), Ok(e)) => {
                        assert_eq!(g.aux, e.aux, "{kind:?} seed {seed} node {node} k={k}");
                        assert_eq!(
                            g.cost.to_bits(),
                            e.cost.to_bits(),
                            "{kind:?} seed {seed} node {node} k={k}: cost {} vs {}",
                            g.cost,
                            e.cost
                        );
                        if g.aux.len() < k || k == 0 {
                            covered += 1;
                        }
                    }
                    _ => {
                        assert_eq!(got, expected, "{kind:?} seed {seed} node {node} k={k}");
                        errors += 1;
                    }
                }
                solves += 1;
            }
            assert_eq!(solves, NODES);
            assert!(
                dead_cores > 0,
                "{kind:?} seed {seed}: churn leaves dead core entries"
            );
            assert!(
                covered > 0,
                "{kind:?} seed {seed}: some budgets cover the pool"
            );
            if kind == OverlayKind::SkipGraph {
                // Crashed nodes that did not rejoin are not on the ring.
                assert!(
                    errors > 0,
                    "{kind:?} seed {seed}: dead selectors are rejected"
                );
            }
        }
    }
}
