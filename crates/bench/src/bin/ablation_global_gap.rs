//! Probe for the paper's §VII future-work question ("the globally optimal
//! choice of auxiliary neighbors can be different"): how much of the
//! realised improvement comes from *other* nodes' locally optimal
//! pointers shortening the tails of my routes?
//!
//! For a sample of origins we measure average hops over the same query
//! mix under three deployments:
//!
//! 1. no auxiliary pointers anywhere (core-only),
//! 2. only the origin holding its locally optimal pointers,
//! 3. every node holding its locally optimal pointers (the paper's
//!    deployment).
//!
//! The gap between (2) and (3) is the headroom a §VII-style global
//! decentralised optimiser would reason about: local selection already
//! cooperates implicitly, because eq. 1 cannot see the pointers a query
//! will encounter after its first hop.

use peercache_core::chord::select_fast;
use peercache_core::{Candidate, ChordProblem};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_sim::{OverlayKind, SimOverlay};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, RankingAssignment, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut cli = peercache_bench::BinArgs::parse("ablation_global_gap");
    let quick = cli.quick;
    let (n, queries_per_origin, origins) = if quick {
        (128, 800, 8)
    } else {
        (512, 2_000, 16)
    };
    let space = IdSpace::paper();
    let seed = 7u64;
    let mut rng_topology = StdRng::seed_from_u64(seed);
    let mut rng_workload = StdRng::seed_from_u64(seed + 1);

    let node_ids = random_ids(space, n, &mut rng_topology);
    let items = 64;
    let catalog = ItemCatalog::random(space, items, &mut rng_topology);
    let zipf = Zipf::new(items, 1.2).unwrap();
    let assignment = RankingAssignment::random_pool(items, n, 5, &mut rng_workload);
    let mut overlay = SimOverlay::build(OverlayKind::Chord, space, &node_ids, &mut rng_topology);
    let owners: Vec<Id> = (0..items)
        .map(|i| overlay.true_owner(catalog.key(i)).unwrap())
        .collect();

    // Locally optimal selection per node, k = log2 n.
    let k = (n as f64).log2().round() as usize;
    let selections: Vec<Vec<Id>> = node_ids
        .iter()
        .enumerate()
        .map(|(idx, &node)| {
            let wl = NodeWorkload::new(zipf.clone(), assignment.for_node(idx).clone());
            let weights = FrequencySnapshot::from_pairs(wl.node_weights(items, |i| owners[i]));
            let core = overlay.core_neighbors(node);
            let cands: Vec<Candidate> = weights
                .without(core.iter().copied().chain([node]))
                .iter()
                .map(|(id, w)| Candidate::new(id, w))
                .collect();
            select_fast(&ChordProblem::new(space, node, core, cands, k).unwrap())
                .unwrap()
                .aux
        })
        .collect();

    // Measure a fixed query mix from each sampled origin under the three
    // deployments.
    let measure = |overlay: &mut SimOverlay, origin_idx: usize| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed + 2 + origin_idx as u64);
        let wl = NodeWorkload::new(zipf.clone(), assignment.for_node(origin_idx).clone());
        let mut hops = 0u64;
        for _ in 0..queries_per_origin {
            let key = catalog.key(wl.sample_item(&mut rng));
            hops += u64::from(overlay.query(node_ids[origin_idx], key).hops);
        }
        hops as f64 / f64::from(queries_per_origin)
    };

    let mut rng_pick = StdRng::seed_from_u64(seed + 99);
    let sample: Vec<usize> = (0..origins).map(|_| rng_pick.gen_range(0..n)).collect();
    let (mut none, mut solo, mut fleet) = (0.0, 0.0, 0.0);
    for &origin in &sample {
        // (1) core only.
        for &node in &node_ids {
            overlay.set_aux(node, &[]);
        }
        none += measure(&mut overlay, origin);
        // (2) only the origin selects.
        overlay.set_aux(node_ids[origin], &selections[origin]);
        solo += measure(&mut overlay, origin);
        // (3) the whole fleet selects.
        for (idx, &node) in node_ids.iter().enumerate() {
            overlay.set_aux(node, &selections[idx]);
        }
        fleet += measure(&mut overlay, origin);
    }
    let (none, solo, fleet) = (
        none / f64::from(origins),
        solo / f64::from(origins),
        fleet / f64::from(origins),
    );
    peercache_bench::teeln!(
        cli.tee,
        "global-vs-local deployment probe (Chord, n = {n}, k = {k}, alpha = 1.2)\n"
    );
    peercache_bench::teeln!(
        cli.tee,
        "core neighbors only:                  {none:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "only the origin selects (local view): {solo:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "every node selects (fleet):           {fleet:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "\nthe fleet effect is worth another {:.1}% beyond what the origin's own \
         pointers achieve —\nheadroom the §VII 'globally optimal decentralized \
         algorithm' would reason about explicitly.",
        (solo - fleet) / solo * 100.0
    );
    assert!(solo < none && fleet <= solo + 1e-9);
}
