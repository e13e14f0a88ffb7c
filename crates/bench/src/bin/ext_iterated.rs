//! Extension engaging §VII: an *iterated, measurement-driven* selection
//! heuristic as a stand-in for the paper's open "globally optimal
//! decentralized algorithm".
//!
//! The paper's local optimum prices a pointer with the id-derived
//! steady-state estimate `d(v, N ∪ A)`, blind to the auxiliary pointers
//! other nodes hold. The iterated heuristic instead *measures*: each
//! round, every node probes its observed candidates through the live
//! overlay (with everyone's current pointers installed) and re-selects
//! the k candidates with the largest measured benefit
//! `f_v · (hops(v) − 1)`. Rounds repeat until selections stabilise.
//!
//! Output: realised average hops of (1) the paper's one-shot model-based
//! optimum, (2) the iterated measured heuristic, and (3) the oblivious
//! baseline — quantifying how much headroom the open problem actually
//! holds under this workload.

use std::collections::HashMap;

use peercache_core::chord::select_fast;
use peercache_core::{Candidate, ChordProblem};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_sim::{OverlayKind, SimOverlay};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, RankingAssignment, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut cli = peercache_bench::BinArgs::parse("ext_iterated");
    let quick = cli.quick;
    let (n, queries, rounds) = if quick {
        (128, 10_000, 3)
    } else {
        (512, 40_000, 4)
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
    let k = (n as f64).log2().round() as usize;

    // Per-node candidate weights (exact popularities, as in stable mode).
    let weights: Vec<FrequencySnapshot> = (0..n)
        .map(|idx| {
            let wl = NodeWorkload::new(zipf.clone(), assignment.for_node(idx).clone());
            let full = FrequencySnapshot::from_pairs(wl.node_weights(items, |i| owners[i]));
            let core = overlay.core_neighbors(node_ids[idx]);
            full.without(core.into_iter().chain([node_ids[idx]]))
        })
        .collect();

    let measure = |overlay: &mut SimOverlay| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let mut hops = 0u64;
        for _ in 0..queries {
            let idx = rng.gen_range(0..n);
            let wl = NodeWorkload::new(zipf.clone(), assignment.for_node(idx).clone());
            let key = catalog.key(wl.sample_item(&mut rng));
            hops += u64::from(overlay.query(node_ids[idx], key).hops);
        }
        hops as f64 / f64::from(queries)
    };

    // (1) the paper's one-shot model-based optimum.
    for (idx, &node) in node_ids.iter().enumerate() {
        let cands: Vec<Candidate> = weights[idx]
            .iter()
            .map(|(id, w)| Candidate::new(id, w))
            .collect();
        let core = overlay.core_neighbors(node);
        let sel = select_fast(&ChordProblem::new(space, node, core, cands, k).unwrap()).unwrap();
        overlay.set_aux(node, &sel.aux);
    }
    let model_hops = measure(&mut overlay);

    // (2) iterated measured best-response, starting from the model optimum.
    let mut history = Vec::new();
    for round in 0..rounds {
        let mut changed = 0usize;
        for (idx, &node) in node_ids.iter().enumerate() {
            // Probe measured hops to every candidate through the overlay
            // as it stands (self excluded from its own route by clearing
            // its aux during probing — a pointer under evaluation must
            // not pre-exist).
            let current: Vec<Id> = match &overlay {
                SimOverlay::Chord(net) => net.node(node).unwrap().aux.clone(),
                SimOverlay::Pastry(net) => net.node(node).unwrap().aux.clone(),
                SimOverlay::Tapestry(net) => net.node(node).unwrap().aux.clone(),
                SimOverlay::SkipGraph(net) => net.node(node).unwrap().aux.clone(),
            };
            overlay.set_aux(node, &[]);
            let mut benefit: HashMap<Id, f64> = HashMap::new();
            for (cand, w) in weights[idx].iter() {
                let hops = f64::from(overlay.query(node, cand).hops);
                benefit.insert(cand, w * (hops - 1.0).max(0.0));
            }
            let mut ranked: Vec<(Id, f64)> = benefit.into_iter().collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut chosen: Vec<Id> = ranked.into_iter().take(k).map(|(id, _)| id).collect();
            chosen.sort();
            let mut prev = current.clone();
            prev.sort();
            if chosen != prev {
                changed += 1;
            }
            overlay.set_aux(node, &chosen);
        }
        let hops = measure(&mut overlay);
        history.push((round + 1, changed, hops));
        if changed == 0 {
            break;
        }
    }
    let iterated_hops = history.last().map(|&(_, _, h)| h).unwrap_or(model_hops);

    // (3) the oblivious baseline for reference.
    let mut rng_select = StdRng::seed_from_u64(seed + 3);
    for &node in &node_ids {
        let sel = overlay
            .select_oblivious_uniform(node, k, &mut rng_select)
            .unwrap();
        overlay.set_aux(node, &sel.aux);
    }
    let oblivious_hops = measure(&mut overlay);

    peercache_bench::teeln!(
        cli.tee,
        "iterated measured selection (Chord, n = {n}, k = {k}, alpha = 1.2)\n"
    );
    peercache_bench::teeln!(
        cli.tee,
        "oblivious baseline:              {oblivious_hops:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "paper's one-shot model optimum:  {model_hops:.3} hops"
    );
    for (round, changed, hops) in &history {
        peercache_bench::teeln!(
            cli.tee,
            "iterated round {round}: {changed:>4} nodes re-selected → {hops:.3} hops"
        );
    }
    let delta = if model_hops > 1.0 {
        (model_hops - iterated_hops) / (model_hops - 1.0) * 100.0
    } else {
        0.0
    };
    if delta >= 0.5 {
        peercache_bench::teeln!(
            cli.tee,
            "\nmeasured-feedback iteration closes {delta:.1}% of the remaining \
             gap — empirical headroom\nfor the §VII open problem under this \
             workload."
        );
    } else {
        peercache_bench::teeln!(
            cli.tee,
            "\nmeasured-feedback greedy does NOT beat the one-shot model \
             optimum ({delta:.1}% of the gap):\nthe DP's coordinated coverage \
             (one pointer serving a whole id-region) outweighs what\nper-\
             candidate measurements add — evidence that the paper's local \
             model optimum is\nalready near the practical ceiling (cf. \
             ablation_global_gap)."
        );
    }
}
