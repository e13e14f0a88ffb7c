//! Measured QoS guarantees (paper contribution 2, beyond the paper's own
//! evaluation, which does not plot QoS): fraction of delay-bounded
//! queries answered within their bound, with and without QoS-aware
//! selection, on a real Chord overlay.

use peercache_core::chord::select_fast;
use peercache_core::{Candidate, ChordProblem};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_sim::{OverlayKind, SimOverlay};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut cli = peercache_bench::BinArgs::parse("qos_guarantees");
    let quick = cli.quick;
    let (n, queries_per_node) = if quick { (128, 60) } else { (512, 200) };
    let bound_hops = 3u32;
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(31);
    let ids = random_ids(space, n, &mut rng);
    let mut overlay = SimOverlay::build(OverlayKind::Chord, space, &ids, &mut rng);
    let items = 64;
    let catalog = ItemCatalog::random(space, items, &mut rng);
    let workload = NodeWorkload::new(Zipf::new(items, 1.2).unwrap(), Ranking::identity(items));
    let owners: Vec<Id> = (0..items)
        .map(|i| overlay.true_owner(catalog.key(i)).unwrap())
        .collect();
    let weights = FrequencySnapshot::from_pairs(workload.node_weights(items, |i| owners[i]));

    // The QoS set: the owners of the 8 LEAST popular items must still be
    // reachable within `bound_hops` — rare-but-critical signalling
    // traffic that a purely popularity-driven optimiser would ignore.
    let mut hot: Vec<(Id, f64)> = weights.iter().collect();
    hot.sort_by(|a, b| b.1.total_cmp(&a.1));
    let qos_targets: Vec<Id> = hot.iter().rev().take(8).map(|&(id, _)| id).collect();

    let k = 10;
    let run = |overlay: &mut SimOverlay, with_bounds: bool| -> (f64, f64, u64) {
        // Install per-node selections.
        for &node in &ids {
            let core = overlay.core_neighbors(node);
            let cands: Vec<Candidate> = weights
                .without(core.iter().copied().chain([node]))
                .iter()
                .map(|(id, w)| {
                    if with_bounds && qos_targets.contains(&id) {
                        Candidate::with_max_hops(id, w, bound_hops)
                    } else {
                        Candidate::new(id, w)
                    }
                })
                .collect();
            let problem = ChordProblem::new(space, node, core, cands, k).unwrap();
            let sel = select_fast(&problem).expect("feasible: bounds are loose");
            overlay.set_aux(node, &sel.aux);
        }
        // Route: hot-item queries carry the bound, the rest are bulk.
        let mut rng = StdRng::seed_from_u64(32);
        let (mut bounded_total, mut bounded_met) = (0u64, 0u64);
        let (mut hops_total, mut count) = (0u64, 0u64);
        for _ in 0..(queries_per_node * n) {
            let origin = ids[rng.gen_range(0..ids.len())];
            let item = workload.sample_item(&mut rng);
            let out = overlay.query(origin, catalog.key(item));
            assert!(out.success);
            hops_total += u64::from(out.hops);
            count += 1;
            if qos_targets.contains(&owners[item]) && origin != owners[item] {
                bounded_total += 1;
                if out.hops <= bound_hops {
                    bounded_met += 1;
                }
            }
        }
        (
            bounded_met as f64 / bounded_total as f64 * 100.0,
            hops_total as f64 / count as f64,
            bounded_total,
        )
    };

    let (met_plain, avg_plain, nq) = run(&mut overlay, false);
    let (met_qos, avg_qos, _) = run(&mut overlay, true);
    peercache_bench::teeln!(
        cli.tee,
        "QoS guarantees on Chord, n = {n}, k = {k}, bound = {bound_hops} hops, \
         {nq} bounded queries\n"
    );
    peercache_bench::teeln!(
        cli.tee,
        "                         bound met    avg hops (all queries)"
    );
    peercache_bench::teeln!(
        cli.tee,
        "unconstrained optimum:   {met_plain:>8.1}%    {avg_plain:.3}"
    );
    peercache_bench::teeln!(
        cli.tee,
        "QoS-aware optimum:       {met_qos:>8.1}%    {avg_qos:.3}"
    );
    peercache_bench::teeln!(
        cli.tee,
        "\nQoS-aware selection trades {:.1}% average hops for meeting the bound \
         on {:.1}% of constrained queries.",
        (avg_qos - avg_plain) / avg_plain * 100.0,
        met_qos
    );
    assert!(met_qos >= met_plain);
    assert!(met_qos > 99.0, "bounds must be essentially always met");
}
