//! The read-only walk repairs around dead hops exactly as the repairing
//! walk does. Over an overlay with failed nodes still referenced from
//! routing tables and auxiliary sets, `query_with_aux` must report the
//! same success, hops and timeouts as `query_with_path` on a clone that
//! has the same auxiliary sets installed: a timed-out hop is excluded
//! and the decision re-runs in both, only the eviction differs.

use std::collections::BTreeMap;

use peercache_id::{Id, IdSpace};
use peercache_pastry::RoutingMode;
use peercache_sim::{OverlayKind, SimOverlay};
use peercache_workload::random_ids;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 64;
const FAILURES: usize = 12;
const QUERIES: usize = 64;
const SEEDS: u64 = 16;

fn check(kind: OverlayKind) {
    let space = IdSpace::new(32).expect("valid width");
    let mut differing = 0;
    let mut timeouts = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = random_ids(space, NODES, &mut rng);
        let mut overlay = SimOverlay::build(kind, space, &ids, &mut rng);
        let aux: BTreeMap<Id, Vec<Id>> = ids
            .iter()
            .map(|&node| (node, (0..4).map(|_| ids[rng.gen_range(0..NODES)]).collect()))
            .collect();
        // Installed while every node is live, so the installed sets are
        // exactly the side table the read-only walk reads.
        for (&node, set) in &aux {
            assert!(overlay.set_aux(node, set));
        }
        for i in 0..FAILURES {
            assert!(overlay.fail(ids[i * 5 % NODES]));
        }
        let live = overlay.live_ids();
        for _ in 0..QUERIES {
            let from = live[rng.gen_range(0..live.len())];
            let key = Id::new(u128::from(rng.gen::<u32>()));
            let read_only = overlay.query_with_aux(from, key, |id| {
                aux.get(&id).map_or(&[] as &[Id], Vec::as_slice)
            });
            let (repaired, _) = overlay.clone().query_with_path(from, key);
            let got = (read_only.success, read_only.hops, read_only.failed_probes);
            let want = (repaired.success, repaired.hops, repaired.failed_probes);
            differing += usize::from(got != want);
            timeouts += repaired.failed_probes;
        }
    }
    assert_eq!(
        differing, 0,
        "{kind:?}: read-only walks diverged from the repairing walk"
    );
    assert!(
        timeouts > 0,
        "{kind:?}: the regime must probe dead neighbors"
    );
}

#[test]
fn chord_read_only_walk_repairs_like_the_repairing_walk() {
    check(OverlayKind::Chord);
}

#[test]
fn pastry_read_only_walk_repairs_like_the_repairing_walk() {
    check(OverlayKind::Pastry {
        digit_bits: 1,
        mode: RoutingMode::LocalityAware,
    });
}

#[test]
fn tapestry_read_only_walk_repairs_like_the_repairing_walk() {
    check(OverlayKind::Tapestry { digit_bits: 1 });
}

#[test]
fn skipgraph_read_only_walk_repairs_like_the_repairing_walk() {
    check(OverlayKind::SkipGraph);
}
