//! Unit-level tests of the overlay bridge: ownership, selection dispatch,
//! and churn operations behave identically through the enum as through
//! the concrete networks.

use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_pastry::RoutingMode;
use peercache_sim::overlay::SelectScratch;
use peercache_sim::{OverlayKind, SimOverlay};
use peercache_workload::random_ids;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn kinds() -> Vec<OverlayKind> {
    vec![
        OverlayKind::Chord,
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::GreedyPrefix,
        },
        OverlayKind::Pastry {
            digit_bits: 4,
            mode: RoutingMode::LocalityAware,
        },
        OverlayKind::Tapestry { digit_bits: 1 },
        OverlayKind::SkipGraph,
    ]
}

fn build(kind: OverlayKind, n: usize, seed: u64) -> (SimOverlay, Vec<Id>) {
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(space, n, &mut rng);
    (SimOverlay::build(kind, space, &ids, &mut rng), ids)
}

#[test]
fn kind_roundtrips() {
    for kind in kinds() {
        let (overlay, _) = build(kind, 16, 1);
        assert_eq!(overlay.kind(), kind);
    }
}

#[test]
fn live_ids_and_ownership_are_consistent() {
    for kind in kinds() {
        let (overlay, ids) = build(kind, 48, 2);
        assert_eq!(overlay.live_ids().len(), 48);
        for &id in &ids {
            assert!(overlay.is_live(id));
            // A node always owns its own id.
            assert_eq!(overlay.true_owner(id), Some(id), "{kind:?}");
        }
    }
}

#[test]
fn queries_succeed_on_stable_overlays() {
    for kind in kinds() {
        let (mut overlay, ids) = build(kind, 48, 3);
        for probe in 0..40u128 {
            let key = Id::new(probe * 104_729 % (1 << 32));
            let out = overlay.query(ids[probe as usize % ids.len()], key);
            assert!(out.success, "{kind:?} key {key}");
            assert_eq!(out.failed_probes, 0);
        }
    }
}

#[test]
fn query_with_path_starts_at_origin_and_ends_at_owner() {
    for kind in kinds() {
        let (mut overlay, ids) = build(kind, 48, 4);
        let key = Id::new(123_456_789);
        let (out, path) = overlay.query_with_path(ids[0], key);
        assert!(out.success);
        assert_eq!(path.first(), Some(&ids[0]));
        assert_eq!(path.last(), Some(&overlay.true_owner(key).unwrap()));
        assert_eq!(
            u32::try_from(path.len()).expect("path fits u32"),
            out.hops + 1
        );
    }
}

#[test]
fn select_aware_filters_core_and_self() {
    let mut scratch = SelectScratch::new();
    for kind in kinds() {
        let (overlay, ids) = build(kind, 48, 5);
        let me = ids[0];
        let core = overlay.core_neighbors(me);
        // Frequencies deliberately include the node itself and its cores.
        let freqs = FrequencySnapshot::from_pairs(ids.iter().map(|&id| (id, 5.0)));
        let sel = overlay
            .select_aware_into(me, &freqs, 6, &mut scratch)
            .unwrap();
        assert_eq!(sel.aux.len(), 6, "{kind:?}");
        assert!(!sel.aux.contains(&me));
        for aux in &sel.aux {
            assert!(!core.contains(aux), "{kind:?}: core {aux} selected");
        }
    }
}

#[test]
fn select_oblivious_uniform_ignores_weights() {
    let (overlay, ids) = build(OverlayKind::Chord, 48, 6);
    let me = ids[0];
    let mut rng = StdRng::seed_from_u64(7);
    let sel = overlay.select_oblivious_uniform(me, 8, &mut rng).unwrap();
    assert_eq!(sel.aux.len(), 8);
    assert!(!sel.aux.contains(&me));
}

#[test]
fn set_aux_rejects_dead_nodes_and_installs_live_ones() {
    let (mut overlay, ids) = build(OverlayKind::Chord, 16, 8);
    let ghost = Id::new(0xdead_beef);
    assert!(!ids.contains(&ghost));
    assert!(overlay.set_aux(ids[0], &[ids[1], ghost]));
    // Routing to ids[1] is now direct.
    let out = overlay.query(ids[0], ids[1]);
    assert!(out.success);
    assert_eq!(out.hops, 1);
    // Installing on a dead node reports failure.
    assert!(overlay.fail(ids[2]));
    assert!(!overlay.set_aux(ids[2], &[]));
}

#[test]
fn churn_ops_work_on_both_overlays() {
    for kind in kinds() {
        let (mut overlay, ids) = build(kind, 24, 9);
        let mut rng = StdRng::seed_from_u64(10);
        assert!(overlay.fail(ids[3]), "{kind:?}");
        assert!(!overlay.fail(ids[3]), "double fail");
        assert!(!overlay.is_live(ids[3]));
        assert!(overlay.join(ids[3], &mut rng));
        assert!(!overlay.join(ids[3], &mut rng), "double join");
        assert!(overlay.is_live(ids[3]));
        assert!(overlay.stabilize(ids[3]));
        assert!(!overlay.stabilize(Id::new(0x7777_7777)), "unknown node");
    }
}

/// Every live node's core set, as `core_neighbors_into` hands it out,
/// is strictly ascending. The churn refresh engine compares and copies
/// that buffer as its sorted core mirror, and `select_aware_into`
/// binary-searches it, so neither sorts it again.
fn assert_cores_strictly_ascending(overlay: &SimOverlay, when: &str) {
    let mut core = Vec::new();
    for node in overlay.live_ids() {
        overlay.core_neighbors_into(node, &mut core);
        assert!(
            core.windows(2).all(|w| w[0] < w[1]),
            "{:?} {when}: core of {node} not strictly ascending: {core:?}",
            overlay.kind()
        );
    }
}

#[test]
fn core_sets_stay_strictly_ascending_under_churn() {
    for kind in kinds() {
        let (mut overlay, ids) = build(kind, 64, 11);
        assert_cores_strictly_ascending(&overlay, "after the build");
        let mut rng = StdRng::seed_from_u64(12);
        for round in 0..200 {
            let id = ids[rng.gen_range(0..ids.len())];
            match round % 3 {
                // Keep at least half the ring alive.
                0 if overlay.live_ids().len() > ids.len() / 2 => {
                    overlay.fail(id);
                }
                1 => {
                    overlay.join(id, &mut rng);
                }
                _ => {
                    overlay.stabilize(id);
                }
            }
        }
        assert_cores_strictly_ascending(&overlay, "after churn");
    }
}
