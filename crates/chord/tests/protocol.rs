//! Protocol-level tests of the Chord overlay: ownership, routing bounds,
//! churn staleness, stabilization repair, and auxiliary-neighbor routing.

use peercache_chord::{ChordConfig, ChordNetwork};
use peercache_faults::LookupFailure;
use peercache_id::{Id, IdSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn id(v: u128) -> Id {
    Id::new(v)
}

fn build(bits: u8, ids: &[u128]) -> ChordNetwork {
    let config = ChordConfig::new(IdSpace::new(bits).expect("valid bits"));
    let ids: Vec<Id> = ids.iter().copied().map(Id::new).collect();
    ChordNetwork::build(config, &ids)
}

fn random_ring(bits: u8, n: usize, seed: u64) -> (ChordNetwork, Vec<Id>) {
    let space = IdSpace::new(bits).expect("valid bits");
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = peercache_workload_ids(space, n, &mut rng);
    let net = ChordNetwork::build(ChordConfig::new(space), &ids);
    (net, ids)
}

/// Local copy of distinct-random-ids (avoids a dev-dependency cycle).
fn peercache_workload_ids(space: IdSpace, n: usize, rng: &mut StdRng) -> Vec<Id> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    while out.len() < n {
        let v = space.normalize(u128::from(rng.gen::<u64>()));
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

#[test]
fn true_owner_is_predecessor_of_key() {
    let net = build(4, &[2, 7, 11]);
    assert_eq!(net.true_owner(id(7)), Some(id(7)), "exact hit");
    assert_eq!(net.true_owner(id(9)), Some(id(7)));
    assert_eq!(net.true_owner(id(1)), Some(id(11)), "wraps backwards");
    assert_eq!(net.true_owner(id(15)), Some(id(11)));
}

#[test]
fn build_gives_perfect_successors_and_predecessors() {
    let net = build(4, &[2, 7, 11]);
    assert_eq!(net.node(id(2)).unwrap().successor(), Some(id(7)));
    assert_eq!(net.node(id(7)).unwrap().successor(), Some(id(11)));
    assert_eq!(net.node(id(11)).unwrap().successor(), Some(id(2)));
    assert_eq!(net.node(id(2)).unwrap().predecessor, Some(id(11)));
}

#[test]
fn fingers_respect_range_semantics() {
    // Node 0 with nodes at 3, 5, 9: finger 0 = [1,2) → none;
    // finger 1 = [2,4) → 3; finger 2 = [4,8) → 5; finger 3 = [8,0) → 9.
    let net = build(4, &[0, 3, 5, 9]);
    let f = &net.node(id(0)).unwrap().fingers;
    assert_eq!(f[0], None);
    assert_eq!(f[1], Some(id(3)));
    assert_eq!(f[2], Some(id(5)));
    assert_eq!(f[3], Some(id(9)));
}

#[test]
fn lookup_reaches_owner_from_everywhere() {
    let (mut net, ids) = random_ring(16, 64, 1);
    let keys: Vec<Id> = (0..200u128).map(|i| id(i * 327 % 65536)).collect();
    for &from in &ids {
        for &key in keys.iter().take(20) {
            let res = net.lookup(from, key).unwrap();
            assert!(res.is_success(), "from {from} key {key}");
            assert_eq!(res.trace.path.last(), Some(&net.true_owner(key).unwrap()));
        }
    }
}

#[test]
fn stable_lookups_stay_within_log_bound() {
    let (mut net, ids) = random_ring(32, 128, 2);
    let mut rng = StdRng::seed_from_u64(3);
    let mut max_hops = 0;
    for _ in 0..2000 {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = id(u128::from(rng.gen::<u32>()));
        let res = net.lookup(from, key).unwrap();
        assert!(res.is_success());
        assert_eq!(res.trace.timeouts, 0, "no dead probes in a stable ring");
        max_hops = max_hops.max(res.trace.hops);
    }
    // Steady state: ≤ b hops always; with 128 nodes, ≲ 2·log₂(128) ≈ 14
    // with overwhelming probability.
    assert!(max_hops <= 14, "max hops {max_hops} exceeds 2·log n");
}

#[test]
fn lookup_distance_strictly_decreases_no_loops() {
    let (mut net, ids) = random_ring(16, 40, 4);
    let space = IdSpace::new(16).unwrap();
    for &from in &ids {
        let key = id(12345);
        let res = net.lookup(from, key).unwrap();
        for pair in res.trace.path.windows(2) {
            assert!(
                space.clockwise_distance(pair[1], key) < space.clockwise_distance(pair[0], key),
                "progress must be monotone"
            );
        }
    }
}

#[test]
fn aux_neighbors_shorten_routes() {
    let (mut net, ids) = random_ring(32, 256, 5);
    let from = ids[0];
    // Find a target several hops away.
    let far = *ids
        .iter()
        .max_by_key(|&&t| net.lookup(from, t).unwrap().trace.hops)
        .unwrap();
    let before = net.lookup(from, far).unwrap().trace.hops;
    assert!(before >= 2);
    net.set_aux(from, &[far]).unwrap();
    let after = net.lookup(from, far).unwrap();
    assert!(after.is_success());
    assert_eq!(after.trace.hops, 1, "direct pointer → one hop");
}

#[test]
fn set_aux_drops_dead_entries() {
    let mut net = build(4, &[2, 7, 11]);
    net.set_aux(id(2), &[id(7), id(9)]).unwrap();
    assert_eq!(net.node(id(2)).unwrap().aux, vec![id(7)], "9 is not live");
}

#[test]
fn join_makes_new_node_reachable_after_stabilization() {
    let (mut net, ids) = random_ring(16, 32, 6);
    let newcomer = id(40_000);
    assert!(!ids.contains(&newcomer));
    net.join(newcomer).unwrap();
    // Before other nodes stabilize, lookups *to the newcomer's keys* may
    // terminate at its predecessor (stale successor pointers) …
    net.stabilize_all();
    // … after one full round everyone routes correctly again.
    for &from in &ids {
        let res = net.lookup(from, newcomer).unwrap();
        assert!(res.is_success(), "from {from}");
        assert_eq!(res.trace.path.last(), Some(&newcomer));
    }
}

#[test]
fn failed_node_leaves_stale_entries_until_stabilization() {
    let (mut net, ids) = random_ring(16, 64, 7);
    // Pick a node that is somebody's finger, kill it.
    let victim = ids[10];
    net.fail(victim).unwrap();
    // Routing still works around the corpse (with failed probes possible).
    let mut probes = 0;
    for &from in ids.iter().filter(|&&f| f != victim).take(30) {
        let res = net.lookup(from, victim).unwrap();
        assert!(
            matches!(res.outcome, Ok(_) | Err(LookupFailure::WrongOwner(_))),
            "outcome {:?}",
            res.outcome
        );
        probes += res.trace.timeouts;
    }
    // After stabilization nobody references the victim.
    net.stabilize_all();
    for &nid in ids.iter().filter(|&&f| f != victim) {
        let node = net.node(nid).unwrap();
        assert!(!node.core_neighbors().contains(&victim) && !node.aux.contains(&victim));
    }
    let _ = probes; // staleness may or may not surface as probes; both fine
}

#[test]
fn graceful_leave_patches_immediate_neighbors() {
    let net_ids = [2u128, 7, 11, 13];
    let mut net = build(4, &net_ids);
    net.leave(id(7)).unwrap();
    assert_eq!(net.node(id(2)).unwrap().successor(), Some(id(11)));
    assert_eq!(net.node(id(11)).unwrap().predecessor, Some(id(2)));
}

#[test]
fn churn_storm_recovers_after_stabilization_rounds() {
    let (mut net, ids) = random_ring(20, 128, 8);
    let mut rng = StdRng::seed_from_u64(9);
    // Kill 25% of nodes, join 20 fresh ones, no stabilization in between.
    for &victim in ids.iter().take(32) {
        net.fail(victim).unwrap();
    }
    let space = IdSpace::new(20).unwrap();
    for _ in 0..20 {
        loop {
            let fresh = space.normalize(u128::from(rng.gen::<u64>()));
            if !net.is_live(fresh) && net.join(fresh).is_ok() {
                break;
            }
        }
    }
    // A few rounds of stabilization heal the ring.
    for _ in 0..3 {
        net.stabilize_all();
    }
    let live = net.live_ids();
    let mut failures = 0;
    for &from in live.iter().take(40) {
        for probe in 0..10u128 {
            let key = id(probe * 99_991 % (1 << 20));
            let res = net.lookup(from, key).unwrap();
            if !res.is_success() {
                failures += 1;
            }
        }
    }
    assert_eq!(failures, 0, "healed ring must route correctly");
}

#[test]
fn membership_errors_are_reported() {
    let mut net = build(4, &[2, 7]);
    assert!(net.join(id(2)).is_err(), "duplicate join");
    assert!(net.join(id(200)).is_err(), "out of space");
    assert!(net.fail(id(9)).is_err(), "unknown fail");
    assert!(net.leave(id(9)).is_err(), "unknown leave");
    assert!(net.stabilize(id(9)).is_err(), "unknown stabilize");
    assert!(net.set_aux(id(9), &[]).is_err());
    assert!(net.lookup(id(9), id(0)).is_err());
}

#[test]
fn single_node_owns_everything() {
    let mut net = build(4, &[5]);
    for key in 0..16u128 {
        let res = net.lookup(id(5), id(key)).unwrap();
        assert!(res.is_success());
        assert_eq!(res.trace.hops, 0);
    }
}

#[test]
fn two_node_ring_routes_both_ways() {
    let mut net = build(4, &[3, 12]);
    // Keys in [3, 12) → node 3; [12, 3) → node 12.
    assert_eq!(net.lookup(id(3), id(5)).unwrap().trace.hops, 0);
    let res = net.lookup(id(3), id(13)).unwrap();
    assert!(res.is_success());
    assert_eq!(res.trace.path.last(), Some(&id(12)));
    let res = net.lookup(id(12), id(1)).unwrap();
    assert!(res.is_success());
    assert_eq!(
        res.trace.path.last(),
        Some(&id(12)),
        "wrap: 12 owns [12, 3)"
    );
}

#[test]
fn core_neighbors_feed_the_selection_problem() {
    let (net, ids) = random_ring(16, 64, 10);
    let node = net.node(ids[0]).unwrap();
    let core = node.core_neighbors();
    assert!(!core.is_empty());
    assert!(core.len() <= 16 + net.config().successor_list_len);
    assert!(!core.contains(&ids[0]), "self never a neighbor");
    let mut sorted = core.clone();
    sorted.dedup();
    assert_eq!(sorted.len(), core.len(), "deduplicated");
}
