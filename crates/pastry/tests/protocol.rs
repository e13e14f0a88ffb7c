//! Protocol-level tests of the Pastry overlay: ownership, prefix routing,
//! locality mode, churn, and auxiliary-neighbor routing.

use peercache_id::{Id, IdSpace};
use peercache_pastry::{PastryConfig, PastryNetwork, RoutingMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn id(v: u128) -> Id {
    Id::new(v)
}

fn random_net(bits: u8, d: u8, n: usize, mode: RoutingMode, seed: u64) -> (PastryNetwork, Vec<Id>) {
    let space = IdSpace::new(bits).expect("valid bits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut ids = Vec::new();
    while ids.len() < n {
        let v = space.normalize(u128::from(rng.gen::<u64>()));
        if seen.insert(v) {
            ids.push(v);
        }
    }
    let config = PastryConfig::new(space, d).with_mode(mode);
    let net = PastryNetwork::build(config, &ids, &mut rng);
    (net, ids)
}

#[test]
fn true_owner_is_numerically_closest() {
    let space = IdSpace::new(4).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let config = PastryConfig::new(space, 1);
    let net = PastryNetwork::build(config, &[id(2), id(7), id(13)], &mut rng);
    assert_eq!(net.true_owner(id(7)), Some(id(7)));
    assert_eq!(
        net.true_owner(id(5)),
        Some(id(7)),
        "7 is 2 away, 2 is 3 away"
    );
    assert_eq!(
        net.true_owner(id(4)),
        Some(id(2)),
        "tie 2 vs 7 → smaller id"
    );
    assert_eq!(
        net.true_owner(id(15)),
        Some(id(13)),
        "wraps: 13 is 2 away, 2 is 3"
    );
    assert_eq!(net.true_owner(id(0)), Some(id(2)));
}

#[test]
fn routing_reaches_owner_from_everywhere() {
    for mode in [RoutingMode::GreedyPrefix, RoutingMode::LocalityAware] {
        let (mut net, ids) = random_net(16, 1, 48, mode, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for &from in &ids {
            for _ in 0..10 {
                let key = id(u128::from(rng.gen::<u16>()));
                let res = net.route(from, key).unwrap();
                assert!(res.is_success(), "mode {mode:?} from {from} key {key}");
                assert_eq!(res.trace.path.last(), Some(&net.true_owner(key).unwrap()));
                assert_eq!(res.trace.timeouts, 0);
            }
        }
    }
}

#[test]
fn stable_hops_within_logarithmic_bound() {
    let (mut net, ids) = random_net(32, 1, 128, RoutingMode::GreedyPrefix, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let mut max_hops = 0;
    for _ in 0..2000 {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = id(u128::from(rng.gen::<u32>()));
        let res = net.route(from, key).unwrap();
        assert!(res.is_success());
        max_hops = max_hops.max(res.trace.hops);
    }
    // Prefix routing: ≈ log₂ n + leaf-set step; 128 nodes → ≲ 12.
    assert!(max_hops <= 12, "max hops {max_hops}");
}

#[test]
fn base16_digits_route_in_fewer_hops() {
    let (mut net1, ids) = random_net(32, 1, 128, RoutingMode::GreedyPrefix, 5);
    let (mut net4, ids4) = random_net(32, 4, 128, RoutingMode::GreedyPrefix, 5);
    assert_eq!(ids, ids4, "same seed → same membership");
    let mut rng = StdRng::seed_from_u64(6);
    let (mut h1, mut h4) = (0u64, 0u64);
    for _ in 0..500 {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = id(u128::from(rng.gen::<u32>()));
        h1 += u64::from(net1.route(from, key).unwrap().trace.hops);
        h4 += u64::from(net4.route(from, key).unwrap().trace.hops);
    }
    assert!(h4 < h1, "base-16 ({h4}) must beat base-2 ({h1})");
}

#[test]
fn aux_neighbors_shorten_routes() {
    let (mut net, ids) = random_net(32, 1, 256, RoutingMode::GreedyPrefix, 7);
    let from = ids[0];
    let far = *ids
        .iter()
        .max_by_key(|&&t| net.route(from, t).unwrap().trace.hops)
        .unwrap();
    let before = net.route(from, far).unwrap().trace.hops;
    assert!(before >= 2);
    net.set_aux(from, &[far]).unwrap();
    let after = net.route(from, far).unwrap();
    assert!(after.is_success());
    assert_eq!(after.trace.hops, 1);
}

#[test]
fn locality_mode_prefers_near_candidates() {
    // The modes differ in the tie-break among equal-progress candidates.
    // With auxiliary neighbors installed everywhere the progress buckets
    // are frequently non-singleton, and the locality mode must come out
    // ahead on per-hop latency (never on hop count — both make maximal
    // prefix progress).
    let (mut greedy, ids) = random_net(32, 1, 128, RoutingMode::GreedyPrefix, 8);
    let (mut local, _) = random_net(32, 1, 128, RoutingMode::LocalityAware, 8);
    let mut rng = StdRng::seed_from_u64(9);
    for &node in &ids {
        let aux: Vec<Id> = (0..12)
            .map(|_| ids[rng.gen_range(0..ids.len())])
            .filter(|&a| a != node)
            .collect();
        greedy.set_aux(node, &aux).unwrap();
        local.set_aux(node, &aux).unwrap();
    }
    let (mut lat_greedy, mut lat_local) = (0.0, 0.0);
    let (mut hops_greedy, mut hops_local) = (0u64, 0u64);
    for _ in 0..400 {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = id(u128::from(rng.gen::<u32>()));
        let rg = greedy.route(from, key).unwrap();
        let rl = local.route(from, key).unwrap();
        assert!(rg.is_success() && rl.is_success());
        hops_greedy += u64::from(rg.trace.hops);
        hops_local += u64::from(rl.trace.hops);
        for w in rg.trace.path.windows(2) {
            lat_greedy += greedy.proximity(w[0], w[1]);
        }
        for w in rl.trace.path.windows(2) {
            lat_local += local.proximity(w[0], w[1]);
        }
    }
    // Normalise by hops: locality buys cheaper hops, not fewer.
    let per_hop_greedy = lat_greedy / hops_greedy as f64;
    let per_hop_local = lat_local / hops_local as f64;
    assert!(
        per_hop_local < per_hop_greedy,
        "locality per-hop latency {per_hop_local:.4} must beat greedy {per_hop_greedy:.4}"
    );
}

#[test]
fn join_is_routable_after_announcement_and_repair() {
    let (mut net, ids) = random_net(16, 1, 32, RoutingMode::GreedyPrefix, 10);
    let newcomer = id(40_000);
    assert!(!ids.contains(&newcomer));
    net.join(newcomer, (0.5, 0.5)).unwrap();
    net.repair_all();
    for &from in &ids {
        let res = net.route(from, newcomer).unwrap();
        assert!(res.is_success(), "from {from}");
        assert_eq!(res.trace.path.last(), Some(&newcomer));
    }
}

#[test]
fn failure_heals_after_repair() {
    let (mut net, ids) = random_net(16, 1, 64, RoutingMode::GreedyPrefix, 11);
    let victim = ids[7];
    net.fail(victim).unwrap();
    net.repair_all();
    for &from in ids.iter().filter(|&&f| f != victim).take(20) {
        let res = net.route(from, victim).unwrap();
        assert!(res.is_success(), "key of dead node now owned elsewhere");
        assert!(!net.node(from).unwrap().known_neighbors().contains(&victim));
    }
}

#[test]
fn graceful_leave_patches_leaf_sets() {
    let (mut net, ids) = random_net(16, 1, 32, RoutingMode::GreedyPrefix, 12);
    let leaver = ids[5];
    let members = net.node(leaver).unwrap().leaves.clone();
    net.leave(leaver).unwrap();
    for m in members {
        if net.is_live(m) {
            assert!(!net.node(m).unwrap().leaves.contains(&leaver));
        }
    }
}

#[test]
fn set_aux_drops_dead_entries() {
    let (mut net, ids) = random_net(16, 1, 16, RoutingMode::GreedyPrefix, 13);
    let ghost = id(65_535);
    assert!(!ids.contains(&ghost));
    net.set_aux(ids[0], &[ids[1], ghost]).unwrap();
    assert_eq!(net.node(ids[0]).unwrap().aux, vec![ids[1]]);
}

#[test]
fn membership_errors_are_reported() {
    let (mut net, ids) = random_net(16, 1, 8, RoutingMode::GreedyPrefix, 14);
    assert!(net.join(ids[0], (0.0, 0.0)).is_err(), "duplicate");
    assert!(net.join(id(1 << 20), (0.0, 0.0)).is_err(), "out of space");
    let ghost = id(65_534);
    assert!(!ids.contains(&ghost));
    assert!(net.fail(ghost).is_err());
    assert!(net.leave(ghost).is_err());
    assert!(net.set_aux(ghost, &[]).is_err());
    assert!(net.route(ghost, id(0)).is_err());
}

#[test]
fn single_node_owns_everything() {
    let space = IdSpace::new(8).unwrap();
    let mut rng = StdRng::seed_from_u64(15);
    let mut net = PastryNetwork::build(PastryConfig::new(space, 1), &[id(77)], &mut rng);
    for key in (0..256u128).step_by(17) {
        let res = net.route(id(77), id(key)).unwrap();
        assert!(res.is_success());
        assert_eq!(res.trace.hops, 0);
    }
}

#[test]
fn routing_table_rows_hold_correct_prefix_lengths() {
    let (net, ids) = random_net(16, 1, 64, RoutingMode::GreedyPrefix, 16);
    let space = IdSpace::new(16).unwrap();
    for &nid in ids.iter().take(8) {
        let node = net.node(nid).unwrap();
        for (l, row) in node.rows.iter().enumerate() {
            for entry in row.iter().flatten() {
                let lcp = space.common_prefix_digits(nid, *entry, 1).unwrap();
                assert_eq!(lcp as usize, l, "row {l} entry {entry}");
            }
        }
    }
}
