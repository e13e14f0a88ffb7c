//! Tapestry protocol tests: surrogate-root uniqueness, routing
//! correctness, and the transfer of the Pastry selection algorithms.

use peercache_core::pastry::select_greedy;
use peercache_core::{Candidate, PastryProblem};
use peercache_id::{Id, IdSpace};
use peercache_tapestry::{TapestryConfig, TapestryNetwork};
use peercache_workload::random_ids;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn id(v: u128) -> Id {
    Id::new(v)
}

fn random_net(bits: u8, d: u8, n: usize, seed: u64) -> (TapestryNetwork, Vec<Id>) {
    let space = IdSpace::new(bits).expect("valid bits");
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(space, n, &mut rng);
    let net = TapestryNetwork::build(TapestryConfig::new(space, d), &ids);
    (net, ids)
}

#[test]
fn surrogate_root_matches_deepest_prefix() {
    let space = IdSpace::new(4).unwrap();
    let net = TapestryNetwork::build(
        TapestryConfig::new(space, 1),
        &[id(0b0000), id(0b0110), id(0b1011)],
    );
    // Key 0b1010: node 1011 shares 3 digits — it must be the root.
    assert_eq!(net.true_owner(id(0b1010)), Some(id(0b1011)));
    // Key 0b0100: 0000 shares 1, 0110 shares 2 → 0110.
    assert_eq!(net.true_owner(id(0b0100)), Some(id(0b0110)));
    // Exact id is its own root.
    assert_eq!(net.true_owner(id(0b0110)), Some(id(0b0110)));
}

#[test]
fn root_is_start_independent() {
    for d in [1u8, 2, 4] {
        let (mut net, ids) = random_net(16, d, 48, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let key = id(u128::from(rng.gen::<u16>()));
            let root = net.true_owner(key).unwrap();
            for &from in ids.iter().take(16) {
                let res = net.route(from, key).unwrap();
                assert!(
                    res.is_success(),
                    "d={d} from {from} key {key}: reached {:?}, root {root}",
                    res.trace.path.last()
                );
                assert_eq!(res.trace.path.last(), Some(&root));
            }
        }
    }
}

#[test]
fn stable_hops_within_digit_bound() {
    let (mut net, ids) = random_net(32, 1, 128, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let mut max_hops = 0;
    for _ in 0..1500 {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = id(u128::from(rng.gen::<u32>()));
        let res = net.route(from, key).unwrap();
        assert!(res.is_success());
        assert_eq!(res.trace.timeouts, 0);
        max_hops = max_hops.max(res.trace.hops);
    }
    assert!(max_hops <= 14, "max hops {max_hops} for 128 nodes");
}

#[test]
fn aux_neighbors_shorten_routes() {
    let (mut net, ids) = random_net(32, 1, 256, 5);
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
fn pastry_selection_transfers_to_tapestry() {
    // The §I claim, measured: run the Pastry optimiser on a Tapestry
    // node's core neighbors and verify realised hops improve more than a
    // random pick of equal size.
    let (mut net, ids) = random_net(32, 1, 192, 6);
    let space = IdSpace::new(32).unwrap();
    let me = ids[0];
    let mut rng = StdRng::seed_from_u64(7);
    // Zipf-ish weights over all other nodes.
    let core = net.node(me).unwrap().core_neighbors();
    let candidates: Vec<Candidate> = ids[1..]
        .iter()
        .filter(|n| !core.contains(n))
        .enumerate()
        .map(|(i, &n)| Candidate::new(n, 1000.0 / (i + 1) as f64))
        .collect();
    let weights: Vec<(Id, f64)> = candidates.iter().map(|c| (c.id, c.weight)).collect();
    let problem = PastryProblem::new(space, 1, me, core, candidates, 8).unwrap();
    let selection = select_greedy(&problem).unwrap();

    let measure = |net: &mut TapestryNetwork, rng: &mut StdRng| -> f64 {
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        let mut acc = 0.0;
        for &(target, w) in &weights {
            let res = net.route(me, target).unwrap();
            assert!(res.is_success());
            acc += w * f64::from(res.trace.hops);
        }
        let _ = rng;
        acc / total
    };
    net.set_aux(me, &[]).unwrap();
    let base = measure(&mut net, &mut rng);
    net.set_aux(me, &selection.aux).unwrap();
    let optimal = measure(&mut net, &mut rng);
    // Random pick of equal size.
    let mut pool: Vec<Id> = weights.iter().map(|&(n, _)| n).collect();
    use rand::seq::SliceRandom;
    pool.shuffle(&mut rng);
    net.set_aux(me, &pool[..selection.aux.len()]).unwrap();
    let random = measure(&mut net, &mut rng);

    assert!(optimal < base, "optimal {optimal} must beat no-aux {base}");
    assert!(
        optimal < random,
        "optimal {optimal} must beat random {random}"
    );
}

#[test]
fn fail_and_repair_heal_the_overlay() {
    let (mut net, ids) = random_net(16, 1, 64, 8);
    for &victim in ids.iter().take(16) {
        net.fail(victim).unwrap();
    }
    net.repair_all();
    let live = net.live_ids();
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..200 {
        let from = live[rng.gen_range(0..live.len())];
        let key = id(u128::from(rng.gen::<u16>()));
        let res = net.route(from, key).unwrap();
        assert!(res.is_success(), "healed overlay must route");
    }
}

#[test]
fn membership_errors_are_reported() {
    let (mut net, ids) = random_net(16, 1, 8, 10);
    assert!(net.join(ids[0]).is_err(), "duplicate");
    assert!(net.join(id(1 << 20)).is_err(), "out of space");
    let ghost = id(65_533);
    assert!(!ids.contains(&ghost));
    assert!(net.fail(ghost).is_err());
    assert!(net.set_aux(ghost, &[]).is_err());
    assert!(net.route(ghost, id(0)).is_err());
}

#[test]
fn single_node_owns_everything() {
    let space = IdSpace::new(8).unwrap();
    let mut net = TapestryNetwork::build(TapestryConfig::new(space, 1), &[id(42)]);
    for key in (0..256u128).step_by(31) {
        let res = net.route(id(42), id(key)).unwrap();
        assert!(res.is_success());
        assert_eq!(res.trace.hops, 0);
    }
}

#[test]
fn table_cells_hold_exact_prefix_lengths() {
    let (net, ids) = random_net(16, 2, 64, 11);
    let space = IdSpace::new(16).unwrap();
    for &nid in ids.iter().take(8) {
        let node = net.node(nid).unwrap();
        for (l, row) in node.rows.iter().enumerate() {
            for (c, entry) in row.iter().enumerate() {
                if let Some(w) = entry {
                    assert_eq!(space.common_prefix_digits(nid, *w, 2).unwrap() as usize, l);
                    assert_eq!(
                        space
                            .digit(*w, u8::try_from(l).expect("row index fits u8"), 2)
                            .unwrap() as usize,
                        c
                    );
                }
            }
        }
    }
}
