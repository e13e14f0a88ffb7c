//! Property-based failure injection for the Pastry overlay: arbitrary
//! join/fail/leave/repair/route interleavings must never panic, and a
//! repaired overlay must route perfectly.

use peercache_id::{Id, IdSpace};
use peercache_pastry::{PastryConfig, PastryNetwork, RoutingMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
enum Op {
    Join(u16),
    Fail(u16),
    Leave(u16),
    Repair(u16),
    Route(u16, u16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..512).prop_map(Op::Join),
            (0u16..512).prop_map(Op::Fail),
            (0u16..512).prop_map(Op::Leave),
            (0u16..512).prop_map(Op::Repair),
            (0u16..512, 0u16..512).prop_map(|(a, b)| Op::Route(a, b)),
        ],
        1..100,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_op_sequences_never_panic(seq in ops(), locality in proptest::bool::ANY) {
        let space = IdSpace::new(9).unwrap();
        let mode = if locality {
            RoutingMode::LocalityAware
        } else {
            RoutingMode::GreedyPrefix
        };
        let config = PastryConfig::new(space, 1).with_mode(mode);
        let seed: Vec<Id> = (0..8).map(|i| Id::new(i * 61 + 3)).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = PastryNetwork::build(config, &seed, &mut rng);
        for op in seq {
            match op {
                Op::Join(v) => {
                    let _ = net.join(space.normalize(u128::from(v)), (0.1, 0.9));
                }
                Op::Fail(v) if net.len() > 1 => {
                    let _ = net.fail(space.normalize(u128::from(v)));
                }
                Op::Leave(v) if net.len() > 1 => {
                    let _ = net.leave(space.normalize(u128::from(v)));
                }
                Op::Repair(v) => {
                    let id = space.normalize(u128::from(v));
                    if net.is_live(id) {
                        net.refresh_from_truth(id);
                    }
                }
                Op::Route(from, key) => {
                    let from = space.normalize(u128::from(from));
                    if net.is_live(from) {
                        let res = net.route(from, space.normalize(u128::from(key))).unwrap();
                        prop_assert!(res.trace.hops <= net.config().hop_limit);
                    }
                }
                _ => {}
            }
        }
        // Heal and verify.
        net.repair_all();
        let live = net.live_ids();
        for &from in live.iter().take(6) {
            for key in [0u128, 77, 200, 311, 444, 511] {
                let res = net.route(from, Id::new(key)).unwrap();
                prop_assert!(res.is_success(),
                    "repaired overlay must route: from {} key {} got {:?}",
                    from, key, res.outcome
                );
            }
        }
    }

    #[test]
    fn leaf_sets_stay_symmetric_after_repair(seq in ops()) {
        let space = IdSpace::new(9).unwrap();
        let config = PastryConfig::new(space, 1);
        let seed: Vec<Id> = (0..8).map(|i| Id::new(i * 61 + 3)).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = PastryNetwork::build(config, &seed, &mut rng);
        for op in seq {
            match op {
                Op::Join(v) => { let _ = net.join(space.normalize(u128::from(v)), (0.5, 0.5)); }
                Op::Fail(v) if net.len() > 1 => { let _ = net.fail(space.normalize(u128::from(v))); }
                _ => {}
            }
        }
        net.repair_all();
        // After repair every leaf entry is live, excludes self, and has
        // no duplicates.
        for id in net.live_ids() {
            let node = net.node(id).unwrap();
            let mut leaves = node.leaves.clone();
            prop_assert!(!leaves.contains(&id));
            prop_assert!(leaves.iter().all(|&l| net.is_live(l)));
            leaves.sort();
            let before = leaves.len();
            leaves.dedup();
            prop_assert_eq!(before, leaves.len(), "duplicate leaves at {}", id);
        }
    }
}
