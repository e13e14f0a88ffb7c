//! Property tests: surrogate-root determinism and routing invariants on
//! randomized memberships.

use peercache_id::{Id, IdSpace};
use peercache_tapestry::{TapestryConfig, TapestryNetwork};
use proptest::prelude::*;

fn memberships() -> impl Strategy<Value = (u8, Vec<u16>)> {
    (2u8..=4).prop_flat_map(|d| {
        (
            Just(d),
            proptest::collection::btree_set(0u16..1024, 2..40)
                .prop_map(|s| s.into_iter().collect::<Vec<u16>>()),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_route_reaches_the_surrogate_root((d, raw) in memberships(), key in 0u16..1024) {
        let space = IdSpace::new(10).unwrap();
        let ids: Vec<Id> = raw.iter().map(|&v| Id::new(u128::from(v))).collect();
        let mut net = TapestryNetwork::build(TapestryConfig::new(space, d), &ids);
        let key = Id::new(u128::from(key));
        let root = net.true_owner(key).unwrap();
        for &from in &ids {
            let res = net.route(from, key).unwrap();
            prop_assert!(res.is_success(),
                "from {} key {} ended at {:?} instead of root {}",
                from, key, res.trace.path.last(), root
            );
            prop_assert_eq!(res.trace.path.last(), Some(&root));
            prop_assert!(res.trace.hops <= net.config().hop_limit);
        }
    }

    #[test]
    fn the_root_shares_the_deepest_prefix((d, raw) in memberships(), key in 0u16..1024) {
        let space = IdSpace::new(10).unwrap();
        let ids: Vec<Id> = raw.iter().map(|&v| Id::new(u128::from(v))).collect();
        let net = TapestryNetwork::build(TapestryConfig::new(space, d), &ids);
        let key = Id::new(u128::from(key));
        let root = net.true_owner(key).unwrap();
        let depth = |w: Id| space.common_prefix_digits(w, key, d).unwrap();
        let max_depth = ids.iter().map(|&w| depth(w)).max().unwrap();
        prop_assert_eq!(
            depth(root), max_depth,
            "root {} must be among the deepest prefix matches", root
        );
    }

    #[test]
    fn aux_pointers_never_change_the_destination((d, raw) in memberships(), key in 0u16..1024) {
        let space = IdSpace::new(10).unwrap();
        let ids: Vec<Id> = raw.iter().map(|&v| Id::new(u128::from(v))).collect();
        let mut net = TapestryNetwork::build(TapestryConfig::new(space, d), &ids);
        let key = Id::new(u128::from(key));
        let root = net.true_owner(key).unwrap();
        // Install arbitrary aux sets everywhere (every 3rd node).
        let aux: Vec<Id> = ids.iter().copied().step_by(3).collect();
        for &node in &ids {
            net.set_aux(node, &aux).unwrap();
        }
        for &from in ids.iter().take(8) {
            let res = net.route(from, key).unwrap();
            prop_assert!(res.is_success());
            prop_assert_eq!(res.trace.path.last(), Some(&root),
                "aux shortcuts must preserve the surrogate root");
        }
    }
}
