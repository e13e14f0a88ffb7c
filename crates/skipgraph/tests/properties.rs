//! Property tests for the skip graph: structural invariants of the level
//! rings and search correctness on randomized memberships.

use peercache_id::{Id, IdSpace};
use peercache_skipgraph::{SkipGraphConfig, SkipGraphNetwork};
use proptest::prelude::*;

fn memberships() -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::btree_set(0u16..1024, 2..48)
        .prop_map(|s| s.into_iter().collect::<Vec<u16>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn searches_always_reach_the_predecessor(raw in memberships(), key in 0u16..1024) {
        let space = IdSpace::new(10).unwrap();
        let ids: Vec<Id> = raw.iter().map(|&v| Id::new(u128::from(v))).collect();
        let mut net = SkipGraphNetwork::build(SkipGraphConfig::new(space), &ids);
        let key = Id::new(u128::from(key));
        let owner = net.true_owner(key).unwrap();
        for &from in &ids {
            let res = net.search(from, key).unwrap();
            prop_assert!(res.is_success(), "from {} key {}", from, key);
            prop_assert_eq!(res.trace.path.last(), Some(&owner));
        }
    }

    #[test]
    fn level_rings_partition_the_membership(raw in memberships()) {
        let space = IdSpace::new(10).unwrap();
        let ids: Vec<Id> = raw.iter().map(|&v| Id::new(u128::from(v))).collect();
        let net = SkipGraphNetwork::build(SkipGraphConfig::new(space), &ids);
        // Following level-i links from any node must cycle back to it,
        // visiting exactly the nodes sharing its i-bit membership prefix.
        for &start in &ids {
            let node = net.node(start).unwrap();
            for (level, link) in node.levels.iter().enumerate() {
                let Some(first) = link else { continue };
                let mask = if level == 0 { 0 } else { (1u64 << level) - 1 };
                let mut seen = vec![start];
                let mut cur = *first;
                let mut steps = 0;
                while cur != start {
                    prop_assert_eq!(
                        net.node(cur).unwrap().mv & mask,
                        node.mv & mask,
                        "level {} ring member with wrong prefix", level
                    );
                    seen.push(cur);
                    cur = net.node(cur).unwrap().levels[level]
                        .expect("ring members are linked");
                    steps += 1;
                    prop_assert!(steps <= ids.len(), "level ring must close");
                }
                // Ring covers every sharing node exactly once.
                let sharing = ids
                    .iter()
                    .filter(|&&w| net.node(w).unwrap().mv & mask == node.mv & mask)
                    .count();
                prop_assert_eq!(seen.len(), sharing);
            }
        }
    }

    #[test]
    fn search_paths_are_monotone_toward_the_key(raw in memberships(), key in 0u16..1024) {
        let space = IdSpace::new(10).unwrap();
        let ids: Vec<Id> = raw.iter().map(|&v| Id::new(u128::from(v))).collect();
        let mut net = SkipGraphNetwork::build(SkipGraphConfig::new(space), &ids);
        let key = Id::new(u128::from(key));
        let from = ids[0];
        let res = net.search(from, key).unwrap();
        for pair in res.trace.path.windows(2) {
            prop_assert!(
                space.clockwise_distance(pair[1], key)
                    < space.clockwise_distance(pair[0], key),
                "clockwise-monotone progress"
            );
        }
    }
}
