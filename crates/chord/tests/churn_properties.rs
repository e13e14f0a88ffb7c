//! Property-based failure injection for the Chord overlay: arbitrary
//! interleavings of joins, crashes, graceful leaves, stabilizations, and
//! lookups must never panic, and a healed ring must route perfectly.

use peercache_chord::{ChordConfig, ChordNetwork};
use peercache_id::{Id, IdSpace};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Join(u16),
    Fail(u16),
    Leave(u16),
    Stabilize(u16),
    Lookup(u16, u16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..512).prop_map(Op::Join),
            (0u16..512).prop_map(Op::Fail),
            (0u16..512).prop_map(Op::Leave),
            (0u16..512).prop_map(Op::Stabilize),
            (0u16..512, 0u16..512).prop_map(|(a, b)| Op::Lookup(a, b)),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_op_sequences_never_panic(seq in ops()) {
        let space = IdSpace::new(9).unwrap();
        let seed: Vec<Id> = (0..8).map(|i| Id::new(i * 61 + 3)).collect();
        let mut net = ChordNetwork::build(ChordConfig::new(space), &seed);
        for op in seq {
            match op {
                Op::Join(v) => {
                    let _ = net.join(space.normalize(u128::from(v)));
                }
                Op::Fail(v) => {
                    // Keep at least one node so lookups stay well-defined.
                    if net.len() > 1 {
                        let _ = net.fail(space.normalize(u128::from(v)));
                    }
                }
                Op::Leave(v) => {
                    if net.len() > 1 {
                        let _ = net.leave(space.normalize(u128::from(v)));
                    }
                }
                Op::Stabilize(v) => {
                    let _ = net.stabilize(space.normalize(u128::from(v)));
                }
                Op::Lookup(from, key) => {
                    let from = space.normalize(u128::from(from));
                    if net.is_live(from) {
                        let res = net.lookup(from, space.normalize(u128::from(key))).unwrap();
                        // Hops may not exceed the configured budget.
                        prop_assert!(res.trace.hops <= net.config().hop_limit);
                    }
                }
            }
        }
        // Heal: a few global stabilization rounds restore perfect routing.
        for _ in 0..3 {
            net.stabilize_all();
        }
        let live = net.live_ids();
        for &from in live.iter().take(6) {
            for key in [0u128, 100, 200, 300, 400, 511] {
                let res = net.lookup(from, Id::new(key)).unwrap();
                prop_assert!(res.is_success(),
                    "healed ring must route: from {} key {} got {:?}",
                    from,
                    key,
                    res.outcome
                );
            }
        }
    }

    #[test]
    fn stale_entries_never_point_at_self(seq in ops()) {
        let space = IdSpace::new(9).unwrap();
        let seed: Vec<Id> = (0..8).map(|i| Id::new(i * 61 + 3)).collect();
        let mut net = ChordNetwork::build(ChordConfig::new(space), &seed);
        for op in seq {
            match op {
                Op::Join(v) => { let _ = net.join(space.normalize(u128::from(v))); }
                Op::Fail(v) if net.len() > 1 => { let _ = net.fail(space.normalize(u128::from(v))); }
                Op::Leave(v) if net.len() > 1 => { let _ = net.leave(space.normalize(u128::from(v))); }
                Op::Stabilize(v) => { let _ = net.stabilize(space.normalize(u128::from(v))); }
                _ => {}
            }
        }
        for id in net.live_ids() {
            let node = net.node(id).unwrap();
            let entries = node.fingers.iter().flatten().chain(&node.successors).chain(&node.aux);
            prop_assert!(entries.copied().all(|n| n != id), "self-pointer at {id}");
            prop_assert_ne!(node.predecessor, Some(id));
        }
    }
}

/// A graceful leave from a two-node ring leaves the survivor as `build`
/// leaves a one-node ring: no successor and no predecessor, never itself.
#[test]
fn leaving_a_two_node_ring_leaves_no_self_pointer() {
    let space = IdSpace::new(8).unwrap();
    let (stay, go) = (Id::new(10), Id::new(200));
    let mut net = ChordNetwork::build(ChordConfig::new(space), &[stay, go]);
    net.leave(go).unwrap();
    let alone = ChordNetwork::build(ChordConfig::new(space), &[stay]);
    for net in [&net, &alone] {
        let node = net.node(stay).unwrap();
        assert!(node.successors.is_empty(), "{:?}", node.successors);
        assert_eq!(node.predecessor, None);
    }
    net.stabilize(stay).unwrap();
    let node = net.node(stay).unwrap();
    assert!(node.successors.is_empty() && node.predecessor.is_none());
    let route = net.lookup(stay, Id::new(5)).unwrap();
    assert!(route.is_success());
}
