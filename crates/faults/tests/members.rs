//! Differential test of the member store: random sequences of inserts
//! (duplicates included) and removes (absent ids included) applied to a
//! [`Members`] and to a `BTreeMap` reference, with every point and
//! ordered query compared after each operation — `get`, `get_mut`,
//! `contains`, the sorted ring, the wrapping neighbour searches and cell
//! ranges. Ids are drawn near a few centres, and 0 and 2¹²⁸ − 1 are
//! always in play, so collisions, the ends of the id space and the
//! wrap-around are exercised.

use std::collections::BTreeMap;

use peercache_faults::Members;
use peercache_id::Id;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert(u128, u32),
    Remove(u128),
}

/// Ids clustered near 0, near 2¹²⁸ − 1 and in one small middle window,
/// so sequences revisit the same ids.
fn id_value() -> impl Strategy<Value = u128> {
    prop_oneof![
        0u128..8,
        (0u128..8).prop_map(|d| u128::MAX - d),
        1000u128..1016,
        Just(0u128),
        Just(u128::MAX),
    ]
}

/// Inserts twice as often as removes, so the store grows.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (id_value(), 0u32..1000).prop_map(|(id, v)| Op::Insert(id, v)),
        (id_value(), 0u32..1000).prop_map(|(id, v)| Op::Insert(id, v)),
        id_value().prop_map(Op::Remove),
    ]
}

/// The reference answers, read off the `BTreeMap`.
fn ref_at_or_before(r: &BTreeMap<u128, u32>, key: u128) -> Option<u128> {
    r.range(..=key)
        .next_back()
        .or_else(|| r.iter().next_back())
        .map(|(&k, _)| k)
}

fn ref_before(r: &BTreeMap<u128, u32>, id: u128) -> Option<u128> {
    r.range(..id)
        .next_back()
        .or_else(|| r.iter().next_back())
        .map(|(&k, _)| k)
}

fn ref_after(r: &BTreeMap<u128, u32>, id: u128) -> Option<u128> {
    id.checked_add(1)
        .and_then(|s| r.range(s..).next())
        .or_else(|| r.iter().next())
        .map(|(&k, _)| k)
}

fn ref_range(r: &BTreeMap<u128, u32>, low: u128, high: u128) -> Vec<Id> {
    if low > high {
        return Vec::new();
    }
    r.range(low..=high).map(|(&k, _)| Id::new(k)).collect()
}

/// Every query of `store` against the reference, at `probes` and at
/// every pair of them as a cell range.
fn check(store: &mut Members<u32>, reference: &BTreeMap<u128, u32>, probes: &[u128]) {
    let ring: Vec<Id> = reference.keys().map(|&k| Id::new(k)).collect();
    assert_eq!(store.ids(), ring.as_slice(), "sorted ring");
    assert_eq!(store.len(), reference.len());
    assert_eq!(store.is_empty(), reference.is_empty());
    for &p in probes {
        let id = Id::new(p);
        assert_eq!(
            store.contains(id),
            reference.contains_key(&p),
            "contains {p}"
        );
        assert_eq!(store.get(id), reference.get(&p), "get {p}");
        assert_eq!(store.get_mut(id).copied(), reference.get(&p).copied());
        assert_eq!(
            store.at_or_before(id).map(Id::value),
            ref_at_or_before(reference, p),
            "at_or_before {p}"
        );
        assert_eq!(
            store.before(id).map(Id::value),
            ref_before(reference, p),
            "before {p}"
        );
        assert_eq!(
            store.after(id).map(Id::value),
            ref_after(reference, p),
            "after {p}"
        );
        for &q in probes {
            assert_eq!(
                store.range(p, q),
                ref_range(reference, p, q).as_slice(),
                "range {p}..={q}"
            );
        }
    }
}

/// Probe ids: both ends of the space, the cluster edges, and every id
/// the sequence touched.
fn probes_for(ops: &[Op]) -> Vec<u128> {
    let mut probes = vec![0, 1, 7, 8, 999, 1000, 1015, 1016, u128::MAX - 8, u128::MAX];
    for op in ops {
        match *op {
            Op::Insert(id, _) | Op::Remove(id) => probes.push(id),
        }
    }
    probes.sort_unstable();
    probes.dedup();
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn members_match_an_ordered_map_reference(
        ops in prop::collection::vec(op(), 0..60),
    ) {
        let probes = probes_for(&ops);
        let mut store = Members::new();
        let mut reference = BTreeMap::new();
        check(&mut store, &reference, &probes);
        for op in &ops {
            match *op {
                Op::Insert(id, v) => {
                    prop_assert_eq!(store.insert(Id::new(id), v), reference.insert(id, v));
                }
                Op::Remove(id) => {
                    prop_assert_eq!(store.remove(Id::new(id)), reference.remove(&id));
                }
            }
            check(&mut store, &reference, &probes);
        }
    }

    #[test]
    fn bulk_load_matches_the_reference(
        ids in prop::collection::btree_set(id_value(), 0..40),
    ) {
        let ids: Vec<u128> = ids.into_iter().rev().collect();
        let values = |id: u128| u32::try_from(id % 1000).unwrap();
        let mut loaded = Members::load(ids.iter().map(|&id| (Id::new(id), values(id))));
        let reference: BTreeMap<u128, u32> = ids.iter().map(|&id| (id, values(id))).collect();
        let mut probes = probes_for(&[]);
        probes.extend(&ids);
        check(&mut loaded, &reference, &probes);
    }
}

#[test]
fn an_empty_store_answers_none_everywhere() {
    let mut store: Members<u32> = Members::new();
    check(&mut store, &BTreeMap::new(), &[0, 5, u128::MAX]);
    assert_eq!(store.remove(Id::new(5)), None);
    assert!(store.ids().is_empty());
}

#[test]
fn one_member_is_its_own_neighbour_and_everyone_s_predecessor() {
    for only in [0, 42, u128::MAX] {
        let mut store = Members::new();
        assert_eq!(store.insert(Id::new(only), 1), None);
        // A duplicate insert replaces the state and keeps the ring.
        assert_eq!(store.insert(Id::new(only), 2), Some(1));
        assert_eq!(store.ids(), &[Id::new(only)]);
        let reference = BTreeMap::from([(only, 2)]);
        check(&mut store, &reference, &[0, 41, 42, 43, u128::MAX]);
        assert_eq!(store.after(Id::new(only)), Some(Id::new(only)));
        assert_eq!(store.before(Id::new(only)), Some(Id::new(only)));
        if let Some(node) = store.get_mut(Id::new(only)) {
            *node = 3;
        }
        assert_eq!(store.get(Id::new(only)), Some(&3));
    }
}

#[test]
fn the_ends_of_the_id_space_wrap_onto_each_other() {
    let store = Members::load([(Id::new(0), 0u32), (Id::new(u128::MAX), 1)].into_iter());
    assert_eq!(store.after(Id::new(u128::MAX)), Some(Id::new(0)));
    assert_eq!(store.before(Id::new(0)), Some(Id::new(u128::MAX)));
    assert_eq!(store.at_or_before(Id::new(5)), Some(Id::new(0)));
    assert_eq!(store.range(0, u128::MAX), &[Id::new(0), Id::new(u128::MAX)]);
    assert_eq!(store.range(1, u128::MAX - 1), &[] as &[Id]);
}

#[test]
#[should_panic(expected = "duplicate node id")]
fn bulk_load_rejects_a_repeated_id() {
    let _ = Members::load([(Id::new(3), 0u32), (Id::new(3), 1)].into_iter());
}
