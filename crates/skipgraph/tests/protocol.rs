//! Skip-graph protocol tests: level structure, search correctness and
//! bounds, churn behaviour, and the transfer of the Chord selection
//! algorithm via rank space.

use peercache_core::chord::select_fast;
use peercache_core::{Candidate, ChordProblem};
use peercache_id::{Id, IdSpace};
use peercache_skipgraph::{SkipGraphConfig, SkipGraphNetwork};
use peercache_workload::random_ids;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn id(v: u128) -> Id {
    Id::new(v)
}

fn random_net(bits: u8, n: usize, seed: u64) -> (SkipGraphNetwork, Vec<Id>) {
    let space = IdSpace::new(bits).expect("valid bits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = random_ids(space, n, &mut rng);
    ids.sort();
    let net = SkipGraphNetwork::build(SkipGraphConfig::new(space), &ids);
    (net, ids)
}

#[test]
fn level_zero_is_the_full_ring() {
    let (net, ids) = random_net(16, 32, 1);
    for (pos, &nid) in ids.iter().enumerate() {
        let node = net.node(nid).unwrap();
        let successor = ids[(pos + 1) % ids.len()];
        assert_eq!(node.levels[0], Some(successor), "level 0 links the ring");
    }
}

#[test]
fn level_links_share_membership_prefixes() {
    let (net, ids) = random_net(16, 64, 2);
    for &nid in &ids {
        let node = net.node(nid).unwrap();
        for (level, link) in node.levels.iter().enumerate() {
            if let Some(w) = link {
                let peer = net.node(*w).unwrap();
                if level > 0 {
                    let mask = (1u64 << level) - 1;
                    assert_eq!(
                        node.mv & mask,
                        peer.mv & mask,
                        "level {level} must share {level} membership bits"
                    );
                }
            }
        }
    }
}

#[test]
fn level_links_span_exponential_rank_distances() {
    let (net, ids) = random_net(32, 256, 3);
    let rank: HashMap<Id, usize> = ids.iter().enumerate().map(|(r, &i)| (i, r)).collect();
    let n = ids.len();
    // Average rank distance of level-i links should roughly double per
    // level (2^i in expectation).
    let mut per_level: Vec<(f64, usize)> = vec![(0.0, 0); 8];
    for &nid in &ids {
        let node = net.node(nid).unwrap();
        for (level, link) in node.levels.iter().enumerate().take(8) {
            if let Some(w) = link {
                let d = (rank[w] + n - rank[&nid]) % n;
                per_level[level].0 += d as f64;
                per_level[level].1 += 1;
            }
        }
    }
    let avg: Vec<f64> = per_level
        .iter()
        .filter(|&&(_, c)| c > 0)
        .map(|&(s, c)| s / c as f64)
        .collect();
    assert!(avg.len() >= 5);
    for w in avg.windows(2) {
        assert!(
            w[1] > w[0] * 1.4,
            "rank spans must grow roughly geometrically: {avg:?}"
        );
    }
}

#[test]
fn search_reaches_owner_from_everywhere() {
    let (mut net, ids) = random_net(16, 48, 4);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..200 {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = id(u128::from(rng.gen::<u16>()));
        let res = net.search(from, key).unwrap();
        assert!(res.is_success(), "from {from} key {key}");
        assert_eq!(res.path.last(), Some(&net.true_owner(key).unwrap()));
        assert_eq!(res.failed_probes, 0);
    }
}

#[test]
fn search_hops_are_logarithmic() {
    let (mut net, ids) = random_net(32, 256, 6);
    let mut rng = StdRng::seed_from_u64(7);
    let mut max_hops = 0;
    for _ in 0..2000 {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = id(u128::from(rng.gen::<u32>()));
        let res = net.search(from, key).unwrap();
        assert!(res.is_success());
        max_hops = max_hops.max(res.hops);
    }
    // O(log n) w.h.p.: log2(256) = 8; generous slack for the tail.
    assert!(max_hops <= 24, "max hops {max_hops}");
}

#[test]
fn aux_neighbors_shorten_searches() {
    let (mut net, ids) = random_net(32, 256, 8);
    let from = ids[0];
    let far = *ids
        .iter()
        .max_by_key(|&&t| net.search(from, t).unwrap().hops)
        .unwrap();
    assert!(net.search(from, far).unwrap().hops >= 2);
    net.set_aux(from, &[far]).unwrap();
    let res = net.search(from, far).unwrap();
    assert!(res.is_success());
    assert_eq!(res.hops, 1);
}

#[test]
fn chord_selection_transfers_via_rank_space() {
    // §I's claim: run the Chord optimiser on the skip graph by mapping
    // nodes to their ranks (the geometry the level links live in).
    let (mut net, ids) = random_net(32, 192, 9);
    let me = ids[0];
    let n = ids.len();
    let rank_bits = 8u8; // 2^8 = 256 ≥ n
    let rank_space = IdSpace::new(rank_bits).unwrap();
    let core = net.node(me).unwrap().core_neighbors();
    let rank: HashMap<Id, usize> = ids.iter().enumerate().map(|(r, &i)| (i, r)).collect();
    // Zipf-ish weights by arbitrary order.
    let weights: Vec<(Id, f64)> = ids[1..]
        .iter()
        .enumerate()
        .map(|(i, &nid)| (nid, 1000.0 / (i + 1) as f64))
        .collect();
    let to_rank_id = |nid: Id| Id::new(((rank[&nid] + n - rank[&me]) % n) as u128);
    let candidates: Vec<Candidate> = weights
        .iter()
        .filter(|(nid, _)| !core.contains(nid))
        .map(|&(nid, w)| Candidate::new(to_rank_id(nid), w))
        .collect();
    let core_ranks: Vec<Id> = core.iter().map(|&c| to_rank_id(c)).collect();
    let problem = ChordProblem::new(rank_space, Id::new(0), core_ranks, candidates, 8).unwrap();
    let sel = select_fast(&problem).unwrap();
    // Map the chosen ranks back to node ids.
    let from_rank: HashMap<u128, Id> = ids
        .iter()
        .map(|&nid| (to_rank_id(nid).value(), nid))
        .collect();
    let aux: Vec<Id> = sel.aux.iter().map(|r| from_rank[&r.value()]).collect();

    let measure = |net: &mut SkipGraphNetwork| -> f64 {
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        weights
            .iter()
            .map(|&(nid, w)| w * f64::from(net.search(me, nid).unwrap().hops))
            .sum::<f64>()
            / total
    };
    net.set_aux(me, &[]).unwrap();
    let base = measure(&mut net);
    net.set_aux(me, &aux).unwrap();
    let optimal = measure(&mut net);
    // Random pick of equal size for contrast.
    let mut rng = StdRng::seed_from_u64(10);
    let mut pool: Vec<Id> = weights.iter().map(|&(nid, _)| nid).collect();
    use rand::seq::SliceRandom;
    pool.shuffle(&mut rng);
    net.set_aux(me, &pool[..sel.aux.len()]).unwrap();
    let random = measure(&mut net);

    assert!(optimal < base, "optimal {optimal} must beat no-aux {base}");
    assert!(
        optimal < random,
        "optimal {optimal} must beat random {random}"
    );
}

#[test]
fn searches_survive_failures_and_heal_after_rebuild() {
    let (mut net, ids) = random_net(16, 64, 11);
    for &victim in ids.iter().take(16) {
        net.fail(victim).unwrap();
    }
    // Stale links: searches degrade gracefully (a node whose only link
    // toward the key died stops early — skip graphs have no successor
    // list to fall back on), but most still succeed by probing around
    // corpses.
    let live = net.live_ids();
    let mut rng = StdRng::seed_from_u64(12);
    let mut ok = 0;
    for _ in 0..100 {
        let from = live[rng.gen_range(0..live.len())];
        let key = id(u128::from(rng.gen::<u16>()));
        let res = net.search(from, key).unwrap();
        if res.is_success() {
            ok += 1;
        }
    }
    assert!(ok >= 70, "only {ok}/100 searches survived the churn");
    // After a rebuild everything is clean and correct again.
    net.rebuild_all();
    for &nid in &live {
        let node = net.node(nid).unwrap();
        assert!(node.known_neighbors().iter().all(|w| net.is_live(*w)));
    }
    for _ in 0..100 {
        let from = live[rng.gen_range(0..live.len())];
        let key = id(u128::from(rng.gen::<u16>()));
        assert!(net.search(from, key).unwrap().is_success());
    }
}

#[test]
fn membership_errors_are_reported() {
    let (mut net, ids) = random_net(16, 8, 13);
    assert!(net.join(ids[0]).is_err(), "duplicate");
    assert!(net.join(id(1 << 20)).is_err(), "out of space");
    let ghost = id(65_000);
    assert!(!ids.contains(&ghost));
    assert!(net.fail(ghost).is_err());
    assert!(net.set_aux(ghost, &[]).is_err());
    assert!(net.search(ghost, id(0)).is_err());
}

#[test]
fn single_node_owns_everything() {
    let space = IdSpace::new(8).unwrap();
    let mut net = SkipGraphNetwork::build(SkipGraphConfig::new(space), &[id(99)]);
    for key in (0..256u128).step_by(37) {
        let res = net.search(id(99), id(key)).unwrap();
        assert!(res.is_success());
        assert_eq!(res.hops, 0);
    }
}
