//! Large-scale smoke tests, `#[ignore]`d by default.
//! Run with `cargo test --release -- --ignored`.

use std::time::Instant;

use peercache::chord::{ChordConfig, ChordNetwork};
use peercache::select::chord::select_fast;
use peercache::select::pastry::select_greedy;
use peercache::workload::{random_ids, Zipf};
use peercache::{Candidate, ChordProblem, Id, IdSpace, PastryProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn big_candidates(n: usize, seed: u64) -> (IdSpace, Id, Vec<Id>, Vec<Candidate>) {
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(space, n + 33, &mut rng);
    let source = ids[0];
    let core = ids[1..33].to_vec();
    let zipf = Zipf::new(n, 1.1).expect("valid Zipf");
    let candidates = ids[33..]
        .iter()
        .enumerate()
        .map(|(i, &id)| Candidate::new(id, zipf.rank_probability(i) * 1e7))
        .collect();
    (space, source, core, candidates)
}

#[test]
#[ignore = "large-scale; run with --ignored"]
fn chord_fast_handles_hundred_thousand_candidates() {
    let n = 100_000;
    let (space, source, core, candidates) = big_candidates(n, 1);
    let problem = ChordProblem::new(space, source, core, candidates, 17).unwrap();
    let start = Instant::now();
    let sel = select_fast(&problem).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(sel.aux.len(), 17);
    assert!(sel.cost.is_finite());
    // O((n + c)·b + k·n·log n) should stay comfortably interactive.
    assert!(
        elapsed.as_secs() < 60,
        "fast solver took {elapsed:?} for n = {n}"
    );
    println!("chord fast, n = {n}: {elapsed:?}");
}

#[test]
#[ignore = "large-scale; run with --ignored"]
fn pastry_greedy_handles_hundred_thousand_candidates() {
    let n = 100_000;
    let (space, source, core, candidates) = big_candidates(n, 2);
    let problem = PastryProblem::new(space, 1, source, core, candidates, 17).unwrap();
    let start = Instant::now();
    let sel = select_greedy(&problem).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(sel.aux.len(), 17);
    assert!(
        elapsed.as_secs() < 60,
        "greedy solver took {elapsed:?} for n = {n}"
    );
    println!("pastry greedy, n = {n}: {elapsed:?}");
}

#[test]
#[ignore = "large-scale; run with --ignored"]
fn ten_thousand_node_ring_routes_correctly() {
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(3);
    let ids = random_ids(space, 10_000, &mut rng);
    let start = Instant::now();
    let mut net = ChordNetwork::build(ChordConfig::new(space), &ids);
    let built = start.elapsed();
    let mut max_hops = 0;
    for _ in 0..5_000 {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = Id::new(u128::from(rng.gen::<u32>()));
        let res = net.lookup(from, key).unwrap();
        assert!(res.is_success());
        max_hops = max_hops.max(res.trace.hops);
    }
    // log2(10_000) ≈ 13.3; allow generous slack.
    assert!(max_hops <= 26, "max hops {max_hops}");
    println!("10k ring built in {built:?}, max hops {max_hops}");
}
