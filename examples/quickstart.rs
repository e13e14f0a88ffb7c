//! Quickstart: the full peer-caching loop on a small Chord ring.
//!
//! 1. Build a 128-node Chord overlay.
//! 2. Stream Zipf-skewed queries from one node and track which peers
//!    answered them (the access frequencies of §III).
//! 3. Run the paper's optimal auxiliary-neighbor selection.
//! 4. Install the pointers and measure the hop improvement.
//!
//! Run with `cargo run --release --example quickstart`.

// Demonstration code: unwrap keeps the walkthrough focused.
#![allow(clippy::unwrap_used)]

use peercache::chord::{ChordConfig, ChordNetwork};
use peercache::freq::ExactCounter;
use peercache::select::chord::select_fast;
use peercache::sim::reduction_pct;
use peercache::workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use peercache::{Candidate, ChordProblem, FrequencyEstimator, Id, IdSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let space = IdSpace::paper(); // 32-bit ids, as in the paper
    let mut rng = StdRng::seed_from_u64(2008);

    // 1. A stable 128-node ring with perfect core state.
    let nodes = random_ids(space, 128, &mut rng);
    let mut net = ChordNetwork::build(ChordConfig::new(space), &nodes);
    let me = nodes[0];
    println!("ring of {} nodes; our node is {me}", net.len());

    // 2. Observe 5 000 Zipf(1.2) queries over a 64-item catalog.
    let catalog = ItemCatalog::random(space, 64, &mut rng);
    let workload = NodeWorkload::new(Zipf::new(64, 1.2).unwrap(), Ranking::identity(64));
    let mut counter = ExactCounter::new();
    let mut hops_before = 0u64;
    let queries = 5_000;
    for _ in 0..queries {
        let key = catalog.key(workload.sample_item(&mut rng));
        let result = net.lookup(me, key).expect("we are live");
        assert!(result.is_success(), "stable rings never fail lookups");
        hops_before += u64::from(result.trace.hops);
        counter.observe(*result.trace.path.last().unwrap());
    }
    println!(
        "observed {} distinct answering peers over {queries} queries",
        counter.distinct_peers()
    );

    // 3. Choose the k = log₂ n = 7 optimal auxiliary neighbors.
    let k = 7;
    let core = net.node(me).unwrap().core_neighbors();
    let snapshot = counter
        .snapshot()
        .without(core.iter().copied().chain(std::iter::once(me)));
    let candidates: Vec<Candidate> = snapshot
        .iter()
        .map(|(id, w)| Candidate::new(id, w))
        .collect();
    let problem = ChordProblem::new(space, me, core, candidates, k).unwrap();
    let selection = select_fast(&problem).unwrap();
    println!(
        "selected {} auxiliary neighbors (model cost {:.0}):",
        selection.aux.len(),
        selection.cost
    );
    for aux in &selection.aux {
        println!("  -> {aux}  (weight {:.0})", snapshot.weight_of(*aux));
    }

    // 4. Install and replay the same query mix.
    net.set_aux(me, &selection.aux).unwrap();
    let mut rng = StdRng::seed_from_u64(2008 + 1);
    let mut hops_after = 0u64;
    for _ in 0..queries {
        let key = catalog.key(workload.sample_item(&mut rng));
        let result = net.lookup(me, key).expect("we are live");
        hops_after += u64::from(result.trace.hops);
    }
    let before = hops_before as f64 / f64::from(queries);
    let after = hops_after as f64 / f64::from(queries);
    println!("average hops before: {before:.3}");
    println!("average hops after:  {after:.3}");
    println!(
        "reduction: {:.1}% with {k} cached pointers",
        reduction_pct(after, before)
    );
    assert!(after < before, "auxiliary neighbors must help");

    // Bonus: would one MORE pointer have helped? Ask the optimiser.
    let mut bigger = problem.clone();
    bigger.k = k + 1;
    let next = select_fast(&bigger).unwrap();
    let gained: Vec<Id> = next
        .aux
        .iter()
        .copied()
        .filter(|id| !selection.aux.contains(id))
        .collect();
    println!(
        "the (k+1)-th pointer would be {:?} (model cost {:.0} → {:.0})",
        gained, selection.cost, next.cost
    );
}
