//! The public-API workflow a downstream user follows, end to end, on both
//! overlays: observe → snapshot → select → install → route.

use peercache::chord::{ChordConfig, ChordNetwork};
use peercache::freq::{ExactCounter, SpaceSaving};
use peercache::pastry::{PastryConfig, PastryNetwork, RoutingMode};
use peercache::select::baseline::chord_oblivious;
use peercache::select::chord::{select_fast, select_naive};
use peercache::select::exhaustive::chord_exhaustive;
use peercache::select::pastry::{select_greedy, PastryOptimizer};
use peercache::workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use peercache::{
    Candidate, ChordProblem, FrequencyEstimator, FrequencySnapshot, Id, IdSpace, PastryProblem,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn chord_workflow_improves_measured_hops() {
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(1);
    let nodes = random_ids(space, 96, &mut rng);
    let mut net = ChordNetwork::build(ChordConfig::new(space), &nodes);
    let me = nodes[0];

    let catalog = ItemCatalog::random(space, 48, &mut rng);
    let workload = NodeWorkload::new(Zipf::new(48, 1.2).unwrap(), Ranking::identity(48));

    // Observe with BOTH estimators; Space-Saving must agree on the heavy
    // hitters with a fraction of the state.
    let mut exact = ExactCounter::new();
    let mut sketch = SpaceSaving::new(16);
    let mut hops_before = 0u64;
    for _ in 0..4_000 {
        let key = catalog.key(workload.sample_item(&mut rng));
        let res = net.lookup(me, key).unwrap();
        assert!(res.is_success());
        hops_before += u64::from(res.hops);
        let owner = *res.path.last().unwrap();
        exact.observe(owner);
        sketch.observe(owner);
    }

    let core = net.node(me).unwrap().core_neighbors();
    let build = |snapshot: FrequencySnapshot| {
        let cands: Vec<Candidate> = snapshot
            .without(core.iter().copied().chain([me]))
            .iter()
            .map(|(id, w)| Candidate::new(id, w))
            .collect();
        ChordProblem::new(space, me, core.clone(), cands, 7).unwrap()
    };
    let from_exact = select_fast(&build(exact.snapshot())).unwrap();
    let from_sketch = select_fast(&build(sketch.snapshot())).unwrap();
    // The sketch tracks 16 of ~48 owners yet the chosen sets overlap
    // heavily (heavy hitters are guaranteed monitored).
    let overlap = from_exact
        .aux
        .iter()
        .filter(|id| from_sketch.aux.contains(id))
        .count();
    assert!(
        overlap * 2 >= from_exact.aux.len(),
        "sketch-driven selection diverged: {overlap}/{} shared",
        from_exact.aux.len()
    );

    net.set_aux(me, &from_exact.aux).unwrap();
    let mut rng2 = StdRng::seed_from_u64(2);
    let mut hops_after = 0u64;
    for _ in 0..4_000 {
        let key = catalog.key(workload.sample_item(&mut rng2));
        hops_after += u64::from(net.lookup(me, key).unwrap().hops);
    }
    assert!(
        hops_after < hops_before,
        "hops {hops_after} must improve on {hops_before}"
    );
}

#[test]
fn pastry_workflow_with_incremental_reoptimisation() {
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(3);
    let nodes = random_ids(space, 64, &mut rng);
    let config = PastryConfig::new(space, 1).with_mode(RoutingMode::GreedyPrefix);
    let mut net = PastryNetwork::build(config, &nodes, &mut rng);
    let me = nodes[0];

    let core = net.node(me).unwrap().core_neighbors();
    let candidates: Vec<Candidate> = nodes[1..]
        .iter()
        .filter(|id| !core.contains(id))
        .enumerate()
        .map(|(i, &id)| Candidate::new(id, 1.0 + (i % 5) as f64))
        .collect();
    let problem = PastryProblem::new(space, 1, me, core, candidates, 6).unwrap();

    // Warm optimiser; popularity shifts arrive one at a time.
    let mut opt = PastryOptimizer::new(&problem).unwrap();
    let first = opt.select().unwrap();
    net.set_aux(me, &first.aux).unwrap();

    let hot = problem.candidates[7].id;
    opt.update_weight(hot, 500.0).unwrap();
    let second = opt.select().unwrap();
    assert!(second.aux.contains(&hot), "spiking peer must be selected");
    net.set_aux(me, &second.aux).unwrap();
    let res = net.route(me, hot).unwrap();
    assert!(res.is_success());
    assert_eq!(res.hops, 1, "direct pointer");

    // The incremental state matches a from-scratch solve.
    let mut shifted = problem.clone();
    shifted
        .candidates
        .iter_mut()
        .find(|c| c.id == hot)
        .unwrap()
        .weight = 500.0;
    let scratch = select_greedy(&shifted).unwrap();
    assert!((second.cost - scratch.cost).abs() < 1e-9);
}

#[test]
fn all_solvers_agree_on_a_shared_instance() {
    let space = IdSpace::new(10).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let ids = random_ids(space, 14, &mut rng);
    let problem = ChordProblem::new(
        space,
        ids[0],
        vec![ids[1], ids[2]],
        ids[3..]
            .iter()
            .enumerate()
            .map(|(i, &id)| Candidate::new(id, (i * i % 17) as f64 + 1.0))
            .collect(),
        3,
    )
    .unwrap();
    let fast = select_fast(&problem).unwrap();
    let naive = select_naive(&problem).unwrap();
    let best = chord_exhaustive(&problem).unwrap();
    assert!((fast.cost - best.cost).abs() < 1e-9);
    assert!((naive.cost - best.cost).abs() < 1e-9);

    let mut rng = StdRng::seed_from_u64(6);
    let oblivious = chord_oblivious(&problem, &mut rng);
    assert!(best.cost <= oblivious.cost + 1e-9);
}

#[test]
fn facade_reexports_are_usable() {
    // Types reachable from the crate root without touching sub-crates.
    let space: IdSpace = IdSpace::new(8).unwrap();
    let id: Id = Id::new(42);
    assert!(space.contains(id));
    let snapshot: FrequencySnapshot = FrequencySnapshot::from_counts(vec![(Id::new(1), 3u64)]);
    assert_eq!(snapshot.len(), 1);
    let err = ChordProblem::new(space, id, vec![id], vec![], 1).unwrap_err();
    assert!(matches!(err, peercache::SelectError::InvalidProblem(_)));
}

#[test]
fn node_lifecycle_workflow_persists_and_reconnects() {
    use peercache::faults::{FaultConfig, FaultPlan};
    use peercache::node::{NodeRuntime, PeerStore, StoreConfig};
    use peercache::sim::{OverlayKind, RuntimeFixture, StableConfig};

    // The full downstream lifecycle: build a world, host it in the
    // runtime, let lookups feed the owner's peer store, persist it,
    // reboot, and reconnect in reliability order.
    let mut config = StableConfig::paper_defaults(OverlayKind::Chord, 48, 33);
    config.queries = 1_500;
    let fixture = RuntimeFixture::build(&config);
    let faults = FaultConfig {
        unresponsive_rate: 0.15,
        loss_rate: 0.05,
        ..FaultConfig::default()
    };
    let owner = fixture.node_ids()[0];

    let mut runtime = NodeRuntime::new(fixture.overlay(), FaultPlan::new(config.seed, &faults));
    runtime.install_aux(fixture.aware_table());
    runtime.attach_store(owner, PeerStore::new(StoreConfig::default()));
    for (origin, key) in fixture.queries() {
        runtime.submit(origin, key);
    }
    runtime.run();
    let (_, store) = runtime.detach_store().expect("store attached");
    assert!(!store.is_empty(), "lookup traffic must populate the store");
    assert!(
        store.entries().iter().any(|e| e.successes + e.failures > 0),
        "scores must be fed by RouteTrace outcomes"
    );

    // Persist → reboot → reconnect. The reloaded store is identical and
    // reconnection walks it by score (golden-pinned in the node crate).
    let dir = std::env::temp_dir().join("peercache-api-workflow");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("peers.jsonl");
    store.save(&path).expect("save");
    let reloaded = PeerStore::load(&path, StoreConfig::default());
    assert_eq!(reloaded, store);

    let mut reboot = NodeRuntime::new(fixture.overlay(), FaultPlan::new(config.seed, &faults));
    reboot.attach_store(owner, reloaded);
    let connected = reboot.reconnect();
    assert!(!connected.is_empty(), "a healthy overlay reconnects peers");
    let (_, after) = reboot.detach_store().expect("store attached");
    assert!(after.len() >= store.len());
    std::fs::remove_file(&path).expect("cleanup");
}
