//! The churn-mode experiment driver (§VI-C).
//!
//! Churn follows the paper's setup (itself modelled on \[13\]): the `n`
//! nodes crash and re-join alternately, staying alive (or dead) for an
//! exponentially distributed duration with mean 900 s; queries arrive at
//! 4/s system-wide; every node stabilizes each 25 s and recomputes its
//! auxiliary neighbors each 62.5 s from the access frequencies it has
//! observed so far. The same event schedule (flips, stabilizations,
//! query arrivals — all RNG streams except the baseline's selection
//! randomness) is replayed for the frequency-aware and the
//! frequency-oblivious strategies, so the comparison is paired.

use peercache_faults::{FaultConfig, FaultPlan, Liveness, LookupFailure};
use peercache_freq::{ExactCounter, FrequencyEstimator};
use peercache_id::{Id, IdSpace};
use peercache_workload::{random_ids, ItemCatalog, RankingAssignment, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::engine::{exp_sample, EventQueue};
use crate::metrics::{reduction_pct, FaultMetrics, QueryMetrics};
use crate::overlay::{OverlayKind, SelectScratch, SimOverlay};
use crate::refresh::ChurnRefresh;
use crate::stable::RankingMode;

/// Seconds between a node's stabilization rounds (paper: 25).
const STABILIZE_INTERVAL: f64 = 25.0;

/// Seconds between a node's auxiliary recomputations (paper: 62.5).
const RECOMPUTE_INTERVAL: f64 = 62.5;

/// How the driver recomputes frequency-aware auxiliary sets at
/// recompute ticks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RecomputeMode {
    /// The incremental engine (§IV-C): each live node retains its
    /// optimizer across ticks, observations mark nodes dirty, and a
    /// recompute tick costs `O(dirty · k · b)`. The default — installed
    /// selections (and thus every hop metric) are bit-identical to
    /// [`Full`](Self::Full), which the differential suite enforces.
    Incremental,
    /// The pre-refactor path: snapshot the node's counter and run a
    /// full solve at every tick. Kept as the differential baseline
    /// (`churn_refresh_equivalence`, and the benchmark's churn workload
    /// checks its first run against it); `perf_baseline`'s
    /// `churn_recompute_full` kernel times
    /// [`ChurnRecomputeBench::tick_full`](crate::ChurnRecomputeBench::tick_full)
    /// instead.
    Full,
}

/// Configuration of one churn-mode comparison run.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Which overlay to simulate (the paper's churn plots use Chord).
    pub kind: OverlayKind,
    /// Identifier width.
    pub bits: u8,
    /// Number of (alternating) nodes `n`.
    pub nodes: usize,
    /// Number of items.
    pub items: usize,
    /// Zipf exponent.
    pub alpha: f64,
    /// Ranking distribution.
    pub ranking: RankingMode,
    /// Auxiliary pointers per node.
    pub k: usize,
    /// Mean alive (and dead) duration, seconds (paper: 900).
    pub mean_lifetime: f64,
    /// System-wide query arrival rate per second (paper: 4).
    pub query_rate: f64,
    /// Total simulated time, seconds.
    pub duration: f64,
    /// Queries before this time are routed but not measured.
    pub warmup: f64,
    /// Master seed.
    pub seed: u64,
    /// Injected fault rates; [`FaultConfig::none`] reproduces the
    /// fault-free driver bit for bit.
    pub faults: FaultConfig,
    /// How aware selections are recomputed (bit-identical either way;
    /// [`RecomputeMode::Incremental`] is the fast default).
    pub recompute: RecomputeMode,
}

impl ChurnConfig {
    /// The paper's churn parameters over `nodes` Chord nodes.
    pub fn paper_defaults(nodes: usize, seed: u64) -> Self {
        let k = crate::experiments::log2(nodes);
        ChurnConfig {
            kind: OverlayKind::Chord,
            bits: 32,
            nodes,
            items: 64,
            alpha: 1.2,
            ranking: RankingMode::Pool(5),
            k,
            mean_lifetime: 900.0,
            query_rate: 4.0,
            duration: 7200.0,
            warmup: 1800.0,
            seed,
            faults: FaultConfig::none(),
            recompute: RecomputeMode::Incremental,
        }
    }
}

/// Which selection strategy a churn run installs at recompute ticks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's optimal frequency-aware selection.
    Aware,
    /// The frequency-oblivious random-per-slice baseline.
    Oblivious,
}

#[derive(Clone, Debug)]
enum Event {
    Query,
    Flip(usize),
    Stabilize(usize),
    Recompute(usize),
}

/// The outcome of one churn-mode comparison.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ChurnReport {
    /// Metrics under the frequency-aware strategy.
    pub aware: QueryMetrics,
    /// Metrics under the frequency-oblivious baseline.
    pub oblivious: QueryMetrics,
    /// % reduction in average hops, aware vs oblivious.
    pub reduction_pct: f64,
}

/// Run one strategy through the full event schedule.
///
/// A thin wrapper over [`run_churn_once_faulted`]: the fault layer *is*
/// the churn driver's probe path now, so the fault-free metrics are the
/// `base` slice of the faulted ones (with [`ChurnConfig::faults`]
/// transparent, every probe resolves to the plain liveness check).
///
/// # Panics
/// Panics on nonsensical configurations (zero nodes, non-positive rates).
pub fn run_churn_once(config: &ChurnConfig, strategy: Strategy) -> QueryMetrics {
    run_churn_once_faulted(config, strategy).base
}

/// Run one strategy through the full event schedule with fault
/// injection, reporting degradation counters alongside the base metrics.
///
/// Every probe — including the plain "is this neighbor alive" check the
/// pre-fault driver did ad hoc — goes through the walk's
/// [`FaultPlan`] channel, and the query runs the substrates' repairing
/// walk (`Substrate::walk_repairing`): dead neighbors discovered en route
/// are evicted from the prober's tables afterwards.
///
/// # Panics
/// Panics on nonsensical configurations (zero nodes, non-positive rates).
pub fn run_churn_once_faulted(config: &ChurnConfig, strategy: Strategy) -> FaultMetrics {
    assert!(config.nodes > 0 && config.items > 0);
    assert!(config.query_rate > 0.0 && config.mean_lifetime > 0.0);
    assert!(
        config.alpha.is_finite() && config.alpha >= 0.0,
        "Zipf exponent must be finite and non-negative"
    );
    let space = IdSpace::new(config.bits).expect("valid id width");
    let mut rng_topology = StdRng::seed_from_u64(config.seed);
    let mut rng_workload = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut rng_churn = StdRng::seed_from_u64(config.seed.wrapping_add(2));
    let mut rng_queries = StdRng::seed_from_u64(config.seed.wrapping_add(3));
    let mut rng_select = StdRng::seed_from_u64(config.seed.wrapping_add(4));

    let node_ids = random_ids(space, config.nodes, &mut rng_topology);
    let catalog = ItemCatalog::random(space, config.items, &mut rng_topology);
    // Preconditions asserted above make this infallible (L1 burn-down).
    let Ok(zipf) = Zipf::new(config.items, config.alpha) else {
        unreachable!("item count and exponent are asserted valid above");
    };
    let assignment = match config.ranking {
        RankingMode::Identical => RankingAssignment::identical(config.items, config.nodes),
        RankingMode::Pool(p) => {
            RankingAssignment::random_pool(config.items, config.nodes, p, &mut rng_workload)
        }
    };

    // Initial membership: each node alive with probability ½ — the steady
    // state of the alternating-renewal churn process.
    let alive_init: Vec<bool> = (0..config.nodes).map(|_| rng_churn.gen_bool(0.5)).collect();
    let initial: Vec<Id> = node_ids
        .iter()
        .zip(&alive_init)
        .filter(|&(_, &a)| a)
        .map(|(&id, _)| id)
        .collect();
    let mut overlay = SimOverlay::build(config.kind, space, &initial, &mut rng_topology);
    let mut liveness = Liveness::new(&alive_init);
    let plan = FaultPlan::new(config.seed, &config.faults);

    let index_of: std::collections::BTreeMap<Id, usize> = node_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    let mut counters: Vec<ExactCounter> = vec![ExactCounter::new(); config.nodes];
    // Three periodic events per node plus the query stream are pending at
    // any time; sizing the heap up front keeps the warm-up growth-free.
    let mut queue: EventQueue<Event> = EventQueue::with_capacity(3 * config.nodes + 1);
    queue.schedule(
        exp_sample(1.0 / config.query_rate, &mut rng_queries),
        Event::Query,
    );
    for idx in 0..config.nodes {
        queue.schedule(
            exp_sample(config.mean_lifetime, &mut rng_churn),
            Event::Flip(idx),
        );
        queue.schedule(
            rng_churn.gen_range(0.0..STABILIZE_INTERVAL),
            Event::Stabilize(idx),
        );
        queue.schedule(
            rng_churn.gen_range(0.0..RECOMPUTE_INTERVAL),
            Event::Recompute(idx),
        );
    }

    let mut metrics = FaultMetrics::default();
    // Reused across events: the solver workspaces for the aware
    // recomputes (live-origin sampling is now O(log n) through the
    // incrementally maintained `Liveness` set).
    let mut select_scratch = SelectScratch::new();
    // The baseline's drawer and core buffer, reused at every tick; the
    // ring is taken afresh at each tick, since churn moves it.
    let mut oblivious = overlay.oblivious_draw();
    let mut core = Vec::new();
    // The incremental engine (default mode): retained per-node
    // optimizers fed by dirty marks and churn events, replacing the
    // per-tick snapshot + full solve. `Full` keeps the pre-refactor arm
    // as the differential baseline. Only the aware strategy consults
    // the engine; the oblivious arm (and every RNG stream) is untouched
    // by the mode, so the two modes replay identical schedules.
    let mut engine = match config.recompute {
        RecomputeMode::Incremental => Some(ChurnRefresh::new(&overlay, config.k, config.nodes)),
        RecomputeMode::Full => None,
    };
    while let Some((now, event)) = queue.pop() {
        if now > config.duration {
            break;
        }
        match event {
            Event::Query => {
                queue.schedule_in(
                    exp_sample(1.0 / config.query_rate, &mut rng_queries),
                    Event::Query,
                );
                // Uniform live origin; skip the beat if the ring is empty.
                if liveness.live_count() == 0 {
                    continue;
                }
                let origin_idx = liveness.live_at(rng_queries.gen_range(0..liveness.live_count()));
                let ranking = assignment.for_node(origin_idx);
                let item = zipf.sample_item(ranking, &mut rng_queries);
                let key = catalog.key(item);
                // Neighbors that timed out are evicted from their
                // prober's tables.
                let route = overlay.query_repairing(node_ids[origin_idx], key, &plan);
                if route.is_success() {
                    // Every node that saw the query — origin and
                    // forwarders alike — learns which node held the item
                    // (§III: "the set of nodes for which s has seen
                    // queries").
                    if let Some(&owner) = route.trace.path.last() {
                        for hop in &route.trace.path {
                            if let Some(&i) = index_of.get(hop) {
                                counters[i].observe(owner);
                                if let Some(engine) = engine.as_mut() {
                                    engine.mark_observed(i);
                                }
                            }
                        }
                    }
                }
                if now >= config.warmup {
                    if matches!(route.outcome, Err(LookupFailure::OriginDown(_))) {
                        metrics.record_origin_down();
                    } else {
                        metrics.record(&route);
                    }
                }
            }
            Event::Flip(idx) => {
                queue.schedule_in(
                    exp_sample(config.mean_lifetime, &mut rng_churn),
                    Event::Flip(idx),
                );
                if liveness.is_alive(idx) {
                    // Never kill the last node (`liveness` flips with
                    // the overlay at every fail and join).
                    if liveness.live_count() > 1 {
                        overlay.fail(node_ids[idx]);
                        liveness.set(idx, false);
                        if let Some(engine) = engine.as_mut() {
                            engine.on_flip(idx);
                        }
                    }
                } else {
                    overlay.join(node_ids[idx], &mut rng_churn);
                    liveness.set(idx, true);
                    if let Some(engine) = engine.as_mut() {
                        engine.on_flip(idx);
                    }
                }
            }
            Event::Stabilize(idx) => {
                queue.schedule_in(STABILIZE_INTERVAL, Event::Stabilize(idx));
                if liveness.is_alive(idx) {
                    overlay.stabilize(node_ids[idx]);
                }
            }
            Event::Recompute(idx) => {
                queue.schedule_in(RECOMPUTE_INTERVAL, Event::Recompute(idx));
                if !liveness.is_alive(idx) {
                    continue;
                }
                let node = node_ids[idx];
                match strategy {
                    // The aware recompute: through the incremental
                    // engine by default — counter deltas flow into the
                    // retained optimizer, clean nodes re-install their
                    // cached selection — or the pre-refactor
                    // snapshot + full-solve path under `Full`. Both
                    // install identical sets through the same
                    // live-entry filter.
                    Strategy::Aware => match engine.as_mut() {
                        Some(engine) => {
                            if let Some(aux) =
                                engine.recompute_aware(&overlay, idx, node, &counters[idx])
                            {
                                overlay.set_aux(node, aux);
                            }
                        }
                        None => {
                            let freqs = counters[idx].snapshot();
                            if freqs.is_empty() {
                                continue;
                            }
                            if let Ok(sel) = overlay.select_aware_into(
                                node,
                                &freqs,
                                config.k,
                                &mut select_scratch,
                            ) {
                                overlay.set_aux(node, &sel.aux);
                            }
                        }
                    },
                    // The baseline ignores observations entirely: random
                    // per-slice picks from the live ring (§VI-A).
                    Strategy::Oblivious => {
                        overlay.core_neighbors_into(node, &mut core);
                        let ring = overlay.live_ids();
                        if let Ok(aux) =
                            oblivious.draw_ring(node, &core, &ring, config.k, &mut rng_select)
                        {
                            overlay.set_aux(node, &aux);
                        }
                    }
                }
            }
        }
    }
    metrics
}

/// Run the paired comparison: identical schedules, two strategies.
///
/// The two runs share nothing but the (cloned) configuration — every RNG
/// stream is re-derived from `config.seed` inside [`run_churn_once`] —
/// so they execute in parallel on the pool while staying **paired**: the
/// aware and oblivious strategies replay the identical event schedule
/// whether the runs happen concurrently or back to back.
pub fn run_churn(config: &ChurnConfig) -> ChurnReport {
    let strategies = [Strategy::Aware, Strategy::Oblivious];
    let results = peercache_par::par_map(&strategies, |_, &s| run_churn_once(config, s));
    let mut results = results.into_iter();
    let (Some(aware), Some(oblivious)) = (results.next(), results.next()) else {
        unreachable!("par_map yields one result per strategy");
    };
    let reduction = reduction_pct(aware.avg_hops(), oblivious.avg_hops());
    ChurnReport {
        aware,
        oblivious,
        reduction_pct: reduction,
    }
}
