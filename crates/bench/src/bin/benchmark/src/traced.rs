//! The traced run: the workload's set-up and one pass over its inputs
//! again, with every call into a layer timed, then kernels for the layers
//! the workload's own path does not reach, timed at the workload's world.
//!
//! Three root phases: `setup` and `lookups` mirror the untraced set-up
//! and pass (their layer self times are the coverage numerator);
//! `kernels` holds everything else and is left out of coverage.

use peercache_faults::FaultPlan;
use peercache_freq::{ExactCounter, FrequencyEstimator};
use peercache_id::Id;
use peercache_node::{NodeRuntime, PeerStore, StoreConfig};
use peercache_sim::{
    run_churn_once_faulted, ChurnRecomputeBench, FaultMetrics, RuntimeFixture, SimOverlay,
    StableConfig, Strategy,
};

use crate::config;
use crate::registry::Workload;
use crate::stats::median;
use crate::trace::{sampled, Tracer};
use crate::untraced::{
    boot, direct_pass, fresh_runtime, merge, plans, seed_store, store_path, Check, Outcome, Params,
};
use crate::world::{
    churn_initial, matches_fixture, traced_world, AuxTable, View, World, KERNEL_NAMES, SETUP_NAMES,
};

/// Observations per tick of the refresh kernel (4 queries/s × 62.5 s).
const QUERIES_PER_TICK: usize = 250;
/// Timed refresh ticks, after as many warm ones.
const TICKS: usize = 5;
/// Repetitions of the counter kernel.
const OBSERVE_REPS: usize = 5;
/// The root phases that mirror the untraced run.
const MIRRORED: [&str; 2] = ["setup", "lookups"];

/// The traced run's per-layer metrics and checks.
pub(crate) struct Traced {
    pub(crate) metrics: Vec<(&'static str, f64)>,
    pub(crate) attempted: u64,
    pub(crate) checks: Vec<Check>,
    pub(crate) tracer: Tracer,
}

/// Fault counters per attempted lookup (zero where nothing is injected).
#[derive(Default)]
struct FaultCounts {
    probes: f64,
    retries: f64,
    timeouts: f64,
    fallbacks: f64,
}

impl FaultCounts {
    fn of(m: &FaultMetrics) -> FaultCounts {
        let n = (m.base.issued + m.origin_down) as f64;
        FaultCounts {
            probes: m.probes as f64 / n,
            retries: m.retries as f64 / n,
            timeouts: m.timeouts as f64 / n,
            fallbacks: m.fallbacks as f64 / n,
        }
    }
}

/// What the traced run counted besides the tracer's layers.
#[derive(Default)]
struct Counts {
    candidates_mean: f64,
    route_hops: u64,
    deliveries: u64,
    lookups_delivered: u64,
    observe_ns: f64,
    faults: FaultCounts,
    /// Layer self time and wall of the mirrored roots, in seconds.
    covered_s: f64,
    traced_s: f64,
}

/// Route `queries` through `query_with_aux` as ops of `overlay.route`.
/// Returns the hops walked.
fn route(t: &mut Tracer, overlay: &SimOverlay, aux: &AuxTable, queries: &[(Id, Id)]) -> u64 {
    let mut hops = 0;
    for (i, &(origin, key)) in queries.iter().enumerate() {
        let out = t.op("overlay.route", sampled(i), || {
            overlay.query_with_aux(origin, key, |id| aux.get(id))
        });
        hops += u64::from(out.hops);
    }
    hops
}

/// Submit `queries` to `runtime` in batches, each `submit` + `run` an op
/// of `node.run`. Returns the messages delivered.
fn deliver(
    t: &mut Tracer,
    runtime: &mut NodeRuntime<'_>,
    queries: &[(Id, Id)],
    batch: usize,
) -> u64 {
    let before = runtime.delivered();
    for (i, chunk) in queries.chunks(batch).enumerate() {
        t.op("node.run", sampled(i), || {
            for &(origin, key) in chunk {
                runtime.submit(origin, key);
            }
            runtime.run();
        });
    }
    runtime.delivered() - before
}

/// The node layer at a fault-free world: a transparent runtime delivering
/// `queries`, then the owner's store saved, reloaded and reconnected.
fn node_kernel(t: &mut Tracer, view: &View<'_>, queries: &[(Id, Id)], p: &Params) -> u64 {
    let (seed, out) = (p.seed, p.out.as_path());
    let plan = FaultPlan::transparent(seed);
    let mut runtime = fresh_runtime(view, &PeerStore::new(StoreConfig::default()), &plan);
    let deliveries = deliver(t, &mut runtime, queries, p.size.batch);
    let (_, store) = runtime.detach_store().expect("attached at start");
    let path = store_path(out, seed, "kernel");
    t.op("node.store_save", None, || store.save(&path))
        .expect("save the peer store");
    boot(view, &plan, &path, t);
    deliveries
}

/// The refresh engine at `stable`'s operating point: incremental ticks
/// (the churn run's default), each checked against a full tick.
fn refresh_kernel(t: &mut Tracer, stable: &StableConfig) -> Check {
    let churn = config::churn_at(stable);
    let (mut full, mut incremental) = t.op("refresh.build", None, || {
        (
            ChurnRecomputeBench::new(&churn, QUERIES_PER_TICK),
            ChurnRecomputeBench::new(&churn, QUERIES_PER_TICK),
        )
    });
    let mut agree = true;
    for tick in 0..2 * TICKS {
        let (fast, slow) = if tick < TICKS {
            ("refresh.warm_tick", "refresh.warm_full_tick")
        } else {
            ("refresh.tick", "refresh.full_tick")
        };
        let a = t.op(fast, None, || incremental.tick_incremental());
        let b = t.op(slow, None, || full.tick_full());
        agree &= a == b;
    }
    (
        "refresh: incremental ticks == full ticks".to_string(),
        agree,
    )
}

/// The frequency layer: one exact counter observing the owners of
/// `queries`, as a churn node observes the lookups it sees. Returns the
/// median ns per observation.
fn observe_kernel(t: &mut Tracer, overlay: &SimOverlay, queries: &[(Id, Id)]) -> f64 {
    let owners: Vec<Id> = queries
        .iter()
        .filter_map(|&(_, key)| overlay.true_owner(key))
        .collect();
    let per_rep: Vec<f64> = (0..OBSERVE_REPS)
        .map(|_| {
            let mut counter = ExactCounter::new();
            let start = std::time::Instant::now();
            t.op("freq.observe", None, || {
                for &owner in &owners {
                    counter.observe(owner);
                }
            });
            let ns = start.elapsed().as_nanos() as f64;
            std::hint::black_box(counter.observations());
            ns / owners.len().max(1) as f64
        })
        .collect();
    median(&per_rep)
}

/// Snapshot the mirrored roots once they have closed.
fn mirrored(t: &Tracer, counts: &mut Counts) {
    counts.covered_s = t.attributed_ns(&MIRRORED) as f64 / 1e9;
    counts.traced_s = t.root_ns(&MIRRORED) as f64 / 1e9;
}

fn rebuild_check(world: &World, fixture: &RuntimeFixture) -> Check {
    (
        "traced rebuild == RuntimeFixture selections and queries".to_string(),
        matches_fixture(world, fixture),
    )
}

/// Hot and wide: the set-up rebuilt from public parts, one pass of
/// `query_with_aux`, then the node, refresh and counter kernels.
fn stable(t: &mut Tracer, p: &Params, config: &StableConfig, checks: &mut Vec<Check>) -> Counts {
    let fixture = RuntimeFixture::build(config);
    let world = t.phase("setup", |t| traced_world(config, t, &SETUP_NAMES));
    let route_hops = t.phase("lookups", |t| {
        route(t, &world.overlay, &world.aux, &world.queries)
    });
    let mut counts = Counts {
        candidates_mean: world.candidates as f64 / world.node_ids.len() as f64,
        route_hops,
        ..Counts::default()
    };
    mirrored(t, &mut counts);
    checks.push(rebuild_check(&world, &fixture));
    let kernel = &world.queries[..p.size.kernel_lookups.min(world.queries.len())];
    t.phase("kernels", |t| {
        counts.deliveries = node_kernel(t, &world.view(), kernel, p);
        counts.lookups_delivered = kernel.len() as u64;
        checks.push(refresh_kernel(t, config));
        counts.observe_ns = observe_kernel(t, &world.overlay, &world.queries);
    });
    counts
}

/// Runtime: the set-up rebuilt from public parts plus the store boot,
/// one pass of runtime batches, then the direct faulted pass (the route
/// layer the runtime hides), refresh and counter kernels.
fn runtime(t: &mut Tracer, p: &Params, config: &StableConfig, checks: &mut Vec<Check>) -> Counts {
    let fixture = RuntimeFixture::build(config);
    let plans = plans(config.seed, p.size.runtime_plans);
    let input = seed_store(config, &p.out);
    let (world, store) = t.phase("setup", |t| {
        let world = traced_world(config, t, &SETUP_NAMES);
        let store = boot(&world.view(), &plans[0], &input, t);
        (world, store)
    });
    let view = world.view();
    // Built before the phase: the untraced rounds time only the batches.
    let mut runtimes: Vec<NodeRuntime<'_>> = plans
        .iter()
        .map(|plan| fresh_runtime(&view, &store, plan))
        .collect();
    let deliveries = t.phase("lookups", |t| {
        runtimes
            .iter_mut()
            .map(|runtime| deliver(t, runtime, &world.queries, p.size.batch))
            .sum()
    });
    let per_plan: Vec<FaultMetrics> = runtimes.iter().map(NodeRuntime::fault_metrics).collect();
    drop(runtimes);
    let mut metrics = FaultMetrics::default();
    for m in &per_plan {
        merge(&mut metrics, m);
    }
    let mut counts = Counts {
        candidates_mean: world.candidates as f64 / world.node_ids.len() as f64,
        deliveries,
        lookups_delivered: (plans.len() * world.queries.len()) as u64,
        faults: FaultCounts::of(&metrics),
        ..Counts::default()
    };
    mirrored(t, &mut counts);
    checks.push(rebuild_check(&world, &fixture));
    t.phase("kernels", |t| {
        let mut direct = Vec::with_capacity(plans.len());
        for plan in &plans {
            let (metrics, hops) = direct_pass(&view, &world.queries, plan, t);
            counts.route_hops += hops;
            direct.push(metrics);
        }
        checks.push((
            "traced runtime == direct faulted pass, per plan".to_string(),
            per_plan == direct,
        ));
        checks.push(refresh_kernel(t, config));
        counts.observe_ns = observe_kernel(t, view.overlay, &world.queries);
    });
    counts
}

/// Churn: the reproduced initial build and one churn run (one opaque
/// call), then every stable layer timed at the all-live world of the
/// churn configuration.
fn churn(
    t: &mut Tracer,
    p: &Params,
    config: &StableConfig,
    reference: &Outcome,
    checks: &mut Vec<Check>,
) -> (Counts, u64) {
    let fixture = RuntimeFixture::build(config);
    let churn = config::churn(&p.size, config::churn_seed(&p.size, p.seed, 0));
    t.phase("setup", |t| churn_initial(&churn, t));
    let report = t.phase("lookups", |t| {
        t.op("sim.churn_run", None, || {
            run_churn_once_faulted(&churn, Strategy::Aware)
        })
    });
    let mut counts = Counts {
        faults: FaultCounts::of(&report),
        ..Counts::default()
    };
    mirrored(t, &mut counts);
    checks.push((
        "traced churn run == the untraced first run".to_string(),
        reference.churn_first.as_ref() == Some(&report),
    ));
    t.phase("kernels", |t| {
        let world = t.phase("kernel.world", |t| traced_world(config, t, &KERNEL_NAMES));
        checks.push(rebuild_check(&world, &fixture));
        counts.candidates_mean = world.candidates as f64 / world.node_ids.len() as f64;
        counts.route_hops = route(t, &world.overlay, &world.aux, &world.queries);
        counts.deliveries = node_kernel(t, &world.view(), &world.queries, p);
        counts.lookups_delivered = world.queries.len() as u64;
        checks.push(refresh_kernel(t, config));
        counts.observe_ns = observe_kernel(t, &world.overlay, &world.queries);
    });
    (counts, report.base.issued + report.origin_down)
}

/// Run `workload`'s traced pass; `reference` is its untraced outcome.
pub(crate) fn run(workload: Workload, p: &Params, reference: &Outcome) -> Traced {
    let config = config::stable(workload, &p.size, p.seed);
    let mut t = Tracer::new();
    let mut checks = Vec::new();
    let (counts, attempted) = match workload {
        Workload::HotPastry | Workload::WideChord => (
            stable(&mut t, p, &config, &mut checks),
            config.queries as u64,
        ),
        Workload::RuntimeFaulted => (
            runtime(&mut t, p, &config, &mut checks),
            (p.size.runtime_plans * config.queries) as u64,
        ),
        Workload::ChurnChord => churn(&mut t, p, &config, reference, &mut checks),
    };
    Traced {
        metrics: layer_metrics(&t, &counts, reference),
        attempted,
        checks,
        tracer: t,
    }
}

fn layer_metrics(t: &Tracer, c: &Counts, reference: &Outcome) -> Vec<(&'static str, f64)> {
    let route = t.layer("overlay.route");
    let run = t.layer("node.run");
    let reference_s = reference.setup_s + reference.pass_s;
    vec![
        ("overlay.build_ms", t.layer("overlay.build").self_ms()),
        ("core.select_ms", t.layer("core.select").self_ms()),
        ("core.select_us_p50", t.layer("core.select").op_us(0.5)),
        ("core.select_us_p99", t.layer("core.select").op_us(0.99)),
        ("core.candidates_mean", c.candidates_mean),
        ("baseline.select_ms", t.layer("baseline.select").self_ms()),
        (
            "baseline.select_us_p50",
            t.layer("baseline.select").op_us(0.5),
        ),
        ("overlay.route_ms", route.self_ms()),
        ("overlay.route_us_p50", route.op_us(0.5)),
        ("overlay.route_us_p90", route.op_us(0.9)),
        (
            "overlay.route_ns_per_hop",
            route.busy_ns as f64 / c.route_hops.max(1) as f64,
        ),
        ("faults.probes_per_lookup", c.faults.probes),
        ("faults.retries_per_lookup", c.faults.retries),
        ("faults.timeouts_per_lookup", c.faults.timeouts),
        ("faults.fallbacks_per_lookup", c.faults.fallbacks),
        ("node.run_ms", run.self_ms()),
        (
            "node.deliveries_per_lookup",
            c.deliveries as f64 / c.lookups_delivered.max(1) as f64,
        ),
        (
            "node.ns_per_delivery",
            run.busy_ns as f64 / c.deliveries.max(1) as f64,
        ),
        ("node.store_load_ms", t.layer("node.store_load").self_ms()),
        ("node.reconnect_ms", t.layer("node.reconnect").self_ms()),
        ("refresh.tick_ms", t.layer("refresh.tick").op_us(0.5) / 1e3),
        ("freq.observe_ns", c.observe_ns),
        ("trace.coverage_pct", 100.0 * c.covered_s / reference_s),
        (
            "trace.overhead_pct",
            100.0 * (c.traced_s - reference_s) / reference_s,
        ),
    ]
}
