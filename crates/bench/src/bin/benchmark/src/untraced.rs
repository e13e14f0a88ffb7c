//! The measured (untraced) run of each workload: set up several times,
//! generate the inputs, then time many short equal rounds of lookups in
//! one closed loop (one client, next lookup only after the previous one
//! returns). A round lasts about a tenth of a second (a churn run about
//! half a second), and the lookup metrics read the fastest tenth of the
//! rounds (see [`crate::stats::SETTLED_Q`]). Correctness checks run
//! outside the timed regions.

use std::path::{Path, PathBuf};
use std::time::Instant;

use peercache_faults::{FaultPlan, LookupFailure};
use peercache_id::Id;
use peercache_node::{NodeRuntime, PeerStore, StoreConfig};
use peercache_sim::{
    run_churn_once_faulted, run_stable, ChurnConfig, FaultMetrics, QueryMetrics, RecomputeMode,
    SimOverlay, Strategy,
};

use crate::config::{self, Size};
use crate::registry::Workload;
use crate::stats::{median, settled, sorted, tail};
use crate::trace::{sampled, Tracer};
use crate::world::{churn_initial, AuxTable, Stable, View};

/// Upper bound on rounds, whatever `--seconds` allows.
const MAX_ROUNDS: usize = 1000;

/// What one run needs to know.
pub(crate) struct Params {
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) size: Size,
    /// Directory for the peer stores and trace files.
    pub(crate) out: PathBuf,
}

/// One named correctness check and whether it held.
pub(crate) type Check = (String, bool);

/// One timed round: its wall time, the lookups it issued, and the
/// median and tail of its per-lookup latency samples.
struct Round {
    wall_s: f64,
    lookups: u64,
    p50_us: f64,
    p90_us: f64,
}

impl Round {
    fn new(wall_s: f64, lookups: u64, latencies_ns: Vec<f64>) -> Round {
        let s = sorted(latencies_ns);
        Round {
            wall_s,
            lookups,
            p50_us: tail(&s, 0.5) / 1e3,
            p90_us: tail(&s, 0.9) / 1e3,
        }
    }
}

/// The untraced run's result.
pub(crate) struct Outcome {
    /// End-to-end metrics except `peak_rss_mb`, which the caller reads
    /// last.
    pub(crate) metrics: Vec<(&'static str, f64)>,
    pub(crate) attempted: u64,
    pub(crate) checks: Vec<Check>,
    /// Median set-up wall and the wall of one pass over the inputs (every
    /// slice or plan once; churn: one run) at the fastest-tenth round
    /// wall, the traced run's reference.
    pub(crate) setup_s: f64,
    pub(crate) pass_s: f64,
    pub(crate) rounds: usize,
    /// `churn_chord`: the report of the first churn run, which the traced
    /// run repeats.
    pub(crate) churn_first: Option<FaultMetrics>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Set up `warmups` untimed times, then `count` timed times, keeping the
/// last world; returns it with every timed set-up's wall time.
fn setups<T>(warmups: usize, count: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut walls = Vec::with_capacity(count);
    let mut world = None;
    for rep in 0..warmups + count.max(1) {
        drop(world.take());
        let (built, wall) = timed(&mut build);
        if rep >= warmups {
            walls.push(wall);
        }
        world = Some(built);
    }
    (world.expect("at least one set-up ran"), walls)
}

/// Run rounds until both the minimum count and the time budget are met.
fn rounds<T>(min: usize, seconds: f64, mut round: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min.max(1)
        || (start.elapsed().as_secs_f64() < seconds && out.len() < MAX_ROUNDS)
    {
        out.push(round(out.len()));
    }
    out
}

/// Fold a faulted route into `metrics` the way `run_stable_faulted` does.
pub(crate) fn record_route(metrics: &mut FaultMetrics, route: &peercache_faults::FaultedRoute) {
    if matches!(route.outcome, Err(LookupFailure::OriginDown(_))) {
        metrics.record_origin_down();
    } else {
        metrics.record(route);
    }
}

/// Lookups that reached their owner, over every lookup attempted
/// (origin-down lookups included).
pub(crate) fn ok_frac(m: &FaultMetrics) -> f64 {
    m.base.succeeded as f64 / (m.base.issued + m.origin_down) as f64
}

/// The outcome of `rounds`, `per_pass` of which make one pass over the
/// inputs.
fn summarize(
    setups: &[f64],
    rounds: &[Round],
    per_pass: usize,
    hops_mean: f64,
    ok_frac: f64,
    checks: Vec<Check>,
) -> Outcome {
    let per_round = |f: fn(&Round) -> f64| settled(&rounds.iter().map(f).collect::<Vec<_>>());
    Outcome {
        metrics: vec![
            ("setup_s", median(setups)),
            (
                "lookups_per_s",
                1.0 / per_round(|r| r.wall_s / r.lookups as f64),
            ),
            ("lookup_us_p50", per_round(|r| r.p50_us)),
            ("lookup_us_p90", per_round(|r| r.p90_us)),
            ("hops_mean", hops_mean),
            ("lookup_ok_frac", ok_frac),
        ],
        attempted: rounds.iter().map(|r| r.lookups).sum(),
        checks,
        setup_s: median(setups),
        pass_s: per_round(|r| r.wall_s) * per_pass as f64,
        rounds: rounds.len(),
        churn_first: None,
    }
}

/// Measure one workload.
pub(crate) fn run(workload: Workload, p: &Params) -> Outcome {
    match workload {
        Workload::HotPastry | Workload::WideChord => stable(workload, p),
        Workload::ChurnChord => churn(p),
        Workload::RuntimeFaulted => runtime(p),
    }
}

/// Route every query once through `query_with_aux`, timing each lookup.
fn stable_round(
    overlay: &SimOverlay,
    aux: &AuxTable,
    queries: &[(Id, Id)],
) -> (Round, QueryMetrics) {
    let mut latencies = Vec::with_capacity(queries.len());
    let mut metrics = QueryMetrics::default();
    let start = Instant::now();
    for &(origin, key) in queries {
        let begin = Instant::now();
        let out = overlay.query_with_aux(origin, key, |id| aux.get(id));
        latencies.push(begin.elapsed().as_nanos() as f64);
        metrics.record(out.success, out.hops, out.failed_probes);
    }
    let wall = start.elapsed().as_secs_f64();
    let lookups = queries.len() as u64;
    (Round::new(wall, lookups, latencies), metrics)
}

/// Whether every later occurrence of a cyclic round's result equals its
/// first one; `first` collects the first pass.
fn record_cycle<T: PartialEq>(first: &mut Vec<T>, slot: usize, result: T, same: &mut bool) {
    match first.get(slot) {
        None => first.push(result),
        Some(seen) => *same &= *seen == result,
    }
}

fn stable(workload: Workload, p: &Params) -> Outcome {
    let config = config::stable(workload, &p.size, p.seed);
    let (world, setup_walls) = setups(0, p.size.setups, || Stable::build(&config));
    let overlay = world.fixture.overlay();
    let slices: Vec<&[(Id, Id)]> = world.queries.chunks(p.size.round_lookups).collect();
    let mut first: Vec<QueryMetrics> = Vec::with_capacity(slices.len());
    let mut repeatable = true;
    let measured = rounds(slices.len(), p.seconds, |i| {
        let slot = i % slices.len();
        let (round, metrics) = stable_round(overlay, &world.aux, slices[slot]);
        record_cycle(&mut first, slot, metrics, &mut repeatable);
        round
    });
    let mut metrics = QueryMetrics::default();
    for m in &first {
        metrics.merge(m);
    }

    let prefix = p.size.check_lookups.min(world.queries.len());
    let mut checked = QueryMetrics::default();
    for &(origin, key) in &world.queries[..prefix] {
        let out = overlay.query_with_aux(origin, key, |id| world.aux.get(id));
        checked.record(out.success, out.hops, out.failed_probes);
    }
    let mut reference = config.clone();
    reference.queries = prefix;
    let expected = run_stable(&reference).aware;
    let checks = vec![
        (
            format!("aware metrics over {prefix} lookups == run_stable"),
            checked == expected,
        ),
        ("every pass routes identically".to_string(), repeatable),
    ];
    let ok = metrics.succeeded as f64 / metrics.issued as f64;
    summarize(
        &setup_walls,
        &measured,
        slices.len(),
        metrics.avg_hops(),
        ok,
        checks,
    )
}

fn churn(p: &Params) -> Outcome {
    let configs: Vec<ChurnConfig> = (0..p.size.churn_runs)
        .map(|run| config::churn(&p.size, config::churn_seed(&p.size, p.seed, run)))
        .collect();
    // Rounds cycle over the runs; each is one sample, its wall per
    // lookup with the maintenance included. The set-up takes milliseconds,
    // so a few set-ups precede every round: their median then spans the
    // whole run, not one moment of it.
    let mut setup_walls = Vec::new();
    let mut reports: Vec<FaultMetrics> = Vec::with_capacity(configs.len());
    let mut repeatable = true;
    let measured = rounds(configs.len(), p.seconds, |i| {
        let warmups = if i == 0 { p.size.churn_warmups } else { 0 };
        let (_, walls) = setups(warmups, p.size.churn_setups, || {
            churn_initial(&configs[0], &mut Tracer::new())
        });
        setup_walls.extend(walls);
        let slot = i % configs.len();
        let (report, wall) = timed(|| run_churn_once_faulted(&configs[slot], Strategy::Aware));
        let lookups = report.base.issued + report.origin_down;
        record_cycle(&mut reports, slot, report, &mut repeatable);
        Round::new(wall, lookups, vec![wall * 1e9 / lookups as f64])
    });
    let mut metrics = FaultMetrics::default();
    for m in &reports {
        merge(&mut metrics, m);
    }

    // Full and incremental recompute must agree on the first run.
    let mut full = configs[0].clone();
    full.recompute = RecomputeMode::Full;
    let modes_agree = run_churn_once_faulted(&full, Strategy::Aware) == reports[0];
    let checks = vec![
        (
            "Full == Incremental on the first run".to_string(),
            modes_agree,
        ),
        (
            "every repetition of a run reports identical metrics".to_string(),
            repeatable,
        ),
    ];
    let mut outcome = summarize(
        &setup_walls,
        &measured,
        1,
        metrics.base.avg_hops(),
        ok_frac(&metrics),
        checks,
    );
    outcome.churn_first = Some(reports.swap_remove(0));
    outcome
}

/// Where the runtime workload keeps its peer stores.
pub(crate) fn store_path(out: &Path, seed: u64, what: &str) -> PathBuf {
    out.join(format!("benchmark_store_{what}_{seed}.jsonl"))
}

/// The store an earlier run of the node left on disk: the owner's aware
/// selection, admitted at tick 0. Written before any set-up is timed.
pub(crate) fn seed_store(config: &peercache_sim::StableConfig, out: &Path) -> PathBuf {
    let world = Stable::build(config);
    let view = world.view();
    let mut store = PeerStore::new(StoreConfig::default());
    store.admit_all(view.aux.get(view.owner).to_vec(), 0);
    let path = store_path(out, config.seed, "input");
    store.save(&path).expect("write the input peer store");
    path
}

/// The runtime's boot: reload the owner's store, then reconnect to its
/// peers in score order. Returns the store as reconnection left it.
pub(crate) fn boot(view: &View<'_>, plan: &FaultPlan, path: &Path, t: &mut Tracer) -> PeerStore {
    let store = t.op("node.store_load", None, || {
        PeerStore::load(path, StoreConfig::default())
    });
    let mut runtime = NodeRuntime::new(view.overlay, plan.clone());
    runtime.install_aux(view.aux.entries().to_vec());
    runtime.attach_store(view.owner, store);
    t.op("node.reconnect", None, || runtime.reconnect());
    let (_, store) = runtime.detach_store().expect("attached above");
    store
}

/// A fresh runtime (it keeps every route, so each round needs one) with
/// the booted store attached and every join delivered.
pub(crate) fn fresh_runtime<'a>(
    view: &View<'a>,
    store: &PeerStore,
    plan: &FaultPlan,
) -> NodeRuntime<'a> {
    let mut runtime = NodeRuntime::new(view.overlay, plan.clone());
    runtime.install_aux(view.aux.entries().to_vec());
    runtime.attach_store(view.owner, store.clone());
    runtime.run();
    runtime
}

/// The runtime's fault plans, one per crash pattern a round covers:
/// which nodes a plan crashes decides how many lookups fail, so a round
/// averages over several patterns instead of betting on one.
pub(crate) fn plans(seed: u64, count: usize) -> Vec<FaultPlan> {
    let faults = config::faults();
    (0..count as u64)
        .map(|k| FaultPlan::new(seed.wrapping_add(k), &faults))
        .collect()
}

/// The direct sim pass the runtime must reproduce: `queries` through
/// `query_with_aux_faults` under `plan`, each lookup an op of
/// `overlay.route`. Returns the metrics and the hops walked.
pub(crate) fn direct_pass(
    view: &View<'_>,
    queries: &[(Id, Id)],
    plan: &FaultPlan,
    t: &mut Tracer,
) -> (FaultMetrics, u64) {
    let mut metrics = FaultMetrics::default();
    let mut hops = 0;
    for (i, &(origin, key)) in queries.iter().enumerate() {
        let route = t.op("overlay.route", sampled(i), || {
            view.overlay
                .query_with_aux_faults(origin, key, |id| view.aux.get(id), plan)
        });
        hops += u64::from(route.trace.hops);
        record_route(&mut metrics, &route);
    }
    (metrics, hops)
}

/// Fold `m` into `total`.
pub(crate) fn merge(total: &mut FaultMetrics, m: &FaultMetrics) {
    total.base.merge(&m.base);
    total.probes += m.probes;
    total.retries += m.retries;
    total.timeouts += m.timeouts;
    total.fallbacks += m.fallbacks;
    total.delay_ticks += m.delay_ticks;
    total.origin_down += m.origin_down;
}

fn runtime(p: &Params) -> Outcome {
    let config = config::stable(Workload::RuntimeFaulted, &p.size, p.seed);
    let plans = plans(config.seed, p.size.runtime_plans);
    let input = seed_store(&config, &p.out);
    let ((world, store), setup_walls) = setups(0, p.size.setups, || {
        let world = Stable::build(&config);
        let store = boot(&world.view(), &plans[0], &input, &mut Tracer::new());
        (world, store)
    });
    let view = world.view();
    let queries = &world.queries;

    let direct: Vec<FaultMetrics> = plans
        .iter()
        .map(|plan| direct_pass(&view, queries, plan, &mut Tracer::new()).0)
        .collect();

    // Rounds cycle over groups of plans, a fresh runtime per plan.
    let groups: Vec<&[FaultPlan]> = plans.chunks(p.size.plans_per_round).collect();
    let mut per_plan: Vec<FaultMetrics> = Vec::with_capacity(plans.len());
    let mut store_round_trip = false;
    let mut repeatable = true;
    let measured = rounds(groups.len(), p.seconds, |i| {
        let slot = i % groups.len();
        let group = groups[slot];
        let mut latencies = Vec::with_capacity(group.len() * queries.len() / p.size.batch + 1);
        let mut wall = 0.0;
        for (k, plan) in group.iter().enumerate() {
            let mut rt = fresh_runtime(&view, &store, plan);
            let start = Instant::now();
            for batch in queries.chunks(p.size.batch) {
                let begin = Instant::now();
                for &(origin, key) in batch {
                    rt.submit(origin, key);
                }
                rt.run();
                latencies.push(begin.elapsed().as_nanos() as f64 / batch.len() as f64);
            }
            wall += start.elapsed().as_secs_f64();
            let index = slot * p.size.plans_per_round + k;
            record_cycle(&mut per_plan, index, rt.fault_metrics(), &mut repeatable);
            if i == 0 && k == 0 {
                let (_, store) = rt.detach_store().expect("attached at boot");
                let path = store_path(&p.out, p.seed, "saved");
                store.save(&path).expect("save the peer store");
                store_round_trip = PeerStore::load(&path, StoreConfig::default()) == store;
            }
        }
        Round::new(wall, (group.len() * queries.len()) as u64, latencies)
    });
    let mut metrics = FaultMetrics::default();
    for m in &per_plan {
        merge(&mut metrics, m);
    }
    let checks = vec![
        (
            "runtime fault metrics == direct query_with_aux_faults pass, per plan".to_string(),
            per_plan == direct,
        ),
        (
            "peer store save -> load is identity".to_string(),
            store_round_trip,
        ),
        ("every pass routes identically".to_string(), repeatable),
    ];
    summarize(
        &setup_walls,
        &measured,
        groups.len(),
        metrics.base.avg_hops(),
        ok_frac(&metrics),
        checks,
    )
}
