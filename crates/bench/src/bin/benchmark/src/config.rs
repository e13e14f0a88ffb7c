//! Workload configurations, derived from the seed and the run size.

use peercache_faults::FaultConfig;
use peercache_pastry::RoutingMode;
use peercache_sim::{ChurnConfig, OverlayKind, RankingMode, RecomputeMode, StableConfig};

use crate::registry::Workload;

/// Operation counts for one run. Every count is fixed; only the number of
/// equal rounds grows with `--seconds`.
#[derive(Clone, Debug)]
pub(crate) struct Size {
    /// Nodes of the hot Pastry world.
    pub(crate) hot_nodes: usize,
    /// Nodes and catalog items of the wide Chord world (also the runtime
    /// world).
    pub(crate) wide_nodes: usize,
    pub(crate) wide_items: usize,
    /// Lookups in the stable worlds' query stream, and per round: a round
    /// routes one slice of the stream, and rounds cycle over the slices.
    pub(crate) stable_lookups: usize,
    pub(crate) round_lookups: usize,
    /// Lookups per fault plan on the runtime, fault plans in all and per
    /// round, and lookups in flight per batch.
    pub(crate) runtime_lookups: usize,
    pub(crate) runtime_plans: usize,
    pub(crate) plans_per_round: usize,
    pub(crate) batch: usize,
    /// Lookups checked against `run_stable` on the stable worlds.
    pub(crate) check_lookups: usize,
    /// Churn population, simulated duration of one run, and the number
    /// of independent runs (seeds) a round cycles over.
    pub(crate) churn_nodes: usize,
    pub(crate) churn_duration: f64,
    pub(crate) churn_runs: usize,
    /// Set-ups per run (`setup_s` is their median); the churn set-up
    /// takes milliseconds, so it repeats before every round instead,
    /// after untimed warm-ups.
    pub(crate) setups: usize,
    pub(crate) churn_setups: usize,
    pub(crate) churn_warmups: usize,
    /// Lookups routed by the traced run's kernels on worlds whose own
    /// path does not route them (the node runtime on a stable world).
    pub(crate) kernel_lookups: usize,
}

impl Size {
    /// The measured size.
    pub(crate) fn full() -> Size {
        Size {
            hot_nodes: 2048,
            wide_nodes: 1024,
            wide_items: 2048,
            stable_lookups: 200_000,
            round_lookups: 20_000,
            runtime_lookups: 6_250,
            runtime_plans: 16,
            plans_per_round: 2,
            batch: 64,
            check_lookups: 20_000,
            churn_nodes: 1024,
            churn_duration: 900.0,
            churn_runs: 8,
            setups: 3,
            churn_setups: 5,
            churn_warmups: 5,
            kernel_lookups: 20_000,
        }
    }

    /// A seconds-long size for tests: same code paths, tiny worlds.
    pub(crate) fn smoke() -> Size {
        Size {
            hot_nodes: 128,
            wide_nodes: 128,
            wide_items: 256,
            stable_lookups: 2_000,
            round_lookups: 500,
            runtime_lookups: 500,
            runtime_plans: 2,
            plans_per_round: 1,
            batch: 64,
            check_lookups: 500,
            churn_nodes: 64,
            churn_duration: 300.0,
            churn_runs: 2,
            setups: 3,
            churn_setups: 3,
            churn_warmups: 1,
            kernel_lookups: 1_000,
        }
    }
}

/// The hot Pastry world: fig3's largest point (b = 1, locality-aware,
/// identical rankings, α = 1.2, 64 items, k = log₂ n).
fn hot(size: &Size, seed: u64, queries: usize) -> StableConfig {
    let kind = OverlayKind::Pastry {
        digit_bits: 1,
        mode: RoutingMode::LocalityAware,
    };
    let mut config = StableConfig::paper_defaults(kind, size.hot_nodes, seed);
    config.queries = queries;
    config
}

/// The wide Chord world: n = 1024, 2048 items, α = 0.91, five rankings,
/// k = 10. The runtime runs here too: with traffic spread over many items
/// and rankings, which nodes a fault plan crashes barely changes how many
/// lookups fail (on the hot world, one crashed owner of the top item
/// fails 30 % of them).
fn wide(size: &Size, seed: u64, queries: usize) -> StableConfig {
    let mut config = StableConfig::paper_defaults(OverlayKind::Chord, size.wide_nodes, seed);
    config.items = size.wide_items;
    config.alpha = 0.91;
    config.ranking = RankingMode::Pool(5);
    config.k = 10;
    config.queries = queries;
    config
}

/// The stable world a workload runs on (for `churn_chord`: the all-live
/// world at its churn configuration, where the traced run times the
/// layers its single churn call hides).
pub(crate) fn stable(workload: Workload, size: &Size, seed: u64) -> StableConfig {
    match workload {
        Workload::HotPastry => hot(size, seed, size.stable_lookups),
        Workload::WideChord => wide(size, seed, size.stable_lookups),
        Workload::RuntimeFaulted => wide(size, seed, size.runtime_lookups),
        Workload::ChurnChord => {
            let churn = churn(size, seed);
            StableConfig {
                kind: churn.kind,
                bits: churn.bits,
                nodes: churn.nodes,
                items: churn.items,
                alpha: churn.alpha,
                ranking: churn.ranking,
                k: churn.k,
                queries: size.kernel_lookups,
                seed,
            }
        }
    }
}

/// The paper's churn run on Chord: 900 s lifetimes, 4 queries/s,
/// stabilize every 25 s, recompute every 62.5 s, measured from t = 0.
pub(crate) fn churn(size: &Size, seed: u64) -> ChurnConfig {
    let mut config = ChurnConfig::paper_defaults(size.churn_nodes, seed);
    config.duration = size.churn_duration;
    config.warmup = 0.0;
    config.recompute = RecomputeMode::Incremental;
    config
}

/// The seed of churn run `run` of `--seed seed`: distinct for every
/// (seed, run) pair, so no two benchmark seeds share a churn run.
pub(crate) fn churn_seed(size: &Size, seed: u64, run: usize) -> u64 {
    seed.wrapping_mul(size.churn_runs as u64)
        .wrapping_add(run as u64)
}

/// A churn configuration over a stable world's population, workload and
/// `k`: the operating point of the traced run's refresh-tick kernel.
pub(crate) fn churn_at(stable: &StableConfig) -> ChurnConfig {
    let mut config = ChurnConfig::paper_defaults(stable.nodes, stable.seed);
    config.kind = stable.kind;
    config.bits = stable.bits;
    config.items = stable.items;
    config.alpha = stable.alpha;
    config.ranking = stable.ranking;
    config.k = stable.k;
    config
}

/// The runtime's fault plan: 5 % each of crash, unresponsive, loss and
/// stale pointers, jitter 3, two retries, backoff base 1.
pub(crate) fn faults() -> FaultConfig {
    FaultConfig {
        crash_rate: 0.05,
        unresponsive_rate: 0.05,
        loss_rate: 0.05,
        stale_rate: 0.05,
        staleness_age: 1024,
        delay_jitter: 3,
        max_retries: 2,
        backoff_base: 1,
    }
}
