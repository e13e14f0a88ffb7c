//! Fault-injection experiment glue: the `fault_matrix` sweep (loss ×
//! staleness × crash, aware vs oblivious vs core-only) over the
//! stable-mode driver, plus re-exports of the [`peercache_faults`]
//! primitives so experiment code needs only `peercache_sim::faults`.
//!
//! Every fault decision is a pure hash of `(run_seed, ids, hop,
//! attempt)` — no RNG stream is consumed by the fault layer — so every
//! cell of the matrix is an independent job and the whole sweep is
//! bit-identical at any thread count.

pub use peercache_faults::{
    FaultConfig, FaultPlan, FaultedRoute, Liveness, LookupFailure, RouteTrace,
};
use serde::Serialize;

use crate::stable::{run_stable_faulted, StableConfig, StableFaultReport};

/// Configuration of one fault-matrix sweep: a stable-mode scenario
/// crossed with grids of loss, staleness, and crash rates.
///
/// The first entry of each rate list is the baseline the per-cell hop
/// inflations are computed against; keep it `0.0` so "inflation" means
/// *relative to the fault-free walk* (the constructors do).
#[derive(Clone, Debug)]
pub struct FaultMatrixConfig {
    /// The underlying stable-mode scenario (overlay, nodes, workload).
    pub stable: StableConfig,
    /// Probe-loss probabilities to sweep (first entry = baseline).
    pub loss_rates: Vec<f64>,
    /// Stale-aux-pointer probabilities to sweep (first entry = baseline).
    pub stale_rates: Vec<f64>,
    /// Node-crash probabilities to sweep (first entry = baseline).
    pub crash_rates: Vec<f64>,
    /// Maximum id-space displacement of a stale pointer.
    pub staleness_age: u64,
    /// Retry budget per probe.
    pub max_retries: u32,
    /// Backoff base ticks (doubles per retry).
    pub backoff_base: u64,
    /// Maximum per-message delivery jitter in ticks.
    pub delay_jitter: u64,
}

impl FaultMatrixConfig {
    /// Default sweep: loss ∈ {0, 5, 20}%, staleness ∈ {0, 25}%, crash ∈
    /// {0, 5}% with a retry budget of 2 — twelve cells per overlay.
    pub fn paper_defaults(stable: StableConfig) -> Self {
        FaultMatrixConfig {
            stable,
            loss_rates: vec![0.0, 0.05, 0.2],
            stale_rates: vec![0.0, 0.25],
            crash_rates: vec![0.0, 0.05],
            staleness_age: 1024,
            max_retries: 2,
            backoff_base: 4,
            delay_jitter: 3,
        }
    }

    /// The [`FaultConfig`] of one grid point.
    fn cell_faults(&self, loss: f64, stale: f64, crash: f64) -> FaultConfig {
        FaultConfig {
            crash_rate: crash,
            unresponsive_rate: 0.0,
            loss_rate: loss,
            stale_rate: stale,
            staleness_age: self.staleness_age,
            delay_jitter: self.delay_jitter,
            max_retries: self.max_retries,
            backoff_base: self.backoff_base,
        }
    }
}

/// One grid point of a fault-matrix sweep.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FaultMatrixCell {
    /// Probe-loss probability of this cell.
    pub loss_rate: f64,
    /// Stale-aux-pointer probability of this cell.
    pub stale_rate: f64,
    /// Node-crash probability of this cell.
    pub crash_rate: f64,
    /// The full three-strategy fault report at this grid point.
    pub report: StableFaultReport,
    /// Mean-hop inflation of the aware strategy vs the baseline cell.
    pub hop_inflation_aware: f64,
    /// Mean-hop inflation of the oblivious strategy vs the baseline cell.
    pub hop_inflation_oblivious: f64,
    /// Mean-hop inflation of the core-only strategy vs the baseline cell.
    pub hop_inflation_core_only: f64,
}

/// Run the full fault matrix: every `(loss, stale, crash)` grid point,
/// fanned out over the worker pool, each cell routing the identical
/// query stream through the fault walk under all three
/// strategies.
///
/// Cell order is the nested loop order `loss → stale → crash`; the
/// first cell is the inflation baseline (fault-free when the rate lists
/// start at `0.0`). Output is bit-identical at any thread count.
pub fn fault_matrix(config: &FaultMatrixConfig) -> Vec<FaultMatrixCell> {
    fault_matrix_multi(std::slice::from_ref(config))
        .pop()
        .unwrap_or_default()
}

/// Run several fault matrices as **one** fan-out: every `(config,
/// loss, stale, crash)` grid point across all sweeps becomes an
/// independent job in a single [`peercache_par::par_map`] call, so a
/// four-substrate sweep saturates the pool with 48 jobs instead of
/// draining four 12-job waves with a barrier between substrates.
///
/// Per-cell fault decisions derive purely from `(run_seed, ids, hop,
/// attempt)` hashes — no cross-cell state — so the flattening changes
/// scheduling only, never results. Output order matches the input
/// `configs` order, cells within each matrix in the nested `loss →
/// stale → crash` order with the first cell as the inflation baseline.
pub fn fault_matrix_multi(configs: &[FaultMatrixConfig]) -> Vec<Vec<FaultMatrixCell>> {
    let mut jobs: Vec<(usize, f64, f64, f64)> = Vec::new();
    for (ci, config) in configs.iter().enumerate() {
        for &loss in &config.loss_rates {
            for &stale in &config.stale_rates {
                for &crash in &config.crash_rates {
                    jobs.push((ci, loss, stale, crash));
                }
            }
        }
    }
    let reports = peercache_par::par_map(&jobs, |_, &(ci, loss, stale, crash)| {
        let config = &configs[ci];
        run_stable_faulted(&config.stable, &config.cell_faults(loss, stale, crash))
    });

    let inflation = |hops: f64, baseline_hops: f64| hops / baseline_hops;
    let mut out: Vec<Vec<FaultMatrixCell>> = configs.iter().map(|_| Vec::new()).collect();
    let mut baselines: Vec<Option<StableFaultReport>> = vec![None; configs.len()];
    for (&(ci, loss, stale, crash), report) in jobs.iter().zip(reports) {
        let base = baselines[ci].get_or_insert_with(|| report.clone());
        out[ci].push(FaultMatrixCell {
            loss_rate: loss,
            stale_rate: stale,
            crash_rate: crash,
            hop_inflation_aware: inflation(
                report.aware.base.avg_hops(),
                base.aware.base.avg_hops(),
            ),
            hop_inflation_oblivious: inflation(
                report.oblivious.base.avg_hops(),
                base.oblivious.base.avg_hops(),
            ),
            hop_inflation_core_only: inflation(
                report.core_only.base.avg_hops(),
                base.core_only.base.avg_hops(),
            ),
            report,
        });
    }
    out
}
