//! One runner per table/figure in the paper's evaluation (§VI).
//!
//! Each runner returns serialisable rows that the `peercache-bench`
//! binaries print (and EXPERIMENTS.md records). A [`Scale`] knob lets the
//! integration tests exercise the identical code path at toy sizes.
//!
//! Every figure is a sweep of independent parameter points, so the
//! runners fan the points out over the [`peercache_par`] pool (see
//! `SweepJob`); by the pool's determinism contract the resulting tables
//! are bit-identical at any thread count, including fully serial.

use peercache_pastry::RoutingMode;
use serde::Serialize;

use crate::churn::{run_churn, ChurnConfig};
use crate::overlay::OverlayKind;
use crate::stable::{run_stable, RankingMode, StableConfig};

/// Experiment scale: paper-faithful or test-sized.
#[derive(Copy, Clone, Debug)]
pub struct Scale {
    /// Divisor on node counts (paper = 1).
    pub node_divisor: usize,
    /// Item-catalog size (fixed hot catalog; see EXPERIMENTS.md).
    pub items: usize,
    /// Measurement queries per stable run.
    pub queries: usize,
    /// Simulated seconds per churn run.
    pub churn_duration: f64,
    /// Warmup portion of a churn run.
    pub churn_warmup: f64,
}

impl Scale {
    /// Paper-faithful sizes.
    pub fn paper() -> Self {
        Scale {
            node_divisor: 1,
            items: 64,
            queries: 50_000,
            churn_duration: 7200.0,
            churn_warmup: 1800.0,
        }
    }

    /// Toy sizes for tests (same code path, ~100× faster).
    pub fn quick() -> Self {
        Scale {
            node_divisor: 8,
            items: 64,
            queries: 4_000,
            churn_duration: 600.0,
            churn_warmup: 150.0,
        }
    }
}

/// One figure row: a single (parameter point, comparison) result.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FigureRow {
    /// Which figure the row reproduces.
    pub figure: String,
    /// "pastry" or "chord".
    pub system: String,
    /// "stable" or "churn".
    pub mode: String,
    /// Node count.
    pub n: usize,
    /// Auxiliary pointers per node.
    pub k: usize,
    /// `k` as a multiple of log₂ n (the paper's x-axis for Figs 4/6).
    pub k_factor: usize,
    /// Zipf exponent.
    pub alpha: f64,
    /// Average hops, frequency-aware.
    pub avg_hops_aware: f64,
    /// Average hops, frequency-oblivious.
    pub avg_hops_oblivious: f64,
    /// Average hops with no auxiliary neighbors (stable runs only).
    pub avg_hops_core_only: Option<f64>,
    /// The paper's metric: % reduction vs the oblivious baseline.
    pub reduction_pct: f64,
    /// Success rate under the aware strategy (1.0 in stable mode).
    pub success_rate_aware: f64,
    /// Success rate under the oblivious baseline.
    pub success_rate_oblivious: f64,
}

/// `round(log2 n)` — the paper's `k = log n` budget rule.
// Rounded log2 of a node count is tiny and non-negative, so the
// f64 → usize cast is exact.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub(crate) fn log2(n: usize) -> usize {
    (n as f64).log2().round() as usize
}

fn pastry_kind() -> OverlayKind {
    OverlayKind::Pastry {
        digit_bits: 1,
        mode: RoutingMode::LocalityAware,
    }
}

/// One parameter point of a figure sweep: everything needed to produce a
/// [`FigureRow`] independently of every other point, so a figure's rows
/// fan out over the [`peercache_par`] pool. Row order in the output is
/// the construction order of the jobs (`par_map` preserves it), and each
/// job re-derives all randomness from its own config seed, so the table
/// is bit-identical at any thread count.
enum SweepJob {
    /// A stable-mode point.
    Stable {
        figure: &'static str,
        system: &'static str,
        config: StableConfig,
        k_factor: usize,
    },
    /// A churn-mode point (paired strategies inside).
    Churn {
        figure: &'static str,
        config: ChurnConfig,
        k_factor: usize,
    },
}

fn run_sweep(jobs: &[SweepJob]) -> Vec<FigureRow> {
    peercache_par::par_map(jobs, |_, job| match job {
        SweepJob::Stable {
            figure,
            system,
            config,
            k_factor,
        } => stable_row(figure, system, config, *k_factor),
        SweepJob::Churn {
            figure,
            config,
            k_factor,
        } => churn_row(figure, config, *k_factor),
    })
}

fn stable_row(figure: &str, system: &str, config: &StableConfig, k_factor: usize) -> FigureRow {
    let report = run_stable(config);
    FigureRow {
        figure: figure.to_string(),
        system: system.to_string(),
        mode: "stable".to_string(),
        n: config.nodes,
        k: config.k,
        k_factor,
        alpha: config.alpha,
        avg_hops_aware: report.aware.avg_hops(),
        avg_hops_oblivious: report.oblivious.avg_hops(),
        avg_hops_core_only: Some(report.core_only.avg_hops()),
        reduction_pct: report.reduction_pct,
        success_rate_aware: report.aware.success_rate(),
        success_rate_oblivious: report.oblivious.success_rate(),
    }
}

fn churn_row(figure: &str, config: &ChurnConfig, k_factor: usize) -> FigureRow {
    let report = run_churn(config);
    FigureRow {
        figure: figure.to_string(),
        system: "chord".to_string(),
        mode: "churn".to_string(),
        n: config.nodes,
        k: config.k,
        k_factor,
        alpha: config.alpha,
        avg_hops_aware: report.aware.avg_hops(),
        avg_hops_oblivious: report.oblivious.avg_hops(),
        avg_hops_core_only: None,
        reduction_pct: report.reduction_pct,
        success_rate_aware: report.aware.success_rate(),
        success_rate_oblivious: report.oblivious.success_rate(),
    }
}

/// Figure 3: Pastry, % hop reduction vs `n` for α ∈ {1.2, 0.91}
/// (`k = log₂ n`, identical rankings, stable mode).
pub fn fig3(scale: &Scale, seed: u64) -> Vec<FigureRow> {
    let mut jobs = Vec::new();
    for &n_paper in &[256usize, 512, 1024, 2048] {
        let n = (n_paper / scale.node_divisor).max(16);
        for &alpha in &[1.2, 0.91] {
            let mut config = StableConfig::paper_defaults(pastry_kind(), n, seed);
            config.alpha = alpha;
            config.items = scale.items;
            config.queries = scale.queries;
            config.ranking = RankingMode::Identical;
            jobs.push(SweepJob::Stable {
                figure: "fig3",
                system: "pastry",
                config,
                k_factor: 1,
            });
        }
    }
    run_sweep(&jobs)
}

/// Figure 4: Pastry, % hop reduction vs `k ∈ {1, 2, 3}·log₂ n`
/// (`n = 1024`, α ∈ {1.2, 0.91}, stable mode, locality-aware routing).
pub fn fig4(scale: &Scale, seed: u64) -> Vec<FigureRow> {
    let n = (1024 / scale.node_divisor).max(16);
    let mut jobs = Vec::new();
    for k_factor in 1..=3 {
        for &alpha in &[1.2, 0.91] {
            let mut config = StableConfig::paper_defaults(pastry_kind(), n, seed);
            config.alpha = alpha;
            config.items = scale.items;
            config.queries = scale.queries;
            config.k = k_factor * log2(n);
            config.ranking = RankingMode::Identical;
            jobs.push(SweepJob::Stable {
                figure: "fig4",
                system: "pastry",
                config,
                k_factor,
            });
        }
    }
    run_sweep(&jobs)
}

/// Figure 5: Chord, % hop reduction vs `n`, stable and churn-intensive
/// modes (`k = log₂ n`, α = 1.2, 5 distinct rankings).
pub fn fig5(scale: &Scale, seed: u64) -> Vec<FigureRow> {
    let mut jobs = Vec::new();
    for &n_paper in &[128usize, 256, 512, 1024] {
        let n = (n_paper / scale.node_divisor).max(16);
        let mut stable = StableConfig::paper_defaults(OverlayKind::Chord, n, seed);
        stable.items = scale.items;
        stable.queries = scale.queries;
        jobs.push(SweepJob::Stable {
            figure: "fig5",
            system: "chord",
            config: stable,
            k_factor: 1,
        });

        let mut churn = ChurnConfig::paper_defaults(n, seed);
        churn.items = scale.items;
        churn.duration = scale.churn_duration;
        churn.warmup = scale.churn_warmup;
        jobs.push(SweepJob::Churn {
            figure: "fig5",
            config: churn,
            k_factor: 1,
        });
    }
    run_sweep(&jobs)
}

/// Figure 6: Chord, % hop reduction vs `k ∈ {1, 2, 3}·log₂ n`
/// (`n = 1024`, stable and churn modes).
pub fn fig6(scale: &Scale, seed: u64) -> Vec<FigureRow> {
    let n = (1024 / scale.node_divisor).max(16);
    let mut jobs = Vec::new();
    for k_factor in 1..=3 {
        let k = k_factor * log2(n);
        let mut stable = StableConfig::paper_defaults(OverlayKind::Chord, n, seed);
        stable.items = scale.items;
        stable.queries = scale.queries;
        stable.k = k;
        jobs.push(SweepJob::Stable {
            figure: "fig6",
            system: "chord",
            config: stable,
            k_factor,
        });

        let mut churn = ChurnConfig::paper_defaults(n, seed);
        churn.items = scale.items;
        churn.duration = scale.churn_duration;
        churn.warmup = scale.churn_warmup;
        churn.k = k;
        jobs.push(SweepJob::Churn {
            figure: "fig6",
            config: churn,
            k_factor,
        });
    }
    run_sweep(&jobs)
}

/// Render rows as an aligned text table (what the bench binaries print).
pub fn render_table(rows: &[FigureRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "figure  system  mode    n      k   k/log n  alpha  hops(aware)  hops(obliv)  hops(core)  reduction%  success(aware)\n",
    );
    for r in rows {
        let core = r
            .avg_hops_core_only
            .map(|h| format!("{h:10.3}"))
            .unwrap_or_else(|| format!("{:>10}", "-"));
        out.push_str(&format!(
            "{:<7} {:<7} {:<7} {:<6} {:<3} {:<8} {:<6.2} {:>11.3} {:>12.3} {core} {:>10.1} {:>14.3}\n",
            r.figure,
            r.system,
            r.mode,
            r.n,
            r.k,
            r.k_factor,
            r.alpha,
            r.avg_hops_aware,
            r.avg_hops_oblivious,
            r.reduction_pct,
            r.success_rate_aware,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(mode: &str) -> FigureRow {
        FigureRow {
            figure: "fig9".into(),
            system: "chord".into(),
            mode: mode.into(),
            n: 64,
            k: 6,
            k_factor: 1,
            alpha: 1.2,
            avg_hops_aware: 1.5,
            avg_hops_oblivious: 3.0,
            avg_hops_core_only: if mode == "stable" { Some(4.0) } else { None },
            reduction_pct: 50.0,
            success_rate_aware: 1.0,
            success_rate_oblivious: 1.0,
        }
    }

    #[test]
    fn render_table_formats_all_columns() {
        let out = render_table(&[row("stable"), row("churn")]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        assert!(lines[0].contains("reduction%"));
        assert!(lines[1].contains("fig9"));
        assert!(lines[1].contains("4.000"), "core-only hops shown");
        assert!(lines[2].contains('-'), "missing core-only shown as dash");
        assert!(lines[1].contains("50.0"));
    }

    #[test]
    fn scales_have_sane_relationships() {
        let paper = Scale::paper();
        let quick = Scale::quick();
        assert!(quick.node_divisor > paper.node_divisor);
        assert!(quick.queries < paper.queries);
        assert!(quick.churn_duration < paper.churn_duration);
        assert!(quick.churn_warmup < quick.churn_duration);
    }

    #[test]
    fn log2_rounds_to_nearest() {
        assert_eq!(log2(1024), 10);
        assert_eq!(log2(96), 7);
        assert_eq!(log2(128), 7);
    }
}
