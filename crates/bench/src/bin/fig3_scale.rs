//! `fig3_scale` — Figure 3's stable-mode comparison beyond the
//! materialised substrates.
//!
//! The scale stage runs at 10⁵ nodes (default; 10⁶ via `--million`):
//! the virtual-arena engine of [`run_scale_stable`], whose rows are
//! bit-identical at any `--threads`.
//!
//! Built with `--features count-allocs`, the run also reports the
//! live-heap high-water mark divided by the population — the
//! bytes-per-node gauge — and **fails** when it exceeds
//! `--max-bytes-per-node`, the committed memory ceiling the CI `scale`
//! job gates against.
//!
//! With `--churn`, a second stage runs the scale-tier churn probe
//! ([`run_scale_churn`]): rounds of membership flips, counter
//! observations, and dirty-only refreshes at the same population — its
//! fixed per-node state is reported and the memory gauge (peak heap /
//! n) covers the probe too, so the CI ceiling holds for the churn
//! driver at scale, not just the stable one.
//!
//! ```text
//! fig3_scale [--quick] [--n N] [--million] [--seed N] [--threads T]
//!            [--json PATH] [--max-bytes-per-node B] [--churn]
//! ```

use peercache_bench::{teeln, Tee};
use peercache_sim::{
    run_scale_churn, run_scale_stable, QueryMetrics, ScaleChurnConfig, ScaleChurnReport,
    ScaleConfig,
};
use serde::Serialize;

#[derive(Serialize)]
struct ScaleRow {
    n: usize,
    k: usize,
    alpha: f64,
    avg_hops_aware: f64,
    avg_hops_oblivious: f64,
    avg_hops_core_only: f64,
    reduction_pct: f64,
    success_aware: f64,
    success_oblivious: f64,
    success_core_only: f64,
}

#[derive(Serialize)]
struct MemoryGauge {
    nodes: usize,
    peak_bytes: u64,
    bytes_per_node: f64,
    /// The gate ceiling, when one was requested.
    max_bytes_per_node: Option<u64>,
}

/// The machine-readable report `--json` writes: the bit-identical
/// `rows` separated from the environmental `gauge` (absent without
/// `count-allocs` — heap peaks are a property of the build, not of the
/// experiment's deterministic outputs).
#[derive(Serialize)]
struct ScaleDoc {
    quick: bool,
    threads: usize,
    seed: u64,
    rows: Vec<ScaleRow>,
    /// The scale-churn probe's rows (present with `--churn`).
    churn: Option<ScaleChurnReport>,
    gauge: Option<MemoryGauge>,
}

struct Args {
    quick: bool,
    n: usize,
    seed: u64,
    json: Option<String>,
    max_bytes_per_node: Option<u64>,
    churn: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        n: 100_000,
        seed: 1,
        json: None,
        max_bytes_per_node: None,
        churn: false,
    };
    let mut argv = std::env::args().skip(1);
    let positive = |v: Option<String>, what: &str| -> u64 {
        v.and_then(|s| s.parse().ok())
            .filter(|&x| x > 0)
            .unwrap_or_else(|| panic!("{what} takes a positive integer"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--n" => args.n = positive(argv.next(), "--n") as usize,
            "--million" => args.n = 1_000_000,
            "--seed" => {
                args.seed = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--threads" => {
                peercache_par::set_threads(positive(argv.next(), "--threads") as usize);
            }
            "--json" => args.json = Some(argv.next().expect("--json takes a path")),
            "--max-bytes-per-node" => {
                args.max_bytes_per_node = Some(positive(argv.next(), "--max-bytes-per-node"));
            }
            "--churn" => args.churn = true,
            other => panic!(
                "unknown argument {other}; usage: [--quick] [--n N] [--million] \
                 [--seed N] [--threads T] [--json PATH] \
                 [--max-bytes-per-node B] [--churn]"
            ),
        }
    }
    args
}

#[cfg(feature = "count-allocs")]
fn gauge_reset() {
    peercache_bench::alloc_count::reset_peak();
}

#[cfg(not(feature = "count-allocs"))]
fn gauge_reset() {}

#[cfg(feature = "count-allocs")]
fn gauge_peak() -> Option<u64> {
    Some(peercache_bench::alloc_count::peak_bytes())
}

#[cfg(not(feature = "count-allocs"))]
fn gauge_peak() -> Option<u64> {
    None
}

fn scale_row(
    config: &ScaleConfig,
    aware: &QueryMetrics,
    obl: &QueryMetrics,
    core: &QueryMetrics,
    reduction_pct: f64,
) -> ScaleRow {
    ScaleRow {
        n: config.nodes,
        k: config.k(),
        alpha: ScaleConfig::ALPHA,
        avg_hops_aware: aware.avg_hops(),
        avg_hops_oblivious: obl.avg_hops(),
        avg_hops_core_only: core.avg_hops(),
        reduction_pct,
        success_aware: aware.success_rate(),
        success_oblivious: obl.success_rate(),
        success_core_only: core.success_rate(),
    }
}

fn main() {
    let args = parse_args();
    let mut tee = Tee::create("fig3_scale");
    teeln!(
        tee,
        "fig3_scale: n={} seed={} threads={} quick={}",
        args.n,
        args.seed,
        peercache_par::threads(),
        args.quick
    );

    let config = ScaleConfig::paper_defaults(args.n, args.seed);
    teeln!(
        tee,
        "scale: virtual-arena pastry n={} k={} queries={}",
        config.nodes,
        config.k(),
        config.queries
    );
    gauge_reset();
    let report = run_scale_stable(&config);
    let row = scale_row(
        &config,
        &report.aware,
        &report.oblivious,
        &report.core_only,
        report.reduction_pct,
    );
    teeln!(
        tee,
        "  aware     {:>8.3} hops  success {:.4}",
        row.avg_hops_aware,
        row.success_aware
    );
    teeln!(
        tee,
        "  oblivious {:>8.3} hops  success {:.4}",
        row.avg_hops_oblivious,
        row.success_oblivious
    );
    teeln!(
        tee,
        "  core-only {:>8.3} hops  success {:.4}",
        row.avg_hops_core_only,
        row.success_core_only
    );
    teeln!(
        tee,
        "  reduction aware vs oblivious: {:+.2} %",
        row.reduction_pct
    );

    // The churn probe runs inside the gauge window on purpose: the
    // bytes-per-node ceiling must hold for the churn driver at scale,
    // not just the stable passes.
    let churn = args.churn.then(|| {
        let mut churn_config = ScaleChurnConfig::paper_defaults(args.n, args.seed);
        if args.quick {
            churn_config.queries_per_round = 10_000;
        }
        teeln!(
            tee,
            "churn: scale probe n={} rounds={} flips/round={} queries/round={}",
            args.n,
            churn_config.rounds,
            churn_config.flips_per_round,
            churn_config.queries_per_round
        );
        let report = run_scale_churn(&churn_config);
        for (i, round) in report.rounds.iter().enumerate() {
            teeln!(
                tee,
                "  round {i}: flips {:>6}  alive {:>7}  refreshed {:>6}  \
                 {:>7.3} hops  success {:.4}",
                round.flips,
                round.alive,
                round.refreshed,
                round.metrics.avg_hops(),
                round.metrics.success_rate()
            );
        }
        teeln!(
            tee,
            "  churn state: {:.1} bytes/node (counters + slab + flags)",
            report.state_bytes_per_node
        );
        report
    });

    let gauge = gauge_peak().map(|peak| {
        let bytes_per_node = peak as f64 / config.nodes as f64;
        teeln!(
            tee,
            "  memory gauge: peak {peak} live heap bytes, {bytes_per_node:.1} bytes/node"
        );
        MemoryGauge {
            nodes: config.nodes,
            peak_bytes: peak,
            bytes_per_node,
            max_bytes_per_node: args.max_bytes_per_node,
        }
    });

    let doc = ScaleDoc {
        quick: args.quick,
        threads: peercache_par::threads(),
        seed: args.seed,
        rows: vec![row],
        churn,
        gauge,
    };
    if let Some(path) = &args.json {
        let body = serde_json::to_string_pretty(&doc).expect("report serialises");
        std::fs::write(path, body).expect("write JSON report");
        teeln!(tee, "(report written to {path})");
    }
    teeln!(tee, "(output mirrored to {})", tee.path().display());

    let mut failed = false;
    if let Some(ceiling) = args.max_bytes_per_node {
        match &doc.gauge {
            Some(g) if g.bytes_per_node > ceiling as f64 => {
                eprintln!(
                    "memory gauge FAILED: {:.1} bytes/node exceeds the {ceiling} ceiling",
                    g.bytes_per_node
                );
                failed = true;
            }
            Some(g) => {
                println!(
                    "memory gauge ok: {:.1} bytes/node within the {ceiling} ceiling",
                    g.bytes_per_node
                );
            }
            None => {
                eprintln!(
                    "--max-bytes-per-node needs the count-allocs feature; \
                     rebuild with --features count-allocs"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
