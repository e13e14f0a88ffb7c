//! The scale engine checked against the exact stable driver.
//!
//! `run_scale_stable` replaces the materialised Pastry network with a
//! virtual arena and diverges from `run_stable` in two documented ways
//! (DESIGN.md § "Scale tier"): routing-table cells are deterministic
//! hash picks instead of the first-encountered fill, and the oblivious
//! baseline draws per node from seeded streams instead of one serial
//! stream. Both drivers draw the same node ids, catalog and item
//! sequence from the same seeds. Each query's origin is the same index
//! draw too, but the arena reads it from its sorted id array and the
//! exact driver from the ids' draw order, so the same items leave from
//! different (equally uniform) origins. The gaps below therefore hold
//! the two divergences plus the sampling noise of the origins.
//!
//! **Band.** On Pastry (b = 1, locality-aware, fig3's defaults) with
//! 4 000 queries, each pass's mean hops (aware, oblivious, core-only)
//! must agree within 0.15 hops and the reduction within 3.5 percentage
//! points. At this query count and seed 1 (the cases run here) the
//! aware / oblivious / core-only gaps measured 0.033 / 0.079 / 0.068
//! hops and 2.32 pp at n = 1024, and 0.041 / 0.115 / 0.015 hops and
//! 2.53 pp at n = 2048. Over seeds 1–8 at both sizes the worst were
//! 0.089 (aware), 0.117 (oblivious) and 0.113 (core-only) hops and
//! 2.55 pp, so the band holds for every seed measured, not only the one
//! run.

use peercache_pastry::RoutingMode;
use peercache_sim::{
    run_scale_stable, run_stable, OverlayKind, QueryMetrics, ScaleConfig, StableConfig,
};

const QUERIES: usize = 4_000;
const HOPS_BAND: f64 = 0.15;
const REDUCTION_BAND_PP: f64 = 3.5;

fn assert_within_band(n: usize, seed: u64) {
    let mut scale = ScaleConfig::paper_defaults(n, seed);
    scale.queries = QUERIES;
    let mut exact = StableConfig::paper_defaults(
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        n,
        seed,
    );
    exact.queries = QUERIES;
    let scale = run_scale_stable(&scale);
    let exact = run_stable(&exact);

    let passes: [(&str, &QueryMetrics, &QueryMetrics); 3] = [
        ("aware", &scale.aware, &exact.aware),
        ("oblivious", &scale.oblivious, &exact.oblivious),
        ("core-only", &scale.core_only, &exact.core_only),
    ];
    for (pass, at_scale, materialised) in passes {
        assert_eq!(at_scale.success_rate(), 1.0, "n={n} {pass} at scale");
        let gap = (at_scale.avg_hops() - materialised.avg_hops()).abs();
        assert!(
            gap <= HOPS_BAND,
            "n={n} seed={seed} {pass}: scale {:.4} vs exact {:.4} hops",
            at_scale.avg_hops(),
            materialised.avg_hops()
        );
    }
    let gap = (scale.reduction_pct - exact.reduction_pct).abs();
    assert!(
        gap <= REDUCTION_BAND_PP,
        "n={n} seed={seed} reduction: scale {:.2} % vs exact {:.2} %",
        scale.reduction_pct,
        exact.reduction_pct
    );
}

#[test]
fn scale_engine_tracks_the_exact_driver_at_1024_nodes() {
    assert_within_band(1024, 1);
}

#[test]
fn scale_engine_tracks_the_exact_driver_at_2048_nodes() {
    assert_within_band(2048, 1);
}
