//! Capstone extension: the paper's stable-mode comparison on all four
//! substrates — Chord and Pastry (the paper's evaluation) plus Tapestry
//! and skip graphs (the §I transfer claims) — through one driver.

use peercache_pastry::RoutingMode;
use peercache_sim::{run_stable, OverlayKind, StableConfig};

fn main() {
    let mut cli = peercache_bench::BinArgs::parse("ext_all_overlays");
    let quick = cli.quick;
    let (n, queries) = if quick { (128, 10_000) } else { (1024, 40_000) };
    let kinds: [(&str, OverlayKind); 4] = [
        ("chord", OverlayKind::Chord),
        (
            "pastry (locality)",
            OverlayKind::Pastry {
                digit_bits: 1,
                mode: RoutingMode::LocalityAware,
            },
        ),
        ("tapestry", OverlayKind::Tapestry { digit_bits: 1 }),
        ("skip graph", OverlayKind::SkipGraph),
    ];
    peercache_bench::teeln!(
        cli.tee,
        "stable-mode comparison on every substrate, n = {n}, k = log2 n, alpha = 1.2\n"
    );
    peercache_bench::teeln!(
        cli.tee,
        "{:<18} {:>11} {:>12} {:>12} {:>11}",
        "overlay",
        "hops(core)",
        "hops(aware)",
        "hops(obliv)",
        "reduction%"
    );
    for (name, kind) in kinds {
        let mut config = StableConfig::paper_defaults(kind, n, 7);
        config.queries = queries;
        let r = run_stable(&config);
        peercache_bench::teeln!(
            cli.tee,
            "{name:<18} {:>11.3} {:>12.3} {:>12.3} {:>11.1}",
            r.core_only.avg_hops(),
            r.aware.avg_hops(),
            r.oblivious.avg_hops(),
            r.reduction_pct
        );
        assert_eq!(r.aware.success_rate(), 1.0);
        assert!(
            r.aware.avg_hops() < r.oblivious.avg_hops(),
            "{name}: the frequency-aware sets must beat the oblivious baseline"
        );
    }
    peercache_bench::teeln!(
        cli.tee,
        "\nthe frequency-aware optimum wins on every routing geometry the \
         paper claims applicability to."
    );
}
