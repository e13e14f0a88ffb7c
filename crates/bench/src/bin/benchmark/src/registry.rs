//! The benchmark's vocabulary: its workloads and the metrics it reports.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the unit
//! tests in `main.rs` hold the two in step.

use Workload::{
    ChurnChord as Churn, HotPastry as Hot, RuntimeFaulted as Runtime, WideChord as Wide,
};

/// One workload: a seeded input set the benchmark runs end to end.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Workload {
    /// Pastry, 2048 nodes, 64-item hot catalog: fixed cost per lookup.
    HotPastry,
    /// Chord, 1024 nodes, 2048-item catalog: long walks, wide selections.
    WideChord,
    /// Chord under the paper's churn: membership writes beside lookups.
    ChurnChord,
    /// The node runtime over the wide world with faults and a peer store.
    RuntimeFaulted,
}

impl Workload {
    pub(crate) const ALL: [Workload; 4] = [
        Workload::HotPastry,
        Workload::WideChord,
        Workload::ChurnChord,
        Workload::RuntimeFaulted,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::HotPastry => "hot_pastry",
            Workload::WideChord => "wide_chord",
            Workload::ChurnChord => "churn_chord",
            Workload::RuntimeFaulted => "runtime_faulted",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An end-to-end metric: what a user of the overlay sees.
pub(crate) struct EndToEnd {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) better: &'static str,
}

/// Every end-to-end metric, in report order. Each is reported on every
/// workload.
pub(crate) const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "lookups_per_s",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "lookup_us_p50",
        unit: "us",
        better: "lower",
    },
    EndToEnd {
        name: "lookup_us_p90",
        unit: "us",
        better: "lower",
    },
    EndToEnd {
        name: "hops_mean",
        unit: "hops",
        better: "lower",
    },
    EndToEnd {
        name: "lookup_ok_frac",
        unit: "fraction",
        better: "higher",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

/// A per-layer metric from the traced run, with the end-to-end metric it
/// should move and the workloads it should move it on (`None` for the
/// metrics that validate the trace itself).
pub(crate) struct LayerMetric {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) better: &'static str,
    pub(crate) moves: Option<(&'static str, &'static [Workload])>,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: Option<(&'static str, &'static [Workload])>,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in report order. Each is reported on every
/// workload: where a workload's own path skips a layer, the traced run
/// times that layer at the workload's world instead (see README.md).
pub(crate) const LAYERS: &[LayerMetric] = &[
    layer(
        "overlay.build_ms",
        "ms",
        "lower",
        Some(("setup_s", &[Hot, Churn])),
    ),
    layer(
        "core.select_ms",
        "ms",
        "lower",
        Some(("setup_s", &[Wide, Runtime])),
    ),
    layer(
        "core.select_us_p50",
        "us",
        "lower",
        Some(("setup_s", &[Wide, Runtime])),
    ),
    layer(
        "core.select_us_p99",
        "us",
        "lower",
        Some(("setup_s", &[Wide, Runtime])),
    ),
    layer(
        "core.candidates_mean",
        "count",
        "lower",
        Some(("setup_s", &[Wide, Runtime])),
    ),
    layer(
        "baseline.select_ms",
        "ms",
        "lower",
        Some(("setup_s", &[Hot])),
    ),
    layer(
        "baseline.select_us_p50",
        "us",
        "lower",
        Some(("setup_s", &[Hot])),
    ),
    layer(
        "overlay.route_ms",
        "ms",
        "lower",
        Some(("lookups_per_s", &[Hot, Wide])),
    ),
    layer(
        "overlay.route_us_p50",
        "us",
        "lower",
        Some(("lookup_us_p50", &[Hot, Wide])),
    ),
    layer(
        "overlay.route_us_p90",
        "us",
        "lower",
        Some(("lookup_us_p90", &[Hot, Wide])),
    ),
    layer(
        "overlay.route_ns_per_hop",
        "ns",
        "lower",
        Some(("lookups_per_s", &[Wide, Churn])),
    ),
    layer(
        "faults.probes_per_lookup",
        "count",
        "lower",
        Some(("lookups_per_s", &[Runtime])),
    ),
    layer(
        "faults.retries_per_lookup",
        "count",
        "lower",
        Some(("lookups_per_s", &[Runtime])),
    ),
    layer(
        "faults.timeouts_per_lookup",
        "count",
        "lower",
        Some(("lookup_ok_frac", &[Runtime, Churn])),
    ),
    layer(
        "faults.fallbacks_per_lookup",
        "count",
        "lower",
        Some(("hops_mean", &[Runtime])),
    ),
    layer(
        "node.run_ms",
        "ms",
        "lower",
        Some(("lookups_per_s", &[Runtime])),
    ),
    layer(
        "node.deliveries_per_lookup",
        "count",
        "lower",
        Some(("lookups_per_s", &[Runtime])),
    ),
    layer(
        "node.ns_per_delivery",
        "ns",
        "lower",
        Some(("lookups_per_s", &[Runtime])),
    ),
    layer(
        "node.store_load_ms",
        "ms",
        "lower",
        Some(("setup_s", &[Runtime])),
    ),
    layer(
        "node.reconnect_ms",
        "ms",
        "lower",
        Some(("setup_s", &[Runtime])),
    ),
    layer(
        "refresh.tick_ms",
        "ms",
        "lower",
        Some(("lookups_per_s", &[Churn])),
    ),
    layer(
        "freq.observe_ns",
        "ns",
        "lower",
        Some(("lookups_per_s", &[Churn])),
    ),
    layer("trace.coverage_pct", "%", "higher", None),
    layer("trace.overhead_pct", "%", "lower", None),
];

/// The unit a metric name is reported in.
pub(crate) fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}

/// A metric's direction, and for a layer metric what it should move.
pub(crate) fn describe(name: &str) -> String {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return format!("{} is better", m.better);
    }
    match LAYERS.iter().find(|m| m.name == name) {
        Some(LayerMetric {
            better,
            moves: Some((metric, on)),
            ..
        }) => {
            let on: Vec<&str> = on.iter().map(|w| w.name()).collect();
            format!("{better} is better; moves {metric} on {}", on.join(", "))
        }
        Some(m) => format!("{} is better; validates the trace", m.better),
        None => String::new(),
    }
}
