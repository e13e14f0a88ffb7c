//! Query-level metrics accumulated by the experiment drivers.

use serde::Serialize;

/// Aggregate statistics over a set of routed queries.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct QueryMetrics {
    /// Queries issued.
    pub issued: u64,
    /// Queries that reached the true owner.
    pub succeeded: u64,
    /// Queries that ended anywhere else (wrong owner, dead end, limit).
    pub failed: u64,
    /// Total hops over *successful* queries.
    pub total_hops: u64,
    /// Dead neighbors probed (timeouts) across all queries.
    pub failed_probes: u64,
    /// Histogram of hop counts for successful queries (index = hops).
    pub hop_histogram: Vec<u64>,
}

impl QueryMetrics {
    /// Record one routed query.
    pub fn record(&mut self, success: bool, hops: u32, failed_probes: u32) {
        self.issued += 1;
        self.failed_probes += u64::from(failed_probes);
        if success {
            self.succeeded += 1;
            self.total_hops += u64::from(hops);
            let idx = hops as usize;
            if self.hop_histogram.len() <= idx {
                self.hop_histogram.resize(idx + 1, 0);
            }
            self.hop_histogram[idx] += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Mean hops over successful queries (NaN when none succeeded).
    pub fn avg_hops(&self) -> f64 {
        self.total_hops as f64 / self.succeeded as f64
    }

    /// Fraction of issued queries that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.succeeded as f64 / self.issued as f64
    }

    /// The `q`-quantile of the successful-hop distribution (`0 ≤ q ≤ 1`).
    // The target is ceiled and clamped ≥ 1 so the f64 → u64 cast is exact,
    // and histogram indices are bounded by the hop count, far below u32.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn hop_quantile(&self, q: f64) -> Option<u32> {
        if self.succeeded == 0 {
            return None;
        }
        let target = ((self.succeeded as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (hops, &count) in self.hop_histogram.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(hops as u32);
            }
        }
        Some(self.hop_histogram.len().saturating_sub(1) as u32)
    }

    /// Merge another metrics block into this one.
    pub fn merge(&mut self, other: &QueryMetrics) {
        self.issued += other.issued;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.total_hops += other.total_hops;
        self.failed_probes += other.failed_probes;
        if self.hop_histogram.len() < other.hop_histogram.len() {
            self.hop_histogram.resize(other.hop_histogram.len(), 0);
        }
        for (i, &c) in other.hop_histogram.iter().enumerate() {
            self.hop_histogram[i] += c;
        }
    }
}

/// [`QueryMetrics`] plus the degradation counters a fault-injected walk
/// reports through its [`RouteTrace`](peercache_faults::RouteTrace).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FaultMetrics {
    /// The fault-oblivious aggregate (issued/succeeded/hops/probe
    /// timeouts), so every zero-fault run lines up with [`QueryMetrics`]
    /// field for field.
    pub base: QueryMetrics,
    /// Probe attempts sent, including retries.
    pub probes: u64,
    /// Retransmissions after a lost or unanswered probe.
    pub retries: u64,
    /// Probes abandoned after the retry budget (= dead neighbors hit).
    pub timeouts: u64,
    /// Aux→core fallbacks taken after an aux-only pointer failed.
    pub fallbacks: u64,
    /// Deterministic virtual time spent in backoff and delivery jitter.
    pub delay_ticks: u64,
    /// Queries dropped because the origin itself was down.
    pub origin_down: u64,
}

impl FaultMetrics {
    /// Record one fault-injected route.
    pub fn record(&mut self, route: &peercache_faults::FaultedRoute) {
        let trace = &route.trace;
        self.base
            .record(route.is_success(), trace.hops, trace.timeouts);
        self.probes += u64::from(trace.probes);
        self.retries += u64::from(trace.retries);
        self.timeouts += u64::from(trace.timeouts);
        self.fallbacks += u64::from(trace.fallbacks);
        self.delay_ticks += trace.delay_ticks;
    }

    /// Record a query that never launched: the origin was crashed or
    /// already gone from the overlay. Not counted as issued.
    pub fn record_origin_down(&mut self) {
        self.origin_down += 1;
    }

    /// Mean retries per issued query.
    pub fn avg_retries(&self) -> f64 {
        if self.base.issued == 0 {
            return 0.0;
        }
        self.retries as f64 / self.base.issued as f64
    }
}

/// The paper's headline metric: percentage reduction in average hops of
/// the frequency-aware scheme relative to the frequency-oblivious one.
pub fn reduction_pct(aware_avg_hops: f64, oblivious_avg_hops: f64) -> f64 {
    if oblivious_avg_hops <= 0.0 {
        return 0.0;
    }
    (oblivious_avg_hops - aware_avg_hops) / oblivious_avg_hops * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_chunks_match_serial_record() {
        let outcomes = [
            (true, 3u32, 0u32),
            (true, 5, 1),
            (false, 2, 2),
            (true, 0, 0),
            (true, 200, 0),
        ];
        let mut serial = QueryMetrics::default();
        let mut left = QueryMetrics::default();
        let mut right = QueryMetrics::default();
        for (i, &(s, h, p)) in outcomes.iter().enumerate() {
            serial.record(s, h, p);
            if i < 2 {
                left.record(s, h, p);
            } else {
                right.record(s, h, p);
            }
        }
        left.merge(&right);
        assert_eq!(left, serial);
        let mut empty = QueryMetrics::default();
        empty.merge(&QueryMetrics::default());
        assert_eq!(empty, QueryMetrics::default());
    }

    #[test]
    fn record_accumulates() {
        let mut m = QueryMetrics::default();
        m.record(true, 3, 0);
        m.record(true, 5, 1);
        m.record(false, 2, 2);
        assert_eq!(m.issued, 3);
        assert_eq!(m.succeeded, 2);
        assert_eq!(m.failed, 1);
        assert_eq!(m.total_hops, 8);
        assert_eq!(m.failed_probes, 3);
        assert_eq!(m.avg_hops(), 4.0);
        assert!((m.success_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_and_quantiles() {
        let mut m = QueryMetrics::default();
        for hops in [1, 1, 2, 3, 10] {
            m.record(true, hops, 0);
        }
        assert_eq!(m.hop_histogram[1], 2);
        assert_eq!(m.hop_quantile(0.5), Some(2));
        assert_eq!(m.hop_quantile(1.0), Some(10));
        assert_eq!(m.hop_quantile(0.0), Some(1));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let m = QueryMetrics::default();
        assert_eq!(m.hop_quantile(0.5), None);
    }

    #[test]
    fn merge_combines() {
        let mut a = QueryMetrics::default();
        a.record(true, 2, 0);
        let mut b = QueryMetrics::default();
        b.record(true, 4, 1);
        b.record(false, 0, 0);
        a.merge(&b);
        assert_eq!(a.issued, 3);
        assert_eq!(a.avg_hops(), 3.0);
        assert_eq!(a.hop_histogram[4], 1);
    }

    #[test]
    fn reduction_pct_matches_paper_definition() {
        assert!((reduction_pct(2.0, 4.0) - 50.0).abs() < 1e-12);
        assert!((reduction_pct(4.0, 4.0)).abs() < 1e-12);
        assert_eq!(reduction_pct(1.0, 0.0), 0.0, "guarded division");
    }
}
