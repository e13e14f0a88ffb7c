//! In-memory spans and per-layer call statistics for the traced run.
//!
//! Spans are recorded from the benchmark's own side of each call into a
//! layer: a *phase* groups work, an *op* times one call. Every op feeds its
//! layer's statistics; a sampled op also keeps a span for the timeline. A
//! layer's self time is its spans' duration minus what their children
//! cover, so self times add up to the traced wall without double counting.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Every this many calls of a loop keeps a timeline span.
const SAMPLE_EVERY: usize = 1000;

/// The request id under which call `i` of a loop keeps a span, if it is
/// in the fixed sample.
pub(crate) fn sampled(i: usize) -> Option<u64> {
    i.is_multiple_of(SAMPLE_EVERY).then_some(i as u64)
}

/// One recorded interval.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

/// What the trace knows about one layer.
#[derive(Default)]
pub(crate) struct Layer {
    /// Ops recorded (phases are not calls).
    pub(crate) calls: u64,
    /// Summed op durations: work done, across threads for parallel ops.
    pub(crate) busy_ns: u64,
    /// Wall time attributed to the layer and to no child of it.
    pub(crate) self_ns: u64,
    /// Allocator calls inside serial ops (0 without `count-allocs`), and
    /// how many ops counted them (parallel ops cannot).
    allocs: u64,
    counted: u64,
    /// Per-op durations, for percentiles.
    samples_ns: Vec<f64>,
}

impl Layer {
    pub(crate) fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    /// The `q`-quantile of the op durations in µs (the largest op when the
    /// sample cannot support the tail).
    pub(crate) fn op_us(&self, q: f64) -> f64 {
        stats::tail(&stats::sorted(self.samples_ns.clone()), q) / 1e3
    }
}

/// A span recorder and per-layer aggregator.
pub(crate) struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open phases: span index and the time their children covered.
    open: Vec<(usize, u64)>,
    layers: BTreeMap<&'static str, Layer>,
}

#[cfg(feature = "count-allocs")]
fn alloc_calls() -> u64 {
    peercache_bench::alloc_count::alloc_calls()
}

#[cfg(not(feature = "count-allocs"))]
fn alloc_calls() -> u64 {
    0
}

impl Tracer {
    pub(crate) fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a phase span named `name`. The phase's self time is
    /// whatever its child phases and ops leave uncovered.
    pub(crate) fn phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start = self.offset_ns(Instant::now());
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().map(|&(i, _)| i),
            request: None,
        });
        self.open.push((index, 0));
        let out = f(self);
        let end = self.offset_ns(Instant::now());
        let (_, covered) = self.open.pop().expect("the phase opened above");
        self.spans[index].end_ns = end;
        let duration = end - start;
        self.layers.entry(name).or_default().self_ns += duration.saturating_sub(covered);
        if let Some((_, parent_covered)) = self.open.last_mut() {
            *parent_covered += duration;
        }
        out
    }

    /// Time one call into layer `name`. A `request` id also keeps a span
    /// for the timeline (the fixed sample of per-lookup spans).
    pub(crate) fn op<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let allocs_before = alloc_calls();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let allocs = alloc_calls() - allocs_before;
        let duration = end.duration_since(start).as_nanos() as u64;
        let layer = self.layers.entry(name).or_default();
        layer.calls += 1;
        layer.busy_ns += duration;
        layer.self_ns += duration;
        layer.allocs += allocs;
        layer.counted += 1;
        layer.samples_ns.push(duration as f64);
        if let Some((_, covered)) = self.open.last_mut() {
            *covered += duration;
        }
        if request.is_some() {
            let (start_ns, end_ns) = (self.offset_ns(start), self.offset_ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().map(|&(i, _)| i),
                request,
            });
        }
        out
    }

    /// Record calls into layer `name` that ran in parallel inside the open
    /// phase, timed by their workers. They add work (busy time) and
    /// samples; the enclosing phase carries their wall time.
    pub(crate) fn parallel_ops(&mut self, name: &'static str, durations_ns: &[u64]) {
        let layer = self.layers.entry(name).or_default();
        layer.calls += durations_ns.len() as u64;
        layer.busy_ns += durations_ns.iter().sum::<u64>();
        layer
            .samples_ns
            .extend(durations_ns.iter().map(|&d| d as f64));
    }

    /// The statistics of layer `name` (empty if never entered).
    pub(crate) fn layer(&self, name: &str) -> &Layer {
        static EMPTY: Layer = Layer {
            calls: 0,
            busy_ns: 0,
            self_ns: 0,
            allocs: 0,
            counted: 0,
            samples_ns: Vec::new(),
        };
        self.layers.get(name).unwrap_or(&EMPTY)
    }

    /// Summed self time of every layer except `unattributed` (the root
    /// phases, whose self time is the part no layer accounts for).
    pub(crate) fn attributed_ns(&self, unattributed: &[&str]) -> u64 {
        self.layers
            .iter()
            .filter(|(name, _)| !unattributed.contains(name))
            .map(|(_, layer)| layer.self_ns)
            .sum()
    }

    /// Wall time of the root phases named `roots`.
    pub(crate) fn root_ns(&self, roots: &[&str]) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && roots.contains(&s.name))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Print each layer's calls, busy and self milliseconds.
    pub(crate) fn print_summary(&self, workload: &str) {
        println!("trace summary ({workload}):");
        println!(
            "  {:<24} {:>9} {:>11} {:>11} {:>12}",
            "layer", "calls", "busy_ms", "self_ms", "allocs/call"
        );
        for (name, layer) in &self.layers {
            let allocs = if cfg!(feature = "count-allocs") && layer.counted > 0 {
                format!("{:.2}", layer.allocs as f64 / layer.counted as f64)
            } else {
                "-".to_string()
            };
            println!(
                "  {name:<24} {:>9} {:>11.3} {:>11.3} {allocs:>12}",
                layer.calls,
                layer.busy_ns as f64 / 1e6,
                layer.self_ms()
            );
        }
    }

    /// Write every span as one JSON object per line.
    pub(crate) fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                opt(span.parent.map(|p| p as u64)),
                opt(span.request)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new();
        t.phase("root", |t| {
            t.op("leaf", Some(1), || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            t.phase("inner", |t| {
                t.op("leaf", None, || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            });
        });
        let root = t.root_ns(&["root"]);
        let total = t.attributed_ns(&[]);
        assert_eq!(total, root, "self times add up to the root's wall");
        assert_eq!(t.layer("leaf").calls, 2);
        assert!(t.layer("leaf").busy_ns >= 3_000_000);
        assert!(t.attributed_ns(&["root", "inner"]) == t.layer("leaf").self_ns);
    }
}
