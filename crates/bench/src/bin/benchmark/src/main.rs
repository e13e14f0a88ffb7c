//! The repository benchmark: four lookup workloads, measured end to end
//! with tracing off, plus a traced run that splits each one by layer.
//!
//! ```text
//! benchmark [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//!           [--threads N] [--smoke] [--runs N] [--label NAME]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` (correctness checks that failed) and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. Without
//! it, every workload runs in a fresh child process, so `peak_rss_mb`
//! belongs to that workload alone. `--runs N` repeats that over seeds
//! `S .. S+N-1` and prints each metric's median and interquartile range
//! (also written to `out/benchmark_<label>.json`). See README.md.

mod config;
mod registry;
mod stats;
mod trace;
mod traced;
mod untraced;
mod world;

use std::path::PathBuf;
use std::process::Command;

use peercache_bench::json::Json;

use registry::{describe, unit_of, Workload};
use untraced::Params;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed S] [--seconds N] \
                     [--trace 0|1] [--threads N] [--smoke] [--runs N] [--label NAME]";

/// The worker-pool width every run pins (the set-up's aware selection
/// fans out over it; lookups run on one client thread).
const DEFAULT_THREADS: usize = 2;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    smoke: bool,
    runs: Option<usize>,
    label: String,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        threads: DEFAULT_THREADS,
        smoke: false,
        runs: None,
        label: "local".to_string(),
    };
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        v.as_deref()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name: String = value(&arg, args.next())?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value(&arg, args.next())?,
            "--seconds" => parsed.seconds = value(&arg, args.next())?,
            "--trace" => {
                parsed.trace = match value::<u8>(&arg, args.next())? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--threads" => parsed.threads = value(&arg, args.next())?,
            "--smoke" => parsed.smoke = true,
            "--runs" => parsed.runs = Some(value(&arg, args.next())?),
            "--label" => parsed.label = value(&arg, args.next())?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.threads == 0
        || parsed.runs == Some(0)
        || parsed.seconds.is_nan()
        || parsed.seconds < 0.0
    {
        return Err("--threads and --runs take positive counts, --seconds a duration".to_string());
    }
    Ok(parsed)
}

/// One workload's result, as printed on the last line.
struct Report {
    attempted: u64,
    checks: Vec<untraced::Check>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = unit_of(name).expect("every reported metric is registered");
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.checks.iter().filter(|(_, ok)| !ok).count(),
            metrics.join(",")
        )
    }
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one workload in this process: the measured run, then with `trace`
/// the traced run, whose per-layer metrics replace the end-to-end ones.
fn run_workload(workload: Workload, params: &Params, trace: bool) -> Report {
    let outcome = untraced::run(workload, params);
    let mut report = Report {
        attempted: outcome.attempted,
        checks: outcome.checks.clone(),
        metrics: outcome.metrics.clone(),
    };
    if !trace {
        report.metrics.push(("peak_rss_mb", peak_rss_mb()));
    } else {
        let traced = traced::run(workload, params, &outcome);
        traced.tracer.print_summary(workload.name());
        println!(
            "  untraced reference: setup {:.4} s + pass {:.4} s",
            outcome.setup_s, outcome.pass_s
        );
        let path = params.out.join(format!("trace_{}.jsonl", workload.name()));
        traced
            .tracer
            .write_jsonl(&path)
            .expect("write the trace file");
        println!("(spans written to {})", path.display());
        report.attempted += traced.attempted;
        report.checks.extend(traced.checks);
        report.metrics = traced.metrics;
    }
    let finite = report.metrics.iter().all(|(_, v)| v.is_finite());
    report
        .checks
        .push(("every metric is a finite number".to_string(), finite));
    println!(
        "{}: {} rounds, pool width {}, {} cores",
        workload.name(),
        outcome.rounds,
        peercache_par::threads(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    for (name, ok) in &report.checks {
        println!("  check {:<4} {name}", if *ok { "ok" } else { "FAIL" });
    }
    for &(name, value) in &report.metrics {
        let unit = unit_of(name).unwrap_or("");
        println!("  {name:<28} {value:>16.4} {unit:<9} {}", describe(name));
    }
    report
}

/// Run `workload` in a fresh child process and parse its result line.
fn run_child(args: &Args, workload: Workload, seed: u64, echo: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
        "--threads",
        &args.threads.to_string(),
    ]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let json =
        Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} failed ({})", workload.name(), output.status));
    }
    Ok(json)
}

/// `(name, value, unit)` triples of a result line's metrics.
fn metrics_of(json: &Json) -> Vec<(String, f64, String)> {
    let Some(Json::Object(fields)) = json.get("metrics") else {
        return Vec::new();
    };
    fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect()
}

fn selected(args: &Args) -> Vec<Workload> {
    args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

/// Every workload once, each in a fresh process; one combined result
/// line whose metric names are `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<(), String> {
    let mut attempted = 0;
    let mut failed = 0;
    let mut correct = true;
    let mut metrics = Vec::new();
    for workload in selected(args) {
        let json = run_child(args, workload, args.seed, true)?;
        let count = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        correct &= json.get("correct").and_then(Json::as_bool) == Some(true);
        for (name, value, unit) in metrics_of(&json) {
            metrics.push(format!(
                "\"{}.{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
                workload.name()
            ));
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    Ok(())
}

/// `--runs N`: every selected workload N times over consecutive seeds,
/// each run a fresh process; prints median and interquartile range.
fn run_repeated(args: &Args, runs: usize) -> Result<(), String> {
    // (workload, metric, unit) -> values in run order
    let mut table: Vec<(Workload, String, String, Vec<f64>)> = Vec::new();
    for run in 0..runs {
        let seed = args.seed + run as u64;
        for workload in selected(args) {
            eprintln!("run {}/{runs}: {} seed {seed}", run + 1, workload.name());
            let json = run_child(args, workload, seed, false)?;
            if json.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{} seed {seed}: a correctness check failed",
                    workload.name()
                ));
            }
            for (name, value, unit) in metrics_of(&json) {
                match table
                    .iter_mut()
                    .find(|(w, n, _, _)| *w == workload && *n == name)
                {
                    Some(row) => row.3.push(value),
                    None => table.push((workload, name, unit, vec![value])),
                }
            }
        }
    }
    println!(
        "{:<16} {:<28} {:>16} {:>16} {:>8}  unit",
        "workload", "metric", "median", "iqr", "iqr/med"
    );
    let mut rows = Vec::new();
    for (workload, name, unit, values) in &table {
        let median = stats::median(values);
        let (q1, q3) = stats::quartiles(values);
        let share = (q3 - q1) / median.abs();
        println!(
            "{:<16} {name:<28} {median:>16.6} {:>16.6} {:>7.2}%  {unit}",
            workload.name(),
            q3 - q1,
            100.0 * share
        );
        let list: Vec<String> = values.iter().map(f64::to_string).collect();
        rows.push(format!(
            "{{\"workload\":\"{}\",\"metric\":\"{name}\",\"unit\":\"{unit}\",\"median\":{median},\
             \"q1\":{q1},\"q3\":{q3},\"values\":[{}]}}",
            workload.name(),
            list.join(",")
        ));
    }
    std::fs::create_dir_all("out").map_err(|e| format!("create out/: {e}"))?;
    let path = format!("out/benchmark_{}.json", args.label);
    let body = format!(
        "{{\"label\":\"{}\",\"runs\":{runs},\"first_seed\":{},\"trace\":{},\"threads\":{},\
         \"rows\":[{}]}}\n",
        args.label,
        args.seed,
        args.trace,
        args.threads,
        rows.join(",")
    );
    std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))?;
    println!("(written to {path})");
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    peercache_par::set_threads(args.threads);
    let result = match (args.runs, args.workload) {
        (Some(runs), _) => run_repeated(&args, runs),
        (None, None) => run_all(&args),
        (None, Some(workload)) => {
            let params = Params {
                seed: args.seed,
                seconds: args.seconds,
                size: if args.smoke {
                    config::Size::smoke()
                } else {
                    config::Size::full()
                },
                out: PathBuf::from("out"),
            };
            std::fs::create_dir_all(&params.out).expect("create out/");
            let report = run_workload(workload, &params, args.trace);
            println!("{}", report.json());
            if report.correct() {
                Ok(())
            } else {
                Err(format!("{}: a correctness check failed", workload.name()))
            }
        }
    };
    if let Err(e) = result {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::{END_TO_END, LAYERS};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_matches_the_registry_and_the_schema_limits() {
        let doc = benchmark_json();
        let Json::Object(fields) = &doc else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert!((2..=8).contains(&workloads.len()));
        let listed: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, known);
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let e2e = names(&doc, "end_to_end");
        assert!((1..=16).contains(&e2e.len()));
        let registered: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(e2e, registered);
        for m in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        assert!(e2e.contains(&("setup_s".into(), "s".into(), "lower".into())));

        let layers = names(&doc, "per_layer");
        assert!((1..=128).contains(&layers.len()));
        let registered: Vec<(String, String, String)> = LAYERS
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(layers, registered);

        for (name, unit, _) in e2e.iter().chain(&layers) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        let mut all: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _, _)| n).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layers.len(), "names are unique");

        // Every layer metric says which end-to-end metric it should move,
        // and on which workloads; only the trace's own checks move none.
        for layer in LAYERS {
            match layer.moves {
                Some((metric, on)) => {
                    assert!(
                        END_TO_END.iter().any(|m| m.name == metric),
                        "{}",
                        layer.name
                    );
                    assert!(!on.is_empty(), "{}", layer.name);
                }
                None => assert!(layer.name.starts_with("trace."), "{}", layer.name),
            }
        }

        let paths = doc.get("paths").and_then(Json::as_array).unwrap();
        let here = "crates/bench/src/bin/benchmark";
        assert!(paths.iter().any(|p| p.as_str() == Some(here)));
    }

    #[test]
    fn smoke_runs_emit_every_metric_quickly() {
        let out = std::env::temp_dir().join(format!("peercache-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        let params = Params {
            seed: 3,
            seconds: 0.0,
            size: config::Size::smoke(),
            out: out.clone(),
        };
        let doc = benchmark_json();
        let start = std::time::Instant::now();
        for workload in Workload::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let report = run_workload(workload, &params, trace);
                assert!(report.correct(), "{}: {:?}", workload.name(), report.checks);
                let emitted: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|&(n, _)| (n.to_string(), unit_of(n).unwrap().to_string()))
                    .collect();
                let named: Vec<(String, String)> = names(&doc, key)
                    .into_iter()
                    .map(|(n, u, _)| (n, u))
                    .collect();
                assert_eq!(emitted, named, "{} trace={trace}", workload.name());
                let line = Json::parse(&report.json()).expect("the result line is JSON");
                assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&out).ok();
        assert!(elapsed < 5.0, "smoke took {elapsed:.1} s");
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload churn_chord --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::ChurnChord));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--threads 0").is_err());
        assert!(parse("--bogus").is_err());
    }
}
