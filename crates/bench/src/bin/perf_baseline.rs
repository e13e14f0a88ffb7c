//! The machine-readable performance baseline: time the hot kernels with
//! warmup + median-of-N and emit `out/BENCH_<label>.json`, the first
//! point of the perf trajectory CI gates against.
//!
//! Kernels:
//!
//! * the fast Chord DP through a reused [`ChordWorkspace`] (the
//!   steady-state repeated-solve path, printed with its exact work
//!   counts: oracle-build pointer steps and `s(j, m)` queries) vs the
//!   naive `O(n²k)` reference, plus the oracle+DP phase alone via
//!   [`PreparedChord`];
//! * the greedy Pastry trie DP through a reused [`PastryWorkspace`] and
//!   the exact per-row DP;
//! * Space-Saving stream updates;
//! * the churn driver's recompute tick: the full and the incremental
//!   Pastry ticks at the fig-4 operating point, and the incremental
//!   Chord tick at the benchmark's `churn_chord` operating point;
//! * the hot Pastry world's serial set-up layers, per node and
//!   informational: the frequency-oblivious baseline draw as the stable
//!   set-up runs it, and the Pastry network build;
//! * the per-lookup routing layer, one informational kernel per
//!   substrate: a fixed query stream through
//!   `SimOverlay::query_with_aux` over the stable driver's aware sets;
//! * end-to-end `fig3` at `--quick` scale serially and over the pool
//!   (paper scale too without `--quick`), reporting speedup-vs-serial.
//!
//! Raw `ns_per_op` is machine-dependent, so the gate compares **units**:
//! each kernel's time divided by the time of a fixed SplitMix64 mixing
//! loop measured on the same machine in the same run. Units move far less
//! across hosts than nanoseconds do; the `--baseline` mode fails when any
//! gated kernel's units regress beyond the tolerance (default 25 %).
//!
//! Built with `--features count-allocs`, each workspace kernel also
//! reports `alloc_per_op` — allocator calls per steady-state solve,
//! measured by the counting global allocator — and the run **fails** if a
//! workspace kernel allocates at all: the zero-alloc contract is a hard
//! gate, not a statistic. Without the feature the field is `null`.
//!
//! The same build also fills the report's `memory` section: peak
//! live-heap bytes-per-node gauges for the monolithic stable driver and
//! the scale engine (informational — the CI memory ceiling is
//! gated by `fig3_scale --max-bytes-per-node`, not here).
//!
//! ```text
//! perf_baseline [--quick] [--label NAME] [--threads N]
//!               [--baseline PATH] [--tolerance PCT]
//!               [--require-speedup MIN]
//! ```
//!
//! `--require-speedup MIN` fails the run when any parallel end-to-end
//! kernel's speedup-vs-serial falls below `MIN` — the CI guard that the
//! pool actually wins on a multi-core runner.
//!
//! To refresh the committed baseline:
//! `cargo run --release -p peercache-bench --features count-allocs --bin
//! perf_baseline -- --quick --label baseline &&
//! cp out/BENCH_baseline.json .`

use std::time::Instant;

use peercache_bench::json::Json;
use peercache_bench::{random_chord_problem, random_pastry_problem};
use peercache_core::chord::{select_fast, select_naive, ChordWorkspace, PreparedChord};
use peercache_core::pastry::{select_dp, select_greedy, PastryWorkspace};
use peercache_freq::{FrequencyEstimator, SpaceSaving};
use peercache_id::{Id, IdSpace};
use peercache_par::with_threads;
use peercache_pastry::{PastryConfig, PastryNetwork, RoutingMode};
use peercache_sim::{
    fault_matrix_multi, fig3, ChurnConfig, ChurnRecomputeBench, FaultMatrixConfig, OverlayKind,
    RankingMode, RuntimeFixture, Scale, SelectionBench, StableConfig,
};
use peercache_workload::{random_ids, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct KernelReport {
    kernel: String,
    config: String,
    ns_per_op: f64,
    /// ns_per_op divided by the calibration loop's ns-per-mix: the
    /// machine-normalised figure the regression gate compares.
    units: f64,
    ops_per_iter: u64,
    samples: usize,
    threads: usize,
    speedup_vs_serial: Option<f64>,
    /// Allocator calls per steady-state op, from the `count-allocs`
    /// counting allocator. `null` when the feature is off or the kernel
    /// is not alloc-instrumented; workspace kernels must report 0.
    alloc_per_op: Option<f64>,
    /// Whether the regression gate applies (end-to-end wall-clock kernels
    /// are informational: too load-sensitive to gate in CI).
    gated: bool,
}

/// One live-heap high-water measurement from the counting allocator:
/// the peak footprint of a named simulation region divided by its
/// population. Informational (never gated on units — heap layout is a
/// property of the build, not the host), present only under
/// `count-allocs`.
#[derive(Serialize)]
struct MemoryGauge {
    region: String,
    nodes: usize,
    peak_bytes: u64,
    bytes_per_node: f64,
}

#[derive(Serialize)]
struct BenchReport {
    label: String,
    quick: bool,
    threads: usize,
    /// The host's core count, so pool-width results read in context.
    available_parallelism: usize,
    calibration_ns_per_mix: f64,
    kernels: Vec<KernelReport>,
    /// Bytes-per-node gauges (empty without `count-allocs`).
    memory: Vec<MemoryGauge>,
}

struct Profile {
    quick: bool,
    /// Median-of-N samples for the micro kernels.
    samples: usize,
    warmup: usize,
    /// Samples for the end-to-end figure kernels.
    e2e_samples: usize,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Median ns per call of `f` over `samples` timed runs after `warmup`
/// untimed ones.
fn time_median<F: FnMut()>(samples: usize, warmup: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_nanos() as f64);
    }
    median(times)
}

/// Time the fixed reference workload: a SplitMix64-style mixing loop.
/// Returns ns per mix. Every kernel's `units` figure is its ns/op divided
/// by this, which cancels most of the host's single-core speed.
fn calibrate() -> f64 {
    const MIXES: u64 = 1 << 22;
    let ns = time_median(5, 1, || {
        let mut acc = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..MIXES {
            let mut z = acc.wrapping_add(i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc = z ^ (z >> 31);
        }
        // The accumulator escapes through a volatile-ish sink so the loop
        // cannot be folded away.
        std::hint::black_box(acc);
    });
    ns / MIXES as f64
}

/// Steady-state allocator calls per op of `f` under the counting
/// allocator: one untimed call absorbs any remaining one-time growth,
/// then a counted call measures the repeat-solve behaviour.
#[cfg(feature = "count-allocs")]
fn allocs_per_op<F: FnMut()>(ops: u64, mut f: F) -> Option<f64> {
    use peercache_bench::alloc_count::alloc_calls;
    f();
    let before = alloc_calls();
    f();
    Some((alloc_calls() - before) as f64 / ops as f64)
}

#[cfg(not(feature = "count-allocs"))]
fn allocs_per_op<F: FnMut()>(_ops: u64, _f: F) -> Option<f64> {
    None
}

/// The zero-alloc hard gate for workspace kernels (a no-op without
/// `count-allocs`, where nothing was measured).
fn require_zero_alloc(name: &str, alloc_per_op: Option<f64>) {
    if let Some(calls) = alloc_per_op {
        assert!(
            calls == 0.0,
            "{name} made {calls} allocator calls per steady-state solve; \
             the workspace contract is zero"
        );
    }
}

struct Args {
    profile: Profile,
    label: String,
    baseline: Option<String>,
    tolerance: f64,
    require_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut label = "local".to_string();
    let mut baseline = None;
    let mut tolerance = 25.0;
    let mut require_speedup = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--label" => label = args.next().expect("--label takes a name"),
            "--threads" => {
                let n: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--threads takes a positive integer");
                peercache_par::set_threads(n);
            }
            "--baseline" => baseline = Some(args.next().expect("--baseline takes a path")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &f64| t > 0.0)
                    .expect("--tolerance takes a positive percentage");
            }
            "--require-speedup" => {
                require_speedup = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&m: &f64| m > 0.0)
                        .expect("--require-speedup takes a positive ratio"),
                );
            }
            other => panic!(
                "unknown argument {other}; usage: [--quick] [--label NAME] \
                 [--threads N] [--baseline PATH] [--tolerance PCT] \
                 [--require-speedup MIN]"
            ),
        }
    }
    let profile = if quick {
        Profile {
            quick,
            samples: 9,
            warmup: 2,
            e2e_samples: 3,
        }
    } else {
        Profile {
            quick,
            samples: 9,
            warmup: 2,
            e2e_samples: 1,
        }
    };
    Args {
        profile,
        label,
        baseline,
        tolerance,
        require_speedup,
    }
}

/// A row recorder for single-kernel reports: each call prints the row
/// and records its report, gated or not. `ns_total` is the median time
/// of `ops` operations on `threads` workers.
fn kernel_rows<'a>(
    profile: &'a Profile,
    calib: f64,
    kernels: &'a mut Vec<KernelReport>,
    gated: bool,
) -> impl FnMut(&str, &str, u64, usize, f64, Option<f64>) + 'a {
    move |name, config, ops, threads, ns_total, alloc| {
        let ns_per_op = ns_total / ops as f64;
        let alloc_note = alloc.map_or(String::new(), |a| format!("  ({a:.1} allocs/op)"));
        println!(
            "  {name:<24} {config:<28} {ns_per_op:>14.1} ns/op {:>12.2} units{alloc_note}",
            ns_per_op / calib
        );
        kernels.push(KernelReport {
            kernel: name.to_string(),
            config: config.to_string(),
            ns_per_op,
            units: ns_per_op / calib,
            ops_per_iter: ops,
            samples: profile.samples,
            threads,
            speedup_vs_serial: None,
            alloc_per_op: alloc,
            gated,
        });
    }
}

fn micro_kernels(profile: &Profile, calib: f64, kernels: &mut Vec<KernelReport>) {
    // Each row records the worker width that *actually ran* the kernel —
    // plumbed per call site, never assumed. A previous revision hardcoded
    // `threads: 1` here, which silently mislabelled any kernel that
    // touched the pool.
    let mut push = kernel_rows(profile, calib, kernels, true);

    // Solver kernel sizes are identical in --quick and full runs so the
    // kernel names line up with the committed --quick baseline.
    //
    // The two headline solver kernels time the steady-state repeated-solve
    // path — a warmed workspace driven through `solve_into` — because that
    // is what the sim drivers run in their inner loops. The one-shot
    // wrappers are this plus one workspace construction.
    let big = random_chord_problem(1024, 10, 1.2, 11);
    let mut chord_ws = ChordWorkspace::new();
    std::hint::black_box(chord_ws.solve_into(&big).expect("solvable"));
    let ns = time_median(profile.samples, profile.warmup, || {
        std::hint::black_box(chord_ws.solve_into(&big).expect("solvable"));
    });
    let alloc = allocs_per_op(1, || {
        std::hint::black_box(chord_ws.solve_into(&big).expect("solvable"));
    });
    require_zero_alloc("chord_fast_dp", alloc);
    push("chord_fast_dp", "n=1024 k=10 alpha=1.2", 1, 1, ns, alloc);
    // The same solve's exact work counts: integers, so unlike the units
    // they read the same on every host.
    let work = chord_ws.work();
    println!(
        "  {:<24} {:<28} {:>14} oracle steps {:>10} s(j, m) queries",
        "chord_fast_dp work", "per solve", work.oracle_steps, work.segment_queries
    );

    let prepared = PreparedChord::new(&big).expect("well-formed");
    push(
        "chord_oracle_dp_phase",
        "n=1024 k=10 (rebase hoisted)",
        1,
        1,
        time_median(profile.samples, profile.warmup, || {
            std::hint::black_box(prepared.solve(10).expect("solvable"));
        }),
        None,
    );

    let small = random_chord_problem(256, 8, 1.2, 11);
    // Cross-check while we're here: the two solvers must agree on cost.
    let fast_cost = select_fast(&small).expect("solvable").cost;
    let naive_cost = select_naive(&small).expect("solvable").cost;
    assert!(
        (fast_cost - naive_cost).abs() < 1e-6,
        "fast ({fast_cost}) and naive ({naive_cost}) solvers disagree"
    );
    push(
        "chord_naive_dp",
        "n=256 k=8 alpha=1.2",
        1,
        1,
        time_median(profile.samples, profile.warmup, || {
            std::hint::black_box(select_naive(&small).expect("solvable"));
        }),
        None,
    );

    let pastry_big = random_pastry_problem(1024, 10, 1.2, 11);
    // Same cross-check on the Pastry side: the workspace path must cost
    // the same as the one-shot greedy it wraps.
    let mut pastry_ws = PastryWorkspace::new();
    let ws_cost = pastry_ws.solve_into(&pastry_big).expect("solvable").cost;
    let oneshot_cost = select_greedy(&pastry_big).expect("solvable").cost;
    assert!(
        (ws_cost - oneshot_cost).abs() < 1e-6,
        "workspace ({ws_cost}) and one-shot ({oneshot_cost}) greedy disagree"
    );
    let ns = time_median(profile.samples, profile.warmup, || {
        std::hint::black_box(pastry_ws.solve_into(&pastry_big).expect("solvable"));
    });
    let alloc = allocs_per_op(1, || {
        std::hint::black_box(pastry_ws.solve_into(&pastry_big).expect("solvable"));
    });
    require_zero_alloc("pastry_greedy_dp", alloc);
    push("pastry_greedy_dp", "n=1024 k=10 alpha=1.2", 1, 1, ns, alloc);

    let pastry_small = random_pastry_problem(256, 8, 1.2, 11);
    push(
        "pastry_exact_dp",
        "n=256 k=8 alpha=1.2",
        1,
        1,
        time_median(profile.samples, profile.warmup, || {
            std::hint::black_box(select_dp(&pastry_small).expect("solvable"));
        }),
        None,
    );

    // Space-Saving: one summary consuming a pre-generated Zipf stream of
    // owner observations (the churn driver's estimator hot path).
    const STREAM: usize = 100_000;
    let mut rng = StdRng::seed_from_u64(13);
    let peers = random_ids(peercache_id::IdSpace::paper(), 1024, &mut rng);
    let zipf = Zipf::new(peers.len(), 1.2).expect("valid Zipf");
    let stream: Vec<Id> = (0..STREAM).map(|_| peers[zipf.sample(&mut rng)]).collect();
    push(
        "space_saving_update",
        "capacity=64 stream=100k zipf1.2",
        STREAM as u64,
        1,
        time_median(profile.samples, profile.warmup, || {
            let mut top = SpaceSaving::new(64);
            for &p in &stream {
                top.observe(p);
            }
            std::hint::black_box(top.observations());
        }),
        None,
    );
}

/// The serial layers of the hot world's set-up (Pastry b = 1,
/// n = 2048, fig3's largest point and the benchmark's `hot_pastry`),
/// per node: the frequency-oblivious draw over every node on one
/// `seed + 3` stream, as `build_stable` runs it, and the Pastry network
/// build. Each sample repeats the same work. Both allocate what they
/// return (a set per node, a table per node), so allocs/op is reported,
/// not held to zero, and both are informational (ungated).
fn setup_kernels(profile: &Profile, calib: f64, kernels: &mut Vec<KernelReport>) {
    let hot = StableConfig::paper_defaults(
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        2048,
        1,
    );
    let nodes = hot.nodes as u64;
    let bench = SelectionBench::new(&hot);
    let mut draw = || {
        std::hint::black_box(bench.oblivious());
    };
    let draw_ns = time_median(profile.samples, profile.warmup, &mut draw);
    let draw_alloc = allocs_per_op(nodes, &mut draw);

    let space = IdSpace::paper();
    let ids = random_ids(space, hot.nodes, &mut StdRng::seed_from_u64(hot.seed));
    let mut build = || {
        let mut rng = StdRng::seed_from_u64(hot.seed);
        std::hint::black_box(PastryNetwork::build(
            PastryConfig::new(space, 1),
            &ids,
            &mut rng,
        ));
    };
    let build_ns = time_median(profile.samples, profile.warmup, &mut build);
    let build_alloc = allocs_per_op(nodes, &mut build);

    let mut push = kernel_rows(profile, calib, kernels, false);
    push(
        "baseline_oblivious_uniform",
        "pastry b=1 n=2048 k=11, every node",
        nodes,
        1,
        draw_ns,
        draw_alloc,
    );
    push(
        "pastry_build",
        "pastry b=1 n=2048",
        nodes,
        1,
        build_ns,
        build_alloc,
    );
}

/// The routing layer per substrate, per lookup: the stable driver's
/// world through `RuntimeFixture` (topology, aware sets, query stream),
/// then the first `ROUTED` queries of its stream routed read-only
/// through `SimOverlay::query_with_aux`, each node's aux set found by a
/// binary search of the aware table sorted by node. Worlds: the hot
/// Pastry world (b = 1, locality-aware, n = 2048, the benchmark's
/// `hot_pastry`), the wide Chord world (n = 1024, 2048 items, α = 0.91,
/// five rankings, k = 10, the benchmark's `wide_chord`), and Tapestry
/// (d = 1) and the skip graph at n = 1024. Informational (ungated): the
/// walk still allocates its route trace, so allocs/lookup is reported,
/// not held to zero.
fn route_kernels(profile: &Profile, calib: f64, kernels: &mut Vec<KernelReport>) {
    const ROUTED: usize = 20_000;
    let mut wide = StableConfig::paper_defaults(OverlayKind::Chord, 1024, 1);
    wide.items = 2048;
    wide.alpha = 0.91;
    wide.ranking = RankingMode::Pool(5);
    wide.k = 10;
    let worlds = [
        (
            "route_pastry",
            "hot: pastry b=1 n=2048 k=11",
            StableConfig::paper_defaults(
                OverlayKind::Pastry {
                    digit_bits: 1,
                    mode: RoutingMode::LocalityAware,
                },
                2048,
                1,
            ),
        ),
        ("route_chord", "wide: chord n=1024 k=10", wide),
        (
            "route_tapestry",
            "tapestry d=1 n=1024 k=10",
            StableConfig::paper_defaults(OverlayKind::Tapestry { digit_bits: 1 }, 1024, 1),
        ),
        (
            "route_skipgraph",
            "skip graph n=1024 k=10",
            StableConfig::paper_defaults(OverlayKind::SkipGraph, 1024, 1),
        ),
    ];
    let mut rows = Vec::new();
    for (name, config_label, mut config) in worlds {
        config.queries = ROUTED;
        let fixture = RuntimeFixture::build(&config);
        let queries: Vec<(Id, Id)> = fixture.queries().collect();
        let mut aware = fixture.aware_table();
        aware.sort_by_key(|&(node, _)| node);
        let aux_of = |id: Id| {
            aware
                .binary_search_by_key(&id, |&(node, _)| node)
                .map_or(&[][..], |at| aware[at].1.as_slice())
        };
        let overlay = fixture.overlay();
        let mut route = || {
            for &(from, key) in &queries {
                std::hint::black_box(overlay.query_with_aux(from, key, aux_of));
            }
        };
        let ns = time_median(profile.samples, profile.warmup, &mut route);
        let alloc = allocs_per_op(queries.len() as u64, &mut route);
        rows.push((name, config_label, queries.len() as u64, ns, alloc));
    }
    let mut push = kernel_rows(profile, calib, kernels, false);
    for (name, config_label, lookups, ns, alloc) in rows {
        push(name, config_label, lookups, 1, ns, alloc);
    }
}

/// The full and the incremental recompute benches at `config`, after
/// the parity cross-check: three ticks in which the two paths must
/// install identical selections.
fn churn_bench_pair(
    config: &ChurnConfig,
    queries_per_tick: usize,
) -> (ChurnRecomputeBench, ChurnRecomputeBench) {
    let mut full = ChurnRecomputeBench::new(config, queries_per_tick);
    let mut incremental = ChurnRecomputeBench::new(config, queries_per_tick);
    for tick in 0..3 {
        let (a, b) = (full.tick_full(), incremental.tick_incremental());
        assert_eq!(
            a, b,
            "{:?}: full and incremental recompute diverged at warmup tick {tick}",
            config.kind
        );
    }
    (full, incremental)
}

/// The churn recompute-tick pair at the fig-4 operating point (Pastry,
/// `n = 1024`, `k = 10`, Zipf 1.2, 250 queries/tick): one tick of the
/// pre-refactor full path — snapshot every counter, re-solve every
/// node — against one tick of the retained incremental engine, which
/// re-solves only dirtied nodes and applies counter deltas to a live
/// optimizer. Both kernels run at a fixed size regardless of `--quick`
/// so the names line up with the committed baseline, and both fold
/// their installed selections into a checksum that must agree — the
/// in-bench restatement of the bit-identity contract the differential
/// tests pin. The incremental tick is also held to the zero-alloc
/// workspace contract.
///
/// `churn_recompute_chord` is the incremental tick at the benchmark's
/// `churn_chord` operating point (Chord, `n = 1024`, paper defaults,
/// 250 queries/tick), after the same parity check: there the dirty
/// nodes re-solve through the Chord DP, or take their whole pool when
/// `k` covers it, through the refresh engine's scratch buffers, so it
/// is held to zero allocator calls too.
fn churn_kernels(profile: &Profile, calib: f64, kernels: &mut Vec<KernelReport>) {
    const QUERIES_PER_TICK: usize = 250;
    let mut pastry = ChurnConfig::paper_defaults(1024, 11);
    pastry.kind = OverlayKind::Pastry {
        digit_bits: 1,
        mode: RoutingMode::LocalityAware,
    };
    let (mut full, mut incremental) = churn_bench_pair(&pastry, QUERIES_PER_TICK);

    let full_ns = time_median(profile.samples, profile.warmup, || {
        std::hint::black_box(full.tick_full());
    });
    let inc_ns = time_median(profile.samples, profile.warmup, || {
        std::hint::black_box(incremental.tick_incremental());
    });
    let alloc = allocs_per_op(1, || {
        std::hint::black_box(incremental.tick_incremental());
    });
    require_zero_alloc("churn_recompute_incremental", alloc);

    let (_, mut chord) = churn_bench_pair(&ChurnConfig::paper_defaults(1024, 11), QUERIES_PER_TICK);
    let chord_ns = time_median(profile.samples, profile.warmup, || {
        std::hint::black_box(chord.tick_incremental());
    });
    let chord_alloc = allocs_per_op(1, || {
        std::hint::black_box(chord.tick_incremental());
    });
    require_zero_alloc("churn_recompute_chord", chord_alloc);

    let speedup = full_ns / inc_ns;
    for (name, substrate, ns, alloc, speedup) in [
        ("churn_recompute_full", "pastry", full_ns, None, None),
        (
            "churn_recompute_incremental",
            "pastry",
            inc_ns,
            alloc,
            Some(speedup),
        ),
        (
            "churn_recompute_chord",
            "chord",
            chord_ns,
            chord_alloc,
            None,
        ),
    ] {
        let note = speedup.map_or(String::new(), |s| format!("  ({s:.2}x vs full tick)"));
        println!(
            "  {name:<24} {:<28} {ns:>14.1} ns/op {:>12.2} units{note}",
            format!("{substrate} n=1024 k=10 q/tick=250"),
            ns / calib
        );
        kernels.push(KernelReport {
            kernel: name.to_string(),
            config: format!("churn recompute tick, {substrate} n=1024"),
            ns_per_op: ns,
            units: ns / calib,
            ops_per_iter: 1,
            samples: profile.samples,
            threads: 1,
            speedup_vs_serial: speedup,
            alloc_per_op: alloc,
            gated: true,
        });
    }
}

/// Sweep `par_map_chunked` chunk sizes over the aware-selection fan-out
/// that dominates fig3's stable builds (the `SELECT_CHUNK` knob in
/// `crates/sim/src/stable.rs`). The selected sets are identical at every
/// chunk size — only the dispatch economics move: small chunks buy pool
/// load-balance at the price of more task dispatches and more cold
/// `SelectScratch` warm-ups, large chunks the reverse. Informational
/// (ungated): the right value is host-dependent, and the sweep exists so
/// a retune is a measurement away instead of a guess.
fn chunk_sweep_kernels(profile: &Profile, calib: f64, kernels: &mut Vec<KernelReport>) {
    let pool_threads = peercache_par::threads();
    let par_threads = if pool_threads > 1 { pool_threads } else { 4 };
    // fig3's largest quick-scale point: Pastry at paper defaults.
    let config = StableConfig::paper_defaults(
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        256,
        1,
    );
    let bench = SelectionBench::new(&config);
    let committed = SelectionBench::committed_chunk();
    let (mut best_chunk, mut best_ns) = (0usize, f64::INFINITY);
    for &chunk in &[8usize, 16, 32, 64, 128] {
        let ns = time_median(profile.samples, 1, || {
            std::hint::black_box(with_threads(par_threads, || bench.run(chunk)));
        });
        if ns < best_ns {
            (best_chunk, best_ns) = (chunk, ns);
        }
        let marker = if chunk == committed {
            "  (committed)"
        } else {
            ""
        };
        println!(
            "  select_fanout_c{chunk:<9} {:<28} {ns:>14.1} ns/op {:>12.2} units{marker}",
            format!("n=256 k=8 threads={par_threads}"),
            ns / calib
        );
        kernels.push(KernelReport {
            kernel: format!("select_fanout_c{chunk}"),
            config: "aware fan-out, pastry n=256".to_string(),
            ns_per_op: ns,
            units: ns / calib,
            ops_per_iter: 1,
            samples: profile.samples,
            threads: par_threads,
            speedup_vs_serial: None,
            alloc_per_op: None,
            gated: false,
        });
    }
    println!(
        "  best chunk this host: {best_chunk} (committed SELECT_CHUNK = {committed}; \
         retune crates/sim/src/stable.rs if they persistently disagree)"
    );
}

fn e2e_kernels(profile: &Profile, calib: f64, kernels: &mut Vec<KernelReport>) {
    // The parallel leg must actually be parallel: on a single-core host
    // the process pool defaults to width 1, and timing that leg at width
    // 1 while labelling it "parallel" is how the baseline once recorded
    // `threads: 1` with a sub-1.0 "speedup". Oversubscribing 4 workers
    // onto one core still exercises the pool machinery honestly, and the
    // recorded thread count is the width that really ran.
    let pool_threads = peercache_par::threads();
    let par_threads = if pool_threads > 1 { pool_threads } else { 4 };
    let scales: &[(&str, Scale)] = if profile.quick {
        &[("fig3_quick", Scale::quick())]
    } else {
        &[
            ("fig3_quick", Scale::quick()),
            ("fig3_paper", Scale::paper()),
        ]
    };
    let mut pair = |name: &str, config: &str, run: &mut dyn FnMut()| {
        let serial = time_median(profile.e2e_samples, 0, || {
            with_threads(1, &mut *run);
        });
        let parallel = time_median(profile.e2e_samples, 0, || {
            with_threads(par_threads, &mut *run);
        });
        for (suffix, threads, ns, speedup) in [
            ("serial", 1, serial, None),
            ("parallel", par_threads, parallel, Some(serial / parallel)),
        ] {
            let kernel = format!("{name}_{suffix}");
            println!(
                "  {kernel:<24} {:<28} {ns:>14.1} ns/op {:>12.2} units{}",
                format!("threads={threads}"),
                ns / calib,
                speedup.map_or(String::new(), |s| format!("  ({s:.2}x vs serial)")),
            );
            kernels.push(KernelReport {
                kernel,
                config: config.to_string(),
                ns_per_op: ns,
                units: ns / calib,
                ops_per_iter: 1,
                samples: profile.e2e_samples,
                threads,
                speedup_vs_serial: speedup,
                alloc_per_op: None,
                gated: false,
            });
        }
    };
    for (name, scale) in scales {
        pair(name, "end-to-end figure sweep", &mut || {
            std::hint::black_box(fig3(scale, 1));
        });
    }
    // The flattened fault-matrix fan-out: four substrates × twelve cells
    // as one 48-job wave, the shape `fault_matrix_multi` dispatches.
    let matrix_configs: Vec<FaultMatrixConfig> = [
        OverlayKind::Chord,
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        OverlayKind::Tapestry { digit_bits: 1 },
        OverlayKind::SkipGraph,
    ]
    .into_iter()
    .map(|kind| {
        let mut stable = StableConfig::paper_defaults(kind, 64, 1);
        stable.items = Scale::quick().items;
        stable.queries = Scale::quick().queries;
        FaultMatrixConfig::paper_defaults(stable)
    })
    .collect();
    pair("fault_matrix_quick", "4 substrates x 12 cells", &mut || {
        std::hint::black_box(fault_matrix_multi(&matrix_configs));
    });
}

/// The bytes-per-node memory gauges: peak live-heap of the monolithic
/// stable driver against the scale engine at a population the
/// materialised path could never hold per-node state for. Query counts
/// are trimmed — the peak is set by topology and slabs, not routing.
#[cfg(feature = "count-allocs")]
fn memory_gauges() -> Vec<MemoryGauge> {
    use peercache_bench::alloc_count::{peak_bytes, reset_peak};
    use peercache_sim::{run_scale_stable, run_stable, ScaleConfig};

    let mut gauges = Vec::new();
    let mut gauge = |region: &str, nodes: usize, run: &mut dyn FnMut()| {
        reset_peak();
        run();
        let peak = peak_bytes();
        let bytes_per_node = peak as f64 / nodes as f64;
        println!("  {region:<24} n={nodes:<8} peak {peak:>12} B {bytes_per_node:>12.1} B/node");
        gauges.push(MemoryGauge {
            region: region.to_string(),
            nodes,
            peak_bytes: peak,
            bytes_per_node,
        });
    };

    let mut stable = StableConfig::paper_defaults(
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        1024,
        1,
    );
    stable.queries = 5_000;
    gauge("stable_monolithic", stable.nodes, &mut || {
        std::hint::black_box(run_stable(&stable));
    });

    let mut scale = ScaleConfig::paper_defaults(16_384, 1);
    scale.queries = 5_000;
    gauge("scale_sharded", scale.nodes, &mut || {
        std::hint::black_box(run_scale_stable(&scale));
    });
    gauges
}

#[cfg(not(feature = "count-allocs"))]
fn memory_gauges() -> Vec<MemoryGauge> {
    Vec::new()
}

/// Compare a fresh report against a committed baseline; returns the
/// number of gated kernels that regressed beyond `tolerance` percent.
fn check_against_baseline(report: &BenchReport, path: &str, tolerance: f64) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
    let base_kernels = doc
        .get("kernels")
        .and_then(Json::as_array)
        .expect("baseline has a kernels array");
    println!("\nregression gate vs {path} (tolerance {tolerance:.0} %, on normalised units):");
    let mut regressions = 0;
    for base in base_kernels {
        let name = base
            .get("kernel")
            .and_then(Json::as_str)
            .expect("baseline kernel has a name");
        if base.get("gated").and_then(Json::as_bool) != Some(true) {
            continue;
        }
        let base_units = base
            .get("units")
            .and_then(Json::as_f64)
            .expect("baseline kernel has units");
        let Some(fresh) = report.kernels.iter().find(|k| k.kernel == name) else {
            println!("  {name:<24} MISSING from this run");
            regressions += 1;
            continue;
        };
        let ratio = fresh.units / base_units;
        let verdict = if ratio > 1.0 + tolerance / 100.0 {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  {name:<24} {base_units:>10.2} -> {:>10.2} units  ({:+.1} %)  {verdict}",
            fresh.units,
            (ratio - 1.0) * 100.0
        );
    }
    regressions
}

fn main() {
    let args = parse_args();
    let (profile, label) = (&args.profile, &args.label);
    let calib = calibrate();
    let available_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perf_baseline: label={label} quick={} threads={} cores={available_parallelism} \
         calibration={calib:.3} ns/mix",
        profile.quick,
        peercache_par::threads()
    );
    let mut kernels = Vec::new();
    println!("solver micro-kernels (median of {}):", profile.samples);
    micro_kernels(profile, calib, &mut kernels);
    println!("churn recompute kernels (median of {}):", profile.samples);
    churn_kernels(profile, calib, &mut kernels);
    println!("hot-world set-up layers (median of {}):", profile.samples);
    setup_kernels(profile, calib, &mut kernels);
    println!("routing per lookup (median of {}):", profile.samples);
    route_kernels(profile, calib, &mut kernels);
    println!("selection chunk sweep (median of {}):", profile.samples);
    chunk_sweep_kernels(profile, calib, &mut kernels);
    println!("end-to-end sweeps (median of {}):", profile.e2e_samples);
    e2e_kernels(profile, calib, &mut kernels);
    if cfg!(feature = "count-allocs") {
        println!("memory gauges (count-allocs live-heap peaks):");
    }
    let memory = memory_gauges();

    let report = BenchReport {
        label: label.clone(),
        quick: profile.quick,
        threads: peercache_par::threads(),
        available_parallelism,
        calibration_ns_per_mix: calib,
        kernels,
        memory,
    };
    std::fs::create_dir_all("out").expect("create out/ directory");
    let path = format!("out/BENCH_{label}.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("report serialises"),
    )
    .expect("write bench report");
    println!("(report written to {path})");

    if let Some(min) = args.require_speedup {
        let mut failures = 0;
        for k in report.kernels.iter() {
            let Some(speedup) = k.speedup_vs_serial else {
                continue;
            };
            let verdict = if speedup < min {
                failures += 1;
                "BELOW MINIMUM"
            } else {
                "ok"
            };
            println!(
                "speedup gate: {:<24} {speedup:.2}x vs serial (minimum {min:.2}x)  {verdict}",
                k.kernel
            );
        }
        if failures > 0 {
            eprintln!("{failures} parallel kernel(s) below the {min:.2}x speedup minimum");
            std::process::exit(1);
        }
    }

    if let Some(base_path) = &args.baseline {
        let regressions = check_against_baseline(&report, base_path, args.tolerance);
        if regressions > 0 {
            eprintln!(
                "{regressions} kernel(s) regressed beyond {:.0} %",
                args.tolerance
            );
            std::process::exit(1);
        }
        println!("all gated kernels within tolerance");
    }
}
