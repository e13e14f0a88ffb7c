//! Exact work counts of the fast Chord solve (paper §V-B), read from
//! [`ChordWorkspace::work`] at n ∈ {256, 512, 1024}.
//!
//! The counts are integers, so unlike wall-clock timings they pin the
//! solve's complexity on any host:
//!
//! * the segment-oracle build walks one forward pointer per radius, so
//!   its steps stay within `(b + 1)·(3n + c)` for `n` candidates and `c`
//!   core neighbors (a build that searched the distance list per
//!   (anchor, radius) would take `(n + c)·(b + 1)·log₂ n` comparisons,
//!   above that bound at every n here);
//! * each divide-and-conquer layer asks at most `n·(log₂ n + 2)` oracle
//!   queries, so a `k`-layer solve asks at most `k·n·(log₂ n + 2)`;
//! * a budget that covers every candidate (`k ≥ |V|`) does neither: the
//!   solve takes them all after the rebase, with the naive §V-A
//!   recurrence's answer bit for bit, while `k = |V| − 1` still runs
//!   the oracle build and the layers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use peercache_core::chord::{select_fast, select_naive, ChordWork, ChordWorkspace};
use peercache_core::{Candidate, ChordProblem};
use peercache_id::{Id, IdSpace};

/// Identifier width of the problems.
const BITS: u8 = 32;
/// Pointer budget of the problems.
const K: usize = 10;

/// `n` candidates with Zipf-like weights and `log₂ n` core neighbors,
/// all at distinct random 32-bit ids.
fn problem(n: usize, seed: u64) -> ChordProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let cores = usize::try_from(n.ilog2()).expect("small");
    let mut ids: Vec<u128> = Vec::with_capacity(n + cores + 1);
    while ids.len() < n + cores + 1 {
        let id = rng.gen_range(0..1u128 << BITS);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let candidates = ids[1..=n]
        .iter()
        .enumerate()
        .map(|(rank, &id)| Candidate::new(Id::new(id), 1e6 / (rank as f64 + 1.0).powf(1.2)))
        .collect();
    let core = ids[n + 1..].iter().copied().map(Id::new).collect();
    let space = IdSpace::new(BITS).expect("valid width");
    ChordProblem::new(space, Id::new(ids[0]), core, candidates, K).expect("well-formed")
}

#[test]
fn chord_solve_work_stays_within_linear_and_n_log_n_bounds() {
    let mut ws = ChordWorkspace::new();
    let mut counted = Vec::new();
    for n in [256usize, 512, 1024] {
        let problem = problem(n, 7);
        ws.solve_into(&problem).expect("solvable");
        let work = ws.work();
        let (n64, c) = (n as u64, problem.core.len() as u64);
        let radii = u64::from(BITS) + 1;
        let log = u64::from(n.ilog2());
        assert!(
            work.oracle_steps >= radii * (n64 + c),
            "n = {n}: every (anchor, radius) takes a step, got {}",
            work.oracle_steps
        );
        assert!(
            work.oracle_steps <= radii * (3 * n64 + c),
            "n = {n}: {} oracle steps exceed (b + 1)·(3n + c) = {}",
            work.oracle_steps,
            radii * (3 * n64 + c)
        );
        assert!(
            radii * (n64 + c) * log > radii * (3 * n64 + c),
            "the bound must separate a per-radius search from a pointer walk"
        );
        let k = K as u64;
        assert!(
            work.segment_queries <= k * n64 * (log + 2),
            "n = {n}: {} segment queries exceed k·n·(log₂ n + 2) = {}",
            work.segment_queries,
            k * n64 * (log + 2)
        );
        assert!(
            work.segment_queries >= k * (n64 - k),
            "every layer row asks"
        );
        counted.push(work);
    }
    // The counts belong to one solve: re-solving the first problem on the
    // warmed workspace reads them afresh rather than adding to them.
    ws.solve_into(&problem(256, 7)).expect("solvable");
    assert_eq!(ws.work(), counted[0]);
}

/// A seeded problem whose budget `k` covers its candidates: widths
/// b ∈ {8, 12, 16, 24, 32}, 0..=k candidates (some weightless), 0–20
/// core neighbors, QoS bounds on about a third of the problems, and
/// sources in the ring's top 64 ids on about half, so the candidates
/// wrap past zero.
fn covered_problem(seed: u64) -> ChordProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = [8u8, 12, 16, 24, 32][rng.gen_range(0..5usize)];
    let space = IdSpace::new(bits).expect("valid width");
    let size = 1u128 << bits;
    let source = if rng.gen_bool(0.5) {
        size - 1 - rng.gen_range(0..64u128)
    } else {
        rng.gen_range(0..size)
    };
    let k = rng.gen_range(0..=12usize);
    let n = rng.gen_range(0..=k);
    let cores = rng.gen_range(0..=20usize);
    let qos = rng.gen_bool(0.3);
    let mut ids: Vec<u128> = vec![source];
    while ids.len() < 1 + n + cores {
        let id = rng.gen_range(0..size);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let candidates = ids[1..=n]
        .iter()
        .map(|&id| {
            let weight = if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(0.0..100.0)
            };
            if qos && rng.gen_bool(0.5) {
                Candidate::with_max_hops(
                    Id::new(id),
                    weight,
                    rng.gen_range(1..=u32::from(bits) + 1),
                )
            } else {
                Candidate::new(Id::new(id), weight)
            }
        })
        .collect();
    let core = ids[n + 1..].iter().copied().map(Id::new).collect();
    ChordProblem::new(space, Id::new(source), core, candidates, k).expect("well-formed")
}

#[test]
fn a_budget_covering_every_candidate_skips_the_oracle_and_the_layers() {
    let mut ws = ChordWorkspace::new();
    let mut sizes = [0usize; 13];
    for seed in 0..600u64 {
        let problem = covered_problem(seed);
        let n = problem.candidates.len();
        sizes[n] += 1;
        let reference = select_naive(&problem).expect("every candidate meets its bound");
        let solved = ws.solve_into(&problem).expect("solvable").clone();
        assert_eq!(
            ws.work(),
            ChordWork::default(),
            "seed {seed}: a covered budget reads zero work"
        );
        for (path, sel) in [
            ("workspace", &solved),
            ("one-shot", &select_fast(&problem).unwrap()),
        ] {
            assert_eq!(sel.aux, reference.aux, "seed {seed}: {path} aux");
            assert_eq!(
                sel.cost.to_bits(),
                reference.cost.to_bits(),
                "seed {seed}: {path} cost {} vs naive {}",
                sel.cost,
                reference.cost
            );
        }
        assert_eq!(solved.aux.len(), n, "every candidate is taken");

        // One pointer short of the pool still runs the full solve.
        if n >= 1 {
            let mut short = problem.clone();
            short.k = n - 1;
            let _ = ws.solve_into(&short);
            let work = ws.work();
            assert!(
                work.oracle_steps > 0,
                "seed {seed}: k = |V| − 1 builds the oracle"
            );
            if n >= 2 {
                assert!(
                    work.segment_queries > 0,
                    "seed {seed}: k = |V| − 1 runs the layers"
                );
            }
        }
    }
    assert!(
        sizes.iter().all(|&count| count > 0),
        "every pool size 0..=12 is drawn: {sizes:?}"
    );
}
