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
//!   queries, so a `k`-layer solve asks at most `k·n·(log₂ n + 2)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use peercache_core::chord::ChordWorkspace;
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
