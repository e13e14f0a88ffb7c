//! A pinned digest of the fast Chord solve (paper §V-B) over a few
//! thousand seeded problems, solved through one reused
//! [`ChordWorkspace`].
//!
//! Every selected `aux` id and every `cost.to_bits()` is folded into an
//! FNV-1a digest, and so is the error of every solve that fails, so a
//! change to the segment oracle or the divide-and-conquer layers that
//! moves a single bit of any answer changes the digest. The problems
//! cover identifier widths b ∈ {8, 12, 16, 32}, 0–20 core neighbors,
//! runs of core neighbors with no candidate between them (empty core
//! segments), core neighbors past every candidate, QoS bounds on about a
//! fifth of the problems (tight enough that some need more pointers than
//! `k`, exercising the `QosInfeasible` layer escalation), and budgets
//! from 0 to past the candidate count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use peercache_core::chord::ChordWorkspace;
use peercache_core::{Candidate, ChordProblem};
use peercache_id::{Id, IdSpace};

/// Problems in the digest.
const PROBLEMS: u64 = 3_000;

/// The digest of [`PROBLEMS`] solves, recorded before the linear-time
/// oracle build and the per-rank eq.-10 pieces replaced the per-query
/// searches.
const GOLDEN_DIGEST: u64 = 0xaea1_8d9b_f6ab_9821;

/// How the core neighbors sit relative to the candidates.
#[derive(Clone, Copy)]
enum CoreLayout {
    /// Anywhere on the ring.
    Scattered,
    /// Consecutive ids: every core segment but the last is empty.
    Clustered,
    /// In the far half of the ring, past every candidate.
    PastAll,
}

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Draw `count` distinct clockwise offsets from `source` in `lo..hi`,
/// skipping any already in `taken`.
fn offsets(rng: &mut StdRng, count: usize, lo: u128, hi: u128, taken: &mut Vec<u128>) -> Vec<u128> {
    let mut out = Vec::with_capacity(count);
    let room = hi - lo;
    let mut attempts = 0;
    while out.len() < count && attempts < count * 20 {
        attempts += 1;
        let off = lo + rng.gen_range(0..room);
        if !taken.contains(&off) {
            taken.push(off);
            out.push(off);
        }
    }
    out
}

/// One seeded problem: see the module doc for what the seeds cover.
fn problem(seed: u64) -> ChordProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = [8u8, 12, 16, 32][rng.gen_range(0..4usize)];
    let space = IdSpace::new(bits).expect("valid width");
    let size = 1u128 << bits;
    let source = rng.gen_range(0..size);
    let qos = rng.gen_bool(0.2);
    // QoS problems stay small: the escalation re-solves up to n layers.
    let n = rng.gen_range(0..=if qos { 40 } else { 90 });
    let n_core = rng.gen_range(0..=20);
    let layout = match rng.gen_range(0..4u8) {
        0 => CoreLayout::Clustered,
        1 => CoreLayout::PastAll,
        _ => CoreLayout::Scattered,
    };

    // Offsets are clockwise distances from the source (never 0).
    let mut taken = Vec::new();
    let half = size / 2;
    let (cand_hi, core_offsets) = match layout {
        CoreLayout::Scattered => (size, offsets(&mut rng, n_core, 1, size, &mut taken)),
        CoreLayout::Clustered => {
            let base = rng.gen_range(1..size - 20);
            let run: Vec<u128> = (base..base + n_core as u128).collect();
            taken.extend(&run);
            (size, run)
        }
        CoreLayout::PastAll => (half, offsets(&mut rng, n_core, half, size, &mut taken)),
    };
    let cand_offsets = offsets(&mut rng, n, 1, cand_hi, &mut taken);

    let at = |off: u128| Id::new((source + off) % size);
    let core: Vec<Id> = core_offsets.into_iter().map(at).collect();
    let candidates: Vec<Candidate> = cand_offsets
        .into_iter()
        .map(|off| {
            let weight = if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(0.0..100.0)
            };
            if qos && rng.gen_bool(0.3) {
                let max_hops = rng.gen_range(1..=u32::from(bits) + 1);
                Candidate::with_max_hops(at(off), weight, max_hops)
            } else {
                Candidate::new(at(off), weight)
            }
        })
        .collect();
    let k = if rng.gen_bool(0.5) {
        rng.gen_range(0..=12)
    } else {
        rng.gen_range(0..=candidates.len() + 3)
    };
    ChordProblem::new(space, Id::new(source), core, candidates, k).expect("well-formed")
}

#[test]
fn chord_solve_digest_matches_recorded_golden() {
    let mut ws = ChordWorkspace::new();
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut solved, mut infeasible) = (0u32, 0u32);
    for seed in 0..PROBLEMS {
        let problem = problem(seed);
        match ws.solve_into(&problem) {
            Ok(selection) => {
                solved += 1;
                digest.feed(b"ok");
                for id in &selection.aux {
                    digest.feed(&id.value().to_le_bytes());
                }
                digest.feed(&selection.cost.to_bits().to_le_bytes());
            }
            Err(error) => {
                infeasible += 1;
                digest.feed(format!("{error:?}").as_bytes());
            }
        }
    }
    // The problem mix must keep exercising both outcomes.
    assert!(
        solved > 2_500 && infeasible > 100,
        "{solved} solved, {infeasible} failed"
    );
    assert_eq!(
        digest.0, GOLDEN_DIGEST,
        "Chord solve digest moved: {:#018x}",
        digest.0
    );
}
