//! The fast Chord dynamic program (paper §V-B).
//!
//! Two ingredients replace the naive `O(n²·k)` solve:
//!
//! 1. the [`SegmentOracle`](crate::chord::oracle) answers any `s(j, m)`
//!    query in `O(1)` from tables precomputed in `O((n + c)·b)` for `c`
//!    core neighbors, and
//! 2. each DP layer is solved with **divide-and-conquer optimisation**
//!    instead of scanning all `j` per `m`. This substitutes for the
//!    concave least-weight-subsequence algorithm of the paper's reference
//!    \[9\] (unavailable report): `s` satisfies the inverse quadrangle
//!    inequality — for `j < j'` and `m < m'`,
//!    `s(j, m) + s(j', m') ≤ s(j, m') + s(j', m)`, because the only
//!    asymmetric term is `w_{m'} · (δ(j', m') − δ(j, m')) ≤ 0` with the
//!    per-node estimate `δ` non-increasing in the pointer's proximity —
//!    so the per-row argmin is non-decreasing and each layer costs
//!    `O(n log n)` oracle queries. QoS infeasibility (∞ entries) preserves
//!    the inequality since `s(j, ·)` hits ∞ no later than `s(j', ·)` …
//!    see `quadrangle_inequality_holds` in the crate tests.
//!
//! All solver state lives in flat, caller-owned buffers: the `_into`
//! entry points and [`ChordWorkspace`] make repeated solves allocation
//! free after warm-up.

use crate::cast;
use crate::chord::naive::{selection_from, selection_into, DpResult};
use crate::chord::oracle::SegmentOracle;
use crate::chord::ring::RingView;
use crate::problem::{ChordProblem, SelectError, Selection};

/// Solve one DP layer with divide-and-conquer over the monotone argmin.
///
/// `g[j]` = `C_{i−1}(j − 1)` for `j ∈ 1..=n` (`g[0]` unused); outputs
/// `cur[m]` and the achieving `j` in `ch[m]`. `stack` is the explicit
/// recursion stack, reused across layers. Returns the `s` queries made.
fn layer_dc(
    oracle: &SegmentOracle,
    ring: &RingView,
    g: &[f64],
    cur: &mut [f64],
    ch: &mut [u32],
    stack: &mut Vec<(usize, usize, usize, usize)>,
) -> u64 {
    let n = g.len() - 1;
    if n == 0 {
        return 0;
    }
    let mut queries = 0u64;
    // Explicit work-stack recursion: (m_lo, m_hi, j_lo, j_hi) inclusive.
    stack.clear();
    stack.push((1usize, n, 1usize, n));
    while let Some((mlo, mhi, jlo, jhi)) = stack.pop() {
        if mlo > mhi {
            continue;
        }
        let mid = mlo + (mhi - mlo) / 2;
        let mut best = f64::INFINITY;
        let mut best_j = 0usize;
        #[allow(clippy::needless_range_loop)] // j is the DP column index, not a slice walk
        for j in jlo..=jhi.min(mid) {
            if g[j].is_infinite() {
                continue;
            }
            queries += 1;
            let val = g[j] + oracle.s(ring, j - 1, mid - 1);
            if val < best {
                best = val;
                best_j = j;
            }
        }
        cur[mid] = best;
        ch[mid] = cast::index_to_u32(best_j);
        if best_j == 0 {
            // Row infeasible: no information about the argmin; keep the
            // full column range on both sides.
            stack.push((mlo, mid.wrapping_sub(1), jlo, jhi));
            stack.push((mid + 1, mhi, jlo, jhi));
        } else {
            stack.push((mlo, mid.wrapping_sub(1), jlo, best_j));
            stack.push((mid + 1, mhi, best_j, jhi));
        }
    }
    queries
}

/// The layered §V-B solve writing into caller-owned buffers: `dp` holds
/// the result, `g` and `stack` are per-layer scratch. No allocation once
/// all three have warmed-up capacity. Returns the `s` queries made.
pub(crate) fn solve_fast_into(
    ring: &RingView,
    oracle: &SegmentOracle,
    k: usize,
    dp: &mut DpResult,
    g: &mut Vec<f64>,
    stack: &mut Vec<(usize, usize, usize, usize)>,
) -> u64 {
    let n = ring.len();
    dp.reset_to_c0(ring);
    let mut queries = 0;
    for i in 1..=k {
        // g[j] = C_{i−1}(j − 1) with the exactly-i placement convention:
        // C_{i−1}(0) is 0 only when i = 1.
        let prev_row = (i - 1) * dp.stride;
        g.clear();
        g.resize(n + 1, f64::INFINITY);
        if n >= 1 {
            g[1] = if i == 1 { 0.0 } else { f64::INFINITY };
        }
        if n >= 2 {
            g[2..=n].copy_from_slice(&dp.layers[prev_row + 1..prev_row + n]);
        }
        let row = dp.push_layer();
        let (_, cur) = dp.layers.split_at_mut(row);
        let (_, ch) = dp.choice.split_at_mut(row);
        queries += layer_dc(oracle, ring, g, cur, ch, stack);
    }
    queries
}

pub(crate) fn solve_fast(ring: &RingView, oracle: &SegmentOracle, k: usize) -> DpResult {
    let mut dp = DpResult::new();
    let mut g = Vec::new();
    let mut stack = Vec::new();
    solve_fast_into(ring, oracle, k, &mut dp, &mut g, &mut stack);
    dp
}

/// The covered-budget shortcut: with a budget of exactly `ring.len()`
/// pointers the only exactly-`n` placement puts one on every candidate,
/// so the optimum takes them all and neither the segment oracle nor the
/// layers are needed. Writes that selection into `out` and returns
/// `true`; any other budget returns `false` and leaves `out` untouched.
///
/// The result is bit for bit the DP's: the same ids sorted, and the cost
/// `Σ f_v + C_n(n)` with `C_n(n) = 0.0` (every segment is the pointer's
/// own rank, `s(j, j) = 0.0`).
fn select_every_candidate(ring: &RingView, k: usize, out: &mut Selection) -> bool {
    if k != ring.len() {
        return false;
    }
    out.aux.clear();
    out.aux.extend_from_slice(&ring.ids);
    // Ids are unique, so the unstable sort is deterministic.
    out.aux.sort_unstable();
    out.cost = ring.total_weight() + 0.0;
    #[cfg(feature = "check-invariants")]
    crate::invariants::assert_covered_matches_naive(ring, out);
    true
}

/// The full budget schedule from one fast-DP run: the optimal selection
/// for **every** feasible pointer budget `i ≤ k`, as `(i, selection)`
/// pairs in increasing `i`.
///
/// The layered DP computes all of `C_1 … C_k` anyway, so this costs no
/// more than [`select_fast`]; use it to explore the marginal value of
/// each additional routing-table slot (the maintenance-cost trade-off of
/// §I). Budgets made infeasible by QoS bounds are simply absent.
///
/// # Errors
/// [`SelectError::InvalidProblem`] on malformed input.
pub fn select_schedule(problem: &ChordProblem) -> Result<Vec<(usize, Selection)>, SelectError> {
    let ring = RingView::new(problem)?;
    let oracle = SegmentOracle::new(&ring);
    let k = problem.effective_k();
    let dp = solve_fast(&ring, &oracle, k);
    #[cfg(feature = "check-invariants")]
    crate::invariants::assert_chord_fast_matches_naive(&ring, &dp, k);
    let mut out = Vec::with_capacity(k + 1);
    for i in 0..=k {
        if let Ok(sel) = selection_from(&ring, &dp, i) {
            out.push((i, sel));
        }
    }
    #[cfg(feature = "check-invariants")]
    crate::invariants::assert_schedule_costs_monotone(&out);
    Ok(out)
}

/// The §V-B solve split at its phase boundary: the source-rooted ring
/// rebase (candidate ranking, distance estimates, prefix aggregates) is
/// captured once at construction, and [`PreparedChord::solve`] then runs
/// the segment-oracle precompute plus the layered DP per budget.
///
/// Exposed so the `perf_baseline` timer can attribute cost to the two
/// phases separately, and so callers re-solving the same problem under
/// several budgets `k` skip the rebase.
pub struct PreparedChord {
    ring: RingView,
}

impl PreparedChord {
    /// Phase 1 of §V-B: rebase `problem` onto the source-rooted ring.
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] on malformed input.
    pub fn new(problem: &ChordProblem) -> Result<Self, SelectError> {
        Ok(PreparedChord {
            ring: RingView::new(problem)?,
        })
    }

    /// Number of ranked candidates in the rebased ring.
    #[must_use]
    pub fn candidates(&self) -> usize {
        self.ring.len()
    }

    /// Phase 2 of §V-B: segment-oracle precompute (`O((n + c)·b)`) plus
    /// the `k`-layer divide-and-conquer DP (`O(k·n·log n)`), escalating
    /// the layer count when QoS bounds make exactly-`k` placements
    /// infeasible (mirroring [`select_fast`]). A budget of exactly
    /// [`candidates`](Self::candidates) takes every candidate without
    /// either step, as [`ChordWorkspace::solve_into`] does.
    ///
    /// # Errors
    /// [`SelectError::QosInfeasible`] when delay bounds cannot be met
    /// with `k` pointers.
    pub fn solve(&self, k: usize) -> Result<Selection, SelectError> {
        let ring = &self.ring;
        let mut every = Selection {
            aux: Vec::new(),
            cost: 0.0,
        };
        if select_every_candidate(ring, k, &mut every) {
            return Ok(every);
        }
        let oracle = SegmentOracle::new(ring);
        let mut dp = solve_fast(ring, &oracle, k);
        #[cfg(feature = "check-invariants")]
        crate::invariants::assert_chord_fast_matches_naive(ring, &dp, k);
        let n = ring.len();
        if n > 0 && !dp.cost(k, n).is_finite() {
            let mut i = k;
            while i < n && !dp.cost(i, n).is_finite() {
                i += 1;
                dp = solve_fast(ring, &oracle, i);
            }
        }
        selection_from(ring, &dp, k)
    }
}

/// A reusable §V-B solver: owns the rebased ring, the segment oracle, the
/// DP tables and every scratch buffer, so that repeated
/// [`solve_into`](Self::solve_into) calls allocate **nothing** once the
/// buffer capacities have warmed up to the problem size.
///
/// Results are bit-identical to the one-shot [`select_fast`]; the
/// workspace only changes where the intermediate state lives.
pub struct ChordWorkspace {
    ring: RingView,
    oracle: SegmentOracle,
    dp: DpResult,
    g: Vec<f64>,
    stack: Vec<(usize, usize, usize, usize)>,
    selection: Selection,
    work: ChordWork,
}

/// Deterministic work counts of one [`ChordWorkspace::solve_into`] call:
/// exact integers, so they pin the solve's complexity where wall-clock
/// timings cannot. Counting draws no randomness and allocates nothing.
/// Both read zero when the budget covers every candidate: that solve
/// takes them all without building the oracle or running a layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChordWork {
    /// Pointer steps of the segment-oracle build: one per comparison
    /// while the per-radius pointers advance, at most
    /// `(b + 1)·(3n + c)` for `n` candidates and `c` core neighbors.
    pub oracle_steps: u64,
    /// `s(j, m)` oracle queries made by the divide-and-conquer layers,
    /// over every layer count the QoS escalation tried.
    pub segment_queries: u64,
}

impl Default for ChordWorkspace {
    fn default() -> Self {
        ChordWorkspace::new()
    }
}

impl ChordWorkspace {
    /// An empty workspace; buffers grow to the largest problem solved.
    #[must_use]
    pub fn new() -> Self {
        ChordWorkspace {
            ring: RingView::empty(),
            oracle: SegmentOracle::empty(),
            dp: DpResult::new(),
            g: Vec::new(),
            stack: Vec::new(),
            selection: Selection {
                aux: Vec::new(),
                cost: 0.0,
            },
            work: ChordWork::default(),
        }
    }

    /// The work counts of the last [`solve_into`](Self::solve_into)
    /// (zero before the first, and after a solve rejected as malformed).
    #[must_use]
    pub fn work(&self) -> ChordWork {
        self.work
    }

    /// Solve `problem` with the fast algorithm, reusing this workspace's
    /// buffers. The returned selection borrows the workspace and is
    /// overwritten by the next solve; clone it to keep it.
    ///
    /// When the effective budget equals the candidate count (`k ≥ |V|`),
    /// the solve stops after the rebase and returns every candidate: the
    /// one exactly-`|V|` placement, bit for bit what the layers would
    /// return, at the cost of the rebase alone.
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] on malformed input;
    /// [`SelectError::QosInfeasible`] when delay bounds cannot be met
    /// with `k` pointers.
    pub fn solve_into(&mut self, problem: &ChordProblem) -> Result<&Selection, SelectError> {
        let k = problem.effective_k();
        self.work = ChordWork::default();
        self.ring.rebase_into(problem)?;
        if select_every_candidate(&self.ring, k, &mut self.selection) {
            return Ok(&self.selection);
        }
        self.work.oracle_steps = self.oracle.rebuild(&self.ring);
        self.work.segment_queries = solve_fast_into(
            &self.ring,
            &self.oracle,
            k,
            &mut self.dp,
            &mut self.g,
            &mut self.stack,
        );
        #[cfg(feature = "check-invariants")]
        crate::invariants::assert_chord_fast_matches_naive(&self.ring, &self.dp, k);
        let n = self.ring.len();
        if n > 0 && !self.dp.cost(k, n).is_finite() {
            // Escalate the layer count so QosInfeasible reports the exact
            // smallest feasible budget, mirroring `PreparedChord::solve`.
            let mut i = k;
            while i < n && !self.dp.cost(i, n).is_finite() {
                i += 1;
                self.work.segment_queries += solve_fast_into(
                    &self.ring,
                    &self.oracle,
                    i,
                    &mut self.dp,
                    &mut self.g,
                    &mut self.stack,
                );
            }
        }
        selection_into(&self.ring, &self.dp, k, &mut self.selection)?;
        Ok(&self.selection)
    }
}

/// One-shot selection via the fast algorithm (paper §V-B):
/// `O((n + c)·b)` preprocessing for `c` core neighbors plus
/// `O(k·n·log n)` DP, or the rebase alone when `k ≥ n` and every
/// candidate is taken.
///
/// # Errors
/// [`SelectError::InvalidProblem`] on malformed input;
/// [`SelectError::QosInfeasible`] when delay bounds cannot be met with
/// `k` pointers.
pub fn select_fast(problem: &ChordProblem) -> Result<Selection, SelectError> {
    PreparedChord::new(problem)?.solve(problem.effective_k())
}
