//! Paper-invariant checkers, compiled only under the `check-invariants`
//! feature.
//!
//! Each checker cross-validates a structural property the algorithms rely
//! on, at the point where the production code path has just exercised it:
//!
//! * **Fast vs. naive Chord DP agreement** — the divide-and-conquer layer
//!   solve of §V-B must reproduce the reference §V-A recurrence cell for
//!   cell (this is exactly the inverse-quadrangle-inequality argument made
//!   executable), and the covered-budget shortcut that skips it when the
//!   budget takes every candidate must return the recurrence's selection
//!   bit for bit;
//! * **Cost monotonicity in `k`** — an extra auxiliary pointer can never
//!   make the optimal cost worse;
//! * **Subset property (P)** — the optimal `j − 1` pointers are contained
//!   in the optimal `j` pointers (§IV-B), the property the greedy trie
//!   algorithm's correctness rests on;
//! * **Greedy vs. full-DP agreement** — the greedy §IV-B optimiser must
//!   match the reference §IV-A dynamic program's optimal cost.
//!
//! All checks are `debug_assert!`-based, so a release build with the
//! feature enabled still compiles them away; the expensive cross-solves
//! are additionally size-gated so property tests over large instances stay
//! fast. Run the suite with `cargo test --workspace --features
//! check-invariants`.

use peercache_id::Id;

use crate::chord::naive::{selection_from, solve_naive, DpResult};
use crate::chord::ring::RingView;
use crate::problem::{PastryProblem, Selection};

/// Largest candidate count for which the fast Chord DP is re-solved with
/// the naive recurrence on every call.
const CHORD_CROSS_CHECK_MAX_N: usize = 256;

/// Largest candidate count for which the greedy Pastry solve is re-solved
/// with the reference dynamic program on every call.
const PASTRY_CROSS_CHECK_MAX_N: usize = 64;

/// Relative/absolute tolerance for comparing accumulated f64 costs.
const COST_EPS: f64 = 1e-6;

fn costs_agree(a: f64, b: f64) -> bool {
    (a.is_infinite() && b.is_infinite() && a.signum() == b.signum())
        || (a - b).abs() <= COST_EPS * (1.0 + a.abs().min(b.abs()))
}

/// Check that every cell of a fast-DP solve matches the naive §V-A
/// recurrence. No-op above [`CHORD_CROSS_CHECK_MAX_N`] candidates.
pub(crate) fn assert_chord_fast_matches_naive(ring: &RingView, dp: &DpResult, k: usize) {
    let n = ring.len();
    if n > CHORD_CROSS_CHECK_MAX_N {
        return;
    }
    let reference = solve_naive(ring, k);
    for i in 0..=k {
        for m in 0..=n {
            debug_assert!(
                costs_agree(dp.cost(i, m), reference.cost(i, m)),
                "fast DP disagrees with naive DP at C_{i}({m}): \
                 fast = {}, naive = {}",
                dp.cost(i, m),
                reference.cost(i, m),
            );
        }
    }
}

/// Check that the covered-budget shortcut's selection (every candidate,
/// budget `n`) is the naive §V-A recurrence's, ids and cost bit for bit.
/// No-op above [`CHORD_CROSS_CHECK_MAX_N`] candidates.
pub(crate) fn assert_covered_matches_naive(ring: &RingView, covered: &Selection) {
    let n = ring.len();
    if n > CHORD_CROSS_CHECK_MAX_N {
        return;
    }
    let reference = selection_from(ring, &solve_naive(ring, n), n);
    debug_assert!(
        reference
            .as_ref()
            .is_ok_and(|r| r.aux == covered.aux && r.cost.total_cmp(&covered.cost).is_eq()),
        "covered-budget shortcut disagrees with naive DP: shortcut = {covered:?}, \
         naive = {reference:?}",
    );
}

/// Check that optimal costs are non-increasing in the pointer budget.
pub(crate) fn assert_schedule_costs_monotone(schedule: &[(usize, Selection)]) {
    for pair in schedule.windows(2) {
        debug_assert!(
            pair[1].1.cost <= pair[0].1.cost + COST_EPS * (1.0 + pair[0].1.cost.abs()),
            "optimal cost increased with the budget: k = {} gives {}, k = {} gives {}",
            pair[0].0,
            pair[0].1.cost,
            pair[1].0,
            pair[1].1.cost,
        );
    }
}

/// Check the subset property (P): every consecutive pair of selections in
/// a budget schedule must nest.
pub(crate) fn assert_schedule_selections_nested(schedule: &[(usize, Selection)]) {
    for pair in schedule.windows(2) {
        let (smaller, larger) = (&pair[0].1, &pair[1].1);
        debug_assert!(
            smaller.aux.iter().all(|id| larger.aux.contains(id)),
            "subset property (P) violated between budgets {} and {}: \
             {:?} is not contained in {:?}",
            pair[0].0,
            pair[1].0,
            smaller.aux,
            larger.aux,
        );
    }
}

/// Largest leaf count for which the trie's flat sorted leaf index is
/// cross-checked against a freshly built `BTreeMap` on every mutation.
const TRIE_INDEX_CHECK_MAX_N: usize = 256;

/// Check that the trie's flat sorted `Vec<(Id, vertex)>` leaf index is
/// exactly what the `BTreeMap` it replaced would hold: same length (no
/// duplicate ids) and same iteration order (sorted, so binary search is
/// valid). No-op above [`TRIE_INDEX_CHECK_MAX_N`] leaves.
pub(crate) fn assert_leaf_index_sorted(leaves: &[(Id, u32)]) {
    if leaves.len() > TRIE_INDEX_CHECK_MAX_N {
        return;
    }
    let reference: std::collections::BTreeMap<Id, u32> = leaves.iter().copied().collect();
    debug_assert_eq!(
        reference.len(),
        leaves.len(),
        "flat leaf index holds a duplicate id"
    );
    for (pair, (&id, &v)) in leaves.iter().zip(reference.iter()) {
        debug_assert_eq!(
            *pair,
            (id, v),
            "flat leaf index diverges from the BTreeMap reference"
        );
    }
}

/// Check that the greedy §IV-B result matches the reference §IV-A dynamic
/// program's optimal cost. No-op above [`PASTRY_CROSS_CHECK_MAX_N`]
/// candidates.
pub(crate) fn assert_greedy_matches_dp(problem: &PastryProblem, greedy: &Selection) {
    if problem.candidates.len() > PASTRY_CROSS_CHECK_MAX_N {
        return;
    }
    if let Ok(reference) = crate::pastry::select_dp(problem) {
        debug_assert!(
            costs_agree(greedy.cost, reference.cost),
            "greedy cost {} disagrees with DP optimum {} (aux {:?} vs {:?})",
            greedy.cost,
            reference.cost,
            greedy.aux,
            reference.aux,
        );
    }
}
