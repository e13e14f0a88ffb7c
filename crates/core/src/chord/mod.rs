//! Auxiliary-neighbor selection for Chord (paper §V).
//!
//! Two interchangeable solvers over the same re-based ring model:
//!
//! * [`select_naive`] — the simple `O(n²·k)` dynamic program (§V-A);
//!   reference implementation.
//! * [`select_fast`] — the scalable algorithm (§V-B): precomputed
//!   segment oracles plus concavity-exploiting divide-and-conquer layers.
//!
//! Both honour per-candidate QoS delay bounds (§V-C).

mod fast;
pub(crate) mod naive;
pub(crate) mod oracle;
pub(crate) mod ring;

pub use fast::{select_fast, select_schedule, ChordWork, ChordWorkspace, PreparedChord};
pub use naive::select_naive;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::chord_cost;
    use crate::exhaustive::chord_exhaustive;
    use crate::problem::{Candidate, ChordProblem, SelectError};
    use peercache_id::{Id, IdSpace};

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    fn problem(
        bits: u8,
        source: u128,
        core: Vec<u128>,
        cands: Vec<(u128, f64)>,
        k: usize,
    ) -> ChordProblem {
        ChordProblem::new(
            IdSpace::new(bits).unwrap(),
            id(source),
            core.into_iter().map(id).collect(),
            cands
                .into_iter()
                .map(|(i, w)| Candidate::new(id(i), w))
                .collect(),
            k,
        )
        .unwrap()
    }

    #[test]
    fn naive_picks_the_heavy_distant_node() {
        // Node 9 is far (estimate 4) and hot; node 1 is already adjacent.
        let p = problem(4, 0, vec![1], vec![(9, 10.0), (2, 1.0)], 1);
        let sel = select_naive(&p).unwrap();
        assert_eq!(sel.aux, vec![id(9)]);
        assert_eq!(sel.cost, chord_cost(&p, &sel.aux));
    }

    #[test]
    fn naive_matches_exhaustive_small() {
        let p = problem(
            5,
            3,
            vec![4, 11],
            vec![(7, 3.0), (12, 1.0), (20, 7.0), (25, 2.0), (30, 5.0)],
            2,
        );
        let naive = select_naive(&p).unwrap();
        let best = chord_exhaustive(&p).unwrap();
        assert!(
            (naive.cost - best.cost).abs() < 1e-9,
            "{} vs {}",
            naive.cost,
            best.cost
        );
        assert_eq!(naive.cost, chord_cost(&p, &naive.aux));
    }

    #[test]
    fn fast_matches_naive_small() {
        let p = problem(
            6,
            10,
            vec![12, 20, 45],
            vec![
                (13, 3.0),
                (17, 1.0),
                (25, 7.0),
                (33, 2.0),
                (48, 5.0),
                (60, 4.0),
                (2, 1.5),
            ],
            3,
        );
        let fast = select_fast(&p).unwrap();
        let naive = select_naive(&p).unwrap();
        assert!(
            (fast.cost - naive.cost).abs() < 1e-9,
            "{} vs {}",
            fast.cost,
            naive.cost
        );
        assert_eq!(fast.cost, chord_cost(&p, &fast.aux));
    }

    #[test]
    fn k_zero_gives_core_only_cost() {
        let p = problem(4, 0, vec![2], vec![(3, 2.0), (9, 3.0)], 0);
        for sel in [select_naive(&p).unwrap(), select_fast(&p).unwrap()] {
            assert!(sel.aux.is_empty());
            assert_eq!(sel.cost, chord_cost(&p, &[]));
        }
    }

    #[test]
    fn k_exceeding_candidates_selects_everything() {
        let p = problem(4, 0, vec![], vec![(3, 1.0), (9, 1.0)], 5);
        for sel in [select_naive(&p).unwrap(), select_fast(&p).unwrap()] {
            assert_eq!(sel.aux.len(), 2);
            assert_eq!(sel.cost, 2.0, "all selected → Σ f_v");
        }
    }

    #[test]
    fn empty_candidates_is_fine() {
        let p = problem(4, 0, vec![2], vec![], 3);
        for sel in [select_naive(&p).unwrap(), select_fast(&p).unwrap()] {
            assert!(sel.aux.is_empty());
            assert_eq!(sel.cost, 0.0);
        }
    }

    #[test]
    fn pointers_do_not_help_preceding_nodes() {
        // A pointer close behind the source's far side cannot serve nodes
        // just after the source (Chord never routes backwards).
        let p = problem(4, 0, vec![], vec![(15, 1.0), (1, 8.0)], 1);
        let sel = select_naive(&p).unwrap();
        // Node 1's weight dominates; only a pointer at 1 brings it to 0
        // hops. A pointer at 15 would leave node 1 at the max estimate.
        assert_eq!(sel.aux, vec![id(1)]);
    }

    #[test]
    fn qos_forces_pointer_into_window() {
        // Node 12 demands ≤ 2 hops: a neighbor within distance window
        // [12 − 1, 12]. Heavy node 9 would otherwise win the only slot.
        let p = ChordProblem::new(
            IdSpace::new(4).unwrap(),
            id(0),
            vec![],
            vec![
                Candidate::with_max_hops(id(12), 0.1, 2),
                Candidate::new(id(9), 100.0),
            ],
            1,
        )
        .unwrap();
        for sel in [select_naive(&p).unwrap(), select_fast(&p).unwrap()] {
            assert_eq!(sel.aux, vec![id(12)]);
        }
    }

    #[test]
    fn qos_infeasible_reports_required_count() {
        let p = ChordProblem::new(
            IdSpace::new(4).unwrap(),
            id(0),
            vec![],
            vec![
                Candidate::with_max_hops(id(4), 1.0, 1),
                Candidate::with_max_hops(id(8), 1.0, 1),
                Candidate::with_max_hops(id(12), 1.0, 1),
            ],
            2,
        )
        .unwrap();
        for res in [select_naive(&p), select_fast(&p)] {
            match res {
                Err(SelectError::QosInfeasible { required, k }) => {
                    assert_eq!(required, 3);
                    assert_eq!(k, 2);
                }
                other => panic!("expected QosInfeasible, got {other:?}"),
            }
        }
    }

    #[test]
    fn qos_satisfied_by_core_is_free() {
        let p = ChordProblem::new(
            IdSpace::new(4).unwrap(),
            id(0),
            vec![id(11)],
            vec![
                Candidate::with_max_hops(id(12), 0.1, 2), // core 11 in window
                Candidate::new(id(9), 100.0),
            ],
            1,
        )
        .unwrap();
        for sel in [select_naive(&p).unwrap(), select_fast(&p).unwrap()] {
            assert_eq!(sel.aux, vec![id(9)], "budget free for the heavy node");
        }
    }

    #[test]
    fn quadrangle_inequality_holds() {
        // The property the divide-and-conquer layer relies on, checked on
        // a concrete instance with cores and QoS mixed in.
        use crate::chord::oracle::SegmentOracle;
        use crate::chord::ring::RingView;
        let p = ChordProblem::new(
            IdSpace::new(6).unwrap(),
            id(7),
            vec![id(9), id(30)],
            vec![
                Candidate::new(id(8), 3.0),
                Candidate::new(id(13), 1.0),
                Candidate::with_max_hops(id(22), 7.0, 4),
                Candidate::new(id(40), 2.0),
                Candidate::new(id(55), 5.0),
                Candidate::new(id(1), 4.0),
            ],
            2,
        )
        .unwrap();
        let ring = RingView::new(&p).unwrap();
        let oracle = SegmentOracle::new(&ring);
        let n = ring.len();
        for j in 0..n {
            for jp in j + 1..n {
                for m in jp..n {
                    for mp in m + 1..n {
                        let lhs = oracle.s(&ring, j, m) + oracle.s(&ring, jp, mp);
                        let rhs = oracle.s(&ring, j, mp) + oracle.s(&ring, jp, m);
                        assert!(
                            lhs <= rhs + 1e-9 || (lhs.is_infinite() && rhs.is_infinite()),
                            "QI violated at ({j},{jp},{m},{mp}): {lhs} vs {rhs}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_matches_per_budget_solves() {
        let p = problem(
            6,
            10,
            vec![12, 20],
            vec![
                (13, 3.0),
                (17, 1.0),
                (25, 7.0),
                (33, 2.0),
                (48, 5.0),
                (60, 4.0),
            ],
            4,
        );
        let schedule = select_schedule(&p).unwrap();
        assert_eq!(schedule.len(), 5, "budgets 0..=4 all feasible");
        let mut prev_cost = f64::INFINITY;
        for (i, sel) in &schedule {
            assert_eq!(sel.aux.len(), *i);
            let mut per_budget = p.clone();
            per_budget.k = *i;
            let direct = select_fast(&per_budget).unwrap();
            assert!(
                (sel.cost - direct.cost).abs() < 1e-9,
                "budget {i}: schedule {} vs direct {}",
                sel.cost,
                direct.cost
            );
            assert!(
                sel.cost <= prev_cost + 1e-9,
                "marginal value never negative"
            );
            prev_cost = sel.cost;
        }
    }

    #[test]
    fn schedule_omits_qos_infeasible_budgets() {
        let p = ChordProblem::new(
            IdSpace::new(4).unwrap(),
            id(0),
            vec![],
            vec![
                Candidate::with_max_hops(id(4), 1.0, 1),
                Candidate::with_max_hops(id(8), 1.0, 1),
                Candidate::new(id(12), 3.0),
            ],
            3,
        )
        .unwrap();
        let schedule = select_schedule(&p).unwrap();
        let budgets: Vec<usize> = schedule.iter().map(|(i, _)| *i).collect();
        assert_eq!(
            budgets,
            vec![2, 3],
            "budgets 0 and 1 cannot meet the bounds"
        );
    }

    #[test]
    fn wrap_around_sources_work() {
        // Source near the top of the ring; candidates wrap past zero.
        let p = problem(5, 30, vec![31], vec![(2, 4.0), (10, 1.0), (29, 2.0)], 1);
        let naive = select_naive(&p).unwrap();
        let fast = select_fast(&p).unwrap();
        let best = chord_exhaustive(&p).unwrap();
        assert!((naive.cost - best.cost).abs() < 1e-9);
        assert!((fast.cost - best.cost).abs() < 1e-9);
    }
}
