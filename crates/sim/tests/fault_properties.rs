//! Property battery for the fault-injection layer (ISSUE 5 satellite 1):
//! over arbitrary [`FaultConfig`]s, every fault-wrapped lookup on every
//! substrate terminates within the hop bound or returns a typed
//! [`LookupFailure`], never revisits a node, keeps its probe/retry
//! accounting consistent, and replays bit-identically. Cost comparisons
//! between the aware and oblivious strategies go through
//! `f64::total_cmp` (rule L8).

use std::collections::{BTreeMap, BTreeSet};

use peercache_faults::{FaultConfig, FaultPlan};
use peercache_id::{Id, IdSpace};
use peercache_pastry::RoutingMode;
use peercache_sim::stable::{run_stable_faulted, StableConfig};
use peercache_sim::{OverlayKind, SimOverlay};
use peercache_workload::random_ids;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 40;
const QUERIES: usize = 5;

const KINDS: [OverlayKind; 4] = [
    OverlayKind::Chord,
    OverlayKind::Pastry {
        digit_bits: 1,
        mode: RoutingMode::LocalityAware,
    },
    OverlayKind::Tapestry { digit_bits: 1 },
    OverlayKind::SkipGraph,
];

fn fault_configs() -> impl Strategy<Value = FaultConfig> {
    (
        (0.0..0.5f64, 0.0..0.3f64, 0.0..0.5f64, 0.0..0.5f64),
        (0u64..2048, 0u64..8),
        (0u32..4, 1u64..8),
    )
        .prop_map(
            |((crash, unresponsive, loss, stale), (age, jitter), (retries, backoff))| FaultConfig {
                crash_rate: crash,
                unresponsive_rate: unresponsive,
                loss_rate: loss,
                stale_rate: stale,
                staleness_age: age,
                delay_jitter: jitter,
                max_retries: retries,
                backoff_base: backoff,
            },
        )
}

/// A node's auxiliary set, keyed by node.
type AuxTable = BTreeMap<Id, Vec<Id>>;

/// A stable overlay of `NODES` live nodes, its membership, and a random
/// auxiliary set per node. Every node is live, so walking this table
/// read-only is the walk over the same sets installed by `set_aux`.
fn build_overlay(kind: OverlayKind, seed: u64) -> (SimOverlay, Vec<Id>, AuxTable) {
    let space = IdSpace::new(32).expect("valid width");
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(space, NODES, &mut rng);
    let overlay = SimOverlay::build(kind, space, &ids, &mut rng);
    let aux = ids
        .iter()
        .map(|&node| {
            let set = (0..4).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            (node, set)
        })
        .collect();
    (overlay, ids, aux)
}

/// The walks' view of `aux`: a node's set, empty for an unknown node.
fn aux_of<'a>(aux: &'a AuxTable) -> impl Fn(Id) -> &'a [Id] {
    |id| aux.get(&id).map_or(&[], Vec::as_slice)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_walk_terminates_typed_and_never_revisits(
        config in fault_configs(),
        seed in 0u64..(1 << 32),
    ) {
        for kind in KINDS {
            let (overlay, ids, aux) = build_overlay(kind, seed);
            let plan = FaultPlan::new(seed ^ 0x5eed, &config);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(99));
            for _ in 0..QUERIES {
                let from = ids[rng.gen_range(0..ids.len())];
                let key = Id::new(u128::from(rng.gen::<u32>()));
                let route = overlay.query_with_aux_faults(from, key, aux_of(&aux), &plan);
                let trace = &route.trace;
                // Terminates within the hop bound: the path starts at the
                // origin, advances once per hop, and never revisits.
                prop_assert_eq!(trace.path.len(), trace.hops as usize + 1);
                let distinct: BTreeSet<Id> = trace.path.iter().copied().collect();
                prop_assert_eq!(
                    distinct.len(), trace.path.len(),
                    "walk revisited a node on {:?}: {:?}", kind, trace.path
                );
                prop_assert!(trace.path.len() <= NODES);
                // Probe accounting: one attempt per probed target plus
                // the recorded retries, retries within the budget.
                prop_assert_eq!(
                    trace.probes as usize,
                    trace.probed.len() + trace.retries as usize
                );
                prop_assert!(
                    trace.retries as usize
                        <= trace.probed.len() * config.max_retries as usize
                );
                prop_assert_eq!(trace.dead_probed.len(), trace.timeouts as usize);
                // A claimed success really is the true owner; anything
                // else is one of the typed failures.
                if let Ok(end) = route.outcome {
                    prop_assert_eq!(Some(end), overlay.true_owner(key));
                    prop_assert_eq!(Some(&end), trace.path.last());
                }
            }
        }
    }

    #[test]
    fn replaying_the_same_plan_is_bit_identical(
        config in fault_configs(),
        seed in 0u64..(1 << 32),
    ) {
        for kind in KINDS {
            let (overlay, ids, aux) = build_overlay(kind, seed);
            let plan = FaultPlan::new(seed ^ 0x5eed, &config);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(7));
            for _ in 0..QUERIES {
                let from = ids[rng.gen_range(0..ids.len())];
                let key = Id::new(u128::from(rng.gen::<u32>()));
                let first = overlay.query_with_aux_faults(from, key, aux_of(&aux), &plan);
                let second = overlay.query_with_aux_faults(from, key, aux_of(&aux), &plan);
                prop_assert_eq!(first, second);
            }
        }
    }

    #[test]
    fn transparent_plans_on_live_overlays_always_succeed(
        seed in 0u64..(1 << 32),
    ) {
        for kind in KINDS {
            let (overlay, ids, aux) = build_overlay(kind, seed);
            let plan = FaultPlan::transparent(seed);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(13));
            for _ in 0..QUERIES {
                let from = ids[rng.gen_range(0..ids.len())];
                let key = Id::new(u128::from(rng.gen::<u32>()));
                let route = overlay.query_with_aux_faults(from, key, aux_of(&aux), &plan);
                prop_assert!(route.is_success(), "{:?}: {:?}", kind, route.outcome);
                prop_assert_eq!(route.trace.timeouts, 0);
                prop_assert_eq!(route.trace.retries, 0);
                prop_assert_eq!(route.trace.fallbacks, 0);
                prop_assert_eq!(route.trace.delay_ticks, 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn reported_reduction_agrees_with_total_cmp_ordering(
        config in fault_configs(),
        seed in 0u64..(1 << 16),
    ) {
        let mut stable = StableConfig::paper_defaults(OverlayKind::Chord, 24, seed);
        stable.queries = 200;
        let report = run_stable_faulted(&stable, &config);
        let aware = report.aware.base.avg_hops();
        let oblivious = report.oblivious.base.avg_hops();
        prop_assume!(aware.is_finite() && oblivious.is_finite() && oblivious > 0.0);
        // The headline percentage must order the strategies exactly as
        // total_cmp orders their mean hops (rule L8: no ad-hoc f64
        // comparisons deciding winners).
        match aware.total_cmp(&oblivious) {
            std::cmp::Ordering::Less => prop_assert!(report.reduction_pct > 0.0),
            std::cmp::Ordering::Equal => prop_assert_eq!(report.reduction_pct, 0.0),
            std::cmp::Ordering::Greater => prop_assert!(report.reduction_pct < 0.0),
        }
    }
}
