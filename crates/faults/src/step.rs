//! The one routing walk every substrate shares.
//!
//! A substrate's walk decomposes into *arrivals*: the work done at one
//! node — resolve cached pointers, pick the best usable candidate from
//! the node's table, probe until one answers — ending in either a
//! forward to the next node or a terminal outcome. [`Substrate::step`]
//! is that decision and the only forwarding rule a substrate implements.
//! It keeps the hop budget and finds the node's table, and hands the
//! probe loop — [`arrive`], the aux→core fallback state machine written
//! once here — three rules read from that table in place: a next-hop
//! decision, a core-membership test and a terminal verdict. Timed-out
//! candidates are excluded through the trace's `dead_probed` pairs; a
//! [`StepScratch`] carries the one per-arrival buffer (the
//! staleness-resolved aux set) so a driver can run it hop by hop without
//! reallocating. Chord and the skip graph share one decision,
//! [`clockwise_closest`].
//!
//! Two drivers consume the same step functions: [`walk`] (sim mode,
//! read-only and repairing alike) and the `peercache-node` event loop,
//! which delivers one arrival per `Lookup` message. Because every fault
//! decision in a [`FaultPlan`] is a pure hash — no RNG state, no
//! ordering dependence — both drivers observe bit-identical probe
//! sequences, traces, and outcomes.

use std::error::Error;
use std::fmt;

use peercache_id::{Id, IdSpace};

use crate::plan::FaultPlan;
use crate::trace::{FaultedRoute, LookupFailure, RouteTrace};

/// The decision one arrival produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalkStep {
    /// Forward the lookup to this (probed-live) node. The driver charges
    /// the hop: `trace.hops += 1`, `trace.path.push(next)`.
    Forward(Id),
    /// The walk ends here with this outcome.
    Done(Result<Id, LookupFailure>),
}

/// Reusable per-arrival buffer for the step functions.
///
/// `aux` holds the staleness-resolved auxiliary pointers of the current
/// node when the plan corrupts pointers (otherwise the step borrows the
/// caller's set directly). It is overwritten at each arrival — a driver
/// allocates one scratch per in-flight lookup and reuses it across hops.
/// Everything else a step reads is the substrate's own table and the
/// walk's [`RouteTrace`], whose `dead_probed` pairs exclude the
/// candidates that timed out.
#[derive(Clone, Debug, Default)]
pub struct StepScratch {
    /// Staleness-resolved auxiliary pointers of the current node.
    pub aux: Vec<Id>,
}

impl StepScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        StepScratch::default()
    }
}

/// What a routing walk needs of a substrate: membership, the owner of a
/// key, each node's installed auxiliary set, the per-arrival forwarding
/// rule, and the eviction a repairing caller applies afterwards.
///
/// Auxiliary pointers are used exactly like core entries (§III-1), so
/// [`step`](Self::step) is the substrate's single forwarding rule: the
/// read-only walk, the repairing walk, the fault-injected walk and the
/// node runtime all run it.
pub trait Substrate {
    /// Whether `id` is a live member.
    fn is_live(&self, id: Id) -> bool;

    /// The node owning `key` under the substrate's assignment rule
    /// (`None` only when no node is live).
    fn true_owner(&self, key: Id) -> Option<Id>;

    /// The auxiliary set installed at `id` (empty when `id` is not live).
    fn installed_aux(&self, id: Id) -> &[Id];

    /// One arrival at `current`: the hop-budget check, the lookup of
    /// `current`'s table, and [`arrive`] over `aux_of(current)` with the
    /// substrate's next-hop decision, core test and terminal verdict,
    /// ending in a forward or a terminal outcome.
    ///
    /// A candidate that times out is excluded at this node — the
    /// read-only stand-in for forgetting it — and the decision re-runs;
    /// `trace.dead_probed` records the pair so a repairing caller can
    /// evict it afterwards. The caller owns the hop accounting: on
    /// [`WalkStep::Forward`] it charges `trace.hops += 1` and extends
    /// `trace.path` before the next step. `true_owner` is
    /// [`true_owner`](Self::true_owner) of `key`, computed once per walk.
    #[allow(clippy::too_many_arguments)]
    fn step<'a>(
        &self,
        current: Id,
        key: Id,
        true_owner: Id,
        aux_of: &dyn Fn(Id) -> &'a [Id],
        plan: &FaultPlan,
        trace: &mut RouteTrace,
        scratch: &mut StepScratch,
    ) -> WalkStep;

    /// Evict `dead` from `id`'s routing structures (no-op when `id` is
    /// not live).
    fn forget_neighbor(&mut self, id: Id, dead: Id);

    /// The repairing walk: route over the installed auxiliary sets under
    /// `plan`, then evict every neighbor that timed out from its prober's
    /// tables. The churn driver runs it under its fault plan; the
    /// substrates' own `lookup`/`route`/`search` run it under a
    /// transparent one.
    fn walk_repairing(&mut self, from: Id, key: Id, plan: &FaultPlan) -> FaultedRoute {
        let route = walk(&*self, from, key, |id| self.installed_aux(id), plan);
        for &(prober, dead) in &route.trace.dead_probed {
            self.forget_neighbor(prober, dead);
        }
        route
    }
}

/// Errors from a substrate's membership operations and from its own
/// repairing lookup (`lookup`/`route`/`search`), shared by every
/// substrate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkError {
    /// The node id is already live.
    AlreadyPresent(Id),
    /// The node id is not live.
    NotPresent(Id),
    /// The id does not fit the configured id space.
    OutOfSpace(Id),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::AlreadyPresent(id) => write!(f, "node {id} already in the overlay"),
            NetworkError::NotPresent(id) => write!(f, "node {id} not in the overlay"),
            NetworkError::OutOfSpace(id) => write!(f, "node {id} outside the id space"),
        }
    }
}

impl Error for NetworkError {}

/// One arrival's probe loop — the aux→core fallback state machine
/// (DESIGN.md §10.3), written once for every [`Substrate::step`]. The
/// step keeps its hop budget and finds `current`'s table; the loop asks
/// it three things, each read from that table in place:
///
/// * `next_hop(aux, dead)` — the best usable candidate among the node's
///   core entries and `aux`, skipping every target that a
///   `(current, target)` pair in `dead` excludes (`None`: none is left);
/// * `is_core(w)` — whether `w` is a core entry rather than an
///   auxiliary-only pointer;
/// * `verdict(aux, dead)` — why the walk ends at `current` when no hop
///   is left and `current` is not `true_owner`.
///
/// The loop resolves `aux` (the node's cached pointers) through the
/// plan's staleness channel, then probes `next_hop`'s pick until one
/// answers. A timed-out candidate is excluded through
/// `trace.dead_probed` and the decision re-runs. Under a
/// non-transparent plan, the first timed-out auxiliary-only candidate
/// bans the rest of the aux set for this arrival and counts one
/// `trace.fallbacks`: the node falls back to its core state. The hooks
/// see the aux set still in use — the resolved set, or nothing once
/// banned.
#[allow(clippy::too_many_arguments)]
pub fn arrive<S: Substrate + ?Sized>(
    net: &S,
    space: IdSpace,
    current: Id,
    true_owner: Id,
    aux: &[Id],
    plan: &FaultPlan,
    trace: &mut RouteTrace,
    scratch: &mut StepScratch,
    next_hop: impl Fn(&[Id], &[(Id, Id)]) -> Option<Id>,
    is_core: impl Fn(Id) -> bool,
    verdict: impl FnOnce(&[Id], &[(Id, Id)]) -> LookupFailure,
) -> WalkStep {
    let aux = plan.resolve_aux(space, current, aux, &mut scratch.aux);
    let mut aux_banned = false;
    loop {
        let in_use: &[Id] = if aux_banned { &[] } else { aux };
        let Some(next) = next_hop(in_use, &trace.dead_probed) else {
            return WalkStep::Done(if current == true_owner {
                Ok(current)
            } else {
                Err(verdict(in_use, &trace.dead_probed))
            });
        };
        if plan.probe(current, next, trace.hops, net.is_live(next), trace) {
            return WalkStep::Forward(next);
        }
        if !plan.is_transparent() && !aux_banned && !is_core(next) {
            aux_banned = true;
            trace.fallbacks += 1;
        }
    }
}

/// Chord's and the skip graph's next-hop decision: of `candidates`, the
/// one strictly clockwise of `current` and at or before `key` that is
/// closest to `key`, skipping every target a `(current, target)` pair in
/// `dead` excludes (`None`: the node knows nothing usable between
/// itself and the key). Clockwise distances are distinct and a
/// ring walk only moves closer to the key, so taking the closest
/// candidate, probing it and excluding it on a timeout replays a probe
/// order sorted by distance.
pub fn clockwise_closest(
    space: IdSpace,
    current: Id,
    key: Id,
    candidates: impl Iterator<Item = Id>,
    dead: &[(Id, Id)],
) -> Option<Id> {
    candidates
        .filter(|&w| space.between_open_closed(current, w, key) && !dead.contains(&(current, w)))
        .min_by_key(|&w| space.clockwise_distance(w, key))
}

/// Route a lookup for `key` from `from` over `net`, resolving each
/// node's auxiliary set through `aux_of` and every contact through
/// `plan`. The walk itself is read-only.
///
/// A substrate-dead or plan-crashed origin fails
/// [`LookupFailure::OriginDown`]; otherwise the driver steps
/// [`Substrate::step`] from the origin, charging each forward as a hop,
/// until an arrival reports a terminal outcome.
pub fn walk<'a, S, F>(net: &S, from: Id, key: Id, aux_of: F, plan: &FaultPlan) -> FaultedRoute
where
    S: Substrate + ?Sized,
    F: Fn(Id) -> &'a [Id],
{
    if !net.is_live(from) || plan.node_crashed(from) {
        return FaultedRoute::origin_down(from);
    }
    // A live origin means a non-empty overlay, so every key has an owner.
    let Some(true_owner) = net.true_owner(key) else {
        return FaultedRoute::origin_down(from);
    };
    let mut current = from;
    let mut trace = RouteTrace::start(from);
    let mut scratch = StepScratch::new();
    loop {
        match net.step(
            current,
            key,
            true_owner,
            &aux_of,
            plan,
            &mut trace,
            &mut scratch,
        ) {
            WalkStep::Forward(next) => {
                trace.hops += 1;
                trace.path.push(next);
                current = next;
            }
            WalkStep::Done(outcome) => return FaultedRoute { outcome, trace },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultConfig;

    #[test]
    fn scratch_starts_empty() {
        assert!(StepScratch::new().aux.is_empty());
    }

    #[test]
    fn steps_compare_structurally() {
        assert_eq!(WalkStep::Forward(Id::new(3)), WalkStep::Forward(Id::new(3)));
        assert_ne!(
            WalkStep::Forward(Id::new(3)),
            WalkStep::Done(Ok(Id::new(3)))
        );
        assert_eq!(
            WalkStep::Done(Err(LookupFailure::HopLimit)),
            WalkStep::Done(Err(LookupFailure::HopLimit))
        );
    }

    /// Nodes 0..8 on a 16-id ring with 3, 5 and 6 failed, each knowing
    /// its successor as its one core entry and forwarding by
    /// [`clockwise_closest`] — enough to exercise the driver's origin
    /// checks and hop accounting.
    struct Line;

    fn space() -> IdSpace {
        IdSpace::new(4).unwrap()
    }

    impl Substrate for Line {
        fn is_live(&self, id: Id) -> bool {
            id.value() < 8 && ![3, 5, 6].contains(&id.value())
        }
        fn true_owner(&self, key: Id) -> Option<Id> {
            Some(key)
        }
        fn installed_aux(&self, _: Id) -> &[Id] {
            &[]
        }
        fn step<'a>(
            &self,
            current: Id,
            key: Id,
            true_owner: Id,
            aux_of: &dyn Fn(Id) -> &'a [Id],
            plan: &FaultPlan,
            trace: &mut RouteTrace,
            scratch: &mut StepScratch,
        ) -> WalkStep {
            if current == key {
                return WalkStep::Done(Ok(current));
            }
            let succ = Id::new(current.value() + 1);
            arrive(
                self,
                space(),
                current,
                true_owner,
                aux_of(current),
                plan,
                trace,
                scratch,
                |aux, dead| {
                    let candidates = std::iter::once(succ).chain(aux.iter().copied());
                    clockwise_closest(space(), current, key, candidates, dead)
                },
                |w| w == succ,
                |_, _| LookupFailure::DeadEnd(current),
            )
        }
        fn forget_neighbor(&mut self, _: Id, _: Id) {}
    }

    #[test]
    fn walk_charges_hops_and_checks_the_origin() {
        let line = Line;
        let plan = FaultPlan::transparent(1);
        let route = walk(&line, Id::new(0), Id::new(2), |_| &[], &plan);
        assert_eq!(route.outcome, Ok(Id::new(2)));
        assert_eq!(route.trace.hops, 2);
        assert_eq!(route.trace.path, (0..3).map(Id::new).collect::<Vec<_>>());
        assert_eq!(route.trace.probed, (1..3).map(Id::new).collect::<Vec<_>>());
        let down = walk(&line, Id::new(3), Id::new(4), |_| &[], &plan);
        assert_eq!(down, FaultedRoute::origin_down(Id::new(3)));
    }

    /// A plan that loses a quarter of all probe attempts but retries
    /// enough that a live target practically always answers: every
    /// timeout below comes from a failed node, yet the plan is not
    /// transparent, so the aux ban is armed.
    fn lossy() -> FaultPlan {
        let config = FaultConfig {
            loss_rate: 0.25,
            max_retries: 16,
            ..FaultConfig::none()
        };
        FaultPlan::new(7, &config)
    }

    /// One arrival at node 0 for key 8 over [`Line`]'s liveness, with
    /// the one core entry `core` and the aux set `aux`, recorded into
    /// `trace`: the step and the aux set the verdict saw (`None`: not
    /// consulted).
    fn arrive_at_0(
        core: u128,
        aux: &[u128],
        plan: &FaultPlan,
        trace: &mut RouteTrace,
    ) -> (WalkStep, Option<Vec<Id>>) {
        let (current, key, core) = (Id::new(0), Id::new(8), Id::new(core));
        let mut seen = None;
        let step = arrive(
            &Line,
            space(),
            current,
            key,
            &ids(aux),
            plan,
            trace,
            &mut StepScratch::new(),
            |aux, dead| {
                let candidates = std::iter::once(core).chain(aux.iter().copied());
                clockwise_closest(space(), current, key, candidates, dead)
            },
            |w| w == core,
            |aux, _| {
                seen = Some(aux.to_vec());
                LookupFailure::DeadEnd(current)
            },
        );
        (step, seen)
    }

    fn ids(values: &[u128]) -> Vec<Id> {
        values.iter().copied().map(Id::new).collect()
    }

    #[test]
    fn transparent_plan_never_bans_the_aux_set() {
        // 6 and 5 are failed aux pointers: each times out and is
        // excluded, and the next aux pointer is still tried.
        let mut trace = RouteTrace::start(Id::new(0));
        let (step, seen) = arrive_at_0(1, &[6, 5, 4], &FaultPlan::transparent(7), &mut trace);
        assert_eq!(step, WalkStep::Forward(Id::new(4)));
        assert_eq!(trace.probed, ids(&[6, 5, 4]));
        assert_eq!(
            trace.dead_probed,
            vec![(Id::new(0), Id::new(6)), (Id::new(0), Id::new(5))]
        );
        assert_eq!((trace.timeouts, trace.fallbacks), (2, 0));
        assert_eq!(seen, None);
    }

    #[test]
    fn first_timed_out_aux_pointer_bans_the_rest_for_one_arrival() {
        let mut trace = RouteTrace::start(Id::new(0));
        let (step, _) = arrive_at_0(1, &[6, 5, 4], &lossy(), &mut trace);
        // 6 times out: 5 and 4 are banned, so the node falls back to its
        // core entry 1.
        assert_eq!(step, WalkStep::Forward(Id::new(1)));
        assert_eq!(trace.probed, ids(&[6, 1]));
        assert_eq!(trace.dead_probed, vec![(Id::new(0), Id::new(6))]);
        assert_eq!((trace.timeouts, trace.fallbacks), (1, 1));
        // The ban lasts one arrival: the next one at the same node starts
        // with its aux set in use again (6 stays excluded), and 5's
        // timeout bans it anew.
        let (step, _) = arrive_at_0(1, &[6, 5, 4], &lossy(), &mut trace);
        assert_eq!(step, WalkStep::Forward(Id::new(1)));
        assert_eq!(trace.probed, ids(&[6, 1, 5, 1]));
        assert_eq!((trace.timeouts, trace.fallbacks), (2, 2));
    }

    #[test]
    fn timed_out_core_entry_is_excluded_without_a_ban() {
        // Core entry 5 is closest to the key but failed; the aux set
        // stays in use and 4 takes the hop.
        let mut trace = RouteTrace::start(Id::new(0));
        let (step, _) = arrive_at_0(5, &[4, 2], &lossy(), &mut trace);
        assert_eq!(step, WalkStep::Forward(Id::new(4)));
        assert_eq!(trace.probed, ids(&[5, 4]));
        assert_eq!(trace.dead_probed, vec![(Id::new(0), Id::new(5))]);
        assert_eq!((trace.timeouts, trace.fallbacks), (1, 0));
    }

    #[test]
    fn verdict_sees_the_aux_set_still_in_use() {
        // Every candidate is failed. Without a ban the verdict sees the
        // whole aux set (each pointer excluded through `dead`) ...
        let mut trace = RouteTrace::start(Id::new(0));
        let (step, seen) = arrive_at_0(3, &[6, 5], &FaultPlan::transparent(7), &mut trace);
        assert_eq!(
            step,
            WalkStep::Done(Err(LookupFailure::DeadEnd(Id::new(0))))
        );
        assert_eq!(trace.probed, ids(&[6, 5, 3]));
        assert_eq!(seen, Some(ids(&[6, 5])));
        // ... after the ban it sees none of it.
        let mut trace = RouteTrace::start(Id::new(0));
        let (_, seen) = arrive_at_0(3, &[6, 5], &lossy(), &mut trace);
        assert_eq!(trace.probed, ids(&[6, 3]));
        assert_eq!(trace.fallbacks, 1);
        assert_eq!(seen, Some(Vec::new()));
    }
}
