//! The one routing walk every substrate shares.
//!
//! A substrate's walk decomposes into *arrivals*: the work done at one
//! node — resolve cached pointers, pick the best usable candidate from
//! the node's table, probe until one answers — ending in either a
//! forward to the next node or a terminal outcome. [`Substrate::step`]
//! is that decision and the only forwarding rule a substrate implements.
//! It reads the routing table in place and excludes timed-out
//! candidates through the trace's `dead_probed` pairs; a [`StepScratch`]
//! carries the one per-arrival buffer (the staleness-resolved aux set)
//! so a driver can run it hop by hop without reallocating.
//!
//! Two drivers consume the same step functions: [`walk`] (sim mode,
//! read-only and repairing alike) and the `peercache-node` event loop,
//! which delivers one arrival per `Lookup` message. Because every fault
//! decision in a [`FaultPlan`] is a pure hash — no RNG state, no
//! ordering dependence — both drivers observe bit-identical probe
//! sequences, traces, and outcomes.

use peercache_id::Id;

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

    /// One arrival at `current`: the hop-budget check, the staleness
    /// resolution of `aux_of(current)` through `plan`, candidate
    /// ranking, and the probe loop with its exclusions and aux→core
    /// fallback, ending in a forward or a terminal outcome.
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

    /// Nodes 0..5 with 3 dead, each forwarding to its successor until
    /// it reaches the key — enough to exercise the driver's origin
    /// checks and hop accounting.
    struct Line;

    impl Substrate for Line {
        fn is_live(&self, id: Id) -> bool {
            id.value() < 5 && id.value() != 3
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
            _: Id,
            _: &dyn Fn(Id) -> &'a [Id],
            plan: &FaultPlan,
            trace: &mut RouteTrace,
            _: &mut StepScratch,
        ) -> WalkStep {
            if current == key {
                return WalkStep::Done(Ok(current));
            }
            let next = Id::new(current.value() + 1);
            if plan.probe(current, next, trace.hops, self.is_live(next), trace) {
                WalkStep::Forward(next)
            } else {
                WalkStep::Done(Err(LookupFailure::DeadEnd(current)))
            }
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
}
