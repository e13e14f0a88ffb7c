//! The deterministic event loop: typed messages over a virtual clock,
//! one substrate step per `Lookup` delivery.
//!
//! # Determinism contract
//!
//! The runtime's delivery order is a pure function of its inputs: the
//! queue orders envelopes by `(tick, sequence)`, the sequence counter
//! is monotone, and the clock only advances to the delivered envelope's
//! tick. Every fault decision — join admission, probe verdicts, stale
//! pointers — comes from the run's [`FaultPlan`], whose decisions are
//! pure hashes with no internal state. Consequence: the per-query
//! [`RouteTrace`]s produced here are **bit-identical** to the sim's
//! driver loop's for the same overlay, plan, and query list, at
//! any thread count and regardless of how many lookups are in flight —
//! the interleaving cannot leak between queries because all shared
//! state (overlay snapshot, aux tables, plan) is immutable during
//! routing. The `runtime_vs_sim` differential battery enforces this
//! across all four substrates.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use peercache_faults::{FaultPlan, FaultedRoute, LookupFailure, RouteTrace, StepScratch, WalkStep};
use peercache_id::Id;
use peercache_sim::{FaultMetrics, QueryMetrics, SimOverlay};

use crate::message::{Envelope, LookupJob, Message, Tick};
use crate::store::PeerStore;

/// A local node's attached persistent store.
struct LocalStore {
    owner: Id,
    store: PeerStore,
}

/// Resolve the installed auxiliary set of `id` (empty when absent).
fn aux_of(table: &[(Id, Vec<Id>)], id: Id) -> &[Id] {
    table
        .binary_search_by_key(&id, |&(n, _)| n)
        .ok()
        .and_then(|pos| table.get(pos))
        .map_or(&[], |(_, aux)| aux.as_slice())
}

/// The event-loop runtime hosting one overlay snapshot as live nodes.
///
/// Construction enqueues a `Join` for every substrate-live node at
/// tick 0; [`run`](Self::run) delivers messages in `(tick, sequence)`
/// order until the queue drains. Lookups advance one arrival per
/// delivery through the substrate step functions and re-enqueue
/// themselves at `now + 1 + jitter` per forward, so concurrent lookups
/// interleave exactly as real messages would — without changing any
/// per-query outcome (see the module docs).
pub struct NodeRuntime<'net> {
    overlay: &'net SimOverlay,
    plan: FaultPlan,
    aux: Vec<(Id, Vec<Id>)>,
    joined: Vec<Id>,
    queue: BinaryHeap<Reverse<Envelope>>,
    now: Tick,
    seq: u64,
    scratch: StepScratch,
    results: Vec<Option<FaultedRoute>>,
    store: Option<LocalStore>,
    delivered: u64,
}

impl<'net> NodeRuntime<'net> {
    /// A runtime over `overlay` under `plan`, with every substrate-live
    /// node's `Join` already enqueued at tick 0 (delivery registers a
    /// node iff it is live and not plan-crashed — a crashed node's
    /// lookups fail `OriginDown`, exactly as the sim walks fail them).
    pub fn new(overlay: &'net SimOverlay, plan: FaultPlan) -> Self {
        let mut runtime = NodeRuntime {
            overlay,
            plan,
            aux: Vec::new(),
            joined: Vec::new(),
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            scratch: StepScratch::new(),
            results: Vec::new(),
            store: None,
            delivered: 0,
        };
        for node in overlay.live_ids() {
            runtime.push(0, Message::Join { node });
        }
        runtime
    }

    /// Install per-node auxiliary sets (the aware or oblivious
    /// selection, in any order). Lookup steps resolve cached pointers
    /// from this table exactly as the sim's side-table passes do.
    pub fn install_aux(&mut self, table: Vec<(Id, Vec<Id>)>) {
        self.aux = table;
        self.aux.sort_by_key(|&(n, _)| n);
    }

    /// Attach a persistent peer store to `owner`. The owner's installed
    /// auxiliary selection is admitted immediately — the paper's aware
    /// selection acting as the cache-admission policy — and from then
    /// on the store's reliability scores are fed by every RouteTrace
    /// outcome observed at `owner` (forwards it answers, contacts that
    /// time out) plus standalone `Probe` verdicts.
    pub fn attach_store(&mut self, owner: Id, mut store: PeerStore) {
        let selection: Vec<Id> = aux_of(&self.aux, owner).to_vec();
        store.admit_all(selection, self.now);
        self.store = Some(LocalStore { owner, store });
    }

    /// The attached store and its owner, if any.
    pub fn store(&self) -> Option<(Id, &PeerStore)> {
        self.store.as_ref().map(|l| (l.owner, &l.store))
    }

    /// Detach and return the store (e.g. to save it at shutdown).
    pub fn detach_store(&mut self) -> Option<(Id, PeerStore)> {
        self.store.take().map(|l| (l.owner, l.store))
    }

    /// Submit one lookup; returns its query index (submission order).
    /// The first arrival is scheduled at the current tick; a key with
    /// no owner (empty overlay) or an unjoined origin resolves to
    /// `OriginDown`, mirroring the sim's origin checks.
    pub fn submit(&mut self, origin: Id, key: Id) -> usize {
        let query = self.results.len();
        self.results.push(None);
        match self.overlay.true_owner(key) {
            None => {
                if let Some(slot) = self.results.last_mut() {
                    *slot = Some(FaultedRoute::origin_down(origin));
                }
            }
            Some(true_owner) => {
                self.push(
                    self.now,
                    Message::Lookup(Box::new(LookupJob {
                        query,
                        origin,
                        key,
                        true_owner,
                        current: origin,
                        trace: RouteTrace::start(origin),
                    })),
                );
            }
        }
        query
    }

    /// Schedule a standalone liveness probe (store maintenance).
    pub fn schedule_probe(&mut self, from: Id, to: Id, at: Tick) {
        self.push(at.max(self.now), Message::Probe { from, to });
    }

    /// Schedule a peer-store refresh (expiry + capacity enforcement).
    pub fn schedule_refresh(&mut self, node: Id, at: Tick) {
        self.push(at.max(self.now), Message::Refresh { node });
    }

    /// Deliver messages in `(tick, sequence)` order until the queue is
    /// empty. Safe to call repeatedly: submissions made after a run are
    /// processed by the next.
    pub fn run(&mut self) {
        while let Some(Reverse(envelope)) = self.queue.pop() {
            self.now = envelope.at;
            self.delivered = self.delivered.saturating_add(1);
            match envelope.message {
                Message::Join { node } => self.deliver_join(node),
                Message::Lookup(job) => self.deliver_lookup(*job),
                Message::Probe { from, to } => self.deliver_probe(from, to),
                Message::Refresh { node } => self.deliver_refresh(node),
            }
        }
    }

    /// Prioritized parallel reconnection at startup: probe every stored
    /// peer in reliability-score order (`PeerStore::reconnect_order`),
    /// fanning the probes out over the worker pool — each verdict is a
    /// pure plan hash, so the fan-out is bit-identical at any thread
    /// count — then apply the outcomes to the store serially in
    /// priority order. Returns the successfully reconnected peers,
    /// highest score first.
    pub fn reconnect(&mut self) -> Vec<Id> {
        let Some(local) = self.store.as_ref() else {
            return Vec::new();
        };
        let owner = local.owner;
        let order = local.store.reconnect_order();
        let plan = &self.plan;
        let overlay = self.overlay;
        let verdicts = peercache_par::par_map(&order, |_, &peer| {
            let mut trace = RouteTrace::start(owner);
            plan.probe(owner, peer, 0, overlay.is_live(peer), &mut trace)
        });
        let now = self.now;
        let mut connected = Vec::new();
        if let Some(local) = self.store.as_mut() {
            for (&peer, &ok) in order.iter().zip(verdicts.iter()) {
                if ok {
                    local.store.record_success(peer, now);
                    connected.push(peer);
                } else {
                    local.store.record_failure(peer, now);
                }
            }
        }
        connected
    }

    /// The virtual clock (tick of the last delivery).
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Registered (live, non-crashed) nodes, sorted by id.
    pub fn joined(&self) -> &[Id] {
        &self.joined
    }

    /// The completed route of query `index`, if it finished.
    pub fn route(&self, index: usize) -> Option<&FaultedRoute> {
        self.results.get(index).and_then(Option::as_ref)
    }

    /// Fold every completed route into the sim's [`QueryMetrics`] shape
    /// exactly as `run_stable`'s measurement passes do: success, hops,
    /// and timed-out probes per query (an `OriginDown` route counts as
    /// a zero-hop failure, matching the fault-free driver's handling of
    /// dead origins).
    pub fn query_metrics(&self) -> QueryMetrics {
        let mut metrics = QueryMetrics::default();
        for route in self.results.iter().flatten() {
            metrics.record(route.is_success(), route.trace.hops, route.trace.timeouts);
        }
        metrics
    }

    /// Fold every completed route into the sim's [`FaultMetrics`] shape
    /// exactly as `run_stable_faulted` does: `OriginDown` routes count
    /// via `record_origin_down`, everything else via `record`.
    pub fn fault_metrics(&self) -> FaultMetrics {
        let mut metrics = FaultMetrics::default();
        for route in self.results.iter().flatten() {
            if matches!(route.outcome, Err(LookupFailure::OriginDown(_))) {
                metrics.record_origin_down();
            } else {
                metrics.record(route);
            }
        }
        metrics
    }

    fn push(&mut self, at: Tick, message: Message) {
        let envelope = Envelope {
            at,
            seq: self.seq,
            message,
        };
        self.seq = self.seq.saturating_add(1);
        self.queue.push(Reverse(envelope));
    }

    fn deliver_join(&mut self, node: Id) {
        if self.overlay.is_live(node) && !self.plan.node_crashed(node) {
            if let Err(pos) = self.joined.binary_search(&node) {
                self.joined.insert(pos, node);
            }
        }
    }

    fn deliver_lookup(&mut self, mut job: LookupJob) {
        // Origin checks, once, at the first arrival: an unjoined origin
        // (substrate-dead or plan-crashed) fails OriginDown, exactly as
        // the sim's `walk` driver fails it.
        if job.trace.hops == 0
            && job.current == job.origin
            && self.joined.binary_search(&job.origin).is_err()
        {
            self.finish(job.query, FaultedRoute::origin_down(job.origin));
            return;
        }
        let dead_before = job.trace.dead_probed.len();
        let delay_before = job.trace.delay_ticks;
        let aux = &self.aux;
        let step = self.overlay.query_step_faults(
            job.current,
            job.key,
            job.true_owner,
            |id| aux_of(aux, id),
            &self.plan,
            &mut job.trace,
            &mut self.scratch,
        );
        // Feed the local store from this arrival's RouteTrace delta:
        // contacts the owner saw time out, and the forward it answered.
        if let Some(local) = self.store.as_mut() {
            if local.owner == job.current {
                let mut failed: Vec<Id> = Vec::new();
                for &(prober, target) in job.trace.dead_probed.iter().skip(dead_before) {
                    if prober == local.owner {
                        failed.push(target);
                    }
                }
                for target in failed {
                    local.store.record_failure(target, self.now);
                }
                if let WalkStep::Forward(next) = step {
                    local.store.record_success(next, self.now);
                }
            }
        }
        match step {
            WalkStep::Forward(next) => {
                job.trace.hops += 1;
                job.trace.path.push(next);
                job.current = next;
                // One tick of transit per hop, plus whatever backoff and
                // jitter the plan charged during this arrival's probes.
                let transit = 1 + job.trace.delay_ticks.saturating_sub(delay_before);
                let at = self.now.saturating_add(transit);
                self.push(at, Message::Lookup(Box::new(job)));
            }
            WalkStep::Done(outcome) => {
                self.finish(
                    job.query,
                    FaultedRoute {
                        outcome,
                        trace: job.trace,
                    },
                );
            }
        }
    }

    fn deliver_probe(&mut self, from: Id, to: Id) {
        let mut trace = RouteTrace::start(from);
        let ok = self
            .plan
            .probe(from, to, 0, self.overlay.is_live(to), &mut trace);
        if let Some(local) = self.store.as_mut() {
            if local.owner == from {
                if ok {
                    local.store.record_success(to, self.now);
                } else {
                    local.store.record_failure(to, self.now);
                }
            }
        }
    }

    fn deliver_refresh(&mut self, node: Id) {
        if let Some(local) = self.store.as_mut() {
            if local.owner == node {
                local.store.expire(self.now);
            }
        }
    }

    fn finish(&mut self, query: usize, route: FaultedRoute) {
        if let Some(slot) = self.results.get_mut(query) {
            *slot = Some(route);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_id::IdSpace;
    use peercache_sim::OverlayKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_overlay() -> SimOverlay {
        let space = IdSpace::new(16).expect("valid width");
        let ids: Vec<Id> = (0..24u128).map(|i| Id::new(i * 2048 + 11)).collect();
        let mut rng = StdRng::seed_from_u64(9);
        SimOverlay::build(OverlayKind::Chord, space, &ids, &mut rng)
    }

    #[test]
    fn transparent_runtime_matches_the_monolithic_walk_per_query() {
        let overlay = tiny_overlay();
        let plan = FaultPlan::transparent(5);
        let mut runtime = NodeRuntime::new(&overlay, plan.clone());
        let origins = overlay.live_ids();
        let keys: Vec<Id> = origins.iter().rev().copied().collect();
        let mut expected = Vec::new();
        for (&origin, &key) in origins.iter().zip(&keys) {
            runtime.submit(origin, key);
            expected.push(overlay.query_with_aux_faults(origin, key, |_| &[], &plan));
        }
        runtime.run();
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(runtime.route(i), Some(want), "query {i}");
        }
        assert_eq!(runtime.joined().len(), origins.len());
        assert!(runtime.delivered() > 0);
        assert!(runtime.now() > 0 || expected.iter().all(|r| r.trace.hops == 0));
    }

    #[test]
    fn unjoined_origin_fails_origin_down() {
        let overlay = tiny_overlay();
        let mut runtime = NodeRuntime::new(&overlay, FaultPlan::transparent(5));
        let ghost = Id::new(1); // not a member
        let key = overlay.live_ids().first().copied().expect("non-empty");
        let q = runtime.submit(ghost, key);
        runtime.run();
        let route = runtime.route(q).expect("completed");
        assert_eq!(route.outcome, Err(LookupFailure::OriginDown(ghost)));
        let metrics = runtime.fault_metrics();
        assert_eq!(metrics.origin_down, 1);
    }

    #[test]
    fn store_is_fed_by_lookup_outcomes_and_probes() {
        let overlay = tiny_overlay();
        let origins = overlay.live_ids();
        let origin = origins.first().copied().expect("non-empty");
        let far = origins.last().copied().expect("non-empty");
        let mut runtime = NodeRuntime::new(&overlay, FaultPlan::transparent(5));
        runtime.attach_store(origin, PeerStore::new(crate::store::StoreConfig::default()));
        runtime.submit(origin, far);
        runtime.schedule_probe(origin, far, 0);
        runtime.schedule_refresh(origin, 1000);
        runtime.run();
        let (owner, store) = runtime.store().expect("attached");
        assert_eq!(owner, origin);
        // The probe succeeded under a transparent plan, so `far` is
        // known with one success; the lookup's first forward added its
        // next hop too (unless origin == owner of far's key).
        assert!(store.get(far).is_some_and(|e| e.successes >= 1));
        let reconnected = runtime.reconnect();
        assert!(reconnected.contains(&far));
        let (_, store) = runtime.detach_store().expect("attached");
        assert!(store.get(far).is_some_and(|e| e.successes >= 2));
    }
}
