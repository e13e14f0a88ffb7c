//! A thin bridge unifying the four substrates (Chord, Pastry, Tapestry,
//! the skip graph) for the experiment drivers, including the
//! per-overlay dispatch of the frequency-aware and frequency-oblivious
//! selection algorithms.

use peercache_chord::{ChordConfig, ChordNetwork};
use peercache_core::baseline::{ObliviousDraw, Slicing};
use peercache_core::{baseline, chord, pastry, Candidate, ChordProblem, PastryProblem};
use peercache_core::{SelectError, Selection};
use peercache_faults::{walk, FaultPlan, FaultedRoute, LookupFailure, RouteTrace, StepScratch};
use peercache_faults::{Substrate, WalkStep};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_pastry::{PastryConfig, PastryNetwork, RoutingMode};
use peercache_skipgraph::{SkipGraphConfig, SkipGraphNetwork};
use peercache_tapestry::{TapestryConfig, TapestryNetwork};
use rand::Rng;
use std::mem::take;

/// Which overlay an experiment runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OverlayKind {
    /// The Chord ring (paper §V / Figures 5–6).
    Chord,
    /// The Pastry overlay (paper §IV / Figures 3–4).
    Pastry {
        /// Digit width in bits.
        digit_bits: u8,
        /// Next-hop tie-breaking (locality-aware reproduces FreePastry).
        mode: RoutingMode,
    },
    /// The Tapestry overlay (§I: the Pastry technique transfers).
    Tapestry {
        /// Digit width in bits.
        digit_bits: u8,
    },
    /// The skip-graph overlay (§I: the Chord technique transfers, via
    /// rank space).
    SkipGraph,
}

/// The outcome of one routed query, overlay-agnostic.
#[derive(Copy, Clone, Debug)]
pub struct QueryOutcome {
    /// Reached the true owner?
    pub success: bool,
    /// Successful forwards taken.
    pub hops: u32,
    /// Dead-neighbor probes (timeouts).
    pub failed_probes: u32,
}

impl QueryOutcome {
    /// The outcome of a walk: a down origin is a zero-hop failure.
    fn of(route: &FaultedRoute) -> Self {
        QueryOutcome {
            success: route.is_success(),
            hops: route.trace.hops,
            failed_probes: route.trace.timeouts,
        }
    }
}

/// Reusable per-thread selection scratch: one solver workspace per family
/// (the fast Chord DP and the greedy Pastry trie), so a sweep over many
/// nodes reuses the DP tables and trie storage instead of reallocating
/// them per solve, plus the problem's own inputs — the core set and the
/// candidate pool — which each solve fills in place and takes back. One
/// scratch per worker thread — the workspaces are not shared.
pub struct SelectScratch {
    chord: chord::ChordWorkspace,
    pastry: pastry::PastryWorkspace,
    /// The selecting node's core set, ascending.
    core: Vec<Id>,
    /// The observed pool minus the node and its core, ascending.
    candidates: Vec<Candidate>,
    /// The skip graph's selection, mapped back from rank space.
    ranked: Selection,
}

impl SelectScratch {
    /// An empty scratch; buffers grow to fit on first use.
    pub fn new() -> Self {
        SelectScratch {
            chord: chord::ChordWorkspace::new(),
            pastry: pastry::PastryWorkspace::new(),
            core: Vec::new(),
            candidates: Vec::new(),
            ranked: Selection {
                aux: Vec::new(),
                cost: 0.0,
            },
        }
    }
}

impl Default for SelectScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// A live overlay instance of any supported kind.
///
/// Cloning duplicates the entire substrate (routing tables included). The
/// stable driver no longer needs that: its three measurement passes route
/// read-only over **one** shared snapshot via
/// [`query_with_aux`](Self::query_with_aux), resolving auxiliary sets from
/// side tables instead of installing them per copy.
#[derive(Clone)]
pub enum SimOverlay {
    /// A Chord ring.
    Chord(ChordNetwork),
    /// A Pastry overlay.
    Pastry(PastryNetwork),
    /// A Tapestry overlay.
    Tapestry(TapestryNetwork),
    /// A skip graph.
    SkipGraph(SkipGraphNetwork),
}

impl SimOverlay {
    /// Build a stable overlay over `ids`.
    pub fn build<R: Rng + ?Sized>(
        kind: OverlayKind,
        space: IdSpace,
        ids: &[Id],
        rng: &mut R,
    ) -> Self {
        match kind {
            OverlayKind::Chord => {
                SimOverlay::Chord(ChordNetwork::build(ChordConfig::new(space), ids))
            }
            OverlayKind::Pastry { digit_bits, mode } => SimOverlay::Pastry(PastryNetwork::build(
                PastryConfig::new(space, digit_bits).with_mode(mode),
                ids,
                rng,
            )),
            OverlayKind::Tapestry { digit_bits } => SimOverlay::Tapestry(TapestryNetwork::build(
                TapestryConfig::new(space, digit_bits),
                ids,
            )),
            OverlayKind::SkipGraph => {
                SimOverlay::SkipGraph(SkipGraphNetwork::build(SkipGraphConfig::new(space), ids))
            }
        }
    }

    /// The overlay kind.
    pub fn kind(&self) -> OverlayKind {
        match self {
            SimOverlay::Chord(_) => OverlayKind::Chord,
            SimOverlay::Pastry(net) => OverlayKind::Pastry {
                digit_bits: net.config().digit_bits,
                mode: net.config().mode,
            },
            SimOverlay::Tapestry(net) => OverlayKind::Tapestry {
                digit_bits: net.config().digit_bits,
            },
            SimOverlay::SkipGraph(_) => OverlayKind::SkipGraph,
        }
    }

    /// Live node ids in ring order.
    pub fn live_ids(&self) -> Vec<Id> {
        match self {
            SimOverlay::Chord(net) => net.live_ids(),
            SimOverlay::Pastry(net) => net.live_ids(),
            SimOverlay::Tapestry(net) => net.live_ids(),
            SimOverlay::SkipGraph(net) => net.live_ids(),
        }
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: Id) -> bool {
        self.substrate().is_live(id)
    }

    /// The node owning `key` under the overlay's assignment rule.
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        self.substrate().true_owner(key)
    }

    /// The core neighbor set `N_s` of `node`.
    pub fn core_neighbors(&self, node: Id) -> Vec<Id> {
        let mut out = Vec::new();
        self.core_neighbors_into(node, &mut out);
        out
    }

    /// [`core_neighbors`](Self::core_neighbors) into a caller-owned
    /// buffer. The churn refresh engine calls this once per dirty node
    /// with one retained buffer, so a recompute tick allocates nothing per
    /// node. An unknown `node` leaves `out` cleared.
    pub fn core_neighbors_into(&self, node: Id, out: &mut Vec<Id>) {
        out.clear();
        match self {
            SimOverlay::Chord(net) => {
                if let Some(n) = net.node(node) {
                    n.core_neighbors_into(out);
                }
            }
            SimOverlay::Pastry(net) => {
                if let Some(n) = net.node(node) {
                    n.core_neighbors_into(out);
                }
            }
            SimOverlay::Tapestry(net) => {
                if let Some(n) = net.node(node) {
                    n.core_neighbors_into(out);
                }
            }
            SimOverlay::SkipGraph(net) => {
                if let Some(n) = net.node(node) {
                    n.core_neighbors_into(out);
                }
            }
        }
    }

    /// Install the auxiliary set for `node` (dead entries dropped; `false`
    /// if `node` itself died). The node's installed buffer is recycled,
    /// so the refresh engine's per-tick re-install allocates nothing at
    /// warmed capacity.
    pub fn set_aux(&mut self, node: Id, aux: &[Id]) -> bool {
        match self {
            SimOverlay::Chord(net) => net.set_aux(node, aux).is_ok(),
            SimOverlay::Pastry(net) => net.set_aux(node, aux).is_ok(),
            SimOverlay::Tapestry(net) => net.set_aux(node, aux).is_ok(),
            SimOverlay::SkipGraph(net) => net.set_aux(node, aux).is_ok(),
        }
    }

    /// The overlay as the routing walk sees it.
    fn substrate(&self) -> &dyn Substrate {
        match self {
            SimOverlay::Chord(net) => net,
            SimOverlay::Pastry(net) => net,
            SimOverlay::Tapestry(net) => net,
            SimOverlay::SkipGraph(net) => net,
        }
    }

    /// [`substrate`](Self::substrate), for the repairing walk.
    fn substrate_mut(&mut self) -> &mut dyn Substrate {
        match self {
            SimOverlay::Chord(net) => net,
            SimOverlay::Pastry(net) => net,
            SimOverlay::Tapestry(net) => net,
            SimOverlay::SkipGraph(net) => net,
        }
    }

    /// Route one query from `from` for `key`.
    pub fn query(&mut self, from: Id, key: Id) -> QueryOutcome {
        self.query_with_path(from, key).0
    }

    /// Route one query over the installed auxiliary sets, evicting every
    /// dead neighbor it probed, and also return the nodes it visited
    /// (used by the churn driver: every node that *sees* a query —
    /// origin or forwarder — learns the access, §III).
    ///
    /// Total: a dead origin yields a failed outcome with an empty path.
    /// Drivers only issue queries from live origins, so that arm is never
    /// taken in practice.
    pub fn query_with_path(&mut self, from: Id, key: Id) -> (QueryOutcome, Vec<Id>) {
        let mut route = self.query_repairing(from, key, &FaultPlan::transparent(0));
        if route.outcome == Err(LookupFailure::OriginDown(from)) {
            route.trace.path.clear();
        }
        (QueryOutcome::of(&route), route.trace.path)
    }

    /// Route one query **read-only**, resolving each node's auxiliary set
    /// through `aux_of` instead of the installed per-node state. This is
    /// the stable driver's hot path: all measurement passes share one
    /// immutable snapshot (no clone, no `set_aux`), so they can run on
    /// parallel threads over `&self`. A dead neighbor probed along the
    /// way is excluded and the decision re-runs, exactly as in
    /// [`query`](Self::query), but nothing is evicted: the walk is
    /// identical to `set_aux` + [`query`](Self::query) on a clone.
    ///
    /// Total like [`query_with_path`](Self::query_with_path): a dead
    /// origin yields a failed outcome.
    pub fn query_with_aux<'a, F>(&'a self, from: Id, key: Id, aux_of: F) -> QueryOutcome
    where
        F: Fn(Id) -> &'a [Id],
    {
        QueryOutcome::of(&self.query_with_aux_faults(from, key, aux_of, &FaultPlan::transparent(0)))
    }

    /// Route one query **read-only** through the fault layer: every
    /// contact goes through `plan`'s probe channel and each node's
    /// auxiliary pointers are resolved via `aux_of` and `plan`'s
    /// staleness channel. With a transparent plan this is
    /// [`query_with_aux`](Self::query_with_aux) with its full
    /// [`RouteTrace`]; with faults the walk degrades per the substrate's
    /// retry/fallback semantics.
    ///
    /// Total: a substrate-dead or plan-crashed origin yields
    /// [`LookupFailure::OriginDown`].
    pub fn query_with_aux_faults<'a, F>(
        &'a self,
        from: Id,
        key: Id,
        aux_of: F,
        plan: &FaultPlan,
    ) -> FaultedRoute
    where
        F: Fn(Id) -> &'a [Id],
    {
        walk(self.substrate(), from, key, aux_of, plan)
    }

    /// One arrival of [`query_with_aux_faults`](Self::query_with_aux_faults):
    /// the substrate's [`Substrate::step`] at `current` for `key`. The
    /// `peercache-node` event loop delivers one arrival per `Lookup`
    /// message; because every fault decision in `plan` is a pure hash,
    /// the resulting probe sequence — and trace — is bit-identical to
    /// the driver loop's.
    ///
    /// The caller owns the origin checks (substrate-dead or plan-crashed
    /// origin → `OriginDown`) and the hop accounting on
    /// [`WalkStep::Forward`] (`trace.hops += 1`, `trace.path.push`).
    /// `true_owner` is [`true_owner`](Self::true_owner) computed once per
    /// walk.
    #[allow(clippy::too_many_arguments)]
    pub fn query_step_faults<'a, F>(
        &'a self,
        current: Id,
        key: Id,
        true_owner: Id,
        aux_of: F,
        plan: &FaultPlan,
        trace: &mut RouteTrace,
        scratch: &mut StepScratch,
    ) -> WalkStep
    where
        F: Fn(Id) -> &'a [Id],
    {
        self.substrate()
            .step(current, key, true_owner, &aux_of, plan, trace, scratch)
    }

    /// Route one query over the **installed** per-node auxiliary sets
    /// through `plan`'s probe channel, then evict every neighbor that
    /// timed out from its prober's tables — the churn driver's route path
    /// ([`Substrate::walk_repairing`]).
    pub fn query_repairing(&mut self, from: Id, key: Id, plan: &FaultPlan) -> FaultedRoute {
        self.substrate_mut().walk_repairing(from, key, plan)
    }

    /// The validated identifier space the overlay was built over —
    /// total: every constructed network carries one, so callers holding
    /// an overlay never need to re-validate a bit width.
    pub(crate) fn space(&self) -> IdSpace {
        match self {
            SimOverlay::Chord(net) => net.config().space,
            SimOverlay::Pastry(net) => net.config().space,
            SimOverlay::Tapestry(net) => net.config().space,
            SimOverlay::SkipGraph(net) => net.config().space,
        }
    }

    /// Map a node to its rank offset from `source` on the key ring (the
    /// geometry skip-graph level links live in), as an id of a compact
    /// rank space.
    fn rank_id(ring: &[Id], source: Id, w: Id) -> Id {
        let n = ring.len();
        // Callers pass only live ids, which are exactly the members of
        // the sorted ring; a miss is unreachable, and rank 0 keeps the
        // arithmetic total.
        let rank_of = |x: Id| ring.binary_search(&x).unwrap_or(0);
        Id::new(((rank_of(w) + n - rank_of(source)) % n) as u128)
    }

    /// Run the paper's optimal selection for `node` over the observed
    /// `frequencies` through a reusable [`SelectScratch`]. The node's
    /// core set and its candidate pool are filled into the scratch's own
    /// buffers in place: the pool is the snapshot's entries that are
    /// neither the node nor, by binary search of the ascending core, a
    /// core neighbor. The buffers are handed to the problem and taken
    /// back after the solve, and the solver's DP tables and trie storage
    /// live in the scratch too. At warmed capacity the only allocation on
    /// Chord, Pastry and Tapestry is the returned `Selection`, a clone of
    /// the one the scratch holds (the skip graph's rank space also copies
    /// the live ring).
    ///
    /// A Chord solve whose `k` covers every candidate skips the DP and
    /// takes them all ([`ChordWorkspace::solve_into`]).
    ///
    /// [`ChordWorkspace::solve_into`]: chord::ChordWorkspace::solve_into
    ///
    /// # Errors
    /// Propagates [`SelectError`] from the solver (malformed inputs; QoS
    /// is not used by the experiment drivers).
    pub fn select_aware_into(
        &self,
        node: Id,
        frequencies: &FrequencySnapshot,
        k: usize,
        scratch: &mut SelectScratch,
    ) -> Result<Selection, SelectError> {
        self.select_aware_ref(node, frequencies, k, scratch)
            .cloned()
    }

    /// [`select_aware_into`](Self::select_aware_into) returning the
    /// selection the scratch holds, valid until the next solve through
    /// it: the churn refresh engine copies it into the node's cached set,
    /// so a dirty Chord recompute allocates nothing at warmed capacity.
    pub(crate) fn select_aware_ref<'s>(
        &self,
        node: Id,
        frequencies: &FrequencySnapshot,
        k: usize,
        scratch: &'s mut SelectScratch,
    ) -> Result<&'s Selection, SelectError> {
        let SelectScratch {
            chord,
            pastry,
            core,
            candidates,
            ranked,
        } = scratch;
        self.core_neighbors_into(node, core);
        candidates.clear();
        candidates.extend(
            frequencies
                .iter()
                .filter(|&(id, _)| id != node && core.binary_search(&id).is_err())
                .map(|(id, weight)| Candidate::new(id, weight)),
        );
        let digit_bits = match self {
            SimOverlay::Pastry(net) => net.config().digit_bits,
            SimOverlay::Tapestry(net) => net.config().digit_bits,
            SimOverlay::Chord(_) => {
                let problem =
                    ChordProblem::new(self.space(), node, take(core), take(candidates), k)?;
                let solved = chord.solve_into(&problem);
                (*core, *candidates) = (problem.core, problem.candidates);
                return solved;
            }
            SimOverlay::SkipGraph(_) => {
                // §I transfer: run the Chord optimiser in rank space.
                let ring = self.live_ids(); // sorted
                let n = ring.len();
                // At most usize::BITS + 1 = 65, well within u8.
                #[allow(clippy::cast_possible_truncation)]
                let rank_bits = (usize::BITS - n.leading_zeros() + 1) as u8;
                let rank_space = IdSpace::new(rank_bits).map_err(|e| {
                    SelectError::InvalidProblem(format!("rank space of {rank_bits} bits: {e}"))
                })?;
                candidates.retain(|c| self.is_live(c.id));
                for c in candidates.iter_mut() {
                    c.id = Self::rank_id(&ring, node, c.id);
                }
                core.retain(|&c| self.is_live(c));
                for c in core.iter_mut() {
                    *c = Self::rank_id(&ring, node, *c);
                }
                let problem =
                    ChordProblem::new(rank_space, Id::new(0), take(core), take(candidates), k)?;
                let solved = chord.solve_into(&problem);
                (*core, *candidates) = (problem.core, problem.candidates);
                let sel = solved?;
                let my_rank = ring.binary_search(&node).map_err(|_| {
                    SelectError::InvalidProblem(format!("selecting node {node} is not live"))
                })?;
                ranked.aux.clear();
                ranked.aux.extend(
                    sel.aux
                        .iter()
                        .map(|r| ring[(my_rank + r.value() as usize) % n]),
                );
                ranked.cost = sel.cost;
                return Ok(ranked);
            }
        };
        let problem = PastryProblem::new(
            self.space(),
            digit_bits,
            node,
            take(core),
            take(candidates),
            k,
        )?;
        let solved = pastry.solve_into(&problem);
        (*core, *candidates) = (problem.core, problem.candidates);
        solved
    }

    /// Frequency-oblivious selection over the *whole live ring* (minus
    /// self and core): the paper's baseline picks random nodes per
    /// distance slice from the overlay, with no reference to who was
    /// queried (§VI-A). In stable mode the observed pool already equals
    /// the whole ring.
    ///
    /// One-shot: builds the problem whose candidates are the live ids
    /// minus `N_s ∪ {s}`, each at weight 1, and draws through
    /// `baseline::{chord,pastry}_oblivious`, which also price the set by
    /// eq. 1. The stable and churn drivers skip the problem and the cost:
    /// they take the ring once per sweep or refresh tick and keep one
    /// [`ObliviousDraw`], which draws the same sets from the same stream.
    ///
    /// # Errors
    /// Propagates [`SelectError::InvalidProblem`] (construction only).
    pub fn select_oblivious_uniform<R: Rng + ?Sized>(
        &self,
        node: Id,
        k: usize,
        rng: &mut R,
    ) -> Result<Selection, SelectError> {
        let mut core = self.core_neighbors(node);
        // The problem treats the core as a set, so its order is free; the
        // substrates already hand it out sorted.
        core.sort_unstable();
        let candidates: Vec<Candidate> = self
            .live_ids()
            .into_iter()
            .filter(|&id| id != node && core.binary_search(&id).is_err())
            .map(|id| Candidate::new(id, 1.0))
            .collect();
        match self.kind() {
            OverlayKind::Chord | OverlayKind::SkipGraph => {
                let problem = ChordProblem::new(self.space(), node, core, candidates, k)?;
                Ok(baseline::chord_oblivious(&problem, rng))
            }
            OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
                let problem =
                    PastryProblem::new(self.space(), digit_bits, node, core, candidates, k)?;
                Ok(baseline::pastry_oblivious(&problem, rng))
            }
        }
    }

    /// A baseline drawer for this overlay: Chord and the skip graph
    /// slice the id ring by hop estimate, Pastry and Tapestry by shared
    /// digits.
    pub(crate) fn oblivious_draw(&self) -> ObliviousDraw {
        let slicing = match self.kind() {
            OverlayKind::Chord | OverlayKind::SkipGraph => Slicing::Chord,
            OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
                Slicing::Prefix { digit_bits }
            }
        };
        ObliviousDraw::new(self.space(), slicing)
    }

    // ---- churn operations (Chord experiments) ---------------------------

    /// Node crash. Returns false if it was not live.
    pub fn fail(&mut self, id: Id) -> bool {
        match self {
            SimOverlay::Chord(net) => net.fail(id).is_ok(),
            SimOverlay::Pastry(net) => net.fail(id).is_ok(),
            SimOverlay::Tapestry(net) => net.fail(id).is_ok(),
            SimOverlay::SkipGraph(net) => net.fail(id).is_ok(),
        }
    }

    /// Node (re-)join. Returns false on duplicates.
    ///
    /// L12 proof: only the Pastry arm draws (two join coordinates), but
    /// the matched variant is fixed for the overlay's lifetime — one
    /// `SimOverlay` is one substrate — so every call takes the same arm
    /// and the RNG stream cannot diverge between replays of the same
    /// configuration. Budgeted in lint.allow.
    pub fn join<R: Rng + ?Sized>(&mut self, id: Id, rng: &mut R) -> bool {
        match self {
            SimOverlay::Chord(net) => net.join(id).is_ok(),
            SimOverlay::Pastry(net) => net.join(id, (rng.gen(), rng.gen())).is_ok(),
            SimOverlay::Tapestry(net) => net.join(id).is_ok(),
            SimOverlay::SkipGraph(net) => net.join(id).is_ok(),
        }
    }

    /// One stabilization round for `id`. Returns false if not live.
    pub fn stabilize(&mut self, id: Id) -> bool {
        match self {
            SimOverlay::Chord(net) => net.stabilize(id).is_ok(),
            SimOverlay::Pastry(net) => {
                if net.is_live(id) {
                    net.refresh_from_truth(id);
                    true
                } else {
                    false
                }
            }
            SimOverlay::Tapestry(net) => {
                if net.is_live(id) {
                    net.refresh_from_truth(id);
                    true
                } else {
                    false
                }
            }
            SimOverlay::SkipGraph(net) => net.refresh_node(id).is_ok(),
        }
    }
}
