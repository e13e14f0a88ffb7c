//! The substrate-generic incremental refresh engine (§IV-C: "when node
//! popularities change, the optimal auxiliary set can be maintained
//! incrementally").
//!
//! The churn driver re-selects auxiliary sets as observations accrue
//! with one core move: keep the [`PastryOptimizer`] a node's current
//! selection was solved with, diff the node's **new** candidate pool
//! against the **mirror** pool the trie currently encodes, apply only the
//! delta (`update_weight` / `insert` / `remove`, each `O(k·b)`), and
//! re-select. Every mutator fully recomputes the affected trie spine, so
//! the trie state stays a pure function of its leaf multiset and the
//! re-selection is bit-identical to a fresh full solve over the new pool
//! — the property the churn equivalence suite pins down.
//!
//! The engine has two layers:
//!
//! * `RetainedPastry` — one node's retained optimizer, mirror pool,
//!   and selection scratch. Substrate-generic over the trie family
//!   (Pastry and Tapestry); under churn the **core** set drifts too, so
//!   the delta extends to `remove_core`/`add_core` pairs.
//! * `ChurnRefresh` — the churn driver's per-node engine: `observe`
//!   marks a node dirty instead of materialising a snapshot, flips
//!   invalidate the flipped node's retained state (and bump a ring
//!   epoch for the rank-space substrate), and a recompute tick costs
//!   `O(dirty · k · b)`. Chord/SkipGraph selections fall back to the
//!   full solver but keep the clean-skip: an untouched node re-installs
//!   its cached selection without re-solving.
//!
//! `CounterSlab` is the scale-tier counterpart of the per-node
//! estimators: a flat fixed-stride Space-Saving slab whose footprint is
//! independent of query volume, for churn probes at `n = 10⁵` under the
//! CI bytes-per-node ceiling. [`ChurnRecomputeBench`] packages the
//! fig-4 operating point as a timed kernel pair
//! (`churn_recompute_full` vs `churn_recompute_incremental`) for
//! `perf_baseline`.

use peercache_core::pastry::PastryOptimizer;
use peercache_core::{Candidate, PastryProblem, SelectError, Selection};
use peercache_freq::{ExactCounter, FrequencyEstimator, FrequencySnapshot};
use peercache_id::{Id, IdSpace};
use peercache_workload::{random_ids, ItemCatalog, RankingAssignment, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::churn::ChurnConfig;
use crate::overlay::{OverlayKind, SelectScratch, SimOverlay};
use crate::stable::RankingMode;

/// The fixed per-node solve parameters of a trie-family refresh.
#[derive(Copy, Clone, Debug)]
pub(crate) struct PastryParams {
    /// The selecting node.
    pub node: Id,
    /// Digit width of the substrate.
    pub digit_bits: u8,
    /// Pointer budget `k`.
    pub k: usize,
    /// The validated identifier space.
    pub space: IdSpace,
}

/// One node's retained incremental solver: the trie-backed optimizer its
/// current selection was solved with, the mirror of the candidate pool
/// that trie encodes, and the selection scratch buffers. All state is
/// recycled across refreshes — at warmed capacity a delta refresh
/// allocates nothing.
pub(crate) struct RetainedPastry {
    opt: Option<PastryOptimizer>,
    /// Whether `opt`'s trie matches `mirror`. Cleared by
    /// [`invalidate`](Self::invalidate) and while a refresh is mid-delta,
    /// so an error (or an interrupted refresh) forces a full rebuild
    /// instead of diffing against a stale mirror.
    valid: bool,
    /// The candidate pool the trie currently encodes — the "old" side of
    /// the next delta diff.
    mirror: FrequencySnapshot,
    stack: Vec<(u32, u32)>,
    counts: Vec<u32>,
    selection: Selection,
}

impl RetainedPastry {
    /// An empty retained solver; the first refresh takes the full-solve
    /// path.
    pub(crate) fn new() -> Self {
        RetainedPastry {
            opt: None,
            valid: false,
            mirror: FrequencySnapshot::default(),
            stack: Vec::new(),
            counts: Vec::new(),
            selection: Selection {
                aux: Vec::new(),
                cost: 0.0,
            },
        }
    }

    /// Drop the retained trie state (keeping the allocations): the next
    /// refresh rebuilds from scratch. Called when the owning node flips
    /// — a departed node's observations restart against a fresh routing
    /// state when it rejoins.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
        self.mirror.refill_from_pairs(std::iter::empty());
    }

    /// Refresh the selection against the node's new candidate `pool`
    /// (already excluding the node itself and its core neighbors).
    ///
    /// With a valid retained optimizer the refresh is the delta path:
    /// `remove_core` for departed core neighbors, a sorted two-pointer
    /// diff of `mirror` vs `pool` applied as
    /// `update_weight`/`remove`/`insert`, then `add_core` for new core
    /// neighbors — `O(Δ·k·b)` total. Otherwise (first refresh, or after
    /// [`invalidate`](Self::invalidate)) a fresh problem over `pool` and
    /// `core_now` is solved, which the delta path is bit-identical to.
    ///
    /// On success `pool` is copied into the mirror and the selected
    /// auxiliary set is returned.
    ///
    /// # Errors
    /// Propagates [`SelectError`] from the solver. The retained state is
    /// marked invalid first, so a subsequent refresh rebuilds instead of
    /// diffing against a half-applied delta.
    pub(crate) fn refresh(
        &mut self,
        pool: &mut FrequencySnapshot,
        params: &PastryParams,
        core_now: &[Id],
        core_removed: &[Id],
        core_added: &[Id],
    ) -> Result<&[Id], SelectError> {
        let opt = if self.valid && self.opt.is_some() {
            self.valid = false; // poisoned until the delta fully applies
            let Some(opt) = self.opt.as_mut() else {
                unreachable!("checked is_some above");
            };
            for &id in core_removed {
                opt.remove_core(id)?;
            }
            // Sorted-merge diff: snapshots are ordered by id. Core moves
            // are ordered around the pool diff so a peer moving between
            // the pool and the core set never collides with itself:
            // departed core leaves are gone before the pool diff can
            // re-insert them as candidates, and candidates the pool diff
            // removed are gone before `add_core` re-adds them as core.
            let mut old = self.mirror.iter().peekable();
            let mut new = pool.iter().peekable();
            loop {
                match (old.peek().copied(), new.peek().copied()) {
                    (Some((oid, ow)), Some((nid, nw))) if oid == nid => {
                        old.next();
                        new.next();
                        if ow.to_bits() != nw.to_bits() {
                            opt.update_weight(nid, nw)?;
                        }
                    }
                    (Some((oid, _)), Some((nid, _))) if oid < nid => {
                        old.next();
                        opt.remove(oid)?;
                    }
                    (Some(_), Some((nid, nw))) => {
                        new.next();
                        opt.insert(Candidate::new(nid, nw))?;
                    }
                    (Some((oid, _)), None) => {
                        old.next();
                        opt.remove(oid)?;
                    }
                    (None, Some((nid, nw))) => {
                        new.next();
                        opt.insert(Candidate::new(nid, nw))?;
                    }
                    (None, None) => break,
                }
            }
            for &id in core_added {
                opt.add_core(id)?;
            }
            opt
        } else {
            let candidates = pool.iter().map(|(id, w)| Candidate::new(id, w)).collect();
            let problem = PastryProblem::new(
                params.space,
                params.digit_bits,
                params.node,
                core_now.to_vec(),
                candidates,
                params.k,
            )?;
            match self.opt.as_mut() {
                Some(opt) => {
                    opt.rebuild(&problem)?;
                }
                None => {
                    self.opt = Some(PastryOptimizer::new(&problem)?);
                }
            }
            let Some(opt) = self.opt.as_mut() else {
                unreachable!("installed above");
            };
            opt
        };
        opt.selection_into(
            params.k,
            &mut self.stack,
            &mut self.counts,
            &mut self.selection,
        )?;
        // Copy (never swap) the pool into the mirror: a swap would
        // rotate buffers between nodes of different pool sizes through
        // the caller's scratch, so capacities chase the largest node for
        // many ticks instead of converging after one — and the
        // steady-state tick is held to zero allocator calls.
        self.mirror.refill_filtered(pool, |_| true);
        self.valid = true;
        Ok(&self.selection.aux)
    }
}

/// Sorted two-pointer set difference: fills `removed` with ids in `old`
/// but not `new`, and `added` with ids in `new` but not `old`. Both
/// inputs must be sorted; outputs are cleared first.
fn diff_sorted(old: &[Id], new: &[Id], removed: &mut Vec<Id>, added: &mut Vec<Id>) {
    removed.clear();
    added.clear();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removed.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j]);
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
}

/// One node's engine-side state: the retained solver, the inputs its
/// cached selection was computed from, and the dirty flag.
struct NodeState {
    retained: RetainedPastry,
    /// Sorted core set the cached selection was solved against.
    core_mirror: Vec<Id>,
    /// The cached **unfiltered** solver output. Installation re-applies
    /// the substrate's live-entry filter every tick, exactly like the
    /// full path's `set_aux`, so liveness drift between ticks installs
    /// identically whether the selection was re-solved or cached.
    aux: Vec<Id>,
    has_selection: bool,
    dirty: bool,
    /// The global ring epoch the cached selection was computed at —
    /// consulted only for the rank-space substrate, whose selection
    /// reads the whole live ring.
    ring_epoch: u64,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            retained: RetainedPastry::new(),
            core_mirror: Vec::new(),
            aux: Vec::new(),
            has_selection: false,
            dirty: false,
            ring_epoch: 0,
        }
    }
}

/// The churn driver's incremental aux-set engine (§IV-C under §VI-C's
/// churn schedule): each live node retains its optimizer across
/// recompute ticks; observations mark nodes dirty; churn events
/// invalidate exactly the state they touch. A recompute tick then costs
/// `O(dirty · k · b)` instead of a fresh snapshot + full solve per node,
/// while producing bit-identical selections (the differential suite
/// replays full vs incremental runs).
pub(crate) struct ChurnRefresh {
    kind: OverlayKind,
    space: IdSpace,
    k: usize,
    nodes: Vec<NodeState>,
    /// Bumped on every actual membership flip. Selections on the
    /// rank-space substrate (SkipGraph) depend on the whole live ring,
    /// so a cached selection there is reusable only within one epoch.
    ring_epoch: u64,
    // Shared scratch, recycled across nodes and ticks.
    snap: FrequencySnapshot,
    pool: FrequencySnapshot,
    core_buf: Vec<Id>,
    core_sorted: Vec<Id>,
    core_removed: Vec<Id>,
    core_added: Vec<Id>,
    scratch: SelectScratch,
}

impl ChurnRefresh {
    /// An engine for `nodes` slots over `overlay`'s substrate with
    /// pointer budget `k`.
    pub(crate) fn new(overlay: &SimOverlay, k: usize, nodes: usize) -> Self {
        ChurnRefresh {
            kind: overlay.kind(),
            space: overlay.space(),
            k,
            nodes: (0..nodes).map(|_| NodeState::new()).collect(),
            ring_epoch: 0,
            snap: FrequencySnapshot::default(),
            pool: FrequencySnapshot::default(),
            core_buf: Vec::new(),
            core_sorted: Vec::new(),
            core_removed: Vec::new(),
            core_added: Vec::new(),
            scratch: SelectScratch::new(),
        }
    }

    /// Mark `idx` dirty: its counter saw a new observation, so its
    /// cached selection may be stale. The counter delta itself is read
    /// at the next recompute tick — nothing is snapshotted here.
    pub(crate) fn mark_observed(&mut self, idx: usize) {
        self.nodes[idx].dirty = true;
    }

    /// A membership flip happened (either direction): drop the flipped
    /// node's retained state — it re-solves from its surviving counter
    /// weights at its next recompute tick — and bump the ring epoch for
    /// the rank-space substrate.
    pub(crate) fn on_flip(&mut self, idx: usize) {
        self.ring_epoch += 1;
        let st = &mut self.nodes[idx];
        st.retained.invalidate();
        st.has_selection = false;
    }

    /// Recompute the frequency-aware selection of `node` (slot `idx`)
    /// from its counter, reusing the retained state where the inputs
    /// are unchanged. Returns the **unfiltered** selection to install
    /// (through the substrate's live-entry filter), or `None` when the
    /// counter is empty or the solver rejects the inputs — the exact
    /// skip conditions of the full-recompute path.
    pub(crate) fn recompute_aware(
        &mut self,
        overlay: &SimOverlay,
        idx: usize,
        node: Id,
        counter: &ExactCounter,
    ) -> Option<&[Id]> {
        if counter.distinct_peers() == 0 {
            // The full path skips on an empty snapshot; counters only
            // ever hold positive counts, so the two tests agree.
            return None;
        }
        overlay.core_neighbors_into(node, &mut self.core_buf);
        self.core_sorted.clear();
        self.core_sorted.extend_from_slice(&self.core_buf);
        self.core_sorted.sort_unstable();
        let k = self.k;
        let kind = self.kind;
        let space = self.space;
        let epoch = self.ring_epoch;
        // Clean skip: the selection is a pure function of (snapshot,
        // core, k) — plus the live ring for the rank-space substrate —
        // so unchanged inputs mean the cached solver output *is* what a
        // re-solve would produce. (Single borrow-returning exit at the
        // bottom: an early `return Some(&st.aux)` would pin the borrow
        // across the recompute under NLL.)
        let clean = {
            let st = &self.nodes[idx];
            let ring_ok = !matches!(kind, OverlayKind::SkipGraph) || st.ring_epoch == epoch;
            st.has_selection && !st.dirty && ring_ok && self.core_sorted == st.core_mirror
        };
        if !clean && !self.recompute_dirty(overlay, idx, node, counter, k, kind, space, epoch) {
            return None;
        }
        Some(&self.nodes[idx].aux)
    }

    /// The dirty half of [`recompute_aware`](Self::recompute_aware):
    /// re-solve (incrementally where the substrate supports it) and
    /// refresh the cached state. Returns `false` when the solver
    /// rejected the inputs — the caller installs nothing, like the full
    /// path's `if let Ok`.
    #[allow(clippy::too_many_arguments)]
    fn recompute_dirty(
        &mut self,
        overlay: &SimOverlay,
        idx: usize,
        node: Id,
        counter: &ExactCounter,
        k: usize,
        kind: OverlayKind,
        space: IdSpace,
        epoch: u64,
    ) -> bool {
        counter.snapshot_into(&mut self.snap);
        match kind {
            OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
                let Self {
                    nodes,
                    snap,
                    pool,
                    core_buf,
                    core_sorted,
                    core_removed,
                    core_added,
                    ..
                } = self;
                let st = &mut nodes[idx];
                // The candidate pool: the raw snapshot minus the node
                // itself and its core set — entry-for-entry what the
                // full path's `without` produces.
                pool.refill_filtered(snap, |p| {
                    p != node && core_sorted.binary_search(&p).is_err()
                });
                diff_sorted(&st.core_mirror, core_sorted, core_removed, core_added);
                let params = PastryParams {
                    node,
                    digit_bits,
                    k,
                    space,
                };
                match st
                    .retained
                    .refresh(pool, &params, core_buf, core_removed, core_added)
                {
                    Ok(aux) => {
                        st.aux.clear();
                        st.aux.extend_from_slice(aux);
                    }
                    Err(_) => {
                        // The full path installs nothing on a solver
                        // error (`if let Ok`); mirror that, and force a
                        // rebuild next tick — the retained state may
                        // hold a half-applied delta.
                        st.retained.invalidate();
                        st.has_selection = false;
                        return false;
                    }
                }
            }
            OverlayKind::Chord | OverlayKind::SkipGraph => {
                // No incremental solver for the ring DP: re-solve from
                // the raw snapshot. The clean skip above still spares untouched
                // nodes the solve.
                match overlay.select_aware_into(node, &self.snap, k, &mut self.scratch) {
                    Ok(sel) => {
                        let st = &mut self.nodes[idx];
                        st.aux.clear();
                        st.aux.extend_from_slice(&sel.aux);
                    }
                    Err(_) => {
                        self.nodes[idx].has_selection = false;
                        return false;
                    }
                }
            }
        }
        let st = &mut self.nodes[idx];
        st.dirty = false;
        st.has_selection = true;
        st.ring_epoch = epoch;
        // Copy, never swap: swapping would rotate the scratch buffer
        // through mirrors of different core-set sizes, so the largest
        // nodes keep receiving under-sized buffers and the steady-state
        // tick never reaches zero allocator calls.
        st.core_mirror.clear();
        st.core_mirror.extend_from_slice(&self.core_sorted);
        true
    }
}

/// A flat, fixed-stride Space-Saving counter slab: slot `i`'s monitored
/// entries live at `entries[i·stride .. i·stride + lens[i]]`. The
/// scale-tier counterpart of the per-node estimators — footprint
/// `stride · 24 + 1` bytes per slot, fixed at construction and
/// independent of query volume, so a churn probe at `n = 10⁵` stays
/// under the CI bytes-per-node ceiling. Updates are `O(stride)` linear
/// scans with the same deterministic eviction rule as
/// [`SpaceSaving`](peercache_freq::SpaceSaving): the minimum-count
/// entry, smallest id first, inherits its count.
pub(crate) struct CounterSlab {
    stride: usize,
    lens: Vec<u8>,
    entries: Vec<(Id, u32)>,
}

impl CounterSlab {
    /// A slab of `count` slots monitoring at most `stride` peers each.
    /// `stride` is clamped to `[1, 255]` (lengths are stored as bytes).
    pub(crate) fn new(stride: usize, count: usize) -> Self {
        let stride = stride.clamp(1, 255);
        CounterSlab {
            stride,
            lens: vec![0; count],
            entries: vec![(Id::new(0), 0); stride * count],
        }
    }

    /// Record one access to `peer` in `slot`'s segment.
    pub(crate) fn observe(&mut self, slot: usize, peer: Id) {
        let base = slot * self.stride;
        let len = usize::from(self.lens[slot]);
        let seg = &mut self.entries[base..base + self.stride];
        if let Some(entry) = seg[..len].iter_mut().find(|e| e.0 == peer) {
            entry.1 += 1;
            return;
        }
        if len < self.stride {
            seg[len] = (peer, 1);
            self.lens[slot] += 1;
            return;
        }
        // Space-Saving eviction: the minimum count, smallest id first,
        // inherits its count — deterministic, like the BTree estimator.
        let mut victim = 0;
        for (i, e) in seg.iter().enumerate().skip(1) {
            let (vid, vcount) = seg[victim];
            if (e.1, e.0) < (vcount, vid) {
                victim = i;
            }
        }
        seg[victim] = (peer, seg[victim].1 + 1);
    }

    /// Freeze `slot`'s segment into `out` — zero-alloc at warmed
    /// capacity, like the estimators' `snapshot_into`.
    pub(crate) fn snapshot_into(&self, slot: usize, out: &mut FrequencySnapshot) {
        let base = slot * self.stride;
        let len = usize::from(self.lens[slot]);
        out.refill_from_counts(
            self.entries[base..base + len]
                .iter()
                .map(|&(p, c)| (p, u64::from(c))),
        );
    }

    /// Whether `slot` has observed anything.
    pub(crate) fn is_empty(&self, slot: usize) -> bool {
        self.lens[slot] == 0
    }

    /// The slab's fixed byte footprint (entries + lengths).
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<(Id, u32)>()
            + self.lens.len() * std::mem::size_of::<u8>()
    }
}

/// The `perf_baseline` kernel pair for the churn driver's recompute
/// tick at the fig-4 operating point: one simulated tick's worth of
/// observations (the paper's 4 qps × 62.5 s interval ≈ 250 queries)
/// applied to every node's counter, then an aware recompute pass over
/// the whole (fully live) population.
///
/// [`tick_full`](Self::tick_full) replays the pre-refactor arm —
/// snapshot, full solve, install, per node — and
/// [`tick_incremental`](Self::tick_incremental) drives the same pass
/// through `ChurnRefresh`: dirty nodes absorb their counter delta into
/// the retained optimizer, clean nodes re-install their cached
/// selection. Both return a fold of the installed selections, so the
/// differential unit test (and a paranoid bench harness) can assert the
/// two paths install identical sets tick for tick.
pub struct ChurnRecomputeBench {
    overlay: SimOverlay,
    node_ids: Vec<Id>,
    counters: Vec<ExactCounter>,
    engine: ChurnRefresh,
    scratch: SelectScratch,
    k: usize,
    /// Pre-generated `(observer slot, owner)` pairs for one tick.
    batch: Vec<(usize, Id)>,
}

impl ChurnRecomputeBench {
    /// Build the bench state from a churn configuration: the driver's
    /// exact topology/workload streams, every node alive, and one
    /// tick's observation batch of `queries_per_tick` routed queries
    /// (every node on a query's path observes the owner, §III).
    pub fn new(config: &ChurnConfig, queries_per_tick: usize) -> Self {
        let Ok(space) = IdSpace::new(config.bits) else {
            unreachable!("bench configs carry a valid id width");
        };
        let mut rng_topology = StdRng::seed_from_u64(config.seed);
        let mut rng_workload = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        let mut rng_queries = StdRng::seed_from_u64(config.seed.wrapping_add(3));
        let node_ids = random_ids(space, config.nodes, &mut rng_topology);
        let catalog = ItemCatalog::random(space, config.items, &mut rng_topology);
        let Ok(zipf) = Zipf::new(config.items, config.alpha) else {
            unreachable!("bench configs carry a valid Zipf exponent");
        };
        let assignment = match config.ranking {
            RankingMode::Identical => RankingAssignment::identical(config.items, config.nodes),
            RankingMode::Pool(p) => {
                RankingAssignment::random_pool(config.items, config.nodes, p, &mut rng_workload)
            }
        };
        let mut overlay = SimOverlay::build(config.kind, space, &node_ids, &mut rng_topology);
        let index_of: std::collections::BTreeMap<Id, usize> = node_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        // One tick's observations, derived by actually routing the
        // queries (all nodes live, so routing mutates nothing).
        let mut batch = Vec::with_capacity(queries_per_tick * 4);
        for _ in 0..queries_per_tick {
            let origin = rng_queries.gen_range(0..config.nodes);
            let item = zipf.sample_item(assignment.for_node(origin), &mut rng_queries);
            let key = catalog.key(item);
            let (outcome, path) = overlay.query_with_path(node_ids[origin], key);
            if outcome.success {
                if let Some(&owner) = path.last() {
                    for hop in &path {
                        if let Some(&i) = index_of.get(hop) {
                            batch.push((i, owner));
                        }
                    }
                }
            }
        }
        let engine = ChurnRefresh::new(&overlay, config.k, config.nodes);
        ChurnRecomputeBench {
            overlay,
            node_ids,
            counters: vec![ExactCounter::new(); config.nodes],
            engine,
            scratch: SelectScratch::new(),
            k: config.k,
            batch,
        }
    }

    fn fold(checksum: &mut u64, aux: &[Id]) {
        for id in aux {
            // Fold both halves of the 128-bit id — a checksum, so
            // mixing (not preserving) the value is the point.
            let v = id.value();
            let mixed = (v ^ (v >> 64)) & u128::from(u64::MAX);
            *checksum = checksum
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::try_from(mixed).unwrap_or(u64::MAX));
        }
    }

    /// One tick through the pre-refactor path: apply the observation
    /// batch, then snapshot + full solve + install for every node.
    /// Returns a fold of the installed selections.
    pub fn tick_full(&mut self) -> u64 {
        for &(i, owner) in &self.batch {
            self.counters[i].observe(owner);
        }
        let mut checksum = 0u64;
        for idx in 0..self.node_ids.len() {
            let node = self.node_ids[idx];
            let freqs = self.counters[idx].snapshot();
            if freqs.is_empty() {
                continue;
            }
            if let Ok(sel) = self
                .overlay
                .select_aware_into(node, &freqs, self.k, &mut self.scratch)
            {
                Self::fold(&mut checksum, &sel.aux);
                self.overlay.set_aux(node, &sel.aux);
            }
        }
        checksum
    }

    /// The same tick through the incremental engine: observations mark
    /// dirty, dirty nodes delta-refresh their retained optimizer, clean
    /// nodes re-install their cached selection. Returns the same fold as
    /// [`tick_full`](Self::tick_full); in steady state the tick
    /// allocates nothing (the count-allocs gate enforces it).
    pub fn tick_incremental(&mut self) -> u64 {
        for &(i, owner) in &self.batch {
            self.counters[i].observe(owner);
            self.engine.mark_observed(i);
        }
        let mut checksum = 0u64;
        for idx in 0..self.node_ids.len() {
            let node = self.node_ids[idx];
            if let Some(aux) =
                self.engine
                    .recompute_aware(&self.overlay, idx, node, &self.counters[idx])
            {
                Self::fold(&mut checksum, aux);
                self.overlay.set_aux(node, aux);
            }
        }
        checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_pastry::RoutingMode;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    fn diff_sorted_splits_membership_changes() {
        let old = [id(1), id(3), id(5), id(9)];
        let new = [id(2), id(3), id(9), id(12)];
        let (mut removed, mut added) = (vec![id(99)], vec![id(99)]);
        diff_sorted(&old, &new, &mut removed, &mut added);
        assert_eq!(removed, vec![id(1), id(5)]);
        assert_eq!(added, vec![id(2), id(12)]);
    }

    #[test]
    fn counter_slab_matches_space_saving_eviction() {
        use peercache_freq::SpaceSaving;
        let mut slab = CounterSlab::new(3, 2);
        let mut reference = SpaceSaving::new(3);
        // A stream that overflows the stride and forces evictions.
        for v in [7u128, 7, 7, 1, 2, 5, 5, 9, 9, 9, 1] {
            slab.observe(1, id(v));
            reference.observe(id(v));
        }
        let mut got = FrequencySnapshot::default();
        slab.snapshot_into(1, &mut got);
        assert_eq!(got, reference.snapshot());
        assert!(slab.is_empty(0), "slots are independent");
    }

    #[test]
    fn counter_slab_footprint_is_fixed() {
        let slab = CounterSlab::new(8, 100);
        let before = slab.footprint_bytes();
        let mut slab = slab;
        for v in 0..10_000u128 {
            slab.observe((v % 100) as usize, id(v));
        }
        assert_eq!(slab.footprint_bytes(), before);
    }

    fn parity_config(kind: OverlayKind, nodes: usize, seed: u64) -> ChurnConfig {
        let mut config = ChurnConfig::paper_defaults(nodes, seed);
        config.kind = kind;
        config
    }

    fn assert_tick_parity(kind: OverlayKind) {
        let config = parity_config(kind, 48, 11);
        let mut full = ChurnRecomputeBench::new(&config, 40);
        let mut incremental = ChurnRecomputeBench::new(&config, 40);
        for tick in 0..4 {
            let a = full.tick_full();
            let b = incremental.tick_incremental();
            assert_eq!(a, b, "tick {tick} of {kind:?} diverged");
        }
    }

    #[test]
    fn bench_paths_install_identical_selections_pastry() {
        assert_tick_parity(OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        });
    }

    #[test]
    fn bench_paths_install_identical_selections_tapestry() {
        assert_tick_parity(OverlayKind::Tapestry { digit_bits: 2 });
    }

    #[test]
    fn bench_paths_install_identical_selections_chord() {
        assert_tick_parity(OverlayKind::Chord);
    }

    #[test]
    fn bench_paths_install_identical_selections_skipgraph() {
        assert_tick_parity(OverlayKind::SkipGraph);
    }
}
