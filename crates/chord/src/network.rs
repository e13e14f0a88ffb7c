use std::collections::BTreeMap;

use peercache_faults::{arrive, clockwise_closest, FaultPlan, FaultedRoute, LookupFailure};
use peercache_faults::{NetworkError, RouteTrace, StepScratch, Substrate, WalkStep};
use peercache_id::{Id, IdSpace};

use crate::node::ChordNode;

/// Configuration of a Chord deployment.
#[derive(Clone, Copy, Debug)]
pub struct ChordConfig {
    /// The identifier space (the paper uses 32-bit ids).
    pub space: IdSpace,
    /// Successor-list length (fault tolerance under churn).
    pub successor_list_len: usize,
    /// Defensive per-lookup hop budget.
    pub hop_limit: u32,
}

impl ChordConfig {
    /// A configuration over `space` with a successor list of 8 and a hop
    /// budget of `4·b`.
    pub fn new(space: IdSpace) -> Self {
        ChordConfig {
            space,
            successor_list_len: 8,
            hop_limit: 4 * u32::from(space.bits()),
        }
    }
}

/// The whole simulated Chord ring: live nodes with their (possibly stale)
/// routing state.
///
/// ```
/// use peercache_chord::{ChordConfig, ChordNetwork};
/// use peercache_id::{Id, IdSpace};
///
/// let space = IdSpace::new(8).unwrap();
/// let ids: Vec<Id> = [10u128, 80, 150, 220].map(Id::new).to_vec();
/// let mut ring = ChordNetwork::build(ChordConfig::new(space), &ids);
/// // Keys belong to their predecessor: 100 → node 80.
/// assert_eq!(ring.true_owner(Id::new(100)), Some(Id::new(80)));
/// let result = ring.lookup(Id::new(10), Id::new(100)).unwrap();
/// assert!(result.is_success());
/// // An auxiliary pointer turns the lookup into a single hop.
/// ring.set_aux(Id::new(10), &[Id::new(80)]).unwrap();
/// assert_eq!(ring.lookup(Id::new(10), Id::new(100)).unwrap().trace.hops, 1);
/// ```
#[derive(Clone)]
pub struct ChordNetwork {
    config: ChordConfig,
    nodes: BTreeMap<u128, ChordNode>,
}

impl ChordNetwork {
    /// An empty ring.
    pub fn new(config: ChordConfig) -> Self {
        ChordNetwork {
            config,
            nodes: BTreeMap::new(),
        }
    }

    /// Bootstrap a stable ring: every node gets *perfect* routing state
    /// (the steady state the paper's stable-mode experiments assume).
    ///
    /// # Panics
    /// Panics on duplicate or out-of-space ids — a bootstrap set is
    /// programmer input.
    pub fn build(config: ChordConfig, ids: &[Id]) -> Self {
        let mut net = ChordNetwork::new(config);
        for &id in ids {
            assert!(config.space.contains(id), "node id {id} outside id space");
            let prev = net
                .nodes
                .insert(id.value(), ChordNode::new(id, config.space.bits()));
            assert!(prev.is_none(), "duplicate node id {id}");
        }
        let all: Vec<Id> = net.live_ids();
        for &id in &all {
            net.refresh_from_truth(id);
        }
        net
    }

    /// The configuration.
    pub fn config(&self) -> &ChordConfig {
        &self.config
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is currently live.
    pub fn is_live(&self, id: Id) -> bool {
        self.nodes.contains_key(&id.value())
    }

    /// All live node ids in ring order.
    pub fn live_ids(&self) -> Vec<Id> {
        self.nodes.keys().map(|&k| Id::new(k)).collect()
    }

    /// Immutable view of a node's state.
    pub fn node(&self, id: Id) -> Option<&ChordNode> {
        self.nodes.get(&id.value())
    }

    /// The first live node strictly clockwise of `from`.
    fn next_live(&self, from: Id) -> Option<Id> {
        if self.nodes.is_empty() {
            return None;
        }
        from.value()
            .checked_add(1)
            .and_then(|start| self.nodes.range(start..).next())
            .or_else(|| self.nodes.iter().next())
            .map(|(&k, _)| Id::new(k))
    }

    /// The first live node at or counter-clockwise of `at` — the **true
    /// owner** of key `at` under the paper's predecessor assignment.
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        if self.nodes.is_empty() {
            return None;
        }
        self.nodes
            .range(..=key.value())
            .next_back()
            .or_else(|| self.nodes.iter().next_back())
            .map(|(&k, _)| Id::new(k))
    }

    /// The true successor list of `id` (next `len` live nodes clockwise),
    /// written over `out`.
    fn true_successors_into(&self, id: Id, out: &mut Vec<Id>) {
        out.clear();
        let mut cur = id;
        for _ in 0..self.config.successor_list_len {
            match self.next_live(cur) {
                Some(s) if s != id => {
                    out.push(s);
                    cur = s;
                }
                _ => break,
            }
        }
    }

    /// The true finger table of `id` (first live node per `[2^i, 2^{i+1})`
    /// range, paper §II-B), written over `fingers`.
    ///
    /// One first-live search serves a run of empty buckets: when bucket
    /// `i`'s first live node at or past its start lies beyond the bucket,
    /// nothing is live in between, so it is also the first live node at
    /// or past bucket `i + 1`'s start.
    fn true_fingers_into(&self, id: Id, fingers: &mut Vec<Option<Id>>) {
        let space = self.config.space;
        let bits = space.bits();
        fingers.clear();
        let mut first_past: Option<Id> = None;
        for i in 0..bits {
            let lo = space.add(id, 1u128 << i);
            let hi_excl = if i + 1 == bits {
                id // wraps the whole way: range [id + 2^(b-1), id)
            } else {
                space.add(id, 1u128 << (i + 1))
            };
            // First live node at or clockwise of `lo`, kept only if it
            // falls inside [lo, hi_excl).
            let first = first_past
                .take()
                .or_else(|| self.next_live(space.sub(lo, 1)));
            let finger = first.filter(|&c| c != id && space.between_closed_open(lo, c, hi_excl));
            if finger.is_none() {
                first_past = first;
            }
            fingers.push(finger);
        }
    }

    /// Reset a node's core state from global truth (bootstrap, or the
    /// periodic re-initialization the paper mentions in §III-2), written
    /// over the node's own buffers.
    fn refresh_from_truth(&mut self, id: Id) {
        let Some(node) = self.nodes.get_mut(&id.value()) else {
            return;
        };
        let mut successors = std::mem::take(&mut node.successors);
        let mut fingers = std::mem::take(&mut node.fingers);
        self.true_successors_into(id, &mut successors);
        self.true_fingers_into(id, &mut fingers);
        let predecessor = self.true_predecessor(id);
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.successors = successors;
            node.fingers = fingers;
            node.predecessor = predecessor;
        }
    }

    fn true_predecessor(&self, id: Id) -> Option<Id> {
        if self.nodes.len() <= 1 {
            return None;
        }
        self.nodes
            .range(..id.value())
            .next_back()
            .or_else(|| self.nodes.iter().next_back())
            .map(|(&k, _)| Id::new(k))
            .filter(|&p| p != id)
    }

    // ---- membership ------------------------------------------------------

    /// A node joins: it builds its own state (successor lookup + finger
    /// initialisation, modelled as fresh truth) and notifies its
    /// successor. Everyone else learns only through stabilization.
    ///
    /// # Errors
    /// [`NetworkError::AlreadyPresent`] / [`NetworkError::OutOfSpace`].
    pub fn join(&mut self, id: Id) -> Result<(), NetworkError> {
        if !self.config.space.contains(id) {
            return Err(NetworkError::OutOfSpace(id));
        }
        if self.nodes.contains_key(&id.value()) {
            return Err(NetworkError::AlreadyPresent(id));
        }
        self.nodes
            .insert(id.value(), ChordNode::new(id, self.config.space.bits()));
        self.refresh_from_truth(id);
        // Notify the successor so its predecessor pointer (and thus key
        // hand-off) is immediate; the predecessor's successor pointer
        // stays stale until its next stabilization.
        if let Some(succ) = self.nodes[&id.value()].successor() {
            if let Some(s) = self.nodes.get_mut(&succ.value()) {
                s.predecessor = Some(id);
            }
        }
        Ok(())
    }

    /// A node crashes without notice: everyone else's entries go stale.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn fail(&mut self, id: Id) -> Result<(), NetworkError> {
        self.nodes
            .remove(&id.value())
            .map(|_| ())
            .ok_or(NetworkError::NotPresent(id))
    }

    /// A node leaves gracefully: its immediate neighbors patch their
    /// pointers; everyone else's entries go stale.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn leave(&mut self, id: Id) -> Result<(), NetworkError> {
        let node = self
            .nodes
            .remove(&id.value())
            .ok_or(NetworkError::NotPresent(id))?;
        let succ = node.successors.iter().find(|s| self.is_live(**s)).copied();
        let pred = node.predecessor.filter(|p| self.is_live(*p));
        match (succ, pred) {
            // The leaver's only neighbour on both sides: it forgets the
            // leaver and, in a two-node ring, is left alone as `build`
            // leaves a one-node ring, with no successor and no
            // predecessor, rather than pointing at itself.
            (Some(succ), Some(pred)) if succ == pred => {
                if let Some(s) = self.nodes.get_mut(&succ.value()) {
                    s.forget(id);
                }
            }
            (Some(succ), Some(pred)) => {
                if let Some(s) = self.nodes.get_mut(&succ.value()) {
                    s.predecessor = Some(pred);
                }
                if let Some(p) = self.nodes.get_mut(&pred.value()) {
                    p.forget(id);
                    if p.successors.first() != Some(&succ) {
                        p.successors.insert(0, succ);
                        p.successors.truncate(self.config.successor_list_len);
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    // ---- maintenance -----------------------------------------------------

    /// One stabilization round for `id` (the paper's periodic refresh,
    /// §III-2): ping-and-prune dead entries, run the successor/predecessor
    /// handshake, refresh the successor list from the successor, and
    /// re-initialise fingers.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn stabilize(&mut self, id: Id) -> Result<(), NetworkError> {
        // 1. Prune dead beliefs (ping): successors, aux pointers and the
        //    predecessor, in place. Fingers are re-initialised in step 3.
        let Some(node) = self.nodes.get_mut(&id.value()) else {
            return Err(NetworkError::NotPresent(id));
        };
        let mut successors = std::mem::take(&mut node.successors);
        let mut aux = std::mem::take(&mut node.aux);
        let predecessor = node.predecessor;
        successors.retain(|&s| self.is_live(s));
        aux.retain(|&a| self.is_live(a));
        let predecessor = predecessor.filter(|&p| self.is_live(p));
        // 2. Successor handshake: adopt successor's predecessor if closer;
        //    refresh the tail of the successor list from the successor,
        //    written over the node's own buffer.
        let space = self.config.space;
        let succ = successors.first().copied();
        if let Some(succ) = succ {
            let s = &self.nodes[&succ.value()];
            let (s_pred, s_succs) = (s.predecessor, s.successors.as_slice());
            successors.clear();
            if let Some(p) = s_pred {
                // Adopt the successor's predecessor only if it is closer
                // *and* actually alive (its pointer may itself be stale).
                if p != id && space.between_open(id, p, succ) && self.is_live(p) {
                    successors.push(p);
                }
            }
            successors.push(succ);
            for &s in s_succs {
                // The successor's own list may be stale; verify entries
                // before adopting them (the ping that accompanies the
                // handshake).
                if s != id && self.is_live(s) && !successors.contains(&s) {
                    successors.push(s);
                }
            }
            successors.truncate(self.config.successor_list_len);
        } else if let Some(s) = self.next_live(id).filter(|&s| s != id) {
            // Lost every successor: re-acquire from any live belief, or —
            // as a last resort — re-bootstrap from the ring (the node
            // would re-join through an out-of-band bootstrap server).
            successors.push(s);
        }
        // After a handshake, the head of its (never-empty) list is the
        // refreshed successor notified below.
        let notify = succ.and(successors.first().copied());
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.successors = successors;
            node.aux = aux;
            node.predecessor = predecessor;
        }
        // Notify: the successor adopts us as predecessor if we are closer
        // than its current belief.
        if let Some(new_succ) = notify {
            let adopt = match self.nodes[&new_succ.value()].predecessor {
                None => true,
                Some(p) => p == id || space.between_open(p, id, new_succ) || !self.is_live(p),
            };
            if adopt {
                if let Some(s) = self.nodes.get_mut(&new_succ.value()) {
                    s.predecessor = Some(id);
                }
            }
        }
        // 3. Fix fingers (periodic re-initialization).
        let mut fingers = self
            .nodes
            .get_mut(&id.value())
            .map(|node| std::mem::take(&mut node.fingers))
            .unwrap_or_default();
        self.true_fingers_into(id, &mut fingers);
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.fingers = fingers;
        }
        Ok(())
    }

    /// Stabilize every live node once (ring order).
    pub fn stabilize_all(&mut self) {
        for id in self.live_ids() {
            let _ = self.stabilize(id);
        }
    }

    /// Install the auxiliary neighbor set for `id` (dead entries are
    /// dropped on installation, as the selection runs against possibly
    /// stale frequency tables).
    /// The node's installed buffer is recycled, so re-installing a
    /// selection at warmed capacity allocates nothing (the churn
    /// driver's refresh engine does so every recompute tick).
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn set_aux(&mut self, id: Id, aux: &[Id]) -> Result<(), NetworkError> {
        let mut live = match self.nodes.get_mut(&id.value()) {
            Some(node) => std::mem::take(&mut node.aux),
            None => return Err(NetworkError::NotPresent(id)),
        };
        live.clear();
        live.extend(aux.iter().copied().filter(|&a| self.is_live(a)));
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.aux = live;
        }
        Ok(())
    }

    // ---- routing -----------------------------------------------------------

    /// Route a lookup for `key` starting at `from`, following the paper's
    /// policy: forward to the known neighbor closest to the key among
    /// those between the current node and the key (clockwise). Dead
    /// neighbors probed along the way are forgotten (and counted as
    /// `trace.timeouts`), and the next-best candidate is tried. This is
    /// the repairing walk ([`Substrate::walk_repairing`]) over the one
    /// forwarding rule, [`Substrate::step`], under a transparent plan.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`] when `from` is not live.
    pub fn lookup(&mut self, from: Id, key: Id) -> Result<FaultedRoute, NetworkError> {
        if !self.is_live(from) {
            return Err(NetworkError::NotPresent(from));
        }
        Ok(self.walk_repairing(from, key, &FaultPlan::transparent(0)))
    }
}

impl Substrate for ChordNetwork {
    fn is_live(&self, id: Id) -> bool {
        ChordNetwork::is_live(self, id)
    }

    fn true_owner(&self, key: Id) -> Option<Id> {
        ChordNetwork::true_owner(self, key)
    }

    fn installed_aux(&self, id: Id) -> &[Id] {
        self.nodes
            .get(&id.value())
            .map_or(&[], |n| n.aux.as_slice())
    }

    /// One Chord arrival, read from the node's table in place: the
    /// fingers, successors and aux pointers feed [`clockwise_closest`],
    /// and [`arrive`] probes its pick. With no live candidate, the node
    /// claims ownership iff the key falls before its first surviving
    /// successor.
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
        let space = self.config.space;
        if trace.hops >= self.config.hop_limit {
            return WalkStep::Done(Err(LookupFailure::HopLimit));
        }
        // Exact hit: the key is this node's own id, which it owns by the
        // predecessor-assignment rule.
        if current == key {
            return WalkStep::Done(Ok(current));
        }
        // The walk only steps to probed-live candidates, so `current`
        // is always present; if the map ever disagrees, degrade to a
        // dead end rather than panic (rule L10).
        let Some(node) = self.nodes.get(&current.value()) else {
            return WalkStep::Done(Err(LookupFailure::DeadEnd(current)));
        };
        arrive(
            self,
            space,
            current,
            true_owner,
            aux_of(current),
            plan,
            trace,
            scratch,
            // A node may only claim ownership when it knows of NOTHING
            // between itself and the key: its successor pointer might be
            // stale while a freshly fixed finger already knows better.
            |aux, dead| {
                let candidates = node.core().chain(aux.iter().copied());
                clockwise_closest(space, current, key, candidates, dead)
            },
            |w| node.core().any(|c| c == w),
            |_, dead| {
                // The repairing walk forgets the dead candidates it probed
                // before anyone reads `successor()` again; skipping exactly
                // those entries reproduces that post-repair successor view
                // read-only.
                let believed = node
                    .successors
                    .iter()
                    .find(|&&s| !dead.contains(&(current, s)));
                // Predecessor assignment: `current` owns keys in
                // [current, successor).
                let owns = match believed {
                    None => true, // believes it is alone
                    Some(&s) => space.between_closed_open(current, key, s),
                };
                if owns {
                    LookupFailure::WrongOwner(current)
                } else {
                    LookupFailure::DeadEnd(current)
                }
            },
        )
    }

    fn forget_neighbor(&mut self, id: Id, dead: Id) {
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.forget(dead);
        }
    }
}
