use std::collections::BTreeMap;

use peercache_faults::{arrive, clockwise_closest, FaultPlan, FaultedRoute, LookupFailure};
use peercache_faults::{Members, NetworkError, RouteTrace, StepScratch, Substrate, WalkStep};
use peercache_id::{Id, IdSpace};

/// Configuration of a skip-graph deployment.
#[derive(Copy, Clone, Debug)]
pub struct SkipGraphConfig {
    /// The identifier (key) space.
    pub space: IdSpace,
    /// Defensive per-search hop budget.
    pub hop_limit: u32,
}

impl SkipGraphConfig {
    /// A configuration over `space` with a `4·b` hop budget.
    pub fn new(space: IdSpace) -> Self {
        SkipGraphConfig {
            space,
            hop_limit: 4 * u32::from(space.bits()),
        }
    }
}

/// Deterministic membership vector: 64 pseudo-random bits derived from
/// the node id (SplitMix64 finalizer), so rebuilds are reproducible.
/// Truncating casts fold the 128-bit id into the 64-bit hash input.
#[allow(clippy::cast_possible_truncation)]
fn membership_vector(id: Id) -> u64 {
    let mut z = (id.value() as u64) ^ ((id.value() >> 64) as u64) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One skip-graph node: per-level ring links plus auxiliary neighbors.
#[derive(Clone, Debug)]
pub struct SkipNode {
    /// This node's key.
    pub id: Id,
    /// The membership vector (level `i` links nodes sharing its first
    /// `i` bits).
    pub mv: u64,
    /// Per level: the nearest clockwise node sharing `i` membership bits
    /// (SkipNet-style ring orientation; the counter-clockwise link is
    /// implied by the partner's entry).
    pub levels: Vec<Option<Id>>,
    /// Auxiliary neighbors installed by the selection algorithm.
    pub aux: Vec<Id>,
}

impl SkipNode {
    /// A node with no links yet.
    fn new(id: Id) -> Self {
        SkipNode {
            id,
            mv: membership_vector(id),
            levels: Vec::new(),
            aux: Vec::new(),
        }
    }

    /// All distinct known nodes (level links + auxiliaries).
    pub fn known_neighbors(&self) -> Vec<Id> {
        let mut out: Vec<Id> = self
            .core()
            .chain(self.aux.iter().copied().filter(|&n| n != self.id))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The level links in place, self excluded, duplicates kept. Routing
    /// reads its candidates from here without building a list.
    fn core(&self) -> impl Iterator<Item = Id> + '_ {
        self.levels
            .iter()
            .flatten()
            .copied()
            .filter(move |&n| n != self.id)
    }

    /// The core neighbors (level links only) — the `N_s` for selection.
    pub fn core_neighbors(&self) -> Vec<Id> {
        let mut out = Vec::new();
        self.core_neighbors_into(&mut out);
        out
    }

    /// [`core_neighbors`](Self::core_neighbors) into a caller-owned
    /// buffer — the arena-facing walk API: a sweep over many nodes reuses
    /// one buffer instead of allocating a fresh vector per node.
    pub fn core_neighbors_into(&self, out: &mut Vec<Id>) {
        out.clear();
        out.extend(self.core());
        out.sort_unstable();
        out.dedup();
    }

    /// Drop a discovered-dead neighbor.
    pub fn forget(&mut self, dead: Id) {
        for l in &mut self.levels {
            if *l == Some(dead) {
                *l = None;
            }
        }
        self.aux.retain(|&a| a != dead);
    }
}

/// The whole simulated skip graph (SkipNet-style ring orientation: keys
/// sorted on a ring, searches move clockwise, owner = predecessor).
///
/// ```
/// use peercache_id::{Id, IdSpace};
/// use peercache_skipgraph::{SkipGraphConfig, SkipGraphNetwork};
///
/// let space = IdSpace::new(8).unwrap();
/// let ids: Vec<Id> = [10u128, 80, 150, 220].map(Id::new).to_vec();
/// let mut graph = SkipGraphNetwork::build(SkipGraphConfig::new(space), &ids);
/// assert_eq!(graph.true_owner(Id::new(100)), Some(Id::new(80)));
/// let res = graph.search(Id::new(10), Id::new(100)).unwrap();
/// assert!(res.is_success());
/// // Level 0 links the whole ring; higher levels skip exponentially.
/// assert!(graph.node(Id::new(10)).unwrap().levels[0].is_some());
/// ```
#[derive(Clone)]
pub struct SkipGraphNetwork {
    config: SkipGraphConfig,
    nodes: Members<SkipNode>,
}

impl SkipGraphNetwork {
    /// An empty graph.
    pub fn new(config: SkipGraphConfig) -> Self {
        SkipGraphNetwork {
            config,
            nodes: Members::new(),
        }
    }

    /// Bootstrap a stable graph with perfect level links.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-space ids.
    pub fn build(config: SkipGraphConfig, ids: &[Id]) -> Self {
        let nodes = Members::load(ids.iter().map(|&id| {
            assert!(config.space.contains(id), "node id {id} outside key space");
            (id, SkipNode::new(id))
        }));
        let mut net = SkipGraphNetwork { config, nodes };
        net.rebuild_all();
        net
    }

    /// The configuration.
    pub fn config(&self) -> &SkipGraphConfig {
        &self.config
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: Id) -> bool {
        self.nodes.contains(id)
    }

    /// All live node ids in key order.
    pub fn live_ids(&self) -> Vec<Id> {
        self.nodes.ids().to_vec()
    }

    /// Immutable view of a node.
    pub fn node(&self, id: Id) -> Option<&SkipNode> {
        self.nodes.get(id)
    }

    /// The true owner of `key`: its predecessor on the key ring.
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        self.nodes.at_or_before(key)
    }

    /// Recompute every node's level links from global truth: level `i`
    /// partitions the sorted membership by `i`-bit membership-vector
    /// prefix; each partition is a cyclic list in key order.
    pub fn rebuild_all(&mut self) {
        let ids = self.live_ids();
        let mvs: Vec<u64> = ids.iter().map(|&id| membership_vector(id)).collect();
        let mut links: Vec<Vec<Option<Id>>> = vec![Vec::new(); ids.len()];
        let mut level = 0u32;
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        loop {
            groups.clear();
            let mask = if level == 0 {
                0
            } else if level >= 64 {
                u64::MAX
            } else {
                (1u64 << level) - 1
            };
            for (idx, &mv) in mvs.iter().enumerate() {
                groups.entry(mv & mask).or_default().push(idx);
            }
            let mut any_linked = false;
            for members in groups.values() {
                if members.len() < 2 {
                    for &m in members {
                        links[m].push(None);
                    }
                    continue;
                }
                any_linked = true;
                for (pos, &m) in members.iter().enumerate() {
                    let next = members[(pos + 1) % members.len()];
                    links[m].push(Some(ids[next]));
                }
            }
            level += 1;
            if !any_linked || level > 64 {
                break;
            }
        }
        for (&id, levels) in ids.iter().zip(links) {
            if let Some(node) = self.nodes.get_mut(id) {
                node.levels = levels;
            }
        }
    }

    /// Re-link a single node's levels from global truth (the per-node
    /// repair a periodic stabilization performs): for each level, scan
    /// clockwise for the nearest live node sharing the level's membership
    /// prefix.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn refresh_node(&mut self, id: Id) -> Result<(), NetworkError> {
        let my_mv = self.nodes.get(id).ok_or(NetworkError::NotPresent(id))?.mv;
        let ids = self.nodes.ids();
        let start = ids.partition_point(|&w| w < id);
        let mut levels = Vec::new();
        for level in 0u32..=64 {
            let mask = if level == 0 {
                0
            } else if level >= 64 {
                u64::MAX
            } else {
                (1u64 << level) - 1
            };
            let mut found = None;
            for step in 1..ids.len() {
                let w = ids[(start + step) % ids.len()];
                if membership_vector(w) & mask == my_mv & mask {
                    found = Some(w);
                    break;
                }
            }
            let done = found.is_none();
            levels.push(found);
            if done {
                break;
            }
        }
        if let Some(node) = self.nodes.get_mut(id) {
            node.levels = levels;
        }
        Ok(())
    }

    /// A node joins; the whole structure is re-linked (the simulation
    /// analogue of the skip-graph join walking each level).
    ///
    /// # Errors
    /// [`NetworkError::AlreadyPresent`] / [`NetworkError::OutOfSpace`].
    pub fn join(&mut self, id: Id) -> Result<(), NetworkError> {
        if !self.config.space.contains(id) {
            return Err(NetworkError::OutOfSpace(id));
        }
        if self.nodes.contains(id) {
            return Err(NetworkError::AlreadyPresent(id));
        }
        self.nodes.insert(id, SkipNode::new(id));
        self.rebuild_all();
        Ok(())
    }

    /// A node crashes; survivors keep stale links until
    /// [`rebuild_all`](Self::rebuild_all) (searches route around corpses
    /// meanwhile, paying failed probes).
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn fail(&mut self, id: Id) -> Result<(), NetworkError> {
        self.nodes
            .remove(id)
            .map(|_| ())
            .ok_or(NetworkError::NotPresent(id))
    }

    /// Install the auxiliary neighbor set (dead entries dropped).
    /// The node's installed buffer is recycled, so re-installing a
    /// selection at warmed capacity allocates nothing (the churn
    /// driver's refresh engine does so every recompute tick).
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn set_aux(&mut self, id: Id, aux: &[Id]) -> Result<(), NetworkError> {
        let mut live = match self.nodes.get_mut(id) {
            Some(node) => std::mem::take(&mut node.aux),
            None => return Err(NetworkError::NotPresent(id)),
        };
        live.clear();
        live.extend(aux.iter().copied().filter(|&a| self.is_live(a)));
        if let Some(node) = self.nodes.get_mut(id) {
            node.aux = live;
        }
        Ok(())
    }

    /// Search for `key` from `from`: clockwise-monotone greedy over level
    /// links and auxiliaries (never overshooting the key), terminating at
    /// the believed predecessor. This is the repairing walk
    /// ([`Substrate::walk_repairing`]) over the one forwarding rule,
    /// [`Substrate::step`], under a transparent plan: dead links probed
    /// along the way are forgotten (and counted as `trace.timeouts`).
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`] when `from` is not live.
    pub fn search(&mut self, from: Id, key: Id) -> Result<FaultedRoute, NetworkError> {
        if !self.is_live(from) {
            return Err(NetworkError::NotPresent(from));
        }
        Ok(self.walk_repairing(from, key, &FaultPlan::transparent(0)))
    }
}

impl Substrate for SkipGraphNetwork {
    fn is_live(&self, id: Id) -> bool {
        SkipGraphNetwork::is_live(self, id)
    }

    fn true_owner(&self, key: Id) -> Option<Id> {
        SkipGraphNetwork::true_owner(self, key)
    }

    fn installed_aux(&self, id: Id) -> &[Id] {
        self.nodes.get(id).map_or(&[], |n| n.aux.as_slice())
    }

    /// One skip-graph arrival, read from the node's links in place: the
    /// level links and aux pointers feed [`clockwise_closest`], and
    /// [`arrive`] probes its pick. With no live candidate, `current` is
    /// the believed predecessor of the key.
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
        if current == key {
            return WalkStep::Done(Ok(current));
        }
        // The walk only steps to probed-live candidates, so `current`
        // is always present; if the map ever disagrees, degrade to a
        // dead end rather than panic (rule L10).
        let Some(node) = self.nodes.get(current) else {
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
            |aux, dead| {
                let candidates = node.core().chain(aux.iter().copied());
                clockwise_closest(space, current, key, candidates, dead)
            },
            |w| node.core().any(|c| c == w),
            |_, _| LookupFailure::WrongOwner(current),
        )
    }

    fn forget_neighbor(&mut self, id: Id, dead: Id) {
        if let Some(node) = self.nodes.get_mut(id) {
            node.forget(dead);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_vectors_are_deterministic_and_spread() {
        let a = membership_vector(Id::new(1));
        assert_eq!(a, membership_vector(Id::new(1)));
        let b = membership_vector(Id::new(2));
        assert_ne!(a, b);
        // Bits look balanced over many ids.
        let ones: u32 = (0..1000u128)
            .map(|i| (membership_vector(Id::new(i)) & 1) as u32)
            .sum();
        assert!((350..=650).contains(&ones), "bit balance: {ones}");
    }
}
