use std::collections::BTreeMap;

use peercache_faults::{FaultPlan, FaultedRoute, NetworkError, RouteTrace, StepScratch};
use peercache_faults::{Substrate, WalkStep};
use peercache_id::{Id, IdSpace};
use rand::Rng;

use crate::node::PastryNode;
use crate::{rule, RoutingMode};

/// Configuration of a Pastry deployment.
#[derive(Copy, Clone, Debug)]
pub struct PastryConfig {
    /// The identifier space.
    pub space: IdSpace,
    /// Digit width in bits (`d`; the paper exposits `d = 1`).
    pub digit_bits: u8,
    /// Digits per id (`⌈b/d⌉`; derived once in [`PastryConfig::new`] so
    /// every later consumer reads a validated value).
    pub digit_count: u8,
    /// Leaf-set entries per side.
    pub leaf_half: usize,
    /// Next-hop tie-breaking policy.
    pub mode: RoutingMode,
    /// Defensive per-route hop budget.
    pub hop_limit: u32,
}

impl PastryConfig {
    /// Locality-aware configuration over `space` with digit width `d`,
    /// four leaves per side, and a `4·⌈b/d⌉` hop budget.
    ///
    /// # Panics
    /// Panics when `digit_bits` does not divide the id-space width — a
    /// configuration is programmer input.
    pub fn new(space: IdSpace, digit_bits: u8) -> Self {
        let digit_count = space.digit_count(digit_bits).unwrap_or(0);
        assert!(digit_count > 0, "digit width must divide the id space");
        PastryConfig {
            space,
            digit_bits,
            digit_count,
            leaf_half: 4,
            mode: RoutingMode::LocalityAware,
            hop_limit: 4 * u32::from(digit_count),
        }
    }

    /// The same configuration with a different routing mode.
    pub fn with_mode(mut self, mode: RoutingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Absolute ring distance (numerical closeness metric, §II-A).
    pub(crate) fn ring_abs(&self, a: Id, b: Id) -> u128 {
        self.space
            .clockwise_distance(a, b)
            .min(self.space.clockwise_distance(b, a))
    }

    /// Shared digit-aligned prefix length of `a` and `b`. The digit width
    /// is validated by [`PastryConfig::new`], so the error arm is
    /// unreachable; 0 is a safe (no-shared-prefix) fallback that keeps
    /// routing well-defined regardless.
    pub(crate) fn lcp(&self, a: Id, b: Id) -> u8 {
        self.space
            .common_prefix_digits(a, b, self.digit_bits)
            .unwrap_or(0)
    }
}

/// Deterministic pseudo-random priority deciding which qualifying node a
/// routing-table cell ends up holding (stands in for the accident of
/// which node was encountered first during joins/row exchanges).
// Truncating casts fold the 128-bit ids into a 64-bit hash input.
#[allow(clippy::cast_possible_truncation)]
fn encounter_score(owner: Id, entry: Id) -> u64 {
    let mixed = (owner.value() ^ entry.value().rotate_left(64)) as u64
        ^ (entry.value() >> 64) as u64
        ^ entry.value() as u64;
    // SplitMix64 finalizer.
    let mut z = mixed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The whole simulated Pastry overlay.
///
/// ```
/// use peercache_id::{Id, IdSpace};
/// use peercache_pastry::{PastryConfig, PastryNetwork};
/// use rand::SeedableRng;
///
/// let space = IdSpace::new(8).unwrap();
/// let ids: Vec<Id> = [0b0001_0000u128, 0b0101_0000, 0b1001_0000, 0b1101_0000]
///     .map(Id::new)
///     .to_vec();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut overlay = PastryNetwork::build(PastryConfig::new(space, 1), &ids, &mut rng);
/// // Keys belong to the numerically closest node.
/// assert_eq!(overlay.true_owner(Id::new(0b0100_0000)), Some(Id::new(0b0101_0000)));
/// let route = overlay.route(ids[0], Id::new(0b1100_1111)).unwrap();
/// assert!(route.is_success());
/// assert_eq!(route.trace.path.last(), Some(&Id::new(0b1101_0000)));
/// ```
#[derive(Clone)]
pub struct PastryNetwork {
    config: PastryConfig,
    digit_count: u8,
    arity: usize,
    nodes: BTreeMap<u128, PastryNode>,
    coords: BTreeMap<u128, (f64, f64)>,
}

impl PastryNetwork {
    /// An empty overlay.
    pub fn new(config: PastryConfig) -> Self {
        PastryNetwork {
            config,
            digit_count: config.digit_count,
            arity: 1usize << config.digit_bits,
            nodes: BTreeMap::new(),
            coords: BTreeMap::new(),
        }
    }

    /// Bootstrap a stable overlay with perfect routing state and random
    /// proximity coordinates.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-space ids.
    pub fn build<R: Rng + ?Sized>(config: PastryConfig, ids: &[Id], rng: &mut R) -> Self {
        let mut net = PastryNetwork::new(config);
        for &id in ids {
            assert!(config.space.contains(id), "node id {id} outside id space");
            let node = PastryNode::new(id, net.digit_count, net.arity);
            assert!(
                net.nodes.insert(id.value(), node).is_none(),
                "duplicate node id {id}"
            );
            net.coords.insert(id.value(), (rng.gen(), rng.gen()));
        }
        for &id in ids {
            net.refresh_from_truth(id);
        }
        net
    }

    /// The configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.config
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the overlay has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: Id) -> bool {
        self.nodes.contains_key(&id.value())
    }

    /// All live node ids in ring order.
    pub fn live_ids(&self) -> Vec<Id> {
        self.nodes.keys().map(|&k| Id::new(k)).collect()
    }

    /// Immutable view of a node.
    pub fn node(&self, id: Id) -> Option<&PastryNode> {
        self.nodes.get(&id.value())
    }

    /// Synthetic latency between two hosts. An id with no coordinates —
    /// possible only for a corrupted (stale-displaced) auxiliary pointer,
    /// since failed nodes keep theirs — is infinitely far: it loses every
    /// locality tie-break but stays eligible on prefix progress, and the
    /// probe to it then times out.
    pub fn proximity(&self, a: Id, b: Id) -> f64 {
        let (Some(&(ax, ay)), Some(&(bx, by))) =
            (self.coords.get(&a.value()), self.coords.get(&b.value()))
        else {
            return f64::INFINITY;
        };
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// The **true owner** of `key`: the numerically closest live node
    /// (ties broken toward the smaller id).
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        if self.nodes.is_empty() {
            return None;
        }
        // Only the ring predecessor and successor of the key can be
        // closest.
        let pred = self
            .nodes
            .range(..=key.value())
            .next_back()
            .or_else(|| self.nodes.iter().next_back())
            .map(|(&k, _)| Id::new(k))?;
        let succ = key
            .value()
            .checked_add(1)
            .and_then(|s| self.nodes.range(s..).next())
            .or_else(|| self.nodes.iter().next())
            .map(|(&k, _)| Id::new(k))?;
        let (dp, ds) = (
            self.config.ring_abs(pred, key),
            self.config.ring_abs(succ, key),
        );
        Some(match dp.cmp(&ds) {
            std::cmp::Ordering::Less => pred,
            std::cmp::Ordering::Greater => succ,
            std::cmp::Ordering::Equal => {
                if pred.value() <= succ.value() {
                    pred
                } else {
                    succ
                }
            }
        })
    }

    /// True leaf set of `id`: `leaf_half` ring neighbors per side
    /// (counter-clockwise first, ring order).
    fn true_leaves(&self, id: Id) -> Vec<Id> {
        let n = self.nodes.len();
        if n <= 1 {
            return Vec::new();
        }
        let take = self.config.leaf_half.min((n - 1) / 2).max(1);
        let mut ccw = Vec::with_capacity(take);
        let mut cw = Vec::with_capacity(take);
        let mut cur = id.value();
        for _ in 0..take.min(n - 1) {
            let Some(prev) = self
                .nodes
                .range(..cur)
                .next_back()
                .or_else(|| self.nodes.iter().next_back())
                .map(|(&k, _)| k)
            else {
                break;
            };
            if prev == id.value() || ccw.contains(&prev) {
                break;
            }
            ccw.push(prev);
            cur = prev;
        }
        cur = id.value();
        for _ in 0..take.min(n - 1) {
            let Some(next) = cur
                .checked_add(1)
                .and_then(|s| self.nodes.range(s..).next())
                .or_else(|| self.nodes.iter().next())
                .map(|(&k, _)| k)
            else {
                break;
            };
            if next == id.value() || cw.contains(&next) || ccw.contains(&next) {
                break;
            }
            cw.push(next);
            cur = next;
        }
        ccw.reverse();
        ccw.into_iter().chain(cw).map(Id::new).collect()
    }

    /// Rebuild a node's core state from global truth (bootstrap / the
    /// periodic repair that models Pastry's maintenance).
    pub fn refresh_from_truth(&mut self, id: Id) {
        let leaves = self.true_leaves(id);
        let mut rows = vec![vec![None; self.arity]; self.digit_count as usize];
        for &other_raw in self.nodes.keys() {
            let other = Id::new(other_raw);
            if other == id {
                continue;
            }
            let l = self.config.lcp(id, other);
            if l >= self.digit_count {
                continue;
            }
            let Ok(col) = self.config.space.digit(other, l, self.config.digit_bits) else {
                continue; // unreachable: l < digit_count and width is validated
            };
            let cell: &mut Option<Id> = &mut rows[l as usize][col as usize];
            // Table cells hold whichever qualifying node the owner
            // happened to learn about (join paths, exchanged rows) — NOT
            // the globally proximity-optimal one. We model "first
            // encountered" with a deterministic per-(owner, entry) hash;
            // a globally optimal fill would make the locality tie-break
            // degenerate (no auxiliary entry could ever win it).
            let replace = match *cell {
                None => true,
                Some(existing) => encounter_score(id, other) < encounter_score(id, existing),
            };
            if replace {
                *cell = Some(other);
            }
        }
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.leaves = leaves;
            node.rows = rows;
        }
    }

    /// Repair every node (a full maintenance round).
    pub fn repair_all(&mut self) {
        for id in self.live_ids() {
            self.refresh_from_truth(id);
        }
    }

    // ---- membership ------------------------------------------------------

    /// A node joins at `coord`: it builds its own state and is announced
    /// to its leaf-set members (Pastry's join notifies them); everyone
    /// else's routing tables stay stale until repair.
    ///
    /// # Errors
    /// [`NetworkError::AlreadyPresent`] / [`NetworkError::OutOfSpace`].
    pub fn join(&mut self, id: Id, coord: (f64, f64)) -> Result<(), NetworkError> {
        if !self.config.space.contains(id) {
            return Err(NetworkError::OutOfSpace(id));
        }
        if self.nodes.contains_key(&id.value()) {
            return Err(NetworkError::AlreadyPresent(id));
        }
        self.nodes.insert(
            id.value(),
            PastryNode::new(id, self.digit_count, self.arity),
        );
        self.coords.insert(id.value(), coord); // refreshed on re-join
        self.refresh_from_truth(id);
        // Announce to leaf-set members: they refresh their own leaf sets
        // (and learn the newcomer for their tables opportunistically).
        for member in self.nodes[&id.value()].leaves.clone() {
            let leaves = self.true_leaves(member);
            let l = self.config.lcp(member, id);
            if let Some(m) = self.nodes.get_mut(&member.value()) {
                m.leaves = leaves;
                if l < self.digit_count {
                    // fill the table cell if empty (no proximity probe on
                    // announcement)
                    if let Ok(col) = self.config.space.digit(id, l, self.config.digit_bits) {
                        let cell = &mut m.rows[l as usize][col as usize];
                        if cell.is_none() {
                            *cell = Some(id);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A node crashes without notice.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn fail(&mut self, id: Id) -> Result<(), NetworkError> {
        self.nodes
            .remove(&id.value())
            .ok_or(NetworkError::NotPresent(id))?;
        // Coordinates describe the physical host and are kept: survivors
        // still hold (stale) entries for the corpse and evaluate their
        // proximity before probing them.
        Ok(())
    }

    /// A node leaves gracefully: its leaf-set members patch their leaf
    /// sets immediately; routing-table entries elsewhere stay stale.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn leave(&mut self, id: Id) -> Result<(), NetworkError> {
        let node = self
            .nodes
            .remove(&id.value())
            .ok_or(NetworkError::NotPresent(id))?;
        for member in node.leaves {
            if !self.is_live(member) {
                continue;
            }
            let leaves = self.true_leaves(member);
            if let Some(m) = self.nodes.get_mut(&member.value()) {
                m.forget(id);
                m.leaves = leaves;
            }
        }
        Ok(())
    }

    /// Install the auxiliary neighbor set for `id` (dead entries dropped).
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

    /// Route a query for `key` from `from` under the configured
    /// [`RoutingMode`]: the repairing walk
    /// ([`Substrate::walk_repairing`]) over the one forwarding rule,
    /// [`Substrate::step`], under a transparent plan. Dead entries probed
    /// along the way are forgotten (and counted as `trace.timeouts`) and
    /// the decision re-runs without them.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`] when `from` is not live.
    pub fn route(&mut self, from: Id, key: Id) -> Result<FaultedRoute, NetworkError> {
        if !self.is_live(from) {
            return Err(NetworkError::NotPresent(from));
        }
        Ok(self.walk_repairing(from, key, &FaultPlan::transparent(0)))
    }
}

impl Substrate for PastryNetwork {
    fn is_live(&self, id: Id) -> bool {
        PastryNetwork::is_live(self, id)
    }

    fn true_owner(&self, key: Id) -> Option<Id> {
        PastryNetwork::true_owner(self, key)
    }

    fn installed_aux(&self, id: Id) -> &[Id] {
        self.nodes
            .get(&id.value())
            .map_or(&[], |n| n.aux.as_slice())
    }

    /// One Pastry arrival: the forwarding rule shared with
    /// [`PastryArena`](crate::PastryArena).
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
        rule::step(self, current, key, true_owner, aux_of, plan, trace, scratch)
    }

    fn forget_neighbor(&mut self, id: Id, dead: Id) {
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.forget(dead);
        }
    }
}
