use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use peercache_faults::{FaultPlan, FaultedRoute, IdHasher, Members, NetworkError, RouteTrace};
use peercache_faults::{StepScratch, Substrate, WalkStep};
use peercache_id::{splitmix64, Id, IdSpace};
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

    /// The ids that qualify for cell (row `l`, column `c`) of `owner`'s
    /// routing table — sharing exactly `l` leading digits with `owner`,
    /// digit `l` equal to `c` — as the one value range they fill, its
    /// lowest and highest value. `None` for `owner`'s own digit (that
    /// column stays empty) and for a cell past the id's digits.
    pub(crate) fn cell_range(&self, owner: Id, l: u8, c: u16) -> Option<(u128, u128)> {
        let b = u32::from(self.space.bits());
        let ld = u32::from(l) * u32::from(self.digit_bits);
        if ld >= b {
            return None;
        }
        let w = u32::from(self.digit_bits).min(b - ld);
        if u32::from(c) >= (1u32 << w) || self.space.digit(owner, l, self.digit_bits).ok()? == c {
            return None;
        }
        let rem = b - ld - w;
        let prefix = if ld == 0 {
            0
        } else {
            owner.value() >> (b - ld)
        };
        let low = ((prefix << w) | u128::from(c)) << rem;
        let ones = if rem == 0 { 0 } else { (1u128 << rem) - 1 };
        Some((low, low | ones))
    }
}

/// Deterministic pseudo-random priority deciding which qualifying node a
/// routing-table cell ends up holding (stands in for the accident of
/// which node was encountered first during joins/row exchanges).
// Truncating casts fold the 128-bit ids into a 64-bit hash input.
#[allow(clippy::cast_possible_truncation)]
fn encounter_score(owner: Id, entry: Id) -> u64 {
    splitmix64(
        (owner.value() ^ entry.value().rotate_left(64)) as u64
            ^ (entry.value() >> 64) as u64
            ^ entry.value() as u64,
    )
}

/// Fill `rows`, the routing table of `owner`, from the live `members`.
/// Cell `(l, c)` takes the id with the lowest [`encounter_score`] among
/// the members in the cell's value range, read in ascending order; a tie
/// keeps the first, the smaller id. The cells partition the ring, so the
/// fill reads each id once and hashes it once.
fn fill_rows(
    config: &PastryConfig,
    owner: Id,
    rows: &mut [Vec<Option<Id>>],
    members: &Members<PastryNode>,
) {
    for (l, row) in (0u8..).zip(rows.iter_mut()) {
        for (c, cell) in (0u16..).zip(row.iter_mut()) {
            // Table cells hold whichever qualifying node the owner
            // happened to learn about (join paths, exchanged rows) — NOT
            // the globally proximity-optimal one. We model "first
            // encountered" with a deterministic per-(owner, entry) hash;
            // a globally optimal fill would make the locality tie-break
            // degenerate (no auxiliary entry could ever win it).
            *cell = config.cell_range(owner, l, c).and_then(|(low, high)| {
                members
                    .range(low, high)
                    .iter()
                    .copied()
                    .min_by_key(|&id| encounter_score(owner, id))
            });
        }
    }
}

/// The true leaf set of `id` over the ascending live `ring`: the
/// `leaf_half` ring neighbours per side (fewer on a small ring), in ring
/// order, counter-clockwise half first. On a two-node ring the one other
/// node is a counter-clockwise leaf only. Empty when `id` is not on the
/// ring or is alone on it.
fn ring_leaves(config: &PastryConfig, ring: &[Id], id: Id) -> Vec<Id> {
    let n = ring.len();
    let Ok(at) = ring.binary_search(&id) else {
        return Vec::new();
    };
    if n <= 1 {
        return Vec::new();
    }
    let take = config.leaf_half.min((n - 1) / 2).max(1);
    let cw = if n == 2 { 0 } else { take };
    (n - take..n)
        .chain(1..=cw)
        .filter_map(|j| ring.get((at + j) % n).copied())
        .collect()
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
    nodes: Members<PastryNode>,
    /// Proximity coordinates per host. Kept apart from the members: a
    /// failed node keeps its coordinates, which survivors still read
    /// through their stale entries for it.
    coords: HashMap<Id, (f64, f64), BuildHasherDefault<IdHasher>>,
}

impl PastryNetwork {
    /// An empty overlay.
    pub fn new(config: PastryConfig) -> Self {
        PastryNetwork {
            config,
            digit_count: config.digit_count,
            arity: 1usize << config.digit_bits,
            nodes: Members::new(),
            coords: HashMap::default(),
        }
    }

    /// Bootstrap a stable overlay with perfect routing state and random
    /// proximity coordinates.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-space ids.
    pub fn build<R: Rng + ?Sized>(config: PastryConfig, ids: &[Id], rng: &mut R) -> Self {
        let mut net = PastryNetwork::new(config);
        let (digit_count, arity) = (net.digit_count, net.arity);
        net.nodes = Members::load(ids.iter().map(|&id| {
            assert!(config.space.contains(id), "node id {id} outside id space");
            (id, PastryNode::new(id, digit_count, arity))
        }));
        net.coords.reserve(ids.len());
        for &id in ids {
            net.coords.insert(id, (rng.gen(), rng.gen()));
        }
        for id in net.live_ids() {
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
        self.nodes.contains(id)
    }

    /// All live node ids in ring order.
    pub fn live_ids(&self) -> Vec<Id> {
        self.nodes.ids().to_vec()
    }

    /// Immutable view of a node.
    pub fn node(&self, id: Id) -> Option<&PastryNode> {
        self.nodes.get(id)
    }

    /// Synthetic latency between two hosts. An id with no coordinates —
    /// possible only for a corrupted (stale-displaced) auxiliary pointer,
    /// since failed nodes keep theirs — is infinitely far: it loses every
    /// locality tie-break but stays eligible on prefix progress, and the
    /// probe to it then times out.
    pub fn proximity(&self, a: Id, b: Id) -> f64 {
        let (Some(&(ax, ay)), Some(&(bx, by))) = (self.coords.get(&a), self.coords.get(&b)) else {
            return f64::INFINITY;
        };
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// The **true owner** of `key`: the numerically closest live node
    /// (ties broken toward the smaller id).
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        // Only the ring predecessor and successor of the key can be
        // closest.
        let pred = self.nodes.at_or_before(key)?;
        let succ = self.nodes.after(key)?;
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

    /// Rebuild a node's core state from global truth (bootstrap / the
    /// periodic repair that models Pastry's maintenance), filling the
    /// node's own table in place.
    pub fn refresh_from_truth(&mut self, id: Id) {
        let Some(node) = self.nodes.get_mut(id) else {
            return;
        };
        let mut rows = std::mem::take(&mut node.rows);
        fill_rows(&self.config, id, &mut rows, &self.nodes);
        let leaves = ring_leaves(&self.config, self.nodes.ids(), id);
        if let Some(node) = self.nodes.get_mut(id) {
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
        if self.nodes.contains(id) {
            return Err(NetworkError::AlreadyPresent(id));
        }
        self.nodes
            .insert(id, PastryNode::new(id, self.digit_count, self.arity));
        self.coords.insert(id, coord); // refreshed on re-join
        self.refresh_from_truth(id);
        // Announce to leaf-set members: they refresh their own leaf sets
        // (and learn the newcomer for their tables opportunistically).
        let announced = self.nodes.get(id).map(|n| n.leaves.clone());
        for member in announced.unwrap_or_default() {
            let leaves = ring_leaves(&self.config, self.nodes.ids(), member);
            let l = self.config.lcp(member, id);
            if let Some(m) = self.nodes.get_mut(member) {
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
        self.nodes.remove(id).ok_or(NetworkError::NotPresent(id))?;
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
        let node = self.nodes.remove(id).ok_or(NetworkError::NotPresent(id))?;
        for member in node.leaves {
            if !self.is_live(member) {
                continue;
            }
            let leaves = ring_leaves(&self.config, self.nodes.ids(), member);
            if let Some(m) = self.nodes.get_mut(member) {
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
        self.nodes.get(id).map_or(&[], |n| n.aux.as_slice())
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
        if let Some(node) = self.nodes.get_mut(id) {
            node.forget(dead);
        }
    }
}
