use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use peercache_faults::{FaultPlan, LookupFailure, RouteTrace, StepScratch, Substrate, WalkStep};
use peercache_id::{Id, IdSpace};

use crate::RouteResult;

/// Configuration of a Tapestry deployment.
#[derive(Copy, Clone, Debug)]
pub struct TapestryConfig {
    /// The identifier space.
    pub space: IdSpace,
    /// Digit width in bits.
    pub digit_bits: u8,
    /// Defensive per-route hop budget.
    pub hop_limit: u32,
}

impl TapestryConfig {
    /// A configuration over `space` with digit width `d` and a
    /// `4·⌈b/d⌉` hop budget.
    pub fn new(space: IdSpace, digit_bits: u8) -> Self {
        let digits = u32::from(
            space
                .digit_count(digit_bits)
                .expect("digit width must fit the id space"),
        );
        TapestryConfig {
            space,
            digit_bits,
            hop_limit: 4 * digits,
        }
    }
}

/// Errors from membership operations.
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

/// One Tapestry node: a digit-indexed routing table (no leaf set) plus
/// auxiliary neighbors.
#[derive(Clone, Debug)]
pub struct TapestryNode {
    /// This node's identifier.
    pub id: Id,
    /// `rows[l][c]`: a node sharing exactly `l` leading digits whose
    /// digit `l` is `c`. The own-digit column is structurally empty.
    pub rows: Vec<Vec<Option<Id>>>,
    /// Auxiliary neighbors installed by the selection algorithm.
    pub aux: Vec<Id>,
}

impl TapestryNode {
    fn new(id: Id, digit_count: u8, arity: usize) -> Self {
        TapestryNode {
            id,
            rows: vec![vec![None; arity]; digit_count as usize],
            aux: Vec::new(),
        }
    }

    /// The table entries in place, self excluded, duplicates kept.
    fn core(&self) -> impl Iterator<Item = Id> + '_ {
        self.rows
            .iter()
            .flatten()
            .flatten()
            .copied()
            .filter(move |&n| n != self.id)
    }

    /// Routing-table cell `(row, col)`.
    fn cell(&self, row: u8, col: usize) -> Option<Id> {
        *self.rows.get(usize::from(row))?.get(col)?
    }

    /// The core neighbors (routing table only) — the `N_s` for selection.
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
        for row in &mut self.rows {
            for cell in row.iter_mut() {
                if *cell == Some(dead) {
                    *cell = None;
                }
            }
        }
        self.aux.retain(|&a| a != dead);
    }
}

/// The whole simulated Tapestry overlay.
///
/// ```
/// use peercache_id::{Id, IdSpace};
/// use peercache_tapestry::{TapestryConfig, TapestryNetwork};
///
/// let space = IdSpace::new(4).unwrap();
/// let ids: Vec<Id> = [0b0000u128, 0b0110, 0b1011].map(Id::new).to_vec();
/// let mut net = TapestryNetwork::build(TapestryConfig::new(space, 1), &ids);
/// // A key's owner is its surrogate root — the deepest prefix match.
/// assert_eq!(net.true_owner(Id::new(0b1010)), Some(Id::new(0b1011)));
/// let res = net.route(Id::new(0b0000), Id::new(0b1010)).unwrap();
/// assert!(res.is_success());
/// ```
#[derive(Clone)]
pub struct TapestryNetwork {
    config: TapestryConfig,
    digit_count: u8,
    arity: usize,
    nodes: BTreeMap<u128, TapestryNode>,
}

impl TapestryNetwork {
    /// An empty overlay.
    pub fn new(config: TapestryConfig) -> Self {
        let digit_count = config
            .space
            .digit_count(config.digit_bits)
            .expect("validated by TapestryConfig");
        TapestryNetwork {
            config,
            digit_count,
            arity: 1usize << config.digit_bits,
            nodes: BTreeMap::new(),
        }
    }

    /// Bootstrap a stable overlay with perfect routing state.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-space ids.
    pub fn build(config: TapestryConfig, ids: &[Id]) -> Self {
        let mut net = TapestryNetwork::new(config);
        for &id in ids {
            assert!(config.space.contains(id), "node id {id} outside id space");
            let node = TapestryNode::new(id, net.digit_count, net.arity);
            assert!(
                net.nodes.insert(id.value(), node).is_none(),
                "duplicate node id {id}"
            );
        }
        for &id in ids {
            net.refresh_from_truth(id);
        }
        net
    }

    /// The configuration.
    pub fn config(&self) -> &TapestryConfig {
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

    /// All live node ids in order.
    pub fn live_ids(&self) -> Vec<Id> {
        self.nodes.keys().map(|&k| Id::new(k)).collect()
    }

    /// Immutable view of a node.
    pub fn node(&self, id: Id) -> Option<&TapestryNode> {
        self.nodes.get(&id.value())
    }

    fn digit(&self, id: Id, row: u8) -> usize {
        self.config
            .space
            .digit(id, row, self.config.digit_bits)
            .expect("row < digit_count") as usize
    }

    fn lcp(&self, a: Id, b: Id) -> u8 {
        self.config
            .space
            .common_prefix_digits(a, b, self.config.digit_bits)
            .expect("validated digit width")
    }

    /// The key's **surrogate root**: resolve digits left to right over the
    /// live membership; where no survivor matches the key's digit, bump
    /// the digit cyclically to the next value some survivor has
    /// (Tapestry's deterministic surrogate rule).
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut survivors: Vec<Id> = self.live_ids();
        for row in 0..self.digit_count {
            if survivors.len() == 1 {
                break;
            }
            let want = self.digit(key, row);
            for offset in 0..self.arity {
                let v = (want + offset) % self.arity;
                let next: Vec<Id> = survivors
                    .iter()
                    .copied()
                    .filter(|&s| self.digit(s, row) == v)
                    .collect();
                if !next.is_empty() {
                    survivors = next;
                    break;
                }
            }
        }
        survivors.into_iter().min()
    }

    /// Rebuild a node's routing table from global truth (bootstrap /
    /// periodic repair). Cell `(l, c)` holds the smallest-id qualifying
    /// node — the deterministic rule that keeps surrogate roots unique.
    pub fn refresh_from_truth(&mut self, id: Id) {
        let mut rows = vec![vec![None; self.arity]; self.digit_count as usize];
        for &other_raw in self.nodes.keys() {
            let other = Id::new(other_raw);
            if other == id {
                continue;
            }
            let l = self.lcp(id, other);
            if l >= self.digit_count {
                continue;
            }
            let col = self.digit(other, l);
            let cell: &mut Option<Id> = &mut rows[l as usize][col];
            // BTreeMap iteration is id-ascending, so first fill wins =
            // smallest id.
            if cell.is_none() {
                *cell = Some(other);
            }
        }
        let node = self.nodes.get_mut(&id.value()).expect("live node");
        node.rows = rows;
    }

    /// Repair every node.
    pub fn repair_all(&mut self) {
        for id in self.live_ids() {
            self.refresh_from_truth(id);
        }
    }

    /// A node joins (own state perfect; others stale until repair).
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
        self.nodes.insert(
            id.value(),
            TapestryNode::new(id, self.digit_count, self.arity),
        );
        self.refresh_from_truth(id);
        Ok(())
    }

    /// A node crashes without notice.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn fail(&mut self, id: Id) -> Result<(), NetworkError> {
        self.nodes
            .remove(&id.value())
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

    /// Route a query for `key` from `from`: the repairing walk
    /// ([`Substrate::walk_repairing`]) over the one forwarding rule,
    /// [`Substrate::step`]. Dead entries probed along the way are
    /// forgotten (and counted as `failed_probes`) and the decision
    /// re-runs without them.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`] when `from` is not live.
    pub fn route(&mut self, from: Id, key: Id) -> Result<RouteResult, NetworkError> {
        RouteResult::from_route(self.walk_repairing(from, key, &FaultPlan::transparent(0)))
            .ok_or(NetworkError::NotPresent(from))
    }

    /// The forwarding decision at `current`, read from its table in
    /// place: auxiliary/table shortcut on maximal prefix progress first
    /// (§III-1), then the surrogate loop, with `extra` standing in for
    /// the auxiliary set of `current`. `None` means `current` believes it
    /// is the root. Every `(prober, target)` pair in `dead` with
    /// `prober == current` is treated as already forgotten: the read-only
    /// walk filters a timed-out entry instead of erasing it from
    /// `current`'s tables, so a repairing caller that evicts the pairs
    /// afterwards ends with the tables the walk routed over.
    ///
    /// A row-`r` entry shares exactly `r` digits with `current`. For a
    /// key sharing `l` digits, a row below `l` differs from the key at its
    /// own row and a row above `l` carries `current`'s digit `l`, so of
    /// the table only cell `(l, key digit l)` can advance the prefix.
    fn next_hop(
        &self,
        node: &TapestryNode,
        current: Id,
        key: Id,
        extra: &[Id],
        dead: &[(Id, Id)],
    ) -> Option<Id> {
        if current == key {
            return None;
        }
        let usable = |w: Id| !dead.contains(&(current, w));
        let l = self.lcp(current, key);
        let best = extra
            .iter()
            .copied()
            .chain(node.cell(l, self.digit(key, l)))
            .filter(|&w| usable(w) && self.lcp(w, key) > l)
            .max_by_key(|&w| (self.lcp(w, key), std::cmp::Reverse(w)));
        if best.is_some() {
            return best;
        }
        // Surrogate loop: resolve rows from l; at each row try the key's
        // digit, then bump cyclically; our own digit means we carry the
        // row ourselves and move on.
        for row in l..self.digit_count {
            let want = self.digit(key, row);
            let own = self.digit(current, row);
            for offset in 0..self.arity {
                let v = (want + offset) % self.arity;
                if v == own {
                    break; // current carries this digit; next row
                }
                if let Some(w) = node.cell(row, v).filter(|&w| usable(w)) {
                    return Some(w);
                }
            }
        }
        None
    }

    /// Whether `w` is a table entry of `current` rather than an
    /// auxiliary-only pointer: a table entry can only sit in the cell its
    /// shared prefix with `current` dictates.
    fn is_core(&self, node: &TapestryNode, current: Id, w: Id) -> bool {
        let row = self.lcp(current, w);
        row < self.digit_count && node.cell(row, self.digit(w, row)) == Some(w)
    }
}

impl Substrate for TapestryNetwork {
    fn is_live(&self, id: Id) -> bool {
        TapestryNetwork::is_live(self, id)
    }

    fn true_owner(&self, key: Id) -> Option<Id> {
        TapestryNetwork::true_owner(self, key)
    }

    fn installed_aux(&self, id: Id) -> &[Id] {
        self.nodes
            .get(&id.value())
            .map_or(&[], |n| n.aux.as_slice())
    }

    /// One Tapestry arrival, read from the node's table in place: decide
    /// the next hop (maximal prefix progress, then the surrogate loop)
    /// and probe it; a timed-out hop is excluded through
    /// `trace.dead_probed` and the decision re-runs. Under a non-transparent
    /// plan, the first timed-out **auxiliary-only** hop bans the
    /// remaining auxiliary pointers at this node, falling back to core
    /// routing state (`trace.fallbacks`). With no hop left, a node whose
    /// every known entry is excluded is a dead end; otherwise it wrongly
    /// claims to be the root.
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
        if trace.hops >= self.config.hop_limit {
            return WalkStep::Done(Err(LookupFailure::HopLimit));
        }
        // A walk only arrives at live members; a node without state knows
        // no next hop, so degrade to its terminal verdict (rule L10).
        let Some(node) = self.nodes.get(&current.value()) else {
            return WalkStep::Done(if current == true_owner {
                Ok(current)
            } else {
                Err(LookupFailure::WrongOwner(current))
            });
        };
        let aux = plan.resolve_aux(
            self.config.space,
            current,
            aux_of(current),
            &mut scratch.aux,
        );
        let mut aux_banned = false;
        loop {
            let extra: &[Id] = if aux_banned { &[] } else { aux };
            let dead = &trace.dead_probed;
            let Some(next) = self.next_hop(node, current, key, extra, dead) else {
                let outcome = if current == true_owner {
                    Ok(current)
                } else if self.len() > 1
                    && node
                        .core()
                        .chain(extra.iter().copied())
                        .filter(|&w| w != current)
                        .all(|w| dead.contains(&(current, w)))
                {
                    Err(LookupFailure::DeadEnd(current))
                } else {
                    Err(LookupFailure::WrongOwner(current))
                };
                return WalkStep::Done(outcome);
            };
            if plan.probe(current, next, trace.hops, self.is_live(next), trace) {
                return WalkStep::Forward(next);
            } else if !plan.is_transparent() && !aux_banned && !self.is_core(node, current, next) {
                // Probe failure already excluded `next` via
                // `trace.dead_probed`; it was a cached pointer, so ban the
                // rest of the aux set here and fall back to core state.
                aux_banned = true;
                trace.fallbacks += 1;
            }
        }
    }

    fn forget_neighbor(&mut self, id: Id, dead: Id) {
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.forget(dead);
        }
    }
}
