use peercache_faults::{arrive, FaultPlan, FaultedRoute, LookupFailure, Members, NetworkError};
use peercache_faults::{RouteTrace, StepScratch, Substrate, WalkStep};
use peercache_id::{Id, IdSpace};

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
    nodes: Members<TapestryNode>,
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
            nodes: Members::new(),
        }
    }

    /// Bootstrap a stable overlay with perfect routing state.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-space ids.
    pub fn build(config: TapestryConfig, ids: &[Id]) -> Self {
        let mut net = TapestryNetwork::new(config);
        let (digit_count, arity) = (net.digit_count, net.arity);
        net.nodes = Members::load(ids.iter().map(|&id| {
            assert!(config.space.contains(id), "node id {id} outside id space");
            (id, TapestryNode::new(id, digit_count, arity))
        }));
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
        self.nodes.contains(id)
    }

    /// All live node ids in order.
    pub fn live_ids(&self) -> Vec<Id> {
        self.nodes.ids().to_vec()
    }

    /// Immutable view of a node.
    pub fn node(&self, id: Id) -> Option<&TapestryNode> {
        self.nodes.get(id)
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
    /// (Tapestry's deterministic surrogate rule). Of the last survivors,
    /// the smallest id is the root.
    ///
    /// The survivors of each row share every digit resolved so far, so
    /// they are one contiguous run of the sorted ring, and within it their
    /// digit at the row ascends: two binary searches per row narrow the
    /// run, with no survivor list built.
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        let mut run = self.nodes.ids();
        for row in 0..self.digit_count {
            if run.len() <= 1 {
                break;
            }
            let digit = |w: &Id| self.digit(*w, row);
            // The key's digit if a survivor has it, else the next larger
            // one some survivor has, else (cyclically) the smallest.
            let want = self.digit(key, row);
            let at_or_above = run.partition_point(|w| digit(w) < want);
            let Some(v) = run.get(at_or_above).or(run.first()).map(digit) else {
                break;
            };
            let start = run.partition_point(|w| digit(w) < v);
            let end = run.partition_point(|w| digit(w) <= v);
            run = run.get(start..end).unwrap_or(run);
        }
        run.first().copied()
    }

    /// The surrogate root by filtering a survivor list digit by digit —
    /// the reference [`true_owner`](Self::true_owner)'s run narrowing must
    /// agree with.
    #[cfg(test)]
    fn true_owner_by_filter(&self, key: Id) -> Option<Id> {
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
    /// periodic repair), in place. Cell `(l, c)` holds the smallest-id
    /// qualifying node — the deterministic rule that keeps surrogate roots
    /// unique. The qualifying ids fill one value range of the sorted ring
    /// ([`IdSpace::cell_range`]), so each cell is the first id of that
    /// range, found by two binary searches. An id that is not live is
    /// left alone.
    pub fn refresh_from_truth(&mut self, id: Id) {
        let Some(node) = self.nodes.get_mut(id) else {
            return;
        };
        let mut rows = std::mem::take(&mut node.rows);
        let (space, digit_bits) = (self.config.space, self.config.digit_bits);
        for (row, l) in rows.iter_mut().zip(0u8..) {
            for (cell, c) in row.iter_mut().zip(0u16..) {
                *cell = space
                    .cell_range(id, l, c, digit_bits)
                    .and_then(|(low, high)| self.nodes.range(low, high).first().copied());
            }
        }
        if let Some(node) = self.nodes.get_mut(id) {
            node.rows = rows;
        }
    }

    /// The table [`refresh_from_truth`](Self::refresh_from_truth) fills,
    /// by the reference scan: every other member, in ascending order,
    /// into the cell its shared prefix and next digit name, the first
    /// (smallest) id winning.
    #[cfg(test)]
    fn rows_by_scan(&self, id: Id) -> Vec<Vec<Option<Id>>> {
        let mut rows = vec![vec![None; self.arity]; self.digit_count as usize];
        for &other in self.nodes.ids() {
            if other == id {
                continue;
            }
            let l = self.lcp(id, other);
            if l >= self.digit_count {
                continue;
            }
            let col = self.digit(other, l);
            let cell: &mut Option<Id> = &mut rows[l as usize][col];
            // The ring is id-ascending, so first fill wins = smallest id.
            if cell.is_none() {
                *cell = Some(other);
            }
        }
        rows
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
        if self.nodes.contains(id) {
            return Err(NetworkError::AlreadyPresent(id));
        }
        self.nodes
            .insert(id, TapestryNode::new(id, self.digit_count, self.arity));
        self.refresh_from_truth(id);
        Ok(())
    }

    /// A node crashes without notice.
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

    /// Route a query for `key` from `from`: the repairing walk
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
        self.nodes.get(id).map_or(&[], |n| n.aux.as_slice())
    }

    /// One Tapestry arrival, read from the node's table in place: the
    /// next hop (maximal prefix progress, then the surrogate loop) comes
    /// from `next_hop`, the core test reads one cell, and [`arrive`]
    /// probes the pick. With no hop left, a node whose every known entry
    /// is excluded is a dead end; otherwise it wrongly claims to be the
    /// root.
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
        let Some(node) = self.nodes.get(current) else {
            return WalkStep::Done(if current == true_owner {
                Ok(current)
            } else {
                Err(LookupFailure::WrongOwner(current))
            });
        };
        arrive(
            self,
            self.config.space,
            current,
            true_owner,
            aux_of(current),
            plan,
            trace,
            scratch,
            |aux, dead| self.next_hop(node, current, key, aux, dead),
            |w| self.is_core(node, current, w),
            |aux, dead| {
                let excluded = |w: Id| w == current || dead.contains(&(current, w));
                if self.len() > 1 && node.core().chain(aux.iter().copied()).all(excluded) {
                    LookupFailure::DeadEnd(current)
                } else {
                    LookupFailure::WrongOwner(current)
                }
            },
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
    use peercache_id::splitmix64;

    /// `n` distinct ids of `space` from a seeded SplitMix64 stream.
    fn membership(space: IdSpace, n: usize, seed: u64) -> Vec<Id> {
        let mut ids = Vec::with_capacity(n);
        let mut h = seed;
        while ids.len() < n {
            h = splitmix64(h);
            let id = space.normalize(u128::from(h));
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }

    fn assert_owners_agree(net: &TapestryNetwork, keys: &[Id]) {
        for &key in keys {
            assert_eq!(
                net.true_owner(key),
                net.true_owner_by_filter(key),
                "surrogate root of {key} (d = {})",
                net.config().digit_bits
            );
        }
    }

    #[test]
    fn run_narrowing_agrees_with_the_filter_at_every_digit_width() {
        // d = 3 leaves a ragged final digit in the 32-bit space.
        let space = IdSpace::paper();
        for d in 1..=4 {
            for seed in 0..6u64 {
                let n = [2, 3, 17, 64, 200, 300][usize::try_from(seed).unwrap()];
                let ids = membership(space, n, seed);
                let net = TapestryNetwork::build(TapestryConfig::new(space, d), &ids);
                let mut keys = membership(space, 200, seed ^ 0xABCD);
                keys.extend(&ids);
                assert_owners_agree(&net, &keys);
            }
        }
    }

    #[test]
    fn run_narrowing_agrees_with_the_filter_in_a_dense_space() {
        // Memberships filling up to the whole 8-bit space, every key.
        let space = IdSpace::new(8).unwrap();
        let keys: Vec<Id> = (0..256u128).map(Id::new).collect();
        for d in 1..=4 {
            for (seed, n) in [(1u64, 2usize), (2, 40), (3, 128), (4, 250), (5, 256)] {
                let ids = membership(space, n, seed);
                let net = TapestryNetwork::build(TapestryConfig::new(space, d), &ids);
                assert_owners_agree(&net, &keys);
            }
        }
    }

    fn assert_tables_match_the_scan(net: &TapestryNetwork) {
        for &id in net.nodes.ids() {
            assert_eq!(
                net.node(id).map(|n| &n.rows),
                Some(&net.rows_by_scan(id)),
                "table of {id} (d = {})",
                net.config().digit_bits
            );
        }
    }

    #[test]
    fn cell_range_tables_match_the_scan_at_every_digit_width() {
        let space = IdSpace::paper();
        for d in 1..=4 {
            for seed in 0..6u64 {
                let n = [1, 2, 3, 17, 64, 300][usize::try_from(seed).unwrap()];
                let ids = membership(space, n, seed);
                let mut net = TapestryNetwork::build(TapestryConfig::new(space, d), &ids);
                assert_tables_match_the_scan(&net);
                // Departures leave stale tables; a repair refills them in
                // place over the survivors.
                for &gone in ids.iter().step_by(3).skip(1) {
                    net.fail(gone).unwrap();
                }
                net.repair_all();
                assert_tables_match_the_scan(&net);
            }
        }
    }

    #[test]
    fn cell_range_tables_match_the_scan_in_a_dense_space() {
        // Memberships filling up to the whole 8-bit space: every member's
        // table.
        let space = IdSpace::new(8).unwrap();
        for d in 1..=4 {
            for (seed, n) in [(1u64, 2usize), (2, 40), (3, 128), (4, 250), (5, 256)] {
                let ids = membership(space, n, seed);
                let net = TapestryNetwork::build(TapestryConfig::new(space, d), &ids);
                assert_tables_match_the_scan(&net);
            }
        }
    }

    #[test]
    fn one_member_is_every_key_s_root() {
        let space = IdSpace::new(8).unwrap();
        for d in 1..=4 {
            let net = TapestryNetwork::build(TapestryConfig::new(space, d), &[Id::new(77)]);
            for key in (0..256u128).map(Id::new) {
                assert_eq!(net.true_owner(key), Some(Id::new(77)));
                assert_eq!(net.true_owner_by_filter(key), Some(Id::new(77)));
            }
        }
        let empty = TapestryNetwork::new(TapestryConfig::new(space, 2));
        assert_eq!(empty.true_owner(Id::new(5)), None);
        assert_eq!(empty.true_owner_by_filter(Id::new(5)), None);
    }
}
