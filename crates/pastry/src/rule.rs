//! Pastry's forwarding rule, written once over the two storage forms of
//! its routing state: the materialised [`PastryNetwork`] (a table per
//! node) and the virtual [`PastryArena`] (cells derived on demand from
//! the sorted id array).
//!
//! Both forms keep the same structural invariant: routing-table cell
//! `(row, col)` of a node holds a member sharing exactly `row` digits
//! with it whose digit `row` is `col`. So for a key sharing `l` digits
//! with the current node, only cell `(l, key digit l)` can advance the
//! prefix — a row-`r` entry shares `min(r, l)` digits with the key when
//! `r ≠ l`, and exactly `l` unless its column is the key's digit — and
//! rows below `l` cannot even match the current prefix. The rule reads
//! that one cell, the leaf set and the auxiliary pointers per hop, and
//! scans whole rows only for the numeric fallback and the dead-end test.

use peercache_faults::{FaultPlan, LookupFailure, RouteTrace, StepScratch, Substrate, WalkStep};
use peercache_id::Id;

use crate::{PastryArena, PastryConfig, PastryNetwork, PastryNode, RoutingMode};

/// Read-only access to Pastry routing state, whatever stores it.
pub(crate) trait PrefixTable {
    /// One member's routing state, resolved once per arrival.
    type Node<'a>: Copy
    where
        Self: 'a;

    /// The deployment's configuration.
    fn config(&self) -> &PastryConfig;

    /// The routing state of `id` (`None` when `id` holds none).
    fn node(&self, id: Id) -> Option<Self::Node<'_>>;

    /// Size of `node`'s leaf set.
    fn leaf_count(&self, node: Self::Node<'_>) -> usize;

    /// Leaf `i` of `node`, in ring order (counter-clockwise half first).
    fn leaf(&self, node: Self::Node<'_>, i: usize) -> Option<Id>;

    /// Routing-table cell `(row, col)` of `node`.
    fn cell(&self, node: Self::Node<'_>, row: u8, col: u16) -> Option<Id>;

    /// Network latency between two hosts.
    fn proximity(&self, a: Id, b: Id) -> f64;
}

impl PrefixTable for PastryNetwork {
    type Node<'a> = &'a PastryNode;

    fn config(&self) -> &PastryConfig {
        PastryNetwork::config(self)
    }

    fn node(&self, id: Id) -> Option<&PastryNode> {
        PastryNetwork::node(self, id)
    }

    fn leaf_count(&self, node: &PastryNode) -> usize {
        node.leaves.len()
    }

    fn leaf(&self, node: &PastryNode, i: usize) -> Option<Id> {
        node.leaves.get(i).copied()
    }

    fn cell(&self, node: &PastryNode, row: u8, col: u16) -> Option<Id> {
        *node.rows.get(usize::from(row))?.get(usize::from(col))?
    }

    fn proximity(&self, a: Id, b: Id) -> f64 {
        PastryNetwork::proximity(self, a, b)
    }
}

impl PrefixTable for PastryArena {
    /// A member's rank in the sorted id array.
    type Node<'a> = usize;

    fn config(&self) -> &PastryConfig {
        PastryArena::config(self)
    }

    fn node(&self, id: Id) -> Option<usize> {
        self.rank_of(id)
    }

    fn leaf_count(&self, _: usize) -> usize {
        PastryArena::leaf_count(self)
    }

    fn leaf(&self, rank: usize, i: usize) -> Option<Id> {
        PastryArena::leaf(self, rank, i)
    }

    fn cell(&self, rank: usize, row: u8, col: u16) -> Option<Id> {
        PastryArena::cell(self, rank, row, col)
    }

    fn proximity(&self, a: Id, b: Id) -> f64 {
        PastryArena::proximity(self, a, b)
    }
}

/// `node`'s leaf set in ring order.
fn leaves<'a, T: PrefixTable>(
    table: &'a T,
    node: T::Node<'a>,
) -> impl DoubleEndedIterator<Item = Id> + 'a {
    (0..table.leaf_count(node)).filter_map(move |i| table.leaf(node, i))
}

/// Every entry of `node`'s routing-table rows `from..`.
fn cells<'a, T: PrefixTable>(
    table: &'a T,
    node: T::Node<'a>,
    from: u8,
) -> impl Iterator<Item = Id> + 'a {
    let config = table.config();
    // `2^d` columns; the clamp keeps the shift in range for any width.
    let last_col = u16::MAX >> (16 - config.digit_bits.clamp(1, 16));
    (from..config.digit_count)
        .flat_map(move |row| (0..=last_col).filter_map(move |col| table.cell(node, row, col)))
}

/// One Pastry arrival at `current` — the body of both storage forms'
/// [`Substrate::step`]: decide the next hop (leaf-set short-circuit,
/// then prefix progress, then numerical progress) and probe it; a
/// timed-out hop is excluded and the decision re-runs. Under a
/// non-transparent plan, the first timed-out **auxiliary-only** hop bans
/// the remaining auxiliary pointers at this node, falling back to core
/// routing state (`trace.fallbacks`). With no hop left, a node that
/// still knows a strictly closer (unexcluded) node is a dead end;
/// otherwise it wrongly claims ownership.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step<'a, T: PrefixTable + Substrate>(
    table: &T,
    current: Id,
    key: Id,
    true_owner: Id,
    aux_of: &dyn Fn(Id) -> &'a [Id],
    plan: &FaultPlan,
    trace: &mut RouteTrace,
    scratch: &mut StepScratch,
) -> WalkStep {
    let config = table.config();
    if trace.hops >= config.hop_limit {
        return WalkStep::Done(Err(LookupFailure::HopLimit));
    }
    // A walk only arrives at live members; a node without state knows
    // no next hop, so degrade to its terminal verdict (rule L10).
    let Some(node) = table.node(current) else {
        return WalkStep::Done(if current == true_owner {
            Ok(current)
        } else {
            Err(LookupFailure::WrongOwner(current))
        });
    };
    let aux = plan.resolve_aux(config.space, current, aux_of(current), &mut scratch.aux);
    let mut aux_banned = false;
    loop {
        let extra: &[Id] = if aux_banned { &[] } else { aux };
        let dead = &trace.dead_probed;
        let Some(next) = next_hop(table, node, current, key, extra, dead) else {
            let outcome = if current == true_owner {
                Ok(current)
            } else if knows_closer(table, node, current, key, extra, dead) {
                // A strictly closer node is known but unusable under the
                // forwarding rule — a dead end rather than a wrong claim
                // of ownership.
                Err(LookupFailure::DeadEnd(current))
            } else {
                Err(LookupFailure::WrongOwner(current))
            };
            return WalkStep::Done(outcome);
        };
        if plan.probe(current, next, trace.hops, table.is_live(next), trace) {
            return WalkStep::Forward(next);
        } else if !plan.is_transparent() && !aux_banned && !is_core(table, node, current, next) {
            // The probe failure already excluded `next` via
            // `trace.dead_probed`; it was a cached pointer, so ban the
            // rest of the aux set here and fall back to core state.
            aux_banned = true;
            trace.fallbacks += 1;
        }
    }
}

/// Whether `w` is usable at `current`: not `current` itself and not an
/// entry `current` saw time out on this walk (`dead` holds
/// `(prober, target)` pairs — the read-only stand-in for forgetting it).
fn is_usable(current: Id, dead: &[(Id, Id)], w: Id) -> bool {
    w != current && !dead.iter().any(|&(p, t)| p == current && t == w)
}

/// Pastry's next-hop decision at `current` for `key` over its leaf set,
/// routing table and the auxiliary set `extra` (`None` = `current`
/// believes it is the destination):
///
/// 1. leaf-set short-circuit when the key falls inside the arc the
///    usable leaves cover;
/// 2. prefix progress — among the entries sharing the longest prefix
///    with the key beyond `current`'s, the nearest in proximity
///    ([`RoutingMode::LocalityAware`]) or the numerically closest
///    ([`RoutingMode::GreedyPrefix`]);
/// 3. numerically closer at the same prefix length.
///
/// Every ranking is a total order over distinct ids, so the choice is
/// independent of the order candidates are visited in.
fn next_hop<'t, T: PrefixTable>(
    table: &'t T,
    node: T::Node<'t>,
    current: Id,
    key: Id,
    extra: &[Id],
    dead: &[(Id, Id)],
) -> Option<Id> {
    if current == key {
        return None;
    }
    let config = table.config();
    let space = config.space;
    let usable = |w: Id| is_usable(current, dead, w);
    let closeness = |w: Id| (config.ring_abs(w, key), w.value());
    let own = closeness(current);

    // 1. Leaf-set short-circuit.
    let ccw_most = leaves(table, node).find(|&w| usable(w));
    let cw_most = leaves(table, node).rev().find(|&w| usable(w));
    if let (Some(ccw_most), Some(cw_most)) = (ccw_most, cw_most) {
        let arc = space.clockwise_distance(ccw_most, cw_most);
        if space.clockwise_distance(ccw_most, key) <= arc {
            return leaves(table, node)
                .filter(|&w| usable(w))
                .map(closeness)
                .min()
                .filter(|&best| best < own)
                .map(|(_, w)| Id::new(w));
        }
    }

    // 2. Prefix progress: of the table, only cell (l, key digit l) can
    //    share more than `l` digits with the key (see the module docs).
    let l = config.lcp(current, key);
    let shared = |w: Id| config.lcp(w, key);
    let cell = space
        .digit(key, l, config.digit_bits)
        .ok()
        .and_then(|col| table.cell(node, l, col));
    let progress = || {
        leaves(table, node)
            .chain(extra.iter().copied())
            .chain(cell)
            .filter(|&w| usable(w) && shared(w) > l)
    };
    if let Some(best) = progress().map(shared).max() {
        let bucket = progress().filter(|&w| shared(w) == best);
        // Both modes narrow to the candidates advancing the prefix the
        // furthest; they differ in the tie-break among them: FreePastry
        // takes the one nearest in proximity space (§VI-D), the greedy
        // mode the one numerically closest to the key.
        return match config.mode {
            RoutingMode::LocalityAware => bucket.min_by(|&a, &b| {
                table
                    .proximity(current, a)
                    .total_cmp(&table.proximity(current, b))
                    .then(a.cmp(&b))
            }),
            RoutingMode::GreedyPrefix => bucket.min_by_key(|&w| closeness(w)),
        };
    }

    // 3. Same prefix length but numerically closer; table rows below `l`
    //    share fewer digits with the key and cannot qualify.
    leaves(table, node)
        .chain(extra.iter().copied())
        .chain(cells(table, node, l))
        .filter(|&w| usable(w) && shared(w) >= l)
        .map(closeness)
        .filter(|&c| c < own)
        .min()
        .map(|(_, w)| Id::new(w))
}

/// The dead-end test: whether `current` knows any usable node (leaf,
/// table entry or auxiliary pointer) strictly closer to `key` than
/// itself.
fn knows_closer<'t, T: PrefixTable>(
    table: &'t T,
    node: T::Node<'t>,
    current: Id,
    key: Id,
    extra: &[Id],
    dead: &[(Id, Id)],
) -> bool {
    let config = table.config();
    let own = (config.ring_abs(current, key), current.value());
    leaves(table, node)
        .chain(extra.iter().copied())
        .chain(cells(table, node, 0))
        .any(|w| is_usable(current, dead, w) && (config.ring_abs(w, key), w.value()) < own)
}

/// Whether `w` is a core entry of `current` (leaf or table cell) rather
/// than an auxiliary-only pointer. A table entry can only sit in the cell
/// its shared prefix with `current` dictates.
fn is_core<'t, T: PrefixTable>(table: &'t T, node: T::Node<'t>, current: Id, w: Id) -> bool {
    let config = table.config();
    let row = config.lcp(current, w);
    leaves(table, node).any(|x| x == w)
        || config
            .space
            .digit(w, row, config.digit_bits)
            .ok()
            .and_then(|col| table.cell(node, row, col))
            == Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_id::IdSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The same membership in both storage forms.
    fn both(n: usize) -> (PastryNetwork, PastryArena) {
        let space = IdSpace::new(10).unwrap();
        let config = PastryConfig::new(space, 1);
        let size = space.size().unwrap();
        let ids: Vec<Id> = (0..n)
            .map(|i| Id::new((i as u128 * size / n as u128 + 3) & (size - 1)))
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let net = PastryNetwork::build(config, &ids, &mut rng);
        (net, PastryArena::new(config, ids))
    }

    #[test]
    fn leaf_sets_agree_across_storage_forms() {
        for n in (1..=6).chain([48]) {
            let (net, arena) = both(n);
            for (rank, &id) in arena.ids().iter().enumerate() {
                let virtual_leaves: Vec<Id> = leaves(&arena, rank).collect();
                assert_eq!(
                    virtual_leaves,
                    net.node(id).unwrap().leaves,
                    "n={n} leaves of {id}"
                );
            }
        }
    }

    #[test]
    fn core_entries_are_exactly_leaves_and_cells() {
        let (net, arena) = both(48);
        for (rank, &id) in arena.ids().iter().enumerate() {
            let node = PrefixTable::node(&net, id).unwrap();
            let mut arena_core = Vec::new();
            arena.core_neighbors_into(rank, &mut arena_core);
            for &w in arena.ids() {
                assert_eq!(
                    is_core(&net, node, id, w),
                    node.core_neighbors().contains(&w),
                    "network core test at {id} for {w}"
                );
                assert_eq!(
                    is_core(&arena, rank, id, w),
                    arena_core.contains(&w),
                    "arena core test at {id} for {w}"
                );
            }
        }
    }
}
