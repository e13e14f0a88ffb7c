//! A **virtual** Pastry overlay over a sorted id slice — the scale
//! substrate behind the `fig3_scale` runs.
//!
//! [`PastryNetwork`](crate::PastryNetwork) materialises every node's
//! routing table, which costs O(n²) to build (each node scans the whole
//! population) and O(n · b · 2^d) resident entries — fine at the paper's
//! n ≤ 2048, prohibitive at 10⁵–10⁶ nodes. The arena stores **only the
//! sorted id array** and answers the same structural questions on demand:
//!
//! * the **leaf set** of a node is index arithmetic on the sorted ring;
//! * a **routing-table cell** (row `l`, column `c`) is a contiguous
//!   prefix range of the sorted array (binary search) with one member
//!   picked by a deterministic per-`(owner, l, c)` hash — the stand-in
//!   for `PastryNetwork`'s "first encountered" fill. The pick is
//!   *distributionally* equivalent (a deterministic qualifying member),
//!   not bit-identical to the materialised network; the scale driver
//!   documents this divergence;
//! * **proximity coordinates** are hashed from the id (the materialised
//!   network draws them from the topology RNG).
//!
//! Routing is the materialised network's: the arena implements
//! [`Substrate`] through the same Pastry forwarding rule, read over this
//! virtual state instead of stored tables. The arena is immutable — every
//! member is live, no auxiliary set is installed (callers resolve them
//! per walk), and nothing is ever forgotten. Everything is a pure
//! function of `(sorted ids, config)`, so routing is `Sync`-shareable
//! across threads and bit-identical at any thread count.

use peercache_faults::{FaultPlan, RouteTrace, StepScratch, Substrate, WalkStep};
use peercache_id::{splitmix64, Id};

use crate::{rule, PastryConfig};

/// Fold a 128-bit id into a 64-bit hash input.
// Truncating casts are the point of the fold.
#[allow(clippy::cast_possible_truncation)]
fn fold(id: Id) -> u64 {
    (id.value() as u64) ^ ((id.value() >> 64) as u64).rotate_left(17)
}

/// A hash word as a uniform f64 in `[0, 1)`.
// The 53-bit mantissa cast is exact.
#[allow(clippy::cast_precision_loss)]
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The virtual overlay: a sorted id array plus the configuration.
pub struct PastryArena {
    config: PastryConfig,
    ids: Vec<Id>,
}

impl PastryArena {
    /// Build the arena over `ids` (sorted and deduplicated internally).
    ///
    /// # Panics
    /// Panics when an id falls outside the configured space — membership
    /// is experiment input, not runtime data.
    pub fn new(config: PastryConfig, mut ids: Vec<Id>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        for &id in &ids {
            assert!(config.space.contains(id), "node id {id} outside id space");
        }
        PastryArena { config, ids }
    }

    /// The configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.config
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the arena has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The member ids, sorted ascending (ring order).
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// The rank (sorted position) of `id`, if it is a member.
    pub fn rank_of(&self, id: Id) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The **true owner** of `key`: the numerically closest member, ties
    /// toward the smaller id — the same rule as the materialised network.
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        let n = self.ids.len();
        if n == 0 {
            return None;
        }
        let p = self.ids.partition_point(|&x| x.value() <= key.value());
        let pred = *self.ids.get((p + n - 1) % n)?;
        let succ = *self.ids.get(p % n)?;
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

    /// Size of every member's leaf set: `leaf_half` ring neighbors per
    /// side, capped so the two halves never overlap on a small ring.
    pub fn leaf_count(&self) -> usize {
        let n = self.ids.len();
        (2 * self.leaf_half()).min(n.saturating_sub(1))
    }

    /// Leaves per side.
    fn leaf_half(&self) -> usize {
        self.config
            .leaf_half
            .min(self.ids.len().saturating_sub(1) / 2)
            .max(1)
    }

    /// Leaf `i` of the member at `rank`, in the materialised network's
    /// layout: ring order, counter-clockwise half first.
    pub fn leaf(&self, rank: usize, i: usize) -> Option<Id> {
        let n = self.ids.len();
        if rank >= n || i >= self.leaf_count() {
            return None;
        }
        let half = self.leaf_half();
        let at = if i < half {
            rank + n - half + i
        } else {
            rank + 1 + i - half
        };
        self.ids.get(at % n).copied()
    }

    /// Routing-table cell (row `l`, column `c`) of the member at `rank`:
    /// a member sharing exactly `l` leading digits whose digit `l` is
    /// `c`, or `None` when no member qualifies (or `c` is the owner's own
    /// digit — that column stays empty, as on [`PastryNode`]).
    ///
    /// The qualifying members form one contiguous range of the sorted
    /// array; the returned one is a deterministic hash pick over that
    /// range, standing in for the network's "first encountered" fill.
    ///
    /// [`PastryNode`]: crate::PastryNode
    // Fitting the hash pick into an index truncates by design.
    #[allow(clippy::cast_possible_truncation)]
    pub fn cell(&self, rank: usize, l: u8, c: u16) -> Option<Id> {
        let owner = *self.ids.get(rank)?;
        let (low, high) = self
            .config
            .space
            .cell_range(owner, l, c, self.config.digit_bits)?;
        let lo_i = self.ids.partition_point(|&x| x.value() < low);
        let hi_i = self.ids.partition_point(|&x| x.value() <= high);
        if lo_i == hi_i {
            return None;
        }
        let span = hi_i - lo_i;
        let h = splitmix64(fold(owner) ^ ((u64::from(l) << 16) | u64::from(c)));
        self.ids.get(lo_i + (h as usize) % span).copied()
    }

    /// Synthetic proximity coordinates of `id` on the unit square, hashed
    /// from the id (the materialised network draws them from the topology
    /// RNG; the arena cannot afford n stored pairs to be faithful to the
    /// draw order, so it substitutes an id-determined point).
    pub fn coord(&self, id: Id) -> (f64, f64) {
        let hx = splitmix64(fold(id) ^ 0x517C_C1B7_2722_0A95);
        let hy = splitmix64(hx ^ 0x2545_F491_4F6C_DD1D);
        (unit_f64(hx), unit_f64(hy))
    }

    /// Synthetic latency between two hosts (Euclidean over [`coord`]).
    ///
    /// [`coord`]: Self::coord
    pub fn proximity(&self, a: Id, b: Id) -> f64 {
        let ((ax, ay), (bx, by)) = (self.coord(a), self.coord(b));
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// The core neighbor set `N_s` of the member at `rank` into a
    /// caller-owned buffer: leaf set plus every routing-table cell,
    /// sorted and deduplicated — the arena-facing walk API matching
    /// [`PastryNode::core_neighbors_into`].
    ///
    /// [`PastryNode::core_neighbors_into`]: crate::PastryNode::core_neighbors_into
    pub fn core_neighbors_into(&self, rank: usize, out: &mut Vec<Id>) {
        out.clear();
        let Some(&owner) = self.ids.get(rank) else {
            return;
        };
        out.extend((0..self.leaf_count()).filter_map(|i| self.leaf(rank, i)));
        let arity = 1u16 << self.config.digit_bits;
        for l in 0..self.config.digit_count {
            for c in 0..arity {
                if let Some(w) = self.cell(rank, l, c) {
                    out.push(w);
                }
            }
        }
        out.retain(|&w| w != owner);
        out.sort_unstable();
        out.dedup();
    }
}

impl Substrate for PastryArena {
    fn is_live(&self, id: Id) -> bool {
        self.rank_of(id).is_some()
    }

    fn true_owner(&self, key: Id) -> Option<Id> {
        PastryArena::true_owner(self, key)
    }

    /// Always empty: walks resolve auxiliary sets through their `aux_of`.
    fn installed_aux(&self, _: Id) -> &[Id] {
        &[]
    }

    /// One Pastry arrival: the forwarding rule shared with
    /// [`PastryNetwork`](crate::PastryNetwork).
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

    /// A no-op: the arena's tables are derived, never stored.
    fn forget_neighbor(&mut self, _: Id, _: Id) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PastryNetwork;
    use peercache_faults::walk;
    use peercache_id::IdSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_ids(space: IdSpace, n: usize, seed: u64) -> Vec<Id> {
        // Deterministic spread-out ids, distinct by construction.
        let size = space.size().unwrap();
        (0..n)
            .map(|i| Id::new((i as u128 * size / n as u128 + u128::from(seed % 7)) & (size - 1)))
            .collect()
    }

    fn arena(n: usize) -> (PastryArena, PastryNetwork) {
        let space = IdSpace::new(10).unwrap();
        let config = PastryConfig::new(space, 1);
        let ids = sample_ids(space, n, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let net = PastryNetwork::build(config, &ids, &mut rng);
        (PastryArena::new(config, ids), net)
    }

    #[test]
    fn true_owner_matches_materialised_network() {
        let (arena, net) = arena(48);
        for key in 0..1024u128 {
            assert_eq!(
                arena.true_owner(Id::new(key)),
                net.true_owner(Id::new(key)),
                "owner of {key}"
            );
        }
    }

    #[test]
    fn cells_hold_structurally_valid_entries() {
        let (arena, _) = arena(64);
        let space = arena.config().space;
        for rank in 0..arena.len() {
            let owner = arena.ids()[rank];
            for l in 0..arena.config().digit_count {
                for c in 0..2u16 {
                    if let Some(entry) = arena.cell(rank, l, c) {
                        assert_ne!(entry, owner);
                        assert_eq!(
                            space.common_prefix_digits(owner, entry, 1).unwrap(),
                            l,
                            "cell ({l},{c}) of {owner} shares exactly l digits"
                        );
                        assert_eq!(space.digit(entry, l, 1).unwrap(), c);
                    }
                }
            }
        }
    }

    #[test]
    fn own_digit_column_stays_empty() {
        let (arena, _) = arena(64);
        let space = arena.config().space;
        for rank in 0..arena.len() {
            let owner = arena.ids()[rank];
            for l in 0..arena.config().digit_count {
                let own = space.digit(owner, l, 1).unwrap();
                assert_eq!(arena.cell(rank, l, own), None);
            }
        }
    }

    #[test]
    fn routing_reaches_the_true_owner_from_everywhere() {
        let (arena, _) = arena(48);
        let plan = FaultPlan::transparent(0);
        for &from in arena.ids() {
            for key in (0..1024u128).step_by(37) {
                let key = Id::new(key);
                let route = walk(&arena, from, key, |_| &[], &plan);
                assert_eq!(
                    route.outcome,
                    Ok(arena.true_owner(key).unwrap()),
                    "route {from} → {key}"
                );
                assert!(route.trace.hops <= arena.config().hop_limit);
            }
        }
    }

    #[test]
    fn core_neighbors_are_sorted_distinct_members() {
        let (arena, _) = arena(48);
        let mut buf = Vec::new();
        for rank in 0..arena.len() {
            arena.core_neighbors_into(rank, &mut buf);
            assert!(buf.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            assert!(!buf.contains(&arena.ids()[rank]));
            for &w in &buf {
                assert!(arena.rank_of(w).is_some(), "all entries are members");
            }
        }
    }
}
