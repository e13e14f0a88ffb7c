//! The member store every substrate keys its nodes by.
//!
//! A routing hop asks two kinds of question about the membership. Point
//! questions — is `w` live, what is `current`'s routing state — come
//! several times per hop and want a hashed lookup. Ordered questions —
//! the owner of a key, the next live node clockwise, a node's leaves, the
//! members inside one routing-table cell's id range — want the ids in
//! ring order. [`Members`] answers each from the structure made for it: a
//! private hash map from id to node state for the point questions, and
//! the sorted id ring for every ordered one. The map is never iterated,
//! so its (fixed, [`IdHasher`]) order can never leak into a result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use peercache_id::{splitmix64, Id};

/// A fixed SplitMix64 hasher for ids: no per-process random state, so a
/// map keyed by ids behaves the same in every run. Hash maps keyed by
/// [`Id`] under it are built with `BuildHasherDefault<IdHasher>`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
        self.0 = splitmix64(self.0);
    }

    // Folding the two halves of the id into one hash input truncates by
    // design.
    #[allow(clippy::cast_possible_truncation)]
    fn write_u128(&mut self, v: u128) {
        self.0 = splitmix64(self.0 ^ (v as u64) ^ ((v >> 64) as u64).rotate_left(32));
    }
}

/// The live members of an overlay: each member's node state, found by id
/// through a hash map, and the ascending id ring every ordered query
/// reads.
///
/// The ring wraps: [`at_or_before`](Self::at_or_before),
/// [`before`](Self::before) and [`after`](Self::after) continue past
/// either end of the id space to the member at the other end. A change of
/// membership moves the ring's tail, O(n); lookups are a hash probe or a
/// binary search.
///
/// ```
/// use peercache_faults::Members;
/// use peercache_id::Id;
///
/// let mut members = Members::load([30u128, 10, 20].map(|v| (Id::new(v), v * 2)).into_iter());
/// assert_eq!(members.ids(), &[Id::new(10), Id::new(20), Id::new(30)]);
/// assert_eq!(members.get(Id::new(20)), Some(&40));
/// assert_eq!(members.after(Id::new(30)), Some(Id::new(10)));
/// assert_eq!(members.at_or_before(Id::new(5)), Some(Id::new(30)));
/// assert_eq!(members.remove(Id::new(20)), Some(40));
/// assert_eq!(members.range(0, 25), &[Id::new(10)]);
/// ```
#[derive(Clone, Debug)]
pub struct Members<N> {
    state: HashMap<Id, N, BuildHasherDefault<IdHasher>>,
    ring: Vec<Id>,
}

impl<N> Default for Members<N> {
    fn default() -> Self {
        Members {
            state: HashMap::default(),
            ring: Vec::new(),
        }
    }
}

impl<N> Members<N> {
    /// An empty store.
    pub fn new() -> Self {
        Members::default()
    }

    /// Load `nodes` in bulk: each is hashed into a map sized for all of
    /// them up front, and the ring is sorted once at the end.
    ///
    /// # Panics
    /// Panics on a repeated id — a bootstrap set is programmer input.
    pub fn load(nodes: impl ExactSizeIterator<Item = (Id, N)>) -> Self {
        let mut members = Members {
            state: HashMap::with_capacity_and_hasher(nodes.len(), BuildHasherDefault::default()),
            ring: Vec::with_capacity(nodes.len()),
        };
        for (id, node) in nodes {
            let fresh = members.state.insert(id, node).is_none();
            assert!(fresh, "duplicate node id {id}");
            members.ring.push(id);
        }
        members.ring.sort_unstable();
        members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the store has no members.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: Id) -> bool {
        self.state.contains_key(&id)
    }

    /// The state of member `id`.
    pub fn get(&self, id: Id) -> Option<&N> {
        self.state.get(&id)
    }

    /// The state of member `id`, mutably.
    pub fn get_mut(&mut self, id: Id) -> Option<&mut N> {
        self.state.get_mut(&id)
    }

    /// Make `id` a member with state `node`, returning the state it
    /// replaces when `id` already was one (the ring is then unchanged).
    pub fn insert(&mut self, id: Id, node: N) -> Option<N> {
        let old = self.state.insert(id, node);
        if old.is_none() {
            let at = self.ring.partition_point(|&x| x < id);
            self.ring.insert(at, id);
        }
        old
    }

    /// Remove member `id`, returning its state (`None` when `id` was not
    /// a member).
    pub fn remove(&mut self, id: Id) -> Option<N> {
        let node = self.state.remove(&id)?;
        if let Ok(at) = self.ring.binary_search(&id) {
            self.ring.remove(at);
        }
        Some(node)
    }

    /// The member ids in ascending (ring) order.
    pub fn ids(&self) -> &[Id] {
        &self.ring
    }

    /// The members whose id value lies in `low..=high`, ascending — one
    /// routing-table cell's range, say. Empty when `low > high`.
    pub fn range(&self, low: u128, high: u128) -> &[Id] {
        let lo = self.ring.partition_point(|x| x.value() < low);
        let hi = self.ring.partition_point(|x| x.value() <= high);
        self.ring.get(lo..hi.max(lo)).unwrap_or(&[])
    }

    /// The member at or counter-clockwise of `key`: the largest id not
    /// above it, wrapping to the largest member.
    pub fn at_or_before(&self, key: Id) -> Option<Id> {
        let p = self.ring.partition_point(|&x| x <= key);
        self.ring
            .get(p.wrapping_sub(1))
            .or_else(|| self.ring.last())
            .copied()
    }

    /// The first member strictly counter-clockwise of `id`: the largest id
    /// below it, wrapping to the largest member (which is `id` itself on a
    /// one-member ring).
    pub fn before(&self, id: Id) -> Option<Id> {
        let p = self.ring.partition_point(|&x| x < id);
        self.ring
            .get(p.wrapping_sub(1))
            .or_else(|| self.ring.last())
            .copied()
    }

    /// The first member strictly clockwise of `id`: the smallest id above
    /// it, wrapping to the smallest member (which is `id` itself on a
    /// one-member ring).
    pub fn after(&self, id: Id) -> Option<Id> {
        let p = self.ring.partition_point(|&x| x <= id);
        self.ring.get(p).or_else(|| self.ring.first()).copied()
    }
}
