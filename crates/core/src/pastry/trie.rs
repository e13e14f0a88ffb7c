//! The trie of observed ids underlying the Pastry selection algorithms.
//!
//! Each observed peer (and each core neighbor) is a leaf at depth `⌈b/d⌉`;
//! interior vertices correspond to id prefixes. Proposition 4.1: the hop
//! estimate between two nodes equals the height of their lowest common
//! ancestor, so the objective decomposes over trie edges (eq. 2): an edge
//! from vertex `a` down to child subtree `T_c` contributes `F(T_c)` to the
//! cost exactly when `T_c` contains no neighbor (core or auxiliary).
//!
//! The trie also carries the QoS machinery of §IV-D: a delay bound of `x`
//! hops on leaf `v` marks `v`'s ancestor at height `x − 1`; a marked
//! subtree without a core neighbor must receive at least one auxiliary
//! pointer (`req`).
//!
//! ## Memory layout
//!
//! Hot state lives in flat vectors rather than per-vertex heap objects:
//! child links occupy one slab (`child_arena`, `arity` slots per vertex)
//! and the id → leaf index is a sorted `Vec` probed by binary search
//! (deterministic by construction, so L6-clean — see DESIGN.md). The slab
//! plus free list let [`reset`](Trie::reset) rebuild the trie for a new
//! problem without allocating once capacities have warmed up.

use peercache_id::{Id, IdSpace};

use crate::cast;
use crate::problem::SelectError;

/// Sentinel for "no vertex".
pub(crate) const NONE: u32 = u32::MAX;

/// Leaf payload: one observed peer or core neighbor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Leaf {
    pub id: Id,
    /// Access frequency `f_v`; zero for pure core-neighbor leaves.
    pub weight: f64,
    pub is_core: bool,
    /// QoS delay bound in total hops (≥ 1), as in [`crate::Candidate`].
    pub max_hops: Option<u32>,
}

/// One trie vertex. Aggregates (`weight`, `cand_count`, `core_count`) cover
/// the whole subtree; `mark_count` counts QoS marks anchored *at* this
/// vertex. Solver fields (`req`, `base`, `costs`, `alloc`) are maintained
/// by the greedy optimiser. Child links live in the trie's `child_arena`,
/// not here.
#[derive(Clone, Debug)]
pub(crate) struct Vertex {
    pub parent: u32,
    /// Which child slot of `parent` this vertex occupies.
    pub slot: u16,
    /// Depth in digits (root = 0); structural metadata used by tests and
    /// diagnostics.
    #[cfg_attr(not(test), allow(dead_code))]
    pub depth: u8,
    pub leaf: Option<Leaf>,
    /// `F(T_a)`: total candidate weight in the subtree.
    pub weight: f64,
    /// Number of candidate (selectable) leaves in the subtree.
    pub cand_count: u32,
    /// Number of core-neighbor leaves in the subtree.
    pub core_count: u32,
    /// QoS marks anchored at this vertex (subtree must hold a neighbor).
    pub mark_count: u32,
    /// Minimum auxiliary pointers any feasible solution places in `T_a`.
    pub req: u32,
    /// `Σ_children req` — the index of the first entry of `costs`.
    pub base: u32,
    /// True when some subtree requirement exceeds its candidate supply.
    pub impossible: bool,
    /// `C(T_a, j)` for `j ∈ base ..= cap`; empty when unsatisfiable at
    /// this `k`.
    pub costs: Vec<f64>,
    /// `alloc[i]`: child slot receiving the `(base + 1 + i)`-th pointer.
    pub alloc: Vec<u16>,
}

impl Vertex {
    fn new(parent: u32, slot: u16, depth: u8) -> Self {
        Vertex {
            parent,
            slot,
            depth,
            leaf: None,
            weight: 0.0,
            cand_count: 0,
            core_count: 0,
            mark_count: 0,
            req: 0,
            base: 0,
            impossible: false,
            costs: Vec::new(),
            alloc: Vec::new(),
        }
    }

    /// Re-initialise in place, keeping the `costs`/`alloc` capacities.
    fn reset(&mut self, parent: u32, slot: u16, depth: u8) {
        self.parent = parent;
        self.slot = slot;
        self.depth = depth;
        self.leaf = None;
        self.weight = 0.0;
        self.cand_count = 0;
        self.core_count = 0;
        self.mark_count = 0;
        self.req = 0;
        self.base = 0;
        self.impossible = false;
        self.costs.clear();
        self.alloc.clear();
    }

    /// Largest pointer count this vertex has a cost for, if any.
    pub(crate) fn cap(&self) -> Option<u32> {
        if self.costs.is_empty() {
            None
        } else {
            Some(self.base + cast::index_to_u32(self.costs.len()) - 1)
        }
    }

    /// `C(T_a, t)` — only valid for `t` within `[base, cap]`.
    pub(crate) fn cost_at(&self, t: u32) -> f64 {
        self.costs[cast::usize_from_u32(t - self.base)]
    }
}

/// The trie of observed ids, with slab storage and a free list so that
/// churn (insert/remove) does not leak vertices and [`reset`](Trie::reset)
/// can rebuild without allocating.
pub(crate) struct Trie {
    pub space: IdSpace,
    pub digit_bits: u8,
    pub digit_count: u8,
    pub arity: usize,
    vertices: Vec<Vertex>,
    free: Vec<u32>,
    /// Child links, `arity` consecutive slots per vertex (`NONE` = absent).
    child_arena: Vec<u32>,
    /// id → leaf vertex, sorted by id (binary-search index).
    leaves: Vec<(Id, u32)>,
}

impl Trie {
    /// An empty trie over `space` with `2^digit_bits`-ary branching;
    /// fails when the digit width does not divide the id width.
    pub fn new(space: IdSpace, digit_bits: u8) -> Result<Self, SelectError> {
        let digit_count = space
            .digit_count(digit_bits)
            .map_err(|e| SelectError::InvalidProblem(e.to_string()))?;
        let arity = 1usize << digit_bits;
        Ok(Trie {
            space,
            digit_bits,
            digit_count,
            arity,
            vertices: vec![Vertex::new(NONE, 0, 0)],
            free: Vec::new(),
            child_arena: vec![NONE; arity],
            leaves: Vec::new(),
        })
    }

    /// Index of the root vertex (always allocated, never freed).
    pub const ROOT: u32 = 0;

    /// Clear the trie for a new problem over `space`, keeping the vertex
    /// slab (including warmed `costs`/`alloc` capacities), the child
    /// arena and the leaf index. Freed slots are queued so that
    /// allocation order matches a fresh build — a rebuild with the same
    /// insertion sequence assigns every vertex the same index and role.
    ///
    /// # Errors
    /// `InvalidProblem` when the digit width does not divide the id width.
    pub fn reset(&mut self, space: IdSpace, digit_bits: u8) -> Result<(), SelectError> {
        let digit_count = space
            .digit_count(digit_bits)
            .map_err(|e| SelectError::InvalidProblem(e.to_string()))?;
        let arity = 1usize << digit_bits;
        self.space = space;
        self.digit_bits = digit_bits;
        self.digit_count = digit_count;
        if arity != self.arity {
            self.arity = arity;
            self.child_arena.clear();
            self.child_arena.resize(self.vertices.len() * arity, NONE);
        }
        self.leaves.clear();
        self.free.clear();
        // Push descending so pops ascend: slot 1 is handed out first,
        // exactly like a fresh build's first push.
        for idx in (1..self.vertices.len()).rev() {
            self.free.push(cast::index_to_u32(idx));
        }
        self.reset_slot(Self::ROOT, NONE, 0, 0);
        Ok(())
    }

    /// The vertex at index `v`; panics on a dangling index.
    pub fn vertex(&self, v: u32) -> &Vertex {
        &self.vertices[cast::index_from_u32(v)]
    }

    /// Mutable access to the vertex at index `v`.
    pub fn vertex_mut(&mut self, v: u32) -> &mut Vertex {
        &mut self.vertices[cast::index_from_u32(v)]
    }

    /// The child of `v` in `slot` (`NONE` = absent).
    fn child(&self, v: u32, slot: usize) -> u32 {
        self.child_arena[cast::index_from_u32(v) * self.arity + slot]
    }

    fn set_child(&mut self, v: u32, slot: usize, c: u32) {
        self.child_arena[cast::index_from_u32(v) * self.arity + slot] = c;
    }

    /// The leaf vertex currently holding candidate `id`, if present.
    pub fn leaf_vertex(&self, id: Id) -> Option<u32> {
        self.leaves
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|pos| self.leaves[pos].1)
    }

    /// Number of live vertices (diagnostics / tests).
    fn vertex_count(&self) -> usize {
        self.vertices.len() - self.free.len()
    }

    /// Re-initialise slot `idx` (vertex fields and child links) in place.
    fn reset_slot(&mut self, idx: u32, parent: u32, slot: u16, depth: u8) {
        let base = cast::index_from_u32(idx) * self.arity;
        for c in &mut self.child_arena[base..base + self.arity] {
            *c = NONE;
        }
        self.vertices[cast::index_from_u32(idx)].reset(parent, slot, depth);
    }

    fn alloc_vertex(&mut self, parent: u32, slot: u16, depth: u8) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.reset_slot(idx, parent, slot, depth);
                idx
            }
            None => {
                let idx = cast::index_to_u32(self.vertices.len());
                self.vertices.push(Vertex::new(parent, slot, depth));
                self.child_arena
                    .resize(self.child_arena.len() + self.arity, NONE);
                idx
            }
        }
    }

    /// Insert a leaf for `id`, creating the digit path from the root.
    ///
    /// # Errors
    /// `InvalidProblem` if a leaf for `id` already exists.
    pub fn insert_leaf(
        &mut self,
        id: Id,
        weight: f64,
        is_core: bool,
        max_hops: Option<u32>,
    ) -> Result<u32, SelectError> {
        let pos = match self.leaves.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(_) => {
                return Err(SelectError::InvalidProblem(format!(
                    "leaf {id} already present in trie"
                )));
            }
            Err(pos) => pos,
        };
        let mut v = Self::ROOT;
        for depth in 0..self.digit_count {
            let digit = self
                .space
                .digit(id, depth, self.digit_bits)
                .expect("depth < digit_count and digit width ≤ 16");
            let digit_idx = usize::from(digit);
            let child = self.child(v, digit_idx);
            v = if child == NONE {
                let c = self.alloc_vertex(v, digit, depth + 1);
                self.set_child(v, digit_idx, c);
                c
            } else {
                child
            };
        }
        self.vertices[cast::index_from_u32(v)].leaf = Some(Leaf {
            id,
            weight,
            is_core,
            max_hops,
        });
        self.leaves.insert(pos, (id, v));
        if let Some(bound) = max_hops {
            let mark = self.mark_vertex_for(v, bound);
            if let Some(m) = mark {
                self.vertices[cast::index_from_u32(m)].mark_count += 1;
            }
        }
        #[cfg(feature = "check-invariants")]
        crate::invariants::assert_leaf_index_sorted(&self.leaves);
        Ok(v)
    }

    /// The vertex a delay bound of `max_hops` total hops marks: the
    /// ancestor of `leaf` at height `max_hops − 1`. `None` when the bound
    /// is loose enough to be vacuous (`max_hops − 1 ≥ digit_count`).
    fn mark_vertex_for(&self, leaf: u32, max_hops: u32) -> Option<u32> {
        debug_assert!(max_hops >= 1);
        let allowed = max_hops - 1;
        if allowed >= u32::from(self.digit_count) {
            return None;
        }
        let mut v = leaf;
        for _ in 0..allowed {
            v = self.vertices[cast::index_from_u32(v)].parent;
            debug_assert_ne!(v, NONE);
        }
        Some(v)
    }

    /// Remove the leaf for `id`, pruning now-empty ancestors. Returns the
    /// deepest *surviving* ancestor (always at least the root), from which
    /// solver state must be refreshed.
    ///
    /// # Errors
    /// `InvalidProblem` if no leaf for `id` exists.
    pub fn remove_leaf(&mut self, id: Id) -> Result<u32, SelectError> {
        let pos = self
            .leaves
            .binary_search_by_key(&id, |&(i, _)| i)
            .map_err(|_| SelectError::InvalidProblem(format!("leaf {id} not present in trie")))?;
        let (_, v) = self.leaves.remove(pos);
        let leaf = self.vertices[cast::index_from_u32(v)]
            .leaf
            .take()
            .expect("leaf map points at leaf vertices");
        if let Some(bound) = leaf.max_hops {
            if let Some(m) = self.mark_vertex_for(v, bound) {
                debug_assert!(self.vertices[cast::index_from_u32(m)].mark_count > 0);
                self.vertices[cast::index_from_u32(m)].mark_count -= 1;
            }
        }
        #[cfg(feature = "check-invariants")]
        crate::invariants::assert_leaf_index_sorted(&self.leaves);
        // Prune upward while a vertex has no leaf, no children, and no marks.
        let mut cur = v;
        loop {
            let vert = &self.vertices[cast::index_from_u32(cur)];
            let prunable = vert.leaf.is_none()
                && vert.mark_count == 0
                && cur != Self::ROOT
                && self.children_of(cur).next().is_none();
            if !prunable {
                return Ok(cur);
            }
            let vert = &self.vertices[cast::index_from_u32(cur)];
            let parent = vert.parent;
            let slot = usize::from(vert.slot);
            self.set_child(parent, slot, NONE);
            self.free.push(cur);
            cur = parent;
        }
    }

    /// Iterate the live children of `v` in ascending slot order.
    pub fn children_of(&self, v: u32) -> impl Iterator<Item = (u16, u32)> + '_ {
        let base = cast::index_from_u32(v) * self.arity;
        self.child_arena[base..base + self.arity]
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != NONE)
            .map(|(slot, &c)| (cast::slot_to_u16(slot), c))
    }

    /// All vertices in post-order (children before parents), written into
    /// caller-owned buffers (`stack` is DFS scratch).
    pub fn post_order_into(&self, order: &mut Vec<u32>, stack: &mut Vec<(u32, bool)>) {
        order.clear();
        stack.clear();
        stack.push((Self::ROOT, false));
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
            } else {
                stack.push((v, true));
                for (_, c) in self.children_of(v) {
                    stack.push((c, false));
                }
            }
        }
    }

    /// All vertices in post-order (children before parents).
    pub fn post_order(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.vertex_count());
        let mut stack = Vec::new();
        self.post_order_into(&mut order, &mut stack);
        order
    }

    /// Total candidate weight in the trie (root aggregate).
    pub fn total_weight(&self) -> f64 {
        self.vertices[cast::index_from_u32(Self::ROOT)].weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trie(bits: u8, d: u8) -> Trie {
        Trie::new(IdSpace::new(bits).unwrap(), d).unwrap()
    }

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    fn insert_creates_full_depth_path() {
        let mut t = trie(4, 1);
        let v = t.insert_leaf(id(0b1010), 1.0, false, None).unwrap();
        assert_eq!(t.vertex(v).depth, 4);
        assert_eq!(t.vertex_count(), 5, "root + 4 path vertices");
        assert_eq!(t.leaf_vertex(id(0b1010)), Some(v));
    }

    #[test]
    fn shared_prefixes_share_vertices() {
        let mut t = trie(4, 1);
        t.insert_leaf(id(0b1010), 1.0, false, None).unwrap();
        t.insert_leaf(id(0b1011), 1.0, false, None).unwrap();
        // Shared path of 3 + two distinct leaves + root = 6.
        assert_eq!(t.vertex_count(), 6);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = trie(4, 1);
        t.insert_leaf(id(3), 1.0, false, None).unwrap();
        assert!(t.insert_leaf(id(3), 2.0, false, None).is_err());
    }

    #[test]
    fn remove_prunes_exclusive_path() {
        let mut t = trie(4, 1);
        t.insert_leaf(id(0b1010), 1.0, false, None).unwrap();
        t.insert_leaf(id(0b0101), 1.0, false, None).unwrap();
        let survivor = t.remove_leaf(id(0b1010)).unwrap();
        assert_eq!(survivor, Trie::ROOT);
        assert_eq!(t.vertex_count(), 5, "root + remaining path");
        assert_eq!(t.leaf_vertex(id(0b1010)), None);
        assert!(t.remove_leaf(id(0b1010)).is_err(), "double remove");
    }

    #[test]
    fn remove_stops_at_shared_vertex() {
        let mut t = trie(4, 1);
        t.insert_leaf(id(0b1010), 1.0, false, None).unwrap();
        t.insert_leaf(id(0b1011), 1.0, false, None).unwrap();
        let survivor = t.remove_leaf(id(0b1011)).unwrap();
        assert_eq!(t.vertex(survivor).depth, 3, "the shared prefix vertex");
        assert_eq!(t.vertex_count(), 5);
    }

    #[test]
    fn free_list_recycles_vertices() {
        let mut t = trie(8, 1);
        t.insert_leaf(id(0xAA), 1.0, false, None).unwrap();
        let before = t.vertex_count();
        t.remove_leaf(id(0xAA)).unwrap();
        t.insert_leaf(id(0x55), 1.0, false, None).unwrap();
        assert_eq!(t.vertex_count(), before, "recycled, not grown");
    }

    #[test]
    fn reset_rebuild_reassigns_identical_indices() {
        let mut t = trie(8, 1);
        let ids = [0xAAu128, 0x55, 0x5A, 0xA5];
        let fresh: Vec<u32> = ids
            .iter()
            .map(|&i| t.insert_leaf(id(i), 1.0, false, None).unwrap())
            .collect();
        let slab_size = t.vertex_count();
        t.reset(IdSpace::new(8).unwrap(), 1).unwrap();
        assert_eq!(t.vertex_count(), 1, "reset leaves only the root live");
        let rebuilt: Vec<u32> = ids
            .iter()
            .map(|&i| t.insert_leaf(id(i), 1.0, false, None).unwrap())
            .collect();
        assert_eq!(fresh, rebuilt, "same insertion order, same slots");
        assert_eq!(t.vertex_count(), slab_size, "slab reused, not grown");
    }

    #[test]
    fn qos_mark_lands_at_height_bound_minus_one() {
        let mut t = trie(4, 1);
        let leaf = t.insert_leaf(id(0b1010), 1.0, false, Some(3)).unwrap();
        // max_hops 3 → allowed distance 2 → ancestor at height 2 (depth 2).
        let mut v = leaf;
        v = t.vertex(v).parent;
        v = t.vertex(v).parent;
        assert_eq!(t.vertex(v).depth, 2);
        assert_eq!(t.vertex(v).mark_count, 1);
    }

    #[test]
    fn vacuous_qos_bound_adds_no_mark() {
        let mut t = trie(4, 1);
        t.insert_leaf(id(0b1010), 1.0, false, Some(5)).unwrap();
        let marks: u32 = t.post_order().iter().map(|&v| t.vertex(v).mark_count).sum();
        assert_eq!(marks, 0);
    }

    #[test]
    fn tight_qos_bound_marks_the_leaf() {
        let mut t = trie(4, 1);
        let leaf = t.insert_leaf(id(0b1010), 1.0, false, Some(1)).unwrap();
        assert_eq!(t.vertex(leaf).mark_count, 1);
    }

    #[test]
    fn remove_clears_qos_mark() {
        let mut t = trie(4, 1);
        t.insert_leaf(id(0b1010), 1.0, false, Some(2)).unwrap();
        t.remove_leaf(id(0b1010)).unwrap();
        assert_eq!(t.vertex_count(), 1, "everything pruned back to root");
    }

    #[test]
    fn post_order_visits_children_first() {
        let mut t = trie(3, 1);
        t.insert_leaf(id(0b101), 1.0, false, None).unwrap();
        t.insert_leaf(id(0b100), 1.0, false, None).unwrap();
        let order = t.post_order();
        assert_eq!(*order.last().unwrap(), Trie::ROOT);
        let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
        for &v in &order {
            for (_, c) in t.children_of(v) {
                assert!(pos(c) < pos(v), "child before parent");
            }
        }
    }

    #[test]
    fn base16_digits_build_shallow_tries() {
        let mut t = trie(8, 4);
        let v = t.insert_leaf(id(0xAB), 1.0, false, None).unwrap();
        assert_eq!(t.vertex(v).depth, 2, "two hex digits");
        assert_eq!(t.arity, 16);
    }

    #[test]
    fn reset_to_wider_digits_regrows_arena() {
        let mut t = trie(8, 1);
        t.insert_leaf(id(0xAB), 1.0, false, None).unwrap();
        t.reset(IdSpace::new(8).unwrap(), 4).unwrap();
        assert_eq!(t.arity, 16);
        let v = t.insert_leaf(id(0xAB), 1.0, false, None).unwrap();
        assert_eq!(t.vertex(v).depth, 2);
        assert_eq!(t.leaf_vertex(id(0xAB)), Some(v));
    }
}
