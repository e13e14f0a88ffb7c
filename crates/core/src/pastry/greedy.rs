//! The `O(n·k·b)` greedy trie algorithm (paper §IV-B) and its `O(k·b)`
//! incremental form (§IV-C), with QoS constraints (§IV-D).
//!
//! Property (P) — the optimal `j − 1` pointers are a subset of the optimal
//! `j` pointers within every subtree — lets each vertex keep, instead of a
//! full cost table per split, a single *allocation order*: which child
//! receives the `j`-th pointer. Merging children is then a greedy
//! interleaving of their (non-increasing, by Lemma 4.1) marginal-gain
//! sequences. QoS marks become per-subtree lower bounds `req`; children's
//! required pointers are force-allocated before the greedy interleave,
//! which preserves optimality because constrained cost functions remain
//! concave above their requirement.

use peercache_id::Id;

use crate::cast;
use crate::pastry::trie::{Trie, NONE};
use crate::problem::{Candidate, PastryProblem, SelectError, Selection};

/// Tolerance for the non-negativity of marginal gains: interleaved
/// subtraction of eq. 1 sums accumulates rounding of this order.
const GAIN_EPS: f64 = 1e-9;

/// Incremental optimiser for Pastry auxiliary-neighbor selection.
///
/// Construction runs the full greedy algorithm in `O(n·k·b)`. Afterwards,
/// [`update_weight`](Self::update_weight),
/// [`insert`](Self::insert)/[`remove`](Self::remove) (peer churn) and
/// [`add_core`](Self::add_core)/[`remove_core`](Self::remove_core)
/// (routing-table churn) each re-solve only the root-path of the touched
/// leaf — `O(k·b)` per change — and [`selection`](Self::selection) yields
/// the optimal auxiliary set for *any* `j ≤ k` thanks to property (P).
///
/// ```
/// use peercache_core::pastry::PastryOptimizer;
/// use peercache_core::{Candidate, PastryProblem};
/// use peercache_id::{Id, IdSpace};
///
/// let space = IdSpace::new(8).unwrap();
/// let problem = PastryProblem::new(
///     space,
///     1,
///     Id::new(0),
///     vec![],
///     vec![
///         Candidate::new(Id::new(0b1000_0000), 10.0),
///         Candidate::new(Id::new(0b0100_0000), 5.0),
///     ],
///     1,
/// )
/// .unwrap();
/// let mut opt = PastryOptimizer::new(&problem).unwrap();
/// assert_eq!(opt.select().unwrap().aux, vec![Id::new(0b1000_0000)]);
/// // A popularity shift re-optimises in O(k·b), not O(n·k·b).
/// opt.update_weight(Id::new(0b0100_0000), 50.0).unwrap();
/// assert_eq!(opt.select().unwrap().aux, vec![Id::new(0b0100_0000)]);
/// ```
pub struct PastryOptimizer {
    trie: Trie,
    k: usize,
    source: Id,
    /// Scratch for `resolve_vertex`: the live `(slot, child)` pairs.
    child_scratch: Vec<(u16, u32)>,
    /// Scratch for `resolve_vertex`: per-child pointer counts.
    t_scratch: Vec<u32>,
    /// Scratch for `resolve_all`: the post-order visit sequence.
    order_scratch: Vec<u32>,
    /// Scratch for `resolve_all`: the post-order DFS stack.
    stack_scratch: Vec<(u32, bool)>,
}

impl PastryOptimizer {
    /// Build the trie for `problem` and solve it.
    ///
    /// # Errors
    /// Propagates problem-construction issues as
    /// [`SelectError::InvalidProblem`]. QoS infeasibility is *not* an error
    /// here — it surfaces from [`selection`](Self::selection), because
    /// subsequent incremental updates may restore feasibility.
    pub fn new(problem: &PastryProblem) -> Result<Self, SelectError> {
        let mut opt = PastryOptimizer {
            trie: Trie::new(problem.space, problem.digit_bits)?,
            k: problem.k,
            source: problem.source,
            child_scratch: Vec::new(),
            t_scratch: Vec::new(),
            order_scratch: Vec::new(),
            stack_scratch: Vec::new(),
        };
        opt.fill(problem)?;
        Ok(opt)
    }

    /// Re-target this optimiser at a new problem, reusing the trie slab,
    /// the solver tables and every scratch buffer. Equivalent to (and
    /// bit-identical with) `PastryOptimizer::new(problem)`, but allocation
    /// free once the buffer capacities have warmed up.
    ///
    /// # Errors
    /// As for [`new`](Self::new). On error the optimiser holds the
    /// partially built trie; call `rebuild` again before further use.
    pub fn rebuild(&mut self, problem: &PastryProblem) -> Result<(), SelectError> {
        self.trie.reset(problem.space, problem.digit_bits)?;
        self.k = problem.k;
        self.source = problem.source;
        self.fill(problem)
    }

    /// Shared tail of [`new`](Self::new)/[`rebuild`](Self::rebuild):
    /// populate the (empty) trie and run the full greedy solve.
    fn fill(&mut self, problem: &PastryProblem) -> Result<(), SelectError> {
        for cand in &problem.candidates {
            self.trie
                .insert_leaf(cand.id, cand.weight, false, cand.max_hops)?;
        }
        for &core in &problem.core {
            self.trie.insert_leaf(core, 0.0, true, None)?;
        }
        self.resolve_all();
        Ok(())
    }

    /// The pointer budget the solver was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total candidate weight `Σ_v f_v`.
    pub fn total_weight(&self) -> f64 {
        self.trie.total_weight()
    }

    /// Minimum auxiliary pointers any feasible solution needs (QoS).
    #[cfg(test)]
    pub fn required_pointers(&self) -> u32 {
        self.trie.vertex(Trie::ROOT).req
    }

    // ---- solving --------------------------------------------------------

    fn resolve_all(&mut self) {
        let mut order = std::mem::take(&mut self.order_scratch);
        let mut stack = std::mem::take(&mut self.stack_scratch);
        self.trie.post_order_into(&mut order, &mut stack);
        for &v in &order {
            self.resolve_vertex(v);
        }
        self.order_scratch = order;
        self.stack_scratch = stack;
    }

    fn resolve_path(&mut self, from: u32) {
        let mut v = from;
        while v != NONE {
            self.resolve_vertex(v);
            v = self.trie.vertex(v).parent;
        }
    }

    /// Recompute aggregates and solver state of `v` from its children
    /// (which must already be resolved) or its leaf payload.
    fn resolve_vertex(&mut self, v: u32) {
        let k = u32::try_from(self.k).unwrap_or(u32::MAX);
        // Leaf vertices have no children by construction (full-depth trie).
        if let Some(leaf) = self.trie.vertex(v).leaf {
            debug_assert!(self.trie.children_of(v).next().is_none());
            let vert = self.trie.vertex_mut(v);
            vert.weight = leaf.weight;
            vert.core_count = u32::from(leaf.is_core);
            vert.cand_count = u32::from(!leaf.is_core);
            vert.base = 0;
            // A marked leaf must itself be a neighbor.
            vert.req = if vert.mark_count > 0 && !leaf.is_core {
                1
            } else {
                0
            };
            vert.impossible = vert.req > vert.cand_count;
            let cap = k.min(vert.cand_count);
            vert.costs.clear();
            vert.alloc.clear();
            if !(vert.impossible || vert.req > cap) {
                vert.costs.resize(cast::usize_from_u32(cap) + 1, 0.0);
                vert.alloc.resize(cast::usize_from_u32(cap), 0);
            }
            return;
        }

        let mut children = std::mem::take(&mut self.child_scratch);
        children.clear();
        children.extend(self.trie.children_of(v));
        let mut weight = 0.0;
        let mut cand_count = 0u32;
        let mut core_count = 0u32;
        let mut base = 0u32;
        let mut impossible = false;
        for &(_, c) in &children {
            let cv = self.trie.vertex(c);
            weight += cv.weight;
            cand_count += cv.cand_count;
            core_count += cv.core_count;
            base += cv.req;
            impossible |= cv.impossible;
        }
        let mark_count = self.trie.vertex(v).mark_count;
        let req = if mark_count > 0 && core_count == 0 {
            base.max(1)
        } else {
            base
        };
        impossible |= req > cand_count;
        let cap = k.min(cand_count);

        if impossible || base > cap {
            let vert = self.trie.vertex_mut(v);
            vert.weight = weight;
            vert.cand_count = cand_count;
            vert.core_count = core_count;
            vert.base = base;
            vert.req = req;
            vert.impossible = impossible;
            vert.costs.clear();
            vert.alloc.clear();
            self.child_scratch = children;
            return;
        }

        // Effective child cost: D_c(t) = C(T_c, t) + F(T_c)·[t = 0 ∧ no
        // core neighbor in T_c] (the edge-indicator term of eq. 2).
        let d_of = |trie: &Trie, c: u32, t: u32| -> f64 {
            let cv = trie.vertex(c);
            let edge = if t == 0 && cv.core_count == 0 {
                cv.weight
            } else {
                0.0
            };
            cv.cost_at(t) + edge
        };

        // Force each child's requirement, then greedily interleave gains.
        let mut t_child = std::mem::take(&mut self.t_scratch);
        t_child.clear();
        t_child.extend(children.iter().map(|&(_, c)| self.trie.vertex(c).req));
        let mut cost = 0.0;
        for (i, &(_, c)) in children.iter().enumerate() {
            cost += d_of(&self.trie, c, t_child[i]);
        }
        let steps = cast::usize_from_u32(cap - base);
        let (mut costs, mut alloc) = {
            let vert = self.trie.vertex_mut(v);
            (
                std::mem::take(&mut vert.costs),
                std::mem::take(&mut vert.alloc),
            )
        };
        costs.clear();
        alloc.clear();
        costs.push(cost);
        for _ in 0..steps {
            let mut best: Option<(f64, usize)> = None;
            for (i, &(_, c)) in children.iter().enumerate() {
                let t = t_child[i];
                let child_cap = self
                    .trie
                    .vertex(c)
                    .cap()
                    .expect("children of a feasible vertex are solved");
                if t + 1 > child_cap {
                    continue;
                }
                let gain = d_of(&self.trie, c, t) - d_of(&self.trie, c, t + 1);
                let better = match best {
                    None => true,
                    Some((bg, _)) => gain.total_cmp(&bg).is_gt(),
                };
                if better {
                    best = Some((gain, i));
                }
            }
            let (gain, i) = best.expect("cap ≤ Σ child caps guarantees a step");
            debug_assert!(gain >= -GAIN_EPS, "marginal gains are non-negative");
            t_child[i] += 1;
            cost -= gain;
            costs.push(cost);
            alloc.push(children[i].0);
        }

        let vert = self.trie.vertex_mut(v);
        vert.weight = weight;
        vert.cand_count = cand_count;
        vert.core_count = core_count;
        vert.base = base;
        vert.req = req;
        vert.impossible = false;
        vert.costs = costs;
        vert.alloc = alloc;
        self.child_scratch = children;
        self.t_scratch = t_child;
    }

    // ---- extraction ------------------------------------------------------

    /// The optimal auxiliary set of size `min(j, |candidates|)` and its
    /// eq.-(1) cost.
    ///
    /// # Errors
    /// [`SelectError::QosInfeasible`] when the delay bounds cannot be met
    /// with `j` pointers (or at all).
    pub fn selection(&self, j: usize) -> Result<Selection, SelectError> {
        let mut out = Selection {
            aux: Vec::new(),
            cost: 0.0,
        };
        self.selection_into(j, &mut Vec::new(), &mut Vec::new(), &mut out)?;
        Ok(out)
    }

    /// [`selection`](Self::selection) writing into caller-owned buffers:
    /// `stack` and `counts` are traversal scratch, `out` receives the
    /// selection. Allocation free once capacities have warmed up — the
    /// extraction path for retained optimizers that re-select after
    /// incremental updates without materialising a fresh `Selection`.
    ///
    /// # Errors
    /// [`SelectError::QosInfeasible`] as for `selection`.
    pub fn selection_into(
        &self,
        j: usize,
        stack: &mut Vec<(u32, u32)>,
        counts: &mut Vec<u32>,
        out: &mut Selection,
    ) -> Result<(), SelectError> {
        let root = self.trie.vertex(Trie::ROOT);
        if root.impossible {
            return Err(SelectError::QosInfeasible {
                required: u32::MAX,
                k: u32::try_from(j).unwrap_or(u32::MAX),
            });
        }
        // min(j, k) clamped into u32 first; the result is then capped by
        // cand_count, which is already a u32.
        let j_eff = root
            .cand_count
            .min(u32::try_from(j.min(self.k)).unwrap_or(u32::MAX));
        if j_eff < root.req || root.costs.is_empty() {
            return Err(SelectError::QosInfeasible {
                required: root.req,
                k: j_eff,
            });
        }
        out.aux.clear();
        self.collect_into(j_eff, stack, counts, &mut out.aux);
        // Ids are unique (trie leaves), so the unstable sort is
        // deterministic and matches the previous stable sort.
        out.aux.sort_unstable();
        debug_assert_eq!(out.aux.len(), cast::usize_from_u32(j_eff));
        out.cost = self.total_weight() + root.cost_at(j_eff);
        Ok(())
    }

    /// [`selection`](Self::selection) at the full budget `k`.
    ///
    /// # Errors
    /// [`SelectError::QosInfeasible`] as for `selection`.
    pub fn select(&self) -> Result<Selection, SelectError> {
        self.selection(self.k)
    }

    /// The full budget schedule: the optimal selection for **every**
    /// feasible pointer budget `j ≤ k`, as `(j, selection)` pairs in
    /// increasing `j`. By property (P) consecutive selections nest, so
    /// this enumerates the order in which routing-table slots pay off
    /// (the maintenance-cost trade-off of §I). Budgets below the QoS
    /// requirement are absent.
    pub fn selection_schedule(&self) -> Vec<(usize, Selection)> {
        let mut out = Vec::with_capacity(self.k + 1);
        for j in 0..=self.k {
            if let Ok(sel) = self.selection(j) {
                if out
                    .last()
                    .is_some_and(|(_, prev): &(usize, Selection)| prev.aux.len() == sel.aux.len())
                {
                    break; // budget exceeds the candidate supply
                }
                out.push((j, sel));
            }
        }
        #[cfg(feature = "check-invariants")]
        {
            crate::invariants::assert_schedule_costs_monotone(&out);
            crate::invariants::assert_schedule_selections_nested(&out);
        }
        out
    }

    /// Walk the allocation tree, pushing the `t`-pointer optimal leaf set.
    /// Iterative (explicit `stack`) with a dense per-slot count buffer so
    /// extraction reuses caller scratch instead of allocating per vertex.
    /// Visit order differs from the old recursive walk, but the caller
    /// sorts `out`, so the final selection is identical.
    fn collect_into(
        &self,
        t_root: u32,
        stack: &mut Vec<(u32, u32)>,
        counts: &mut Vec<u32>,
        out: &mut Vec<Id>,
    ) {
        stack.clear();
        stack.push((Trie::ROOT, t_root));
        while let Some((v, t)) = stack.pop() {
            if t == 0 {
                continue;
            }
            let vert = self.trie.vertex(v);
            if let Some(leaf) = &vert.leaf {
                debug_assert_eq!(t, 1);
                debug_assert!(!leaf.is_core);
                out.push(leaf.id);
                continue;
            }
            // Per-child totals: forced requirement + greedy allocations.
            counts.clear();
            counts.resize(self.trie.arity, 0);
            for (slot, c) in self.trie.children_of(v) {
                counts[usize::from(slot)] = self.trie.vertex(c).req;
            }
            let extra = cast::usize_from_u32(t - vert.base);
            for &slot in &vert.alloc[..extra] {
                counts[usize::from(slot)] += 1;
            }
            let mut assigned = 0u32;
            for (slot, c) in self.trie.children_of(v) {
                let count = counts[usize::from(slot)];
                if count > 0 {
                    assigned += count;
                    stack.push((c, count));
                }
            }
            debug_assert_eq!(assigned, t, "alloc refers to live children");
        }
    }

    // ---- incremental maintenance (§IV-C) --------------------------------

    /// Change the access frequency of an existing candidate. `O(k·b)`.
    ///
    /// # Errors
    /// `InvalidProblem` if `id` is unknown, is a core leaf, or `weight`
    /// is invalid.
    pub fn update_weight(&mut self, id: Id, weight: f64) -> Result<(), SelectError> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(SelectError::InvalidProblem(format!(
                "invalid weight {weight}"
            )));
        }
        let v = self
            .trie
            .leaf_vertex(id)
            .ok_or_else(|| SelectError::InvalidProblem(format!("unknown peer {id}")))?;
        let leaf = self
            .trie
            .vertex_mut(v)
            .leaf
            .as_mut()
            .expect("leaf map points at leaves");
        if leaf.is_core {
            return Err(SelectError::InvalidProblem(format!(
                "{id} is a core neighbor, not a candidate"
            )));
        }
        leaf.weight = weight;
        self.resolve_path(v);
        Ok(())
    }

    /// Add a newly observed peer. `O(k·b)`.
    ///
    /// # Errors
    /// `InvalidProblem` on duplicates or invalid weight.
    pub fn insert(&mut self, cand: Candidate) -> Result<(), SelectError> {
        if !cand.weight.is_finite() || cand.weight < 0.0 {
            return Err(SelectError::InvalidProblem(format!(
                "invalid weight {}",
                cand.weight
            )));
        }
        if cand.max_hops == Some(0) {
            return Err(SelectError::InvalidProblem(
                "max_hops must be ≥ 1".to_string(),
            ));
        }
        if cand.id == self.source {
            return Err(SelectError::InvalidProblem(format!(
                "candidate {} equals the source node",
                cand.id
            )));
        }
        let v = self
            .trie
            .insert_leaf(cand.id, cand.weight, false, cand.max_hops)?;
        self.resolve_path(v);
        Ok(())
    }

    /// Remove a departed peer. `O(k·b)`.
    ///
    /// # Errors
    /// `InvalidProblem` if `id` is unknown or is a core leaf (use
    /// [`remove_core`](Self::remove_core)).
    pub fn remove(&mut self, id: Id) -> Result<(), SelectError> {
        match self.trie.leaf_vertex(id) {
            Some(v) if self.trie.vertex(v).leaf.as_ref().is_some_and(|l| l.is_core) => {
                return Err(SelectError::InvalidProblem(format!(
                    "{id} is a core neighbor; use remove_core"
                )));
            }
            Some(_) => {}
            None => {
                return Err(SelectError::InvalidProblem(format!("unknown peer {id}")));
            }
        }
        let survivor = self.trie.remove_leaf(id)?;
        self.resolve_path(survivor);
        Ok(())
    }

    /// Register a new core neighbor (e.g. after a routing-table repair).
    /// `O(k·b)`.
    ///
    /// # Errors
    /// `InvalidProblem` if `id` is already present.
    pub fn add_core(&mut self, id: Id) -> Result<(), SelectError> {
        if id == self.source {
            return Err(SelectError::InvalidProblem(format!(
                "core neighbor {id} equals the source node"
            )));
        }
        let v = self.trie.insert_leaf(id, 0.0, true, None)?;
        self.resolve_path(v);
        Ok(())
    }

    /// Remove a core neighbor that left the routing table. `O(k·b)`.
    ///
    /// # Errors
    /// `InvalidProblem` if `id` is unknown or not a core leaf.
    pub fn remove_core(&mut self, id: Id) -> Result<(), SelectError> {
        match self.trie.leaf_vertex(id) {
            Some(v) if self.trie.vertex(v).leaf.as_ref().is_some_and(|l| l.is_core) => {}
            Some(_) => {
                return Err(SelectError::InvalidProblem(format!(
                    "{id} is a candidate, not a core neighbor"
                )));
            }
            None => {
                return Err(SelectError::InvalidProblem(format!("unknown peer {id}")));
            }
        }
        let survivor = self.trie.remove_leaf(id)?;
        self.resolve_path(survivor);
        Ok(())
    }
}

/// A reusable §IV-B solver: owns the trie slab, the per-vertex solver
/// tables and every traversal scratch buffer, so that repeated
/// [`solve_into`](Self::solve_into) calls allocate **nothing** once the
/// buffer capacities have warmed up to the problem size.
///
/// Results are bit-identical to the one-shot [`select_greedy`]; the
/// workspace only changes where the intermediate state lives.
pub struct PastryWorkspace {
    opt: Option<PastryOptimizer>,
    stack: Vec<(u32, u32)>,
    counts: Vec<u32>,
    selection: Selection,
}

impl Default for PastryWorkspace {
    fn default() -> Self {
        PastryWorkspace::new()
    }
}

impl PastryWorkspace {
    /// An empty workspace; buffers grow to the largest problem solved.
    #[must_use]
    pub fn new() -> Self {
        PastryWorkspace {
            opt: None,
            stack: Vec::new(),
            counts: Vec::new(),
            selection: Selection {
                aux: Vec::new(),
                cost: 0.0,
            },
        }
    }

    /// Solve `problem` with the greedy algorithm, reusing this workspace's
    /// buffers. The returned selection borrows the workspace and is
    /// overwritten by the next solve; clone it to keep it.
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] on malformed input;
    /// [`SelectError::QosInfeasible`] when delay bounds cannot be met
    /// with `k` pointers.
    pub fn solve_into(&mut self, problem: &PastryProblem) -> Result<&Selection, SelectError> {
        let opt = match self.opt.take() {
            Some(mut opt) => {
                opt.rebuild(problem)?;
                opt
            }
            None => PastryOptimizer::new(problem)?,
        };
        let solved = opt.selection_into(
            problem.k,
            &mut self.stack,
            &mut self.counts,
            &mut self.selection,
        );
        self.opt = Some(opt);
        solved?;
        #[cfg(feature = "check-invariants")]
        crate::invariants::assert_greedy_matches_dp(problem, &self.selection);
        Ok(&self.selection)
    }
}

/// One-shot greedy selection (paper §IV-B): `O(n·k·b)`.
///
/// # Errors
/// [`SelectError::InvalidProblem`] on malformed input;
/// [`SelectError::QosInfeasible`] when delay bounds cannot be met.
pub fn select_greedy(problem: &PastryProblem) -> Result<Selection, SelectError> {
    let selection = PastryOptimizer::new(problem)?.select()?;
    #[cfg(feature = "check-invariants")]
    crate::invariants::assert_greedy_matches_dp(problem, &selection);
    Ok(selection)
}
