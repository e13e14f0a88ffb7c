//! Pass 4, stage 2: forward dataflow over the [`crate::cfg`] graphs,
//! composed with the pass-3 call graph for bottom-up summaries.
//!
//! Two analyses share one fixed-point engine (initialize the entry,
//! join predecessor out-states at merge points — loop headers widen —
//! iterate a worklist to a fixed point, then run a separate reporting
//! pass over the reachable blocks so violations are emitted exactly
//! once):
//!
//! * **L12 draw balance** runs over every function in the deterministic
//!   crates that takes an RNG parameter. The lattice is
//!   `Draws`: `Known(n)` counts draw calls on acyclic paths, joins of
//!   differing `Known`s at a branch merge produce `Conflict` (the
//!   violation), and the same join at a loop header widens silently to
//!   `Unknown` — iteration-dependent totals are loop-trip-count facts,
//!   not branch divergence. Calls forwarding the RNG splice in the
//!   callee's memoized draw summary; call-graph cycles and unresolved
//!   targets degrade to `Unknown`, never a false count.
//! * **L13 clear-before-read / L14 growth-domination** run per
//!   `lint.roots` root. The state is the set of scratch fields already
//!   cleared this reuse cycle; the join is set intersection (cleared on
//!   *every* incoming path), reads of an uncleared field report L13,
//!   growth of an uncleared field reports L14, and method calls on the
//!   scratch receiver splice the callee's per-field `FieldFate`
//!   summary so deep kernels are checked through their wrappers.
//!
//! Findings carry the intraprocedural merge/use site and the call chain
//! into the deep operation as [`FlowStep`]s, which the SARIF emitter
//! turns into codeFlows. The deliberate false-negative classes (the
//! `u128` double-draw, `&mut field` borrows assumed initializing,
//! clears demoted inside closures) are documented in DESIGN.md
//! ("Dataflow pass: CFG, draw-balance, and buffer hygiene").

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::cfg::{build_cfg, fn_signature, Cfg, DrawEffect, FieldAccess, FnSig, Op};
use crate::items::{Item, Tok};
use crate::reach::RootSpec;
use crate::rules::{FlowStep, Rule, Violation, DETERMINISTIC_CRATES};

/// The L12 lattice: how many RNG draws have happened on every path to a
/// program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draws {
    /// The same statically known count on every path so far.
    Known(u32),
    /// Data-dependent (loops, `shuffle`, macros, opaque callees): the
    /// analysis stays silent from here on.
    Unknown,
    /// Two paths merged with different known counts — the violation.
    Conflict,
}

impl Draws {
    /// Lattice join at a merge point. `loop_head` widens a disagreement
    /// to `Unknown` instead of `Conflict`.
    fn join(self, other: Draws, loop_head: bool) -> Draws {
        match (self, other) {
            (Draws::Conflict, _) | (_, Draws::Conflict) => Draws::Conflict,
            (Draws::Unknown, _) | (_, Draws::Unknown) => Draws::Unknown,
            (Draws::Known(a), Draws::Known(b)) if a == b => Draws::Known(a),
            (Draws::Known(_), Draws::Known(_)) => {
                if loop_head {
                    Draws::Unknown
                } else {
                    Draws::Conflict
                }
            }
        }
    }
}

/// What one callee does to the draw stream, from the caller's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrawSummary {
    /// Consumes exactly this many draws on every path.
    Exact(u32),
    /// Data-dependent, divergent, cyclic, or unresolved.
    Unknown,
}

/// What one callee does to one scratch field, from the caller's view.
#[derive(Debug, Clone, Default)]
struct FieldFate {
    /// The flow chain (callee decl → … → deep op) of a read that
    /// happens before the callee's own clear, on some path.
    dirty_read: Option<Vec<FlowStep>>,
    /// Same, for growth before the callee's own clear.
    dirty_grow: Option<Vec<FlowStep>>,
    /// True when the callee leaves the field cleared on every path.
    clears: bool,
}

/// Everything pass 4 needs about one analyzed function, built lazily.
struct FnCfg {
    sig: FnSig,
    cfg: Cfg,
}

/// Shared analysis context: the call graph, per-file token streams, and
/// memoized per-function artifacts.
struct Ctx<'a> {
    graph: &'a CallGraph,
    toks_by_path: BTreeMap<&'a str, &'a [Tok]>,
    cfgs: BTreeMap<usize, Option<FnCfg>>,
    draw_summaries: BTreeMap<usize, DrawSummary>,
    draws_in_progress: BTreeSet<usize>,
    fate_summaries: BTreeMap<usize, BTreeMap<String, FieldFate>>,
    fates_in_progress: BTreeSet<usize>,
}

impl<'a> Ctx<'a> {
    /// Lazily build (and cache) the signature + CFG of function `idx`.
    fn fn_cfg(&mut self, idx: usize) -> Option<&FnCfg> {
        if !self.cfgs.contains_key(&idx) {
            let node = &self.graph.fns()[idx];
            let built = self
                .toks_by_path
                .get(node.path.as_str())
                .and_then(|toks| fn_signature(toks, node).map(|sig| (toks, sig)))
                .map(|(toks, sig)| {
                    let cfg = build_cfg(toks, &sig);
                    FnCfg { sig, cfg }
                });
            self.cfgs.insert(idx, built);
        }
        self.cfgs.get(&idx).and_then(|o| o.as_ref())
    }

    /// Resolve the pass-3 targets of the call-site at `line` with
    /// `label` inside function `idx`.
    fn resolve(&self, idx: usize, line: usize, label: &str) -> Vec<usize> {
        self.graph
            .calls(idx)
            .iter()
            .filter(|cs| cs.line == line && cs.label == label)
            .flat_map(|cs| cs.targets.iter().copied())
            .collect()
    }

    /// The draw summary of function `idx`: how many draws it consumes
    /// on its own RNG parameter. Memoized; call-graph cycles degrade to
    /// `Unknown`.
    fn draw_summary(&mut self, idx: usize) -> DrawSummary {
        if let Some(&s) = self.draw_summaries.get(&idx) {
            return s;
        }
        if !self.draws_in_progress.insert(idx) {
            return DrawSummary::Unknown; // cycle
        }
        let s = self.compute_draw_summary(idx);
        self.draws_in_progress.remove(&idx);
        self.draw_summaries.insert(idx, s);
        s
    }

    fn compute_draw_summary(&mut self, idx: usize) -> DrawSummary {
        let Some(fc) = self.fn_cfg(idx) else {
            return DrawSummary::Unknown;
        };
        if fc.sig.rng_params.is_empty() {
            // The callee does not bind an RNG parameter the analysis
            // recognizes; whatever it received is not drawn from here.
            return DrawSummary::Exact(0);
        }
        let (ins, exit) = {
            let exit = fc.cfg.exit;
            (self.draw_fixpoint(idx), exit)
        };
        match ins.get(exit).copied().flatten() {
            Some(Draws::Known(n)) => DrawSummary::Exact(n),
            // A conflict is reported inside the callee itself; callers
            // see it as data-dependent, not as a second finding.
            _ => DrawSummary::Unknown,
        }
    }

    /// Run the L12 forward fixpoint over function `idx`. Returns the
    /// per-block in-states (`None` = unreachable; empty when the
    /// function's CFG cannot be built).
    fn draw_fixpoint(&mut self, idx: usize) -> Vec<Option<Draws>> {
        // Snapshot the op lists so callee summaries can be resolved
        // (mutably) while iterating.
        let Some(fc) = self.fn_cfg(idx) else {
            return Vec::new();
        };
        let preds = fc.cfg.preds();
        let loop_heads: Vec<bool> = fc.cfg.blocks.iter().map(|b| b.loop_head).collect();
        let blocks: Vec<Vec<Op>> = fc.cfg.blocks.iter().map(|b| b.ops.clone()).collect();
        let entry = fc.cfg.entry;
        let n = blocks.len();
        let mut ins: Vec<Option<Draws>> = vec![None; n];
        ins[entry] = Some(Draws::Known(0));
        let mut work: Vec<usize> = (0..n).collect();
        while let Some(b) = work.pop() {
            let mut in_state = if b == entry {
                Some(Draws::Known(0))
            } else {
                None
            };
            for &p in &preds[b] {
                if let Some(pin) = ins[p] {
                    let pout = self.draw_transfer(idx, pin, &blocks[p]);
                    in_state = Some(match in_state {
                        None => pout,
                        Some(cur) => cur.join(pout, loop_heads[b]),
                    });
                }
            }
            if in_state != ins[b] && in_state.is_some() {
                ins[b] = in_state;
                // Requeue successors (via preds-inverse: all blocks that
                // list b as a pred).
                for (s, ps) in preds.iter().enumerate() {
                    if ps.contains(&b) && !work.contains(&s) {
                        work.push(s);
                    }
                }
            }
        }
        ins
    }

    /// L12 transfer function: fold a block's ops over an in-state.
    fn draw_transfer(&mut self, idx: usize, mut state: Draws, ops: &[Op]) -> Draws {
        for op in ops {
            let effect = match op {
                Op::Draw { count, .. } => match count {
                    DrawEffect::Exact(k) => DrawSummary::Exact(*k),
                    DrawEffect::Unknown => DrawSummary::Unknown,
                },
                Op::OpaqueDraw { .. } => DrawSummary::Unknown,
                Op::RngCall { line, label } => {
                    let targets = self.resolve(idx, *line, label);
                    if targets.is_empty() {
                        DrawSummary::Unknown
                    } else {
                        let mut agg: Option<DrawSummary> = None;
                        for t in targets {
                            let s = self.draw_summary(t);
                            agg = Some(match (agg, s) {
                                (None, s) => s,
                                (Some(DrawSummary::Exact(a)), DrawSummary::Exact(b)) if a == b => {
                                    DrawSummary::Exact(a)
                                }
                                _ => DrawSummary::Unknown,
                            });
                        }
                        agg.unwrap_or(DrawSummary::Unknown)
                    }
                }
                Op::ScratchCall { .. } | Op::Field { .. } => continue,
            };
            state = match (state, effect) {
                (Draws::Known(n), DrawSummary::Exact(k)) => Draws::Known(n + k),
                (Draws::Known(_), DrawSummary::Unknown) => Draws::Unknown,
                (s, _) => s, // Unknown and Conflict absorb
            };
        }
        state
    }

    /// The per-field fate summary of function `idx`, for splicing at
    /// `recv.method(…)` call sites. Memoized; cycles degrade to empty.
    fn fate_summary(&mut self, idx: usize) -> BTreeMap<String, FieldFate> {
        if let Some(s) = self.fate_summaries.get(&idx) {
            return s.clone();
        }
        if !self.fates_in_progress.insert(idx) {
            return BTreeMap::new(); // cycle
        }
        let s = self.compute_fate_summary(idx);
        self.fates_in_progress.remove(&idx);
        self.fate_summaries.insert(idx, s.clone());
        s
    }

    fn compute_fate_summary(&mut self, idx: usize) -> BTreeMap<String, FieldFate> {
        let Some(fc) = self.fn_cfg(idx) else {
            return BTreeMap::new();
        };
        if fc.sig.scratch_params.is_empty() {
            return BTreeMap::new();
        }
        let (node_path, node_line, qual) = {
            let node = &self.graph.fns()[idx];
            (node.path.clone(), node.line, node.qualified_name())
        };
        let (ins, blocks, exit) = self.fate_fixpoint(idx);
        let mut fates: BTreeMap<String, FieldFate> = BTreeMap::new();
        // Reporting sweep: find the first dirty read/grow per field.
        for (b, ops) in blocks.iter().enumerate() {
            let Some(in_set) = &ins[b] else { continue };
            let mut cleared = in_set.clone();
            for op in ops {
                self.fate_step(idx, op, &mut cleared, &mut |field, kind, chain| {
                    let fate = fates.entry(field.to_owned()).or_default();
                    let slot = match kind {
                        DirtyKind::Read => &mut fate.dirty_read,
                        DirtyKind::Grow => &mut fate.dirty_grow,
                    };
                    if slot.is_none() {
                        let mut full = vec![FlowStep {
                            path: node_path.clone(),
                            line: node_line,
                            message: format!("inside `{qual}`"),
                        }];
                        full.extend(chain);
                        *slot = Some(full);
                    }
                });
            }
        }
        // Fields left cleared on every path reaching the exit.
        if let Some(exit_set) = ins.get(exit).and_then(|o| o.as_ref()) {
            for field in exit_set {
                fates.entry(field.clone()).or_default().clears = true;
            }
        }
        fates
    }

    /// Run the L13/L14 forward fixpoint over function `idx`. Returns
    /// (per-block in-sets, per-block op snapshots, exit index).
    #[allow(clippy::type_complexity)]
    fn fate_fixpoint(
        &mut self,
        idx: usize,
    ) -> (Vec<Option<BTreeSet<String>>>, Vec<Vec<Op>>, usize) {
        let Some(fc) = self.fn_cfg(idx) else {
            return (Vec::new(), Vec::new(), 0);
        };
        let preds = fc.cfg.preds();
        let blocks: Vec<Vec<Op>> = fc.cfg.blocks.iter().map(|b| b.ops.clone()).collect();
        let entry = fc.cfg.entry;
        let exit = fc.cfg.exit;
        let n = blocks.len();
        let mut ins: Vec<Option<BTreeSet<String>>> = vec![None; n];
        ins[entry] = Some(BTreeSet::new());
        let mut work: Vec<usize> = (0..n).collect();
        while let Some(b) = work.pop() {
            let mut in_state: Option<BTreeSet<String>> = if b == entry {
                Some(BTreeSet::new())
            } else {
                None
            };
            for &p in &preds[b] {
                if let Some(pin) = ins[p].clone() {
                    let mut pout = pin;
                    for op in &blocks[p] {
                        self.fate_step(idx, op, &mut pout, &mut |_, _, _| {});
                    }
                    in_state = Some(match in_state {
                        None => pout,
                        // Join = intersection: cleared on EVERY path.
                        Some(cur) => cur.intersection(&pout).cloned().collect(),
                    });
                }
            }
            if in_state != ins[b] && in_state.is_some() {
                ins[b] = in_state;
                for (s, ps) in preds.iter().enumerate() {
                    if ps.contains(&b) && !work.contains(&s) {
                        work.push(s);
                    }
                }
            }
        }
        (ins, blocks, exit)
    }

    /// L13/L14 transfer for one op: update the cleared-set, invoking
    /// `on_dirty(field, kind, chain)` for reads/grows of uncleared
    /// fields (the fixpoint passes a no-op sink; the reporting sweep
    /// records).
    fn fate_step(
        &mut self,
        idx: usize,
        op: &Op,
        cleared: &mut BTreeSet<String>,
        on_dirty: &mut dyn FnMut(&str, DirtyKind, Vec<FlowStep>),
    ) {
        let path = self.graph.fns()[idx].path.clone();
        match op {
            Op::Field {
                line,
                field,
                access,
            } => match access {
                FieldAccess::Clear => {
                    cleared.insert(field.clone());
                }
                FieldAccess::Grow => {
                    if !cleared.contains(field) {
                        on_dirty(
                            field,
                            DirtyKind::Grow,
                            vec![FlowStep {
                                path,
                                line: *line,
                                message: format!("`{field}` grows here"),
                            }],
                        );
                        // One report per field per cycle: growth also
                        // establishes the buffer for later ops.
                        cleared.insert(field.clone());
                    }
                }
                FieldAccess::Read => {
                    if !cleared.contains(field) {
                        on_dirty(
                            field,
                            DirtyKind::Read,
                            vec![FlowStep {
                                path,
                                line: *line,
                                message: format!("`{field}` read here"),
                            }],
                        );
                        cleared.insert(field.clone());
                    }
                }
                // A method we don't model on the field: the kernel
                // convention is that such helpers (re)establish their
                // own buffer (`rebase_into`, `solve`), so treat as a
                // clear — a documented false-negative class.
                FieldAccess::Call { .. } => {
                    cleared.insert(field.clone());
                }
            },
            Op::ScratchCall { line, label } => {
                let targets = self.resolve(idx, *line, label);
                // Splice the first resolved target's summary (multiple
                // targets on one label are same-named methods; taking
                // the first keeps reports deterministic).
                let Some(&t) = targets.first() else { return };
                let summary = self.fate_summary(t);
                for (field, fate) in summary {
                    if !cleared.contains(&field) {
                        if let Some(chain) = &fate.dirty_read {
                            let mut full = vec![FlowStep {
                                path: path.clone(),
                                line: *line,
                                message: format!("calls {label}"),
                            }];
                            full.extend(chain.clone());
                            on_dirty(&field, DirtyKind::Read, full);
                        }
                        if let Some(chain) = &fate.dirty_grow {
                            let mut full = vec![FlowStep {
                                path: path.clone(),
                                line: *line,
                                message: format!("calls {label}"),
                            }];
                            full.extend(chain.clone());
                            on_dirty(&field, DirtyKind::Grow, full);
                        }
                    }
                    if fate.clears {
                        cleared.insert(field);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Which dirty event a reporting sweep observed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DirtyKind {
    Read,
    Grow,
}

/// Run pass 4 over the workspace: L12 on every RNG-taking function in
/// the deterministic crates, L13/L14 on each root from `lint.roots`.
///
/// Returns `(file path, violation)` pairs — the path keys `lint.allow`
/// budgets — or `Err` when an L13/L14 root cannot be resolved (roots
/// must track renames, they do not skip silently).
pub fn check_dataflow(
    graph: &CallGraph,
    files: &[(String, Vec<Item>, Vec<Tok>)],
    roots: &[RootSpec],
) -> Result<Vec<(String, Violation)>, String> {
    let mut ctx = Ctx {
        graph,
        toks_by_path: files
            .iter()
            .map(|(p, _, t)| (p.as_str(), t.as_slice()))
            .collect(),
        cfgs: BTreeMap::new(),
        draw_summaries: BTreeMap::new(),
        draws_in_progress: BTreeSet::new(),
        fate_summaries: BTreeMap::new(),
        fates_in_progress: BTreeSet::new(),
    };
    let mut out: Vec<(String, Violation)> = Vec::new();

    // ---- L12: draw balance in the deterministic crates -------------
    for idx in 0..graph.fns().len() {
        let (path, line, qual) = {
            let node = &graph.fns()[idx];
            (node.path.clone(), node.line, node.qualified_name())
        };
        let deterministic = DETERMINISTIC_CRATES
            .iter()
            .any(|c| path.starts_with(&format!("crates/{c}/")));
        if !deterministic {
            continue;
        }
        let info = match ctx.fn_cfg(idx) {
            Some(fc) if !fc.sig.rng_params.is_empty() => (
                fc.cfg.preds(),
                fc.cfg
                    .blocks
                    .iter()
                    .map(|b| b.loop_head)
                    .collect::<Vec<_>>(),
                fc.cfg.blocks.iter().map(|b| b.line).collect::<Vec<_>>(),
                fc.cfg
                    .blocks
                    .iter()
                    .map(|b| b.ops.clone())
                    .collect::<Vec<_>>(),
            ),
            _ => continue,
        };
        let (preds, loop_heads, block_lines, blocks) = info;
        let ins = ctx.draw_fixpoint(idx);
        // Conflict-origin sweep: report the merge whose incoming paths
        // disagree, not every block the conflict flows through.
        for (b, in_state) in ins.iter().enumerate() {
            if *in_state != Some(Draws::Conflict) || loop_heads[b] {
                continue;
            }
            let mut incoming: Vec<u32> = Vec::new();
            let mut any_conflict_pred = false;
            for &p in &preds[b] {
                match ins[p].map(|pin| ctx.draw_transfer(idx, pin, &blocks[p])) {
                    Some(Draws::Known(k)) if !incoming.contains(&k) => {
                        incoming.push(k);
                    }
                    Some(Draws::Conflict) => any_conflict_pred = true,
                    _ => {}
                }
            }
            if incoming.len() < 2 || any_conflict_pred {
                continue; // propagated, or not a true origin
            }
            incoming.sort_unstable();
            let counts = incoming
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join(" vs ");
            out.push((
                path.clone(),
                Violation {
                    line: block_lines[b],
                    rule: Rule::L12,
                    message: format!(
                        "RNG draw count diverges across branches in `{qual}`: \
                         merging paths have consumed {counts} draws — \
                         deterministic replay requires every branch to draw \
                         equally (restructure, or budget in lint.allow with a \
                         proof comment)"
                    ),
                    flow: vec![
                        FlowStep {
                            path: path.clone(),
                            line,
                            message: format!("`{qual}` takes an RNG parameter"),
                        },
                        FlowStep {
                            path: path.clone(),
                            line: block_lines[b],
                            message: format!("paths merge with {counts} draws"),
                        },
                    ],
                },
            ));
        }
    }

    // ---- L13/L14: scratch hygiene from the declared roots ----------
    for root in roots {
        if !matches!(root.rule, Rule::L13 | Rule::L14) {
            continue;
        }
        let indices = graph.named_in_file(&root.path, &root.name);
        if indices.is_empty() {
            return Err(format!(
                "lint.roots: no function `{}` found in {} (rule {}) — roots \
                 must track renames, they do not skip silently",
                root.name,
                root.path,
                root.rule.name()
            ));
        }
        for idx in indices {
            let (line, qual) = {
                let node = &graph.fns()[idx];
                (node.line, node.qualified_name())
            };
            let Some(fc) = ctx.fn_cfg(idx) else { continue };
            if fc.sig.scratch_params.is_empty() {
                continue;
            }
            let (ins, blocks, _exit) = ctx.fate_fixpoint(idx);
            let mut reported: BTreeSet<(String, usize)> = BTreeSet::new();
            for (b, ops) in blocks.iter().enumerate() {
                let Some(in_set) = &ins[b] else { continue };
                let mut cleared = in_set.clone();
                for op in ops {
                    let root_rule = root.rule;
                    let root_path = root.path.clone();
                    let mut hits: Vec<(String, DirtyKind, Vec<FlowStep>)> = Vec::new();
                    ctx.fate_step(idx, op, &mut cleared, &mut |field, kind, chain| {
                        hits.push((field.to_owned(), kind, chain));
                    });
                    for (field, kind, chain) in hits {
                        let wanted = match root_rule {
                            Rule::L13 => kind == DirtyKind::Read,
                            _ => kind == DirtyKind::Grow,
                        };
                        // Anchor the violation at the site inside the
                        // root's own file (the chain's first step); the
                        // deep op stays visible in the flow.
                        let site_line = chain.first().map_or(line, |s| s.line);
                        let deep_line = chain.last().map_or(line, |s| s.line);
                        if !wanted || !reported.insert((field.clone(), deep_line)) {
                            continue;
                        }
                        let verb = match kind {
                            DirtyKind::Read => "read before clear",
                            DirtyKind::Grow => "grown without a dominating clear/truncate",
                        };
                        let mut flow = vec![FlowStep {
                            path: root_path.clone(),
                            line,
                            message: format!("reuse cycle rooted at `{qual}`"),
                        }];
                        flow.extend(chain);
                        out.push((
                            root_path.clone(),
                            Violation {
                                line: site_line,
                                rule: root_rule,
                                message: format!(
                                    "scratch field `{field}` {verb} in the reuse \
                                     cycle rooted at `{qual}` — stale contents \
                                     from the previous solve would leak into \
                                     this one"
                                ),
                                flow,
                            },
                        ));
                    }
                }
            }
        }
    }

    Ok(out)
}
