//! Pass 3 of the semantic analyzer: transitive reachability over the
//! call graph, enforcing the workspace's two load-bearing contracts
//! *statically* — rules L9 (zero-alloc), L10 (panic-free) and L11
//! (ambient-free), each anchored at root sets declared in `lint.roots`.
//!
//! `lint.roots` holds one root per line, `RULE path fn_name`:
//!
//! ```text
//! L9  crates/core/src/chord/fast.rs    solve_into
//! L10 crates/faults/src/step.rs        walk
//! L11 crates/sim/src/stable.rs         run_stable
//! ```
//!
//! Comments (`#`) and blank lines are ignored. A root naming a function
//! the call graph cannot find is a **hard error**, not a skipped entry:
//! a renamed kernel must not silently disable its gate. The same file
//! also declares the pass-4 reuse-cycle roots (L13/L14), which this
//! parser accepts and [`crate::dataflow`] consumes.
//!
//! Per rule, one breadth-first traversal runs from all of the rule's
//! roots at once; every function reached is scanned for the rule's
//! forbidden constructs (matched against the rendered call-site labels
//! of [`crate::callgraph`], plus direct index expressions for L10). Each
//! hit becomes a [`Violation`] carrying a root-first [`FlowStep`] chain
//! — root declaration, every intermediate call, the construct — which
//! the SARIF emitter renders as a `codeFlows` thread flow. Findings
//! enter the normal `lint.allow` budget machinery grouped by the file
//! that *contains the construct*, so a reviewed `.expect("proof")`
//! budget works exactly as it does for L1.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::rules::{FlowStep, Rule, Violation};

/// One parsed `lint.roots` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootSpec {
    /// The rule this root anchors: reachability (L9, L10, L11) or a
    /// pass-4 reuse cycle (L13, L14 — consumed by [`crate::dataflow`]).
    pub rule: Rule,
    /// Workspace-relative path of the file defining the root function.
    pub path: String,
    /// The root function's name.
    pub name: String,
}

/// Parse the `lint.roots` file. Malformed lines and non-reachability
/// rules are errors: the roots file is contract surface, not config.
pub fn parse_roots(text: &str) -> Result<Vec<RootSpec>, String> {
    let mut roots = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (rule, path, name) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(r), Some(p), Some(n), None) => (r, p, n),
            _ => {
                return Err(format!(
                    "lint.roots:{}: expected `RULE path fn_name`, got `{line}`",
                    idx + 1
                ));
            }
        };
        let rule = Rule::parse(rule)
            .ok_or_else(|| format!("lint.roots:{}: unknown rule `{rule}`", idx + 1))?;
        if !matches!(
            rule,
            Rule::L9 | Rule::L10 | Rule::L11 | Rule::L13 | Rule::L14
        ) {
            return Err(format!(
                "lint.roots:{}: {} is not a rooted rule (only L9/L10/L11 reachability \
                 and L13/L14 reuse-cycle roots are accepted)",
                idx + 1,
                rule.name()
            ));
        }
        roots.push(RootSpec {
            rule,
            path: path.to_owned(),
            name: name.to_owned(),
        });
    }
    Ok(roots)
}

/// The forbidden construct labels of one reachability rule.
fn forbidden_labels(rule: Rule) -> &'static [&'static str] {
    match rule {
        // Allocating constructs: the static complement of the
        // `count-allocs` runtime gate. `.clone` is matched untyped — a
        // `Copy` value has no reason to spell `.clone()`, so reachable
        // clones are treated as heap clones until proven otherwise.
        Rule::L9 => &[
            ".collect",
            ".to_vec",
            ".to_owned",
            ".to_string",
            ".clone",
            "vec!",
            "format!",
            "Box::new",
            "Rc::new",
            "Arc::new",
            "Vec::new",
            "Vec::with_capacity",
            "Vec::from",
            "VecDeque::new",
            "VecDeque::with_capacity",
            "String::new",
            "String::from",
            "String::with_capacity",
            "BTreeMap::new",
            "BTreeSet::new",
            "HashMap::new",
            "HashSet::new",
        ],
        // Panic constructs; direct index expressions are handled
        // separately from the call-site labels.
        Rule::L10 => &[
            ".unwrap",
            ".expect",
            "panic!",
            "unreachable!",
            "todo!",
            "unimplemented!",
        ],
        // Entropy / time / ambient-state sources. `peercache-par` is the
        // sanctioned ambient boundary (thread count, scoped spawns) and
        // is exempted at the check site, not here.
        Rule::L11 => &[
            "Instant::now",
            "SystemTime::now",
            "RandomState::new",
            "RandomState::default",
            "thread::spawn",
            "env::var",
            "env::var_os",
            "env::args",
            "env::vars",
        ],
        _ => &[],
    }
}

fn contract_phrase(rule: Rule) -> &'static str {
    match rule {
        Rule::L9 => {
            "the solve_into kernels and the routing steps must not allocate in steady state"
        }
        Rule::L10 => "the fault walks must degrade gracefully, never panic",
        Rule::L11 => "deterministic entry points must not read ambient state",
        _ => "",
    }
}

/// Run rules L9–L11 over the call graph. Returns `(construct-file path,
/// violation)` pairs for the engine's budget grouping, ordered by
/// (rule, path, line, label). `Err` only for an unresolvable root.
pub fn check_reachability(
    graph: &CallGraph,
    roots: &[RootSpec],
) -> Result<Vec<(String, Violation)>, String> {
    let mut out: Vec<(String, Violation)> = Vec::new();
    for rule in [Rule::L9, Rule::L10, Rule::L11] {
        let specs: Vec<&RootSpec> = roots.iter().filter(|r| r.rule == rule).collect();
        if specs.is_empty() {
            continue;
        }

        // Seed the traversal; every root must bind to a graph node.
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        // fn idx → (caller idx, call line, call label); roots have none.
        let mut parent: BTreeMap<usize, (usize, usize, String)> = BTreeMap::new();
        for spec in &specs {
            let bound = graph.named_in_file(&spec.path, &spec.name);
            if bound.is_empty() {
                return Err(format!(
                    "lint.roots: no function `{}` found in {} (rule {}) — \
                     roots must track renames, they do not skip silently",
                    spec.name,
                    spec.path,
                    rule.name()
                ));
            }
            for idx in bound {
                if visited.insert(idx) {
                    queue.push_back(idx);
                }
            }
        }
        let root_set: BTreeSet<usize> = visited.clone();

        while let Some(fn_idx) = queue.pop_front() {
            for site in graph.calls(fn_idx) {
                for &target in &site.targets {
                    if visited.insert(target) {
                        parent.insert(target, (fn_idx, site.line, site.label.clone()));
                        queue.push_back(target);
                    }
                }
            }
        }

        // Scan every reached function for the rule's constructs.
        let labels = forbidden_labels(rule);
        let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
        for &fn_idx in &visited {
            let node = &graph.fns()[fn_idx];
            if rule == Rule::L11
                && (node.path.starts_with("crates/par/")
                    || node.path.starts_with("crates/node/src/store"))
            {
                // `peercache-par` (pool width, scoped spawns) and the
                // peer store's file persistence are the two sanctioned
                // ambient boundaries; nothing routing-visible reads
                // either.
                continue;
            }
            let mut hits: Vec<(usize, String)> = graph
                .calls(fn_idx)
                .iter()
                .filter(|s| labels.contains(&s.label.as_str()))
                .map(|s| (s.line, format!("`{}`", s.label)))
                .collect();
            if rule == Rule::L10 {
                hits.extend(
                    graph
                        .index_lines(fn_idx)
                        .iter()
                        .map(|&l| (l, "direct index expression".to_owned())),
                );
            }
            hits.sort();
            for (line, construct) in hits {
                if !seen.insert((node.path.clone(), line, construct.clone())) {
                    continue;
                }
                let flow = build_flow(graph, &root_set, &parent, fn_idx, line, &construct, rule);
                let root_step = &flow[0];
                out.push((
                    node.path.clone(),
                    Violation {
                        line,
                        rule,
                        message: format!(
                            "{construct} in `{}` is reachable from {} root `{}` \
                             ({} call(s) deep) — {}; see lint.roots and \
                             `--explain {}`",
                            node.qualified_name(),
                            rule.name(),
                            root_step.message,
                            flow.len().saturating_sub(2),
                            contract_phrase(rule),
                            rule.name()
                        ),
                        flow,
                    },
                ));
            }
        }
    }
    out.sort_by(|a, b| {
        (a.1.rule, &a.0, a.1.line, &a.1.message).cmp(&(b.1.rule, &b.0, b.1.line, &b.1.message))
    });
    Ok(out)
}

/// Assemble the root-first call chain ending at `(fn_idx, line)`.
fn build_flow(
    graph: &CallGraph,
    roots: &BTreeSet<usize>,
    parent: &BTreeMap<usize, (usize, usize, String)>,
    fn_idx: usize,
    construct_line: usize,
    construct: &str,
    rule: Rule,
) -> Vec<FlowStep> {
    // Walk up to the root, collecting (caller, line, label) edges.
    let mut edges: Vec<(usize, usize, String)> = Vec::new();
    let mut cur = fn_idx;
    while !roots.contains(&cur) {
        let Some((caller, line, label)) = parent.get(&cur) else {
            break; // unreachable by construction; degrade to a short chain
        };
        edges.push((*caller, *line, label.clone()));
        cur = *caller;
    }
    edges.reverse();

    let root = &graph.fns()[cur];
    let mut flow = vec![FlowStep {
        path: root.path.clone(),
        line: root.line,
        message: root.qualified_name(),
    }];
    for (caller, line, label) in &edges {
        let caller_node = &graph.fns()[*caller];
        flow.push(FlowStep {
            path: caller_node.path.clone(),
            line: *line,
            message: format!("`{}` calls `{label}`", caller_node.qualified_name()),
        });
    }
    let node = &graph.fns()[fn_idx];
    flow.push(FlowStep {
        path: node.path.clone(),
        line: construct_line,
        message: format!(
            "{construct} inside `{}` violates rule {}",
            node.qualified_name(),
            rule.name()
        ),
    });
    flow
}
