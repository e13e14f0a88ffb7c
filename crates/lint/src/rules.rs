//! The paper-invariant style rules (L1–L8) and the rule registry
//! (L1–L14).
//!
//! | Rule | Scope | Checks |
//! |------|-------|--------|
//! | L1 | library code, all crates | no `unwrap()` / `expect()` calls, no `panic!` / `todo!` / `unimplemented!` |
//! | L2 | library code in `crates/id`, `crates/core` | no bare `as` numeric casts (use `From`/`TryFrom`/`wrapping_*`) |
//! | L3 | every file, including tests and vendor | no `unsafe` |
//! | L4 | library code in `crates/id`, `crates/freq`, `crates/core` | every `pub fn` / `pub struct` carries a doc comment |
//! | L5 | library code outside `crates/bench` | no `Instant` / `SystemTime` (wall-clock reads break deterministic simulation) |
//! | L6 | library code in deterministic crates (`core`, `sim`, `chord`, `pastry`, `tapestry`, `skipgraph`, `par`) | no `HashMap`/`HashSet` iteration (`iter`, `keys`, `values`, `drain`, `into_iter`, `for … in`) — the order is randomized; use `BTreeMap`/`BTreeSet` or sort first |
//! | L7 | `pub` items in `crates/*/src` library code | no public item unreferenced by the rest of the workspace (dead API) |
//! | L8 | library code in `crates/core`, `crates/sim` | no direct `==`/`<` comparison or `partial_cmp` on f64 cost values — use `costs_agree`-style epsilon helpers or `total_cmp` |
//! | L12 | RNG-taking functions in the deterministic crates | RNG draw balance: every branch of a function taking `&mut` RNG consumes the same draw count ([`crate::dataflow`]) |
//! | L13 | reuse cycles rooted in `lint.roots` | clear-before-read: scratch fields are written or cleared on every path before first read ([`crate::dataflow`]) |
//! | L14 | reuse cycles rooted in `lint.roots` | growth-domination: `push`/`extend`/`insert` on reused buffers is dominated by a `clear`/`truncate` ([`crate::dataflow`]) |
//!
//! "Library code" excludes `tests/`, `benches/`, `examples/`, `vendor/`
//! and — per rule, within a file — `#[cfg(test)]` regions. Matching runs
//! on the scanner's blanked text ([`crate::scan`]), so occurrences inside
//! strings, comments and doc-test fences never fire; L6–L8 additionally
//! consult the item tree and workspace symbol table built by
//! [`crate::items`] / [`crate::symbols`].

use std::collections::BTreeSet;

use crate::items::{ident_at, punct_at, tokenize, Tok, TokKind};
use crate::scan::{scan, test_regions, ScannedLine};

/// Rule identifiers, printed in diagnostics and used in `lint.allow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No `unwrap()`/`expect()`/`panic!`/`todo!`/`unimplemented!` in
    /// library code.
    L1,
    /// No bare `as` numeric casts in `crates/id` and `crates/core`.
    L2,
    /// No `unsafe` anywhere.
    L3,
    /// Doc comments on `pub fn`/`pub struct` in id/freq/core.
    L4,
    /// No wall-clock reads (`Instant`, `SystemTime`) in deterministic
    /// code paths.
    L5,
    /// No `HashMap`/`HashSet` iteration in deterministic crates.
    L6,
    /// No unreferenced `pub` item in internal crates.
    L7,
    /// No direct f64 cost comparison in `core`/`sim` library code.
    L8,
    /// No allocating construct reachable from the `solve_into` kernels
    /// or the routing steps.
    L9,
    /// No panic construct reachable from the fault walks.
    L10,
    /// No entropy/time/ambient-state source reachable from deterministic
    /// entry points.
    L11,
    /// RNG draw balance: same draw count on every branch of a function
    /// taking `&mut` RNG in the deterministic crates.
    L12,
    /// Clear-before-read on scratch fields in rooted reuse cycles.
    L13,
    /// Growth-domination: buffer growth dominated by clear/truncate in
    /// rooted reuse cycles.
    L14,
}

/// Every rule, in order — the SARIF emitter indexes into this.
pub const ALL_RULES: [Rule; 14] = [
    Rule::L1,
    Rule::L2,
    Rule::L3,
    Rule::L4,
    Rule::L5,
    Rule::L6,
    Rule::L7,
    Rule::L8,
    Rule::L9,
    Rule::L10,
    Rule::L11,
    Rule::L12,
    Rule::L13,
    Rule::L14,
];

impl Rule {
    /// The rule's name as printed in diagnostics and `lint.allow`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
            Rule::L8 => "L8",
            Rule::L9 => "L9",
            Rule::L10 => "L10",
            Rule::L11 => "L11",
            Rule::L12 => "L12",
            Rule::L13 => "L13",
            Rule::L14 => "L14",
        }
    }

    /// Parse a rule name as it appears in `lint.allow`.
    pub fn parse(name: &str) -> Option<Rule> {
        match name {
            "L1" => Some(Rule::L1),
            "L2" => Some(Rule::L2),
            "L3" => Some(Rule::L3),
            "L4" => Some(Rule::L4),
            "L5" => Some(Rule::L5),
            "L6" => Some(Rule::L6),
            "L7" => Some(Rule::L7),
            "L8" => Some(Rule::L8),
            "L9" => Some(Rule::L9),
            "L10" => Some(Rule::L10),
            "L11" => Some(Rule::L11),
            "L12" => Some(Rule::L12),
            "L13" => Some(Rule::L13),
            "L14" => Some(Rule::L14),
            _ => None,
        }
    }

    /// One-line summary, used in SARIF rule metadata.
    pub fn short_desc(self) -> &'static str {
        match self {
            Rule::L1 => "no unwrap/expect/panic in library code",
            Rule::L2 => "no bare `as` numeric casts in id/core",
            Rule::L3 => "no unsafe anywhere",
            Rule::L4 => "doc comments on public API in id/freq/core",
            Rule::L5 => "no wall-clock reads in deterministic code",
            Rule::L6 => "no HashMap/HashSet iteration in deterministic crates",
            Rule::L7 => "no unreferenced pub item in internal crates",
            Rule::L8 => "no direct f64 cost comparison in core/sim",
            Rule::L9 => {
                "no allocating construct reachable from solve_into kernels or routing steps"
            }
            Rule::L10 => "no panic construct reachable from the fault walks",
            Rule::L11 => "no ambient-state source reachable from deterministic entry points",
            Rule::L12 => "RNG draw count balanced across branches in deterministic crates",
            Rule::L13 => "scratch fields cleared before first read in rooted reuse cycles",
            Rule::L14 => "buffer growth dominated by clear/truncate in rooted reuse cycles",
        }
    }

    /// Full rationale with a paper-section citation, printed by
    /// `--explain` and embedded in SARIF rule metadata.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::L1 => {
                "L1 — no `unwrap()`, `expect()`, `panic!`, `todo!` or `unimplemented!` in \
                 library code.\n\nThe simulator replays the paper's experiments (Deb, Linga, \
                 Rastogi & Srinivasan, ICDE 2008, §VI) over thousands of configurations; a \
                 panic in one sweep aborts the whole figure. Library code returns typed \
                 errors, or concentrates a proved invariant in a single allowlisted helper \
                 whose budget `lint.allow` tracks. Tests and benches are exempt."
            }
            Rule::L2 => {
                "L2 — no bare `as` numeric casts in `crates/id` and `crates/core`.\n\nThe \
                 identifier space is the paper's 128-bit ring (§II): silent truncation of \
                 an `Id` by `as` corrupts ring arithmetic at the wrap-around boundary. Use \
                 `From`/`TryFrom` or the `cast.rs`/`convert.rs` helpers, which carry \
                 regression tests at the ring boundary."
            }
            Rule::L3 => {
                "L3 — no `unsafe`, anywhere (tests and vendor included).\n\nNothing in the \
                 paper's algorithms (§IV–§V) needs unchecked memory access; the workspace \
                 also sets `unsafe_code = \"forbid\"`, and the lint keeps vendored shims \
                 honest too."
            }
            Rule::L4 => {
                "L4 — every `pub fn`/`pub struct` in `crates/id`, `crates/freq` and \
                 `crates/core` carries a doc comment.\n\nThese crates implement the \
                 paper's definitions directly (the id space of §II, the space-saving \
                 frequency sketch of §III, the cost model eq. 1 and DP of §IV); each \
                 public item's doc names the paper construct it realizes."
            }
            Rule::L5 => {
                "L5 — no `Instant`/`SystemTime` in library code outside `crates/bench`.\n\n\
                 The simulation clock is event-driven (§VI methodology): wall-clock reads \
                 make runs irreproducible and break the paired aware-vs-oblivious \
                 comparisons. Real time belongs only to the benchmark harness."
            }
            Rule::L6 => {
                "L6 — no `HashMap`/`HashSet` iteration (`iter`, `keys`, `values`, `drain`, \
                 `into_iter`, `for … in`) in the deterministic crates (`core`, `sim`, \
                 `chord`, `pastry`, `tapestry`, `skipgraph`, `par`).\n\nstd's hash \
                 iteration order is randomized per process by `RandomState`, so any \
                 decision derived from it differs run to run — violating the determinism \
                 contract that parallel sweeps are bit-identical to serial (the paired \
                 experiment replay of §VI). Use `BTreeMap`/`BTreeSet`, or collect and \
                 sort before iterating; order-insensitive sinks (`count`, `min`, `max`, \
                 …) are recognized and exempt."
            }
            Rule::L7 => {
                "L7 — no `pub` item in `crates/*/src` that nothing else in the workspace \
                 references.\n\nDead public API rots: it escapes testing, constrains \
                 refactors and misleads readers about which parts of the paper's \
                 machinery (§IV–§V) are actually exercised by the experiments. Demote to \
                 `pub(crate)`, delete, or record intentional surface under an `L7` budget \
                 in `lint.allow`. Detection is name-based over the workspace symbol \
                 table, so a flagged item is truly unnamed anywhere else."
            }
            Rule::L8 => {
                "L8 — no direct `==`/`<`-family comparison or `partial_cmp` on f64 cost \
                 values in `crates/core`/`crates/sim` library code.\n\nThe paper's cost \
                 function (eq. 1, §IV: Cost(A_s) = Σ f_v · (1 + d(v, N_s ∪ A_s))) is \
                 evaluated along different floating-point summation orders by the fast \
                 and naive DP formulations; exact comparison makes tie-breaks depend on \
                 rounding noise. Compare through the `costs_agree` epsilon helpers of \
                 `crates/core/src/invariants.rs` or through `f64::total_cmp`. Sign \
                 checks against a zero literal are exempt."
            }
            Rule::L9 => {
                "L9 — no allocating construct (`Vec::new`, `vec!`, `collect`, `to_vec`, \
                 `to_owned`, `to_string`, `Box::new`, `String::from`, `format!`, \
                 `.clone()`) in any function reachable from the workspace `solve_into` \
                 kernels or from a substrate's routing `step`.\n\nThe zero-alloc \
                 contract (DESIGN.md \"Memory layout & workspace reuse\") says a \
                 warmed `ChordWorkspace`/`PastryWorkspace` solve allocates nothing in \
                 steady state, and every routing hop decides from the node's table in \
                 place (DESIGN.md §6) instead of building a neighbour list; \
                 `perf_baseline`'s counting allocator enforces the first dynamically \
                 on the kernels it happens to run. L9 is the static complement: the \
                 interprocedural pass (DESIGN.md \"Interprocedural pass: call graph & \
                 reachability\") walks the call graph from the `L9` roots in \
                 `lint.roots` and flags any allocating construct on any reachable \
                 path — including paths no benchmark exercises. Hoist the allocation \
                 into the workspace or the step's scratch, read the state where it \
                 is stored, or budget the site in `lint.allow` with a proof that it \
                 is cold (error/diagnostic paths only)."
            }
            Rule::L10 => {
                "L10 — no panic construct (`unwrap`, `expect`, `panic!`, \
                 `unreachable!`, `todo!`, `unimplemented!`, direct `[i]` indexing) in \
                 any function reachable from the routing walk (the `walk` driver \
                 and each substrate's `Substrate::step`).\n\nA pastry \
                 `proximity()` panic on a stale pointer is the bug class: a fault \
                 walk exists to *measure* degraded routing (DESIGN.md §10 \"Fault \
                 model & degradation semantics\"), so every state a fault plan can \
                 corrupt — dead neighbors, stale auxiliary pointers, unknown ids — \
                 must degrade to a typed `LookupFailure`, never abort the sweep. The \
                 interprocedural pass (DESIGN.md \"Interprocedural pass: call graph \
                 & reachability\") \
                 walks the call graph from the `L10` roots in `lint.roots`; a \
                 `.expect(\"proof\")` whose message states why the failure is \
                 unreachable may be admitted through a reviewed `lint.allow` budget, \
                 mirroring the L1 convention."
            }
            Rule::L11 => {
                "L11 — no entropy, wall-clock or ambient-state source \
                 (`Instant::now`, `SystemTime::now`, `RandomState`, \
                 `thread::spawn` outside `peercache-par`, `std::env` reads) in any \
                 function reachable from the deterministic entry points.\n\nThe \
                 determinism contract (DESIGN.md \"Threading model & the determinism \
                 contract\") promises bit-identical figure tables at any thread \
                 count; L5 and L6 ban wall-clock reads and hash-order iteration at \
                 the expression site, and L11 extends the same contract to whole \
                 call chains: the interprocedural pass (DESIGN.md \"Interprocedural \
                 pass: call graph & reachability\") walks the call graph from the \
                 `L11` roots in `lint.roots` and flags ambient sources anywhere \
                 beneath them. `peercache-par` is the sanctioned ambient boundary — \
                 thread-count resolution (`PEERCACHE_THREADS`, `thread::spawn`) \
                 lives there precisely because the contract makes results \
                 independent of it."
            }
            Rule::L12 => {
                "L12 — RNG draw balance: every function in the deterministic crates \
                 that takes an `&mut` RNG parameter must consume the same number of \
                 draw calls on every branch.\n\nEvery bit-identity guarantee in this \
                 reproduction — replayable fault walks, thread-count parity, \
                 the fig3 goldens — rests on the RNG stream advancing identically \
                 across refactors (§VI replay methodology). A draw moved into one \
                 `match` arm silently shifts every subsequent decision in the run. \
                 The dataflow pass (DESIGN.md \"Dataflow pass: CFG, draw-balance, \
                 and buffer hygiene\") builds an intraprocedural CFG, counts draws \
                 along every path with callee summaries from the call graph, and \
                 flags any merge whose incoming paths disagree. Loop-carried and \
                 data-dependent draw counts (`shuffle`, macros, closures) widen to \
                 unknown and stay silent — the rule never reports a false count. \
                 Genuinely branch-dependent draws need a `lint.allow` budget with a \
                 proof comment explaining why the divergence is replay-safe."
            }
            Rule::L13 => {
                "L13 — clear-before-read: scratch/workspace fields used in a reuse \
                 cycle rooted in `lint.roots` must be written, `clear()`ed, or \
                 re-established on every path before their first read.\n\nThe \
                 zero-alloc kernels (DESIGN.md \"Memory layout & workspace reuse\") \
                 reuse `ChordWorkspace`/`PastryWorkspace` buffers across solves; a \
                 path that reads a buffer before re-initializing it leaks the \
                 previous problem's state into this one — the dirty-buffer \
                 interleave class `workspace_equivalence.rs` probes with 400+ \
                 seeds. L13 is the static form: the dataflow pass (DESIGN.md \
                 \"Dataflow pass: CFG, draw-balance, and buffer hygiene\") tracks \
                 the cleared-field set along every path from each `L13` root in \
                 `lint.roots` (join = intersection, so \"cleared\" means cleared on \
                 EVERY incoming path), splicing per-field callee summaries through \
                 the call graph, and flags the first uncleared read."
            }
            Rule::L14 => {
                "L14 — growth-domination: `push`/`extend`/`insert`/`append` on a \
                 reused workspace buffer along an `L14`-rooted kernel must be \
                 dominated by a `clear`/`truncate` in the same reuse cycle.\n\nThe \
                 steady-state zero-alloc contract (DESIGN.md \"Memory layout & \
                 workspace reuse\") holds only if growth never compounds across \
                 cycles: a `push` onto a buffer that was not emptied this cycle \
                 grows without bound and eventually reallocates past the warmed \
                 capacity, which the `count-allocs` runtime gate only catches on \
                 the inputs a benchmark happens to run. L14 is the static \
                 complement: the dataflow pass (DESIGN.md \"Dataflow pass: CFG, \
                 draw-balance, and buffer hygiene\") reuses the L13 cleared-set \
                 analysis and flags growth on any path where no `clear`/`truncate` \
                 dominates it."
            }
        }
    }
}

/// What part of the tree a file belongs to; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Crate `src/` code (and the root package's `src/`).
    Lib,
    /// Integration tests under a `tests/` directory.
    Test,
    /// Benchmarks (`benches/` directories and all of `crates/bench`).
    Bench,
    /// Example programs.
    Example,
    /// Vendored dependency stand-ins under `vendor/`.
    Vendor,
}

/// Per-file context the rules consult.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Which part of the tree the file belongs to.
    pub kind: FileKind,
}

impl FileCtx {
    /// Classify a workspace-relative path.
    pub fn classify(path: &str) -> FileCtx {
        let kind = if path.starts_with("vendor/") {
            FileKind::Vendor
        } else if path.starts_with("crates/bench/") || path.contains("/benches/") {
            FileKind::Bench
        } else if path.contains("/tests/") || path.starts_with("tests/") {
            FileKind::Test
        } else if path.contains("/examples/") || path.starts_with("examples/") {
            FileKind::Example
        } else {
            FileKind::Lib
        };
        FileCtx {
            path: path.to_owned(),
            kind,
        }
    }

    fn in_crate(&self, name: &str) -> bool {
        self.path.starts_with(&format!("crates/{name}/"))
    }
}

/// One step of a reachability call chain, root-first: the root's
/// declaration, each intermediate call site, and finally the violating
/// construct itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStep {
    /// Workspace-relative path of the step's file.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// What happens at this step (`root fn …`, `calls …`, the construct).
    pub message: String,
}

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based source line.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
    /// For reachability rules (L9–L11): the call chain from a declared
    /// root to the construct, rendered into SARIF `codeFlows`. Empty for
    /// the per-file and symbol-table rules.
    pub flow: Vec<FlowStep>,
}

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// The crates bound by the PR 2 determinism contract (parallel sweeps
/// bit-identical to serial); rule L6 applies to their library code and
/// rule L12 to their RNG-taking functions.
pub(crate) const DETERMINISTIC_CRATES: [&str; 9] = [
    "core",
    "sim",
    "chord",
    "pastry",
    "tapestry",
    "skipgraph",
    "par",
    "faults",
    "node",
];

/// Run every applicable per-file rule over one source text and return
/// its violations, ordered by line. (Convenience wrapper over
/// [`check_tokens`] that scans and tokenizes itself; the engine's
/// two-pass driver calls [`check_tokens`] directly to reuse pass-1
/// artifacts.)
pub fn check(ctx: &FileCtx, source: &str) -> Vec<Violation> {
    let lines = scan(source);
    let toks = tokenize(&lines);
    check_tokens(ctx, &lines, &toks)
}

/// Run every applicable per-file rule (all of L1–L8 except the
/// workspace-level L7) over one file's scanned lines and token stream.
pub fn check_tokens(ctx: &FileCtx, lines: &[ScannedLine], toks: &[Tok]) -> Vec<Violation> {
    let in_test = test_regions(lines);
    let mut out = Vec::new();

    let lib = ctx.kind == FileKind::Lib;
    let l1 = lib;
    let l2 = lib && (ctx.in_crate("id") || ctx.in_crate("core"));
    let l4 = lib && (ctx.in_crate("id") || ctx.in_crate("freq") || ctx.in_crate("core"));
    let l5 = lib;
    let l6 = lib && DETERMINISTIC_CRATES.iter().any(|c| ctx.in_crate(c));
    let l8 = lib
        && (ctx.in_crate("core")
            || ctx.in_crate("sim")
            || ctx.in_crate("faults")
            || ctx.in_crate("node"));

    let tested = |line: usize| in_test.get(line).copied().unwrap_or(false);

    for (i, tok) in toks.iter().enumerate() {
        let TokKind::Ident(name) = &tok.kind else {
            continue;
        };

        // L3 applies everywhere, test regions included.
        if name == "unsafe" {
            out.push(Violation {
                flow: Vec::new(),
                line: tok.line + 1,
                rule: Rule::L3,
                message: "`unsafe` is forbidden throughout the workspace (rule L3)".to_owned(),
            });
        }
        if tested(tok.line) {
            continue;
        }

        if l1 {
            let method_call = punct_at(toks, i.wrapping_sub(1)) == Some('.')
                && punct_at(toks, i + 1) == Some('(');
            let bang_macro = punct_at(toks, i + 1) == Some('!');
            if (name == "unwrap" || name == "expect") && method_call {
                out.push(Violation {
                    flow: Vec::new(),
                    line: tok.line + 1,
                    rule: Rule::L1,
                    message: format!(
                        "`.{name}()` in library code — return an error or \
                         concentrate the proof in an allowlisted helper (rule L1)"
                    ),
                });
            } else if (name == "panic" || name == "todo" || name == "unimplemented") && bang_macro {
                out.push(Violation {
                    flow: Vec::new(),
                    line: tok.line + 1,
                    rule: Rule::L1,
                    message: format!("`{name}!` in library code (rule L1)"),
                });
            }
        }

        if l2 && name == "as" {
            if let Some(target) = ident_at(toks, i + 1) {
                if NUMERIC_TYPES.contains(&target) {
                    out.push(Violation {
                        flow: Vec::new(),
                        line: tok.line + 1,
                        rule: Rule::L2,
                        message: format!(
                            "bare `as {target}` cast — use `From`/`TryFrom`/`wrapping_*` \
                             (rule L2)"
                        ),
                    });
                }
            }
        }

        if l5 && (name == "Instant" || name == "SystemTime") {
            out.push(Violation {
                flow: Vec::new(),
                line: tok.line + 1,
                rule: Rule::L5,
                message: format!(
                    "`{name}` in deterministic code — wall-clock reads break \
                     reproducible simulation (rule L5)"
                ),
            });
        }

        if l4 && name == "pub" {
            if let Some(v) = check_pub_item(lines, toks, i) {
                out.push(v);
            }
        }
    }

    if l6 {
        check_hash_iteration(toks, &in_test, &mut out);
    }
    if l8 {
        check_cost_comparisons(toks, &in_test, &mut out);
    }

    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// L4: a `pub fn` / `pub struct` (ignoring `pub(...)` restricted
/// visibility and skipping `const`/`async`/`extern` modifiers) must be
/// preceded by a doc comment, looking backwards over attribute and blank
/// lines.
fn check_pub_item(lines: &[ScannedLine], toks: &[Tok], pub_idx: usize) -> Option<Violation> {
    let mut j = pub_idx + 1;
    if punct_at(toks, j) == Some('(') {
        return None; // pub(crate) and friends are not public API
    }
    while matches!(ident_at(toks, j), Some("const" | "async" | "extern")) {
        j += 1;
    }
    let item = ident_at(toks, j)?;
    if item != "fn" && item != "struct" {
        return None;
    }
    let name = ident_at(toks, j + 1).unwrap_or("?").to_owned();
    let line = toks[pub_idx].line;
    let mut back = line;
    while back > 0 {
        back -= 1;
        let prev = &lines[back];
        if prev.doc {
            return None;
        }
        let trimmed = prev.code.trim_start();
        let skippable = trimmed.is_empty() || trimmed.starts_with("#[") || trimmed.starts_with(']');
        if !skippable {
            break;
        }
    }
    Some(Violation {
        flow: Vec::new(),
        line: line + 1,
        rule: Rule::L4,
        message: format!("missing doc comment on `pub {item} {name}` (rule L4)"),
    })
}

// ---------------------------------------------------------------------
// L6 — HashMap/HashSet iteration in deterministic crates.
// ---------------------------------------------------------------------

const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Sinks that make hash-ordered iteration harmless: explicit sorts,
/// conversion into ordered collections, and order-insensitive
/// aggregations over unique elements.
const ORDER_SAFE_SINKS: [&str; 15] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "count",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
];

/// Collect the local names this file binds to a `HashMap`/`HashSet`:
/// type-annotated bindings/fields/params (`name: [path::]HashMap<…>`)
/// and constructor assignments (`name = [path::]HashMap::new()` and
/// friends). Bindings inside `#[cfg(test)]` regions are ignored — a
/// test-local `HashSet` must not taint a same-named library binding.
fn hash_typed_names(toks: &[Tok], in_test: &[bool]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(ty) = ident_at(toks, i) else {
            continue;
        };
        if ty != "HashMap" && ty != "HashSet" {
            continue;
        }
        if in_test.get(toks[i].line).copied().unwrap_or(false) {
            continue;
        }
        // Swallow a leading path (`std :: collections ::` → the first
        // segment), walking `seg ::` pairs backwards.
        let mut j = i;
        while j >= 3
            && punct_at(toks, j - 1) == Some(':')
            && punct_at(toks, j - 2) == Some(':')
            && ident_at(toks, j - 3).is_some()
        {
            j -= 3;
        }
        // Annotation form: `name : [& mut] Path…HashMap`.
        let mut k = j.wrapping_sub(1);
        while punct_at(toks, k) == Some('&') || ident_at(toks, k) == Some("mut") {
            k = k.wrapping_sub(1);
        }
        if punct_at(toks, k) == Some(':') && punct_at(toks, k.wrapping_sub(1)) != Some(':') {
            if let Some(name) = ident_at(toks, k.wrapping_sub(1)) {
                names.insert(name.to_owned());
                continue;
            }
        }
        // Constructor form: `name = HashMap :: new(…)`.
        if punct_at(toks, j.wrapping_sub(1)) == Some('=')
            && !matches!(
                punct_at(toks, j.wrapping_sub(2)),
                Some('=' | '!' | '<' | '>')
            )
            && matches!(
                ident_at(toks, i + 3),
                Some("new" | "with_capacity" | "default" | "from")
            )
        {
            if let Some(name) = ident_at(toks, j.wrapping_sub(2)) {
                names.insert(name.to_owned());
            }
        }
    }
    names
}

/// True when the statement containing token `i` (looking forward across
/// at most one statement boundary, to catch the collect-then-sort
/// idiom) reaches an order-restoring or order-insensitive sink.
fn order_safe_after(toks: &[Tok], i: usize) -> bool {
    let mut semis = 0usize;
    for tok in toks.iter().skip(i).take(96) {
        match &tok.kind {
            TokKind::Punct(';') => {
                semis += 1;
                if semis == 2 {
                    return false;
                }
            }
            TokKind::Ident(s) if ORDER_SAFE_SINKS.contains(&s.as_str()) => return true,
            _ => {}
        }
    }
    false
}

fn check_hash_iteration(toks: &[Tok], in_test: &[bool], out: &mut Vec<Violation>) {
    let hashed = hash_typed_names(toks, in_test);
    if hashed.is_empty() {
        return;
    }
    for (i, tok) in toks.iter().enumerate() {
        let TokKind::Ident(name) = &tok.kind else {
            continue;
        };
        if !hashed.contains(name) || in_test.get(tok.line).copied().unwrap_or(false) {
            continue;
        }
        // Method form: `name.iter()`, `name.keys()`, …
        if punct_at(toks, i + 1) == Some('.') {
            if let Some(method) = ident_at(toks, i + 2) {
                if HASH_ITER_METHODS.contains(&method) && punct_at(toks, i + 3) == Some('(') {
                    if !order_safe_after(toks, i + 2) {
                        out.push(Violation {
                            flow: Vec::new(),
                            line: toks[i + 2].line + 1,
                            rule: Rule::L6,
                            message: format!(
                                "`{name}.{method}()` iterates a std hash collection in a \
                                 deterministic crate — RandomState randomizes the order; \
                                 use BTreeMap/BTreeSet or sort first (rule L6)"
                            ),
                        });
                    }
                    continue;
                }
            }
        }
        // Loop form: `for pat in [&][mut] name { … }`.
        let mut k = i.wrapping_sub(1);
        while punct_at(toks, k) == Some('&') || ident_at(toks, k) == Some("mut") {
            k = k.wrapping_sub(1);
        }
        if ident_at(toks, k) == Some("in") && !order_safe_after(toks, i) {
            out.push(Violation {
                flow: Vec::new(),
                line: tok.line + 1,
                rule: Rule::L6,
                message: format!(
                    "`for … in {name}` iterates a std hash collection in a deterministic \
                     crate — RandomState randomizes the order; use BTreeMap/BTreeSet or \
                     sort first (rule L6)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// L8 — direct f64 cost comparisons in core/sim library code.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

impl CmpOp {
    fn is_ordering(self) -> bool {
        !matches!(self, CmpOp::Eq | CmpOp::Ne)
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
        }
    }
}

/// Idents that smell like eq. 1 cost values: any ordering comparison
/// near one of these is suspect.
fn cost_flavored(name: &str) -> bool {
    let lower = name.chars().next().is_some_and(char::is_lowercase);
    lower && (name.contains("cost") || name.contains("weight") || name.contains("gain"))
}

/// Names declared `: f64` in this file (bindings, fields, parameters),
/// skipping `#[cfg(test)]` declarations.
fn declared_f64_names(toks: &[Tok], in_test: &[bool]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("f64") {
            continue;
        }
        if in_test.get(toks[i].line).copied().unwrap_or(false) {
            continue;
        }
        let mut k = i.wrapping_sub(1);
        while punct_at(toks, k) == Some('&') || ident_at(toks, k) == Some("mut") {
            k = k.wrapping_sub(1);
        }
        if punct_at(toks, k) == Some(':') && punct_at(toks, k.wrapping_sub(1)) != Some(':') {
            if let Some(name) = ident_at(toks, k.wrapping_sub(1)) {
                names.insert(name.to_owned());
            }
        }
    }
    names
}

/// Punctuation that terminates an operand window.
fn window_stop(c: char) -> bool {
    matches!(c, ';' | '{' | '}' | ',' | '=' | '<' | '>' | '!' | '&' | '|')
}

/// Collect the identifiers in the operand window on one side of an
/// operator: up to 24 tokens, stopping at statement/expression breaks.
fn operand_idents(toks: &[Tok], start: usize, forward: bool) -> Vec<&str> {
    let mut idents = Vec::new();
    let mut idx = start;
    for _ in 0..24 {
        let Some(tok) = toks.get(idx) else { break };
        match &tok.kind {
            TokKind::Punct(c) if window_stop(*c) => break,
            TokKind::Ident(s) => idents.push(s.as_str()),
            TokKind::Punct(_) => {}
        }
        if forward {
            idx += 1;
        } else if idx == 0 {
            break;
        } else {
            idx -= 1;
        }
    }
    idents
}

/// True when the statement around token `i` mentions a sanctioned
/// comparison helper — an `EPS` constant, `costs_agree`, or `total_cmp`
/// — meaning the raw operator is part of an epsilon-window idiom.
fn sanctioned_nearby(toks: &[Tok], i: usize) -> bool {
    let hit = |s: &str| s.contains("EPS") || s == "costs_agree" || s == "total_cmp";
    for idx in i..i + 48 {
        match toks.get(idx).map(|t| &t.kind) {
            Some(TokKind::Punct(';' | '{' | '}')) => break,
            Some(TokKind::Ident(s)) if hit(s) => return true,
            None => break,
            _ => {}
        }
    }
    let mut idx = i;
    for _ in 0..48 {
        match toks.get(idx).map(|t| &t.kind) {
            Some(TokKind::Punct(';' | '{' | '}')) => break,
            Some(TokKind::Ident(s)) if hit(s) => return true,
            _ => {}
        }
        if idx == 0 {
            break;
        }
        idx -= 1;
    }
    false
}

/// True when the operand adjacent to the operator (at `before` looking
/// back, or `after` looking forward) is the literal `0` / `0.0`.
fn zero_operand(toks: &[Tok], before: usize, after: usize) -> bool {
    ident_at(toks, before) == Some("0") || ident_at(toks, after) == Some("0")
}

fn check_cost_comparisons(toks: &[Tok], in_test: &[bool], out: &mut Vec<Violation>) {
    let f64_names = declared_f64_names(toks, in_test);

    let mut i = 0usize;
    while i < toks.len() {
        let tok = &toks[i];
        if in_test.get(tok.line).copied().unwrap_or(false) {
            i += 1;
            continue;
        }

        // `.partial_cmp(` — always a violation in scope: eq. 1 costs are
        // compared via total_cmp or epsilon helpers, never NaN-partial.
        if let TokKind::Ident(name) = &tok.kind {
            if name == "partial_cmp"
                && punct_at(toks, i.wrapping_sub(1)) == Some('.')
                && punct_at(toks, i + 1) == Some('(')
                && !sanctioned_nearby(toks, i)
            {
                out.push(Violation {
                    flow: Vec::new(),
                    line: tok.line + 1,
                    rule: Rule::L8,
                    message: "`.partial_cmp()` on f64 in core/sim library code — use \
                              `f64::total_cmp` or the `costs_agree` epsilon helpers \
                              (rule L8)"
                        .to_owned(),
                });
            }
            i += 1;
            continue;
        }

        // Operator detection over single-char punct tokens.
        let c1 = match &tok.kind {
            TokKind::Punct(c) => *c,
            TokKind::Ident(_) => {
                i += 1;
                continue;
            }
        };
        let c2 = punct_at(toks, i + 1);
        let (op, span) = match (c1, c2) {
            ('=', Some('=')) => (Some(CmpOp::Eq), 2),
            ('!', Some('=')) => (Some(CmpOp::Ne), 2),
            ('<', Some('=')) => (Some(CmpOp::Le), 2),
            ('>', Some('=')) => (Some(CmpOp::Ge), 2),
            ('<', Some('<')) | ('>', Some('>')) | ('-', Some('>')) | ('=', Some('>')) => (None, 2),
            ('<', _) => {
                // Generic-argument heuristic: `Vec<…>`, `::<…>`,
                // `fn name<…>`, `impl<…>` — skip the whole bracketed
                // group so its `>` is not misread as an op.
                let prev = ident_at(toks, i.wrapping_sub(1));
                let generic = prev
                    .is_some_and(|s| s.chars().next().is_some_and(char::is_uppercase))
                    || punct_at(toks, i.wrapping_sub(1)) == Some(':')
                    || prev == Some("impl")
                    || (prev.is_some() && ident_at(toks, i.wrapping_sub(2)) == Some("fn"));
                if generic {
                    skip_generic_group(toks, &mut i);
                    continue;
                }
                (Some(CmpOp::Lt), 1)
            }
            ('>', _) => (Some(CmpOp::Gt), 1),
            _ => (None, 1),
        };
        let Some(op) = op else {
            i += span;
            continue;
        };

        let before = i.wrapping_sub(1);
        let after = i + span;
        let back_idents = operand_idents(toks, before, false);
        let fwd_idents = operand_idents(toks, after, true);
        let all_idents = back_idents.iter().chain(fwd_idents.iter());

        let flavored = all_idents.clone().any(|s| cost_flavored(s));
        let declared = all_idents.clone().any(|s| f64_names.contains(*s));

        let fires = flavored || (declared && !op.is_ordering());
        let exempt =
            (op.is_ordering() && zero_operand(toks, before, after)) || sanctioned_nearby(toks, i);
        if fires && !exempt {
            out.push(Violation {
                flow: Vec::new(),
                line: tok.line + 1,
                rule: Rule::L8,
                message: format!(
                    "direct `{}` comparison on f64 cost values — use the `costs_agree` \
                     epsilon helpers or `f64::total_cmp` (rule L8)",
                    op.symbol()
                ),
            });
        }
        i += span;
    }
}

/// Skip a `<…>` generic-argument group starting at `*i` (pointing at the
/// `<`), tolerating nesting; gives up at statement breaks so a stray
/// less-than never swallows the file.
fn skip_generic_group(toks: &[Tok], i: &mut usize) {
    let mut depth = 0usize;
    let start = *i;
    while *i < toks.len() {
        match punct_at(toks, *i) {
            Some('<') => depth += 1,
            Some('>') => {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    return;
                }
            }
            Some(';' | '{') => {
                // Not generics after all; re-scan past the `<` only.
                *i = start + 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
    *i = start + 1;
}
