//! # peercache-lint
//!
//! Workspace-local static analysis for the peercache repository:
//! fourteen rules (L1–L14) that keep the paper-reproduction code
//! honest, run as a four-pass semantic analyzer — pass 1 builds, per
//! file, a blanked token stream ([`scan`]), a brace-matched item tree
//! ([`items`]) and a workspace symbol table ([`symbols`]); pass 2
//! evaluates the per-file rules plus the workspace-level dead-API rule
//! L7; pass 3 builds an interprocedural call graph ([`callgraph`]) and
//! checks transitive reachability ([`reach`]) from the root sets
//! declared in `lint.roots` (rules L9–L11, with SARIF `codeFlows` call
//! chains); pass 4 builds intraprocedural control-flow graphs ([`cfg`](mod@cfg))
//! and runs forward dataflow ([`dataflow`]) composed with the pass-3
//! call graph — RNG draw balance (L12) and scratch-buffer hygiene
//! (L13/L14). See [`rules`] for the rule table, [`allow`] for the
//! `lint.allow` budget format and [`sarif`] for the hand-rolled SARIF
//! 2.1.0 emitter.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p peercache-lint
//! cargo run -p peercache-lint -- --format sarif --output lint.sarif
//! cargo run -p peercache-lint -- --explain L6
//! ```
//!
//! Exit status is non-zero when any violation exceeds its allowlist
//! budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod engine;
pub mod items;
pub mod reach;
pub mod rules;
pub mod sarif;
pub mod scan;
pub mod symbols;

pub use allow::Allowlist;
pub use callgraph::{CallGraph, CallSite, FnNode};
pub use cfg::{build_cfg, fn_signature, Block, Cfg, DrawEffect, FieldAccess, FnSig, Op};
pub use dataflow::check_dataflow;
pub use engine::{lint_root, Finding, Report};
pub use reach::{check_reachability, parse_roots, RootSpec};
pub use rules::{check, FileCtx, FileKind, FlowStep, Rule, Violation, ALL_RULES};
pub use sarif::to_sarif;
