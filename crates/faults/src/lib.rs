//! Deterministic fault injection for the overlay routing walks.
//!
//! The substrate networks route over a perfect snapshot; this crate
//! supplies the messy part of a real overlay — crashed peers,
//! transiently unresponsive peers, lossy probe links, stale cached
//! auxiliary pointers, and message-delay jitter — as a pure function of
//! a run seed. A [`FaultPlan`] resolves every fault decision from
//! `(run_seed, channel, node/edge ids, hop_index, attempt)` through a
//! SplitMix64-style hash, so the same plan replayed on any thread count
//! (or any iteration order) produces bit-identical routes.
//!
//! The crate deliberately knows nothing about the substrates: each
//! chord/pastry/tapestry/skipgraph network implements [`Substrate`],
//! whose per-arrival [`Substrate::step`] calls [`FaultPlan::probe`] per
//! contact attempt and [`FaultPlan::resolve_aux`] per cached-pointer
//! read and records what happened in a [`RouteTrace`]; the one driver
//! loop, [`walk`], steps it from the origin. All probability
//! handling happens once at plan construction (an `f64` rate becomes a
//! 53-bit integer threshold), so the per-probe hot path — and every
//! caller — is free of floating-point comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod liveness;
mod plan;
mod step;
mod trace;

pub use liveness::Liveness;
pub use plan::{FaultConfig, FaultPlan};
pub use step::{walk, StepScratch, Substrate, WalkStep};
pub use trace::{FaultedRoute, LookupFailure, RouteTrace};
