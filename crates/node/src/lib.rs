//! A deterministic in-process node runtime with a persistent peer store.
//!
//! The simulation crates route lookups through one driver loop,
//! `peercache_faults::walk` — one function call per query, the whole
//! route decided inside it. This crate promotes the same substrates to
//! *live nodes* exchanging typed messages ([`Message`]: `Join` /
//! `Lookup` / `Probe` / `Refresh`) over a seeded virtual clock: each
//! lookup advances one arrival per delivered message through the same
//! per-substrate step (`peercache_faults::Substrate::step`), and every
//! delivery passes through the same
//! [`FaultPlan`](peercache_faults::FaultPlan) the sim walks use.
//! Because every fault decision is a pure hash of
//! `(seed, ids, hop, attempt)`, the runtime's probe sequences — and
//! therefore its metrics — are bit-identical to the driver loop's
//! (the `runtime_vs_sim` differential battery enforces it across all
//! four substrates).
//!
//! The paper's frequency-aware auxiliary selection doubles as the
//! admission policy of a [`PeerStore`]: a versioned JSON-lines file with
//! atomic temp-file-then-rename writes, stale-entry expiry by virtual
//! age, per-peer reliability scores fed by
//! [`RouteTrace`](peercache_faults::RouteTrace) outcomes, and
//! prioritized parallel reconnection on startup ordered by score
//! (modeled on maidsafe autonomi's `ant-bootstrap`). The store's file
//! I/O is this workspace's one sanctioned nondeterminism boundary
//! besides `peercache-par` — nothing routing-visible ever reads it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod jsonl;
pub mod message;
pub mod runtime;
pub mod store;

pub use message::{Envelope, LookupJob, Message, Tick};
pub use runtime::NodeRuntime;
pub use store::{PeerEntry, PeerStore, StoreConfig, STORE_VERSION};
