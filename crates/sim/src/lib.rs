//! Deterministic discrete-event simulation and experiment harness for the
//! peercache reproduction.
//!
//! * [`engine`] — the `(time, seq)`-ordered future event list (fully
//!   reproducible given seeds).
//! * [`metrics`] — query-level statistics and the paper's
//!   %-hop-reduction metric.
//! * [`overlay`] — a bridge unifying the Chord and Pastry substrates and
//!   dispatching the frequency-aware / frequency-oblivious selections.
//! * [`bridge`] — the stable driver's frozen world (overlay, selections,
//!   seeded query stream) handed to the `peercache-node` event loop for
//!   the runtime-vs-sim differential.
//! * [`stable`] — the stable-mode driver (§VI: exact node popularities,
//!   no churn).
//! * [`scale`] — the virtual-arena engine for populations (10⁵–10⁶)
//!   the materialised substrates cannot hold: per-shard fixed-stride
//!   auxiliary slabs and streaming accumulators over the same Pastry
//!   routing step (bit-identical at any shard and thread count).
//! * [`churn`] — the churn-mode driver (§VI-C: exponential alive/dead
//!   periods, periodic stabilization and auxiliary recomputation, paired
//!   schedules across strategies).
//! * [`refresh`] — the substrate-generic incremental refresh engine
//!   (§IV-C): retained per-node optimizers absorbing counter deltas, the
//!   churn driver's dirty-tracking recompute path, and the flat counter
//!   slab the scale-tier churn probe runs on.
//! * [`faults`] — the fault-matrix sweep over the deterministic
//!   fault-injection layer (loss × staleness × crash).
//! * [`experiments`] — one runner per figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod churn;
pub mod engine;
pub mod experiments;
pub mod faults;
pub mod metrics;
pub mod overlay;
pub mod refresh;
pub mod scale;
pub mod stable;

pub use bridge::RuntimeFixture;
pub use churn::{
    run_churn, run_churn_faulted, run_churn_once, run_churn_once_faulted, ChurnConfig,
    ChurnFaultReport, ChurnReport, RecomputeMode, Strategy,
};
pub use experiments::{fig3, fig4, fig5, fig6, render_table, FigureRow, Scale};
pub use faults::{fault_matrix, fault_matrix_multi, FaultMatrixCell, FaultMatrixConfig};
pub use metrics::{reduction_pct, FaultMetrics, QueryMetrics};
pub use overlay::{OverlayKind, QueryOutcome, SimOverlay};
pub use refresh::ChurnRecomputeBench;
pub use scale::{
    run_scale_churn, run_scale_stable, shard_count_for, ScaleChurnConfig, ScaleChurnReport,
    ScaleChurnRound, ScaleConfig, ScaleReport,
};
pub use stable::{
    run_stable, run_stable_faulted, QueryStream, RankingMode, SelectionBench, StableConfig,
    StableFaultReport, StableReport,
};
