//! # peercache-par
//!
//! A std-only scoped thread pool for the experiment sweeps: the paper's
//! evaluation (§VI) runs dozens of independent `(n, k, α, strategy)`
//! configurations per figure, and every one of them is an embarrassingly
//! parallel task. The workspace vendors std-only dependency stand-ins, so
//! this crate provides the minimal parallel-map machinery on plain
//! [`std::thread::scope`] instead of pulling in rayon.
//!
//! ## Determinism contract
//!
//! [`par_map`] guarantees that its result is **bit-identical regardless of
//! the thread count** (including the serial `threads = 1` path), provided
//! the task closure is a pure function of its `(index, item)` arguments:
//!
//! * results are returned in input order, whatever order tasks finish in;
//! * tasks never share mutable state through the pool;
//! * any randomness a task needs must be derived from its index via
//!   [`derive_seed`], never drawn from an RNG stream shared across tasks
//!   (a shared stream would make results depend on scheduling order).
//!
//! ## Workers
//!
//! A parallel map runs on `threads` workers, the calling thread among
//! them: the caller keeps the first item for itself, spawns the other
//! workers, and then claims items beside them. A map whose first task is
//! long-running (a serial draw ahead of many short tasks, say) therefore
//! runs it on the calling thread, where a serial map would run it too.
//!
//! ## Nesting
//!
//! A `par_map` issued from inside a pool worker runs **serially inline**.
//! Outer-level sweeps therefore own the hardware, and library code can use
//! `par_map` freely without oversubscribing when a caller has already
//! parallelised a coarser loop. This changes scheduling only — by the
//! determinism contract the results are identical either way.
//!
//! ## Thread-count resolution
//!
//! [`threads`] resolves, in order: a scoped [`with_threads`] override on
//! the current thread, the process-wide [`set_threads`] default (the
//! `--threads N` flag of the bench binaries), the `PEERCACHE_THREADS`
//! environment variable, and finally [`std::thread::available_parallelism`].
//!
//! ## Panic propagation
//!
//! A panicking task aborts the whole map: the panic payload is re-raised
//! on the calling thread once every worker has drained (no result is ever
//! silently dropped).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod seed;

pub use pool::{
    par_map, par_map_chunked, par_map_mut, par_map_with, set_threads, threads, with_threads,
};
pub use seed::derive_seed;
