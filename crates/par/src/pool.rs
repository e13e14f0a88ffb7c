//! The scoped worker pool behind [`par_map`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Process-wide default thread count; 0 means "auto-detect".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped override installed by [`with_threads`]; 0 means "none".
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True on pool worker threads (and on a caller while it works
    /// beside them): nested maps run serially inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` as a pool worker: nested maps inside it run inline. The mark
/// is restored afterwards — even on panic — so a caller that worked
/// beside its spawned workers is a plain thread again once the map ends.
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(IN_POOL.with(|p| p.replace(true)));
    f()
}

/// Set the process-wide default thread count (`0` restores auto-detect).
///
/// This is what the bench binaries' `--threads N` flag calls; prefer the
/// scoped [`with_threads`] in tests, which cannot leak across threads.
pub fn set_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Run `f` with the thread count fixed to `n` on the current thread (and
/// every `par_map` it issues), restoring the previous override afterwards
/// — even on panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = THREAD_OVERRIDE.with(|o| {
        let prev = o.get();
        o.set(n);
        Restore(prev)
    });
    f()
}

/// The thread count [`par_map`] will use, resolved as documented on the
/// crate root: scoped override → process default → `PEERCACHE_THREADS` →
/// available parallelism (at least 1).
pub fn threads() -> usize {
    let scoped = THREAD_OVERRIDE.with(Cell::get);
    if scoped != 0 {
        return scoped;
    }
    let default = DEFAULT_THREADS.load(Ordering::Relaxed);
    if default != 0 {
        return default;
    }
    if let Ok(raw) = std::env::var("PEERCACHE_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n != 0 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Map `f` over `items` on [`threads`] workers (the calling thread among
/// them), preserving input order in the returned vector.
///
/// See the crate root for the determinism contract, nesting behaviour and
/// panic propagation.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(threads(), items, f)
}

/// Map `f` over `items` in chunks of `chunk_size`, preserving input order
/// in the flattened result.
///
/// Where [`par_map`] dispatches one task per item, this dispatches one
/// task per *chunk*: `f` receives the chunk's starting index and the chunk
/// slice, and returns the chunk's outputs — one per input for a map, one
/// per chunk for an accumulator — concatenated in input order into a
/// vector sized to the outputs. Use it when per-item work is too small to
/// amortize a dispatch, or when a task wants to reuse scratch state across
/// the items of its chunk. The determinism contract is unchanged — the
/// serial path applies `f` to the exact same chunks in order, so results
/// are bit-identical at any thread count as long as `f` is a pure function
/// of `(start, chunk)`.
pub fn par_map_chunked<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let chunk_size = chunk_size.max(1);
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk_size)
        .enumerate()
        .map(|(c, chunk)| (c * chunk_size, chunk))
        .collect();
    let per_chunk = par_map_with(threads(), &chunks, |_, &(start, chunk)| f(start, chunk));
    let mut out = Vec::with_capacity(per_chunk.iter().map(Vec::len).sum());
    for part in per_chunk {
        out.extend(part);
    }
    out
}

/// Map `f` over mutable items on the pool, preserving input order in the
/// returned vector — the fan-out behind the scale engine's slab fills,
/// where each task owns one disjoint view of a shared slab for its whole
/// run.
///
/// The determinism contract is the same as [`par_map`]'s: each item is
/// visited exactly once, by exactly one worker, and the result vector is
/// in input order. Tasks must not communicate; each `&mut T` is handed to
/// a single task for exclusive use.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let threads = threads();
    let len = items.len();
    if threads <= 1 || len <= 1 || IN_POOL.with(Cell::get) {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Same scheme as `par_map_with`, with a hand-off cell per item: a
    // worker claims index `i` by atomic increment and *takes* the `&mut T`
    // out of its cell, so exclusive access is enforced by construction.
    let next = AtomicUsize::new(1);
    let cells: Vec<Mutex<Option<&mut T>>> = items.iter_mut().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let work = |mut i: usize| {
        while i < len {
            let item = match cells[i].lock() {
                Ok(mut cell) => cell.take(),
                Err(poisoned) => poisoned.into_inner().take(),
            };
            // The atomic hands each index to one worker, so the cell is
            // always still full here.
            let Some(item) = item else { break };
            let result = f(i, item);
            match slots[i].lock() {
                Ok(mut slot) => *slot = Some(result),
                Err(poisoned) => *poisoned.into_inner() = Some(result),
            }
            i = next.fetch_add(1, Ordering::Relaxed);
        }
    };
    let mut panic_payload = None;
    thread::scope(|scope| {
        let handles: Vec<_> = (1..threads.min(len))
            .map(|_| scope.spawn(|| as_worker(|| work(next.fetch_add(1, Ordering::Relaxed)))))
            .collect();
        as_worker(|| work(0));
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic_payload.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            let inner = match slot.into_inner() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            match inner {
                Some(r) => r,
                None => unreachable!("par_map_mut slot left unfilled after scope join"),
            }
        })
        .collect()
}

/// [`par_map`] with an explicit thread count (`threads <= 1` runs the
/// serial inline path; so does any call issued from inside a pool worker).
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    if threads <= 1 || len <= 1 || IN_POOL.with(Cell::get) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Work-stealing by atomic index; each task writes its own slot, so
    // output order is input order no matter how the OS schedules workers.
    // The calling thread is one of the `threads` workers: it keeps index 0
    // for itself and claims the rest beside `threads - 1` spawned ones, so
    // the first task runs on the thread a serial map would run it on.
    let next = AtomicUsize::new(1);
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let work = |mut i: usize| {
        while i < len {
            let result = f(i, &items[i]);
            match slots[i].lock() {
                Ok(mut slot) => *slot = Some(result),
                // A sibling worker's panic can only poison its own slot,
                // never this one; recover the guard.
                Err(poisoned) => *poisoned.into_inner() = Some(result),
            }
            i = next.fetch_add(1, Ordering::Relaxed);
        }
    };
    let mut panic_payload = None;
    thread::scope(|scope| {
        let handles: Vec<_> = (1..threads.min(len))
            .map(|_| scope.spawn(|| as_worker(|| work(next.fetch_add(1, Ordering::Relaxed)))))
            .collect();
        as_worker(|| work(0));
        // Join explicitly to capture the first worker's original panic
        // payload (`thread::scope` alone would replace it with its own
        // "a scoped thread panicked" message). A panic in the caller's
        // own task unwinds out of the scope, which joins the workers and
        // re-raises that payload.
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic_payload.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            let inner = match slot.into_inner() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            match inner {
                Some(r) => r,
                // Scope exit proves every index < len was claimed and
                // completed (a panic would have propagated above).
                None => unreachable!("par_map slot left unfilled after scope join"),
            }
        })
        .collect()
}
