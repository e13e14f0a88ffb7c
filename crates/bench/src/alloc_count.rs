//! A counting `#[global_allocator]`, compiled only under the
//! `count-allocs` feature: the system allocator with atomic call and byte
//! counters in front, so the perf baseline can report allocations per
//! solve, hard-fail when a steady-state workspace kernel touches the heap
//! at all, and gauge the peak live-heap footprint of the scale
//! simulation (the bytes-per-node memory gauge).
//!
//! Two views, two contracts:
//!
//! * **calls** — the zero-alloc gate counts *calls* (alloc / realloc /
//!   alloc_zeroed), not bytes: avoiding allocator traffic on the hot path
//!   is exact where a byte threshold invites tuning.
//! * **bytes** — the memory gauge tracks live bytes (allocated minus
//!   freed) and their high-water mark, a peak-RSS proxy that is
//!   deterministic for a single-threaded region where RSS itself is not.
//!
//! Feature-gated because a counting allocator taxes every allocation in
//! the process; timing runs stay on the system allocator unless
//! allocation accounting was asked for.

// The one deliberate unsafe surface of the workspace: implementing
// `GlobalAlloc` requires it. Everything defers to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES_IN_USE: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Raise the high-water mark to at least `current`.
fn update_peak(current: u64) {
    PEAK_BYTES.fetch_max(current, Ordering::Relaxed);
}

/// The system allocator with allocation-call and live-byte counters in
/// front.
struct CountingAlloc;

// SAFETY: every method defers to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let size = layout.size() as u64;
        update_peak(BYTES_IN_USE.fetch_add(size, Ordering::Relaxed) + size);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let size = layout.size() as u64;
        update_peak(BYTES_IN_USE.fetch_add(size, Ordering::Relaxed) + size);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        // Grow before shrink keeps the counter's transient state an
        // over- rather than under-estimate.
        let now = BYTES_IN_USE.fetch_add(new, Ordering::Relaxed) + new;
        update_peak(now);
        BYTES_IN_USE.fetch_sub(old, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BYTES_IN_USE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made by the whole process so far. Subtract two reads
/// to count a region; single-threaded regions count exactly.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Heap bytes currently live (allocated and not yet freed), process-wide.
#[cfg(test)]
pub fn bytes_in_use() -> u64 {
    BYTES_IN_USE.load(Ordering::Relaxed)
}

/// The live-byte high-water mark since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Rebase the high-water mark to the current live-byte count, so a gauge
/// region measures *its own* peak: `reset_peak(); work(); peak_bytes()`
/// reports the ceiling the region reached, pre-existing state included.
pub fn reset_peak() {
    PEAK_BYTES.store(BYTES_IN_USE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::{alloc_calls, bytes_in_use, peak_bytes, reset_peak};

    #[test]
    fn heap_traffic_is_counted() {
        let before = alloc_calls();
        let v: Vec<u64> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        assert!(alloc_calls() > before, "Vec::with_capacity must be seen");
    }

    #[test]
    fn capacity_reuse_is_free() {
        let mut v: Vec<u64> = Vec::with_capacity(1024);
        let before = alloc_calls();
        for i in 0..1024 {
            v.push(i);
        }
        v.clear();
        for i in 0..1024 {
            v.push(i);
        }
        assert_eq!(alloc_calls(), before, "pushes within capacity are free");
    }

    #[test]
    fn live_bytes_rise_and_fall() {
        let before = bytes_in_use();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        assert!(
            bytes_in_use() >= before + (1 << 16),
            "a live 64 KiB buffer is visible"
        );
        drop(v);
        assert!(
            bytes_in_use() < before + (1 << 16),
            "freed bytes leave the live count"
        );
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        reset_peak();
        let baseline = peak_bytes();
        {
            let v: Vec<u8> = Vec::with_capacity(1 << 20);
            std::hint::black_box(&v);
        }
        // The buffer is gone, but the peak remembers it.
        assert!(
            peak_bytes() >= baseline + (1 << 20),
            "peak saw the transient 1 MiB buffer"
        );
        reset_peak();
        assert!(
            peak_bytes() < baseline + (1 << 20),
            "reset rebases the peak to current live bytes"
        );
    }
}
