//! Unit tests for the scoped pool: ordering, panic propagation, nested
//! scopes, and the 1-thread fallback.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use peercache_par::{derive_seed, par_map, par_map_chunked, par_map_with, with_threads};

#[test]
fn preserves_input_order() {
    let items: Vec<usize> = (0..257).collect();
    let out = par_map_with(8, &items, |i, &x| {
        assert_eq!(i, x, "index matches item position");
        x * 2
    });
    let expected: Vec<usize> = items.iter().map(|&x| x * 2).collect();
    assert_eq!(out, expected);
}

#[test]
fn order_is_independent_of_thread_count() {
    let items: Vec<u64> = (0..100).collect();
    let f = |i: usize, &x: &u64| derive_seed(x, i as u64);
    let serial = par_map_with(1, &items, f);
    for threads in [2, 3, 8, 64] {
        assert_eq!(
            par_map_with(threads, &items, f),
            serial,
            "{threads} threads"
        );
    }
}

#[test]
fn one_thread_fallback_runs_on_caller() {
    let caller = std::thread::current().id();
    let out = par_map_with(1, &[1, 2, 3], |_, &x| {
        assert_eq!(std::thread::current().id(), caller, "serial path is inline");
        x + 1
    });
    assert_eq!(out, vec![2, 3, 4]);
}

#[test]
fn empty_and_singleton_inputs() {
    let empty: Vec<u32> = Vec::new();
    assert!(par_map_with(4, &empty, |_, &x| x).is_empty());
    assert_eq!(par_map_with(4, &[9], |_, &x| x * x), vec![81]);
}

#[test]
fn chunked_outputs_are_sized_to_the_outputs() {
    let items: Vec<u32> = (0..1000).collect();
    // One accumulator per chunk of 64: 16 outputs, and room for no more,
    // however many inputs fed them.
    let sums = par_map_chunked(&items, 64, |start, chunk| {
        vec![(start, chunk.iter().sum::<u32>())]
    });
    assert_eq!(sums.len(), 16);
    assert!(sums.capacity() < 2 * sums.len(), "{}", sums.capacity());
    assert_eq!(sums[1], (64, (64..128).sum()));
    // One output per input is a plain order-preserving map.
    let doubled = par_map_chunked(&items, 64, |_, chunk| chunk.iter().map(|x| x * 2).collect());
    assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
}

#[test]
fn propagates_panics() {
    let items: Vec<usize> = (0..32).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        par_map_with(4, &items, |_, &x| {
            assert!(x != 17, "poison pill");
            x
        })
    }));
    let err = result.expect_err("panic must cross the pool boundary");
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string payload>".to_owned());
    assert!(msg.contains("poison pill"), "got: {msg}");
}

#[test]
fn nested_scopes_run_inline_and_correctly() {
    let outer: Vec<u64> = (0..8).collect();
    let nested_parallelism = AtomicUsize::new(0);
    let out = par_map_with(4, &outer, |_, &x| {
        let caller = std::thread::current().id();
        let inner: Vec<u64> = (0..5).map(|j| x * 10 + j).collect();
        let inner_out = par_map_with(4, &inner, |_, &y| {
            if std::thread::current().id() != caller {
                nested_parallelism.fetch_add(1, Ordering::Relaxed);
            }
            y + 1
        });
        inner_out.iter().sum::<u64>()
    });
    let expected: Vec<u64> = outer
        .iter()
        .map(|&x| (0..5).map(|j| x * 10 + j + 1).sum())
        .collect();
    assert_eq!(out, expected);
    assert_eq!(
        nested_parallelism.load(Ordering::Relaxed),
        0,
        "nested maps must run inline on the worker"
    );
}

/// A task for a 4-thread map: item 0 waits (at most a few seconds, so a
/// pool that never fans out fails rather than hangs) until some other
/// item has run, and reports whether one did. Every item returns its
/// thread id.
fn wait_for_a_sibling(i: usize, sibling_ran: &AtomicBool) -> (ThreadId, bool) {
    if i == 0 {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !sibling_ran.load(Ordering::Acquire) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    } else {
        sibling_ran.store(true, Ordering::Release);
    }
    (
        std::thread::current().id(),
        sibling_ran.load(Ordering::Acquire),
    )
}

fn assert_caller_ran_item_0_beside_a_worker(out: &[(ThreadId, bool)], caller: ThreadId) {
    assert_eq!(out[0].0, caller, "item 0 runs on the caller");
    // The caller was busy with item 0 until another item ran, so only a
    // spawned worker can have run that one.
    assert!(out[0].1, "no other item ran while the caller held item 0");
    assert!(
        out[1..].iter().any(|&(id, _)| id != caller),
        "every item ran on the caller"
    );
}

#[test]
fn caller_runs_the_first_item_beside_the_workers() {
    // The calling thread is one of the workers and keeps item 0 for
    // itself, in both maps, while spawned workers run the others.
    let caller = std::thread::current().id();
    let items: Vec<usize> = (0..16).collect();
    let sibling_ran = AtomicBool::new(false);
    let out = par_map_with(4, &items, |i, _| wait_for_a_sibling(i, &sibling_ran));
    assert_caller_ran_item_0_beside_a_worker(&out, caller);

    let mut items: Vec<usize> = (0..16).collect();
    let sibling_ran = AtomicBool::new(false);
    let out = with_threads(4, || {
        peercache_par::par_map_mut(&mut items, |i, _| wait_for_a_sibling(i, &sibling_ran))
    });
    assert_caller_ran_item_0_beside_a_worker(&out, caller);

    // While it works, the caller is a pool worker: a map nested in its
    // task runs inline.
    let nested = par_map_with(4, &[0u8, 1], |_, _| {
        par_map_with(4, &[0u8, 1], |_, _| std::thread::current().id())
    });
    assert_eq!(
        nested[0],
        vec![caller, caller],
        "nested map runs inline on the caller"
    );
}

#[test]
fn with_threads_overrides_and_restores() {
    with_threads(1, || {
        assert_eq!(peercache_par::threads(), 1);
        let caller = std::thread::current().id();
        par_map(&[1, 2], |_, _| {
            assert_eq!(std::thread::current().id(), caller);
        });
        // Nested override wins, then restores.
        with_threads(3, || assert_eq!(peercache_par::threads(), 3));
        assert_eq!(peercache_par::threads(), 1);
    });
}

#[test]
fn with_threads_restores_on_panic() {
    let before = peercache_par::threads();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        with_threads(2, || panic!("boom"));
    }));
    assert_eq!(peercache_par::threads(), before);
}

#[test]
fn par_map_mut_visits_each_item_once_in_order() {
    for threads in [1usize, 4] {
        with_threads(threads, || {
            let mut items: Vec<u64> = (0..257).collect();
            let out = peercache_par::par_map_mut(&mut items, |i, item| {
                *item += 1;
                (i, *item)
            });
            for (i, &(idx, val)) in out.iter().enumerate() {
                assert_eq!(idx, i, "input order preserved");
                assert_eq!(val, i as u64 + 1, "each item mutated exactly once");
            }
            assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
        });
    }
}

#[test]
fn par_map_mut_propagates_panics() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        with_threads(4, || {
            let mut items: Vec<u64> = (0..32).collect();
            peercache_par::par_map_mut(&mut items, |i, _| {
                assert!(i != 7, "boom at 7");
            });
        });
    }));
    assert!(result.is_err(), "worker panic reaches the caller");
}
