//! Unit tests for the scoped pool: ordering, panic propagation, nested
//! scopes, and the 1-thread fallback.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

#[test]
fn uses_multiple_threads_when_asked() {
    // Smoke-test that the parallel path actually fans out: with 4 workers
    // over 64 blocking-free tasks we should see more than one distinct
    // thread id (guaranteed unless the host serialises everything, in
    // which case the assertion on ids collapsing to 1 still holds the
    // ordering guarantees above).
    let items: Vec<usize> = (0..64).collect();
    let ids = Mutex::new(std::collections::HashSet::new());
    par_map_with(4, &items, |_, _| {
        ids.lock()
            .expect("test mutex")
            .insert(std::thread::current().id());
    });
    let caller_inline = ids
        .lock()
        .expect("test mutex")
        .contains(&std::thread::current().id());
    assert!(!caller_inline, "parallel path runs on spawned workers only");
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
