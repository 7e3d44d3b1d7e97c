//! Deterministic parallel sweeps over independent work items.
//!
//! The study's hot paths are embarrassingly parallel monthly-snapshot
//! sweeps: compute something expensive for each month of an inclusive
//! range, then assemble the results in chronological order. This module
//! provides that shape on plain `std::thread::scope` workers — no external
//! dependencies — with a hard determinism contract: **output order and
//! content are identical to the serial loop**, whatever the worker count.
//!
//! Workers schedule themselves: each claims the next unclaimed index
//! from a shared counter, one item at a time, so a few expensive items
//! (BR's NDT container, the PeeringDB dumps) never strand the cheap
//! items queued behind them on one busy worker. Every result is tagged
//! with its index and lands in that index's slot, so the result vector
//! is in input order whichever worker computed what.

use crate::date::MonthStamp;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The machine's available parallelism, detected once per process. On a
/// single-core host every sweep primitive runs its tasks inline —
/// spawning a lone worker thread buys nothing and costs a stack — and
/// the fallback is announced exactly once on stderr so a surprisingly
/// serial run is diagnosable.
fn detected_parallelism() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        if hw == 1 {
            eprintln!(
                "sweep: available_parallelism is 1 — running sweeps serially (no threads spawned)"
            );
        }
        hw
    })
}

/// Number of worker threads a sweep will use: the machine's available
/// parallelism, capped by the item count (never zero).
pub fn worker_count(items: usize) -> usize {
    detected_parallelism().min(items).max(1)
}

/// Map `f` over `items` on scoped worker threads, returning results in
/// input order. Equivalent to `items.iter().map(f).collect()` — asserted
/// by the cross-crate determinism tests — but runs on
/// [`worker_count`] threads.
pub fn parallel_map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_map_with(worker_count(items.len()), items, f)
}

/// [`parallel_map`] with an explicit worker count — lets callers (the
/// shard-invariance tests, benches on single-core hosts) drive the
/// multi-worker path regardless of the machine's parallelism. Same
/// determinism contract: the output is byte-identical to the serial loop
/// for every worker count. A panic in `f` reaches the caller once every
/// worker has drained the remaining items.
pub fn parallel_map_with<I, O, F>(workers: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = items.len();
    if n <= 1 || workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Each worker — the calling thread is one of them — claims indices
    // until none is left and keeps every result next to its index.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            match items.get(i) {
                Some(item) => done.push((i, f(item))),
                None => return done,
            }
        }
    };
    let mut slots: Vec<Option<O>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(claim)).collect();
        let own = claim();
        for done in helpers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .chain([own])
        {
            for (i, out) in done {
                slots[i] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every sweep slot is filled by its worker"))
        .collect()
}

/// Sweep an inclusive month range in parallel: compute `f(m)` for every
/// month in `[start, end]` and return `(month, value)` pairs in
/// chronological order. Empty when `end < start`.
pub fn month_range<O, F>(start: MonthStamp, end: MonthStamp, f: F) -> Vec<(MonthStamp, O)>
where
    O: Send,
    F: Fn(MonthStamp) -> O + Sync,
{
    let months: Vec<MonthStamp> = start.through(end).collect();
    months_sweep(&months, f)
}

/// Sweep an explicit month list (e.g. quarterly or semi-annual samples) in
/// parallel, returning `(month, value)` pairs in input order.
pub fn months_sweep<O, F>(months: &[MonthStamp], f: F) -> Vec<(MonthStamp, O)>
where
    O: Send,
    F: Fn(MonthStamp) -> O + Sync,
{
    parallel_map(months, |&m| f(m))
        .into_iter()
        .zip(months)
        .map(|(v, &m)| (m, v))
        .collect()
}

/// Run two independent closures concurrently and return both results.
pub fn join2<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if detected_parallelism() == 1 {
        return (fa(), fb());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(fb);
        let a = fa();
        let b = hb.join().expect("join2 worker panicked");
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..997).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let parallel = parallel_map(&items, |&x| x * x + 1);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn parallel_map_runs_every_item_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..256).collect();
        let out = parallel_map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 256);
        assert_eq!(counter.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn forced_multi_worker_sweep_matches_serial() {
        // `worker_count` collapses to 1 on a single-core host, which would
        // leave the multi-worker path untested there — so drive it directly.
        let items: Vec<u64> = (0..101).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 7 + 3).collect();
        for workers in [2, 3, 8, 101, 500] {
            assert_eq!(
                parallel_map_with(workers, &items, |&x| x * 7 + 3),
                serial,
                "worker count {workers} must not change the output"
            );
        }
    }

    #[test]
    fn forced_multi_worker_runs_every_item_once() {
        for workers in [2, 3, 8] {
            let runs: Vec<AtomicUsize> = (0..203).map(|_| AtomicUsize::new(0)).collect();
            let indices: Vec<usize> = (0..runs.len()).collect();
            let out = parallel_map_with(workers, &indices, |&i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out, indices);
            for (i, count) in runs.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "item {i} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn uneven_item_costs_come_back_in_input_order() {
        // One slow item early on: the other workers take the items
        // behind it, and the slots still reassemble input order.
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [2, 3, 8] {
            let out = parallel_map_with(workers, &items, |&x| {
                if x == 2 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                x * 3 + 1
            });
            assert_eq!(out, serial, "worker count {workers}");
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller() {
        let items: Vec<u32> = (0..50).collect();
        // The first item usually runs on the calling thread, the last on
        // a helper: both panics must surface, payload intact.
        for bad in [0, 49] {
            let caught = std::panic::catch_unwind(|| {
                parallel_map_with(4, &items, |&x| {
                    assert_ne!(x, bad, "item {bad} fails");
                    x
                })
            });
            let payload = caught.expect_err("the panic propagates");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(message.contains(&format!("item {bad} fails")), "{message}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(parallel_map(&[] as &[u32], |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn month_range_matches_serial_loop() {
        let start = MonthStamp::new(2008, 1);
        let end = MonthStamp::new(2024, 2);
        let serial: Vec<(MonthStamp, i32)> =
            start.through(end).map(|m| (m, m.index() * 3)).collect();
        assert_eq!(month_range(start, end, |m| m.index() * 3), serial);
        assert!(month_range(end, start, |m| m.index()).is_empty());
    }

    #[test]
    fn join2_returns_both() {
        let (a, b) = join2(|| 2 + 2, || "ok".to_owned());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }
}
