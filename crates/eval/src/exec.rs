//! Parallel scenario execution.
//!
//! Hypothetical queries are embarrassingly parallel across scenarios: each
//! branch of a what-if tree (and each member of a prepared query family)
//! evaluates against its own copy-on-write snapshot, shares the base
//! relations physically (see `hypoquery-storage`), and writes nothing
//! shared. This module provides the one primitive the engine layers on —
//! [`parallel_map`] — built on `std::thread::scope` so it needs no
//! dependencies and no `'static` bounds.
//!
//! Work distribution is a single atomic cursor: workers pull the next
//! index until the items run out, which load-balances uneven scenarios
//! (one expensive branch doesn't serialize behind a fixed pre-split).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use for scenario fan-out.
///
/// `HYPOQUERY_THREADS` overrides when set to a positive integer
/// (`1` forces sequential execution). Anything else — `0`, the empty
/// string, garbage, or a value over [`MAX_THREAD_OVERRIDE`] — is
/// rejected and falls back to the machine's available parallelism, so a
/// typo can neither disable evaluation nor fork-bomb the host.
pub fn num_workers() -> usize {
    if let Some(n) = std::env::var("HYPOQUERY_THREADS")
        .ok()
        .as_deref()
        .and_then(thread_override)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Upper bound accepted from `HYPOQUERY_THREADS`; larger values are
/// treated as invalid (far beyond any sane core count, small enough that
/// a stray byte can't request billions of threads).
pub const MAX_THREAD_OVERRIDE: usize = 1024;

/// Parse a `HYPOQUERY_THREADS` value: `Some(n)` for `1..=MAX_THREAD_OVERRIDE`
/// (surrounding whitespace tolerated), `None` for everything else.
fn thread_override(s: &str) -> Option<usize> {
    match s.trim().parse::<usize>() {
        Ok(n) if (1..=MAX_THREAD_OVERRIDE).contains(&n) => Some(n),
        _ => None,
    }
}

/// Apply `f` to every item, fanning out across [`num_workers`] threads,
/// and return the results in item order.
///
/// `f` is called as `f(index, &item)`. Results come back exactly as a
/// sequential `items.iter().enumerate().map(f).collect()` would produce
/// them — parallelism is unobservable except in wall-clock time (callers
/// must keep `f` deterministic and side-effect-free for that to hold,
/// which CoW snapshots give for free). A panic in any worker propagates.
///
/// Short inputs (0 or 1 items) and single-worker configurations run
/// inline with no thread spawned.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = num_workers().min(n);
    if n <= 1 || workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// [`parallel_map`] for fallible work: stops at nothing (all items run),
/// then returns the first error in *item order*, matching what a
/// sequential `collect::<Result<Vec<_>, _>>()` would report.
pub fn try_parallel_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    parallel_map(items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map(&none, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn first_error_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let r: Result<Vec<usize>, usize> =
            try_parallel_map(&items, |_, &x| if x % 30 == 29 { Err(x) } else { Ok(x) });
        assert_eq!(r, Err(29));
    }

    #[test]
    #[should_panic(expected = "boom 13")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        parallel_map(&items, |_, &x| {
            if x == 13 {
                panic!("boom 13");
            }
            x
        });
    }

    #[test]
    fn thread_override_accepts_only_positive_integers() {
        assert_eq!(thread_override("1"), Some(1));
        assert_eq!(thread_override(" 8 "), Some(8));
        assert_eq!(thread_override("1024"), Some(MAX_THREAD_OVERRIDE));
        // Rejected: zero, negatives, garbage, empty, overflow, huge.
        for bad in [
            "0",
            "-4",
            "four",
            "",
            "  ",
            "8.5",
            "1025",
            "99999999999999999999",
        ] {
            assert_eq!(thread_override(bad), None, "{bad:?} should be rejected");
        }
    }

    #[test]
    fn actually_uses_multiple_threads() {
        if num_workers() < 2 {
            return; // single-core CI: nothing to assert
        }
        // Items 0 and 1 meet at a barrier: whichever worker takes item 0
        // blocks there until a *different* worker takes item 1, so the
        // two must run at the same time however the OS schedules them.
        let meet = std::sync::Barrier::new(2);
        let items: Vec<usize> = (0..64).collect();
        let ids: Vec<std::thread::ThreadId> = parallel_map(&items, |i, _| {
            if i < 2 {
                meet.wait();
            }
            std::thread::current().id()
        });
        let distinct: std::collections::BTreeSet<String> =
            ids.iter().map(|id| format!("{id:?}")).collect();
        assert!(distinct.len() > 1, "expected fan-out across threads");
    }
}
