//! Deterministic earliest-success parallel scan.
//!
//! The semantic minimizer tries an ordered list of candidate merges per
//! round and must commit exactly the one the sequential greedy engine
//! would: the *lowest-index* candidate that passes verification.
//! [`earliest_success`] fans the tests out over worker threads with
//! chunked work claiming (the same claim-and-steal shape as the tableau
//! expansion scheduler) while keeping that commit rule exact:
//!
//! * the calling thread tests the first chunk itself, left to right,
//!   and other workers start only when it holds no hit; the calling
//!   thread then works on as one of them;
//! * workers claim fixed-size index chunks from a shared atomic cursor;
//! * a passing test publishes its index with `fetch_min`, so the best
//!   known index only decreases;
//! * workers skip indices above the current best, but *every* index
//!   below the final best is guaranteed to have been tested — the
//!   cursor hands chunks out in order and a worker only abandons a
//!   claimed index when it exceeds the current best.
//!
//! Hence the returned index is the minimal passing one — bit-identical
//! to a sequential left-to-right scan at every thread count. Tests above
//! the committed index may or may not have run (speculation); callers
//! must read only the results up to the committed index (or all of them
//! when nothing passed), which every thread count produces alike.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Indices per claimed chunk. Small enough to keep workers near the
/// front of the index order (little speculation past a success), large
/// enough to amortize the claim.
const SCAN_CHUNK: usize = 8;

/// Locks `m`, recovering the data if a panicking thread poisoned it:
/// every value its callers guard (the result slots and first error
/// here, the minimizer's buffer pool) is valid after any single update.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Runs `test` over `0..n` and returns the lowest index whose test
/// reports a hit, together with the per-index results that are
/// guaranteed to have been produced (every index up to and including
/// the returned one; all of `0..n` when there is no hit).
///
/// `test(i)` returns `Ok((hit, value))` or an error; the first error
/// observed cancels the scan and is returned (which error wins is
/// nondeterministic under parallelism — callers use errors only for
/// realtime aborts, which are allowed to be nondeterministic).
///
/// With `threads <= 1` the scan is a plain left-to-right loop that
/// stops at the first hit, so indices beyond the hit are untested. With
/// more threads the first [`SCAN_CHUNK`] indices are still tested that
/// way, and workers start only if none of them hits.
pub(crate) fn earliest_success<T, E, F>(
    n: usize,
    threads: usize,
    test: F,
) -> Result<(Option<usize>, Vec<Option<T>>), E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<(bool, T), E> + Sync,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    // The first chunk runs inline on the calling thread, and workers
    // start only when it holds no hit: a chunk never pays for thread
    // coordination, nor does a single worker, and the minimizer's
    // rounds mostly commit inside their first chunk (replayed
    // rejections are filtered out before the scan).
    let inline = if threads <= 1 { n } else { n.min(SCAN_CHUNK) };
    for (i, slot) in out.iter_mut().enumerate().take(inline) {
        let (hit, value) = test(i)?;
        *slot = Some(value);
        if hit {
            return Ok((Some(i), out));
        }
    }
    if inline == n {
        return Ok((None, out));
    }

    let workers = threads.min((n - inline).div_ceil(SCAN_CHUNK));
    let next = AtomicUsize::new(inline);
    let best = AtomicUsize::new(usize::MAX);
    let stop = AtomicBool::new(false);
    let error: Mutex<Option<E>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let run_worker = || loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let start = next.fetch_add(SCAN_CHUNK, Ordering::Relaxed);
        if start >= n || start > best.load(Ordering::Acquire) {
            break;
        }
        let end = (start + SCAN_CHUNK).min(n);
        for (i, slot) in slots.iter().enumerate().take(end).skip(start) {
            if i > best.load(Ordering::Acquire) {
                break;
            }
            if stop.load(Ordering::Acquire) {
                break;
            }
            match test(i) {
                Ok((hit, value)) => {
                    *lock_recover(slot) = Some(value);
                    if hit {
                        best.fetch_min(i, Ordering::AcqRel);
                    }
                }
                Err(e) => {
                    let mut guard = lock_recover(&error);
                    if guard.is_none() {
                        *guard = Some(e);
                    }
                    stop.store(true, Ordering::Release);
                    break;
                }
            }
        }
    };

    std::thread::scope(|scope| {
        // The calling thread is one of the workers: its caches are warm
        // from the inline chunk, and one thread fewer is started.
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run_worker)).collect();
        run_worker();
        for h in handles {
            // A panicking test propagates out of the scope, matching the
            // behavior of an inline call.
            h.join().unwrap_or_else(|payload| {
                stop.store(true, Ordering::Release);
                std::panic::resume_unwind(payload)
            });
        }
    });

    if let Some(e) = lock_recover(&error).take() {
        return Err(e);
    }
    for (slot, out_slot) in slots.into_iter().zip(out.iter_mut()).skip(inline) {
        *out_slot = lock_recover(&slot).take();
    }
    let committed = best.load(Ordering::Acquire);
    let committed = (committed != usize::MAX).then_some(committed);
    // Every index at or below the committed one was tested (see module
    // docs), so the caller can fold those results deterministically.
    debug_assert!(committed
        .map(|j| out.iter().take(j + 1).all(|s| s.is_some()))
        .unwrap_or(true));
    Ok((committed, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_scan_finds_nothing() {
        let (found, out) = earliest_success::<(), (), _>(0, 4, |_| unreachable!()).unwrap();
        assert_eq!(found, None);
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_scan_stops_at_first_hit() {
        let calls = AtomicUsize::new(0);
        let (found, out) = earliest_success::<usize, (), _>(100, 1, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok((i == 5, i))
        })
        .unwrap();
        assert_eq!(found, Some(5));
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        assert!(out[5] == Some(5) && out[6].is_none());
    }

    #[test]
    fn parallel_scan_commits_the_lowest_index_at_every_thread_count() {
        // Hits at 40 and 11; 11 must win regardless of scheduling, and
        // everything at or below it must be reported.
        for threads in [1, 2, 4, 8] {
            let (found, out) =
                earliest_success::<usize, (), _>(64, threads, |i| Ok((i == 40 || i == 11, i * 2)))
                    .unwrap();
            assert_eq!(found, Some(11), "threads={threads}");
            for (i, slot) in out.iter().take(12).enumerate() {
                assert_eq!(*slot, Some(i * 2), "threads={threads} i={i}");
            }
        }
    }

    #[test]
    fn a_hit_in_the_first_chunk_starts_no_workers() {
        for threads in [2, 8] {
            let calls = AtomicUsize::new(0);
            let (found, out) = earliest_success::<usize, (), _>(100, threads, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok((i == 3, i))
            })
            .unwrap();
            assert_eq!(found, Some(3), "threads={threads}");
            assert_eq!(calls.load(Ordering::Relaxed), 4, "threads={threads}");
            assert!(out[3] == Some(3) && out[4].is_none());
        }
    }

    #[test]
    fn parallel_scan_without_hit_tests_everything() {
        for threads in [2, 8] {
            let calls = AtomicUsize::new(0);
            let (found, out) = earliest_success::<usize, (), _>(50, threads, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok((false, i))
            })
            .unwrap();
            assert_eq!(found, None);
            assert!(out.iter().all(|s| s.is_some()));
            assert_eq!(calls.load(Ordering::Relaxed), 50, "each index tested once");
        }
    }

    #[test]
    fn errors_cancel_the_scan() {
        for threads in [1, 4] {
            let r = earliest_success::<(), &'static str, _>(100, threads, |i| {
                if i == 20 {
                    Err("deadline")
                } else {
                    Ok((false, ()))
                }
            });
            assert_eq!(r.err(), Some("deadline"), "threads={threads}");
        }
    }
}
