//! Dependency-free parallel executor for independent simulations.
//!
//! Every figure in this crate is read from a grid of `(benchmark,
//! mechanism)` cells, and each cell is an independent deterministic
//! simulation: the workload generator is seeded per cell and no state is
//! shared. [`map_parallel`] exploits that with a plain work-stealing-free
//! thread pool built on [`std::thread::scope`] — workers claim input
//! indices from a shared atomic counter, compute results locally, and the
//! collected `(index, result)` pairs are sorted by index before being
//! returned. Output order therefore never depends on thread timing: a
//! parallel run is element-for-element identical to a serial one.
//!
//! It is the only pool of sweep workers: [`crate::supervise`] runs each
//! supervised cell inside `map_parallel` too, and `clippy.toml` refuses
//! `std::thread::scope` in the modules that deny `disallowed_methods`.
//!
//! Schedulers are built *inside* the closure on the worker thread — the
//! `Box<dyn AccessScheduler>` trait objects are not `Send`, but the plain
//! config values ([`crate::SystemConfig`], `SpecBenchmark`, `Mechanism`)
//! all are, so nothing non-`Send` ever crosses a thread boundary.

// Supervised-cell module (DESIGN.md §15): failures return structured
// errors instead of panicking and burning a retry budget.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads used when the caller passes `jobs == 0`:
/// [`std::thread::available_parallelism`], or 1 if it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a `--jobs`-style request against the amount of work: `0` means
/// auto-detect, and there is never a point in more workers than items.
fn effective_jobs(jobs: usize, items: usize) -> usize {
    let requested = if jobs == 0 { default_jobs() } else { jobs };
    requested.min(items).max(1)
}

/// Applies `f` to every element of `items` on up to `jobs` worker threads
/// (`0` = auto-detect) and returns the results in input order.
///
/// `f` receives `(index, &item)` and must be safe to call concurrently;
/// simulation closures are, because each call builds its own [`crate::System`].
/// With `jobs <= 1` (or a single item) everything runs inline on the caller's
/// thread with no pool at all, which keeps single-threaded determinism checks
/// trivially comparable.
///
/// A panic in `f` propagates to the caller once all workers have stopped
/// (the behaviour of [`std::thread::scope`]).
pub fn map_parallel<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(idx) else { break };
                    local.push((idx, f(idx, item)));
                }
                // One lock per worker lifetime, not per item. A sibling
                // worker panicking while holding the lock poisons it, but
                // the protected Vec is never left half-written (extend is
                // the only mutation), so recover the guard rather than
                // compounding one cell's panic into a pool-wide abort.
                collected
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(local);
            });
        }
    });
    let mut pairs = collected.into_inner().unwrap_or_else(|e| e.into_inner());
    #[expect(
        clippy::panic,
        reason = "a lost result means a caller swallowed a worker panic; aborting loudly beats \
                  returning a silently misaligned vector"
    )]
    if pairs.len() != items.len() {
        // Only reachable if a caller swallows a worker panic (e.g. via
        // catch_unwind around the scope); name the lost work.
        let have: std::collections::HashSet<usize> = pairs.iter().map(|&(i, _)| i).collect();
        let missing: Vec<usize> = (0..items.len()).filter(|i| !have.contains(i)).collect();
        panic!(
            "map_parallel lost {} of {} results (missing input indices {missing:?})",
            missing.len(),
            items.len()
        );
    }
    pairs.sort_unstable_by_key(|&(idx, _)| idx);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = map_parallel(&items, 4, |_, &x| {
            // Stagger completion so late indices often finish first.
            if x % 7 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = map_parallel(&items, 1, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
        let parallel = map_parallel(&items, 8, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn index_matches_item_position() {
        let items = ["a", "b", "c"];
        let tagged = map_parallel(&items, 0, |i, s| format!("{i}:{s}"));
        assert_eq!(tagged, ["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_parallel(&empty, 0, |_, &x| x).is_empty());
        assert_eq!(map_parallel(&[42u8], 16, |_, &x| x), vec![42]);
    }

    #[test]
    fn zero_jobs_autodetects() {
        assert!(default_jobs() >= 1);
        let items: Vec<u32> = (0..8).collect();
        assert_eq!(
            map_parallel(&items, 0, |_, &x| x + 1),
            (1..9).collect::<Vec<_>>()
        );
    }
}
