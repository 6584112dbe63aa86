//! Scoped parallel tasks.
//!
//! [`run_scope`] is the engine's one parallel primitive: it takes a vector
//! of closures that may borrow from the caller's stack, runs them on
//! threads of a `std::thread::scope`, and returns their results **in task
//! order** — the same vector `tasks.into_iter().map(|f| f()).collect()`
//! returns, so the engine's "same floats at every thread count" invariant
//! does not depend on scheduling. Nothing outlives a call: a caller waits
//! for its own tasks only and never runs anyone else's, so a task may open
//! a scope of its own, and a thread may wait on its scope while holding a
//! lock other evaluations need, without the scope causing a deadlock.
//!
//! # Counters
//!
//! `scopes` (calls that ran in parallel) and `tasks` (the tasks those
//! calls held) are process-wide, surfaced by `lapush serve` `STATS` and
//! the `fig_serve` result file. Both are fully determined by the workload,
//! never by scheduling, so they are gated exactly.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// Hard cap on the threads one scope uses; `threads` budgets are clamped
/// to it.
pub const MAX_WORKERS: usize = 64;

static SCOPES: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime counters of [`run_scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolCounters {
    /// `run_scope` calls that ran in parallel (serial fast paths not
    /// included). Deterministic for a fixed workload and thread budget.
    pub scopes: u64,
    /// Tasks those calls ran. Deterministic likewise.
    pub tasks: u64,
}

/// Snapshot of the process-wide counters.
pub fn counters() -> PoolCounters {
    PoolCounters {
        scopes: SCOPES.load(Ordering::Relaxed),
        tasks: TASKS.load(Ordering::Relaxed),
    }
}

/// Run `tasks` under a parallelism budget of `threads` (the calling thread
/// included), returning their results in task order.
///
/// With `g = min(threads, tasks.len(), MAX_WORKERS)` at most 1 the tasks
/// run serially on the caller and nothing is counted. Otherwise they are
/// cut into `g` contiguous groups of near-equal size; the caller runs the
/// first group and one scoped thread runs each of the others. A task's
/// panic is re-raised on the caller once every thread has been joined.
pub fn run_scope<T, F>(threads: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let g = threads.min(n).min(MAX_WORKERS);
    if g <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    SCOPES.fetch_add(1, Ordering::Relaxed);
    TASKS.fetch_add(n as u64, Ordering::Relaxed);
    let run = |group: Vec<F>| group.into_iter().map(|f| f()).collect::<Vec<T>>();
    let mut tasks = tasks.into_iter();
    let mut groups: Vec<Vec<F>> = (0..g)
        .map(|i| tasks.by_ref().take((i + 1) * n / g - i * n / g).collect())
        .collect();
    let first = groups.remove(0);
    thread::scope(|s| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| s.spawn(move || run(group)))
            .collect();
        let mut out = run(first);
        for handle in handles {
            out.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Run `n` tasks under `threads`, each reporting its index and thread.
    fn whereabouts(threads: usize, n: usize) -> Vec<(usize, ThreadId)> {
        run_scope(
            threads,
            (0..n)
                .map(|i| move || (i, thread::current().id()))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn results_are_in_submission_order() {
        let tasks: Vec<_> = (0..100)
            .map(|i| {
                move || {
                    // Uneven spin so completion order differs from
                    // submission order.
                    let mut acc = i as u64;
                    for _ in 0..((i * 37) % 400) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(acc);
                    i * i
                }
            })
            .collect();
        let got = run_scope(4, tasks);
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn serial_fast_path_stays_on_the_calling_thread() {
        let me = thread::current().id();
        for (threads, n) in [(1, 8), (0, 3), (8, 1), (8, 0)] {
            let got = whereabouts(threads, n);
            assert_eq!(got.len(), n);
            for (i, &(index, thread)) in got.iter().enumerate() {
                assert_eq!((index, thread), (i, me), "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn groups_are_contiguous_and_the_caller_runs_the_first() {
        // 7 tasks on 3 threads: groups 0..2, 2..4, 4..7.
        let me = thread::current().id();
        let got = whereabouts(3, 7);
        assert_eq!(
            got.iter().map(|r| r.0).collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );
        let threads: Vec<ThreadId> = got.iter().map(|r| r.1).collect();
        assert!(threads[..2].iter().all(|&t| t == me));
        assert!(threads[2..4].iter().all(|&t| t == threads[2]));
        assert!(threads[4..].iter().all(|&t| t == threads[4]));
        assert_eq!(threads.iter().collect::<HashSet<_>>().len(), 3);
    }

    #[test]
    fn nested_scopes_match_serial_recursion() {
        // Fan-out 4 at each of 3 levels: 4 + 16 + 64 tasks, the inner
        // levels opened from inside scoped threads.
        fn level(depth: usize, base: usize) -> usize {
            if depth == 0 {
                return base;
            }
            run_scope(
                4,
                (0..4usize)
                    .map(|i| move || level(depth - 1, base * 4 + i))
                    .collect::<Vec<_>>(),
            )
            .into_iter()
            .sum()
        }
        // Serial reference: sum over the 64 leaves of their base ids.
        assert_eq!(level(3, 0), (0..64).sum::<usize>());
    }

    #[test]
    fn panic_in_task_propagates_and_scopes_stay_usable() {
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_scope(
                3,
                (0..6)
                    .map(|i| {
                        let ran = &ran;
                        move || {
                            ran.fetch_add(1, Ordering::SeqCst);
                            assert!(i != 3, "task 3 exploded");
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        let err = result.expect_err("the scope must re-raise the task panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("task 3 exploded"), "unexpected payload: {msg}");
        // Task 3 ends its group (2..4), and every thread was joined before
        // the panic reached the caller: all six tasks ran.
        assert_eq!(ran.load(Ordering::SeqCst), 6);
        let got = run_scope(3, (0..4).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_huge_budget_uses_at_most_max_workers_threads() {
        let seen = Mutex::new(HashSet::new());
        let tasks: Vec<_> = (0..1_000)
            .map(|_| {
                || {
                    seen.lock()
                        .expect("no task panics holding the set")
                        .insert(thread::current().id());
                }
            })
            .collect();
        run_scope(10_000, tasks);
        let used = seen.into_inner().expect("no task panicked").len();
        assert!(used > 1 && used <= MAX_WORKERS, "{used} threads");
    }
}
