//! Row-parallel execution helper shared by the matrix kernels.
//!
//! Every parallel kernel in this workspace has the same shape: an
//! output buffer split into disjoint row chunks, one worker per chunk,
//! workers reading shared inputs. [`par_row_chunks`] centralizes the
//! chunking, the spawn-threshold policy and the `thread::scope` plumbing
//! so each kernel only supplies the per-chunk closure.
//!
//! # Thread budget
//!
//! Long-lived hosts (the `amalur-serve` worker pool) run N request
//! workers concurrently; if each kernel call then fanned out to all
//! cores, the machine would run N × cores threads. The thread-local
//! budget set by [`set_thread_budget`] / [`with_thread_budget`] caps how
//! many workers *any* kernel invoked from the current thread may spawn,
//! so a serving worker pinned to `cores / N` threads keeps the whole
//! pool at ≤ cores kernel threads. The budget applies to both the
//! automatic ([`par_row_chunks`]) and explicit
//! ([`par_row_chunks_with`]) entry points; a budget of 1 forces fully
//! serial kernels.

use std::cell::Cell;

/// Minimum amount of work (in FLOPs or touched cells) before threads
/// are spawned; below this the scheduling overhead dominates.
pub(crate) const PAR_WORK_THRESHOLD: usize = 4_000_000;

thread_local! {
    /// Per-thread cap on kernel worker threads; `usize::MAX` = uncapped.
    static THREAD_BUDGET: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Caps the number of worker threads kernels called from this thread
/// may spawn. A budget of 0 or 1 forces serial execution;
/// `usize::MAX` restores the default (hardware parallelism).
///
/// The budget is thread-local: a serving worker sets it once at startup
/// and every kernel it invokes afterwards respects it, without the cap
/// leaking into other threads' kernels.
pub fn set_thread_budget(threads: usize) {
    THREAD_BUDGET.with(|b| b.set(threads.max(1)));
}

/// The current thread's kernel-thread budget (`usize::MAX` = uncapped).
pub fn thread_budget() -> usize {
    THREAD_BUDGET.with(Cell::get)
}

/// Runs `f` with the thread budget temporarily set to `threads`,
/// restoring the previous budget afterwards (panic-safe only in the
/// no-unwind sense: kernels here don't catch unwinds).
pub fn with_thread_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = thread_budget();
    set_thread_budget(threads);
    let out = f();
    set_thread_budget(prev);
    out
}

/// Number of worker threads the kernels may use: hardware parallelism
/// capped by the current thread's budget.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(thread_budget())
}

/// Runs `work(first_row, chunk)` over disjoint row chunks of `out`.
///
/// * `out` — output buffer of `rows * row_len` elements, split on row
///   boundaries;
/// * `row_len` — elements per row (chunks never split a row);
/// * `total_work` — FLOP estimate for the whole call; below
///   `PAR_WORK_THRESHOLD` = 4 000 000 (or with one core, or fewer rows than
///   workers) the closure runs once, serially, on the full buffer.
///
/// The closure receives the index of its chunk's first row and the
/// mutable chunk itself.
///
/// Public so downstream crates (the factorized operators in
/// `amalur-factorize`) reuse the same chunking and threshold policy.
pub fn par_row_chunks<F>(out: &mut [f64], row_len: usize, total_work: usize, work: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    par_row_chunks_with(out, row_len, total_work, available_threads(), work);
}

/// [`par_row_chunks`] with an explicit worker count (factored out so the
/// spawning path is testable on single-core machines). The count is
/// still capped by the calling thread's budget (see module docs) so
/// serving workers cannot oversubscribe even through this entry point.
pub fn par_row_chunks_with<F>(
    out: &mut [f64],
    row_len: usize,
    total_work: usize,
    threads: usize,
    work: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let threads = threads.min(thread_budget());
    let rows = out.len().checked_div(row_len).unwrap_or(0);
    if total_work < PAR_WORK_THRESHOLD || threads < 2 || rows < threads {
        work(0, out);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (idx, chunk) in out.chunks_mut(rows_per * row_len).enumerate() {
            let work = &work;
            scope.spawn(move || work(idx * rows_per, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    #[test]
    fn small_work_runs_serially_on_full_buffer() {
        let mut out = vec![0.0; 12];
        par_row_chunks(&mut out, 3, 0, |first_row, chunk| {
            assert_eq!(first_row, 0);
            assert_eq!(chunk.len(), 12);
            chunk.iter_mut().for_each(|v| *v += 1.0);
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn parallel_chunks_cover_every_row_exactly_once() {
        // Explicit worker count: exercises the actual spawning path even
        // on single-core machines where `available_parallelism` is 1.
        for threads in [2, 3, 7] {
            let rows = 1000;
            let row_len = 8;
            let mut out = vec![0.0; rows * row_len];
            par_row_chunks_with(
                &mut out,
                row_len,
                usize::MAX,
                threads,
                |first_row, chunk| {
                    for (r, row) in chunk.chunks_exact_mut(row_len).enumerate() {
                        for v in row {
                            *v += (first_row + r) as f64;
                        }
                    }
                },
            );
            for (r, row) in out.chunks_exact(row_len).enumerate() {
                assert!(row.iter().all(|&v| v == r as f64), "row {r} wrong");
            }
        }
    }

    #[test]
    fn uneven_row_counts_split_on_row_boundaries() {
        // 11 rows across 4 workers: 3+3+3+2.
        let rows = 11;
        let row_len = 5;
        let mut out = vec![0.0; rows * row_len];
        par_row_chunks_with(&mut out, row_len, usize::MAX, 4, |first_row, chunk| {
            assert_eq!(chunk.len() % row_len, 0, "chunk split a row");
            chunk.iter_mut().for_each(|v| *v += 1.0 + first_row as f64);
        });
        for (r, row) in out.chunks_exact(row_len).enumerate() {
            let expected = 1.0 + (r / 3 * 3) as f64;
            assert!(row.iter().all(|&v| v == expected), "row {r} wrong");
        }
    }

    #[test]
    fn zero_row_len_is_a_noop() {
        let mut out: Vec<f64> = Vec::new();
        par_row_chunks(&mut out, 0, usize::MAX, |_, chunk| {
            assert!(chunk.is_empty());
        });
    }

    /// Distinct `first_row` values observed = number of chunks spawned.
    fn count_chunks(rows: usize, row_len: usize, threads: usize) -> usize {
        let mut out = vec![0.0; rows * row_len];
        let seen = Mutex::new(BTreeSet::new());
        par_row_chunks_with(&mut out, row_len, usize::MAX, threads, |first_row, _| {
            seen.lock().unwrap().insert(first_row);
        });
        let seen = seen.into_inner().unwrap();
        seen.len()
    }

    #[test]
    fn budget_of_one_forces_serial_even_with_explicit_threads() {
        with_thread_budget(1, || {
            assert_eq!(count_chunks(1000, 8, 8), 1);
        });
    }

    #[test]
    fn budget_caps_explicit_worker_counts() {
        with_thread_budget(2, || {
            // Asked for 8 workers, budget allows 2 → at most 2 chunks.
            assert!(count_chunks(1000, 8, 8) <= 2);
        });
        // Budget restored: 8 workers spawn again.
        assert_eq!(count_chunks(1000, 8, 8), 8);
    }

    #[test]
    fn budget_is_thread_local() {
        set_thread_budget(1);
        let other = std::thread::spawn(|| count_chunks(1000, 8, 4))
            .join()
            .unwrap();
        assert_eq!(other, 4, "budget leaked into a fresh thread");
        assert_eq!(count_chunks(1000, 8, 4), 1);
        set_thread_budget(usize::MAX);
    }

    #[test]
    fn with_thread_budget_restores_previous_budget() {
        set_thread_budget(3);
        with_thread_budget(1, || assert_eq!(thread_budget(), 1));
        assert_eq!(thread_budget(), 3);
        set_thread_budget(usize::MAX);
    }
}
