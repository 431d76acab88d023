//! Reusable scratch buffers for allocation-free hot loops.
//!
//! Gradient-descent training and the compressed factorized operators
//! need the same intermediate shapes on every epoch / for every source.
//! A [`Workspace`] is an explicit pool those intermediates are checked
//! out of and returned to, so steady-state iterations perform **zero
//! fresh heap allocations** once the pool is warm.
//!
//! # Contract
//!
//! * [`Workspace::take`] returns a zeroed buffer of exactly the
//!   requested length, reusing the smallest pooled buffer whose
//!   capacity fits; only a pool miss allocates (and increments
//!   [`Workspace::fresh_allocations`], which tests use to assert
//!   steady-state behaviour). A zero length takes nothing from the pool
//!   and allocates nothing.
//! * [`Workspace::take_stale`] is the same take without the zero fill:
//!   a pooled buffer keeps its old cells and only the part past its old
//!   length is zeroed. It is for outputs whose callee overwrites every
//!   cell before reading any.
//! * [`Workspace::give`] returns a buffer to the pool; shape is
//!   irrelevant, only capacity is tracked.
//! * [`Workspace::reserve`] leaves buffers of given lengths in the pool
//!   without writing a cell, so a loop whose widest iteration is known
//!   up front can be warmed before it runs: an untouched capacity costs
//!   no page faults until a take really uses it.
//! * `*_into` kernels never allocate for their *output* (the caller
//!   owns it); they may check scratch out of a workspace they are
//!   handed, and always return it before they come back.
//! * Thread-spawn bookkeeping inside the parallel kernels is outside
//!   this contract: the pool tracks matrix-sized buffers, which are
//!   what dominate allocation traffic per epoch.

use crate::{DenseMatrix, MatrixError, Result};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Capacity-tracked pool of `f64` buffers (see the module docs).
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
    fresh_allocations: usize,
    outstanding_elems: usize,
    high_water_elems: usize,
}

impl Workspace {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a zeroed buffer of length `len`.
    ///
    /// Reuses the best-fitting pooled buffer; allocates only when no
    /// pooled buffer has sufficient capacity.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        self.checkout(len, true)
    }

    /// Checks out a buffer of length `len` whose cells are unspecified:
    /// a pooled buffer keeps what its last user left in it, and only the
    /// cells past its old length are zeroed. For callers that overwrite
    /// every cell before they read one.
    pub fn take_stale(&mut self, len: usize) -> Vec<f64> {
        self.checkout(len, false)
    }

    fn checkout(&mut self, len: usize, zeroed: bool) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let buf = match self.best_fit(self.pool.len(), len) {
            Some(i) => {
                let mut buf = self.pool.swap_remove(i);
                if zeroed {
                    buf.clear();
                }
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.fresh_allocations += 1;
                vec![0.0; len]
            }
        };
        // Capacity, not length: `give` sees only the buffer, whose
        // length its user may have changed, but not its capacity.
        self.outstanding_elems += buf.capacity();
        if self.outstanding_elems > self.high_water_elems {
            self.high_water_elems = self.outstanding_elems;
            crate::metrics::WORKSPACE_HIGH_WATER_ELEMS.set_max(self.high_water_elems as u64);
        }
        buf
    }

    /// Index of the smallest pooled buffer among the first `live` that
    /// holds `len` cells.
    fn best_fit(&self, live: usize, len: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, buf) in self.pool[..live].iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Makes the pool able to serve takes of `lens`, all checked out at
    /// once, without a fresh allocation: each length in order claims the
    /// best-fitting pooled buffer not yet claimed, and a length that
    /// finds none adds an empty buffer of that capacity (a fresh
    /// allocation). No cell is written, nothing stays checked out, and
    /// the outstanding and high-water accounting do not move.
    ///
    /// Takes that are out at the same time, each no longer than its own
    /// entry of `lens`, then all hit, in any order: best fit never hands a
    /// take a larger buffer than one that would do, so the buffers
    /// claimed here still cover the takes to come.
    pub fn reserve(&mut self, lens: &[usize]) {
        // Claimed buffers are swapped behind `live`, out of later searches.
        let mut live = self.pool.len();
        for &len in lens.iter().filter(|&&len| len > 0) {
            match self.best_fit(live, len) {
                Some(i) => {
                    live -= 1;
                    self.pool.swap(i, live);
                }
                None => {
                    self.fresh_allocations += 1;
                    self.pool.push(Vec::with_capacity(len));
                }
            }
        }
    }

    /// Returns a buffer to the pool.
    pub fn give(&mut self, buf: Vec<f64>) {
        // What `checkout` added, unless the user grew the buffer past its
        // capacity; saturating for that case and for a foreign buffer.
        self.outstanding_elems = self.outstanding_elems.saturating_sub(buf.capacity());
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Checks out a zeroed `rows × cols` matrix.
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> DenseMatrix {
        // `take` returns exactly rows*cols elements; the fallback is a
        // defensive fresh allocation, never reached in practice.
        DenseMatrix::from_vec(rows, cols, self.take(rows * cols))
            .unwrap_or_else(|_| DenseMatrix::zeros(rows, cols))
    }

    /// Checks out a `rows × cols` matrix whose cells are unspecified
    /// (see [`Self::take_stale`]).
    pub fn take_matrix_stale(&mut self, rows: usize, cols: usize) -> DenseMatrix {
        DenseMatrix::from_vec(rows, cols, self.take_stale(rows * cols))
            .unwrap_or_else(|_| DenseMatrix::zeros(rows, cols))
    }

    /// Returns a matrix's buffer to the pool.
    pub fn give_matrix(&mut self, m: DenseMatrix) {
        self.give(m.into_vec());
    }

    /// Number of pool misses since construction — i.e. how many fresh
    /// heap allocations the workspace performed. Constant across
    /// iterations once a loop reaches steady state.
    pub fn fresh_allocations(&self) -> usize {
        self.fresh_allocations
    }

    /// Number of buffers currently checked in.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Largest capacity, in `f64` elements, simultaneously checked out
    /// of this workspace so far — the scratch footprint high-water mark.
    /// Also folded (via `set_max`) into the process-wide
    /// `matrix.workspace.high_water_elems` gauge.
    pub fn high_water_elems(&self) -> usize {
        self.high_water_elems
    }
}

/// A sharded pool of [`Workspace`]s for long-lived multi-threaded hosts
/// (the `amalur-serve` worker pool).
///
/// Each worker leases *its own* shard by index, so in steady state
/// shards are uncontended and a worker sees exactly the single-threaded
/// [`Workspace`] reuse behaviour: after the first few requests warm a
/// shard's pool, subsequent requests on that shard perform zero fresh
/// allocations. The arena is `Sync` — share it across worker threads
/// behind an `Arc`.
#[derive(Debug)]
pub struct WorkspaceArena {
    shards: Vec<Mutex<Workspace>>,
}

/// Exclusive lease on one arena shard; derefs to the [`Workspace`].
pub struct WorkspaceLease<'a> {
    guard: MutexGuard<'a, Workspace>,
}

impl std::ops::Deref for WorkspaceLease<'_> {
    type Target = Workspace;
    fn deref(&self) -> &Workspace {
        &self.guard
    }
}

impl std::ops::DerefMut for WorkspaceLease<'_> {
    fn deref_mut(&mut self) -> &mut Workspace {
        &mut self.guard
    }
}

impl WorkspaceArena {
    /// Creates an arena with `shards` independent workspace pools
    /// (at least one).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Workspace::new()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Leases shard `shard % self.shards()` (wrapping keeps any worker
    /// index valid). Blocks if another thread holds the same shard —
    /// by construction serving workers lease only their own.
    pub fn lease(&self, shard: usize) -> WorkspaceLease<'_> {
        let idx = shard % self.shards.len();
        WorkspaceLease {
            guard: self.shards[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Total pool misses across all shards — the arena-wide analogue of
    /// [`Workspace::fresh_allocations`], constant across requests once
    /// every shard's pool is warm.
    pub fn fresh_allocations(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .fresh_allocations()
            })
            .sum()
    }

    /// Total buffers currently checked in across all shards.
    pub fn pooled(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).pooled())
            .sum()
    }
}

/// Validates that `out` has the expected shape for an `_into` kernel.
pub(crate) fn check_out_shape(
    op: &'static str,
    out: &DenseMatrix,
    rows: usize,
    cols: usize,
) -> Result<()> {
    if out.shape() != (rows, cols) {
        return Err(MatrixError::DimensionMismatch {
            op,
            lhs: (rows, cols),
            rhs: out.shape(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(5);
        assert_eq!(buf, vec![0.0; 5]);
        buf[0] = 3.0;
        ws.give(buf);
        let again = ws.take(4);
        assert_eq!(again, vec![0.0; 4]); // stale contents cleared
    }

    #[test]
    fn take_stale_keeps_old_cells_and_zeroes_only_the_tail() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(8);
        buf.fill(f64::NAN);
        buf.truncate(3);
        ws.give(buf);
        let stale = ws.take_stale(6);
        assert_eq!(ws.fresh_allocations(), 1);
        assert!(stale[..3].iter().all(|v| v.is_nan()));
        assert_eq!(stale[3..], [0.0; 3]);
        ws.give(stale);
        assert!(ws.take_stale(2).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn zero_length_takes_touch_nothing() {
        let mut ws = Workspace::new();
        assert!(ws.take(0).is_empty());
        assert!(ws.take_stale(0).is_empty());
        ws.reserve(&[0, 0]);
        assert_eq!((ws.fresh_allocations(), ws.pooled()), (0, 0));
        assert_eq!(ws.high_water_elems(), 0);
    }

    #[test]
    fn reserve_covers_every_narrower_take_without_accounting() {
        let mut ws = Workspace::new();
        let junk = ws.take(50);
        ws.give(junk);
        ws.reserve(&[40, 100, 7]);
        // The 50-cell buffer serves the 40; 100 and 7 are new.
        assert_eq!(ws.fresh_allocations(), 3);
        assert_eq!(ws.pooled(), 3);
        assert_eq!(
            ws.high_water_elems(),
            50,
            "a reservation checks nothing out"
        );
        ws.reserve(&[40, 100, 7]);
        assert_eq!(ws.fresh_allocations(), 3, "a second reservation is free");
        for (a, b, c) in [(40, 100, 7), (7, 40, 100), (1, 2, 3), (100, 7, 40)] {
            let bufs = [ws.take(a), ws.take_stale(b), ws.take(c)];
            assert_eq!(bufs.each_ref().map(Vec::len), [a, b, c]);
            bufs.into_iter().for_each(|buf| ws.give(buf));
        }
        assert_eq!(ws.fresh_allocations(), 3);
    }

    #[test]
    fn give_subtracts_what_take_added() {
        // A buffer given back shorter than it was taken (the stacked
        // rows of the factorized operators) must not leave its tail
        // counted as checked out.
        let mut ws = Workspace::new();
        for _ in 0..20 {
            let mut buf = ws.take(30);
            buf.truncate(10);
            let other = ws.take_stale(5);
            ws.give(buf);
            ws.give(other);
        }
        assert_eq!(ws.high_water_elems(), 35);
    }

    #[test]
    fn pool_hit_avoids_fresh_allocation() {
        let mut ws = Workspace::new();
        let buf = ws.take(100);
        assert_eq!(ws.fresh_allocations(), 1);
        ws.give(buf);
        let buf = ws.take(64); // fits in the pooled capacity
        assert_eq!(ws.fresh_allocations(), 1);
        ws.give(buf);
        let _big = ws.take(1000); // forced miss
        assert_eq!(ws.fresh_allocations(), 2);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let small = ws.take(10);
        let large = ws.take(1000);
        ws.give(small);
        ws.give(large);
        let buf = ws.take(8);
        assert!(buf.capacity() < 1000, "picked the 10-cap buffer");
        ws.give(buf);
        assert_eq!(ws.pooled(), 2);
    }

    #[test]
    fn matrix_roundtrip() {
        let mut ws = Workspace::new();
        let m = ws.take_matrix(3, 4);
        assert_eq!(m.shape(), (3, 4));
        ws.give_matrix(m);
        let m2 = ws.take_matrix(2, 6);
        assert_eq!(ws.fresh_allocations(), 1);
        assert_eq!(m2.shape(), (2, 6));
    }

    #[test]
    fn arena_shards_are_independent_pools() {
        let arena = WorkspaceArena::new(2);
        {
            let mut ws = arena.lease(0);
            let buf = ws.take(64);
            ws.give(buf);
        }
        assert_eq!(arena.fresh_allocations(), 1);
        {
            // Shard 1 has its own (empty) pool: this is a miss.
            let mut ws = arena.lease(1);
            let buf = ws.take(64);
            ws.give(buf);
        }
        assert_eq!(arena.fresh_allocations(), 2);
        {
            // Shard 0 again: warm pool, no new miss.
            let mut ws = arena.lease(0);
            let buf = ws.take(32);
            ws.give(buf);
        }
        assert_eq!(arena.fresh_allocations(), 2);
        assert_eq!(arena.pooled(), 2);
    }

    #[test]
    fn arena_lease_wraps_shard_index_and_shares_across_threads() {
        let arena = std::sync::Arc::new(WorkspaceArena::new(3));
        assert_eq!(arena.shards(), 3);
        std::thread::scope(|scope| {
            for worker in 0..6usize {
                let arena = std::sync::Arc::clone(&arena);
                scope.spawn(move || {
                    for _ in 0..10 {
                        let mut ws = arena.lease(worker);
                        let m = ws.take_matrix(4, 4);
                        ws.give_matrix(m);
                    }
                });
            }
        });
        // 6 workers wrap onto 3 shards; each shard allocated its one
        // 16-element buffer at most twice (two workers may race the
        // first take before either gives back).
        assert!(arena.fresh_allocations() <= 6);
        assert!(arena.pooled() >= 3);
    }

    #[test]
    fn arena_zero_shards_clamps_to_one() {
        let arena = WorkspaceArena::new(0);
        assert_eq!(arena.shards(), 1);
        let mut ws = arena.lease(7); // wraps onto the single shard
        let buf = ws.take(8);
        ws.give(buf);
    }

    #[test]
    fn steady_state_loop_stops_allocating() {
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let a = ws.take_matrix(7, 5);
            let b = ws.take_matrix(5, 1);
            ws.give_matrix(a);
            ws.give_matrix(b);
        }
        let after_warmup = ws.fresh_allocations();
        for _ in 0..100 {
            let a = ws.take_matrix(7, 5);
            let b = ws.take_matrix(5, 1);
            ws.give_matrix(a);
            ws.give_matrix(b);
        }
        assert_eq!(ws.fresh_allocations(), after_warmup);
    }
}
