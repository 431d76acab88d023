//! Matrix multiplication kernels.
//!
//! The factorized-learning rewrites of §IV replace one big multiplication
//! over the target table `T` with several smaller multiplications over the
//! source tables `Dₖ`, so multiplication dominates every benchmark in this
//! workspace.
//!
//! # Kernel architecture
//!
//! Each product picks its kernel from its layout, the width `n` of the
//! right operand and the FLOP count, nothing else:
//!
//! | product | `n = 1` | `n ≥ 2` |
//! |---|---|---|
//! | `A·B` | one [`dot`] per row | **column-stable panels** |
//! | `Aᵀ·B` | one [`axpy`] per row | [`gemm_driver`]: **thin** for `n ≤ NR` or under [`PACK_FLOP_THRESHOLD`] flops, else **packed** |
//! | `A·Bᵀ` | one [`dot`] per cell | one [`dot`] per cell for `n ≤ NR` or under the threshold, else the driver (**packed**) |
//!
//! ## The packed kernel
//!
//! * the innermost unit is an `MR × NR` register tile accumulated over a
//!   `KC`-long panel (`acc[r][c] += a[r] · b[c]`, fully unrolled over
//!   fixed-size arrays so LLVM keeps the tile in vector registers);
//! * operands are **packed** first — `A` into column-major `MR`-row
//!   panels, `B` into row-major `NR`-column panels — so the micro-kernel
//!   streams both operands contiguously regardless of the logical layout;
//! * macro loops walk `MC × KC` blocks of `A` and `KC × NC` panels of `B`
//!   (`jc → kb → ib` order), keeping the packed `A` block L2-resident and
//!   each packed `B` panel hot across all row blocks.
//!
//! Packing is *strided*: element `(i, j)` of a logical operand lives at
//! `buf[i · rs + j · cs]`, which lets the same kernel compute `Aᵀ·B`
//! (`rs = 1, cs = m`) and `A·Bᵀ` (`rs = 1, cs = k`) without ever
//! materializing a transpose.
//!
//! ## The thin kernel
//!
//! Every gradient in this workspace multiplies the table's transpose by
//! a handful of columns — one residual for the GLMs, `k` one-hot
//! classes, rank `r` — so the right operand is narrow while the left one
//! is the whole table. Packing copies the tall operand so that
//! `⌈n / NR⌉` column panels can reuse the copy; with `n ≤ NR` there is
//! one panel, nothing is reused, and the copy (a strided write of every
//! cell of `A`) is pure overhead. One panel is therefore the boundary:
//! measured on a 50 000 × 60 table, thin is two to three times faster
//! than packing at `n < 8`, no slower at `n = 8`, and slower at `n = 16`.
//! Below [`PACK_FLOP_THRESHOLD`] a product is too small to repay the
//! copy at any width, so it runs thin too, eight columns at a time.
//!
//! [`thin_gemm`] runs the register tiles on the operands where they lie:
//! two logical rows of `Aᵀ` — two adjacent columns of `A`, side by side
//! in every buffer row — against `W` columns of the row-major `B`, with
//! `W` covering `n` greedily by const-generic panels of 8 (as often as
//! they fit), 4, 2, 1. Two rows is the measured shape: 16 accumulator
//! lanes plus the `B` panel fill the 16 SSE registers of the default
//! x86-64 target, four rows spill. Depth is walked in the same `KC`
//! blocks, each tile's accumulators start from zero, sum
//! `A[l, i]·B[l, j]` in ascending `l` and are added to `out` in block
//! order — **the packed kernel's arithmetic, operation for operation**
//! (packing only moves cells, and its zero padding lands in accumulator
//! lanes that are never written back). A thin product is bit-identical
//! to [`packed_gemm`] on the same operands, NaN and ±∞ cells included;
//! the differential tests below hold it to that. It allocates nothing
//! and touches no thread-local. `A·Bᵀ` never reaches it: there both
//! operands are contiguous along the depth, so for `n ≤ NR`
//! `matmul_transpose_into` takes one [`dot`] per output cell, which is
//! already unpacked.
//!
//! ## Column-stable panels
//!
//! [`DenseMatrix::matmul_into`] computes column `j` of every `A·B`
//! exactly as the `n == 1` path computes it: one [`dot`] of row `i` of
//! `A` with column `j` of `B`. Serving relies on that — it coalesces
//! requests into the columns of one right operand and promises every
//! requester the bytes it would get alone — and so does everything else
//! built on `A·B`, since the factorized `T·X` inherits it (one LMM, not
//! two). `dot` fixes the order of its operations per cell — four lane
//! sums, lane `l mod 4` over the whole chunks of four in ascending `l`,
//! then a tail sum over the last `k mod 4` terms, each starting from
//! `+0` and adding `A[i, l]·B[l, j]`, then `s0 + s1 + s2 + s3 + tail`
//! from the left — but that order says nothing about which *cells* run
//! side by side. The panel kernel runs one output row `W` columns at a
//! time (`W` covering `n` greedily by const-generic panels of 8, 4, 2,
//! 1, as in the thin kernel) with `4 × W` lane accumulators and `W`
//! tails: step `l` multiplies `A[i, l]` by the `W` adjacent cells of row
//! `l` of the row-major `B`, where they lie, and adds each product into
//! its own column's lane. The SIMD runs across columns instead of along
//! the depth, so every cell sees `dot`'s operations in `dot`'s order and
//! no operation combines two columns: the result is the per-cell `dot`
//! bit for bit at every width (the differential test below holds it to
//! the old per-cell loop), and the width-1 product is the `dot` fast
//! path itself. No transposed copy of `B`, no scratch, no packing. One
//! caveat, shared with the thin kernel: where two NaNs of different
//! payload meet (a NaN input beside an `∞ − ∞` or `0·∞` in the same
//! cell), which payload survives is the compiler's choice of operand
//! order, so such a cell is a NaN either way but not always the same NaN.
//!
//! One kernel serves every `A·B` because it is also the fastest on
//! most shapes the system runs. A thin tile keeps `2 × W` accumulators,
//! so at `n = 4` it has 8 dependent chains against the panels' 16, and
//! packing copies a tall operand that nobody reuses at `k ≤ KC`.
//! Measured against the thin / packed driver they replaced (one kernel
//! thread, medians of 41 alternated on a 2-vCPU x86-64 box):
//! 50 000 × 60 · 60 × `n` at `n` = 4 / 8 / 16 went 2.55–2.57 /
//! 3.62–3.68 / 8.09–8.29 → 2.09–2.10 / 2.99–3.02 / 6.16–6.17 ms,
//! 2 000 × 200 · 200 × 16 1.01 → 0.78–0.81 ms, the 20 000 × 3 serve base
//! at 16 columns 0.36 → 0.15 ms, and GNMF's 4 × 4 · 4 × 60 ties. They
//! lose in two places. A depth of 2–4 at `n ≤ 4` takes 1.2–1.3× the
//! thin tiles' time ("Narrow operands"), a fraction of a millisecond
//! per product on a star's base. A square 512³ `A·B`, deep *and* wide,
//! takes about twice the packed kernel's time (`BENCH_kernels.json`,
//! `matmul_512_panels`), and no workload multiplies one.
//!
//! ## Narrow operands
//!
//! The sources the factorized rewrites run on are tall and narrow — a
//! star's 50 000 × 4 base, GNMF's `n × r` factor — and there the short
//! side of a product fits the register file. The generic loops then cost
//! more than their arithmetic: [`dot`] and [`axpy`] take a runtime
//! length, so every row pays a loop set-up and a remainder test, and the
//! `n == 1` `Aᵀ·x` path loads and stores its whole output once per row, a
//! store-forwarding chain through memory. So for a depth or width
//! `k ≤ NR` each of these loops has a const-generic instance, picked by
//! one `match` on `k` (`narrow!`):
//!
//! * `A·v` — `dot_k::<K>` per row, which is [`dot`]'s expression tree at
//!   a constant length: lane `l mod 4` over the whole chunks of four,
//!   then the tail, then `s0 + s1 + s2 + s3 + tail`, each loop unrolled;
//! * `A·B` at depth `K` — the panels' own per-row body, walked over
//!   `A`'s rows as `[f64; K]` arrays, so that every panel's depth loop
//!   has a constant trip count: one arithmetic body, two instances;
//! * `Aᵀ·x` — the [`axpy`] of every row with a non-zero coefficient,
//!   ascending, into a `[f64; K]` that stays in registers across the rows;
//! * the gram — per row, ascending, the [`axpy`] of each non-zero cell
//!   `i` into row `i` of the upper triangle, the whole triangle in a
//!   `[[f64; C]; C]`, then the usual mirror.
//!
//! An instance applies the operations of the loop it replaces to the
//! same operands in the same order — a constant trip count moves the
//! loop counter, not what is added to what — so it is that loop bit for
//! bit by construction, with no knob and no threshold to tune; the
//! differential tests below hold each one to the loop it replaced at
//! every `k` from 1 to `NR + 1`, NaN, ±∞, −0 and subnormal cells
//! included. `dot`, `axpy` and the fused pass keep their source, and
//! `k > NR` keeps the per-row loops and the generic panels. Measured on
//! 50 000 rows (one kernel thread, medians alternated with the loops
//! they replace on a 2-vCPU x86-64 box): `A·v` at `k` = 2 / 4 / 8 went
//! 0.07 / 0.16 / 0.25 → 0.03 / 0.08 / 0.16 ms, `Aᵀ·x` 0.23 / 0.21 /
//! 0.29 → 0.05 / 0.06 / 0.15 ms, the gram at `k = 4` 1.38 → 0.20 ms, and
//! the generic panels at depth 4 and `n` = 2 / 4 / 8 0.21–0.23 /
//! 0.27–0.29 / 0.40–0.41 → 0.16 / 0.20–0.21 / 0.30–0.31 ms, which is
//! 1.2–1.3× the thin tiles the panels replaced at `n ≤ 4` (0.14 / 0.16)
//! and level with them at 8 (0.29).
//!
//! ## Threads and scratch
//!
//! All four operators (`matmul`, `transpose_matmul`, `matmul_transpose`,
//! `gram`) parallelize over disjoint output-row chunks via
//! [`crate::par::par_row_chunks`]. Pack buffers are thread-local: on the
//! serial path (everything below the parallel threshold) repeated calls
//! reuse them and the steady-state hot path performs no heap allocation
//! (see [`crate::Workspace`] for the scratch-buffer contract). Parallel
//! workers are freshly spawned scoped threads, so each packs into its
//! own buffers for the duration of the call (~1.2 MB per worker) —
//! bounded, per-call scratch that is part of the spawn cost, outside
//! the workspace contract.
//!
//! # The fused vector path
//!
//! A gradient step of a linear model is `r = link(X·θ)` followed by
//! `g = Xᵀ·r`: two matrix–vector products that each stream all of `X`.
//! Both have an `n == 1` fast path here — `matmul_into` takes one
//! [`dot`] per row, `transpose_matmul_into` one [`axpy`] per row with a
//! non-zero coefficient, or their narrow instances, which are the same
//! bits — and both walk the rows in ascending order.
//! One private body, `fused_pass::<B>`, runs them back to back while the
//! rows are in cache, so `X` is read once: for each block of `B` rows,
//! ascending, the `B` `dot`s into `resid`, then `link(first_row, &mut
//! resid[block])`, which turns the block's linear predictors into
//! residuals in place, then the `B` `axpy`s, skipping a zero residual.
//! It is the same `dot`, the same `axpy` and the same skip, applied to
//! the same operands in the same order: `g[j]` receives `r[0]·X[0,j]`,
//! then `r[1]·X[1,j]`, … exactly as in the two-product form, where
//! every `r[l]` was merely computed earlier — and a link that folds a
//! loss over its block continues one left fold across the pass. The
//! outputs are therefore bit-identical to `matmul_into → link →
//! transpose_matmul_into` by construction (NaN and ±∞ cells included),
//! not within a tolerance, for every `B`. Serial, like the two paths it
//! fuses.
//!
//! `B` is a constant of the entry point, chosen by how the caller's link
//! is best written, not a knob (numbers from ISSUE 21's prototype, best
//! of 40):
//!
//! * [`DenseMatrix::gradient_pass_into`] is `B = 1` with a per-row link
//!   `FnMut(usize, f64) -> f64` — FedAvg's affine link. A FedAvg round
//!   is fastest per row: every `B ≥ 4`, and a "woven" variant with the
//!   `axpy` of row `l` beside the `dot` of row `l + B`, read 5–9 % worse
//!   on `fedavg_faulty` end to end (466 → 554, 464 → 525, 439 → 534 ms),
//!   while `B = 1` matched the old per-row loop (302–315 against
//!   312–317 µs per 20 000 × 32 silo). The body walks exact blocks
//!   (`chunks_exact_mut`) so that at `B = 1` the inner loops vanish; a
//!   first `chunks_mut` walk read up to 1.5× the old loop's time at
//!   50 000 × 60 in a scratch harness.
//! * [`DenseMatrix::gradient_pass_blocks_into`] is `B = 8` with a block
//!   link `FnMut(usize, &mut [f64])` — the GLM epochs behind `LinOps`.
//!   A link that calls `exp` / `ln` between a row's `dot` and its `axpy`
//!   serializes the pass: the logistic link alone costs 531–539 µs per
//!   50 000 rows called per row against 395–407 µs as split loops over
//!   a block (least squares: 107 against 41). With split loops over 8
//!   rows (4, 8, 16, 32, 64 and 256 swept), an epoch at 50 000 × 60
//!   read 1535–1857 → 1224–1389 µs for least squares and 1858–2187 →
//!   1523–1793 µs for logistic, two products → fused; a per-row link
//!   *lost* for logistic (2029–3528 µs).
//!
//! # Class sums
//!
//! A Lloyd update needs `Tᵀ·A` for the one-hot assignment matrix `A`: an
//! 8-wide product of which seven multiply-adds in eight are by zero.
//! [`DenseMatrix::class_sums_into`] adds each row into its class's
//! accumulator instead — one pass, a contiguous `d`-wide add per row.
//! It keeps the product's bits by summing in the order of the kernel
//! the product would run: both of the driver's kernels, thin and packed,
//! start `KC`-row partials from zero and add them to the total in block
//! order, so for `k ≥ 2` the class sums do the same; `k = 1`, the
//! `n == 1` axpy path, is one running sum. The dropped terms are
//! `x·0 = ±0`, and adding `±0` to an accumulator that started at `+0`
//! changes nothing — such an accumulator can never hold `−0`, since
//! `+0 + −0 = +0` and `x + −x =
//! +0`. That holds for finite `x` only: a ±∞ or NaN cell makes `x·0` a
//! NaN, so the product spreads it to all `k` sums of its column, while
//! the class sums keep it in its own class — the one documented
//! difference. On the 50 000 × 60 table at `k = 8` the update reads
//! 6.45 → 1.48 ms (`BENCH_kernels.json`, median of 15), a K-means
//! iteration 12.1–12.7 → 7.4–7.6 ms (traced `ml.kmeans_iter_ms`).

use crate::par::{available_threads, par_row_chunks, PAR_WORK_THRESHOLD};
use crate::workspace::check_out_shape;
use crate::{DenseMatrix, MatrixError, Result};
use std::cell::RefCell;

/// Micro-tile rows (register blocking).
const MR: usize = 4;
/// Micro-tile columns (register blocking; two 4-lane AVX2 vectors).
const NR: usize = 8;
/// Rows of `A` packed per macro block (L2 blocking).
const MC: usize = 64;
/// Depth of one packed panel (L1/L2 blocking).
const KC: usize = 256;
/// Columns of `B` packed per macro panel (L3 blocking).
const NC: usize = 512;

/// Minimum FLOP count (2·m·n·k) before the packed path is considered;
/// below this the thin kernel runs at any width, because packing is
/// O(m·k + k·n).
const PACK_FLOP_THRESHOLD: usize = 65_536;

/// Rows per link call of [`DenseMatrix::gradient_pass_blocks_into`]:
/// GLM links call `exp` / `ln`, which run fastest in short split loops
/// (module docs, "The fused vector path").
const LINK_BLOCK: usize = 8;

/// Calls `f::<K>(args…)` for the `K` equal to `k`, which the caller has
/// checked to be in `1..=NR`: the one step from a runtime depth or width
/// to its const-generic instance (module docs, "Narrow operands").
/// Further const arguments follow `K`: `narrow!(k, f::<W>(…))` calls
/// `f::<K, W>(…)`.
macro_rules! narrow {
    ($k:expr, $f:ident$(::<$($g:tt),+>)?($($arg:expr),* $(,)?)) => {
        match $k {
            1 => $f::<1 $($(, $g)+)?>($($arg),*),
            2 => $f::<2 $($(, $g)+)?>($($arg),*),
            3 => $f::<3 $($(, $g)+)?>($($arg),*),
            4 => $f::<4 $($(, $g)+)?>($($arg),*),
            5 => $f::<5 $($(, $g)+)?>($($arg),*),
            6 => $f::<6 $($(, $g)+)?>($($arg),*),
            7 => $f::<7 $($(, $g)+)?>($($arg),*),
            8 => $f::<8 $($(, $g)+)?>($($arg),*),
            _ => unreachable!("narrow instance outside 1..=NR"),
        }
    };
}

/// Element `(i, j)` of a logical operand lives at `buf[i·rs + j·cs]`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    rs: usize,
    cs: usize,
}

impl Layout {
    #[inline]
    fn at(self, i: usize, j: usize) -> usize {
        i * self.rs + j * self.cs
    }
}

thread_local! {
    /// Per-thread packing scratch (`A` panels, `B` panels). Thread-local
    /// so parallel workers never contend; repeated *serial* calls reuse
    /// the buffers without allocating, while each scoped parallel worker
    /// packs into its own per-call buffers (see the module docs).
    static PACK_BUFS: RefCell<(Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

impl DenseMatrix {
    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    /// Returns [`MatrixError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows(), rhs.cols());
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * rhs` written into the caller-owned `out`
    /// (`m × n`, fully overwritten). Never allocates for the output;
    /// see [`crate::Workspace`] for obtaining reusable buffers.
    ///
    /// **Column-stable**: column `j` of the result is produced by exactly
    /// the same floating-point operations as the product with column `j`
    /// alone — one `dot` of a row of `self` with that column — no
    /// matter how many other columns share the call. Width 1 is that
    /// `dot`; wider products run register panels whose SIMD crosses the
    /// columns instead of the depth, so no cell's arithmetic can see
    /// another column (module docs, "Column-stable panels", which also
    /// give the one NaN-payload caveat). Request batching in
    /// `amalur-serve` relies on this: predictions coalesced column-wise
    /// into one product are bit-identical to the same predictions served
    /// one at a time. No scratch, no packing; row chunks parallelize.
    ///
    /// # Errors
    /// Dimension mismatch of the operands or of `out`.
    pub fn matmul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols() != rhs.rows() {
            return Err(MatrixError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k) = self.shape();
        let n = rhs.cols();
        check_out_shape("matmul_into", out, m, n)?;
        let (a, b, o) = (self.as_slice(), rhs.as_slice(), out.as_mut_slice());
        // Matrix–vector fast path: one dot product per row — of which
        // `row_iter` yields none for an `m × 0` matrix, whose product is
        // `m` zeros all the same.
        if n == 1 {
            if k == 0 {
                o.fill(0.0);
            } else if k <= NR {
                narrow!(k, matvec_narrow(a, b, o));
            } else {
                for (o, row) in o.iter_mut().zip(self.row_iter()) {
                    *o = dot(row, b);
                }
            }
            return Ok(());
        }
        if n == 0 {
            return Ok(());
        }
        crate::metrics::GEMM_COLSTABLE_DISPATCHES.inc();
        if k == 0 {
            // `dot` of two empty slices: `0 + 0 + 0 + 0 + 0`.
            o.fill(0.0);
            return Ok(());
        }
        let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
        par_row_chunks(o, n, flops, |i0, chunk| {
            panel_rows(&a[i0 * k..], b, chunk, k, n);
        });
        Ok(())
    }

    /// `selfᵀ * rhs` without materializing the transpose.
    ///
    /// Used heavily by the Gram-matrix rewrite (`TᵀT`) and gradient
    /// computations (`Xᵀr`).
    pub fn transpose_matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.cols(), rhs.cols());
        self.transpose_matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// `selfᵀ * rhs` written into the caller-owned `out`
    /// (`self.cols() × rhs.cols()`, fully overwritten).
    ///
    /// # Errors
    /// Dimension mismatch of the operands or of `out`.
    pub fn transpose_matmul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.rows() != rhs.rows() {
            return Err(MatrixError::DimensionMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (k, m) = self.shape(); // output is m×n
        let n = rhs.cols();
        check_out_shape("transpose_matmul_into", out, m, n)?;
        let a_slice = self.as_slice();
        let o = out.as_mut_slice();
        // Vector fast path: out[i] = Σ_l A[l,i]·x[l], streamed over rows of
        // A so the access pattern stays contiguous.
        if n == 1 {
            let x = rhs.as_slice();
            if (1..=NR).contains(&m) {
                narrow!(m, transpose_matvec_narrow(a_slice, x, o));
                return Ok(());
            }
            o.fill(0.0);
            for (l, &xl) in x.iter().enumerate() {
                if xl == 0.0 {
                    continue;
                }
                axpy(xl, &a_slice[l * m..(l + 1) * m], o);
            }
            return Ok(());
        }
        let a = Operand {
            buf: a_slice,
            layout: Layout { rs: 1, cs: m },
        };
        let b = Operand {
            buf: rhs.as_slice(),
            layout: Layout { rs: n, cs: 1 },
        };
        gemm_driver(a, b, o, m, k, n);
        Ok(())
    }

    /// Residual and gradient of a linear model in **one pass** over
    /// `self`: for each row `l` in ascending order,
    /// `resid[l] = link(l, self[l,:]·theta)` and then
    /// `grad += resid[l] · self[l,:]` (skipped when `resid[l] == 0.0`).
    /// `link` turns a row's linear predictor into its residual — e.g.
    /// `|l, z| z - y[l]` for least squares — and, being `FnMut`, may
    /// fold a loss over the rows on the way.
    ///
    /// `resid` (`rows × 1`) and `grad` (`cols × 1`) are fully
    /// overwritten and bit-identical to `matmul_into(theta)`, `link`
    /// applied row by row, `transpose_matmul_into(resid)` — the two
    /// vector fast paths this fuses (see the module docs) — while
    /// reading `self` once instead of twice. Serial; never allocates.
    /// The per-row instance of the fused pass, for cheap (affine) links;
    /// see [`Self::gradient_pass_blocks_into`] for links that call
    /// `exp` / `ln`.
    ///
    /// # Errors
    /// Dimension mismatch of `theta` (`cols × 1`) or of either output.
    pub fn gradient_pass_into(
        &self,
        theta: &DenseMatrix,
        mut link: impl FnMut(usize, f64) -> f64,
        resid: &mut DenseMatrix,
        grad: &mut DenseMatrix,
    ) -> Result<()> {
        self.fused_pass::<1>(theta, |l, r| r[0] = link(l, r[0]), resid, grad)
    }

    /// [`Self::gradient_pass_into`] with a link that takes a **block**
    /// of rows: for each block of 8 rows in ascending order, the rows'
    /// linear predictors are written to `resid`,
    /// `link(first_row, block)` turns them into residuals in place, and
    /// their `axpy`s follow. The link sees every row exactly once, in
    /// ascending blocks (the last one may be shorter), so a loss it folds
    /// over the block continues one left fold across the pass.
    ///
    /// Same outputs, bit for bit, as `matmul_into(theta)` → `link` →
    /// `transpose_matmul_into(resid)`. Serial; never allocates.
    ///
    /// # Errors
    /// Dimension mismatch of `theta` (`cols × 1`) or of either output.
    pub fn gradient_pass_blocks_into(
        &self,
        theta: &DenseMatrix,
        link: impl FnMut(usize, &mut [f64]),
        resid: &mut DenseMatrix,
        grad: &mut DenseMatrix,
    ) -> Result<()> {
        self.fused_pass::<LINK_BLOCK>(theta, link, resid, grad)
    }

    /// The one fused-pass body behind both entries (module docs, "The
    /// fused vector path"): per block of `B` rows, ascending, the `B`
    /// `dot`s into `resid`, `link(first_row, &mut resid[block])`, then
    /// the `B` `axpy`s, skipping a zero residual.
    fn fused_pass<const B: usize>(
        &self,
        theta: &DenseMatrix,
        mut link: impl FnMut(usize, &mut [f64]),
        resid: &mut DenseMatrix,
        grad: &mut DenseMatrix,
    ) -> Result<()> {
        let (m, k) = self.shape();
        if theta.shape() != (k, 1) {
            return Err(MatrixError::DimensionMismatch {
                op: "gradient_pass",
                lhs: self.shape(),
                rhs: theta.shape(),
            });
        }
        check_out_shape("gradient_pass_into", resid, m, 1)?;
        check_out_shape("gradient_pass_into", grad, k, 1)?;
        crate::metrics::GRADIENT_PASS_CALLS.inc();
        crate::metrics::GRADIENT_PASS_ROWS.add(m as u64);
        let a_slice = self.as_slice();
        let v = theta.as_slice();
        let g = grad.as_mut_slice();
        g.fill(0.0);
        // Exact blocks, so each instance's inner loops have a constant
        // trip count, then the short last block.
        let mut blocks = resid.as_mut_slice().chunks_exact_mut(B);
        for (b, block) in blocks.by_ref().enumerate() {
            fused_block(a_slice, k, v, b * B, block, &mut link, g);
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            fused_block(a_slice, k, v, m - tail.len(), tail, &mut link, g);
        }
        Ok(())
    }

    /// Per-class column sums: `out[j, c] = Σ_{l : class[l] = c} self[l, j]`
    /// (`cols × k` with `k = out.cols()`, fully overwritten) — the
    /// product `selfᵀ·A` with `A` the `rows × k` one-hot matrix of
    /// `class`, computed by adding each row into its class's accumulator
    /// instead of multiplying it by `k − 1` zeros.
    ///
    /// On finite cells the result is bit-identical to
    /// `transpose_matmul_into(A)`: it sums in the order of the kernel that
    /// product would run (module docs, "Class sums"). **Degradation:** a
    /// ±∞ or NaN cell reaches only its own class's sum, where the product
    /// spreads NaN to all `k` classes through `∞·0` and `NaN·0`. Serial;
    /// two `k × cols` scratch buffers come from `ws` and go back before
    /// the call returns.
    ///
    /// # Errors
    /// `class.len() != rows`, `out` not `cols × k`, or a class `≥ k`.
    pub fn class_sums_into(
        &self,
        class: &[usize],
        out: &mut DenseMatrix,
        ws: &mut crate::Workspace,
    ) -> Result<()> {
        let (m, d) = self.shape();
        let k = out.cols();
        if class.len() != m {
            return Err(MatrixError::DimensionMismatch {
                op: "class_sums",
                lhs: self.shape(),
                rhs: (class.len(), 1),
            });
        }
        check_out_shape("class_sums_into", out, d, k)?;
        if let Some((l, &c)) = class.iter().enumerate().find(|&(_, &c)| c >= k) {
            return Err(MatrixError::IndexOutOfBounds {
                index: (l, c),
                shape: (m, k),
            });
        }
        crate::metrics::CLASS_SUMS_CALLS.inc();
        crate::metrics::CLASS_SUMS_ROWS.add(m as u64);
        let a_slice = self.as_slice();
        // `add_rows` folds rows into class-major accumulators
        // (`acc[c·d + j]`), so a row lands in one contiguous run.
        let add_rows = |rows: std::ops::Range<usize>, acc: &mut [f64]| {
            for l in rows {
                let c = class[l];
                let row = &a_slice[l * d..(l + 1) * d];
                for (s, &v) in acc[c * d..(c + 1) * d].iter_mut().zip(row) {
                    *s += v;
                }
            }
        };
        let mut total = ws.take(k * d);
        if k > 1 {
            // Thin or packed: `KC`-row partials from zero, added in
            // block order.
            let mut part = ws.take(k * d);
            for kb in (0..m).step_by(KC) {
                part.fill(0.0);
                add_rows(kb..(kb + KC).min(m), &mut part);
                for (t, &p) in total.iter_mut().zip(&part) {
                    *t += p;
                }
            }
            ws.give(part);
        } else {
            // The `n == 1` axpy path: one running sum.
            add_rows(0..m, &mut total);
        }
        let o = out.as_mut_slice();
        for (c, sums) in total.chunks_exact(d.max(1)).enumerate() {
            for (j, &s) in sums.iter().enumerate() {
                o[j * k + c] = s;
            }
        }
        ws.give(total);
        Ok(())
    }

    /// `self * rhsᵀ` without materializing the transpose.
    pub fn matmul_transpose(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows(), rhs.rows());
        self.matmul_transpose_into(rhs, &mut out)?;
        Ok(out)
    }

    /// `self * rhsᵀ` written into the caller-owned `out`
    /// (`self.rows() × rhs.rows()`, fully overwritten).
    ///
    /// # Errors
    /// Dimension mismatch of the operands or of `out`.
    pub fn matmul_transpose_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols() != rhs.cols() {
            return Err(MatrixError::DimensionMismatch {
                op: "matmul_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let m = self.rows();
        let n = rhs.rows();
        let k = self.cols();
        check_out_shape("matmul_transpose_into", out, m, n)?;
        let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
        let a_slice = self.as_slice();
        let b_slice = rhs.as_slice();
        let o = out.as_mut_slice();
        if n > NR && flops >= PACK_FLOP_THRESHOLD {
            let a = Operand {
                buf: a_slice,
                layout: Layout { rs: k, cs: 1 },
            };
            let b = Operand {
                buf: b_slice,
                layout: Layout { rs: 1, cs: k },
            };
            gemm_driver(a, b, o, m, k, n);
            return Ok(());
        }
        // Small-problem path: both operands are row-major over `k`, so
        // each output cell is one contiguous dot product.
        par_row_chunks(o, n.max(1), flops, |i0, chunk| {
            for (i, orow) in chunk.chunks_exact_mut(n.max(1)).enumerate() {
                let arow = &a_slice[(i0 + i) * k..(i0 + i + 1) * k];
                for (j, oval) in orow.iter_mut().enumerate() {
                    *oval = dot(arow, &b_slice[j * k..(j + 1) * k]);
                }
            }
        });
        Ok(())
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols() != v.len() {
            return Err(MatrixError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        if v.is_empty() {
            // `row_iter` has no rows to offer; see `matmul_into`.
            return Ok(vec![0.0; self.rows()]);
        }
        Ok(self.row_iter().map(|row| dot(row, v)).collect())
    }

    /// Gram matrix `selfᵀ * self`, exploiting symmetry: only the upper
    /// triangle is accumulated (row-parallel over output rows), then
    /// mirrored.
    pub fn gram(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols(), self.cols());
        self.gram_into_unchecked(&mut out);
        out
    }

    /// [`Self::gram`] written into the caller-owned `out`
    /// (`cols × cols`, fully overwritten).
    ///
    /// # Errors
    /// Shape mismatch of `out`.
    pub fn gram_into(&self, out: &mut DenseMatrix) -> Result<()> {
        let c = self.cols();
        check_out_shape("gram_into", out, c, c)?;
        self.gram_into_unchecked(out);
        Ok(())
    }

    /// [`Self::gram_into`] without the output-shape validation — for
    /// internal callers that just allocated `out` with the right shape.
    fn gram_into_unchecked(&self, out: &mut DenseMatrix) {
        let (r, c) = self.shape();
        let a = self.as_slice();
        let o = out.as_mut_slice();
        if (1..=NR).contains(&c) {
            narrow!(c, gram_narrow(a, o));
        } else {
            // Work estimate: half the full product thanks to symmetry.
            let flops = r.saturating_mul(c).saturating_mul(c);
            par_row_chunks(o, c.max(1), flops, |c0, chunk| {
                chunk.fill(0.0);
                let cols_here = chunk.len() / c.max(1);
                for l in 0..r {
                    let row = &a[l * c..(l + 1) * c];
                    for i in c0..c0 + cols_here {
                        let v = row[i];
                        if v == 0.0 {
                            continue;
                        }
                        let orow = &mut chunk[(i - c0) * c + i..(i - c0 + 1) * c];
                        axpy(v, &row[i..], orow);
                    }
                }
            });
        }
        // Mirror the upper triangle into the lower one.
        for i in 0..c {
            for j in 0..i {
                o[i * c + j] = o[j * c + i];
            }
        }
    }
}

/// A logical GEMM operand: a flat buffer plus the strides mapping
/// logical `(i, j)` coordinates into it.
#[derive(Clone, Copy)]
struct Operand<'a> {
    buf: &'a [f64],
    layout: Layout,
}

/// One of the two kernels behind [`gemm_driver`]: `out += A·B` over
/// `rows` output rows starting at logical row `row0`, `out` pre-zeroed.
type Kernel = fn(Operand<'_>, Operand<'_>, &mut [f64], usize, usize, usize, usize);

/// The kernel [`gemm_driver`] runs, chosen from `n` and the FLOP count
/// alone: thin for one register panel or a product too small to repay
/// packing, packed otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GemmPath {
    Thin,
    Packed,
}

impl GemmPath {
    fn of(n: usize, flops: usize) -> Self {
        if n <= NR || flops < PACK_FLOP_THRESHOLD {
            GemmPath::Thin
        } else {
            GemmPath::Packed
        }
    }
}

/// Computes `out = Aᵀ·B` or `A·Bᵀ` (`out` fully overwritten), choosing
/// the kernel from `n` and the FLOP count alone (see the module docs)
/// and splitting output rows across threads when the problem is large
/// enough.
fn gemm_driver(a: Operand<'_>, b: Operand<'_>, out: &mut [f64], m: usize, k: usize, n: usize) {
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    let (kernel, dispatches): (Kernel, _) = match GemmPath::of(n, flops) {
        GemmPath::Thin => (thin_gemm, &crate::metrics::GEMM_THIN_DISPATCHES),
        GemmPath::Packed => (packed_gemm, &crate::metrics::GEMM_PACKED_DISPATCHES),
    };
    dispatches.inc();
    par_row_chunks(out, n, flops, |row0, chunk| {
        chunk.fill(0.0);
        kernel(a, b, chunk, row0, chunk.len() / n, k, n);
    });
}

/// Thin kernel (`B` row-major): register tiles straight off the
/// operands, nothing packed (see the module docs). Two logical rows of
/// `A` per tile — an odd last row is paired with itself and its second
/// accumulator row dropped — against the `8 / 4 / 2 / 1`-wide panels
/// that cover `n` greedily.
fn thin_gemm(
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f64],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    assert!(
        b.layout.rs == n && b.layout.cs == 1,
        "thin kernel: B must be row-major"
    );
    let step = a.layout.cs;
    for kb in (0..k).step_by(KC) {
        let kmax = (kb + KC).min(k);
        let b_block = &b.buf[kb * n..kmax * n];
        for i in (0..rows).step_by(2) {
            let tile_rows = 2.min(rows - i);
            let x0 = &a.buf[a.layout.at(row0 + i, kb)..];
            let x1 = &a.buf[a.layout.at(row0 + i + tile_rows - 1, kb)..];
            let orows = &mut out[i * n..(i + tile_rows) * n];
            let mut j0 = 0;
            while n - j0 >= 8 {
                thin_tile::<8>(x0, x1, step, b_block, n, j0, orows);
                j0 += 8;
            }
            if n - j0 >= 4 {
                thin_tile::<4>(x0, x1, step, b_block, n, j0, orows);
                j0 += 4;
            }
            if n - j0 >= 2 {
                thin_tile::<2>(x0, x1, step, b_block, n, j0, orows);
                j0 += 2;
            }
            if n - j0 >= 1 {
                thin_tile::<1>(x0, x1, step, b_block, n, j0, orows);
            }
        }
    }
}

/// One `2 × W` register tile over one depth block: `acc[r][c] = Σ_l
/// A[r, l]·B[l, j0 + c]` from zero in ascending `l`, then `out += acc`
/// — [`micro_kernel`] and its write-back on unpacked operands. `x0` /
/// `x1` start at the two rows' first element of the block, consecutive
/// depth steps `step` apart; `b_block` bounds the depth.
#[inline(always)]
fn thin_tile<const W: usize>(
    x0: &[f64],
    x1: &[f64],
    step: usize,
    b_block: &[f64],
    n: usize,
    j0: usize,
    out: &mut [f64],
) {
    let mut acc = [[0.0f64; W]; 2];
    let lhs = x0.iter().step_by(step).zip(x1.iter().step_by(step));
    for ((&a0, &a1), brow) in lhs.zip(b_block.chunks_exact(n)) {
        let bl = &brow[j0..j0 + W];
        for c in 0..W {
            acc[0][c] += a0 * bl[c];
            acc[1][c] += a1 * bl[c];
        }
    }
    for (orow, acc_row) in out.chunks_exact_mut(n).zip(&acc) {
        for (o, &v) in orow[j0..j0 + W].iter_mut().zip(acc_row) {
            *o += v;
        }
    }
}

/// `out = A·B` by the column-stable panels, for the rows of `out`: `a`
/// starts at their first row of the row-major `A` (`k ≥ 1` columns),
/// `b` is the row-major `B` (`n` columns). A depth `k ≤ NR` runs the
/// same rows at the constant depth (module docs, "Narrow operands").
fn panel_rows(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    if k <= NR {
        narrow!(k, panel_rows_k(a, b, out, n));
    } else {
        for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            panel_row(arow, b, n, orow);
        }
    }
}

/// [`panel_rows`] at the constant depth `K`.
fn panel_rows_k<const K: usize>(a: &[f64], b: &[f64], out: &mut [f64], n: usize) {
    let (rows, _) = a.as_chunks::<K>();
    for (arow, orow) in rows.iter().zip(out.chunks_exact_mut(n)) {
        panel_row(arow, b, n, orow);
    }
}

/// One output row of the column-stable product: panels of 8, 4, 2 and
/// 1 columns covering `n` greedily.
#[inline(always)]
fn panel_row(arow: &[f64], b: &[f64], n: usize, out: &mut [f64]) {
    let mut j0 = 0;
    while n - j0 >= 8 {
        colstable_panel::<8>(arow, b, n, j0, out);
        j0 += 8;
    }
    if n - j0 >= 4 {
        colstable_panel::<4>(arow, b, n, j0, out);
        j0 += 4;
    }
    if n - j0 >= 2 {
        colstable_panel::<2>(arow, b, n, j0, out);
        j0 += 2;
    }
    if n - j0 >= 1 {
        colstable_panel::<1>(arow, b, n, j0, out);
    }
}

/// Columns `j0..j0 + W` of one output row of the column-stable product,
/// each cell by [`dot`]'s operations in [`dot`]'s order (module docs,
/// "Column-stable panels"): lane `l mod 4` over the whole chunks of four,
/// then the tail, then `s0 + s1 + s2 + s3 + tail`. `arow` is the row of
/// `A`; `b` is the row-major `B` (`n` columns), read where it lies.
#[inline(always)]
fn colstable_panel<const W: usize>(arow: &[f64], b: &[f64], n: usize, j0: usize, out: &mut [f64]) {
    let mut lanes = [[0.0f64; W]; 4];
    let mut tail = [0.0f64; W];
    let (a4, a_rest) = arow.as_chunks::<4>();
    let brow = |l: usize| &b[l * n + j0..][..W];
    for (i, a) in a4.iter().enumerate() {
        for (lane, (acc, &al)) in lanes.iter_mut().zip(a).enumerate() {
            let bl = brow(4 * i + lane);
            for c in 0..W {
                acc[c] += al * bl[c];
            }
        }
    }
    for (t, &al) in a_rest.iter().enumerate() {
        let bl = brow(4 * a4.len() + t);
        for c in 0..W {
            tail[c] += al * bl[c];
        }
    }
    for (c, o) in out[j0..j0 + W].iter_mut().enumerate() {
        *o = lanes[0][c] + lanes[1][c] + lanes[2][c] + lanes[3][c] + tail[c];
    }
}

/// Packed macro-kernel: `jc → kb → ib` blocking with `MR × NR`
/// register tiles (see the module docs).
fn packed_gemm(
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f64],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    PACK_BUFS.with(|bufs| {
        let (pack_a, pack_b) = &mut *bufs.borrow_mut();
        pack_a.resize(MC.div_ceil(MR) * MR * KC, 0.0);
        pack_b.resize(NC.div_ceil(NR) * NR * KC, 0.0);
        for jc in (0..n).step_by(NC) {
            let ncb = (jc + NC).min(n) - jc;
            let n_panels = ncb.div_ceil(NR);
            for kb in (0..k).step_by(KC) {
                let kcb = (kb + KC).min(k) - kb;
                pack_b_panels(b, kb, kcb, jc, ncb, pack_b);
                for ib in (0..rows).step_by(MC) {
                    let mcb = (ib + MC).min(rows) - ib;
                    let m_panels = mcb.div_ceil(MR);
                    pack_a_panels(a, row0 + ib, mcb, kb, kcb, pack_a);
                    for p in 0..m_panels {
                        let pa = &pack_a[p * MR * kcb..(p + 1) * MR * kcb];
                        for q in 0..n_panels {
                            let pb = &pack_b[q * NR * kcb..(q + 1) * NR * kcb];
                            let mut acc = [[0.0f64; NR]; MR];
                            micro_kernel(pa, pb, &mut acc);
                            // Write the valid part of the tile back.
                            let tile_rows = MR.min(mcb - p * MR);
                            let tile_cols = NR.min(ncb - q * NR);
                            for (r, acc_row) in acc.iter().enumerate().take(tile_rows) {
                                let orow_start = (ib + p * MR + r) * n + jc + q * NR;
                                let orow = &mut out[orow_start..orow_start + tile_cols];
                                for (o, &v) in orow.iter_mut().zip(acc_row.iter()) {
                                    *o += v;
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Packs `mc` logical rows × `kc` depth of `A` into column-major
/// `MR`-row panels (`buf[p·MR·kc + kk·MR + r]`), zero-padding the tail
/// panel so the micro-kernel never branches on edges.
fn pack_a_panels(a: Operand<'_>, i0: usize, mc: usize, k0: usize, kc: usize, buf: &mut [f64]) {
    for p in 0..mc.div_ceil(MR) {
        let panel = &mut buf[p * MR * kc..(p + 1) * MR * kc];
        let rows_here = MR.min(mc - p * MR);
        for (kk, chunk) in panel.chunks_exact_mut(MR).enumerate() {
            for (r, slot) in chunk.iter_mut().enumerate() {
                *slot = if r < rows_here {
                    a.buf[a.layout.at(i0 + p * MR + r, k0 + kk)]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs `kc` depth × `nc` logical columns of `B` into row-major
/// `NR`-column panels (`buf[q·NR·kc + kk·NR + c]`), zero-padded.
fn pack_b_panels(b: Operand<'_>, k0: usize, kc: usize, j0: usize, nc: usize, buf: &mut [f64]) {
    for q in 0..nc.div_ceil(NR) {
        let panel = &mut buf[q * NR * kc..(q + 1) * NR * kc];
        let cols_here = NR.min(nc - q * NR);
        for (kk, chunk) in panel.chunks_exact_mut(NR).enumerate() {
            for (c, slot) in chunk.iter_mut().enumerate() {
                *slot = if c < cols_here {
                    b.buf[b.layout.at(k0 + kk, j0 + q * NR + c)]
                } else {
                    0.0
                };
            }
        }
    }
}

/// The register tile: `acc[r][c] += Σ_kk pa[kk·MR + r] · pb[kk·NR + c]`.
///
/// `pa`/`pb` are packed panels of equal depth; the fixed-size loops
/// vectorize to fused multiply-adds over the whole tile.
#[inline(always)]
fn micro_kernel(pa: &[f64], pb: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (ak, bk) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = ak[r];
            for (c, slot) in acc_row.iter_mut().enumerate() {
                *slot += ar * bk[c];
            }
        }
    }
}

/// One block of the fused pass over rows `first..first + block.len()` of
/// the row-major `a` (`k` columns): the `dot`s into `block`, the link,
/// the `axpy`s into `g`.
#[inline(always)]
fn fused_block(
    a: &[f64],
    k: usize,
    v: &[f64],
    first: usize,
    block: &mut [f64],
    link: &mut impl FnMut(usize, &mut [f64]),
    g: &mut [f64],
) {
    let row = |l: usize| &a[l * k..(l + 1) * k];
    for (l, o) in (first..).zip(block.iter_mut()) {
        *o = dot(row(l), v);
    }
    link(first, block);
    for (l, &r) in (first..).zip(block.iter()) {
        if r != 0.0 {
            axpy(r, row(l), g);
        }
    }
}

/// `y += a * x` over equal-length slices.
#[inline]
pub(crate) fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    // Four-way unrolled accumulation: keeps independent dependency chains
    // so the compiler can vectorize.
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let xc = x.chunks_exact(4);
    let yc = y.chunks_exact(4);
    let xr = xc.remainder();
    let yr = yc.remainder();
    for (a, b) in xc.zip(yc) {
        s0 += a[0] * b[0];
        s1 += a[1] * b[1];
        s2 += a[2] * b[2];
        s3 += a[3] * b[3];
    }
    let mut tail = 0.0;
    for (a, b) in xr.iter().zip(yr) {
        tail += a * b;
    }
    s0 + s1 + s2 + s3 + tail
}

/// [`dot`] at the constant length `K`: the same four lanes over the whole
/// chunks of four, the same tail, the same `s0 + s1 + s2 + s3 + tail`,
/// with every loop unrolled.
#[inline(always)]
fn dot_k<const K: usize>(x: &[f64; K], y: &[f64; K]) -> f64 {
    let whole = K - K % 4;
    let mut s = [0.0f64; 4];
    for l in 0..whole {
        s[l % 4] += x[l] * y[l];
    }
    let mut tail = 0.0;
    for l in whole..K {
        tail += x[l] * y[l];
    }
    s[0] + s[1] + s[2] + s[3] + tail
}

/// `out = A·v` for a row-major `A` of `K` columns: one [`dot_k`] per row.
fn matvec_narrow<const K: usize>(a: &[f64], v: &[f64], out: &mut [f64]) {
    let (rows, _) = a.as_chunks::<K>();
    let Some(v) = v.first_chunk::<K>() else {
        return;
    };
    for (o, row) in out.iter_mut().zip(rows) {
        *o = dot_k(row, v);
    }
}

/// `out = Aᵀ·x` for a row-major `A` of `K` columns: the [`axpy`] of every
/// row with a non-zero coefficient, ascending, into a sum that stays in
/// registers across the rows instead of being stored after each one.
fn transpose_matvec_narrow<const K: usize>(a: &[f64], x: &[f64], out: &mut [f64]) {
    let (rows, _) = a.as_chunks::<K>();
    let mut acc = [0.0f64; K];
    for (row, &xl) in rows.iter().zip(x) {
        if xl == 0.0 {
            continue;
        }
        for (s, &v) in acc.iter_mut().zip(row) {
            *s += xl * v;
        }
    }
    out.copy_from_slice(&acc);
}

/// The upper triangle of `AᵀA` for a row-major `A` of `C` columns into
/// the row-major `out` (`C × C`; the lower triangle is left to the
/// caller's mirror): per row, ascending, the [`axpy`] of every non-zero
/// cell `i` into output row `i` from column `i` on, with the whole
/// triangle in registers.
fn gram_narrow<const C: usize>(a: &[f64], out: &mut [f64]) {
    let (rows, _) = a.as_chunks::<C>();
    let mut acc = [[0.0f64; C]; C];
    for row in rows {
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let v = row[i];
            if v == 0.0 {
                continue;
            }
            for (s, &x) in acc_row[i..].iter_mut().zip(&row[i..]) {
                *s += v * x;
            }
        }
    }
    for (i, (orow, acc_row)) in out.chunks_exact_mut(C).zip(&acc).enumerate() {
        orow[i..].copy_from_slice(&acc_row[i..]);
    }
}

/// Re-exported so benchmarks can report the configured thread count.
pub fn kernel_threads() -> usize {
    available_threads()
}

/// Blocking parameters of the packed kernel, for diagnostics and
/// benchmark metadata: `(MR, NR, MC, KC, NC)`.
pub const fn kernel_blocking() -> (usize, usize, usize, usize, usize) {
    (MR, NR, MC, KC, NC)
}

/// FLOP threshold above which kernels may go parallel (re-exported for
/// benchmark sizing).
pub const fn parallel_flop_threshold() -> usize {
    PAR_WORK_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive reference implementation used to validate the optimized kernels.
    fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = DenseMatrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a.get(i, l) * b.get(l, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    #[test]
    fn matmul_small_known_values() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(13, 13, -2.0, 2.0, &mut rng);
        let i = DenseMatrix::identity(13);
        assert!(a.matmul(&i).unwrap().approx_eq(&a, 1e-12));
        assert!(i.matmul(&a).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b).unwrap_err(),
            MatrixError::DimensionMismatch { op: "matmul", .. }
        ));
    }

    #[test]
    fn matmul_matches_naive_medium() {
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(37, 53, -1.0, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(53, 29, -1.0, 1.0, &mut rng);
        let fast = a.matmul(&b).unwrap();
        let slow = matmul_naive(&a, &b);
        assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn matmul_packed_path_matches_naive() {
        // Big enough to cross PACK_FLOP_THRESHOLD, with awkward edge
        // sizes in every dimension (not multiples of MR/NR/KC).
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(67, 130, -1.0, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(130, 41, -1.0, 1.0, &mut rng);
        let fast = a.matmul(&b).unwrap();
        let slow = matmul_naive(&a, &b);
        assert!(fast.approx_eq(&slow, 1e-9));
    }

    #[test]
    fn matmul_parallel_path_matches_naive() {
        // Big enough to cross the parallel threshold: 2*200*200*120 = 9.6e6.
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(200, 120, -1.0, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(120, 200, -1.0, 1.0, &mut rng);
        let fast = a.matmul(&b).unwrap();
        let slow = matmul_naive(&a, &b);
        assert!(fast.approx_eq(&slow, 1e-9));
    }

    #[test]
    fn matmul_into_reuses_buffer_and_overwrites() {
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(9, 7, -1.0, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(7, 5, -1.0, 1.0, &mut rng);
        // Dirty output buffer: matmul_into must fully overwrite it.
        let mut out = DenseMatrix::filled(9, 5, 123.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert!(out.approx_eq(&matmul_naive(&a, &b), 1e-10));
        // Shape-checked.
        let mut wrong = DenseMatrix::zeros(9, 4);
        assert!(a.matmul_into(&b, &mut wrong).is_err());
    }

    #[test]
    fn matmul_colstable_matches_naive() {
        let mut rng = rand::thread_rng();
        for (m, k, n) in [(9, 7, 5), (40, 33, 12), (1, 4, 3), (6, 1, 2)] {
            let a = DenseMatrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
            let b = DenseMatrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
            let mut out = DenseMatrix::filled(m, n, 77.0); // dirty buffer
            a.matmul_into(&b, &mut out).unwrap();
            assert!(out.approx_eq(&matmul_naive(&a, &b), 1e-10));
        }
        let a = DenseMatrix::zeros(3, 2);
        let b = DenseMatrix::zeros(4, 2);
        let mut out = DenseMatrix::zeros(3, 2);
        assert!(a.matmul_into(&b, &mut out).is_err());
        let b = DenseMatrix::zeros(2, 5);
        assert!(a.matmul_into(&b, &mut out).is_err());
        // Degenerate shapes: an empty product, and depth 0 into a dirty
        // buffer, which must come back zeroed.
        let mut empty = DenseMatrix::zeros(3, 0);
        a.matmul_into(&DenseMatrix::zeros(2, 0), &mut empty)
            .unwrap();
        let mut zeroed = DenseMatrix::filled(3, 4, 5.0);
        DenseMatrix::zeros(3, 0)
            .matmul_into(&DenseMatrix::zeros(0, 4), &mut zeroed)
            .unwrap();
        assert_eq!(zeroed.as_slice(), &[0.0; 12]);
    }

    #[test]
    fn matmul_colstable_columns_bit_identical_to_matvec() {
        // The serving-batch contract: column j of a batched product is
        // bit-for-bit the n == 1 fast-path result for that column alone,
        // at any batch width.
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(70, 50, -1.0, 1.0, &mut rng);
        for n in [2usize, 8, 17, 32] {
            let b = DenseMatrix::random_uniform(50, n, -1.0, 1.0, &mut rng);
            let mut batched = DenseMatrix::zeros(70, n);
            a.matmul_into(&b, &mut batched).unwrap();
            for j in 0..n {
                let col = DenseMatrix::column_vector(&b.col(j));
                let single = a.matmul(&col).unwrap();
                for i in 0..70 {
                    assert!(
                        batched.get(i, j).to_bits() == single.get(i, 0).to_bits(),
                        "batch width {n}, cell ({i},{j}) differs"
                    );
                }
            }
        }
    }

    /// The column-stable product as it was computed before the register
    /// panels, kept as their oracle: each `rhs` column copied out
    /// contiguously, then one [`dot`] per output cell.
    fn colstable_per_cell(a: &DenseMatrix, b: &DenseMatrix) -> Vec<f64> {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut rhs_t = vec![0.0; n * k];
        for (l, brow) in b.as_slice().chunks_exact(n.max(1)).enumerate() {
            for (j, &v) in brow.iter().enumerate() {
                rhs_t[j * k + l] = v;
            }
        }
        let mut out = vec![0.0; m * n];
        for (i, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
            let arow = &a.as_slice()[i * k..(i + 1) * k];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot(arow, &rhs_t[j * k..(j + 1) * k]);
            }
        }
        out
    }

    /// Cells a column-stable property test plants among the random ones:
    /// every class of value whose arithmetic is easy to get subtly wrong.
    const COLSTABLE_SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 3.0,
        5e-324,
    ];

    #[test]
    fn transpose_matmul_matches_explicit() {
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(23, 11, -1.0, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(23, 7, -1.0, 1.0, &mut rng);
        let fused = a.transpose_matmul(&b).unwrap();
        let explicit = a.transpose().matmul(&b).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-10));
        assert!(a.transpose_matmul(&DenseMatrix::zeros(5, 2)).is_err());
    }

    #[test]
    fn transpose_matmul_packed_path_matches_explicit() {
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(150, 90, -1.0, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(150, 33, -1.0, 1.0, &mut rng);
        let fused = a.transpose_matmul(&b).unwrap();
        let explicit = a.transpose().matmul(&b).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn transpose_matmul_into_overwrites_dirty_buffer() {
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(12, 6, -1.0, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(12, 3, -1.0, 1.0, &mut rng);
        let mut out = DenseMatrix::filled(6, 3, -7.0);
        a.transpose_matmul_into(&b, &mut out).unwrap();
        assert!(out.approx_eq(&a.transpose().matmul(&b).unwrap(), 1e-10));
        let mut y = DenseMatrix::filled(6, 1, 9.0);
        let x = DenseMatrix::random_uniform(12, 1, -1.0, 1.0, &mut rng);
        a.transpose_matmul_into(&x, &mut y).unwrap();
        assert!(y.approx_eq(&a.transpose().matmul(&x).unwrap(), 1e-10));
    }

    #[test]
    fn gradient_pass_rejects_wrong_shapes() {
        let x = DenseMatrix::zeros(5, 3);
        let theta = DenseMatrix::zeros(3, 1);
        let (mut resid, mut grad) = (DenseMatrix::zeros(5, 1), DenseMatrix::zeros(3, 1));
        let id = |_: usize, z: f64| z;
        assert!(x
            .gradient_pass_into(&theta, id, &mut resid, &mut grad)
            .is_ok());
        let named = |e: MatrixError| match e {
            MatrixError::DimensionMismatch { op, .. } => op.starts_with("gradient_pass"),
            _ => false,
        };
        let keep = |_: usize, _: &mut [f64]| {};
        for bad_theta in [DenseMatrix::zeros(4, 1), DenseMatrix::zeros(3, 2)] {
            let e = x.gradient_pass_into(&bad_theta, id, &mut resid, &mut grad);
            assert!(named(e.unwrap_err()));
            let e = x.gradient_pass_blocks_into(&bad_theta, keep, &mut resid, &mut grad);
            assert!(named(e.unwrap_err()));
        }
        for mut bad_resid in [DenseMatrix::zeros(4, 1), DenseMatrix::zeros(5, 2)] {
            let e = x.gradient_pass_into(&theta, id, &mut bad_resid, &mut grad);
            assert!(named(e.unwrap_err()));
            let e = x.gradient_pass_blocks_into(&theta, keep, &mut bad_resid, &mut grad);
            assert!(named(e.unwrap_err()));
        }
        for mut bad_grad in [DenseMatrix::zeros(5, 1), DenseMatrix::zeros(1, 3)] {
            let e = x.gradient_pass_into(&theta, id, &mut resid, &mut bad_grad);
            assert!(named(e.unwrap_err()));
            let e = x.gradient_pass_blocks_into(&theta, keep, &mut resid, &mut bad_grad);
            assert!(named(e.unwrap_err()));
        }
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(9, 14, -1.0, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(6, 14, -1.0, 1.0, &mut rng);
        let fused = a.matmul_transpose(&b).unwrap();
        let explicit = a.matmul(&b.transpose()).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-10));
        assert!(a.matmul_transpose(&DenseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matmul_transpose_packed_path_matches_explicit() {
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(70, 110, -1.0, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(45, 110, -1.0, 1.0, &mut rng);
        let fused = a.matmul_transpose(&b).unwrap();
        let explicit = a.matmul(&b.transpose()).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn gram_matches_explicit() {
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(31, 17, -1.0, 1.0, &mut rng);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-10));
        // Gram matrices are symmetric.
        assert!(g.approx_eq(&g.transpose(), 1e-12));
    }

    #[test]
    fn gram_parallel_path_matches_explicit() {
        // c large enough that r·c² crosses the parallel threshold.
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(120, 200, -1.0, 1.0, &mut rng);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn zero_sized_products() {
        let a = DenseMatrix::zeros(0, 3);
        let b = DenseMatrix::zeros(3, 4);
        assert_eq!(a.matmul(&b).unwrap().shape(), (0, 4));
        let c = DenseMatrix::zeros(4, 0);
        assert_eq!(b.matmul(&c).unwrap().shape(), (3, 0));
        // k == 0: the product is all zeros, and `_into` must clear dirty
        // output buffers rather than leave stale values behind.
        let e = DenseMatrix::zeros(3, 0);
        let f = DenseMatrix::zeros(0, 4);
        let mut out = DenseMatrix::filled(3, 4, 5.0);
        e.matmul_into(&f, &mut out).unwrap();
        assert!(out.approx_eq(&DenseMatrix::zeros(3, 4), 1e-12));
        // The same through the vector fast paths, which have no row to
        // take a dot product with.
        let mut out = DenseMatrix::filled(3, 1, 5.0);
        e.matmul_into(&DenseMatrix::zeros(0, 1), &mut out).unwrap();
        assert_eq!(out.as_slice(), &[0.0; 3]);
        assert_eq!(e.matvec(&[]).unwrap(), vec![0.0; 3]);
        let mut out = DenseMatrix::filled(4, 1, 5.0);
        f.transpose_matmul_into(&DenseMatrix::zeros(0, 1), &mut out)
            .unwrap();
        assert_eq!(out.as_slice(), &[0.0; 4]);
    }

    /// The operand views `transpose_matmul_into` hands to the driver:
    /// `Aᵀ·B` with `a` stored `k × m`.
    fn driver_operands<'a>(a: &'a DenseMatrix, b: &'a DenseMatrix) -> (Operand<'a>, Operand<'a>) {
        let operand = |m: &'a DenseMatrix, rs, cs| Operand {
            buf: m.as_slice(),
            layout: Layout { rs, cs },
        };
        (operand(a, 1, a.cols()), operand(b, b.cols(), 1))
    }

    /// A logical `m × k` left operand, stored transposed, and a `k × n`
    /// right operand, each with a few exact zeros and `poison` NaN / ±∞
    /// cells.
    fn thin_case(
        (m, k, n): (usize, usize, usize),
        poison: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> (DenseMatrix, DenseMatrix) {
        use rand::Rng;
        let mut a = DenseMatrix::random_uniform(k, m, -2.0, 2.0, rng);
        let mut b = DenseMatrix::random_uniform(k, n, -2.0, 2.0, rng);
        for mat in [&mut a, &mut b] {
            let cells = mat.as_mut_slice();
            if cells.is_empty() {
                continue;
            }
            for special in [0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for _ in 0..poison {
                    cells[rng.gen_range(0..cells.len())] = special;
                }
            }
        }
        (a, b)
    }

    /// `out = Aᵀ·B` through the driver on a dirty buffer.
    fn drive(a: Operand<'_>, b: Operand<'_>, (m, k, n): (usize, usize, usize)) -> Vec<f64> {
        let mut out = vec![f64::NAN; m * n];
        gemm_driver(a, b, &mut out, m, k, n);
        out
    }

    /// `out = Aᵀ·B` by the thin kernel over two workers' row chunks,
    /// on a dirty buffer.
    fn thin_chunked(a: Operand<'_>, b: Operand<'_>, (m, k, n): (usize, usize, usize)) -> Vec<f64> {
        let mut out = vec![f64::NAN; m * n];
        crate::par::par_row_chunks_with(&mut out, n, usize::MAX, 2, |row0, chunk| {
            chunk.fill(0.0);
            thin_gemm(a, b, chunk, row0, chunk.len() / n, k, n);
        });
        out
    }

    #[test]
    fn thin_row_chunks_equal_serial() {
        // 37 rows over two workers: chunks of 19 and 18, so the second
        // chunk pairs rows differently from the serial run.
        let mut rng = rand::thread_rng();
        let (m, k) = (37, 300);
        for n in [1, 3, 8, 17] {
            let a = DenseMatrix::random_uniform(k, m, -1.0, 1.0, &mut rng);
            let b = DenseMatrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
            let (oa, ob) = driver_operands(&a, &b);
            let mut serial = vec![0.0; m * n];
            thin_gemm(oa, ob, &mut serial, 0, m, k, n);
            let chunked = thin_chunked(oa, ob, (m, k, n));
            assert!(
                chunked
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(serial.iter().map(|v| v.to_bits())),
                "n {n}"
            );
        }
    }

    #[test]
    fn thin_and_packed_match_naive_at_the_panel_boundary() {
        // For `Aᵀ·B`, n = NR is the widest thin product and NR + 1 the
        // narrowest packed one (the shape is above the FLOP threshold);
        // `A·B` runs the panels on both sides.
        let mut rng = rand::thread_rng();
        let a = DenseMatrix::random_uniform(70, 130, -1.0, 1.0, &mut rng);
        let at = a.transpose();
        for n in [NR, NR + 1] {
            let b = DenseMatrix::random_uniform(130, n, -1.0, 1.0, &mut rng);
            let want = matmul_naive(&a, &b);
            let mut out = DenseMatrix::filled(70, n, 123.0);
            a.matmul_into(&b, &mut out).unwrap();
            assert!(out.approx_eq(&want, 1e-9), "A·B at n = {n}");
            let mut out = DenseMatrix::filled(70, n, 123.0);
            at.transpose_matmul_into(&b, &mut out).unwrap();
            assert!(out.approx_eq(&want, 1e-9), "Aᵀ·B at n = {n}");
        }
    }

    /// `(class_sums_into, transpose_matmul_into(one-hot))` of `x`, each
    /// into a dirty `cols × k` output.
    fn class_sums_and_product(x: &DenseMatrix, class: &[usize], k: usize) -> (Vec<f64>, Vec<f64>) {
        let (m, d) = x.shape();
        let mut onehot = DenseMatrix::zeros(m, k);
        for (l, &c) in class.iter().enumerate() {
            onehot.set(l, c, 1.0);
        }
        let mut product = DenseMatrix::filled(d, k, f64::NAN);
        x.transpose_matmul_into(&onehot, &mut product).unwrap();
        let mut sums = DenseMatrix::filled(d, k, 123.0);
        x.class_sums_into(class, &mut sums, &mut crate::Workspace::new())
            .unwrap();
        (sums.into_vec(), product.into_vec())
    }

    fn random_classes(m: usize, k: usize, rng: &mut rand::rngs::StdRng) -> Vec<usize> {
        use rand::Rng;
        (0..m).map(|_| rng.gen_range(0..k)).collect()
    }

    /// Shapes that put the one-hot product on each of its paths, so the
    /// property above cannot miss one by chance.
    const CLASS_SUM_PATHS: [(usize, usize, usize); 5] = [
        (300, 7, 1),  // `n == 1`: the axpy fast path
        (600, 12, 5), // thin, rows across 2·KC
        (600, 12, 9), // packed: 2·12·9·600 flops ≥ PACK_FLOP_THRESHOLD
        (600, 4, 12), // thin: n > NR under the threshold
        (257, 3, 8),  // thin at n = NR, one row past KC
    ];

    #[test]
    fn class_sums_equal_the_product_on_each_of_its_paths() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1A5);
        let mut seen = Vec::new();
        for (m, d, k) in CLASS_SUM_PATHS {
            let flops = 2 * m * d * k;
            seen.push((k == 1, GemmPath::of(k, flops)));
            let x = DenseMatrix::random_uniform(m, d, -2.0, 2.0, &mut rng);
            let class = random_classes(m, k, &mut rng);
            let (got, want) = class_sums_and_product(&x, &class, k);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{m} × {d}, k = {k}");
        }
        for path in [GemmPath::Thin, GemmPath::Packed] {
            assert!(seen.contains(&(false, path)), "{path:?} not exercised");
        }
        assert!(seen.iter().any(|&(vector, _)| vector));
    }

    /// The documented degradation: a non-finite cell reaches only its
    /// own class's sum — every other cell keeps the bits of the table
    /// without it — where the one-hot product turns the cell's whole
    /// column into NaN through `∞·0` / `NaN·0`.
    #[test]
    fn class_sums_confine_a_non_finite_cell_to_its_class() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBAD);
        for (m, d, k) in CLASS_SUM_PATHS {
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut x = DenseMatrix::random_uniform(m, d, -2.0, 2.0, &mut rng);
                let class = random_classes(m, k, &mut rng);
                let (clean, _) = class_sums_and_product(&x, &class, k);
                let (l, j) = (m / 2, d / 2);
                x.set(l, j, poison);
                let (sums, product) = class_sums_and_product(&x, &class, k);
                for (cell, ((s, p), c)) in sums.iter().zip(&product).zip(&clean).enumerate() {
                    let (row, col) = (cell / k, cell % k);
                    if row != j {
                        assert_eq!(s.to_bits(), p.to_bits());
                        assert_eq!(s.to_bits(), c.to_bits());
                    } else if col == class[l] {
                        for v in [s, p] {
                            assert!(v.is_nan() == poison.is_nan() && (v.is_nan() || *v == poison));
                        }
                    } else {
                        assert_eq!(s.to_bits(), c.to_bits(), "other classes stay finite");
                        assert!(p.is_nan(), "the product spreads NaN across the column");
                    }
                }
            }
        }
    }

    #[test]
    fn class_sums_reject_bad_shapes() {
        let x = DenseMatrix::filled(4, 3, 1.0);
        let mut ws = crate::Workspace::new();
        let mut out = DenseMatrix::zeros(3, 2);
        assert!(x.class_sums_into(&[0, 1, 1, 0], &mut out, &mut ws).is_ok());
        assert_eq!(out.as_slice(), &[2.0, 2.0, 2.0, 2.0, 2.0, 2.0]);
        assert!(matches!(
            x.class_sums_into(&[0, 1, 1], &mut out, &mut ws),
            Err(MatrixError::DimensionMismatch {
                op: "class_sums",
                ..
            })
        ));
        assert!(matches!(
            x.class_sums_into(&[0, 1, 2, 0], &mut out, &mut ws),
            Err(MatrixError::IndexOutOfBounds {
                index: (2, 2),
                shape: (4, 2)
            })
        ));
        let mut wrong = DenseMatrix::zeros(2, 2);
        assert!(x
            .class_sums_into(&[0, 1, 1, 0], &mut wrong, &mut ws)
            .is_err());
        // No columns, or no rows: one zero sum per (column, class).
        let mut none = DenseMatrix::zeros(0, 2);
        DenseMatrix::zeros(4, 0)
            .class_sums_into(&[0, 1, 1, 0], &mut none, &mut ws)
            .unwrap();
        let mut zeros = DenseMatrix::filled(3, 2, 9.0);
        DenseMatrix::zeros(0, 3)
            .class_sums_into(&[], &mut zeros, &mut ws)
            .unwrap();
        assert_eq!(zeros.as_slice(), &[0.0; 6]);
    }

    /// The vector products and the gram as they were computed before the
    /// narrow instances, kept as their oracles: one [`dot`] per row of
    /// `A·v`; one [`axpy`] per row with a non-zero coefficient into a
    /// zeroed `Aᵀ·x`; per row, one [`axpy`] per non-zero cell into the
    /// gram's upper triangle, then the mirror.
    fn narrow_oracles(a: &DenseMatrix, v: &[f64], x: &[f64]) -> [Vec<f64>; 3] {
        let (m, k) = a.shape();
        let matvec = (0..m).map(|i| dot(a.row(i), v)).collect();
        let mut transpose = vec![0.0; k];
        for (l, &xl) in x.iter().enumerate() {
            if xl != 0.0 {
                axpy(xl, a.row(l), &mut transpose);
            }
        }
        let mut gram = vec![0.0; k * k];
        for l in 0..m {
            let row = a.row(l);
            for i in 0..k {
                if row[i] != 0.0 {
                    axpy(row[i], &row[i..], &mut gram[i * k + i..(i + 1) * k]);
                }
            }
        }
        for i in 0..k {
            for j in 0..i {
                gram[i * k + j] = gram[j * k + i];
            }
        }
        [matvec, transpose, gram]
    }

    /// `A·v`, `Aᵀ·x` and `AᵀA` through the public entry points, each
    /// into a dirty output.
    fn narrow_products(a: &DenseMatrix, v: &[f64], x: &[f64]) -> [Vec<f64>; 3] {
        let (m, k) = a.shape();
        let mut matvec = DenseMatrix::filled(m, 1, 123.0);
        a.matmul_into(&DenseMatrix::column_vector(v), &mut matvec)
            .unwrap();
        let mut transpose = DenseMatrix::filled(k, 1, 123.0);
        a.transpose_matmul_into(&DenseMatrix::column_vector(x), &mut transpose)
            .unwrap();
        let mut gram = DenseMatrix::filled(k, k, 123.0);
        a.gram_into(&mut gram).unwrap();
        [matvec.into_vec(), transpose.into_vec(), gram.into_vec()]
    }

    #[test]
    fn narrow_products_equal_the_per_row_loops_on_known_values() {
        let a = DenseMatrix::from_rows(&[
            vec![1.0, -0.0, 2.0],
            vec![0.0, 3.0, -1.0],
            vec![4.0, 1.0, 0.5],
        ])
        .unwrap();
        let [matvec, transpose, gram] = narrow_products(&a, &[1.0, 2.0, -1.0], &[2.0, 0.0, -1.0]);
        assert_eq!(matvec, vec![-1.0, 7.0, 5.5]);
        assert_eq!(transpose, vec![-2.0, -1.0, 3.5]);
        assert_eq!(gram, vec![17.0, 4.0, 4.0, 4.0, 10.0, -2.5, 4.0, -2.5, 5.25]);
        // Every narrow depth, and the first wide one, on tall tables.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4A11);
        for k in 1..=NR + 1 {
            let a = DenseMatrix::random_uniform(1001, k, -2.0, 2.0, &mut rng);
            let v = a.row(7).to_vec();
            let x: Vec<f64> = a.as_slice().iter().step_by(k).copied().collect();
            let bits =
                |p: [Vec<f64>; 3]| p.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            assert_eq!(
                bits(narrow_products(&a, &v, &x)),
                bits(narrow_oracles(&a, &v, &x)),
                "k = {k}"
            );
        }
    }

    #[test]
    fn dot_handles_remainders() {
        assert_eq!(dot(&[1.0; 7], &[2.0; 7]), 14.0);
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[3.0], &[4.0]), 12.0);
    }

    proptest! {
        /// The thin kernel against the packed kernel on the same `Aᵀ·B`
        /// operands, bit for bit, at every width up to `2·NR + 1` (one
        /// panel, and the widths below the FLOP threshold that thin runs
        /// panel by panel): depths on both sides of `KC`, odd row counts
        /// split across two workers, a dirty output, exact zeros and
        /// NaN / ±∞ cells in either operand. A NaN must be a NaN in both
        /// (its payload is the compiler's choice of operand order); and
        /// both must agree with the naive triple loop, whose non-finite
        /// cells do not depend on summation order.
        #[test]
        fn prop_thin_is_bit_identical_to_packed(
            m in 0usize..70, k in 0usize..600,
            poison in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for n in 1..=2 * NR + 1 {
                let (a, b) = thin_case((m, k, n), poison, &mut rng);
                let (oa, ob) = driver_operands(&a, &b);
                let thin = thin_chunked(oa, ob, (m, k, n));
                let mut packed = vec![0.0; m * n];
                packed_gemm(oa, ob, &mut packed, 0, m, k, n);
                let naive = matmul_naive(&a.transpose(), &b);
                for ((t, p), w) in thin.iter().zip(&packed).zip(naive.as_slice()) {
                    prop_assert!(
                        t.to_bits() == p.to_bits() || (t.is_nan() && p.is_nan()),
                        "n {}: thin {:?} vs packed {:?}", n, t, p
                    );
                    let agrees = if w.is_finite() {
                        (t - w).abs() <= 1e-9
                    } else if w.is_nan() {
                        t.is_nan()
                    } else {
                        t == w
                    };
                    prop_assert!(agrees, "n {}: thin {:?} vs naive {:?}", n, t, w);
                }
            }
        }

        /// Column `j` of a thin product is the product with column `j`
        /// alone: panels of any width run the same per-lane arithmetic.
        #[test]
        fn prop_thin_columns_do_not_see_each_other(
            m in 0usize..40, k in 0usize..300,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for n in 2..=NR {
                let (a, b) = thin_case((m, k, n), 0, &mut rng);
                let (oa, ob) = driver_operands(&a, &b);
                let whole = drive(oa, ob, (m, k, n));
                for j in 0..n {
                    let bj = DenseMatrix::column_vector(&b.col(j));
                    let (oa, obj) = driver_operands(&a, &bj);
                    let alone = drive(oa, obj, (m, k, 1));
                    for (i, v) in alone.iter().enumerate() {
                        prop_assert_eq!(whole[i * n + j].to_bits(), v.to_bits());
                    }
                }
            }
        }

        /// `matmul_into` against the per-cell loop the register panels
        /// replaced, bit for bit: every width from 1 to 33 (the `dot`
        /// path, then every mix of 8-, 4-, 2- and 1-wide panels), every
        /// depth from 0 to 13 (so both sides of the constant-depth
        /// instances' `NR`) plus one on either side of larger multiples
        /// of 4, row counts that are a multiple of nothing, into a dirty
        /// output, serially and over two workers' row chunks, with exact
        /// and signed zeros, subnormals, NaN and ±∞ planted in both
        /// operands. A NaN must be a NaN in both — its payload is the
        /// compiler's choice of operand order, as for the thin kernel.
        #[test]
        fn prop_colstable_panels_are_bit_identical_to_per_cell_dots(
            m in 0usize..23, deep in 14usize..80,
            planted in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for k in (0..14).chain([deep]) {
                for n in 1..=33usize {
                    let mut a = DenseMatrix::random_uniform(m, k, -2.0, 2.0, &mut rng);
                    let mut b = DenseMatrix::random_uniform(k, n, -2.0, 2.0, &mut rng);
                    for cells in [a.as_mut_slice(), b.as_mut_slice()] {
                        for _ in 0..planted.min(cells.len()) {
                            let at = rng.gen_range(0..cells.len());
                            cells[at] = COLSTABLE_SPECIALS[rng.gen_range(0..COLSTABLE_SPECIALS.len())];
                        }
                    }
                    let mut out = DenseMatrix::filled(m, n, 123.0);
                    a.matmul_into(&b, &mut out).unwrap();
                    let mut chunked = vec![123.0; m * n];
                    if k > 0 && n > 1 {
                        crate::par::par_row_chunks_with(&mut chunked, n, usize::MAX, 2, |i0, chunk| {
                            panel_rows(&a.as_slice()[i0 * k..], b.as_slice(), chunk, k, n);
                        });
                    } else {
                        chunked.copy_from_slice(out.as_slice());
                    }
                    let want = colstable_per_cell(&a, &b);
                    for (cell, ((g, c), w)) in out.as_slice().iter().zip(&chunked).zip(&want).enumerate() {
                        for got in [g, c] {
                            prop_assert!(
                                got.to_bits() == w.to_bits() || (got.is_nan() && w.is_nan()),
                                "{} × {} · {} × {}, cell {}: panel {:?} vs per-cell {:?}",
                                m, k, k, n, cell, got, w
                            );
                        }
                    }
                }
            }
        }

        /// The narrow instances against the per-row loops they replaced,
        /// bit for bit: every depth / width from 1 to `NR + 1` (so both
        /// sides of the boundary), row counts that are a multiple of
        /// nothing, dirty outputs, exact and signed zeros, subnormals, NaN
        /// and ±∞ planted in the table and in both vectors, and zero
        /// coefficients, whose `axpy` is skipped. A NaN must be a NaN in
        /// both — its payload is the compiler's choice of operand order,
        /// as for the thin kernel.
        #[test]
        fn prop_narrow_products_are_bit_identical_to_per_row_loops(
            m in 0usize..70,
            planted in 0usize..6,
            zeros in 0usize..12,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for k in 1..=NR + 1 {
                let mut a = DenseMatrix::random_uniform(m, k, -2.0, 2.0, &mut rng);
                let mut v = DenseMatrix::random_uniform(k, 1, -2.0, 2.0, &mut rng).into_vec();
                let mut x = DenseMatrix::random_uniform(m, 1, -2.0, 2.0, &mut rng).into_vec();
                for cells in [a.as_mut_slice(), &mut v, &mut x] {
                    if cells.is_empty() {
                        continue;
                    }
                    for _ in 0..planted {
                        let at = rng.gen_range(0..cells.len());
                        cells[at] = COLSTABLE_SPECIALS[rng.gen_range(0..COLSTABLE_SPECIALS.len())];
                    }
                    for _ in 0..zeros {
                        let at = rng.gen_range(0..cells.len());
                        cells[at] = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                    }
                }
                let got = narrow_products(&a, &v, &x);
                let want = narrow_oracles(&a, &v, &x);
                for (what, (g, w)) in ["A·v", "Aᵀ·x", "gram"].iter().zip(got.iter().zip(&want)) {
                    prop_assert_eq!(g.len(), w.len());
                    for (cell, (g, w)) in g.iter().zip(w).enumerate() {
                        prop_assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "{} at {} × {}, cell {}: {:?} vs {:?}", what, m, k, cell, g, w
                        );
                    }
                }
            }
        }

        /// Both instances of the fused pass (`B = 1` per row, `B = 8`
        /// per block) against the two products they replace, bit for
        /// bit: row counts that are not multiples of `B`, widths on both
        /// sides of `dot`'s 4-way body (0 included), rows whose residual
        /// is exactly zero (the `axpy` skip — which decides between 0
        /// and NaN when the row holds an infinity), NaN / ±∞ cells, a
        /// NaN-filled `resid` and a dirty `grad`. The link must see
        /// every row exactly once, in ascending blocks of `B` (a folded
        /// loss relies on it).
        #[test]
        fn prop_gradient_pass_is_bit_identical_to_two_products(
            m in 0usize..70, k in 0usize..37,
            poisoned_cells in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut x = DenseMatrix::random_uniform(m, k, -2.0, 2.0, &mut rng);
            if k > 0 {
                for _ in 0..poisoned_cells.min(m) {
                    let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                    x.set(rng.gen_range(0..m), rng.gen_range(0..k), poison);
                }
            }
            let theta = DenseMatrix::random_uniform(k, 1, -2.0, 2.0, &mut rng);
            let y = DenseMatrix::random_uniform(m, 1, -2.0, 2.0, &mut rng);
            let zeroed: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.25)).collect();
            let link = |l: usize, z: f64| if zeroed[l] { 0.0 } else { z - y.as_slice()[l] };

            let mut want_resid = DenseMatrix::zeros(m, 1);
            x.matmul_into(&theta, &mut want_resid).unwrap();
            for (l, r) in want_resid.as_mut_slice().iter_mut().enumerate() {
                *r = link(l, *r);
            }
            let mut want_grad = DenseMatrix::zeros(k, 1);
            x.transpose_matmul_into(&want_resid, &mut want_grad).unwrap();
            let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

            // B = 1: one link call per row.
            let mut resid = DenseMatrix::filled(m, 1, f64::NAN);
            let mut grad = DenseMatrix::filled(k, 1, 123.0);
            let mut visited = Vec::new();
            x.gradient_pass_into(
                &theta,
                |l, z| {
                    visited.push(l);
                    link(l, z)
                },
                &mut resid,
                &mut grad,
            )
            .unwrap();
            prop_assert_eq!(visited, (0..m).collect::<Vec<_>>());
            prop_assert_eq!(bits(&resid), bits(&want_resid));
            prop_assert_eq!(bits(&grad), bits(&want_grad));

            // B = LINK_BLOCK: one link call per block.
            let mut resid = DenseMatrix::filled(m, 1, f64::NAN);
            let mut grad = DenseMatrix::filled(k, 1, 123.0);
            let mut blocks = Vec::new();
            x.gradient_pass_blocks_into(
                &theta,
                |first, block: &mut [f64]| {
                    blocks.push((first, block.len()));
                    for (i, r) in block.iter_mut().enumerate() {
                        *r = link(first + i, *r);
                    }
                },
                &mut resid,
                &mut grad,
            )
            .unwrap();
            let want_blocks: Vec<_> = (0..m)
                .step_by(LINK_BLOCK)
                .map(|first| (first, LINK_BLOCK.min(m - first)))
                .collect();
            prop_assert_eq!(blocks, want_blocks);
            prop_assert_eq!(bits(&resid), bits(&want_resid));
            prop_assert_eq!(bits(&grad), bits(&want_grad));
        }

        /// Class sums against the one-hot product they replace, bit for
        /// bit on finite cells (exact and signed zeros included): every
        /// `k` from 1 to 12, so each of the product's paths — the `n == 1`
        /// axpy loop, thin and packed — is on the other side,
        /// with row counts across `KC` and `2·KC` and shapes on both sides
        /// of `PACK_FLOP_THRESHOLD`, into a dirty output.
        #[test]
        fn prop_class_sums_are_bit_identical_to_one_hot_product(
            m in 0usize..600, d in 0usize..13,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut x = DenseMatrix::random_uniform(m, d, -2.0, 2.0, &mut rng);
            for v in x.as_mut_slice() {
                match rng.gen_range(0..8) {
                    0 => *v = 0.0,
                    1 => *v = -0.0,
                    _ => {}
                }
            }
            for k in 1..=12usize {
                let class: Vec<usize> = (0..m).map(|_| rng.gen_range(0..k)).collect();
                let (got, want) = class_sums_and_product(&x, &class, k);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(g.to_bits() == w.to_bits(), "k {}: {:?} vs {:?}", k, g, w);
                }
            }
        }

        #[test]
        fn prop_matmul_matches_naive(
            m in 1usize..12, k in 1usize..12, n in 1usize..12,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = DenseMatrix::random_uniform(m, k, -3.0, 3.0, &mut rng);
            let b = DenseMatrix::random_uniform(k, n, -3.0, 3.0, &mut rng);
            let fast = a.matmul(&b).unwrap();
            let slow = matmul_naive(&a, &b);
            prop_assert!(fast.approx_eq(&slow, 1e-9));
        }

        #[test]
        fn prop_packed_kernel_matches_naive_at_edges(
            // Sizes straddling the micro/macro tile boundaries.
            dm in 0usize..6, dk in 0usize..6, dn in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (m, k, n) = (MC + dm - 3, KC + dk - 3, NR * 4 + dn - 3);
            let a = DenseMatrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
            let b = DenseMatrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
            let fast = a.matmul(&b).unwrap();
            let slow = matmul_naive(&a, &b);
            prop_assert!(fast.approx_eq(&slow, 1e-9));
        }

        #[test]
        fn prop_matmul_distributes_over_addition(
            m in 1usize..8, k in 1usize..8, n in 1usize..8,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = DenseMatrix::random_uniform(m, k, -2.0, 2.0, &mut rng);
            let b = DenseMatrix::random_uniform(k, n, -2.0, 2.0, &mut rng);
            let c = DenseMatrix::random_uniform(k, n, -2.0, 2.0, &mut rng);
            let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
            let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
            prop_assert!(lhs.approx_eq(&rhs, 1e-9));
        }

        #[test]
        fn prop_transpose_of_product(
            m in 1usize..8, k in 1usize..8, n in 1usize..8,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = DenseMatrix::random_uniform(m, k, -2.0, 2.0, &mut rng);
            let b = DenseMatrix::random_uniform(k, n, -2.0, 2.0, &mut rng);
            // (AB)ᵀ = BᵀAᵀ
            let lhs = a.matmul(&b).unwrap().transpose();
            let rhs = b.transpose().matmul(&a.transpose()).unwrap();
            prop_assert!(lhs.approx_eq(&rhs, 1e-9));
        }

        #[test]
        fn prop_fused_transposes_match_explicit(
            m in 1usize..40, k in 1usize..40, n in 1usize..40,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = DenseMatrix::random_uniform(m, k, -2.0, 2.0, &mut rng);
            let b = DenseMatrix::random_uniform(m, n, -2.0, 2.0, &mut rng);
            prop_assert!(a
                .transpose_matmul(&b)
                .unwrap()
                .approx_eq(&a.transpose().matmul(&b).unwrap(), 1e-9));
            let c = DenseMatrix::random_uniform(n, k, -2.0, 2.0, &mut rng);
            prop_assert!(a
                .matmul_transpose(&c)
                .unwrap()
                .approx_eq(&a.matmul(&c.transpose()).unwrap(), 1e-9));
        }
    }
}
