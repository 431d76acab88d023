//! The factorized rewrite rules (§IV-A), one body per operator.
//!
//! Writing `T̃ₖ = Tₖ ∘ Rₖ` (the redundancy-masked contribution of source
//! `k`, with `Tₖ = IₖDₖMₖᵀ`), the identities implemented here are:
//!
//! * **LMM** `T·X    = Σₖ T̃ₖ X` — Equation (2) of the paper
//!   ([`FactorizedTable::lmm_into`]).
//! * **transpose-LMM** `Tᵀ·X = Σₖ T̃ₖᵀ X`
//!   ([`FactorizedTable::lmm_transpose_into`]), and the class sums `Tᵀ·A`
//!   of a one-hot `A` ([`FactorizedTable::class_sums_into`]).
//! * **Gram** `TᵀT` and **column sums** `1ᵀT`.
//!
//! Every one of them runs the compressed rewrite described below. The
//! literal Equation (2) and Morpheus' Equation (1) are kept as plain
//! functions in [`crate::reference`], the oracles the tests and figures
//! compare against; the allocating forms of the two products are
//! [`LinOps::mul_right`](crate::LinOps::mul_right) and
//! [`LinOps::t_mul`](crate::LinOps::t_mul).
//!
//! # The rewrite works on source rows
//!
//! `Rₖ` masks a target row by one of a handful of column sets (its
//! *group*, see `RedundancyMatrix`), so `T̃ₖ[i, ·]` depends only on the
//! pair (group of `i`, `CIₖ[i]`). [`FactorizedTable::new`] enumerates
//! the distinct pairs with a non-empty group — the **corrected-row
//! slots** — and appends them to the `r_Sk` plain rows of `Dₖ`, giving a
//! stacked matrix `Âₖ` and a plain selection `eff` (`Îₖ`) with
//! `T̃ₖ = Îₖ Âₖ Mₖᵀ`. Rows of group 0 read their plain row and need no
//! slot. `Âₖ` is never stored; each operator forms what it needs:
//!
//! * `T·X`: `local = Dₖ·(MₖᵀX)` for the plain rows, then each slot
//!   `(g, r)` as `local[r] − Σ_{j∈Z_g} Dₖ[r, CMₖ[j]]·X[j,:]`, then one
//!   gather of `local` through `eff` (see "The base source in place").
//! * `Tᵀ·X`: one scatter of `X` through `eff`; each slot row is
//!   subtracted from the output rows `j ∈ Z_g` (weighted by
//!   `Dₖ[r, CMₖ[j]]`) and folded into plain row `r`; one `Dₖᵀ` GEMM
//!   (no scatter at all for an identity source — see "The base source
//!   in place"). The class sums `Tᵀ·A` of a one-hot `A` take the same
//!   path with the scatter of `A` written as one `1.0` per target row.
//! * `TᵀT = Σ_{k,l} Mₖ Âₖᵀ (ÎₖᵀÎₗ) Âₗ Mₗᵀ`: `ÎₖᵀÎₖ` is the diagonal of
//!   per-row read counts; a cross term scatters one partner's rows into
//!   the other's stacked rows (`r_T` row adds) and multiplies once.
//!
//! **Work bound.** The correction costs `Σ_g slots_g·|Z_g|·n`, and since
//! every slot is read by at least one target row that owns `|Z_g|` zero
//! cells, that is at most `zero_count·n` — what a per-target-row
//! correction pays — on every input, and `r_Sk/r_T` of it under fan-out.
//! Nothing is proportional to `r_T × (redundant columns)` any more, and
//! there is no threshold or fallback between two paths.
//!
//! # The base source in place
//!
//! The first source's gather *assigns* `out` — `out[i] = local[eff[i]]`,
//! a zero row for an uncovered target row — and later sources add to it.
//! An uncovered row reads the sentinel row appended after the slots
//! (`+0` when the source assigns, `−0` when it adds, so `out[i] + −0` is
//! `out[i]` bit for bit, `−0` and NaN included): no gather or scatter
//! tests for a missing match per row. When that
//! source's `Îₖ` is the identity (recorded once in `SourcePlan::new`:
//! `eff[i] = i` for every target row, `Dₖ` exactly `r_T` rows, no slots
//! — the base table of a star), the gather is a plain copy of the
//! `r_T × n` product, so `T·X` multiplies `Dₖ·(MₖᵀX)` straight into
//! `out` instead: no `local` buffer, no copy, the same bits. Any other
//! first source — an uncovered row, a fan-out read, an unread source
//! row — and every later source keep the gather (a first source has no
//! slot: its `Rₖ` is all ones);
//! `factorize.lmm.gather_rows` counts every matched row either way.
//!
//! `Tᵀ·X` has the mirror image. Its scatter `Îₖᵀ X` sums, into zeroed
//! stacked rows, the target rows that read each one; through an
//! identity `Îₖ` every stacked row receives exactly one, so the scatter
//! is a copy of `X` in which `0 + x` has turned each `−0` into `+0` and
//! changed nothing else. No sum of the `Dₖᵀ` product can tell those
//! apart: every accumulator there starts at `+0` and can never hold
//! `−0` (`+0 + −0 = +0`, `x + −x = +0`), so adding a product of `±0`
//! leaves it as it is either way, and a non-finite `Dₖ` cell makes the
//! same NaN of both; the zero skip of the `n == 1` path tests `== 0.0`,
//! which both zeros pass. So an identity source — of any position,
//! since the transposed side only ever adds into a zeroed `out` —
//! multiplies `Dₖᵀ·X` straight from `X`: no `r_T × n` buffer, no fill,
//! no copy, the same bits. The class sums go one step further: there
//! an identity source's whole term is `DenseMatrix::class_sums_into` of
//! its `Dₖ`, which never forms the one-hot matrix (and carries that
//! function's documented non-finite degradation).
//!
//! **Column stability.** The gather and the slot correction treat the
//! columns of `X` independently, and a slot subtracts its `j ∈ Z_g`
//! terms in ascending `j` whatever the width. The `Dₖ` GEMM is
//! `DenseMatrix::matmul_into`, whose column `j` is column `j`'s own
//! `dot`s whatever the width. So column `j` of every `T·X` depends on
//! column `j` of `X` alone, bit for bit, by construction. There is one
//! entry point, [`FactorizedTable::lmm_into`]: training runs it, and the
//! serving layer sends every predict through it, so a request of any
//! width gets the same bytes alone or coalesced.

use crate::table::{FactorizedTable, SourcePlan};
use crate::{FactorizeError, Result};
use amalur_matrix::{par_row_chunks, DenseMatrix, Workspace};

pub(crate) fn check_shape(
    op: &'static str,
    expected: (usize, usize),
    found: (usize, usize),
) -> Result<()> {
    if expected == found {
        return Ok(());
    }
    Err(FactorizeError::OperandMismatch {
        op,
        expected,
        found,
    })
}

impl FactorizedTable {
    /// `T · X` (`X` is `c_T × n`) written into the caller-owned `out`
    /// (`r_T × n`, fully overwritten), drawing all per-source
    /// intermediates from `ws` — the allocation-free hot-loop entry
    /// point (see the `amalur-matrix` crate docs for the conventions).
    ///
    /// **Column-stable**: column `j` of the result is a function of
    /// column `j` of `x` alone, bit for bit, however many other columns
    /// share the call (module docs, "Column stability"). Training and
    /// the serving layer's batches run this one entry point.
    ///
    /// # Errors
    /// [`FactorizeError::OperandMismatch`] naming `lmm` for an `x` that
    /// is not `c_T × n`, or `lmm_into` for an `out` that is not `r_T × n`.
    pub fn lmm_into(
        &self,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        let (rows, cols) = self.target_shape();
        check_shape("lmm", (cols, x.cols()), x.shape())?;
        check_shape("lmm_into", (rows, x.cols()), out.shape())?;
        crate::metrics::LMM_CALLS.inc();
        let n = x.cols();
        let (mut gathered, mut corrected) = (0, 0);
        if self.num_sources() == 0 {
            out.as_mut_slice().fill(0.0);
        }
        // The scratch of `lmm_scratch(n)`, reshaped per source. Neither
        // needs a zero fill: the scatter overwrites all of `xk`, and every
        // stacked cell a gather reads is written first (plain rows by the
        // product, then slots and sentinel).
        let [xk_rows, stacked_rows_max] = self.lmm_scratch_rows();
        let mut xk = ws.take_matrix_stale(xk_rows, n);
        let mut local = ws.take_matrix_stale(stacked_rows_max, n);
        for (k, (s, d, plan)) in self.sources().enumerate() {
            gathered += plan.matched_rows;
            corrected += plan.correction_cells * n;
            // Mₖᵀ X: scatter X's target-column rows into source-column rows.
            xk.resize_rows(s.mapping.source_cols());
            x.scatter_rows_add_into(s.mapping.compressed(), &mut xk)?;
            if k == 0 && plan.identity {
                // The first source assigns, and its `Îₖ` is the identity:
                // the product goes straight into `out`, the exact copy
                // the gather would have made.
                d.matmul_into(&xk, out)?;
                continue;
            }
            // Into the plain rows of the stacked result.
            let plain = d.rows();
            local.resize_rows(plain);
            d.matmul_into(&xk, &mut local)?;
            local.resize_rows(plan.stacked_rows());
            let (plain_rows, rest) = local.as_mut_slice().split_at_mut(plain * n);
            let (slot_rows, sentinel) = rest.split_at_mut(plan.slots.len() * n);
            // The row an uncovered target row reads: a zero row for the
            // source that assigns, the additive identity for the rest.
            sentinel.fill(if k == 0 { 0.0 } else { -0.0 });
            // Slot (g, r) = local[r] − Σ_{j ∈ Z_g} Dₖ[r, CMₖ[j]]·X[j,:].
            for (slot, &(g, src)) in slot_rows.chunks_exact_mut(n.max(1)).zip(&plan.slots) {
                slot.copy_from_slice(&plain_rows[src * n..(src + 1) * n]);
                let d_row = d.row(src);
                for &(j, sc) in plan.zero_of(g) {
                    let coef = d_row[sc];
                    for (v, &xv) in slot.iter_mut().zip(x.row(j)) {
                        *v -= coef * xv;
                    }
                }
            }
            // Îₖ (...): every target row reads one stacked row. The
            // first source assigns, so `out` needs no zero fill.
            let stacked = local.as_slice();
            let eff = &plan.eff;
            let work = out.rows().saturating_mul(n) * 2;
            par_row_chunks(out.as_mut_slice(), n, work, |i0, chunk| {
                let eff = &eff[i0..];
                // One loop per (width, assign-or-add): a select on `k`
                // inside the loop measured slower at width 1.
                match (n, k) {
                    (1, 0) => {
                        for (o, &e) in chunk.iter_mut().zip(eff) {
                            *o = stacked[e as usize];
                        }
                    }
                    (1, _) => {
                        for (o, &e) in chunk.iter_mut().zip(eff) {
                            *o += stacked[e as usize];
                        }
                    }
                    (_, 0) => {
                        for (dst, &e) in chunk.chunks_exact_mut(n.max(1)).zip(eff) {
                            dst.copy_from_slice(&stacked[e as usize * n..][..n]);
                        }
                    }
                    _ => {
                        for (dst, &e) in chunk.chunks_exact_mut(n.max(1)).zip(eff) {
                            let src = &stacked[e as usize * n..][..n];
                            for (dv, &sv) in dst.iter_mut().zip(src) {
                                *dv += sv;
                            }
                        }
                    }
                }
            });
        }
        ws.give_matrix(xk);
        ws.give_matrix(local);
        crate::metrics::LMM_GATHER_ROWS.add(gathered as u64);
        crate::metrics::LMM_CORRECTION_CELLS.add(corrected as u64);
        Ok(())
    }

    /// The lengths of the two scratch buffers [`Self::lmm_into`] checks
    /// out of its workspace for an `n`-column operand: `MₖᵀX` of the
    /// source with the most columns, and the stacked rows (plain rows,
    /// slots and the sentinel) of the tallest source that gathers. Each
    /// call takes exactly these two, once, and reshapes them per source,
    /// so after `Workspace::reserve` of this list every call of width at
    /// most `n` is a pool hit.
    pub fn lmm_scratch(&self, n: usize) -> [usize; 2] {
        self.lmm_scratch_rows().map(|rows| rows * n)
    }

    fn lmm_scratch_rows(&self) -> [usize; 2] {
        let mut rows = [0, 0];
        for (k, (s, _, plan)) in self.sources().enumerate() {
            rows[0] = rows[0].max(s.mapping.source_cols());
            if !(k == 0 && plan.identity) {
                rows[1] = rows[1].max(plan.stacked_rows());
            }
        }
        rows
    }

    /// An alias of [`Self::lmm_into`], which is column-stable by
    /// construction; kept for callers that use this name.
    ///
    /// # Errors
    /// Shape errors as in [`Self::lmm_into`].
    pub fn lmm_colstable_into(
        &self,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        self.lmm_into(x, out, ws)
    }

    /// `Tᵀ · X` (`X` is `r_T × n`) written into the caller-owned `out`
    /// (`c_T × n`, fully overwritten), drawing all per-source
    /// intermediates from `ws` — the gradient-side operator of every
    /// GD-trained model (`Xᵀ·residual`).
    ///
    /// # Errors
    /// [`FactorizeError::OperandMismatch`] naming `lmm_transpose` for an
    /// `x` that is not `r_T × n`, or `lmm_transpose_into` for an `out`
    /// that is not `c_T × n`.
    pub fn lmm_transpose_into(
        &self,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        let (rows, cols) = self.target_shape();
        check_shape("lmm_transpose", (rows, x.cols()), x.shape())?;
        check_shape("lmm_transpose_into", (cols, x.cols()), out.shape())?;
        crate::metrics::LMM_TRANSPOSE_CALLS.inc();
        self.transpose_sources_into(
            x.cols(),
            out,
            ws,
            |plan, xk| {
                scatter_stacked(x, &plan.eff, xk);
                Ok(())
            },
            |d, local, _| Ok(d.transpose_matmul_into(x, local)?),
        )
    }

    /// Gram matrix `TᵀT` from source-level products (module docs):
    /// `Σ_{k,l} Mₖ Âₖᵀ (ÎₖᵀÎₗ) Âₗ Mₗᵀ`. No term is proportional to
    /// `r_T·c_T²`; the target rows are only walked once per source pair,
    /// to scatter one partner's rows into the other's.
    pub fn gram(&self) -> DenseMatrix {
        let (rows, cols) = self.target_shape();
        let mut g = DenseMatrix::zeros(cols, cols);
        let parts: Vec<(DenseMatrix, &SourcePlan)> =
            self.sources().map(|(_, d, p)| (p.stacked(d), p)).collect();
        let mut scattered_rows = 0;
        for (k, (a, plan)) in parts.iter().enumerate() {
            // Diagonal term Âₖᵀ·diag(c)·Âₖ, c = reads per stacked row.
            let mut weighted = a.clone();
            for (r, &c) in plan.counts.iter().enumerate() {
                weighted.row_mut(r).iter_mut().for_each(|v| *v *= c);
            }
            // Shapes agree by construction; a zero block is the
            // defensive fallback.
            let diag = a
                .transpose_matmul(&weighted)
                .unwrap_or_else(|_| DenseMatrix::zeros(a.cols(), a.cols()));
            for (p, &(tp, sp)) in plan.mapped.iter().enumerate() {
                for &(tq, sq) in &plan.mapped[p..] {
                    // One triangle feeds both cells: exactly symmetric.
                    let v = diag.get(sp, sq);
                    g.set(tp, tq, g.get(tp, tq) + v);
                    if tp != tq {
                        g.set(tq, tp, g.get(tq, tp) + v);
                    }
                }
            }
            for (b, other) in &parts[k + 1..] {
                // Scatter the side that makes `r_T·c + R·c·c'` smaller.
                let cost = |from: &DenseMatrix, into: &DenseMatrix| {
                    rows * from.cols() + into.rows() * from.cols() * into.cols()
                };
                let ((from, fp), (into, ip)) = if cost(a, b) <= cost(b, a) {
                    ((a, *plan), (b, *other))
                } else {
                    ((b, *other), (a, *plan))
                };
                // S = Î_intoᵀ Î_from Â_from, then Sᵀ·Â_into.
                let mut s = DenseMatrix::zeros(into.rows(), from.cols());
                for (&ef, &ei) in fp.eff.iter().zip(&ip.eff) {
                    if ef == fp.unmatched() || ei == ip.unmatched() {
                        continue;
                    }
                    scattered_rows += 1;
                    let dst = s.row_mut(ei as usize);
                    for (dv, &sv) in dst.iter_mut().zip(from.row(ef as usize)) {
                        *dv += sv;
                    }
                }
                let cross = s
                    .transpose_matmul(into)
                    .unwrap_or_else(|_| DenseMatrix::zeros(from.cols(), into.cols()));
                for &(tp, sp) in &fp.mapped {
                    for &(tq, sq) in &ip.mapped {
                        let v = cross.get(sp, sq);
                        g.set(tp, tq, g.get(tp, tq) + v);
                        g.set(tq, tp, g.get(tq, tp) + v);
                    }
                }
            }
        }
        crate::metrics::GRAM_SCATTER_ROWS.add(scattered_rows);
        g
    }

    /// Column sums `1ᵀT = Σₖ Mₖ Âₖᵀ c`, `c` the reads per stacked row.
    pub fn col_sums(&self) -> Vec<f64> {
        let (_, cols) = self.target_shape();
        let mut out = vec![0.0; cols];
        for (_, d, plan) in self.sources() {
            let a = plan.stacked(d);
            for (row, &c) in a.row_iter().zip(&plan.counts) {
                if c == 0.0 {
                    continue;
                }
                for &(t, sc) in &plan.mapped {
                    out[t] += c * row[sc];
                }
            }
        }
        out
    }

    /// Per-class column sums `Tᵀ·A` (`c_T × k`, `k = out.cols()`, fully
    /// overwritten) for the `r_T × k` one-hot matrix `A` of `class` — a
    /// Lloyd update's centroid numerators — without building `A`: each
    /// source scatters a `1.0` into cell `(eff[i], class[i])` of its
    /// stacked rows, which is all that scattering row `i` of `A` adds,
    /// then runs the slot corrections and the `Dₖᵀ` product of
    /// [`Self::lmm_transpose_into`] (module docs, "The base source in
    /// place"). Bit-identical to `lmm_transpose_into(A)` on finite tables.
    /// An identity source hands its whole term to
    /// [`DenseMatrix::class_sums_into`], so a ±∞ or NaN cell of such a
    /// source reaches only its own class's sum, where the product spreads
    /// NaN across the row of `out` — that function's documented
    /// degradation.
    ///
    /// # Errors
    /// `class.len() != r_T`, a class `≥ k`, or `out` not `c_T × k`.
    pub fn class_sums_into(
        &self,
        class: &[usize],
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        let (rows, cols) = self.target_shape();
        let k = out.cols();
        if class.len() != rows || class.iter().any(|&c| c >= k) {
            return Err(FactorizeError::OperandMismatch {
                op: "class_sums_into",
                expected: (rows, k),
                found: (class.len(), class.iter().max().map_or(0, |&c| c + 1)),
            });
        }
        check_shape("class_sums_into", (cols, k), out.shape())?;
        self.transpose_sources_into(
            k,
            out,
            ws,
            |plan, xk| {
                let cells = xk.as_mut_slice();
                cells.fill(0.0);
                for (&e, &c) in plan.eff.iter().zip(class) {
                    cells[e as usize * k + c] += 1.0;
                }
                Ok(())
            },
            |d, local, ws| Ok(d.class_sums_into(class, local, ws)?),
        )
    }

    /// The compressed `Tᵀ·X` body that [`Self::lmm_transpose_into`] and
    /// [`Self::class_sums_into`] share, for an `n`-column operand: per
    /// source, `scatter(plan, xk)` writes `Îₖᵀ X` over every cell of the
    /// stale `r_Sk + slots + 1` stacked rows of `xk`, the slot rows are folded into their plain
    /// rows and owe their masked cells back to `out`, and `Dₖᵀ` multiplies
    /// the plain rows; an identity source skips all of that and
    /// `in_place(Dₖ, local, ws)` computes `Dₖᵀ X` from the operand where
    /// it lies. Then `Mₖ` adds the source's term into `out`.
    fn transpose_sources_into(
        &self,
        n: usize,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
        mut scatter: impl FnMut(&SourcePlan, &mut DenseMatrix) -> Result<()>,
        mut in_place: impl FnMut(&DenseMatrix, &mut DenseMatrix, &mut Workspace) -> Result<()>,
    ) -> Result<()> {
        let (mut scattered, mut corrected) = (0, 0);
        out.as_mut_slice().fill(0.0);
        for (_, d, plan) in self.sources() {
            scattered += plan.matched_rows;
            corrected += plan.correction_cells * n;
            let mut local = ws.take_matrix(d.cols(), n);
            if plan.identity {
                // `Îₖᵀ X` is `X` with `−0` turned into `+0`, which no sum
                // of the product can tell apart (module docs).
                in_place(d, &mut local, ws)?;
            } else {
                // Îₖᵀ X: scatter target rows into stacked rows; the
                // sentinel row after the slots collects the uncovered
                // target rows and is dropped unread.
                let plain = d.rows();
                let mut xk = ws.take_matrix_stale(plan.stacked_rows(), n);
                scatter(plan, &mut xk)?;
                // A slot row is what its source row received through
                // group g: it owes out[j,:] −= Dₖ[r, CMₖ[j]]·slot for
                // j ∈ Z_g, and otherwise counts as the plain row, so it is
                // folded into it.
                let (plain_rows, slot_rows) = xk.as_mut_slice().split_at_mut(plain * n);
                for (slot, &(g, src)) in slot_rows.chunks_exact(n.max(1)).zip(&plan.slots) {
                    let d_row = d.row(src);
                    for &(j, sc) in plan.zero_of(g) {
                        let coef = d_row[sc];
                        for (ov, &xv) in out.row_mut(j).iter_mut().zip(slot) {
                            *ov -= coef * xv;
                        }
                    }
                    for (pv, &xv) in plain_rows[src * n..(src + 1) * n].iter_mut().zip(slot) {
                        *pv += xv;
                    }
                }
                xk.resize_rows(plain);
                // Dₖᵀ (Iₖᵀ X).
                d.transpose_matmul_into(&xk, &mut local)?;
                ws.give_matrix(xk);
            }
            // Mₖ (...): out[t,:] += local[CMₖ[t],:].
            for &(t, sc) in &plan.mapped {
                for (ov, &lv) in out.row_mut(t).iter_mut().zip(local.row(sc)) {
                    *ov += lv;
                }
            }
            ws.give_matrix(local);
        }
        crate::metrics::LMM_GATHER_ROWS.add(scattered as u64);
        crate::metrics::LMM_CORRECTION_CELLS.add(corrected as u64);
        Ok(())
    }
}

/// `Îₖᵀ X` into the stacked rows of `xk` (fully overwritten): target row
/// `i` of `x` is added into stacked row `eff[i]`, in ascending `i`. An
/// uncovered row lands in the sentinel row, which no caller reads.
fn scatter_stacked(x: &DenseMatrix, eff: &[u32], xk: &mut DenseMatrix) {
    let n = x.cols();
    let cells = xk.as_mut_slice();
    cells.fill(0.0);
    if n == 1 {
        for (&v, &e) in x.as_slice().iter().zip(eff) {
            cells[e as usize] += v;
        }
        return;
    }
    for (row, &e) in x.as_slice().chunks_exact(n.max(1)).zip(eff) {
        for (dv, &sv) in cells[e as usize * n..][..n].iter_mut().zip(row) {
            *dv += sv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{equation2_lmm, equation2_lmm_transpose, morpheus_lmm};
    use crate::table::tests::{figure2d_target, running_example};
    use crate::LinOps;
    use amalur_integration::DiMetadata;
    use amalur_matrix::NO_MATCH;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
    use rand::SeedableRng;

    /// Operand widths the batching and allocation tests sweep.
    const WIDTHS: [usize; 5] = [1, 2, 5, 9, 16];

    fn x_for(cols: usize, n: usize, seed: u64) -> DenseMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        DenseMatrix::random_uniform(cols, n, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn figure4c_lmm_rewrite() {
        // Figure 4c uses X = [[6,2],[5,2],[2,4],[3,9]]ᵀ-ish; we check the
        // exact example: T X with the compressed rewrite and with the
        // literal Equation (2) equals the materialized product.
        let ft = running_example();
        let x = DenseMatrix::from_rows(&[
            vec![6.0, 5.0],
            vec![3.0, 2.0],
            vec![2.0, 2.0],
            vec![4.0, 2.0],
        ])
        .unwrap();
        let reference = figure2d_target().matmul(&x).unwrap();
        let fact = ft.mul_right(&x).unwrap();
        assert!(fact.approx_eq(&reference, 1e-9));
        let literal = equation2_lmm(&ft, &x).unwrap();
        assert!(literal.approx_eq(&reference, 1e-9));
    }

    #[test]
    fn morpheus_rule_is_wrong_on_overlap() {
        // The running example has overlapping rows AND columns: rule (1)
        // either errors (our guard) — the paper's motivation for rule (2).
        let ft = running_example();
        let x = x_for(4, 2, 7);
        let err = morpheus_lmm(&ft, &x).unwrap_err();
        assert!(matches!(err, FactorizeError::UnsupportedByStrategy(_)));
    }

    /// A Morpheus-style configuration: disjoint columns, PK–FK rows.
    fn disjoint_example() -> FactorizedTable {
        // Fact table D1 (5×2) with rows mapping 1:1; dimension D2 (2×3)
        // with fan-out rows (PK–FK): target row i uses dim row i % 2.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let d1 = DenseMatrix::random_uniform(5, 2, -1.0, 1.0, &mut rng);
        let d2 = DenseMatrix::random_uniform(2, 3, -1.0, 1.0, &mut rng);
        let names = |cols: &[&str]| cols.iter().map(|&c| c.to_owned()).collect();
        let mut metadata = DiMetadata::new(names(&["a", "b", "c", "d", "e"]), 5);
        metadata
            .push_source(
                "fact",
                names(&["a", "b"]),
                vec![0, 1, NO_MATCH, NO_MATCH, NO_MATCH],
                vec![0, 1, 2, 3, 4],
                5,
            )
            .unwrap();
        metadata
            .push_source(
                "dim",
                names(&["c", "d", "e"]),
                vec![NO_MATCH, NO_MATCH, 0, 1, 2],
                vec![0, 1, 0, 1, 0],
                2,
            )
            .unwrap();
        // No overlap ⇒ Morpheus assumption holds.
        assert!(metadata.sources[1].redundancy().is_all_ones());
        FactorizedTable::new(metadata, vec![d1, d2]).unwrap()
    }

    #[test]
    fn all_strategies_agree_on_disjoint_sources() {
        let ft = disjoint_example();
        let t = ft.materialize();
        let x = x_for(5, 3, 1);
        let reference = t.matmul(&x).unwrap();
        let lmms = [
            ("compressed", ft.mul_right(&x)),
            ("equation (2)", equation2_lmm(&ft, &x)),
            ("morpheus", morpheus_lmm(&ft, &x)),
        ];
        for (rule, got) in lmms {
            assert!(got.unwrap().approx_eq(&reference, 1e-9), "{rule} diverged");
        }
        let y = x_for(5, 2, 2);
        let reference_t = t.transpose().matmul(&y).unwrap();
        for (rule, got) in [
            ("compressed", ft.t_mul(&y)),
            ("equation (2)", equation2_lmm_transpose(&ft, &y)),
        ] {
            assert!(
                got.unwrap().approx_eq(&reference_t, 1e-9),
                "{rule} diverged"
            );
        }
    }

    #[test]
    fn into_variants_match_allocating_operators() {
        let ft = running_example();
        let (rows, cols) = ft.target_shape();
        let x = x_for(cols, 3, 21);
        let y = x_for(rows, 2, 22);
        let mut ws = Workspace::new();
        // Dirty output buffers: `_into` must fully overwrite them.
        let mut out = DenseMatrix::filled(rows, 3, 7.0);
        ft.lmm_into(&x, &mut out, &mut ws).unwrap();
        assert!(out.approx_eq(&ft.mul_right(&x).unwrap(), 1e-12));
        let mut out_t = DenseMatrix::filled(cols, 2, -3.0);
        ft.lmm_transpose_into(&y, &mut out_t, &mut ws).unwrap();
        assert!(out_t.approx_eq(&ft.t_mul(&y).unwrap(), 1e-12));
        // Shape validation for the output parameter.
        let mut wrong = DenseMatrix::zeros(rows, 1);
        assert!(ft.lmm_into(&x, &mut wrong, &mut ws).is_err());
        assert!(ft.lmm_transpose_into(&y, &mut wrong, &mut ws).is_err());
    }

    #[test]
    fn lmm_into_overwrites_the_output_of_a_table_without_sources() {
        // No source ever assigns, so the kernel must clear `out` itself.
        let metadata = DiMetadata::new(vec!["a".into(), "b".into()], 3);
        let ft = FactorizedTable::new(metadata, Vec::new()).unwrap();
        let mut out = DenseMatrix::filled(3, 2, 7.0);
        ft.lmm_into(&x_for(2, 2, 1), &mut out, &mut Workspace::new())
            .unwrap();
        assert_eq!(out, DenseMatrix::zeros(3, 2));
    }

    #[test]
    fn lmm_colstable_columns_bit_identical_to_single_column_lmm() {
        // The serving-batch contract end to end: every column of a
        // batched factorized predict equals, bit for bit, the result of
        // serving that column alone through `lmm_into` — on the running
        // example, on a table whose last source has four groups and
        // slots read by many target rows, on a star whose base is
        // multiplied in place, and on every bent base that is gathered.
        let bent = [Base::NoMatchRow, Base::FanOutRead, Base::UnreadRow];
        let tables = [
            running_example(),
            multi_group_table(5),
            star_with_base(Base::Identity),
        ];
        for ft in tables.into_iter().chain(bent.map(star_with_base)) {
            let (rows, cols) = ft.target_shape();
            let mut ws = Workspace::new();
            for n in WIDTHS {
                let x = x_for(cols, n, 31 + n as u64);
                let mut batched = DenseMatrix::zeros(rows, n);
                ft.lmm_into(&x, &mut batched, &mut ws).unwrap();
                for j in 0..n {
                    let col = DenseMatrix::column_vector(&x.col(j));
                    let mut single = DenseMatrix::zeros(rows, 1);
                    ft.lmm_into(&col, &mut single, &mut ws).unwrap();
                    for i in 0..rows {
                        assert!(
                            batched.get(i, j).to_bits() == single.get(i, 0).to_bits(),
                            "batch width {n}, cell ({i},{j}) differs"
                        );
                    }
                }
                // And it is still the correct product.
                assert!(batched.approx_eq(&equation2_lmm(&ft, &x).unwrap(), 1e-12));
            }
        }
    }

    /// How [`star_with_base`] bends the base away from the identity.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Base {
        Identity,
        NoMatchRow,
        FanOutRead,
        UnreadRow,
    }

    /// An 11-row star: a 3-column base (bent as `bend` says) and a
    /// 4-column lookup read under fan-out, no shared column.
    fn star_with_base(bend: Base) -> FactorizedTable {
        let rt = 11;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA5E);
        let base_rows = match bend {
            Base::FanOutRead => rt - 1,
            Base::UnreadRow => rt + 1,
            _ => rt,
        };
        let mut ci0: Vec<i64> = (0..rt as i64).collect();
        match bend {
            Base::NoMatchRow => ci0[5] = NO_MATCH,
            Base::FanOutRead => ci0[rt - 1] = 0,
            _ => {}
        }
        let mut metadata = DiMetadata::new((0..7).map(|i| format!("c{i}")).collect(), rt);
        metadata
            .push_source(
                "base",
                (0..3).map(|i| format!("b{i}")).collect(),
                vec![0, 1, 2, NO_MATCH, NO_MATCH, NO_MATCH, NO_MATCH],
                ci0,
                base_rows,
            )
            .unwrap();
        metadata
            .push_source(
                "lookup",
                (0..4).map(|i| format!("l{i}")).collect(),
                vec![NO_MATCH, NO_MATCH, NO_MATCH, 0, 1, 2, 3],
                (0..rt).map(|i| (i % 4) as i64).collect(),
                4,
            )
            .unwrap();
        let data = vec![
            DenseMatrix::random_uniform(base_rows, 3, -2.0, 2.0, &mut rng),
            DenseMatrix::random_uniform(4, 4, -2.0, 2.0, &mut rng),
        ];
        FactorizedTable::new(metadata, data).unwrap()
    }

    /// The base's product goes into `out` in place only when its `Îₖ` is
    /// the identity; a `NO_MATCH` row, a fan-out read (fewer
    /// source rows than target rows) or an unread source row each keep
    /// the gather. Every case is `materialize()·X`.
    #[test]
    fn colstable_and_lmm_into_take_the_base_in_place_only_on_an_identity() {
        for bend in [
            Base::Identity,
            Base::NoMatchRow,
            Base::FanOutRead,
            Base::UnreadRow,
        ] {
            let ft = star_with_base(bend);
            let (_, _, base) = ft.sources().next().unwrap();
            assert_eq!(base.identity, bend == Base::Identity, "{bend:?}");
            assert!(base.slots.is_empty(), "{bend:?}");
            let (rows, cols) = ft.target_shape();
            let tol = amalur_gen::equivalence_tolerance(rows, cols, 1);
            let t = ft.materialize();
            let mut ws = Workspace::new();
            for n in [1, 3, 9] {
                let x = x_for(cols, n, 50 + n as u64);
                let want = t.matmul(&x).unwrap();
                let mut out = DenseMatrix::filled(rows, n, f64::NAN);
                ft.lmm_into(&x, &mut out, &mut ws).unwrap();
                assert!(out.approx_eq(&want, tol), "{bend:?}, n {n}");
            }
        }
    }

    /// `eff` coded as the gathers read it before the sentinel row: the
    /// stacked row, or `NO_MATCH` for an uncovered target row.
    fn eff_no_match(plan: &SourcePlan) -> Vec<i64> {
        let unmatched = plan.unmatched();
        plan.eff
            .iter()
            .map(|&e| {
                if e == unmatched {
                    NO_MATCH
                } else {
                    i64::from(e)
                }
            })
            .collect()
    }

    /// `T·X` with the gather that tests `NO_MATCH` per target row — the
    /// oracle of the sentinel row. Every source gathers, the base too.
    fn lmm_no_match(ft: &FactorizedTable, x: &DenseMatrix) -> DenseMatrix {
        let n = x.cols();
        let mut out = DenseMatrix::zeros(ft.target_shape().0, n);
        for (k, (s, d, plan)) in ft.sources().enumerate() {
            let xk = x
                .scatter_rows_add(s.mapping.compressed(), s.mapping.source_cols())
                .unwrap();
            let mut local = d.matmul(&xk).unwrap();
            let plain = d.rows();
            local.resize_rows(plain + plan.slots.len());
            for (slot, &(g, src)) in plan.slots.iter().enumerate() {
                let mut row = local.row(src).to_vec();
                for &(j, sc) in plan.zero_of(g) {
                    let coef = d.get(src, sc);
                    for (v, &xv) in row.iter_mut().zip(x.row(j)) {
                        *v -= coef * xv;
                    }
                }
                local.row_mut(plain + slot).copy_from_slice(&row);
            }
            for (i, &e) in eff_no_match(plan).iter().enumerate() {
                let dst = out.row_mut(i);
                if e == NO_MATCH {
                    if k == 0 {
                        dst.fill(0.0);
                    }
                    continue;
                }
                let src = local.row(e as usize);
                if k == 0 {
                    dst.copy_from_slice(src);
                } else {
                    for (dv, &sv) in dst.iter_mut().zip(src) {
                        *dv += sv;
                    }
                }
            }
        }
        out
    }

    /// `Tᵀ·X` as it was computed before an identity source read `X` in
    /// place and before the sentinel row, kept as the oracle of both:
    /// every source scatters `X` through `eff` into zeroed stacked rows,
    /// skipping `NO_MATCH`, folds its slots and multiplies by `Dₖᵀ`.
    fn lmm_transpose_scattered(ft: &FactorizedTable, x: &DenseMatrix) -> DenseMatrix {
        transpose_no_match(ft, x.cols(), |eff, xk| {
            x.scatter_rows_add_into(eff, xk).unwrap();
        })
    }

    /// The class sums with the one-hot scatter that tests `NO_MATCH`; an
    /// identity source's term is `Dₖ`'s own class sums, as in production.
    fn class_sums_no_match(ft: &FactorizedTable, class: &[usize], k: usize) -> DenseMatrix {
        let mut ws = Workspace::new();
        let mut out = DenseMatrix::zeros(ft.target_shape().1, k);
        for (_, d, plan) in ft.sources() {
            let local = if plan.identity {
                let mut local = DenseMatrix::zeros(d.cols(), k);
                d.class_sums_into(class, &mut local, &mut ws).unwrap();
                local
            } else {
                transpose_term_no_match(d, plan, k, &mut out, |eff, xk| {
                    for (&e, &c) in eff.iter().zip(class) {
                        if e != NO_MATCH {
                            xk.set(e as usize, c, xk.get(e as usize, c) + 1.0);
                        }
                    }
                })
            };
            for &(t, sc) in &plan.mapped {
                for (ov, &lv) in out.row_mut(t).iter_mut().zip(local.row(sc)) {
                    *ov += lv;
                }
            }
        }
        out
    }

    /// The compressed `Tᵀ·X` of an `n`-column operand, every source
    /// scattered by `scatter(eff coded with NO_MATCH, zeroed xk)`.
    fn transpose_no_match(
        ft: &FactorizedTable,
        n: usize,
        scatter: impl Fn(&[i64], &mut DenseMatrix),
    ) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(ft.target_shape().1, n);
        for (_, d, plan) in ft.sources() {
            let local = transpose_term_no_match(d, plan, n, &mut out, &scatter);
            for &(t, sc) in &plan.mapped {
                for (ov, &lv) in out.row_mut(t).iter_mut().zip(local.row(sc)) {
                    *ov += lv;
                }
            }
        }
        out
    }

    /// One source's `Dₖᵀ (Îₖᵀ X)` before `Mₖ`: the scatter into zeroed
    /// stacked rows, the slot fold (its masked cells owed to `out`), the
    /// product.
    fn transpose_term_no_match(
        d: &DenseMatrix,
        plan: &SourcePlan,
        n: usize,
        out: &mut DenseMatrix,
        scatter: impl Fn(&[i64], &mut DenseMatrix),
    ) -> DenseMatrix {
        let plain = d.rows();
        let mut xk = DenseMatrix::zeros(plain + plan.slots.len(), n);
        scatter(&eff_no_match(plan), &mut xk);
        for (s, &(g, src)) in plan.slots.iter().enumerate() {
            let slot = xk.row(plain + s).to_vec();
            for &(j, sc) in plan.zero_of(g) {
                let coef = d.get(src, sc);
                for (ov, &xv) in out.row_mut(j).iter_mut().zip(&slot) {
                    *ov -= coef * xv;
                }
            }
            for (pv, &xv) in xk.row_mut(src).iter_mut().zip(&slot) {
                *pv += xv;
            }
        }
        xk.resize_rows(plain);
        d.transpose_matmul(&xk).unwrap()
    }

    /// The gram with cross terms that test `NO_MATCH` per target row.
    fn gram_no_match(ft: &FactorizedTable) -> DenseMatrix {
        let (rows, cols) = ft.target_shape();
        let mut g = DenseMatrix::zeros(cols, cols);
        let parts: Vec<(DenseMatrix, &SourcePlan, Vec<i64>)> = ft
            .sources()
            .map(|(_, d, p)| (p.stacked(d), p, eff_no_match(p)))
            .collect();
        for (k, (a, plan, ae)) in parts.iter().enumerate() {
            let mut weighted = a.clone();
            for (r, &c) in plan.counts.iter().enumerate() {
                weighted.row_mut(r).iter_mut().for_each(|v| *v *= c);
            }
            let diag = a.transpose_matmul(&weighted).unwrap();
            for (p, &(tp, sp)) in plan.mapped.iter().enumerate() {
                for &(tq, sq) in &plan.mapped[p..] {
                    let v = diag.get(sp, sq);
                    g.set(tp, tq, g.get(tp, tq) + v);
                    if tp != tq {
                        g.set(tq, tp, g.get(tq, tp) + v);
                    }
                }
            }
            for (b, other, be) in &parts[k + 1..] {
                let cost = |from: &DenseMatrix, into: &DenseMatrix| {
                    rows * from.cols() + into.rows() * from.cols() * into.cols()
                };
                let ((from, fp, fe), (into, ip, ie)) = if cost(a, b) <= cost(b, a) {
                    ((a, plan, ae), (b, other, be))
                } else {
                    ((b, other, be), (a, plan, ae))
                };
                let mut s = DenseMatrix::zeros(into.rows(), from.cols());
                for (&ef, &ei) in fe.iter().zip(ie) {
                    if ef == NO_MATCH || ei == NO_MATCH {
                        continue;
                    }
                    let dst = s.row_mut(ei as usize);
                    for (dv, &sv) in dst.iter_mut().zip(from.row(ef as usize)) {
                        *dv += sv;
                    }
                }
                let cross = s.transpose_matmul(into).unwrap();
                for &(tp, sp) in &fp.mapped {
                    for &(tq, sq) in &ip.mapped {
                        let v = cross.get(sp, sq);
                        g.set(tp, tq, g.get(tp, tq) + v);
                        g.set(tq, tp, g.get(tq, tp) + v);
                    }
                }
            }
        }
        g
    }

    /// NR of the matrix crate's register panels.
    const NR: usize = 8;

    /// The sentinel row against the `NO_MATCH` branches it replaced, bit
    /// for bit: generated stars and snowflakes with slots at coverage
    /// 0.5, 0.9 and 1.0, and the multi-group table, at widths 1, 2, NR,
    /// NR + 1 and 16, with NaN, ±∞, −0 and +0 in the operands and in
    /// the sources.
    #[test]
    fn sentinel_gathers_are_bit_identical_to_the_no_match_oracle() {
        use amalur_gen::{ScenarioSpec, Topology};
        use rand::Rng;
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        let plant = |m: &mut DenseMatrix, every: usize| {
            for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
                if i % every == 1 {
                    *v = specials[(i / every) % specials.len()];
                }
            }
        };
        let mut tables = vec![multi_group_table(3), multi_group_table(9)];
        for (seed, coverage) in [(1, 0.5), (2, 0.9), (3, 1.0), (4, 0.5), (5, 0.9), (6, 1.0)] {
            let spec = ScenarioSpec {
                topology: if seed <= 3 {
                    Topology::Star { satellites: 2 }
                } else {
                    Topology::Snowflake { arms: 2, depth: 1 }
                },
                base_rows: 120 + seed as usize,
                base_cols: 4,
                dim_rows: 9,
                dim_cols: 3,
                shared_cols: 1,
                coverage,
                seed,
                ..ScenarioSpec::default()
            };
            let (metadata, data) = amalur_gen::generate(&spec).unwrap();
            tables.push(FactorizedTable::new(metadata, data).unwrap());
        }
        let (mut uncovered, mut slotted) = (0, 0);
        for (t, clean) in tables.iter().enumerate() {
            for ft in [clean.clone(), {
                let data = clean
                    .source_data()
                    .iter()
                    .map(|d| {
                        let mut d = d.clone();
                        plant(&mut d, 13);
                        d
                    })
                    .collect();
                FactorizedTable::new(clean.metadata().clone(), data).unwrap()
            }] {
                for (_, _, plan) in ft.sources() {
                    uncovered += plan.eff.iter().filter(|&&e| e == plan.unmatched()).count();
                    slotted += plan.slots.len();
                }
                let (rows, cols) = ft.target_shape();
                let mut ws = Workspace::new();
                for n in [1, 2, NR, NR + 1, 16] {
                    let seed = (t * 100 + n) as u64;
                    let mut x = x_for(cols, n, seed);
                    plant(&mut x, 7);
                    let mut out = DenseMatrix::filled(rows, n, 5.0);
                    ft.lmm_into(&x, &mut out, &mut ws).unwrap();
                    assert_eq!(
                        bits(&out),
                        bits(&lmm_no_match(&ft, &x)),
                        "lmm, table {t}, n {n}"
                    );
                    let mut y = x_for(rows, n, seed + 1);
                    plant(&mut y, 7);
                    let mut out_t = DenseMatrix::filled(cols, n, 5.0);
                    ft.lmm_transpose_into(&y, &mut out_t, &mut ws).unwrap();
                    let want = lmm_transpose_scattered(&ft, &y);
                    assert_eq!(bits(&out_t), bits(&want), "lmm_transpose, table {t}, n {n}");
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let class: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..n)).collect();
                    let mut sums = DenseMatrix::filled(cols, n, 5.0);
                    ft.class_sums_into(&class, &mut sums, &mut ws).unwrap();
                    let want = class_sums_no_match(&ft, &class, n);
                    assert_eq!(bits(&sums), bits(&want), "class sums, table {t}, n {n}");
                }
                assert_eq!(
                    bits(&ft.gram()),
                    bits(&gram_no_match(&ft)),
                    "gram, table {t}"
                );
            }
        }
        assert!(
            uncovered > 0 && slotted > 0,
            "{uncovered} uncovered rows, {slotted} slots"
        );
    }

    /// A source whose stacked rows cannot be indexed by `u32` is refused
    /// with a typed error, before anything is sized by its rows: a
    /// key-only source of 2³² rows puts its sentinel at index 2³².
    #[test]
    fn stacked_rows_past_u32_are_a_typed_error() {
        let rows = u32::MAX as usize + 1;
        let mut metadata = DiMetadata::new(vec!["c".into()], 2);
        metadata
            .push_source("wide", Vec::new(), vec![NO_MATCH], vec![0, NO_MATCH], rows)
            .unwrap();
        let got = FactorizedTable::new(metadata, vec![DenseMatrix::zeros(rows, 0)]);
        assert!(matches!(got, Err(FactorizeError::ShapeMismatch(_))));
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A generated star whose base source is the identity, with signed
    /// zeros planted in every source.
    fn generated_star(seed: u64, base_cols: usize) -> FactorizedTable {
        let spec = amalur_gen::ScenarioSpec {
            topology: amalur_gen::Topology::Star { satellites: 2 },
            base_rows: 300 + (seed % 5) as usize,
            base_cols,
            dim_rows: 7,
            dim_cols: 3,
            shared_cols: 1,
            coverage: 1.0,
            seed,
            ..amalur_gen::ScenarioSpec::default()
        };
        let (metadata, mut data) = amalur_gen::generate(&spec).unwrap();
        for d in &mut data {
            for (i, v) in d.as_mut_slice().iter_mut().enumerate() {
                match i % 11 {
                    3 => *v = -0.0,
                    7 => *v = 0.0,
                    _ => {}
                }
            }
        }
        FactorizedTable::new(metadata, data).unwrap()
    }

    /// An identity source multiplies `Dₖᵀ·X` straight from `X`: bit for
    /// bit the scatter path, with `−0`, `+0` and whole zero rows in `X`,
    /// at widths on the vector path, the thin kernel and the packed one,
    /// and on every other kind of base, which keeps the scatter.
    #[test]
    fn identity_transpose_lmm_is_bit_identical_to_the_scatter_path() {
        let mut tables = vec![generated_star(3, 4), generated_star(4, 9)];
        tables.extend(
            [
                Base::Identity,
                Base::NoMatchRow,
                Base::FanOutRead,
                Base::UnreadRow,
            ]
            .map(star_with_base),
        );
        let mut identities = 0;
        for ft in &tables {
            identities += usize::from(ft.sources().next().unwrap().2.identity);
            let rows = ft.target_shape().0;
            let mut ws = Workspace::new();
            for n in [1, 4, 9] {
                let mut x = x_for(rows, n, 70 + n as u64);
                for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                    match i % 5 {
                        1 => *v = -0.0,
                        3 if i % 2 == 0 => *v = 0.0,
                        _ => {}
                    }
                }
                for v in x.row_mut(rows / 2) {
                    *v = -0.0;
                }
                let mut out = DenseMatrix::filled(ft.target_shape().1, n, f64::NAN);
                ft.lmm_transpose_into(&x, &mut out, &mut ws).unwrap();
                assert_eq!(bits(&out), bits(&lmm_transpose_scattered(ft, &x)), "n {n}");
            }
        }
        assert_eq!(identities, 3, "two generated stars and one hand-built");
    }

    /// The factorized class sums against `Tᵀ·A` for the one-hot `A` they
    /// replace, into a dirty output.
    fn class_sums_and_product(ft: &FactorizedTable, class: &[usize], k: usize) -> [Vec<u64>; 2] {
        let (rows, cols) = ft.target_shape();
        let mut ws = Workspace::new();
        let mut onehot = DenseMatrix::zeros(rows, k);
        for (i, &c) in class.iter().enumerate() {
            onehot.set(i, c, 1.0);
        }
        let mut product = DenseMatrix::filled(cols, k, f64::NAN);
        ft.lmm_transpose_into(&onehot, &mut product, &mut ws)
            .unwrap();
        let mut sums = DenseMatrix::filled(cols, k, 123.0);
        ft.class_sums_into(class, &mut sums, &mut ws).unwrap();
        [bits(&sums), bits(&product)]
    }

    #[test]
    fn lmm_colstable_answers_a_zero_column_operand() {
        for ft in [running_example(), star_with_base(Base::Identity)] {
            let (rows, cols) = ft.target_shape();
            let mut out = DenseMatrix::zeros(rows, 0);
            ft.lmm_into(
                &DenseMatrix::zeros(cols, 0),
                &mut out,
                &mut Workspace::new(),
            )
            .unwrap();
            assert_eq!(out.shape(), (rows, 0));
        }
    }

    #[test]
    fn repeated_lmm_colstable_is_allocation_free_once_warm() {
        for ft in [
            running_example(),
            multi_group_table(6),
            star_with_base(Base::Identity),
        ] {
            let (rows, cols) = ft.target_shape();
            let mut ws = Workspace::new();
            for n in WIDTHS {
                let x = x_for(cols, n, 29);
                let mut out = DenseMatrix::zeros(rows, n);
                ft.lmm_into(&x, &mut out, &mut ws).unwrap();
                let warm = ws.fresh_allocations();
                for _ in 0..10 {
                    ft.lmm_into(&x, &mut out, &mut ws).unwrap();
                }
                assert_eq!(ws.fresh_allocations(), warm, "width {n}");
            }
        }
    }

    /// A base that is the identity and a second source that no target
    /// row reads.
    fn uncovered_source_table() -> FactorizedTable {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA7);
        let mut metadata = DiMetadata::new((0..4).map(|i| format!("c{i}")).collect(), 6);
        let ab = || vec!["a".to_owned(), "b".to_owned()];
        metadata
            .push_source(
                "base",
                ab(),
                vec![0, 1, NO_MATCH, NO_MATCH],
                (0..6).collect(),
                6,
            )
            .unwrap();
        metadata
            .push_source(
                "unread",
                ab(),
                vec![NO_MATCH, NO_MATCH, 0, 1],
                vec![NO_MATCH; 6],
                3,
            )
            .unwrap();
        let data = vec![
            DenseMatrix::random_uniform(6, 2, -1.0, 1.0, &mut rng),
            DenseMatrix::random_uniform(3, 2, -1.0, 1.0, &mut rng),
        ];
        FactorizedTable::new(metadata, data).unwrap()
    }

    /// Tables whose LMM scratch differs in kind: an identity base taken
    /// in place, gathered first sources (an uncovered row, a fan-out
    /// read), a multi-group source with shared slots, generated
    /// stars and snowflakes with partial coverage, a source no target row
    /// reads, and no source at all.
    fn scratch_tables() -> Vec<FactorizedTable> {
        let mut tables = vec![
            generated_star(3, 4),
            star_with_base(Base::NoMatchRow),
            star_with_base(Base::FanOutRead),
            multi_group_table(7),
            uncovered_source_table(),
        ];
        for (seed, topology) in [
            (1, amalur_gen::Topology::Star { satellites: 2 }),
            (4, amalur_gen::Topology::Snowflake { arms: 2, depth: 1 }),
        ] {
            let spec = amalur_gen::ScenarioSpec {
                topology,
                base_rows: 90,
                base_cols: 4,
                dim_rows: 9,
                dim_cols: 3,
                shared_cols: 1,
                coverage: 0.5,
                seed,
                ..amalur_gen::ScenarioSpec::default()
            };
            let (metadata, data) = amalur_gen::generate(&spec).unwrap();
            tables.push(FactorizedTable::new(metadata, data).unwrap());
        }
        let metadata = DiMetadata::new(vec!["a".into(), "b".into()], 3);
        tables.push(FactorizedTable::new(metadata, Vec::new()).unwrap());
        tables
    }

    /// `lmm_into` overwrites every cell of `out` and of the scratch it
    /// takes without a zero fill: into a NaN `out`, through a pool whose
    /// buffers are full of NaN, it gives the bits of a run on a zeroed
    /// `out` and fresh, zeroed scratch.
    #[test]
    fn lmm_into_ignores_stale_scratch() {
        for (t, ft) in scratch_tables().iter().enumerate() {
            let (rows, cols) = ft.target_shape();
            let mut stale = nan_pool(&ft.lmm_scratch(16));
            for n in [1, 2, NR, NR + 1, 16] {
                let x = x_for(cols, n, (t * 100 + n) as u64);
                let mut want = DenseMatrix::zeros(rows, n);
                ft.lmm_into(&x, &mut want, &mut Workspace::new()).unwrap();
                let mut got = DenseMatrix::filled(rows, n, f64::NAN);
                ft.lmm_into(&x, &mut got, &mut stale).unwrap();
                assert_eq!(bits(&got), bits(&want), "table {t}, n {n}");
            }
        }
    }

    /// A pool holding one NaN-filled buffer per entry of `lens`.
    fn nan_pool(lens: &[usize]) -> Workspace {
        let mut ws = Workspace::new();
        let bufs: Vec<_> = lens.iter().map(|&len| ws.take(len)).collect();
        for mut buf in bufs {
            buf.fill(f64::NAN);
            ws.give(buf);
        }
        ws
    }

    /// A pool whose every take, of either of the two buffers a `Tᵀ·X`
    /// source has out at once, at width ≤ 16, hits a NaN-filled buffer.
    fn nan_pool_for_transpose(ft: &FactorizedTable) -> Workspace {
        let len = ft.lmm_scratch(16).into_iter().max().unwrap_or(0);
        nan_pool(&[len, len])
    }

    /// `lmm_transpose_into` overwrites every cell of the stacked scratch
    /// it takes without a zero fill: into a NaN `out`, through a pool of
    /// NaN buffers, it gives the bits of a run on zeroed scratch.
    #[test]
    fn lmm_transpose_into_ignores_stale_scratch() {
        for (t, ft) in scratch_tables().iter().enumerate() {
            let (rows, cols) = ft.target_shape();
            let mut stale = nan_pool_for_transpose(ft);
            for n in [1, 2, NR, NR + 1, 16] {
                let y = x_for(rows, n, (t * 100 + n) as u64);
                let mut want = DenseMatrix::zeros(cols, n);
                ft.lmm_transpose_into(&y, &mut want, &mut Workspace::new())
                    .unwrap();
                let mut got = DenseMatrix::filled(cols, n, f64::NAN);
                ft.lmm_transpose_into(&y, &mut got, &mut stale).unwrap();
                assert_eq!(bits(&got), bits(&want), "table {t}, n {n}");
            }
        }
    }

    /// `class_sums_into` likewise: through a pool of NaN buffers, into a
    /// NaN `out`, the bits of a run on zeroed scratch.
    #[test]
    fn class_sums_into_ignores_stale_scratch() {
        for (t, ft) in scratch_tables().iter().enumerate() {
            let (rows, cols) = ft.target_shape();
            let mut stale = nan_pool_for_transpose(ft);
            for k in [1, 2, NR, NR + 1, 16] {
                let class: Vec<usize> = (0..rows).map(|i| (i * 7 + t) % k).collect();
                let mut want = DenseMatrix::zeros(cols, k);
                ft.class_sums_into(&class, &mut want, &mut Workspace::new())
                    .unwrap();
                let mut got = DenseMatrix::filled(cols, k, f64::NAN);
                ft.class_sums_into(&class, &mut got, &mut stale).unwrap();
                assert_eq!(bits(&got), bits(&want), "table {t}, k {k}");
            }
        }
    }

    /// `lmm_scratch(w)` is every buffer `lmm_into` takes at width `w`:
    /// reserved once, it serves every narrower call from the pool.
    #[test]
    fn lmm_scratch_reservation_is_exact() {
        for (t, ft) in scratch_tables().iter().enumerate() {
            let (rows, cols) = ft.target_shape();
            for w in [1, NR, 16] {
                let mut ws = Workspace::new();
                ws.reserve(&ft.lmm_scratch(w));
                let reserved = ws.fresh_allocations();
                for n in 1..=w {
                    let mut out = DenseMatrix::zeros(rows, n);
                    ft.lmm_into(&x_for(cols, n, n as u64), &mut out, &mut ws)
                        .unwrap();
                }
                assert_eq!(ws.fresh_allocations(), reserved, "table {t}, width {w}");
            }
        }
    }

    /// What a call checks out it gives back in full, so once the first
    /// calls have sized the pool the high-water mark stops moving.
    #[test]
    fn workspace_high_water_is_flat_once_warm() {
        for (t, ft) in scratch_tables().iter().enumerate() {
            let (rows, cols) = ft.target_shape();
            let n = 3;
            let x = x_for(cols, n, 5);
            let y = x_for(rows, n, 6);
            let class: Vec<usize> = (0..rows).map(|i| i % n).collect();
            let (mut out, mut out_t) = (DenseMatrix::zeros(rows, n), DenseMatrix::zeros(cols, n));
            let mut ws = Workspace::new();
            let mut round = |ws: &mut Workspace| {
                ft.lmm_into(&x, &mut out, ws).unwrap();
                ft.lmm_transpose_into(&y, &mut out_t, ws).unwrap();
                ft.class_sums_into(&class, &mut out_t, ws).unwrap();
            };
            round(&mut ws);
            let high_water = ws.high_water_elems();
            for _ in 0..50 {
                round(&mut ws);
            }
            assert_eq!(ws.high_water_elems(), high_water, "table {t}");
        }
    }

    #[test]
    fn repeated_lmm_into_is_allocation_free_once_warm() {
        for ft in [running_example(), multi_group_table(7)] {
            let (rows, cols) = ft.target_shape();
            let mut ws = Workspace::new();
            for n in WIDTHS {
                let x = x_for(cols, n, 23);
                let y = x_for(rows, n, 24);
                let mut out = DenseMatrix::zeros(rows, n);
                let mut out_t = DenseMatrix::zeros(cols, n);
                ft.lmm_into(&x, &mut out, &mut ws).unwrap();
                ft.lmm_transpose_into(&y, &mut out_t, &mut ws).unwrap();
                let warm = ws.fresh_allocations();
                for _ in 0..10 {
                    ft.lmm_into(&x, &mut out, &mut ws).unwrap();
                    ft.lmm_transpose_into(&y, &mut out_t, &mut ws).unwrap();
                }
                assert_eq!(ws.fresh_allocations(), warm, "width {n}");
            }
        }
    }

    #[test]
    fn lmm_transpose_matches_materialized() {
        let ft = running_example();
        let x = x_for(6, 3, 3);
        let reference = figure2d_target().transpose().matmul(&x).unwrap();
        assert!(ft.t_mul(&x).unwrap().approx_eq(&reference, 1e-9));
        assert!(equation2_lmm_transpose(&ft, &x)
            .unwrap()
            .approx_eq(&reference, 1e-9));
    }

    /// Right multiplication `X·T` through the transposed product,
    /// `(Tᵀ·Xᵀ)ᵀ`.
    #[test]
    fn rmm_matches_materialized() {
        let ft = running_example();
        let x = x_for(2, 6, 4);
        let reference = x.matmul(&figure2d_target()).unwrap();
        let got = ft.t_mul(&x.transpose()).unwrap().transpose();
        assert!(got.approx_eq(&reference, 1e-9));
    }

    #[test]
    fn gram_matches_materialized() {
        let ft = running_example();
        let t = figure2d_target();
        let reference = t.gram();
        assert!(ft.gram().approx_eq(&reference, 1e-9));
    }

    #[test]
    fn sums_match_materialized() {
        let ft = running_example();
        let t = figure2d_target();
        let cs = ft.col_sums();
        for (a, b) in cs.iter().zip(t.col_sums()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn shape_errors() {
        let ft = running_example();
        let bad = DenseMatrix::zeros(3, 2);
        assert!(ft.mul_right(&bad).is_err());
        assert!(ft.t_mul(&bad).is_err());
        assert!(equation2_lmm(&ft, &bad).is_err());
        assert!(equation2_lmm_transpose(&ft, &bad).is_err());
    }

    #[test]
    fn every_lmm_entry_point_names_itself_in_shape_errors() {
        let ft = running_example();
        let (rows, cols) = ft.target_shape();
        let ws = &mut Workspace::new();
        let (x, y) = (DenseMatrix::zeros(cols, 2), DenseMatrix::zeros(rows, 2));
        // One row too many for either operator, and an output no call fits.
        let bad_x = DenseMatrix::zeros(cols + 1, 2);
        let bad_y = DenseMatrix::zeros(rows + 1, 2);
        let out = &mut DenseMatrix::zeros(rows, 2);
        let out_t = &mut DenseMatrix::zeros(cols, 2);
        let bad_out = &mut DenseMatrix::zeros(rows + cols, 3);
        let cases = [
            ("lmm", ft.mul_right(&bad_x).map(drop)),
            ("equation2_lmm", equation2_lmm(&ft, &bad_x).map(drop)),
            ("morpheus_lmm", morpheus_lmm(&ft, &bad_x).map(drop)),
            ("lmm", ft.lmm_into(&bad_x, out, ws)),
            ("lmm_into", ft.lmm_into(&x, bad_out, ws)),
            // The alias is `lmm_into` and names it.
            ("lmm", ft.lmm_colstable_into(&bad_x, out, ws)),
            ("lmm_into", ft.lmm_colstable_into(&x, bad_out, ws)),
            ("lmm_transpose", ft.t_mul(&bad_y).map(drop)),
            (
                "equation2_lmm_transpose",
                equation2_lmm_transpose(&ft, &bad_y).map(drop),
            ),
            ("lmm_transpose", ft.lmm_transpose_into(&bad_y, out_t, ws)),
            ("lmm_transpose_into", ft.lmm_transpose_into(&y, bad_out, ws)),
        ];
        for (want, got) in cases {
            match got {
                Err(FactorizeError::OperandMismatch { op, .. }) => assert_eq!(op, want),
                other => panic!("{want}: expected OperandMismatch, got {other:?}"),
            }
        }
        // The same wrappers accept well-shaped operands.
        ft.lmm_into(&x, out, ws).unwrap();
        ft.lmm_colstable_into(&x, out, ws).unwrap();
        ft.lmm_transpose_into(&y, out_t, ws).unwrap();
    }

    #[test]
    fn pk_fk_fanout_duplicates_dimension_rows() {
        // Classic Morpheus setting: the dimension row is reused by many
        // target rows; column sums must weight by the fan-out.
        let ft = disjoint_example();
        let t = ft.materialize();
        let cs = ft.col_sums();
        for (a, b) in cs.iter().zip(t.col_sums()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_factorized_lmm_equals_materialized(
            seed in 0u64..u64::MAX, n in 1usize..4,
        ) {
            // Random silo configuration: random sizes, random overlap.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let ft = random_factorized(&mut rng);
            let t = ft.materialize();
            let x = DenseMatrix::random_uniform(t.cols(), n, -1.0, 1.0, &mut rng);
            let reference = t.matmul(&x).unwrap();
            prop_assert!(ft.mul_right(&x).unwrap().approx_eq(&reference, 1e-9));
            prop_assert!(equation2_lmm(&ft, &x).unwrap().approx_eq(&reference, 1e-9));
            let y = DenseMatrix::random_uniform(t.rows(), n, -1.0, 1.0, &mut rng);
            let reference_t = t.transpose().matmul(&y).unwrap();
            prop_assert!(ft.t_mul(&y).unwrap().approx_eq(&reference_t, 1e-9));
            prop_assert!(equation2_lmm_transpose(&ft, &y).unwrap().approx_eq(&reference_t, 1e-9));
            prop_assert!(ft.gram().approx_eq(&t.gram(), 1e-8));
        }
    }

    /// Generates a random two-source factorized table with row and column
    /// overlaps (full-outer-join shape).
    fn random_factorized(rng: &mut rand::rngs::StdRng) -> FactorizedTable {
        use rand::Rng;
        let r1 = rng.gen_range(1usize..8);
        let r2 = rng.gen_range(1usize..8);
        let shared_cols = rng.gen_range(0..3usize);
        let own1 = rng.gen_range(1..4usize);
        let own2 = rng.gen_range(1..4usize);
        let c1 = shared_cols + own1;
        let c2 = shared_cols + own2;
        let ct = shared_cols + own1 + own2;
        // Row matching: each left row matches a distinct right row with p=0.5.
        let matched: Vec<(usize, usize)> = (0..r1.min(r2))
            .filter(|_| rng.gen_bool(0.5))
            .enumerate()
            .map(|(j, _)| (j, j))
            .collect();
        let matched_right: Vec<bool> = {
            let mut v = vec![false; r2];
            for &(_, r) in &matched {
                v[r] = true;
            }
            v
        };
        let rt = r1 + r2 - matched.len();
        // CI1: left rows 0..r1 then -1s.
        let mut ci1: Vec<i64> = (0..r1 as i64).collect();
        ci1.extend(std::iter::repeat_n(NO_MATCH, rt - r1));
        // CI2: matched rows at left positions, unmatched appended.
        let mut ci2: Vec<i64> = vec![NO_MATCH; rt];
        for &(l, r) in &matched {
            ci2[l] = r as i64;
        }
        let mut tail = r1;
        for (r, &m) in matched_right.iter().enumerate() {
            if !m {
                ci2[tail] = r as i64;
                tail += 1;
            }
        }
        // CM1: shared cols then own1; CM2: shared cols then own2 at the end.
        let mut cm1: Vec<i64> = Vec::with_capacity(ct);
        let mut cm2: Vec<i64> = Vec::with_capacity(ct);
        for j in 0..ct {
            if j < shared_cols {
                cm1.push(j as i64);
                cm2.push(j as i64);
            } else if j < shared_cols + own1 {
                cm1.push(j as i64);
                cm2.push(NO_MATCH);
            } else {
                cm1.push(NO_MATCH);
                cm2.push((j - own1) as i64);
            }
        }
        // Consistent shared values: build D2 so matched rows agree on
        // shared columns with D1.
        let d1 = DenseMatrix::random_uniform(r1, c1, -2.0, 2.0, rng);
        let mut d2 = DenseMatrix::random_uniform(r2, c2, -2.0, 2.0, rng);
        for &(l, r) in &matched {
            for c in 0..shared_cols {
                d2.set(r, c, d1.get(l, c));
            }
        }
        let mut metadata = DiMetadata::new((0..ct).map(|i| format!("c{i}")).collect(), rt);
        metadata
            .push_source(
                "L",
                (0..c1).map(|i| format!("l{i}")).collect(),
                cm1,
                ci1,
                r1,
            )
            .unwrap();
        metadata
            .push_source(
                "R",
                (0..c2).map(|i| format!("r{i}")).collect(),
                cm2,
                ci2,
                r2,
            )
            .unwrap();
        FactorizedTable::new(metadata, vec![d1, d2]).unwrap()
    }
    /// Three sources where the last overlaps *both* earlier ones on
    /// different row sets: S1 maps target columns 0–3, S2 maps 2–5, S3
    /// maps {0, 1, 4, 6, 7, 8}. S3's rows fall into four groups (∅,
    /// {0,1}, {4}, {0,1,4}) depending on which earlier source covers
    /// them, and its few source rows fan out, so one slot serves many
    /// target rows. Matching is random with misses everywhere.
    fn random_multi_group(rng: &mut rand::rngs::StdRng) -> FactorizedTable {
        use rand::Rng;
        let rt = rng.gen_range(1usize..48);
        let maps: [&[i64]; 3] = [
            &[0, 1, 2, 3, NO_MATCH, NO_MATCH, NO_MATCH, NO_MATCH, NO_MATCH],
            &[NO_MATCH, NO_MATCH, 0, 1, 2, 3, NO_MATCH, NO_MATCH, NO_MATCH],
            &[0, 1, NO_MATCH, NO_MATCH, 2, NO_MATCH, 3, 4, 5],
        ];
        let hit = [0.7, 0.6, 0.85];
        let mut metadata = DiMetadata::new((0..9).map(|i| format!("c{i}")).collect(), rt);
        let mut data = Vec::new();
        for (k, cm) in maps.iter().enumerate() {
            let src_rows = if k == 2 {
                rng.gen_range(1usize..5)
            } else {
                rng.gen_range(1usize..12)
            };
            let src_cols = cm.iter().filter(|&&c| c != NO_MATCH).count();
            let ci: Vec<i64> = (0..rt)
                .map(|_| {
                    if rng.gen_bool(hit[k]) {
                        rng.gen_range(0..src_rows) as i64
                    } else {
                        NO_MATCH
                    }
                })
                .collect();
            metadata
                .push_source(
                    format!("S{}", k + 1),
                    (0..src_cols).map(|c| format!("s{k}_{c}")).collect(),
                    cm.to_vec(),
                    ci,
                    src_rows,
                )
                .unwrap();
            data.push(DenseMatrix::random_uniform(
                src_rows, src_cols, -2.0, 2.0, rng,
            ));
        }
        FactorizedTable::new(metadata, data).unwrap()
    }

    /// A fixed draw of [`random_multi_group`] that really has all four
    /// groups in its last source and slots shared between target rows.
    fn multi_group_table(seed: u64) -> FactorizedTable {
        (seed..)
            .map(|s| random_multi_group(&mut rand::rngs::StdRng::seed_from_u64(s)))
            .find(|ft| {
                let s3 = &ft.metadata().sources[2];
                let slots = s3.redundancy().slots(&s3.indicator).len();
                let corrected = (0..ft.target_shape().0)
                    .filter(|&i| {
                        s3.redundancy().group_of(i) != 0 && s3.indicator.compressed()[i] != NO_MATCH
                    })
                    .count();
                s3.redundancy().group_count() == 4 && slots > 0 && corrected >= 2 * slots
            })
            .unwrap()
    }

    /// Every compressed operator against its two oracles — the literal
    /// Equation (2) (`reference::equation2_*`) and `materialize()` —
    /// within the rounding model's tolerance.
    fn assert_operators_match_oracles(ft: &FactorizedTable, n: usize, seed: u64) {
        let (rows, cols) = ft.target_shape();
        let tol = amalur_gen::equivalence_tolerance(rows, cols, 1);
        let t = ft.materialize();
        let x = x_for(cols, n, seed);
        let got = ft.mul_right(&x).unwrap();
        assert!(got.approx_eq(&t.matmul(&x).unwrap(), tol));
        assert!(got.approx_eq(&equation2_lmm(ft, &x).unwrap(), tol));
        let y = x_for(rows, n, seed + 1);
        let got_t = ft.t_mul(&y).unwrap();
        assert!(got_t.approx_eq(&t.transpose_matmul(&y).unwrap(), tol));
        assert!(got_t.approx_eq(&equation2_lmm_transpose(ft, &y).unwrap(), tol));
        let gram = ft.gram();
        assert!(gram.approx_eq(&t.gram(), tol));
        assert_eq!(gram, gram.transpose(), "gram must be exactly symmetric");
        let close = |a: &[f64], b: &[f64]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(&a, &b)| amalur_matrix::approx_eq(a, b, tol))
        };
        let norms: Vec<f64> = t
            .row_iter()
            .map(|r| r.iter().map(|v| v * v).sum())
            .collect();
        assert!(close(&ft.row_norms_sq(), &norms));
        assert!(close(&ft.col_sums(), &t.col_sums()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_multi_group_operators_match_oracles(seed in 0u64..u64::MAX, n in 1usize..6) {
            let ft = random_multi_group(&mut rand::rngs::StdRng::seed_from_u64(seed));
            assert_operators_match_oracles(&ft, n, seed);
        }

        /// Factorized class sums against the one-hot product on every
        /// topology the generator knows, the multi-group table and the
        /// hand-built bases, bit for bit: `k` on both sides of every
        /// kernel boundary, signed zeros in the sources.
        #[test]
        fn prop_factorized_class_sums_are_bit_identical_to_one_hot_product(
            seed in 0u64..u64::MAX,
            topology in 0usize..4,
            shared_cols in 1usize..3,
            coverage in 0.4f64..1.0,
            k in 1usize..13,
        ) {
            use amalur_gen::{ScenarioSpec, Topology};
            use rand::Rng;
            let spec = ScenarioSpec {
                topology: match topology {
                    0 => Topology::Star { satellites: 2 },
                    1 => Topology::Snowflake { arms: 2, depth: 1 },
                    2 => Topology::Chain { hops: 2 },
                    _ => Topology::ManyToMany,
                },
                base_rows: 24 + (seed % 300) as usize,
                base_cols: 4,
                dim_rows: 3 + (seed % 7) as usize,
                dim_cols: 3,
                shared_cols,
                coverage,
                seed,
                ..ScenarioSpec::default()
            };
            let (metadata, mut data) = amalur_gen::generate(&spec).unwrap();
            for d in &mut data {
                for v in d.as_mut_slice().iter_mut().step_by(5) {
                    *v = -0.0;
                }
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for ft in [
                FactorizedTable::new(metadata, data).unwrap(),
                multi_group_table(seed % 8),
                star_with_base([Base::Identity, Base::FanOutRead, Base::UnreadRow][(seed % 3) as usize]),
            ] {
                let class: Vec<usize> = (0..ft.target_shape().0).map(|_| rng.gen_range(0..k)).collect();
                let [got, want] = class_sums_and_product(&ft, &class, k);
                prop_assert_eq!(got, want);
            }
        }

        /// Generated scenarios from all four topologies, with shared
        /// columns, partial coverage and at least two non-base sources.
        /// (The generator's shared windows are disjoint slices of the
        /// base, so its sources have one non-empty group each; several
        /// groups per source are `random_multi_group`'s job.)
        #[test]
        fn prop_generated_scenarios_match_oracles(
            seed in 0u64..u64::MAX,
            topology in 0usize..4,
            extra in 0usize..2,
            shared_cols in 1usize..3,
            coverage in 0.4f64..0.95,
            skew in 0.0f64..1.0,
            n in 1usize..4,
        ) {
            use amalur_gen::{ScenarioSpec, Topology};
            let spec = ScenarioSpec {
                topology: match topology {
                    0 => Topology::Star { satellites: 2 + extra },
                    1 => Topology::Snowflake { arms: 2, depth: 1 + extra },
                    2 => Topology::Chain { hops: 2 + extra },
                    _ => Topology::ManyToMany,
                },
                base_rows: 24 + (seed % 40) as usize,
                base_cols: 4 + extra,
                dim_rows: 3 + (seed % 7) as usize,
                dim_cols: 3 + extra,
                skew,
                shared_cols,
                coverage,
                seed,
                ..ScenarioSpec::default()
            };
            let (metadata, data) = amalur_gen::generate(&spec).unwrap();
            let ft = FactorizedTable::new(metadata, data).unwrap();
            assert_operators_match_oracles(&ft, n, seed);
        }
    }
}
