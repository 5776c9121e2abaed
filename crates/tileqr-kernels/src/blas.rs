//! Small BLAS-like helpers used by the tile kernels.
//!
//! These are deliberately specialized (left-multiplication by a small upper
//! triangular matrix, `C ± A·B`, `Aᴴ·B`) rather than a general GEMM: each
//! kernel's update is expressed with two or three of these calls, which keeps
//! the kernel code close to the mathematics in the paper and in the LAPACK
//! `larfb`/`tpmqrt` routines they mirror.
//!
//! Two families live here:
//!
//! * the original allocating helpers ([`conj_trans_mul`],
//!   [`conj_trans_mul_unit_lower`], …) that return fresh matrices — kept for
//!   API compatibility and as the readable reference formulation;
//! * *panel* helpers ([`copy_unit_lower_panel`], [`trmm_upper_left_window`],
//!   [`copy_rows_window_into`], …) used by the inner-blocked (`ib`) kernels:
//!   they handle what surrounds the products with a reflector panel (the
//!   dense copy of a unit-lower trapezoid, the `T`-factor `trmm`, the
//!   pivot-row staging), while every product with the panel, its triangle
//!   included, goes through the register-tiled [`crate::microblas`] backend.
//!   Operand columns are supplied as accessor closures and destinations as
//!   raw column-major buffers plus a column-offset map, so the same code
//!   serves dense tiles and `split_at_mut` windows.
//!
//! The `Tᴴ` product of [`trmm_upper_left_window`] and the column-by-column
//! reflector sweeps of the factorization kernels reduce through
//! [`dot_conj`], which splits the accumulation into four independent chains
//! so the CPU is not serialized on floating-point add latency; the
//! micro-BLAS path gets its instruction-level parallelism from the
//! `MR × NR` register block instead.

use tileqr_matrix::{Matrix, Scalar};

/// Conjugated dot product `aᴴ · b` with four independent accumulators.
///
/// A single-accumulator reduction is latency-bound: every fused
/// multiply-add waits for the previous one. Splitting the sum into four
/// interleaved partial sums exposes instruction-level parallelism (the
/// compiler cannot do this itself because it must preserve the floating-point
/// summation order). The result differs from the sequential sum only by
/// rounding.
#[inline]
pub fn dot_conj<T: Scalar>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len(), "dot_conj: length mismatch");
    let mut acc0 = T::ZERO;
    let mut acc1 = T::ZERO;
    let mut acc2 = T::ZERO;
    let mut acc3 = T::ZERO;
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        acc0 += x[0].conj() * y[0];
        acc1 += x[1].conj() * y[1];
        acc2 += x[2].conj() * y[2];
        acc3 += x[3].conj() * y[3];
    }
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc0 += x.conj() * y;
    }
    (acc0 + acc1) + (acc2 + acc3)
}

// ---------------------------------------------------------------------------
// Panel helpers for the inner-blocked (`ib`) kernels.
//
// Under inner blocking a reflector panel covers tile columns `j0 .. j0+w`
// (`w ≤ ib`). Every product with a panel, its `w × w` triangle included, runs
// on `crate::microblas::gemm_into` as a zero-padded GEMM: the packed-upper
// TT panels pass their short packed columns (the microkernel pads them with
// zeros), and the unit-lower GEQRT panels are first copied into a dense
// trapezoid by `copy_unit_lower_panel`. The helpers below handle what is left
// around those products: the trapezoid copy, the pivot-row staging of the
// stacked TS/TT reflectors and the `T`-factor `trmm`. Target columns are
// addressed through a raw buffer + offset map so tiles and split windows
// both work.
// ---------------------------------------------------------------------------

/// Copies the unit-lower trapezoid of a reflector panel into `dst`: rows
/// `j0 .. nb` of columns `j0 .. j0+w` of a GEQRT-factored tile, as a dense
/// `(nb − j0) × w` column-major block with zeros above the diagonal, ones on
/// it and the stored Householder vectors below it. `vcol(k)` yields the full
/// column `k` of the tile; the `R` entries above its diagonal are never read.
pub fn copy_unit_lower_panel<'a, T: Scalar + 'a>(
    vcol: impl Fn(usize) -> &'a [T],
    j0: usize,
    w: usize,
    nb: usize,
    dst: &mut [T],
) {
    let ld = nb - j0;
    assert!(dst.len() >= ld * w, "panel buffer too small");
    for (p, col) in dst[..ld * w].chunks_exact_mut(ld).enumerate() {
        col[..p].fill(T::ZERO);
        col[p] = T::ONE;
        col[p + 1..].copy_from_slice(&vcol(j0 + p)[j0 + p + 1..nb]);
    }
}

/// `W(r, j) := C[r0+r, j]` for `r < w`, `j < width` — stages the pivot-row
/// window of a TS/TT target (the identity top block of the stacked reflector
/// contributes these rows directly).
pub fn copy_rows_window_into<T: Scalar>(
    c: &[T],
    coff: impl Fn(usize) -> usize,
    r0: usize,
    w: usize,
    width: usize,
    wmat: &mut Matrix<T>,
) {
    assert!(
        wmat.rows() >= w && wmat.cols() >= width,
        "staging panel too small"
    );
    for j in 0..width {
        let base = coff(j) + r0;
        wmat.col_mut(j)[..w].copy_from_slice(&c[base..base + w]);
    }
}

/// `C[r0+r, j] -= W(r, j)` — the in-place companion of
/// [`copy_rows_window_into`].
pub fn sub_rows_window_assign<T: Scalar>(
    c: &mut [T],
    coff: impl Fn(usize) -> usize,
    r0: usize,
    w: usize,
    width: usize,
    wmat: &Matrix<T>,
) {
    assert!(
        wmat.rows() >= w && wmat.cols() >= width,
        "staging panel too small"
    );
    for j in 0..width {
        let base = coff(j) + r0;
        for (ci, &wi) in c[base..base + w].iter_mut().zip(&wmat.col(j)[..w]) {
            *ci -= wi;
        }
    }
}

/// In-place `B(:, 0..width) := op(T_s) · B(:, 0..width)` for the `w × w`
/// upper triangular panel factor stored `ib`-blocked at rows `0..w` of
/// columns `t_c0 .. t_c0+w` of `t` (a staging panel `b` may have more
/// rows/columns than that).
pub fn trmm_upper_left_window<T: Scalar>(
    t: &Matrix<T>,
    t_c0: usize,
    w: usize,
    b: &mut Matrix<T>,
    width: usize,
    conj_trans: bool,
) {
    assert!(
        t.rows() >= w && t.cols() >= t_c0 + w,
        "T window out of bounds"
    );
    assert!(
        b.rows() >= w && b.cols() >= width,
        "op(T)·B: panel too small"
    );
    for j in 0..width {
        let b_col = &mut b.col_mut(j)[..w];
        if conj_trans {
            // (Tᴴ B)[i] = Σ_{k≤i} conj(T[k,i])·B[k]; bottom-up keeps reads on
            // original values, and the column of T is contiguous.
            for i in (0..w).rev() {
                let acc = dot_conj(&t.col(t_c0 + i)[..i + 1], &b_col[..i + 1]);
                b_col[i] = acc;
            }
        } else {
            // (T B)[i] = Σ_{k≥i} T[i,k]·B[k]; top-down keeps reads original.
            for i in 0..w {
                let mut acc = T::ZERO;
                for (k, &bk) in b_col.iter().enumerate().take(w).skip(i) {
                    acc += t.get(i, t_c0 + k) * bk;
                }
                b_col[i] = acc;
            }
        }
    }
}

/// Returns `Aᴴ · B`.
pub fn conj_trans_mul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.rows(), b.rows(), "Aᴴ·B: row counts must agree");
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for j in 0..b.cols() {
        let b_col = b.col(j);
        let o_col = out.col_mut(j);
        for (k, o) in o_col.iter_mut().enumerate() {
            let a_col = a.col(k);
            let mut acc = T::ZERO;
            for i in 0..a.rows() {
                acc += a_col[i].conj() * b_col[i];
            }
            *o = acc;
        }
    }
    out
}

/// `C := C - A · B`.
pub fn sub_mul_assign<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    assert_eq!(a.cols(), b.rows(), "C-=A·B: inner dimensions must agree");
    assert_eq!(c.rows(), a.rows(), "C-=A·B: row counts must agree");
    assert_eq!(c.cols(), b.cols(), "C-=A·B: column counts must agree");
    for j in 0..b.cols() {
        for k in 0..a.cols() {
            let bkj = b.get(k, j);
            if bkj.is_zero() {
                continue;
            }
            let a_col = a.col(k);
            let c_col = c.col_mut(j);
            for i in 0..a_col.len() {
                c_col[i] -= a_col[i] * bkj;
            }
        }
    }
}

/// `C := C - A · B` where `A` is *unit lower triangular* (implicit unit
/// diagonal, strictly-lower entries taken from `a`, upper part ignored).
///
/// This is the `V`-application shape used by [`crate::unmqr`], where the
/// Householder vectors are stored in the strictly lower part of the factored
/// tile.
pub fn sub_mul_assign_unit_lower<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "V must be square");
    assert_eq!(b.rows(), n, "C-=V·B: inner dimensions must agree");
    assert_eq!(c.rows(), n, "C-=V·B: row counts must agree");
    assert_eq!(c.cols(), b.cols(), "C-=V·B: column counts must agree");
    for j in 0..b.cols() {
        for k in 0..n {
            let bkj = b.get(k, j);
            if bkj.is_zero() {
                continue;
            }
            let a_col = a.col(k);
            let c_col = c.col_mut(j);
            // unit diagonal entry
            c_col[k] -= bkj;
            for i in (k + 1)..n {
                c_col[i] -= a_col[i] * bkj;
            }
        }
    }
}

/// Returns `Vᴴ · B` where `V` is *unit lower triangular* as in
/// [`sub_mul_assign_unit_lower`].
pub fn conj_trans_mul_unit_lower<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "V must be square");
    assert_eq!(b.rows(), n, "Vᴴ·B: row counts must agree");
    let mut out = Matrix::zeros(n, b.cols());
    for j in 0..b.cols() {
        let b_col = b.col(j);
        let o_col = out.col_mut(j);
        for (k, o) in o_col.iter_mut().enumerate() {
            let a_col = a.col(k);
            let mut acc = b_col[k]; // unit diagonal: conj(1) * b[k]
            for i in (k + 1)..n {
                acc += a_col[i].conj() * b_col[i];
            }
            *o = acc;
        }
    }
    out
}

/// In-place left multiplication by an upper triangular matrix:
/// `B := op(T) · B`, with `op(T) = T` or `op(T) = Tᴴ`.
///
/// Only the upper triangle of `t` is referenced.
pub fn trmm_upper_left<T: Scalar>(t: &Matrix<T>, b: &mut Matrix<T>, conj_trans: bool) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "T must be square");
    assert_eq!(b.rows(), n, "op(T)·B: dimensions must agree");
    for j in 0..b.cols() {
        let b_col = b.col_mut(j);
        if conj_trans {
            // (Tᴴ B)[i] = sum_{k<=i} conj(T[k,i]) * B[k]; compute bottom-up so
            // B entries are still the originals when read.
            for i in (0..n).rev() {
                let mut acc = T::ZERO;
                for (k, &bk) in b_col.iter().enumerate().take(i + 1) {
                    acc += t.get(k, i).conj() * bk;
                }
                b_col[i] = acc;
            }
        } else {
            // (T B)[i] = sum_{k>=i} T[i,k] * B[k]; compute top-down.
            for i in 0..n {
                let mut acc = T::ZERO;
                for (k, &bk) in b_col.iter().enumerate().skip(i) {
                    acc += t.get(i, k) * bk;
                }
                b_col[i] = acc;
            }
        }
    }
}

/// General matrix product used by the benchmark harness as the GEMM
/// reference series in Figures 4–5: `C := C + A·B`.
///
/// Routed through the register-tiled [`crate::microblas`] backend; this
/// convenience form allocates its own pack buffers (the kernels call
/// [`crate::microblas::gemm_into`] with workspace-provided scratch instead).
pub fn gemm_acc<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    crate::microblas::gemm_matrix(c, crate::microblas::AMode::NoTrans, a, b, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::random_matrix;
    use tileqr_matrix::norms::frobenius_norm;
    use tileqr_matrix::Complex64;

    fn assert_close<T: Scalar<Real = f64>>(a: &Matrix<T>, b: &Matrix<T>, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        let d = frobenius_norm(&a.sub(b));
        assert!(d < tol, "matrices differ by {d}");
    }

    #[test]
    fn conj_trans_mul_matches_naive() {
        let a: Matrix<f64> = random_matrix(5, 3, 1);
        let b: Matrix<f64> = random_matrix(5, 4, 2);
        let expected = a.conj_transpose().matmul(&b);
        assert_close(&conj_trans_mul(&a, &b), &expected, 1e-13);

        let az: Matrix<Complex64> = random_matrix(5, 3, 3);
        let bz: Matrix<Complex64> = random_matrix(5, 4, 4);
        let expectedz = az.conj_transpose().matmul(&bz);
        assert_close(&conj_trans_mul(&az, &bz), &expectedz, 1e-13);
    }

    #[test]
    fn sub_mul_assign_matches_naive() {
        let a: Matrix<f64> = random_matrix(4, 3, 5);
        let b: Matrix<f64> = random_matrix(3, 6, 6);
        let mut c: Matrix<f64> = random_matrix(4, 6, 7);
        let expected = c.sub(&a.matmul(&b));
        sub_mul_assign(&mut c, &a, &b);
        assert_close(&c, &expected, 1e-13);
    }

    #[test]
    fn unit_lower_helpers_match_explicit_v() {
        let n = 6;
        let a: Matrix<Complex64> = random_matrix(n, n, 8);
        // Build the explicit unit-lower-triangular V that the helpers assume.
        let v = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                Complex64::ONE
            } else if i > j {
                a.get(i, j)
            } else {
                Complex64::ZERO
            }
        });
        let b: Matrix<Complex64> = random_matrix(n, 4, 9);

        let expected_vh_b = v.conj_transpose().matmul(&b);
        assert_close(&conj_trans_mul_unit_lower(&a, &b), &expected_vh_b, 1e-13);

        let w: Matrix<Complex64> = random_matrix(n, 4, 10);
        let mut c = b.clone();
        let expected = b.sub(&v.matmul(&w));
        sub_mul_assign_unit_lower(&mut c, &a, &w);
        assert_close(&c, &expected, 1e-13);
    }

    #[test]
    fn trmm_upper_left_matches_explicit_triangle() {
        let n = 5;
        let full: Matrix<Complex64> = random_matrix(n, n, 11);
        let t = Matrix::from_fn(n, n, |i, j| {
            if i <= j {
                full.get(i, j)
            } else {
                Complex64::ZERO
            }
        });
        let b: Matrix<Complex64> = random_matrix(n, 3, 12);

        let mut b1 = b.clone();
        trmm_upper_left(&t, &mut b1, false);
        assert_close(&b1, &t.matmul(&b), 1e-13);

        let mut b2 = b.clone();
        trmm_upper_left(&t, &mut b2, true);
        assert_close(&b2, &t.conj_transpose().matmul(&b), 1e-13);
    }

    #[test]
    fn trmm_ignores_strictly_lower_part() {
        let n = 4;
        let t_upper: Matrix<f64> =
            Matrix::from_fn(n, n, |i, j| if i <= j { (i + j + 1) as f64 } else { 0.0 });
        let mut t_dirty = t_upper.clone();
        // garbage below the diagonal must not change the result
        for j in 0..n {
            for i in (j + 1)..n {
                t_dirty.set(i, j, 99.0);
            }
        }
        let b: Matrix<f64> = random_matrix(n, 2, 13);
        let mut b1 = b.clone();
        let mut b2 = b.clone();
        trmm_upper_left(&t_upper, &mut b1, false);
        trmm_upper_left(&t_dirty, &mut b2, false);
        assert_eq!(b1, b2);
    }

    #[test]
    fn dot_conj_matches_sequential_sum() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 33] {
            let a: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64 * 0.5 - 1.0, 0.25 * i as f64))
                .collect();
            let b: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(1.0 - i as f64 * 0.125, -(i as f64)))
                .collect();
            let expected: Complex64 = a.iter().zip(&b).map(|(&x, &y)| x.conj() * y).sum();
            let got = dot_conj(&a, &b);
            assert!(
                (got - expected).abs() < 1e-12 * (1.0 + expected.abs()),
                "n={n}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a: Matrix<f64> = random_matrix(4, 4, 14);
        let b: Matrix<f64> = random_matrix(4, 4, 15);
        let mut c = Matrix::<f64>::zeros(4, 4);
        gemm_acc(&mut c, &a, &b);
        assert_close(&c, &a.matmul(&b), 1e-13);
        gemm_acc(&mut c, &a, &b);
        assert_close(&c, &a.matmul(&b).scaled(2.0), 1e-13);
    }
}
