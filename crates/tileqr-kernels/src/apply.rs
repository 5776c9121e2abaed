//! Update kernels: [`unmqr`], [`tsmqr`] and [`ttmqr`].
//!
//! Each factorization kernel of [`crate::factor`] has a companion update that
//! applies the computed block reflector(s) to the trailing tiles of the same
//! row(s). All three accept a [`Trans`] flag:
//!
//! * [`Trans::ConjTrans`] applies `Qᴴ` — this is what the factorization and
//!   the `Qᴴ·B` driver use;
//! * [`Trans::NoTrans`] applies `Q` — used when explicitly building the
//!   `Q` factor or multiplying by it.
//!
//! # Inner blocking
//!
//! The factorization kernels produce one block reflector per panel of `ib`
//! columns (`Q = P_1·P_2⋯P_l`, see [`crate::factor`]), so the update kernels
//! replay the panels in factor order for `Qᴴ` and in reverse for `Q`, each
//! through the blocked compact-WY scheme
//!
//! ```text
//! W := V_sᴴ·C,   W := op(T_s)·W,   C := C − V_s·W.
//! ```
//!
//! Both products with `V_s` run on the register-tiled [`crate::microblas`]
//! backend as zero-padded GEMMs, the `w × w` triangle of the panel included:
//!
//! * [`unmqr_ws`] copies the panel's unit-lower trapezoid (rows `j0..nb`:
//!   zeros above the diagonal, ones on it) into the workspace once per panel
//!   and multiplies with that dense copy over rows `j0..nb` of the target;
//! * [`ttmqr_ws`] packs `V2`'s triangle into the workspace's packed scratch
//!   (contiguous columns, no reads of the garbage below the diagonal) and
//!   hands the microkernel the short packed columns, which it pads with
//!   zeros up to row `j0 + w`;
//! * [`tsmqr_ws`]'s `V2` is dense.
//!
//! The identity top block of the stacked TS/TT reflectors and the `T_s`
//! product use the small helpers in [`crate::blas`]. A target may have any
//! number of columns, narrower or wider than `nb`: it is processed in chunks
//! of at most `nb` columns staged through the workspace's `W` buffer. The
//! runtime's `Qᴴ·B` replay relies on this to update `nb × k`
//! right-hand-side panels directly. The workspace's `ib` must match the one
//! used at factor time — the `T` factors are stored `ib`-blocked. With
//! `ib = nb` there is a single panel per tile.

use tileqr_matrix::packed::{pack_upper_triangle, packed_col, packed_len};
use tileqr_matrix::{Matrix, Scalar};

use crate::blas::{
    copy_rows_window_into, copy_unit_lower_panel, sub_rows_window_assign, trmm_upper_left_window,
};
use crate::microblas::{gemm_into, AMode};
use crate::workspace::Workspace;

/// Whether an update kernel applies `Q` or `Qᴴ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Apply `Q = I − V·T·Vᴴ`.
    NoTrans,
    /// Apply `Qᴴ = I − V·Tᴴ·Vᴴ`.
    ConjTrans,
}

impl Trans {
    #[inline]
    fn conj_t(self) -> bool {
        matches!(self, Trans::ConjTrans)
    }

    /// Panel start columns in application order: `Qᴴ = P_lᴴ⋯P_1ᴴ` applies
    /// the panels in factor order, `Q = P_1⋯P_l` in reverse.
    #[inline]
    fn panel_starts(self, nb: usize, ib: usize) -> impl Iterator<Item = usize> {
        let l = nb.div_ceil(ib);
        let conj = self.conj_t();
        (0..l).map(move |idx| {
            let s = if conj { idx } else { l - 1 - idx };
            s * ib
        })
    }
}

/// UNMQR: applies the block reflectors computed by [`crate::geqrt`] on tile
/// `(r, k)` to the trailing tile `c` of the same row.
///
/// `v` is the factored tile (Householder vectors in its strictly lower part,
/// unit diagonal implicit — the upper triangle holding `R` is ignored);
/// `t` is the companion `ib`-blocked triangular factor.
///
/// Paper cost: `6` units of `nb³/3` flops.
///
/// Allocating convenience wrapper around [`unmqr_ws`].
pub fn unmqr<T: Scalar<Real = f64>>(v: &Matrix<T>, t: &Matrix<T>, c: &mut Matrix<T>, trans: Trans) {
    unmqr_ws(v, t, c, trans, &mut Workspace::new(v.rows()));
}

/// UNMQR with caller-provided scratch: zero heap allocations.
///
/// The update is the blocked compact-WY application of `larfb` per reflector
/// panel: the panel's unit-lower trapezoid is copied once into the
/// workspace, then the target is processed in contiguous chunks of at most
/// `nb` columns, each staged through the workspace's `W` buffer as
/// `W := V_sᴴC`, `W := op(T_s)·W`, `C := C − V_s·W`, both products running
/// on the micro-BLAS backend over rows `j0..nb`.
pub fn unmqr_ws<T: Scalar<Real = f64>>(
    v: &Matrix<T>,
    t: &Matrix<T>,
    c: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    let nb = v.rows();
    assert_eq!(v.cols(), nb, "UNMQR reflector tile must be square");
    assert_eq!(
        c.rows(),
        nb,
        "UNMQR target tile must match the reflector tile"
    );
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let Workspace {
        w: wmat,
        apack,
        bpack,
        vpanel,
        ..
    } = ws;
    let ncols = c.cols();
    let ldc = c.rows();
    let ldw = wmat.rows();
    for j0 in trans.panel_starts(nb, ib) {
        let w = ib.min(nb - j0);
        let ld = nb - j0;
        copy_unit_lower_panel(|k| v.col(k), j0, w, nb, vpanel);
        let vpcol = |p: usize| &vpanel[p * ld..(p + 1) * ld];
        let mut c0 = 0;
        while c0 < ncols {
            let width = nb.min(ncols - c0);
            // W := V_sᴴ·C[j0..nb, :]
            for j in 0..width {
                wmat.col_mut(j)[..w].fill(T::ZERO);
            }
            gemm_into(
                w,
                width,
                ld,
                AMode::ConjTrans,
                vpcol,
                |j| &c.col(c0 + j)[j0..],
                wmat.as_mut_slice(),
                |j| j * ldw,
                false,
                apack,
                bpack,
            );
            // W := op(T_s)·W
            trmm_upper_left_window(t, j0, w, wmat, width, trans.conj_t());
            // C[j0..nb, :] −= V_s·W
            gemm_into(
                ld,
                width,
                w,
                AMode::NoTrans,
                vpcol,
                |j| wmat.col(j),
                c.as_mut_slice(),
                |j| (c0 + j) * ldc + j0,
                true,
                apack,
                bpack,
            );
            c0 += width;
        }
    }
}

/// TSMQR: applies the block reflectors computed by [`crate::tsqrt`] to the
/// stacked pair of trailing tiles `[c1; c2]` (pivot row on top, annihilated
/// row below).
///
/// `v2` is the dense bottom block of Householder vectors produced by
/// [`crate::tsqrt`] and `t` its `ib`-blocked triangular factors.
///
/// Paper cost: `12` units of `nb³/3` flops.
///
/// Allocating convenience wrapper around [`tsmqr_ws`].
pub fn tsmqr<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
) {
    tsmqr_ws(v2, t, c1, c2, trans, &mut Workspace::new(v2.rows()));
}

/// TSMQR with caller-provided scratch: zero heap allocations.
///
/// Blocked compact-WY application per reflector panel over contiguous column
/// chunks: `W := C1[panel rows] + V2_sᴴ·C2`, `W := op(T_s)·W`,
/// `C1[panel rows] −= W`, `C2 −= V2_s·W` — both matrix products run on the
/// micro-BLAS backend (this is the GEMM-richest kernel of the six).
pub fn tsmqr_ws<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    let nb = v2.rows();
    assert_eq!(v2.cols(), nb, "TSMQR reflector block must be square");
    assert_eq!(c1.rows(), nb, "TSMQR C1 must match the reflector block");
    assert_eq!(c2.rows(), nb, "TSMQR C2 must match the reflector block");
    assert_eq!(c1.cols(), c2.cols(), "TSMQR C1/C2 must have the same width");
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let Workspace {
        w: wmat,
        apack,
        bpack,
        ..
    } = ws;
    let ncols = c1.cols();
    let ldc = c1.rows();
    let ldw = wmat.rows();
    let mut c0 = 0;
    while c0 < ncols {
        let width = nb.min(ncols - c0);
        for j0 in trans.panel_starts(nb, ib) {
            let w = ib.min(nb - j0);
            let coffc = |j: usize| (c0 + j) * ldc;
            // W := C1[j0..j0+w, :] + V2_sᴴ·C2 (identity top block + GEMM)
            copy_rows_window_into(c1.as_slice(), coffc, j0, w, width, wmat);
            gemm_into(
                w,
                width,
                nb,
                AMode::ConjTrans,
                |i| v2.col(j0 + i),
                |j| c2.col(c0 + j),
                wmat.as_mut_slice(),
                |j| j * ldw,
                false,
                apack,
                bpack,
            );
            // W := op(T_s)·W
            trmm_upper_left_window(t, j0, w, wmat, width, trans.conj_t());
            // C1[j0..j0+w, :] −= W ; C2 −= V2_s·W
            sub_rows_window_assign(c1.as_mut_slice(), coffc, j0, w, width, wmat);
            gemm_into(
                nb,
                width,
                w,
                AMode::NoTrans,
                |p| v2.col(j0 + p),
                |j| wmat.col(j),
                c2.as_mut_slice(),
                coffc,
                true,
                apack,
                bpack,
            );
        }
        c0 += width;
    }
}

/// TTMQR: applies the block reflectors computed by [`crate::ttqrt`] to the
/// stacked pair of trailing tiles `[c1; c2]`.
///
/// `v2` holds the Householder vectors in its **upper triangle** (the strictly
/// lower part is ignored, matching [`crate::ttqrt`]'s output); the triangular
/// structure is exploited so this kernel costs half of [`tsmqr`].
///
/// Paper cost: `6` units of `nb³/3` flops.
///
/// Allocating convenience wrapper around [`ttmqr_ws`].
pub fn ttmqr<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
) {
    ttmqr_ws(v2, t, c1, c2, trans, &mut Workspace::new(v2.rows()));
}

/// TTMQR with caller-provided scratch: zero heap allocations.
///
/// Same blocked compact-WY panel structure as [`tsmqr_ws`], but `V2`'s upper
/// triangle is packed once into the workspace's column-major packed scratch
/// (only the triangle is read — never the GEQRT vectors below the diagonal)
/// and every product with it stops at row `j0 + w` of the trapezoid: the
/// micro-BLAS backend zero-pads the short packed columns. This is what makes
/// the TT kernel half the cost of the TS one.
pub fn ttmqr_ws<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    let nb = v2.rows();
    assert_eq!(v2.cols(), nb, "TTMQR reflector block must be square");
    assert_eq!(c1.rows(), nb, "TTMQR C1 must match the reflector block");
    assert_eq!(c2.rows(), nb, "TTMQR C2 must match the reflector block");
    assert_eq!(c1.cols(), c2.cols(), "TTMQR C1/C2 must have the same width");
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let Workspace {
        w: wmat,
        apack,
        bpack,
        tri,
        ..
    } = ws;
    let tri = &mut tri[..packed_len(nb)];
    pack_upper_triangle(v2, tri);
    let tri = &*tri;
    let vcol = |k: usize| packed_col(tri, k);
    let ncols = c1.cols();
    let ldc = c1.rows();
    let ldw = wmat.rows();
    let mut c0 = 0;
    while c0 < ncols {
        let width = nb.min(ncols - c0);
        for j0 in trans.panel_starts(nb, ib) {
            let w = ib.min(nb - j0);
            let coffc = |j: usize| (c0 + j) * ldc;
            // W := C1[j0..j0+w, :] + V2_sᴴ·C2[0..j0+w, :] (identity top
            // block, then the packed trapezoid zero-padded to j0 + w rows)
            copy_rows_window_into(c1.as_slice(), coffc, j0, w, width, wmat);
            gemm_into(
                w,
                width,
                j0 + w,
                AMode::ConjTrans,
                |i| vcol(j0 + i),
                |j| c2.col(c0 + j),
                wmat.as_mut_slice(),
                |j| j * ldw,
                false,
                apack,
                bpack,
            );
            // W := op(T_s)·W
            trmm_upper_left_window(t, j0, w, wmat, width, trans.conj_t());
            // C1[j0..j0+w, :] −= W ; C2[0..j0+w, :] −= V2_s·W
            sub_rows_window_assign(c1.as_mut_slice(), coffc, j0, w, width, wmat);
            gemm_into(
                j0 + w,
                width,
                w,
                AMode::NoTrans,
                |p| vcol(j0 + p),
                |j| wmat.col(j),
                c2.as_mut_slice(),
                coffc,
                true,
                apack,
                bpack,
            );
        }
        c0 += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{geqrt, tsqrt, ttqrt};
    use tileqr_matrix::generate::random_matrix;
    use tileqr_matrix::norms::frobenius_norm;
    use tileqr_matrix::Complex64;

    const TOL: f64 = 1e-12;

    fn assert_close<T: Scalar<Real = f64>>(a: &Matrix<T>, b: &Matrix<T>) {
        let d = frobenius_norm(&a.sub(b)) / (1.0 + frobenius_norm(a));
        assert!(d < TOL, "matrices differ by {d}");
    }

    /// Explicit `Q = P_1⋯P_l` for a reflector basis `v` (unit parts
    /// included) and its `ib`-blocked `T` factors: the panel of `w` columns
    /// starting at `j0` is `P_s = I − V_s·T_s·V_sᴴ`, with `T_s` the `w × w`
    /// upper triangle at rows `0..w` of `T`'s columns `j0..j0 + w`. With
    /// `ib = nb` this is the single reflector `I − V·T·Vᴴ`.
    fn explicit_q<T: Scalar<Real = f64>>(v: &Matrix<T>, t: &Matrix<T>, ib: usize) -> Matrix<T> {
        let (rows, nb) = v.shape();
        let mut q = Matrix::<T>::identity(rows);
        for j0 in (0..nb).step_by(ib) {
            let w = ib.min(nb - j0);
            let vs = v.sub_matrix(0, j0, rows, w);
            let mut ts = t.sub_matrix(0, j0, w, w);
            ts.zero_below_diagonal();
            let ps = Matrix::<T>::identity(rows).sub(&vs.matmul(&ts.matmul(&vs.conj_transpose())));
            q = q.matmul(&ps);
        }
        q
    }

    /// Unit-lower reflector basis of a GEQRT-factored tile.
    fn explicit_v_geqrt<T: Scalar<Real = f64>>(a: &Matrix<T>) -> Matrix<T> {
        let nb = a.rows();
        Matrix::from_fn(nb, nb, |i, j| {
            if i == j {
                T::ONE
            } else if i > j {
                a.get(i, j)
            } else {
                T::ZERO
            }
        })
    }

    /// Stacked `2nb × nb` reflector basis `[I; V2]` of a TS/TT-factored
    /// tile pair.
    fn explicit_v_stacked<T: Scalar<Real = f64>>(v2: &Matrix<T>) -> Matrix<T> {
        let nb = v2.rows();
        let mut v = Matrix::zeros(2 * nb, nb);
        for j in 0..nb {
            v.set(j, j, T::ONE);
        }
        v.copy_block(nb, 0, v2, 0, 0, nb, nb);
        v
    }

    /// Explicit Q = I − V·T·Vᴴ for a GEQRT-factored tile.
    fn explicit_q_geqrt<T: Scalar<Real = f64>>(a: &Matrix<T>, t: &Matrix<T>) -> Matrix<T> {
        explicit_q(&explicit_v_geqrt(a), t, a.rows())
    }

    /// Explicit 2nb × 2nb Q for a TS/TT-factored tile pair with bottom block V2.
    fn explicit_q_stacked<T: Scalar<Real = f64>>(v2: &Matrix<T>, t: &Matrix<T>) -> Matrix<T> {
        explicit_q(&explicit_v_stacked(v2), t, v2.rows())
    }

    fn check_unmqr<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        let mut a: Matrix<T> = random_matrix(nb, nb, seed);
        let mut t = Matrix::zeros(nb, nb);
        geqrt(&mut a, &mut t);
        let q = explicit_q_geqrt(&a, &t);

        let c0: Matrix<T> = random_matrix(nb, nb, seed + 1);
        let mut c = c0.clone();
        unmqr(&a, &t, &mut c, Trans::ConjTrans);
        assert_close(&c, &q.conj_transpose().matmul(&c0));

        let mut c = c0.clone();
        unmqr(&a, &t, &mut c, Trans::NoTrans);
        assert_close(&c, &q.matmul(&c0));
    }

    #[test]
    fn unmqr_applies_q_and_qh() {
        for nb in [1usize, 2, 5, 16] {
            check_unmqr::<f64>(nb, 300 + nb as u64);
            check_unmqr::<Complex64>(nb, 400 + nb as u64);
        }
    }

    fn check_tsmqr<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        let mut r1: Matrix<T> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let mut a2: Matrix<T> = random_matrix(nb, nb, seed + 1);
        let mut t = Matrix::zeros(nb, nb);
        tsqrt(&mut r1, &mut a2, &mut t);
        let q = explicit_q_stacked(&a2, &t);

        let c1_0: Matrix<T> = random_matrix(nb, nb, seed + 2);
        let c2_0: Matrix<T> = random_matrix(nb, nb, seed + 3);
        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &c1_0, 0, 0, nb, nb);
        stacked.copy_block(nb, 0, &c2_0, 0, 0, nb, nb);

        for trans in [Trans::ConjTrans, Trans::NoTrans] {
            let mut c1 = c1_0.clone();
            let mut c2 = c2_0.clone();
            tsmqr(&a2, &t, &mut c1, &mut c2, trans);
            let expected = match trans {
                Trans::ConjTrans => q.conj_transpose().matmul(&stacked),
                Trans::NoTrans => q.matmul(&stacked),
            };
            assert_close(&c1, &expected.sub_matrix(0, 0, nb, nb));
            assert_close(&c2, &expected.sub_matrix(nb, 0, nb, nb));
        }
    }

    #[test]
    fn tsmqr_applies_q_and_qh() {
        for nb in [1usize, 2, 4, 12] {
            check_tsmqr::<f64>(nb, 500 + nb as u64);
            check_tsmqr::<Complex64>(nb, 600 + nb as u64);
        }
    }

    fn check_ttmqr<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        let mut r1: Matrix<T> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let mut r2: Matrix<T> = random_matrix(nb, nb, seed + 1);
        r2.zero_below_diagonal();
        let mut t = Matrix::zeros(nb, nb);
        ttqrt(&mut r1, &mut r2, &mut t);
        let q = explicit_q_stacked(&r2, &t);

        let c1_0: Matrix<T> = random_matrix(nb, nb, seed + 2);
        let c2_0: Matrix<T> = random_matrix(nb, nb, seed + 3);
        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &c1_0, 0, 0, nb, nb);
        stacked.copy_block(nb, 0, &c2_0, 0, 0, nb, nb);

        for trans in [Trans::ConjTrans, Trans::NoTrans] {
            let mut c1 = c1_0.clone();
            let mut c2 = c2_0.clone();
            ttmqr(&r2, &t, &mut c1, &mut c2, trans);
            let expected = match trans {
                Trans::ConjTrans => q.conj_transpose().matmul(&stacked),
                Trans::NoTrans => q.matmul(&stacked),
            };
            assert_close(&c1, &expected.sub_matrix(0, 0, nb, nb));
            assert_close(&c2, &expected.sub_matrix(nb, 0, nb, nb));
        }
    }

    #[test]
    fn ttmqr_applies_q_and_qh() {
        for nb in [1usize, 2, 4, 12] {
            check_ttmqr::<f64>(nb, 700 + nb as u64);
            check_ttmqr::<Complex64>(nb, 800 + nb as u64);
        }
    }

    /// `Qᴴ` or `Q`, as `trans` selects.
    fn op<T: Scalar<Real = f64>>(q: &Matrix<T>, trans: Trans) -> Matrix<T> {
        match trans {
            Trans::ConjTrans => q.conj_transpose(),
            Trans::NoTrans => q.clone(),
        }
    }

    /// `op(Q)·[c1; c2]`, split back into halves.
    fn stacked_product<T: Scalar<Real = f64>>(
        q: &Matrix<T>,
        c1: &Matrix<T>,
        c2: &Matrix<T>,
        trans: Trans,
    ) -> (Matrix<T>, Matrix<T>) {
        let (nb, k) = c1.shape();
        let mut stacked = Matrix::zeros(2 * nb, k);
        stacked.copy_block(0, 0, c1, 0, 0, nb, k);
        stacked.copy_block(nb, 0, c2, 0, 0, nb, k);
        let out = op(q, trans).matmul(&stacked);
        (out.sub_matrix(0, 0, nb, k), out.sub_matrix(nb, 0, nb, k))
    }

    /// The three update kernels on `nb × k` targets narrower and wider than
    /// the tile (`k ∈ {1, 3, nb + 5}`), with `ib ∈ {nb, 3}`, against the
    /// explicit `Q` of the factored tile(s).
    fn check_narrow_targets<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        for ib in [nb, 3] {
            let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);
            let t_rows = ib.min(nb);

            let mut a: Matrix<T> = random_matrix(nb, nb, seed);
            let mut t_ge = Matrix::zeros(t_rows, nb);
            crate::factor::geqrt_ws(&mut a, &mut t_ge, &mut ws);
            let q_ge = explicit_q(&explicit_v_geqrt(&a), &t_ge, ib);

            let mut r1: Matrix<T> = random_matrix(nb, nb, seed + 1);
            r1.zero_below_diagonal();
            let mut a2: Matrix<T> = random_matrix(nb, nb, seed + 2);
            let mut t_ts = Matrix::zeros(t_rows, nb);
            crate::factor::tsqrt_ws(&mut r1, &mut a2, &mut t_ts, &mut ws);
            let q_ts = explicit_q(&explicit_v_stacked(&a2), &t_ts, ib);

            let mut r1: Matrix<T> = random_matrix(nb, nb, seed + 3);
            r1.zero_below_diagonal();
            let mut r2: Matrix<T> = random_matrix(nb, nb, seed + 4);
            r2.zero_below_diagonal();
            let mut t_tt = Matrix::zeros(t_rows, nb);
            crate::factor::ttqrt_ws(&mut r1, &mut r2, &mut t_tt, &mut ws);
            let q_tt = explicit_q(&explicit_v_stacked(&r2), &t_tt, ib);

            for k in [1, 3, nb + 5] {
                let c0: Matrix<T> = random_matrix(nb, k, seed + 10 + k as u64);
                let c1_0: Matrix<T> = random_matrix(nb, k, seed + 20 + k as u64);
                let c2_0: Matrix<T> = random_matrix(nb, k, seed + 30 + k as u64);
                for trans in [Trans::ConjTrans, Trans::NoTrans] {
                    let mut c = c0.clone();
                    unmqr_ws(&a, &t_ge, &mut c, trans, &mut ws);
                    assert_close(&c, &op(&q_ge, trans).matmul(&c0));

                    let (want1, want2) = stacked_product(&q_ts, &c1_0, &c2_0, trans);
                    let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
                    tsmqr_ws(&a2, &t_ts, &mut c1, &mut c2, trans, &mut ws);
                    assert_close(&c1, &want1);
                    assert_close(&c2, &want2);

                    let (want1, want2) = stacked_product(&q_tt, &c1_0, &c2_0, trans);
                    let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
                    ttmqr_ws(&r2, &t_tt, &mut c1, &mut c2, trans, &mut ws);
                    assert_close(&c1, &want1);
                    assert_close(&c2, &want2);
                }
            }
        }
    }

    #[test]
    fn update_kernels_apply_q_to_narrow_and_wide_targets() {
        for nb in [5usize, 8] {
            check_narrow_targets::<f64>(nb, 1000 + nb as u64);
            check_narrow_targets::<Complex64>(nb, 1100 + nb as u64);
        }
    }

    fn check_ttmqr_ignores_garbage<T: tileqr_matrix::generate::RandomScalar>(
        nb: usize,
        ib: usize,
        seed: u64,
    ) {
        let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);
        let mut r1: Matrix<T> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let mut r2: Matrix<T> = random_matrix(nb, nb, seed + 1);
        r2.zero_below_diagonal();
        let mut t = Matrix::zeros(ib.min(nb), nb);
        crate::factor::ttqrt_ws(&mut r1, &mut r2, &mut t, &mut ws);

        // pollute the strictly lower part of v2
        let garbage: Matrix<T> = random_matrix(nb, nb, seed + 2);
        let mut r2_dirty = r2.clone();
        for j in 0..nb {
            for i in (j + 1)..nb {
                r2_dirty.set(i, j, garbage.get(i, j));
            }
        }
        let c1_0: Matrix<T> = random_matrix(nb, nb, seed + 3);
        let c2_0: Matrix<T> = random_matrix(nb, nb, seed + 4);
        for trans in [Trans::ConjTrans, Trans::NoTrans] {
            let (mut c1_clean, mut c2_clean) = (c1_0.clone(), c2_0.clone());
            ttmqr_ws(&r2, &t, &mut c1_clean, &mut c2_clean, trans, &mut ws);
            let (mut c1_dirty, mut c2_dirty) = (c1_0.clone(), c2_0.clone());
            ttmqr_ws(&r2_dirty, &t, &mut c1_dirty, &mut c2_dirty, trans, &mut ws);
            assert_eq!(c1_clean, c1_dirty, "nb={nb} ib={ib} {trans:?}");
            assert_eq!(c2_clean, c2_dirty, "nb={nb} ib={ib} {trans:?}");
        }
    }

    #[test]
    fn ttmqr_ignores_garbage_below_v2_diagonal() {
        // After TTQRT in a real factorization the lower part of the V2 tile
        // still holds Householder vectors from an earlier GEQRT; TTMQR must
        // not read them, whatever the panel width.
        let mut cases = vec![(6usize, 6usize)];
        for nb in [7, 13, 32] {
            for ib in [1, 3, 5] {
                cases.push((nb, ib));
            }
        }
        for (nb, ib) in cases {
            check_ttmqr_ignores_garbage::<f64>(nb, ib, 900 + nb as u64);
            check_ttmqr_ignores_garbage::<Complex64>(nb, ib, 950 + nb as u64);
        }
    }

    #[test]
    fn unmqr_roundtrip_q_then_qh_restores_input() {
        let nb = 10;
        let mut a: Matrix<Complex64> = random_matrix(nb, nb, 950);
        let mut t = Matrix::zeros(nb, nb);
        geqrt(&mut a, &mut t);
        let c0: Matrix<Complex64> = random_matrix(nb, nb, 951);
        let mut c = c0.clone();
        unmqr(&a, &t, &mut c, Trans::ConjTrans);
        unmqr(&a, &t, &mut c, Trans::NoTrans);
        assert_close(&c, &c0);
    }

    #[test]
    fn inner_blocked_roundtrip_q_then_qh_restores_input() {
        // Factor and apply with ib < nb (including ib ∤ nb): Q·Qᴴ·C = C
        // exercises both panel application orders against the same
        // ib-blocked T factors.
        let nb = 10;
        for ib in [1usize, 3, 4, 10] {
            let mut ws: Workspace<Complex64> = Workspace::with_inner_block(nb, ib);
            let mut a: Matrix<Complex64> = random_matrix(nb, nb, 960 + ib as u64);
            let mut t = Matrix::zeros(ib.min(nb), nb);
            crate::factor::geqrt_ws(&mut a, &mut t, &mut ws);
            let c0: Matrix<Complex64> = random_matrix(nb, nb, 961);
            let mut c = c0.clone();
            unmqr_ws(&a, &t, &mut c, Trans::ConjTrans, &mut ws);
            unmqr_ws(&a, &t, &mut c, Trans::NoTrans, &mut ws);
            assert_close(&c, &c0);
        }
    }
}
