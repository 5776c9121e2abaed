//! Property tests of the sequential tile kernels: for a sweep of tile sizes
//! and seeds, every factorization kernel must produce an exact-in-precision
//! QR factorization of its stacked input, and every update kernel must apply
//! the very transformation its factorization kernel computed. The ragged-`ib`
//! sweep at the end runs the workspace kernels with several reflector panels
//! per tile, where GEQRT and TTQRT also update the tile between panels.

use tileqr_kernels::reference::householder_qr;
use tileqr_kernels::{
    geqrt, geqrt_ws, tsmqr, tsqrt, ttmqr, ttqrt, ttqrt_ws, unmqr, unmqr_ws, Trans, Workspace,
};
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::norms::{frobenius_norm, orthogonality_residual};
use tileqr_matrix::{Complex64, Matrix, Scalar};

const TOL: f64 = 1e-11;

/// The (nb, seed) sweep standing in for the original proptest strategies.
fn cases(max_nb: usize) -> Vec<(usize, u64)> {
    let sizes = [1usize, 2, 3, 4, 5, 7, 8, 11, 12, 16, 24];
    let mut out = Vec::new();
    for &nb in sizes.iter().filter(|&&nb| nb <= max_nb) {
        for seed in 0..3u64 {
            out.push((nb, 9973 * nb as u64 + seed));
        }
    }
    out
}

/// Explicit `Q = P_1⋯P_l` for a reflector basis `v` (unit parts included)
/// and its `ib`-blocked `T` factors: panel `s` of `w` columns starting at
/// `j0` is `P_s = I − V_s·T_s·V_sᴴ`, with `T_s` the `w × w` upper triangle at
/// rows `0..w` of `T`'s columns `j0..j0 + w`.
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

/// Explicit 2nb × 2nb Q for a TS/TT block reflector with bottom block V2
/// and `ib`-blocked `T` factors.
fn explicit_q_stacked<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    ib: usize,
) -> Matrix<T> {
    let nb = v2.rows();
    let mut v = Matrix::zeros(2 * nb, nb);
    for j in 0..nb {
        v.set(j, j, T::ONE);
    }
    v.copy_block(nb, 0, v2, 0, 0, nb, nb);
    explicit_q(&v, t, ib)
}

fn stack<T: Scalar<Real = f64>>(top: &Matrix<T>, bottom: &Matrix<T>) -> Matrix<T> {
    let nb = top.rows();
    let mut s = Matrix::zeros(2 * nb, top.cols());
    s.copy_block(0, 0, top, 0, 0, nb, top.cols());
    s.copy_block(nb, 0, bottom, 0, 0, nb, top.cols());
    s
}

#[test]
fn geqrt_is_a_qr_factorization() {
    for (nb, seed) in cases(24) {
        let a0: Matrix<f64> = random_matrix(nb, nb, seed);
        let mut a = a0.clone();
        let mut t = Matrix::zeros(nb, nb);
        geqrt(&mut a, &mut t);
        let mut r = a.clone();
        r.zero_below_diagonal();
        let v = Matrix::from_fn(nb, nb, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                a.get(i, j)
            } else {
                0.0
            }
        });
        let q = Matrix::<f64>::identity(nb).sub(&v.matmul(&t.matmul(&v.conj_transpose())));
        assert!(orthogonality_residual(&q) < TOL, "nb={nb} seed={seed}");
        assert!(
            frobenius_norm(&q.matmul(&r).sub(&a0)) < TOL * (1.0 + frobenius_norm(&a0)),
            "nb={nb} seed={seed}"
        );
        // R agrees with the unblocked reference (same sign convention)
        let reference = householder_qr(&a0);
        assert!(
            frobenius_norm(&r.sub(&reference.r)) < 1e-9 * (1.0 + frobenius_norm(&reference.r)),
            "nb={nb} seed={seed}"
        );
    }
}

#[test]
fn tsqrt_and_tsmqr_are_consistent() {
    for (nb, seed) in cases(16) {
        let mut r1: Matrix<Complex64> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let a2: Matrix<Complex64> = random_matrix(nb, nb, seed + 1);
        let stacked = stack(&r1, &a2);

        let mut r_new = r1.clone();
        let mut v2 = a2.clone();
        let mut t = Matrix::zeros(nb, nb);
        tsqrt(&mut r_new, &mut v2, &mut t);
        r_new.zero_below_diagonal();

        // the block reflector is unitary and reproduces the stacked input
        let q = explicit_q_stacked(&v2, &t, nb);
        assert!(orthogonality_residual(&q) < TOL, "nb={nb} seed={seed}");
        let mut rz = Matrix::zeros(2 * nb, nb);
        rz.copy_block(0, 0, &r_new, 0, 0, nb, nb);
        assert!(
            frobenius_norm(&q.matmul(&rz).sub(&stacked)) < TOL * (1.0 + frobenius_norm(&stacked)),
            "nb={nb} seed={seed}"
        );

        // TSMQR applies exactly Qᴴ to an independent tile pair
        let c1: Matrix<Complex64> = random_matrix(nb, nb, seed + 2);
        let c2: Matrix<Complex64> = random_matrix(nb, nb, seed + 3);
        let mut u1 = c1.clone();
        let mut u2 = c2.clone();
        tsmqr(&v2, &t, &mut u1, &mut u2, Trans::ConjTrans);
        let expected = q.conj_transpose().matmul(&stack(&c1, &c2));
        assert!(
            frobenius_norm(&stack(&u1, &u2).sub(&expected))
                < TOL * (1.0 + frobenius_norm(&expected)),
            "nb={nb} seed={seed}"
        );
    }
}

#[test]
fn ttqrt_and_ttmqr_are_consistent() {
    for (nb, seed) in cases(16) {
        let mut r1: Matrix<f64> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let mut r2: Matrix<f64> = random_matrix(nb, nb, seed + 1);
        r2.zero_below_diagonal();
        let stacked = stack(&r1, &r2);

        let mut r_new = r1.clone();
        let mut v2 = r2.clone();
        let mut t = Matrix::zeros(nb, nb);
        ttqrt(&mut r_new, &mut v2, &mut t);
        r_new.zero_below_diagonal();
        // the Householder block stays upper triangular — the property that
        // makes the TT kernels cheap
        assert!(v2.is_upper_triangular(), "nb={nb} seed={seed}");

        let q = explicit_q_stacked(&v2, &t, nb);
        assert!(orthogonality_residual(&q) < TOL, "nb={nb} seed={seed}");
        let mut rz = Matrix::zeros(2 * nb, nb);
        rz.copy_block(0, 0, &r_new, 0, 0, nb, nb);
        assert!(
            frobenius_norm(&q.matmul(&rz).sub(&stacked)) < TOL * (1.0 + frobenius_norm(&stacked)),
            "nb={nb} seed={seed}"
        );

        let c1: Matrix<f64> = random_matrix(nb, nb, seed + 2);
        let c2: Matrix<f64> = random_matrix(nb, nb, seed + 3);
        let mut u1 = c1.clone();
        let mut u2 = c2.clone();
        ttmqr(&v2, &t, &mut u1, &mut u2, Trans::ConjTrans);
        let expected = q.conj_transpose().matmul(&stack(&c1, &c2));
        assert!(
            frobenius_norm(&stack(&u1, &u2).sub(&expected))
                < TOL * (1.0 + frobenius_norm(&expected)),
            "nb={nb} seed={seed}"
        );
    }
}

#[test]
fn unmqr_roundtrip_and_norm_preservation() {
    for (nb, seed) in cases(24) {
        let mut a: Matrix<Complex64> = random_matrix(nb, nb, seed);
        let mut t = Matrix::zeros(nb, nb);
        geqrt(&mut a, &mut t);
        let c0: Matrix<Complex64> = random_matrix(nb, 3.min(nb), seed + 1);
        let mut c = c0.clone();
        unmqr(&a, &t, &mut c, Trans::ConjTrans);
        // unitary application preserves the Frobenius norm
        assert!(
            (frobenius_norm(&c) - frobenius_norm(&c0)).abs() < TOL * (1.0 + frobenius_norm(&c0)),
            "nb={nb} seed={seed}"
        );
        unmqr(&a, &t, &mut c, Trans::NoTrans);
        assert!(
            frobenius_norm(&c.sub(&c0)) < TOL * (1.0 + frobenius_norm(&c0)),
            "nb={nb} seed={seed}"
        );
    }
}

/// Ragged inner blocking: several reflector panels per tile, most with a
/// short last panel.
fn ragged_cases() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for nb in [7usize, 13, 32] {
        for ib in [1, 3, 5] {
            out.push((nb, ib));
        }
    }
    out
}

fn rel_diff<T: Scalar<Real = f64>>(got: &Matrix<T>, want: &Matrix<T>) -> f64 {
    frobenius_norm(&got.sub(want)) / (1.0 + frobenius_norm(want))
}

/// GEQRT at ragged `ib`: `explicit_q(V, T, ib)ᴴ · A₀ = R`.
fn check_geqrt_ragged<T: RandomScalar>(nb: usize, ib: usize, seed: u64) {
    let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);
    let a0: Matrix<T> = random_matrix(nb, nb, seed);
    let mut a = a0.clone();
    let mut t = Matrix::zeros(ib, nb);
    geqrt_ws(&mut a, &mut t, &mut ws);
    let mut r = a.clone();
    r.zero_below_diagonal();
    let v = Matrix::from_fn(nb, nb, |i, j| {
        if i == j {
            T::ONE
        } else if i > j {
            a.get(i, j)
        } else {
            T::ZERO
        }
    });
    let q = explicit_q(&v, &t, ib);
    assert!(orthogonality_residual(&q) < TOL, "nb={nb} ib={ib}");
    let d = rel_diff(&q.conj_transpose().matmul(&a0), &r);
    assert!(d < TOL, "GEQRT QᴴA₀ ≠ R: {d}, nb={nb} ib={ib}");
}

#[test]
fn geqrt_is_a_qr_factorization_at_ragged_ib() {
    for (nb, ib) in ragged_cases() {
        check_geqrt_ragged::<f64>(nb, ib, 100 + nb as u64);
        check_geqrt_ragged::<Complex64>(nb, ib, 200 + nb as u64);
    }
}

/// TTQRT at ragged `ib`: `Qᴴ · [R1₀; R2₀] = [R1; 0]`.
fn check_ttqrt_ragged<T: RandomScalar>(nb: usize, ib: usize, seed: u64) {
    let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);
    let mut r1_0: Matrix<T> = random_matrix(nb, nb, seed);
    r1_0.zero_below_diagonal();
    let mut r2_0: Matrix<T> = random_matrix(nb, nb, seed + 1);
    r2_0.zero_below_diagonal();
    let (mut r1, mut v2) = (r1_0.clone(), r2_0.clone());
    let mut t = Matrix::zeros(ib, nb);
    ttqrt_ws(&mut r1, &mut v2, &mut t, &mut ws);
    let q = explicit_q_stacked(&v2, &t, ib);
    assert!(orthogonality_residual(&q) < TOL, "nb={nb} ib={ib}");
    let want = stack(&r1, &Matrix::zeros(nb, nb));
    let d = rel_diff(&q.conj_transpose().matmul(&stack(&r1_0, &r2_0)), &want);
    assert!(
        d < TOL,
        "TTQRT Qᴴ[R1₀; R2₀] ≠ [R1; 0]: {d}, nb={nb} ib={ib}"
    );
}

#[test]
fn ttqrt_is_a_qr_factorization_at_ragged_ib() {
    for (nb, ib) in ragged_cases() {
        check_ttqrt_ragged::<f64>(nb, ib, 300 + nb as u64);
        check_ttqrt_ragged::<Complex64>(nb, ib, 400 + nb as u64);
    }
}

/// UNMQR reads only the Householder vectors below the tile's diagonal: the
/// `R` stored on and above it must not reach the result.
fn check_unmqr_ignores_r<T: RandomScalar>(nb: usize, ib: usize, seed: u64) {
    let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);
    let mut a: Matrix<T> = random_matrix(nb, nb, seed);
    let mut t = Matrix::zeros(ib, nb);
    geqrt_ws(&mut a, &mut t, &mut ws);
    let garbage: Matrix<T> = random_matrix(nb, nb, seed + 1);
    let mut dirty = a.clone();
    for j in 0..nb {
        for i in 0..=j {
            dirty.set(i, j, garbage.get(i, j));
        }
    }
    let c0: Matrix<T> = random_matrix(nb, nb, seed + 2);
    for trans in [Trans::ConjTrans, Trans::NoTrans] {
        let mut clean = c0.clone();
        unmqr_ws(&a, &t, &mut clean, trans, &mut ws);
        let mut polluted = c0.clone();
        unmqr_ws(&dirty, &t, &mut polluted, trans, &mut ws);
        assert_eq!(clean, polluted, "nb={nb} ib={ib} {trans:?}");
    }
}

#[test]
fn unmqr_ignores_r_above_the_diagonal_at_ragged_ib() {
    for (nb, ib) in ragged_cases() {
        check_unmqr_ignores_r::<f64>(nb, ib, 500 + nb as u64);
        check_unmqr_ignores_r::<Complex64>(nb, ib, 600 + nb as u64);
    }
}
