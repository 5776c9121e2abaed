//! `Q`/`Qᴴ` applied to right-hand sides whose column count is not a
//! multiple of the tile size.
//!
//! The replay keeps `B` as `nb × k` row panels and lets the update kernels
//! walk its `k` columns in chunks of at most `nb`. Each column of the result
//! must therefore be **bitwise** what the same replay gives for that column
//! inside `[B | 0]`, zero-padded to a whole number of tiles, where every
//! chunk is a full `nb` columns wide. The pin covers both handles
//! (`QrFactorization` and `QrReflectors`), both kernel families, both scalar
//! types, ragged row counts and `k ∈ {0, 1, 7, nb, nb + 3}`, and also checks
//! `Q·Qᴴ·B = B`.
//!
//! The pin depends on how the microkernels treat ragged column edges, so CI
//! runs this suite once per forced SIMD level (`TILEQR_SIMD`).

use tileqr_core::algorithms::Algorithm;
use tileqr_core::KernelFamily;
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::norms::frobenius_norm;
use tileqr_matrix::{Complex64, Matrix, TiledMatrix};
use tileqr_runtime::{QrConfig, QrContext, QrPlan};

/// `b` followed by zero columns up to a whole number (at least one) of
/// `nb`-wide tile columns.
fn zero_padded<T: RandomScalar>(b: &Matrix<T>, nb: usize) -> Matrix<T> {
    let width = b.cols().div_ceil(nb).max(1) * nb;
    let mut out = Matrix::zeros(b.rows(), width);
    out.copy_block(0, 0, b, 0, 0, b.rows(), b.cols());
    out
}

/// The narrow result must equal the leading columns of the padded one,
/// bit for bit, and the round trip must restore `b`.
fn check_applications<T: RandomScalar>(
    label: &str,
    b: &Matrix<T>,
    nb: usize,
    apply_qh: impl Fn(&Matrix<T>) -> Matrix<T>,
    apply_q: impl Fn(&Matrix<T>) -> Matrix<T>,
) {
    let (m, k) = b.shape();
    let padded = zero_padded(b, nb);
    let qhb = apply_qh(b);
    let qb = apply_q(b);
    assert_eq!(qhb.shape(), (m, k), "{label}: Qᴴ·B shape");
    assert_eq!(qb.shape(), (m, k), "{label}: Q·B shape");
    assert!(
        qhb == apply_qh(&padded).sub_matrix(0, 0, m, k),
        "{label}: Qᴴ·B differs from the zero-padded replay"
    );
    assert!(
        qb == apply_q(&padded).sub_matrix(0, 0, m, k),
        "{label}: Q·B differs from the zero-padded replay"
    );
    if k > 0 {
        let back = apply_q(&qhb);
        let diff = frobenius_norm(&back.sub(b)) / frobenius_norm(b);
        assert!(diff < 1e-12, "{label}: Q·Qᴴ·B differs from B by {diff}");
    }
}

fn sweep<T: RandomScalar>(seed: u64) {
    for (m, n, nb) in [(29usize, 11usize, 4usize), (45, 20, 16)] {
        let a: Matrix<T> = random_matrix(m, n, seed + m as u64);
        for family in [KernelFamily::TT, KernelFamily::TS] {
            let config = QrConfig::new(nb)
                .with_algorithm(Algorithm::Greedy)
                .with_family(family)
                .with_inner_block(3);
            let plan: QrPlan<T> = QrPlan::new(m, n, config).unwrap();
            let ctx = QrContext::new(2).unwrap();
            let f = ctx.factorize(&plan, &a).unwrap();
            let mut tiles = TiledMatrix::from_dense_padded(&a, nb);
            let refl = ctx.factorize_into(&plan, &mut tiles).unwrap();
            for k in [0, 1, 7, nb, nb + 3] {
                let b: Matrix<T> = random_matrix(m, k, seed + 1000 + k as u64);
                let label = format!("{m}x{n} nb={nb} {family:?} k={k}");
                check_applications(
                    &format!("QrFactorization {label}"),
                    &b,
                    nb,
                    |x| f.apply_qh(x),
                    |x| f.apply_q(x),
                );
                check_applications(
                    &format!("QrReflectors {label}"),
                    &b,
                    nb,
                    |x| refl.apply_qh(&tiles, x),
                    |x| refl.apply_q(&tiles, x),
                );
            }
        }
    }
}

#[test]
fn narrow_replay_matches_the_zero_padded_replay_f64() {
    sweep::<f64>(1);
}

#[test]
fn narrow_replay_matches_the_zero_padded_replay_complex() {
    sweep::<Complex64>(2);
}
