//! Register-tiled micro-BLAS backend for the tile kernels.
//!
//! This is the innermost of the crate's three blocking levels (tile `nb` →
//! inner panel `ib` → register block `MR × NR`, see the crate docs). Every
//! product with a reflector panel in the `*_ws` kernels — the compact-WY
//! applications `W := VᴴC` and `C := C − V·W`, the panel's `w × w` triangle
//! included — funnels through one [`gemm_into`] entry point, which follows the classic GotoBLAS structure
//! specialized to tile-sized operands (`m, n, k ≤ nb`):
//!
//! 1. both operands are packed once per call: `B` into `NR`-interleaved
//!    column slabs (`bpack`) and `op(A)` into `MR`-interleaved row slabs
//!    (`apack`, conjugation applied during packing), so the microkernel
//!    streams both with unit stride;
//! 2. the `j` loop is blocked into cache-sized column chunks: one chunk of
//!    `bpack` stays resident while every row slab of `apack` streams past
//!    it, so the per-chunk working set is a few hundred kilobytes no matter
//!    how large the operands are — the pack buffers live in the workspace
//!    arena and are reused by every call, which keeps them hot in L2;
//! 3. the microkernel multiplies one `MR × k` A-slab by one `k × NR` B-slab
//!    into a stack-resident accumulator block. The register-block shape is
//!    per scalar ([`Scalar::MR`]/[`Scalar::NR`]: `8 × 4` for `f64`, `4 × 4`
//!    for `Complex64` so the complex block fits the register file), and the
//!    kernel itself is selected once per process by ISA — explicit AVX2 /
//!    AVX-512 / NEON implementations with a generic scalar fallback, see
//!    [`crate::simd`]. The `MR·NR` accumulators form independent dependency
//!    chains interleaved over the `k` loop, so the floating-point units are
//!    never serialized on add-latency — this replaces the dot-product-shaped
//!    reductions the kernels previously used. Everything is std-only
//!    `core::arch`, per the offline-buildability constraint.
//!
//! Operands are supplied as *column accessor closures* (`Fn(usize) -> &[T]`)
//! rather than matrix references: the same code path then serves dense tiles,
//! column windows obtained from `split_at_mut`, staging panels with a foreign
//! leading dimension, and the packed triangular columns of the TT kernels
//! (columns shorter than `k` are zero-padded during packing). Zero padding
//! carries the reflector triangles: a packed-upper TT panel passes its short
//! packed columns as they are, and a unit-lower panel is first copied into a
//! dense trapezoid whose zeros above the unit diagonal are explicit
//! ([`crate::blas::copy_unit_lower_panel`]). The microkernel sums over `k` in
//! order, so a padded term adds an exact zero. The destination is a raw
//! column-major buffer plus a column-offset map, so a packed triangle can be
//! updated in place as well.
//!
//! The pack buffers are caller-provided (the kernels use the preallocated
//! [`crate::workspace::Workspace`] arena), so none of this allocates.

use tileqr_matrix::{Matrix, Scalar};

use crate::simd::{self, ACC_CAP};

/// Length of the A pack buffer needed for an `m × k` `op(A)` operand of `T`
/// (the register-block rows [`Scalar::MR`] are per scalar).
#[inline]
pub const fn apack_len<T: Scalar>(m: usize, k: usize) -> usize {
    m.div_ceil(T::MR) * T::MR * k
}

/// Per-chunk budget for the resident `bpack` columns: chosen so one chunk
/// plus one `apack` slab plus the touched `C` window stay far below L2.
const CHUNK_BYTES: usize = 96 * 1024;

/// Length of the B pack buffer needed for a `k × n` operand of `T`.
#[inline]
pub const fn bpack_len<T: Scalar>(k: usize, n: usize) -> usize {
    n.div_ceil(T::NR) * T::NR * k
}

/// How the `A` operand enters the product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AMode {
    /// `op(A)(i, p) = acol(p)[i]` — `A` stored `m × k`, used as is.
    NoTrans,
    /// `op(A)(i, p) = conj(acol(i)[p])` — `A` stored `k × m`, used as `Aᴴ`.
    ConjTrans,
}

/// Packs a `k × n` operand `B` into `NR`-interleaved column slabs:
/// slab `js` occupies `bp[js·k·NR ..][.. k·NR]` with element `(p, c)` at
/// `p·NR + c`. Columns shorter than `k` (or beyond `n`) are zero-padded.
fn pack_b<'a, T: Scalar + 'a>(k: usize, n: usize, bcol: &impl Fn(usize) -> &'a [T], bp: &mut [T]) {
    let nr = T::NR;
    debug_assert!(bp.len() >= bpack_len::<T>(k, n), "B pack buffer too small");
    for js in 0..n.div_ceil(nr) {
        let slab = &mut bp[js * k * nr..(js + 1) * k * nr];
        for c in 0..nr {
            let j = js * nr + c;
            if j < n {
                let src = bcol(j);
                let avail = src.len().min(k);
                for (p, &v) in src.iter().enumerate().take(avail) {
                    slab[p * nr + c] = v;
                }
                for p in avail..k {
                    slab[p * nr + c] = T::ZERO;
                }
            } else {
                for p in 0..k {
                    slab[p * nr + c] = T::ZERO;
                }
            }
        }
    }
}

/// Packs the whole `m × k` `op(A)` operand into `MR`-interleaved row slabs:
/// slab `is` occupies `ap[is·k·MR ..][.. k·MR]` with element `(r, p)` at
/// `p·MR + r`; missing rows/entries are zero-padded so the microkernel
/// always runs full blocks.
fn pack_a<'a, T: Scalar + 'a>(
    k: usize,
    m: usize,
    amode: AMode,
    acol: &impl Fn(usize) -> &'a [T],
    ap: &mut [T],
) {
    let mr = T::MR;
    debug_assert!(ap.len() >= apack_len::<T>(m, k), "A pack buffer too small");
    for is in 0..m.div_ceil(mr) {
        let i0 = is * mr;
        let mr_valid = mr.min(m - i0);
        let slab = &mut ap[is * k * mr..(is + 1) * k * mr];
        match amode {
            AMode::NoTrans => {
                for p in 0..k {
                    let src = acol(p);
                    let avail = src.len().saturating_sub(i0).min(mr_valid);
                    for r in 0..avail {
                        slab[p * mr + r] = src[i0 + r];
                    }
                    for r in avail..mr {
                        slab[p * mr + r] = T::ZERO;
                    }
                }
            }
            AMode::ConjTrans => {
                for r in 0..mr_valid {
                    let src = acol(i0 + r);
                    let avail = src.len().min(k);
                    for (p, &v) in src.iter().enumerate().take(avail) {
                        slab[p * mr + r] = v.conj();
                    }
                    for p in avail..k {
                        slab[p * mr + r] = T::ZERO;
                    }
                }
                for r in mr_valid..mr {
                    for p in 0..k {
                        slab[p * mr + r] = T::ZERO;
                    }
                }
            }
        }
    }
}

/// `C(0..m, 0..n) ±= op(A) · B` through the register-tiled microkernel.
///
/// * `acol(p)` yields column `p` of the stored `A` (see [`AMode`] for which
///   index runs over columns); `bcol(j)` yields column `j` of `B`. Columns
///   may be shorter than the nominal dimension — missing entries count as
///   zero, which is how triangular/trapezoidal operands are expressed.
/// * The destination is `c`, a column-major buffer in which column `j` of
///   the updated block starts at offset `coff(j)` (rows contiguous).
/// * `sub` selects `C -= op(A)·B` (the reflector applications) over
///   `C += op(A)·B` (the staging accumulations).
/// * `apack`/`bpack` are scratch of at least [`apack_len`]`(m, k)` /
///   [`bpack_len`]`(k, n)` — preallocated in the kernel workspace, so the
///   call performs no allocation.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS gemm surface
pub fn gemm_into<'a, 'b, T: Scalar + 'a + 'b>(
    m: usize,
    n: usize,
    k: usize,
    amode: AMode,
    acol: impl Fn(usize) -> &'a [T],
    bcol: impl Fn(usize) -> &'b [T],
    c: &mut [T],
    coff: impl Fn(usize) -> usize,
    sub: bool,
    apack: &mut [T],
    bpack: &mut [T],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (mr, nr) = (T::MR, T::NR);
    assert!(
        apack.len() >= apack_len::<T>(m, k),
        "A pack buffer too small"
    );
    assert!(
        bpack.len() >= bpack_len::<T>(k, n),
        "B pack buffer too small"
    );
    pack_b(k, n, &bcol, bpack);
    pack_a(k, m, amode, &acol, apack);
    // The microkernel ISA is resolved once per process ([`simd::active`]);
    // fetching it here, outside the slab loops, keeps the per-block dispatch
    // a predicted branch on a register value — zero per-call detection cost.
    let level = simd::active();
    // Blocked sweep: a cache-resident chunk of B column slabs is reused by
    // every A row slab before moving on (each output column is computed
    // independently, so the chunking does not change the arithmetic).
    let n_islabs = m.div_ceil(mr);
    let n_jslabs = n.div_ceil(nr);
    let slab_bytes = k * nr * std::mem::size_of::<T>();
    let jc = (CHUNK_BYTES / slab_bytes.max(1)).max(1);
    let mut js0 = 0;
    while js0 < n_jslabs {
        let js1 = (js0 + jc).min(n_jslabs);
        for is in 0..n_islabs {
            let i0 = is * mr;
            let mr_valid = mr.min(m - i0);
            let aslab = &apack[is * k * mr..(is + 1) * k * mr];
            for js in js0..js1 {
                let j0 = js * nr;
                let nr_valid = nr.min(n - j0);
                let mut acc = [T::ZERO; ACC_CAP];
                simd::ukernel(
                    level,
                    k,
                    aslab,
                    &bpack[js * k * nr..(js + 1) * k * nr],
                    &mut acc,
                );
                for cc in 0..nr_valid {
                    let base = coff(j0 + cc) + i0;
                    let dst = &mut c[base..base + mr_valid];
                    if sub {
                        for (d, &v) in dst.iter_mut().zip(&acc[cc * mr..cc * mr + mr_valid]) {
                            *d -= v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().zip(&acc[cc * mr..cc * mr + mr_valid]) {
                            *d += v;
                        }
                    }
                }
            }
        }
        js0 = js1;
    }
}

/// Convenience wrapper for whole-matrix products `C ±= op(A)·B` on dense
/// [`Matrix`] operands, allocating its own pack buffers. Used by the
/// allocating BLAS helpers and the benchmark reference series — the kernels
/// call [`gemm_into`] with workspace-provided buffers instead.
pub fn gemm_matrix<T: Scalar>(
    c: &mut Matrix<T>,
    amode: AMode,
    a: &Matrix<T>,
    b: &Matrix<T>,
    sub: bool,
) {
    let (m, k) = match amode {
        AMode::NoTrans => (a.rows(), a.cols()),
        AMode::ConjTrans => (a.cols(), a.rows()),
    };
    let n = b.cols();
    assert_eq!(b.rows(), k, "op(A)·B: inner dimensions must agree");
    assert_eq!(c.rows(), m, "op(A)·B: row counts must agree");
    assert_eq!(c.cols(), n, "op(A)·B: column counts must agree");
    let mut apack = vec![T::ZERO; apack_len::<T>(m, k)];
    let mut bpack = vec![T::ZERO; bpack_len::<T>(k, n)];
    let ld = c.rows();
    gemm_into(
        m,
        n,
        k,
        amode,
        |p| a.col(p),
        |j| b.col(j),
        c.as_mut_slice(),
        |j| j * ld,
        sub,
        &mut apack,
        &mut bpack,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::random_matrix;
    use tileqr_matrix::Complex64;

    fn naive<T: Scalar>(
        m: usize,
        n: usize,
        k: usize,
        amode: AMode,
        a: &Matrix<T>,
        b: &Matrix<T>,
    ) -> Matrix<T> {
        Matrix::from_fn(m, n, |i, j| {
            let mut acc = T::ZERO;
            for p in 0..k {
                let av = match amode {
                    AMode::NoTrans => a.get(i, p),
                    AMode::ConjTrans => a.get(p, i).conj(),
                };
                acc += av * b.get(p, j);
            }
            acc
        })
    }

    fn check<T: tileqr_matrix::generate::RandomScalar>(m: usize, n: usize, k: usize, seed: u64) {
        for amode in [AMode::NoTrans, AMode::ConjTrans] {
            let a: Matrix<T> = match amode {
                AMode::NoTrans => random_matrix(m, k, seed),
                AMode::ConjTrans => random_matrix(k, m, seed),
            };
            let b: Matrix<T> = random_matrix(k, n, seed + 1);
            let expected = naive(m, n, k, amode, &a, &b);
            for sub in [false, true] {
                let c0: Matrix<T> = random_matrix(m, n, seed + 2);
                let mut c = c0.clone();
                gemm_matrix(&mut c, amode, &a, &b, sub);
                for j in 0..n {
                    for i in 0..m {
                        let want = if sub {
                            c0.get(i, j) - expected.get(i, j)
                        } else {
                            c0.get(i, j) + expected.get(i, j)
                        };
                        let diff = (c.get(i, j) - want).abs();
                        assert!(
                            diff < 1e-12 * (1.0 + want.abs()),
                            "{m}x{n}x{k} {amode:?} sub={sub} mismatch at ({i},{j}): {diff}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_matches_naive_f64_and_complex() {
        // Sweep sizes around the MR/NR register block edges.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 4),
            (7, 3, 5),
            (8, 4, 8),
            (9, 5, 7),
            (16, 8, 16),
            (17, 9, 13),
            (23, 11, 19),
            (32, 32, 32),
        ] {
            check::<f64>(m, n, k, 100 + m as u64);
            check::<Complex64>(m, n, k, 200 + m as u64);
        }
    }

    #[test]
    fn short_columns_are_zero_padded() {
        // A trapezoidal A expressed via short columns must behave as if the
        // missing entries were zero.
        let k = 6usize;
        let m = 5usize;
        let n = 3usize;
        let a: Matrix<f64> = random_matrix(k, m, 7);
        let b: Matrix<f64> = random_matrix(k, n, 8);
        // Column i of Aᴴ-mode A truncated to i+1 entries (upper trapezoid).
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut apack = vec![0.0; apack_len::<f64>(m, k)];
        let mut bpack = vec![0.0; bpack_len::<f64>(k, n)];
        let ld = c.rows();
        gemm_into(
            m,
            n,
            k,
            AMode::ConjTrans,
            |i| &a.col(i)[..i + 1],
            |j| b.col(j),
            c.as_mut_slice(),
            |j| j * ld,
            false,
            &mut apack,
            &mut bpack,
        );
        for j in 0..n {
            for i in 0..m {
                let mut want = 0.0;
                for p in 0..=i {
                    want += a.get(p, i) * b.get(p, j);
                }
                assert!((c.get(i, j) - want).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn destination_offsets_select_arbitrary_columns() {
        // Write the product into every other column of a wider buffer.
        let (m, n, k) = (4usize, 2usize, 3usize);
        let a: Matrix<f64> = random_matrix(m, k, 21);
        let b: Matrix<f64> = random_matrix(k, n, 22);
        let mut buf = vec![0.0; m * 4];
        let mut apack = vec![0.0; apack_len::<f64>(m, k)];
        let mut bpack = vec![0.0; bpack_len::<f64>(k, n)];
        gemm_into(
            m,
            n,
            k,
            AMode::NoTrans,
            |p| a.col(p),
            |j| b.col(j),
            &mut buf,
            |j| 2 * j * m,
            false,
            &mut apack,
            &mut bpack,
        );
        let expected = a.matmul(&b);
        for j in 0..n {
            for i in 0..m {
                assert!((buf[2 * j * m + i] - expected.get(i, j)).abs() < 1e-13);
                assert_eq!(buf[(2 * j + 1) * m + i], 0.0, "gap columns untouched");
            }
        }
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let a: Matrix<f64> = random_matrix(4, 4, 31);
        let b: Matrix<f64> = random_matrix(4, 4, 32);
        let mut c: Matrix<f64> = random_matrix(4, 4, 33);
        let before = c.clone();
        let mut apack = vec![0.0; apack_len::<f64>(4, 4)];
        let mut bpack = vec![0.0; bpack_len::<f64>(4, 4)];
        for (m, n, k) in [(0usize, 4usize, 4usize), (4, 0, 4), (4, 4, 0)] {
            gemm_into(
                m,
                n,
                k,
                AMode::NoTrans,
                |p| a.col(p),
                |j| b.col(j),
                c.as_mut_slice(),
                |j| j * 4,
                true,
                &mut apack,
                &mut bpack,
            );
        }
        assert_eq!(c, before);
    }
}
