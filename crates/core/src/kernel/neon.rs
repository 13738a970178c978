//! NEON kernels for `aarch64`.
//!
//! NEON is mandatory in AArch64, but we still gate behind
//! `is_aarch64_feature_detected!("neon")` for uniformity with the x86 path.
//! The float kernels are hand-written with `vfmaq_f32`; the ADC-scan and SQ8
//! entries reuse the portable blocked implementations (NEON has no vector
//! gather, so the table-lookup loops gain little from intrinsics).
//!
//! Like `x86`, this is an `allow(unsafe_code)` island in a
//! `deny(unsafe_code)` crate: the only unsafety is calling
//! `#[target_feature]` functions after the feature probe guaranteed they are
//! valid on this CPU.
#![allow(unsafe_code)]

use super::dispatch::Kernels;
use super::{finish_cosine, scalar};
use core::arch::aarch64::*;

/// The NEON kernel set. Only installed after runtime feature detection.
pub static KERNELS: Kernels = Kernels {
    name: "neon",
    l2_sq,
    dot,
    cosine,
    l2_sq_x4,
    dot_x4,
    l2_sq_batch,
    dot_batch,
    adc_scan: scalar::adc_scan,
    sq8_l2: scalar::sq8_l2,
    sq8_l2_batch: scalar::sq8_l2_batch,
};

fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: reachable only after the NEON probe; the wrapper trims
    // `b` to `a.len()` floats.
    unsafe { l2_sq_rows(a, [b.as_ptr()])[0] }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: reachable only after the NEON probe; the wrapper trims
    // `b` to `a.len()` floats.
    unsafe { dot_rows(a, [b.as_ptr()])[0] }
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    unsafe { cosine_neon(a, b) }
}

fn l2_sq_x4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; 4] {
    // SAFETY: reachable only after the NEON probe; the wrapper trims
    // every row to `q.len()` floats.
    unsafe { l2_sq_rows(q, [r0.as_ptr(), r1.as_ptr(), r2.as_ptr(), r3.as_ptr()]) }
}

fn dot_x4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; 4] {
    // SAFETY: reachable only after the NEON probe; the wrapper trims
    // every row to `q.len()` floats.
    unsafe { dot_rows(q, [r0.as_ptr(), r1.as_ptr(), r2.as_ptr(), r3.as_ptr()]) }
}

fn l2_sq_batch(q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    let n = out.len();
    let base = rows.as_ptr();
    let mut r = 0;
    while r + 4 <= n {
        // SAFETY: reachable only after the NEON probe; rows `r..r + 4` lie
        // inside `rows`, which the wrapper trims to `out.len()` whole rows.
        let d = unsafe {
            l2_sq_rows(
                q,
                [
                    base.add(r * dim),
                    base.add((r + 1) * dim),
                    base.add((r + 2) * dim),
                    base.add((r + 3) * dim),
                ],
            )
        };
        out[r..r + 4].copy_from_slice(&d);
        r += 4;
    }
    while r < n {
        out[r] = l2_sq(q, &rows[r * dim..(r + 1) * dim]);
        r += 1;
    }
}

fn dot_batch(q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    let n = out.len();
    let base = rows.as_ptr();
    let mut r = 0;
    while r + 4 <= n {
        // SAFETY: reachable only after the NEON probe; rows `r..r + 4` lie
        // inside `rows`, which the wrapper trims to `out.len()` whole rows.
        let d = unsafe {
            dot_rows(
                q,
                [
                    base.add(r * dim),
                    base.add((r + 1) * dim),
                    base.add((r + 2) * dim),
                    base.add((r + 3) * dim),
                ],
            )
        };
        out[r..r + 4].copy_from_slice(&d);
        r += 4;
    }
    while r < n {
        out[r] = dot(q, &rows[r * dim..(r + 1) * dim]);
        r += 1;
    }
}

#[target_feature(enable = "neon")]
unsafe fn cosine_neon(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut dd = vdupq_n_f32(0.0);
    let mut na = vdupq_n_f32(0.0);
    let mut nb = vdupq_n_f32(0.0);
    let mut i = 0;
    while i + 4 <= n {
        let av = vld1q_f32(ap.add(i));
        let bv = vld1q_f32(bp.add(i));
        dd = vfmaq_f32(dd, av, bv);
        na = vfmaq_f32(na, av, av);
        nb = vfmaq_f32(nb, bv, bv);
        i += 4;
    }
    let (mut sd, mut sa, mut sb) = (vaddvq_f32(dd), vaddvq_f32(na), vaddvq_f32(nb));
    while i < n {
        let (x, y) = (*ap.add(i), *bp.add(i));
        sd += x * y;
        sa += x * x;
        sb += y * y;
        i += 1;
    }
    finish_cosine(sd, sa, sb)
}

/// Squared L2 from `q` to each of `R` rows, sharing one query load per
/// four dimensions. Each row has one 4-lane FMA accumulator, reduced by
/// `vaddvq_f32`, then a serial tail. `l2_sq` (`R = 1`), `l2_sq_x4`
/// (`R = 4`) and `l2_sq_batch` are all instances, so a pair gets the same
/// bits from every call shape.
///
/// # Safety
/// Each row pointer must reference at least `q.len()` readable floats.
#[target_feature(enable = "neon")]
unsafe fn l2_sq_rows<const R: usize>(q: &[f32], rows: [*const f32; R]) -> [f32; R] {
    let n = q.len();
    let qp = q.as_ptr();
    let mut acc = [vdupq_n_f32(0.0); R];
    let mut i = 0;
    while i + 4 <= n {
        let qv = vld1q_f32(qp.add(i));
        for r in 0..R {
            let d = vsubq_f32(qv, vld1q_f32(rows[r].add(i)));
            acc[r] = vfmaq_f32(acc[r], d, d);
        }
        i += 4;
    }
    let mut out = [0.0; R];
    for r in 0..R {
        out[r] = vaddvq_f32(acc[r]);
    }
    while i < n {
        let qi = *qp.add(i);
        for r in 0..R {
            let e = qi - *rows[r].add(i);
            out[r] += e * e;
        }
        i += 1;
    }
    out
}

/// Dot products of `q` with each of `R` rows; see [`l2_sq_rows`].
///
/// # Safety
/// Each row pointer must reference at least `q.len()` readable floats.
#[target_feature(enable = "neon")]
unsafe fn dot_rows<const R: usize>(q: &[f32], rows: [*const f32; R]) -> [f32; R] {
    let n = q.len();
    let qp = q.as_ptr();
    let mut acc = [vdupq_n_f32(0.0); R];
    let mut i = 0;
    while i + 4 <= n {
        let qv = vld1q_f32(qp.add(i));
        for r in 0..R {
            acc[r] = vfmaq_f32(acc[r], qv, vld1q_f32(rows[r].add(i)));
        }
        i += 4;
    }
    let mut out = [0.0; R];
    for r in 0..R {
        out[r] = vaddvq_f32(acc[r]);
    }
    while i < n {
        let qi = *qp.add(i);
        for r in 0..R {
            out[r] += qi * *rows[r].add(i);
        }
        i += 1;
    }
    out
}
