//! AVX2+FMA kernels for `x86_64` (`std::arch` intrinsics).
//!
//! Every `#[target_feature]` function here is reachable only through
//! [`KERNELS`], which the dispatcher selects strictly after
//! `is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")`
//! succeeds, so the safe wrappers below never execute on a CPU that lacks
//! the instructions. All loads are unaligned (`loadu`); slice-length
//! contracts are enforced by the wrappers in the parent module.
//!
//! This is the only module in `vdb-core` allowed to use `unsafe` (the
//! crate is `deny(unsafe_code)`): intrinsics cannot be called from safe
//! code, and each function's safety argument is the feature-gated dispatch
//! described above plus in-bounds pointer arithmetic over the checked
//! slices.
#![allow(unsafe_code)]

use super::dispatch::Kernels;
use super::finish_cosine;
use core::arch::x86_64::*;

/// The AVX2+FMA kernel set. Only installed after runtime feature detection.
pub static KERNELS: Kernels = Kernels {
    name: "avx2+fma",
    l2_sq,
    dot,
    cosine,
    l2_sq_x4,
    dot_x4,
    l2_sq_batch,
    dot_batch,
    adc_scan,
    sq8_l2,
    sq8_l2_batch,
};

fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: reachable only after the AVX2+FMA probe; the wrapper trims
    // `b` to `a.len()` floats.
    unsafe { l2_sq_rows(a, [b.as_ptr()])[0] }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: reachable only after the AVX2+FMA probe; the wrapper trims
    // `b` to `a.len()` floats.
    unsafe { dot_rows(a, [b.as_ptr()])[0] }
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    unsafe { cosine_avx2(a, b) }
}

fn l2_sq_x4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; 4] {
    // SAFETY: reachable only after the AVX2+FMA probe; the wrapper trims
    // every row to `q.len()` floats.
    unsafe { l2_sq_rows(q, [r0.as_ptr(), r1.as_ptr(), r2.as_ptr(), r3.as_ptr()]) }
}

fn dot_x4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; 4] {
    // SAFETY: reachable only after the AVX2+FMA probe; the wrapper trims
    // every row to `q.len()` floats.
    unsafe { dot_rows(q, [r0.as_ptr(), r1.as_ptr(), r2.as_ptr(), r3.as_ptr()]) }
}

fn l2_sq_batch(q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    unsafe { l2_sq_batch_avx2(q, rows, dim, out) }
}

fn dot_batch(q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    unsafe { dot_batch_avx2(q, rows, dim, out) }
}

fn adc_scan(table: &[f32], ksub: usize, codes: &[u8], m: usize, out: &mut [f32]) {
    unsafe { adc_scan_avx2(table, ksub, codes, m, out) }
}

fn sq8_l2(query: &[f32], code: &[u8], min: &[f32], step: &[f32]) -> f32 {
    unsafe { sq8_l2_avx2(query, code, min, step) }
}

fn sq8_l2_batch(query: &[f32], codes: &[u8], min: &[f32], step: &[f32], out: &mut [f32]) {
    unsafe { sq8_l2_batch_avx2(query, codes, min, step, out) }
}

/// Horizontal sum of the eight lanes of `v`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    _mm_cvtss_f32(s)
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn cosine_avx2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut dd = _mm256_setzero_ps();
    let mut na = _mm256_setzero_ps();
    let mut nb = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let av = _mm256_loadu_ps(ap.add(i));
        let bv = _mm256_loadu_ps(bp.add(i));
        dd = _mm256_fmadd_ps(av, bv, dd);
        na = _mm256_fmadd_ps(av, av, na);
        nb = _mm256_fmadd_ps(bv, bv, nb);
        i += 8;
    }
    let (mut sd, mut sa, mut sb) = (hsum(dd), hsum(na), hsum(nb));
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
/// eight dimensions. Each row has one 8-lane FMA accumulator, reduced by
/// [`hsum`], then a serial tail. `l2_sq` (`R = 1`), `l2_sq_x4` (`R = 4`)
/// and `l2_sq_batch` are all instances, so a pair gets the same bits from
/// every call shape.
///
/// # Safety
/// Each row pointer must reference at least `q.len()` readable floats.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn l2_sq_rows<const R: usize>(q: &[f32], rows: [*const f32; R]) -> [f32; R] {
    let n = q.len();
    let qp = q.as_ptr();
    let mut acc = [_mm256_setzero_ps(); R];
    let mut i = 0;
    while i + 8 <= n {
        let qv = _mm256_loadu_ps(qp.add(i));
        for r in 0..R {
            let d = _mm256_sub_ps(qv, _mm256_loadu_ps(rows[r].add(i)));
            acc[r] = _mm256_fmadd_ps(d, d, acc[r]);
        }
        i += 8;
    }
    let mut out = [0.0; R];
    for r in 0..R {
        out[r] = hsum(acc[r]);
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
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_rows<const R: usize>(q: &[f32], rows: [*const f32; R]) -> [f32; R] {
    let n = q.len();
    let qp = q.as_ptr();
    let mut acc = [_mm256_setzero_ps(); R];
    let mut i = 0;
    while i + 8 <= n {
        let qv = _mm256_loadu_ps(qp.add(i));
        for r in 0..R {
            acc[r] = _mm256_fmadd_ps(qv, _mm256_loadu_ps(rows[r].add(i)), acc[r]);
        }
        i += 8;
    }
    let mut out = [0.0; R];
    for r in 0..R {
        out[r] = hsum(acc[r]);
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

/// Prefetch the cache line at `rows[offset]` if it exists (`wrapping_add`
/// keeps the address computation defined even when the hint runs past the
/// end; the prefetch itself never faults).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn prefetch(rows: &[f32], offset: usize) {
    _mm_prefetch::<_MM_HINT_T0>(rows.as_ptr().wrapping_add(offset) as *const i8);
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn l2_sq_batch_avx2(q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    let n = out.len();
    let base = rows.as_ptr();
    let mut r = 0;
    while r + 4 <= n {
        prefetch(rows, (r + 4) * dim);
        prefetch(rows, (r + 5) * dim);
        let d = l2_sq_rows(
            q,
            [
                base.add(r * dim),
                base.add((r + 1) * dim),
                base.add((r + 2) * dim),
                base.add((r + 3) * dim),
            ],
        );
        out[r..r + 4].copy_from_slice(&d);
        r += 4;
    }
    while r < n {
        out[r] = l2_sq_rows(q, [base.add(r * dim)])[0];
        r += 1;
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_batch_avx2(q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    let n = out.len();
    let base = rows.as_ptr();
    let mut r = 0;
    while r + 4 <= n {
        prefetch(rows, (r + 4) * dim);
        prefetch(rows, (r + 5) * dim);
        let d = dot_rows(
            q,
            [
                base.add(r * dim),
                base.add((r + 1) * dim),
                base.add((r + 2) * dim),
                base.add((r + 3) * dim),
            ],
        );
        out[r..r + 4].copy_from_slice(&d);
        r += 4;
    }
    while r < n {
        out[r] = dot_rows(q, [base.add(r * dim)])[0];
        r += 1;
    }
}

/// ADC scan: for each code, evaluate eight subspaces per iteration with a
/// vector gather (`codes -> cvtepu8 -> +sub*ksub -> i32gather_ps`), the
/// QuickADC-style replacement for eight serial table lookups. Sub-codes are
/// clamped to `ksub-1` so corrupted codes cannot index outside the table.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn adc_scan_avx2(table: &[f32], ksub: usize, codes: &[u8], m: usize, out: &mut [f32]) {
    let n = out.len();
    let tp = table.as_ptr();
    let cp = codes.as_ptr();
    let chunks = m / 8;
    // Lane offsets into the flattened m × ksub table for eight consecutive
    // subspaces: [0, ksub, 2*ksub, ..., 7*ksub].
    let lane_base = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(ksub as i32),
    );
    let clamp = _mm256_set1_epi32(ksub as i32 - 1);
    let mut i = 0;
    while i < n {
        let code = cp.add(i * m);
        _mm_prefetch::<_MM_HINT_T0>(cp.wrapping_add((i + 4) * m) as *const i8);
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            // Eight sub-codes, zero-extended to i32 and clamped to the
            // codebook range.
            let bytes = _mm_loadl_epi64(code.add(c * 8) as *const __m128i);
            let sub_codes = _mm256_min_epi32(_mm256_cvtepu8_epi32(bytes), clamp);
            let idx = _mm256_add_epi32(
                sub_codes,
                _mm256_add_epi32(lane_base, _mm256_set1_epi32((c * 8 * ksub) as i32)),
            );
            acc = _mm256_add_ps(acc, _mm256_i32gather_ps::<4>(tp, idx));
        }
        let mut d = hsum(acc);
        for sub in chunks * 8..m {
            let c = (*code.add(sub) as usize).min(ksub - 1);
            d += *tp.add(sub * ksub + c);
        }
        out[i] = d;
        i += 1;
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sq8_l2_avx2(query: &[f32], code: &[u8], min: &[f32], step: &[f32]) -> f32 {
    let n = query.len();
    let (qp, cp, mp, sp) = (query.as_ptr(), code.as_ptr(), min.as_ptr(), step.as_ptr());
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let c = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(
            cp.add(i) as *const __m128i
        )));
        let decoded = _mm256_fmadd_ps(c, _mm256_loadu_ps(sp.add(i)), _mm256_loadu_ps(mp.add(i)));
        let d = _mm256_sub_ps(_mm256_loadu_ps(qp.add(i)), decoded);
        acc = _mm256_fmadd_ps(d, d, acc);
        i += 8;
    }
    let mut total = hsum(acc);
    while i < n {
        let decoded = *mp.add(i) + *cp.add(i) as f32 * *sp.add(i);
        let d = *qp.add(i) - decoded;
        total += d * d;
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sq8_l2_batch_avx2(
    query: &[f32],
    codes: &[u8],
    min: &[f32],
    step: &[f32],
    out: &mut [f32],
) {
    let dim = query.len();
    let cp = codes.as_ptr();
    for (r, o) in out.iter_mut().enumerate() {
        _mm_prefetch::<_MM_HINT_T0>(cp.wrapping_add((r + 2) * dim) as *const i8);
        *o = sq8_l2_avx2(
            query,
            std::slice::from_raw_parts(cp.add(r * dim), dim),
            min,
            step,
        );
    }
}
