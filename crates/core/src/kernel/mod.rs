//! Distance kernels: scalar references, portable blocked implementations,
//! and runtime-dispatched SIMD backends.
//!
//! The paper (§2.3, hardware acceleration) identifies similarity projection
//! as the dominant cost of vector search and surveys SIMD techniques
//! (QuickADC/Quicker ADC). This module implements that layer explicitly:
//!
//! - [`scalar`]: portable blocked kernels (eight independent accumulators so
//!   LLVM can auto-vectorize) — the fallback on hosts without a supported
//!   SIMD extension and the baseline of experiments T5/K1.
//! - `x86`: hand-written AVX2+FMA kernels (`std::arch`) on `x86_64`.
//! - `neon`: NEON kernels on `aarch64`.
//! - [`dispatch`]: a [`Kernels`] table of function pointers selected **once**
//!   per process from runtime CPU-feature detection
//!   (`is_x86_feature_detected!`) and cached in a `OnceLock`, so every hot
//!   call is a single indirect call through a warm pointer.
//!
//! The naive `*_scalar` functions are the ground-truth references used by
//! the equivalence suite (`tests/kernel_equivalence.rs`) and the K1
//! experiment; they are deliberately not blocked or dispatched.
//!
//! # Reduction order
//!
//! Within one backend each metric has one reduction order, written once
//! and shared by every call shape: the single-pair kernel is the one-row
//! case of the four-row body, and the batch kernel runs that body four
//! rows at a time. So `l2_sq`, `l2_sq_x4` and `l2_sq_batch` give the same
//! bits for the same pair, and likewise `dot`, `dot_x4` and `dot_batch`,
//! and `sq8_l2_sq` and `sq8_l2_sq_batch`. `Metric::distance`,
//! `distance_batch` and `distance_gather` inherit that identity. Across
//! backends the orders differ (lane count, horizontal-sum tree, fused or
//! separate multiply-add), so `scalar`, `avx2+fma` and `neon` may disagree
//! in the last bits.
//!
//! # Escape hatch
//!
//! Setting the environment variable `VDB_FORCE_SCALAR` to a non-empty value
//! other than `0` *before the first kernel call* forces the portable scalar
//! path regardless of CPU features (used by CI to exercise the fallback on
//! SIMD-capable runners). [`dispatch_name`] reports the active backend.
//!
//! # Length-mismatch policy
//!
//! Every kernel takes slice operands whose lengths should agree. Mismatched
//! lengths are a caller bug: all kernels `debug_assert` agreement, and in
//! release builds they uniformly **truncate to the common prefix** (the
//! minimum of the operand lengths, and for batched kernels the number of
//! whole rows present). No kernel panics or reads past a short operand in
//! release builds.

mod dispatch;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "aarch64")]
mod neon;

pub use dispatch::{dispatch_name, kernel_sets, kernels, simd_kernels, Kernels};

// ---------------------------------------------------------------------------
// Scalar reference kernels (naive; correctness ground truth)
// ---------------------------------------------------------------------------

/// Naive squared Euclidean distance (reference implementation).
#[inline]
pub fn l2_sq_scalar(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Naive dot product (reference implementation).
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Naive L1 (Manhattan) distance (reference implementation).
#[inline]
pub fn l1_scalar(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        acc += (a[i] - b[i]).abs();
    }
    acc
}

/// Naive cosine distance (reference implementation). Zero vectors are
/// treated as maximally dissimilar (distance 1) to keep the result finite.
#[inline]
pub fn cosine_scalar(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    let (mut dd, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
    for i in 0..a.len() {
        dd += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    finish_cosine(dd, na, nb)
}

/// Shared cosine epilogue: `1 - dd/sqrt(na*nb)` with the zero-vector guard.
/// Every backend funnels through this so edge-case semantics agree.
#[inline]
pub(crate) fn finish_cosine(dd: f32, na: f32, nb: f32) -> f32 {
    let denom = (na * nb).sqrt();
    if denom == 0.0 {
        1.0
    } else {
        1.0 - dd / denom
    }
}

/// Reference ADC scan: per-code table lookups with a single accumulator
/// (the pre-dispatch inner loop of IVFADC; kept as the K1 baseline).
pub fn adc_scan_scalar(table: &[f32], ksub: usize, codes: &[u8], m: usize, out: &mut [f32]) {
    let n = adc_rows(table, ksub, codes, m, out);
    for i in 0..n {
        let code = &codes[i * m..(i + 1) * m];
        let mut acc = 0.0f32;
        for (sub, &c) in code.iter().enumerate() {
            acc += table[sub * ksub + c as usize];
        }
        out[i] = acc;
    }
}

/// Reference SQ8 asymmetric squared-L2: decode each byte with `min + c*step`
/// and accumulate against the full-precision query.
pub fn sq8_l2_sq_scalar(query: &[f32], code: &[u8], min: &[f32], step: &[f32]) -> f32 {
    let dim = sq8_dim(query, code, min, step);
    let mut acc = 0.0f32;
    for i in 0..dim {
        let decoded = min[i] + code[i] as f32 * step[i];
        let d = query[i] - decoded;
        acc += d * d;
    }
    acc
}

// ---------------------------------------------------------------------------
// Dispatched kernels (AVX2+FMA / NEON / portable blocked fallback)
// ---------------------------------------------------------------------------

/// Squared Euclidean distance (dispatched).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    (kernels().l2_sq)(a, b)
}

/// Dot product (dispatched).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    (kernels().dot)(a, b)
}

/// Cosine *distance* `1 - cos(a, b)` (dispatched). Zero vectors are treated
/// as maximally dissimilar (distance 1) to keep the result finite.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    (kernels().cosine)(a, b)
}

/// Squared L2 from one query to four rows at once (dispatched). The SIMD
/// backends keep the query in registers and run four independent
/// accumulator chains; gather-style consumers (IVF list scans, graph
/// neighbor expansion) use this to batch non-contiguous rows.
#[inline]
pub fn l2_sq_x4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; 4] {
    let n = q
        .len()
        .min(r0.len())
        .min(r1.len())
        .min(r2.len())
        .min(r3.len());
    debug_assert_eq!(n, q.len(), "kernel length mismatch");
    (kernels().l2_sq_x4)(&q[..n], &r0[..n], &r1[..n], &r2[..n], &r3[..n])
}

/// Dot products of one query against four rows at once (dispatched).
#[inline]
pub fn dot_x4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; 4] {
    let n = q
        .len()
        .min(r0.len())
        .min(r1.len())
        .min(r2.len())
        .min(r3.len());
    debug_assert_eq!(n, q.len(), "kernel length mismatch");
    (kernels().dot_x4)(&q[..n], &r0[..n], &r1[..n], &r2[..n], &r3[..n])
}

/// Squared L2 from `q` to each row of the row-major `rows` buffer, writing
/// into `out` (dispatched). This is the similarity-projection inner loop:
/// the SIMD backends score four rows per iteration against one broadcast
/// query with software prefetch of the next row block.
pub fn l2_sq_batch(q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    let (q, out, n) = batch_args(q, rows, dim, out);
    (kernels().l2_sq_batch)(q, &rows[..n * dim], dim, out);
}

/// Batched dot products (dispatched); see [`l2_sq_batch`].
pub fn dot_batch(q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    let (q, out, n) = batch_args(q, rows, dim, out);
    (kernels().dot_batch)(q, &rows[..n * dim], dim, out);
}

/// ADC scan (dispatched): evaluate `out.len()` contiguous PQ codes of `m`
/// bytes each against an `m × ksub` lookup table. Replaces per-code gather
/// loops in IVF-PQ list scans; the AVX2 backend evaluates eight subspaces
/// per instruction via vector gathers.
///
/// Out-of-range sub-codes (possible only with corrupted codes when
/// `ksub < 256`) are clamped to `ksub - 1` rather than read out of bounds.
pub fn adc_scan(table: &[f32], ksub: usize, codes: &[u8], m: usize, out: &mut [f32]) {
    let n = adc_rows(table, ksub, codes, m, out);
    (kernels().adc_scan)(table, ksub, &codes[..n * m], m, &mut out[..n]);
}

/// SQ8 asymmetric squared-L2 distance (dispatched): full-precision `query`
/// against a u8 code decoded as `min[i] + code[i] * step[i]`.
#[inline]
pub fn sq8_l2_sq(query: &[f32], code: &[u8], min: &[f32], step: &[f32]) -> f32 {
    let dim = sq8_dim(query, code, min, step);
    (kernels().sq8_l2)(&query[..dim], &code[..dim], &min[..dim], &step[..dim])
}

/// Batched SQ8 asymmetric squared-L2 over contiguous codes of `query.len()`
/// bytes each (dispatched); the inner loop of IVF-SQ list scans.
pub fn sq8_l2_sq_batch(query: &[f32], codes: &[u8], min: &[f32], step: &[f32], out: &mut [f32]) {
    let dim = query.len().min(min.len()).min(step.len());
    debug_assert_eq!(dim, query.len(), "kernel length mismatch");
    debug_assert_eq!(codes.len(), dim * out.len(), "kernel length mismatch");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    let n = out.len().min(codes.len() / dim);
    (kernels().sq8_l2_batch)(
        &query[..dim],
        &codes[..n * dim],
        &min[..dim],
        &step[..dim],
        &mut out[..n],
    );
}

// ---------------------------------------------------------------------------
// Portable kernels without a dispatched backend
// ---------------------------------------------------------------------------

/// Blocked L1 distance.
#[inline]
pub fn l1(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    scalar::l1(a, b)
}

/// L∞ (Chebyshev) distance.
#[inline]
pub fn linf(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    let mut m = 0.0f32;
    for i in 0..a.len() {
        m = m.max((a[i] - b[i]).abs());
    }
    m
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Minkowski distance of order `p` (supports fractional p > 0).
#[inline]
pub fn minkowski(a: &[f32], b: &[f32], p: f32) -> f32 {
    debug_assert!(p > 0.0);
    let (a, b) = pair(a, b);
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        acc += (a[i] - b[i]).abs().powf(p);
    }
    acc.powf(1.0 / p)
}

/// Hamming distance over the signs of the components (the standard way to
/// apply Hamming to real-valued embeddings: binarize at zero).
#[inline]
pub fn hamming_sign(a: &[f32], b: &[f32]) -> f32 {
    let (a, b) = pair(a, b);
    let mut acc = 0u32;
    for i in 0..a.len() {
        acc += ((a[i] >= 0.0) != (b[i] >= 0.0)) as u32;
    }
    acc as f32
}

/// Hamming distance between packed 64-bit binary codes.
#[inline]
pub fn hamming_codes(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "kernel length mismatch");
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Weighted squared Euclidean distance (used by learned diagonal metrics).
#[inline]
pub fn weighted_l2_sq(a: &[f32], b: &[f32], w: &[f32]) -> f32 {
    let n = a.len().min(b.len()).min(w.len());
    debug_assert_eq!(n, a.len(), "kernel length mismatch");
    let (a, b, w) = (&a[..n], &b[..n], &w[..n]);
    let mut acc = 0.0f32;
    for i in 0..n {
        let d = a[i] - b[i];
        acc += w[i] * d * d;
    }
    acc
}

// ---------------------------------------------------------------------------
// Length-policy helpers
// ---------------------------------------------------------------------------

/// Trim a pairwise kernel's operands to their common prefix.
#[inline]
fn pair<'a>(a: &'a [f32], b: &'a [f32]) -> (&'a [f32], &'a [f32]) {
    debug_assert_eq!(a.len(), b.len(), "kernel length mismatch");
    let n = a.len().min(b.len());
    (&a[..n], &b[..n])
}

/// Trim batch-kernel operands: the query to `dim` and `out` to the number
/// of whole rows actually present in `rows`. Returns the trimmed query and
/// output plus the row count.
#[inline]
fn batch_args<'a, 'b>(
    q: &'a [f32],
    rows: &[f32],
    dim: usize,
    out: &'b mut [f32],
) -> (&'a [f32], &'b mut [f32], usize) {
    debug_assert_eq!(q.len(), dim, "kernel length mismatch");
    debug_assert_eq!(rows.len(), dim * out.len(), "kernel length mismatch");
    if dim == 0 {
        out.fill(0.0);
        return (q, &mut [], 0);
    }
    let q = &q[..q.len().min(dim)];
    let n = out.len().min(rows.len() / dim);
    (q, &mut out[..n], n)
}

/// Validate ADC-scan operands; returns the number of scannable codes.
#[inline]
fn adc_rows(table: &[f32], ksub: usize, codes: &[u8], m: usize, out: &mut [f32]) -> usize {
    debug_assert!(table.len() >= m * ksub, "kernel length mismatch");
    debug_assert_eq!(codes.len(), m * out.len(), "kernel length mismatch");
    if m == 0 || ksub == 0 {
        out.fill(0.0);
        return 0;
    }
    if table.len() < m * ksub {
        out.fill(0.0);
        return 0;
    }
    out.len().min(codes.len() / m)
}

/// Common prefix length of the four SQ8 operands.
#[inline]
fn sq8_dim(query: &[f32], code: &[u8], min: &[f32], step: &[f32]) -> usize {
    let dim = query.len().min(code.len()).min(min.len()).min(step.len());
    debug_assert_eq!(dim, query.len(), "kernel length mismatch");
    dim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_pair(dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = Rng::seed_from_u64(seed);
        let a: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
        let b: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
        (a, b)
    }

    #[test]
    fn dispatched_matches_scalar_l2() {
        for dim in [1, 3, 7, 8, 9, 16, 63, 64, 65, 128, 300] {
            let (a, b) = random_pair(dim, dim as u64);
            let fast = l2_sq(&a, &b);
            let slow = l2_sq_scalar(&a, &b);
            assert!(
                (fast - slow).abs() <= 1e-3 * slow.max(1.0),
                "dim {dim}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn dispatched_matches_scalar_dot() {
        for dim in [1, 5, 8, 17, 96, 257] {
            let (a, b) = random_pair(dim, 100 + dim as u64);
            let fast = dot(&a, &b);
            let slow = dot_scalar(&a, &b);
            assert!(
                (fast - slow).abs() <= 1e-3 * slow.abs().max(1.0),
                "dim {dim}"
            );
        }
    }

    #[test]
    fn blocked_matches_scalar_l1() {
        for dim in [1, 8, 33, 100] {
            let (a, b) = random_pair(dim, 200 + dim as u64);
            assert!((l1(&a, &b) - l1_scalar(&a, &b)).abs() < 1e-3);
        }
    }

    #[test]
    fn known_values() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert_eq!(l2_sq(&a, &b), 25.0);
        assert_eq!(dot(&a, &b), 25.0);
        assert_eq!(l1(&a, &b), 7.0);
        assert_eq!(linf(&a, &b), 4.0);
        assert!((minkowski(&a, &b, 2.0) - 5.0).abs() < 1e-6);
        assert!((minkowski(&a, &b, 1.0) - 7.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_properties() {
        let a = [1.0, 0.0];
        assert!(
            cosine_distance(&a, &[2.0, 0.0]).abs() < 1e-6,
            "parallel => 0"
        );
        assert!(
            (cosine_distance(&a, &[0.0, 3.0]) - 1.0).abs() < 1e-6,
            "orthogonal => 1"
        );
        assert!(
            (cosine_distance(&a, &[-1.0, 0.0]) - 2.0).abs() < 1e-6,
            "opposite => 2"
        );
        assert_eq!(cosine_distance(&a, &[0.0, 0.0]), 1.0, "zero vector => 1");
    }

    #[test]
    fn hamming_variants() {
        assert_eq!(hamming_sign(&[1.0, -1.0, 1.0], &[1.0, 1.0, -1.0]), 2.0);
        assert_eq!(hamming_codes(&[0b1011], &[0b0110]), 3);
    }

    #[test]
    fn weighted_l2_reduces_to_l2_with_unit_weights() {
        let (a, b) = random_pair(16, 7);
        let w = vec![1.0f32; 16];
        assert!((weighted_l2_sq(&a, &b, &w) - l2_sq(&a, &b)).abs() < 1e-4);
    }

    #[test]
    fn dispatch_is_stable_and_named() {
        let name = dispatch_name();
        assert!(!name.is_empty());
        assert_eq!(dispatch_name(), name, "cached selection never changes");
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_mode_truncates_mismatched_lengths() {
        // Documented policy: compute over the common prefix.
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [1.0f32, 2.0];
        assert_eq!(l2_sq(&a, &b), 0.0);
        assert_eq!(dot(&a, &b), 5.0);
        assert_eq!(l1(&a, &b), 0.0);
        assert_eq!(weighted_l2_sq(&a, &b, &[1.0, 1.0, 1.0]), 0.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "kernel length mismatch")]
    fn debug_mode_asserts_on_mismatch() {
        let _ = l2_sq(&[1.0, 2.0], &[1.0]);
    }
}
