//! Similarity score design (§2.1 of the paper).
//!
//! All scores are exposed under a single *distance* convention
//! (lower = more similar) so that indexes, heaps, and plans compose without
//! per-score special cases. Similarity-flavoured scores (inner product,
//! cosine) are mapped to distances by an order-reversing transform;
//! [`Metric::similarity`] recovers the natural orientation for users.

use crate::error::{Error, Result};
use crate::kernel;
use crate::linalg::Matrix;
use crate::vector::Vectors;
use std::sync::Arc;

/// A similarity score from the paper's "basic scores" taxonomy, plus the
/// learned diagonal metric (§2.1 score design).
#[derive(Debug, Clone)]
pub enum Metric {
    /// Squared Euclidean distance (monotone in L2; cheaper — no sqrt).
    SquaredEuclidean,
    /// Euclidean (L2 / Minkowski p=2) distance.
    Euclidean,
    /// Manhattan (L1 / Minkowski p=1) distance.
    Manhattan,
    /// Chebyshev (L∞) distance.
    Chebyshev,
    /// Minkowski distance of arbitrary order `p > 0` (fractional allowed;
    /// see the curse-of-dimensionality discussion, §2.1).
    Minkowski(f32),
    /// Negated inner product: `-(a·b)` so that larger dot products sort
    /// first under the distance convention.
    InnerProduct,
    /// Cosine distance `1 - cos(a,b)`.
    Cosine,
    /// Hamming distance over component signs.
    Hamming,
    /// Mahalanobis distance with a precomputed inverse covariance matrix.
    Mahalanobis(Arc<Matrix>),
    /// Learned diagonal metric: weighted squared Euclidean with
    /// per-dimension weights (see `score::learned`).
    WeightedL2(Arc<Vec<f32>>),
}

impl Metric {
    /// Distance between two vectors; **lower is more similar** for every
    /// variant.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::SquaredEuclidean => kernel::l2_sq(a, b),
            Metric::Euclidean => kernel::l2_sq(a, b).sqrt(),
            Metric::Manhattan => kernel::l1(a, b),
            Metric::Chebyshev => kernel::linf(a, b),
            Metric::Minkowski(p) => kernel::minkowski(a, b, *p),
            Metric::InnerProduct => -kernel::dot(a, b),
            Metric::Cosine => kernel::cosine_distance(a, b),
            Metric::Hamming => kernel::hamming_sign(a, b),
            Metric::Mahalanobis(inv_cov) => {
                let d = a.len();
                debug_assert_eq!(inv_cov.rows(), d);
                let diff: Vec<f64> = (0..d).map(|i| (a[i] - b[i]) as f64).collect();
                let md = inv_cov.matvec(&diff);
                let q: f64 = diff.iter().zip(&md).map(|(x, y)| x * y).sum();
                q.max(0.0).sqrt() as f32
            }
            Metric::WeightedL2(w) => kernel::weighted_l2_sq(a, b, w),
        }
    }

    /// Distances from `query` to every `dim`-wide row of the contiguous
    /// `rows` buffer, written into `out` (one entry per row).
    ///
    /// The L2-family and inner-product variants route through the
    /// dispatched multi-row SIMD kernels ([`kernel::l2_sq_batch`] /
    /// [`kernel::dot_batch`]); the remaining variants fall back to per-row
    /// [`Metric::distance`]. Results are identical to calling `distance`
    /// row by row.
    pub fn distance_batch(&self, query: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
        match self {
            Metric::SquaredEuclidean => kernel::l2_sq_batch(query, rows, dim, out),
            Metric::Euclidean => {
                kernel::l2_sq_batch(query, rows, dim, out);
                for d in out.iter_mut() {
                    *d = d.sqrt();
                }
            }
            Metric::InnerProduct => {
                kernel::dot_batch(query, rows, dim, out);
                for d in out.iter_mut() {
                    *d = -*d;
                }
            }
            Metric::Cosine => {
                for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
                    *o = kernel::cosine_distance(query, row);
                }
            }
            _ => {
                for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
                    *o = self.distance(query, row);
                }
            }
        }
    }

    /// Distances from `query` to the rows of `vectors` named by `ids`,
    /// written into `out` (parallel to `ids`).
    ///
    /// The gathered rows are not contiguous, so the L2/IP variants use the
    /// four-row kernels ([`kernel::l2_sq_x4`] / [`kernel::dot_x4`]) that
    /// share one query load across four independent accumulator chains —
    /// the scoring shape of IVF list scans and graph neighbor expansion.
    /// Results are identical to calling `distance` on each named row.
    pub fn distance_gather(&self, query: &[f32], vectors: &Vectors, ids: &[u32], out: &mut [f32]) {
        debug_assert_eq!(ids.len(), out.len());
        let n = ids.len().min(out.len());
        match self {
            Metric::SquaredEuclidean | Metric::Euclidean | Metric::InnerProduct => {
                let mut i = 0;
                while i + 4 <= n {
                    let r0 = vectors.get(ids[i] as usize);
                    let r1 = vectors.get(ids[i + 1] as usize);
                    let r2 = vectors.get(ids[i + 2] as usize);
                    let r3 = vectors.get(ids[i + 3] as usize);
                    let d = match self {
                        Metric::InnerProduct => {
                            let mut d = kernel::dot_x4(query, r0, r1, r2, r3);
                            for v in d.iter_mut() {
                                *v = -*v;
                            }
                            d
                        }
                        Metric::Euclidean => {
                            let mut d = kernel::l2_sq_x4(query, r0, r1, r2, r3);
                            for v in d.iter_mut() {
                                *v = v.sqrt();
                            }
                            d
                        }
                        _ => kernel::l2_sq_x4(query, r0, r1, r2, r3),
                    };
                    out[i..i + 4].copy_from_slice(&d);
                    i += 4;
                }
                while i < n {
                    out[i] = self.distance(query, vectors.get(ids[i] as usize));
                    i += 1;
                }
            }
            _ => {
                for i in 0..n {
                    out[i] = self.distance(query, vectors.get(ids[i] as usize));
                }
            }
        }
    }

    /// The natural similarity orientation of this score: higher is more
    /// similar. For distance-flavoured scores this is the negated distance.
    #[inline]
    pub fn similarity(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::InnerProduct => kernel::dot(a, b),
            Metric::Cosine => 1.0 - kernel::cosine_distance(a, b),
            _ => -self.distance(a, b),
        }
    }

    /// Whether this score satisfies the metric axioms (identity, symmetry,
    /// triangle inequality). Graph indexes with pruning rules that assume
    /// the triangle inequality can still be *used* with non-metric scores,
    /// but lose their theoretical guarantees — callers can check this.
    pub fn is_true_metric(&self) -> bool {
        match self {
            Metric::Euclidean
            | Metric::Manhattan
            | Metric::Chebyshev
            | Metric::Hamming
            | Metric::Mahalanobis(_) => true,
            Metric::Minkowski(p) => *p >= 1.0,
            Metric::SquaredEuclidean
            | Metric::InnerProduct
            | Metric::Cosine
            | Metric::WeightedL2(_) => false,
        }
    }

    /// Validate parameters (e.g. Minkowski order, Mahalanobis shape).
    pub fn validate(&self, dim: usize) -> Result<()> {
        match self {
            Metric::Minkowski(p) if p.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) => {
                Err(Error::InvalidParameter(format!(
                    "Minkowski order must be > 0, got {p}"
                )))
            }
            Metric::Mahalanobis(m) if m.rows() != dim || m.cols() != dim => {
                Err(Error::InvalidParameter(format!(
                    "Mahalanobis matrix is {}x{}, data dimension is {dim}",
                    m.rows(),
                    m.cols()
                )))
            }
            Metric::WeightedL2(w) if w.len() != dim => Err(Error::InvalidParameter(format!(
                "weight vector has {} entries, data dimension is {dim}",
                w.len()
            ))),
            _ => Ok(()),
        }
    }

    /// Short stable name (used in experiment output and VQL).
    pub fn name(&self) -> &'static str {
        match self {
            Metric::SquaredEuclidean => "l2sq",
            Metric::Euclidean => "l2",
            Metric::Manhattan => "l1",
            Metric::Chebyshev => "linf",
            Metric::Minkowski(_) => "minkowski",
            Metric::InnerProduct => "ip",
            Metric::Cosine => "cosine",
            Metric::Hamming => "hamming",
            Metric::Mahalanobis(_) => "mahalanobis",
            Metric::WeightedL2(_) => "weighted_l2",
        }
    }

    /// Parse a metric by name (the forms without parameters).
    pub fn parse(name: &str) -> Result<Metric> {
        match name {
            "l2sq" => Ok(Metric::SquaredEuclidean),
            "l2" | "euclidean" => Ok(Metric::Euclidean),
            "l1" | "manhattan" => Ok(Metric::Manhattan),
            "linf" | "chebyshev" => Ok(Metric::Chebyshev),
            "ip" | "dot" | "inner_product" => Ok(Metric::InnerProduct),
            "cosine" | "cos" => Ok(Metric::Cosine),
            "hamming" => Ok(Metric::Hamming),
            other => Err(Error::Parse(format!("unknown metric `{other}`"))),
        }
    }
}

impl PartialEq for Metric {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Metric::Minkowski(a), Metric::Minkowski(b)) => a == b,
            (Metric::Mahalanobis(a), Metric::Mahalanobis(b)) => Arc::ptr_eq(a, b) || a == b,
            (Metric::WeightedL2(a), Metric::WeightedL2(b)) => a == b,
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg;
    use crate::rng::Rng;
    use crate::vector::Vectors;

    #[test]
    fn lower_is_more_similar_for_all_variants() {
        // q is closer to a than to b in every reasonable sense.
        let q = [1.0, 1.0, 0.0, 0.0];
        let a = [1.1, 0.9, 0.0, 0.0];
        let b = [-1.0, -1.0, 5.0, 5.0];
        let metrics = [
            Metric::SquaredEuclidean,
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Minkowski(0.5),
            Metric::InnerProduct,
            Metric::Cosine,
            Metric::Hamming,
        ];
        for m in metrics {
            assert!(
                m.distance(&q, &a) < m.distance(&q, &b),
                "{} ordered wrong",
                m.name()
            );
        }
    }

    #[test]
    fn similarity_reverses_distance_order() {
        let q = [1.0, 2.0];
        let a = [1.0, 2.1];
        let b = [9.0, -4.0];
        for m in [Metric::Euclidean, Metric::InnerProduct, Metric::Cosine] {
            assert!(m.similarity(&q, &a) > m.similarity(&q, &b));
        }
    }

    #[test]
    fn mahalanobis_with_identity_is_euclidean() {
        let inv = Arc::new(Matrix::identity(3));
        let m = Metric::Mahalanobis(inv);
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert!((m.distance(&a, &b) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn mahalanobis_downweights_high_variance_axes() {
        // Covariance with large variance on axis 0.
        let mut rng = Rng::seed_from_u64(1);
        let mut v = Vectors::new(2);
        for _ in 0..1000 {
            v.push(&[rng.normal_f32() * 10.0, rng.normal_f32() * 0.5])
                .unwrap();
        }
        let cov = linalg::covariance(&v).unwrap();
        let inv = Arc::new(cov.inverse().unwrap());
        let m = Metric::Mahalanobis(inv);
        // A 1-unit offset along the high-variance axis should count less
        // than along the low-variance axis.
        let o = [0.0, 0.0];
        assert!(m.distance(&o, &[1.0, 0.0]) < m.distance(&o, &[0.0, 1.0]));
    }

    #[test]
    fn metric_axioms_flags() {
        assert!(Metric::Euclidean.is_true_metric());
        assert!(!Metric::SquaredEuclidean.is_true_metric());
        assert!(!Metric::Minkowski(0.5).is_true_metric());
        assert!(Metric::Minkowski(3.0).is_true_metric());
        assert!(!Metric::InnerProduct.is_true_metric());
    }

    #[test]
    fn validate_catches_bad_params() {
        assert!(Metric::Minkowski(0.0).validate(4).is_err());
        assert!(Metric::Minkowski(-1.0).validate(4).is_err());
        let m = Metric::Mahalanobis(Arc::new(Matrix::identity(3)));
        assert!(m.validate(4).is_err());
        assert!(m.validate(3).is_ok());
        let w = Metric::WeightedL2(Arc::new(vec![1.0; 2]));
        assert!(w.validate(3).is_err());
    }

    #[test]
    fn batch_and_gather_match_pairwise_distance() {
        let mut rng = Rng::seed_from_u64(42);
        let dim = 19;
        let n = 13;
        let mut v = Vectors::new(dim);
        for _ in 0..n {
            let row: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
            v.push(&row).unwrap();
        }
        let q: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
        let ids: Vec<u32> = (0..n as u32).rev().collect();
        let metrics = [
            Metric::SquaredEuclidean,
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::InnerProduct,
            Metric::Cosine,
        ];
        for m in metrics {
            let mut batch = vec![0.0; n];
            m.distance_batch(&q, v.as_flat(), dim, &mut batch);
            for i in 0..n {
                let want = m.distance(&q, v.get(i));
                assert!(
                    (batch[i] - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "{} batch row {i}: {} vs {want}",
                    m.name(),
                    batch[i]
                );
            }
            let mut gathered = vec![0.0; n];
            m.distance_gather(&q, &v, &ids, &mut gathered);
            for i in 0..n {
                let want = m.distance(&q, v.get(ids[i] as usize));
                assert!(
                    (gathered[i] - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "{} gather slot {i}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn parse_roundtrip() {
        for name in ["l2", "l2sq", "l1", "linf", "ip", "cosine", "hamming"] {
            let m = Metric::parse(name).unwrap();
            assert!(Metric::parse(m.name()).is_ok());
        }
        assert!(Metric::parse("nope").is_err());
    }
}
