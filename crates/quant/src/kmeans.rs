//! Lloyd's k-means with k-means++ seeding.
//!
//! The workhorse of learned partitioning in the paper (§2.2): IVF coarse
//! quantizers, SPANN bucketing, and per-subspace PQ codebooks all train
//! through this module.

use vdb_core::error::{Error, Result};
use vdb_core::kernel;
use vdb_core::parallel::{clamp_threads, parallel_map_chunks, BuildOptions};
use vdb_core::rng::Rng;
use vdb_core::vector::Vectors;

/// Training configuration.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of centroids.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence threshold on relative inertia improvement.
    pub tolerance: f64,
    /// RNG seed (k-means++ seeding and empty-cluster reseeding).
    pub seed: u64,
}

impl KMeansConfig {
    /// Config with sensible defaults for `k` centroids.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iters: 25,
            tolerance: 1e-4,
            seed: 0x5EED,
        }
    }
}

/// A trained k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Vectors,
    /// Final inertia (sum of squared distances to assigned centroids).
    pub inertia: f64,
    /// Iterations actually run.
    pub iterations: usize,
}

impl KMeans {
    /// Train on `data` serially. `k` is clamped to the number of points.
    pub fn train(data: &Vectors, cfg: &KMeansConfig) -> Result<Self> {
        KMeans::train_with(data, cfg, &BuildOptions::serial())
    }

    /// Train on `data`, fanning each Lloyd iteration's assignment step
    /// out over row chunks. Each row's nearest centroid is a pure
    /// function of the frozen centroids; the inertia sum, the centroid
    /// update and the empty-cluster reseeding then run serially in row
    /// order, so the model is the same at any thread count.
    pub fn train_with(data: &Vectors, cfg: &KMeansConfig, opts: &BuildOptions) -> Result<Self> {
        if data.is_empty() {
            return Err(Error::EmptyCollection);
        }
        if cfg.k == 0 {
            return Err(Error::InvalidParameter("k must be positive".into()));
        }
        let threads = clamp_threads(opts.threads, data.len() / 64);
        let k = cfg.k.min(data.len());
        let dim = data.dim();
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let mut centroids = plus_plus_init(data, k, &mut rng);
        let mut prev_inertia = f64::INFINITY;
        let mut inertia = 0.0;
        let mut iterations = 0;
        for iter in 0..cfg.max_iters {
            iterations = iter + 1;
            // Assignment step.
            let assign = parallel_map_chunks(data.len(), threads, |_, range| {
                range
                    .map(|i| nearest_centroid(&centroids, data.get(i)))
                    .collect::<Vec<_>>()
            })
            .concat();
            inertia = assign.iter().map(|&(_, d)| d as f64).sum();
            // Update step.
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for (row, &(c, _)) in data.iter().zip(&assign) {
                counts[c] += 1;
                for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row) {
                    *s += x as f64;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Reseed empty cluster at a random data point.
                    let p = data.get(rng.below(data.len()));
                    centroids.get_mut(c).copy_from_slice(p);
                    continue;
                }
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in centroids
                    .get_mut(c)
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *dst = (s * inv) as f32;
                }
            }
            if prev_inertia.is_finite() {
                let improvement = (prev_inertia - inertia) / prev_inertia.max(1e-30);
                if improvement >= 0.0 && improvement < cfg.tolerance {
                    break;
                }
            }
            prev_inertia = inertia;
        }
        Ok(KMeans {
            centroids,
            inertia,
            iterations,
        })
    }

    /// The trained centroids.
    pub fn centroids(&self) -> &Vectors {
        &self.centroids
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Nearest centroid of `v` and its squared L2 distance.
    pub fn assign(&self, v: &[f32]) -> (usize, f32) {
        nearest_centroid(&self.centroids, v)
    }

    /// Indices of the `p` nearest centroids, best first (IVF multi-probe).
    pub fn assign_multi(&self, v: &[f32], p: usize) -> Vec<usize> {
        let mut order = Vec::new();
        let mut out = Vec::new();
        self.assign_multi_into(v, p, &mut order, &mut out);
        out.into_iter().map(|c| c as usize).collect()
    }

    /// Allocation-free [`Self::assign_multi`]: ranks centroids into `order`
    /// and writes the `p` best centroid ids into `out`, best first. Both
    /// buffers are cleared and reused, so a warm caller allocates nothing.
    /// Scoring runs four centroids at a time through the dispatched
    /// multi-row kernel.
    pub fn assign_multi_into(
        &self,
        v: &[f32],
        p: usize,
        order: &mut Vec<(f32, u32)>,
        out: &mut Vec<u32>,
    ) {
        order.clear();
        let n = self.centroids.len();
        let mut c = 0;
        while c + 4 <= n {
            let d = kernel::l2_sq_x4(
                v,
                self.centroids.get(c),
                self.centroids.get(c + 1),
                self.centroids.get(c + 2),
                self.centroids.get(c + 3),
            );
            for (j, &dj) in d.iter().enumerate() {
                order.push((dj, (c + j) as u32));
            }
            c += 4;
        }
        while c < n {
            order.push((kernel::l2_sq(v, self.centroids.get(c)), c as u32));
            c += 1;
        }
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.clear();
        out.extend(order.iter().take(p).map(|&(_, c)| c));
    }

    /// Assign every row of `data`, returning per-row centroid ids.
    pub fn assign_all(&self, data: &Vectors) -> Vec<usize> {
        data.iter().map(|row| self.assign(row).0).collect()
    }

    /// Overwrite centroid `c` in place (online maintenance: targeted
    /// re-clustering recomputes a drifted list's centroid as the mean
    /// of its current members). Panics on dimension mismatch.
    pub fn set_centroid(&mut self, c: usize, v: &[f32]) {
        self.centroids.get_mut(c).copy_from_slice(v);
    }
}

/// Argmin over centroids, four at a time through the dispatched multi-row
/// kernel. First-wins on ties (strict `<`), matching the scalar loop.
fn nearest_centroid(centroids: &Vectors, v: &[f32]) -> (usize, f32) {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    let n = centroids.len();
    let mut c = 0;
    while c + 4 <= n {
        let d = kernel::l2_sq_x4(
            v,
            centroids.get(c),
            centroids.get(c + 1),
            centroids.get(c + 2),
            centroids.get(c + 3),
        );
        for (j, &dj) in d.iter().enumerate() {
            if dj < best_d {
                best_d = dj;
                best = c + j;
            }
        }
        c += 4;
    }
    while c < n {
        let d = kernel::l2_sq(v, centroids.get(c));
        if d < best_d {
            best_d = d;
            best = c;
        }
        c += 1;
    }
    (best, best_d)
}

/// k-means++ seeding: first centroid uniform, each next proportional to
/// squared distance from the nearest chosen centroid.
fn plus_plus_init(data: &Vectors, k: usize, rng: &mut Rng) -> Vectors {
    let mut centroids = Vectors::with_capacity(data.dim(), k);
    let first = rng.below(data.len());
    centroids.push(data.get(first)).expect("valid row");
    // Both the seeding pass and each update are one batched scan of the
    // whole dataset against a single centroid query.
    let mut d2 = vec![0.0f32; data.len()];
    kernel::l2_sq_batch(data.get(first), data.as_flat(), data.dim(), &mut d2);
    let mut tmp = vec![0.0f32; data.len()];
    for _ in 1..k {
        let total: f64 = d2.iter().map(|&d| d as f64).sum();
        let pick = if total <= 0.0 {
            rng.below(data.len())
        } else {
            let mut target = rng.f64() * total;
            let mut idx = 0;
            for (i, &d) in d2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    idx = i;
                    break;
                }
            }
            idx
        };
        centroids.push(data.get(pick)).expect("valid row");
        kernel::l2_sq_batch(data.get(pick), data.as_flat(), data.dim(), &mut tmp);
        for (d, &t) in d2.iter_mut().zip(&tmp) {
            if t < *d {
                *d = t;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;

    #[test]
    fn recovers_well_separated_clusters() {
        let mut rng = Rng::seed_from_u64(1);
        let c = dataset::clustered(600, 8, 4, 0.05, &mut rng);
        let km = KMeans::train(&c.vectors, &KMeansConfig::new(4)).unwrap();
        // Every true center should have a trained centroid very close by.
        for center in c.centers.iter() {
            let (_, d) = km.assign(center);
            assert!(d < 0.5, "no centroid near a true center (d={d})");
        }
    }

    #[test]
    fn inertia_decreases_monotonically_enough() {
        let mut rng = Rng::seed_from_u64(2);
        let data = dataset::gaussian(400, 6, &mut rng);
        let km1 = KMeans::train(
            &data,
            &KMeansConfig {
                k: 2,
                max_iters: 1,
                ..KMeansConfig::new(2)
            },
        )
        .unwrap();
        let km20 = KMeans::train(
            &data,
            &KMeansConfig {
                k: 2,
                max_iters: 20,
                ..KMeansConfig::new(2)
            },
        )
        .unwrap();
        assert!(km20.inertia <= km1.inertia * 1.0001);
    }

    #[test]
    fn k_clamped_to_n() {
        let mut rng = Rng::seed_from_u64(3);
        let data = dataset::gaussian(3, 4, &mut rng);
        let km = KMeans::train(&data, &KMeansConfig::new(10)).unwrap();
        assert_eq!(km.k(), 3);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(KMeans::train(&Vectors::new(4), &KMeansConfig::new(2)).is_err());
        let mut rng = Rng::seed_from_u64(4);
        let data = dataset::gaussian(10, 4, &mut rng);
        assert!(KMeans::train(&data, &KMeansConfig::new(0)).is_err());
    }

    #[test]
    fn assign_multi_sorted_and_distinct() {
        let mut rng = Rng::seed_from_u64(5);
        let c = dataset::clustered(300, 4, 6, 0.1, &mut rng);
        let km = KMeans::train(&c.vectors, &KMeansConfig::new(6)).unwrap();
        let probes = km.assign_multi(c.vectors.get(0), 3);
        assert_eq!(probes.len(), 3);
        let set: std::collections::HashSet<_> = probes.iter().collect();
        assert_eq!(set.len(), 3);
        assert_eq!(probes[0], km.assign(c.vectors.get(0)).0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = Rng::seed_from_u64(6);
        let data = dataset::gaussian(200, 5, &mut rng);
        let a = KMeans::train(&data, &KMeansConfig::new(5)).unwrap();
        let b = KMeans::train(&data, &KMeansConfig::new(5)).unwrap();
        assert_eq!(a.centroids().as_flat(), b.centroids().as_flat());
    }

    #[test]
    fn parallel_train_matches_serial_quality() {
        let mut rng = Rng::seed_from_u64(10);
        let c = dataset::clustered(600, 8, 4, 0.05, &mut rng);
        let serial = KMeans::train(&c.vectors, &KMeansConfig::new(4)).unwrap();
        let par = KMeans::train_with(
            &c.vectors,
            &KMeansConfig::new(4),
            &BuildOptions::with_threads(4),
        )
        .unwrap();
        // Only the assignment fans out, so the model is bit-identical.
        let bits = |v: &Vectors| v.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(par.centroids()), bits(serial.centroids()));
        assert_eq!(par.inertia.to_bits(), serial.inertia.to_bits());
        assert_eq!(par.iterations, serial.iterations);
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        let mut data = Vectors::new(3);
        for _ in 0..50 {
            data.push(&[1.0, 2.0, 3.0]).unwrap();
        }
        let km = KMeans::train(&data, &KMeansConfig::new(4)).unwrap();
        assert!(km.inertia < 1e-9);
    }
}
