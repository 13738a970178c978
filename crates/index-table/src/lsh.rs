//! Locality-sensitive hashing (§2.2(1)).
//!
//! `L` hash tables, each keyed by a concatenation of `K` hash functions
//! from a family. Two families are provided:
//!
//! - [`HashFamily::RandomHyperplane`] — sign of a random projection
//!   (angular/cosine similarity; the IndexLSH-style binary projection),
//! - [`HashFamily::PStable`] — quantized random projection
//!   `floor((a·v + b) / w)` with Gaussian `a` (the E2LSH family for
//!   Euclidean distance).
//!
//! Candidates colliding with the query in any probed table are re-ranked
//! with exact distances.

use std::collections::HashMap;
use vdb_core::context::{self, SearchContext};
use vdb_core::error::{Error, Result};
use vdb_core::index::{check_query, IndexStats, SearchParams, VectorIndex};
use vdb_core::kernel;
use vdb_core::metric::Metric;
use vdb_core::rng::Rng;
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;

/// The hash family used by every table of an [`LshIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HashFamily {
    /// Sign-of-projection bits; locality-sensitive for angular distance.
    RandomHyperplane,
    /// p-stable (Gaussian) projections quantized with bucket width `w`;
    /// locality-sensitive for Euclidean distance.
    PStable {
        /// Bucket width (larger = coarser buckets, higher collision rate).
        w: f32,
    },
}

/// Build-time configuration.
#[derive(Debug, Clone)]
pub struct LshConfig {
    /// Number of hash tables (higher = better recall, more memory/probes).
    pub l: usize,
    /// Hash functions concatenated per table key (higher = more selective
    /// buckets, lower collision rate).
    pub k: usize,
    /// The hash family.
    pub family: HashFamily,
    /// RNG seed for the random projections.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        // Moderately coarse buckets: k=8 concatenated hashes keeps bucket
        // sizes useful at laptop scale, and 16 tables recover recall (F2
        // sweeps both knobs). `w = 0` auto-calibrates the bucket width to
        // the data's neighbor-distance scale at build time.
        LshConfig {
            l: 16,
            k: 8,
            family: HashFamily::PStable { w: 0.0 },
            seed: 0x15A4,
        }
    }
}

/// Estimate a p-stable bucket width from the data: roughly the distance
/// between near neighbors, measured on a sample. Buckets of this width
/// give near neighbors a high per-hash collision probability while still
/// separating the bulk of the collection.
fn calibrate_width(vectors: &Vectors, rng: &mut Rng) -> f32 {
    let n = vectors.len();
    if n < 2 {
        return 1.0;
    }
    let sample = rng.sample_indices(n, 256.min(n));
    let mut nn_dists = Vec::with_capacity(sample.len());
    for (i, &a) in sample.iter().enumerate() {
        let mut best = f32::INFINITY;
        for (j, &b) in sample.iter().enumerate() {
            if i != j {
                best = best.min(kernel::l2_sq(vectors.get(a), vectors.get(b)));
            }
        }
        if best.is_finite() {
            nn_dists.push(best.sqrt());
        }
    }
    nn_dists.sort_unstable_by(f32::total_cmp);
    let median = nn_dists.get(nn_dists.len() / 2).copied().unwrap_or(1.0);
    // With K concatenated hashes per table, a neighbor must collide in all
    // K of them; the per-hash collision probability at distance d is high
    // only when w is a small multiple of d. w = 4·d_nn gives p ≈ 0.8 per
    // hash (≈ 0.17 at K = 8), which L = 16 tables lift to ~95% recall.
    (4.0 * median).max(1e-6)
}

/// One table's hash function: K projection vectors (+ offsets for p-stable).
struct TableHash {
    /// K × dim projection directions, flattened.
    projections: Vec<f32>,
    /// K offsets (p-stable only).
    offsets: Vec<f32>,
    k: usize,
    dim: usize,
}

impl TableHash {
    fn new(dim: usize, k: usize, family: HashFamily, rng: &mut Rng) -> Self {
        let projections = (0..k * dim).map(|_| rng.normal_f32()).collect();
        let offsets = match family {
            HashFamily::RandomHyperplane => vec![0.0; k],
            HashFamily::PStable { w } => (0..k).map(|_| rng.f32() * w).collect(),
        };
        TableHash {
            projections,
            offsets,
            k,
            dim,
        }
    }

    /// Hash a vector to a 64-bit table key.
    fn key(&self, v: &[f32], family: HashFamily) -> u64 {
        // FNV-style mix of the K per-function values.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..self.k {
            let proj = kernel::dot(v, &self.projections[i * self.dim..(i + 1) * self.dim]);
            let val: i64 = match family {
                HashFamily::RandomHyperplane => (proj >= 0.0) as i64,
                HashFamily::PStable { w } => ((proj + self.offsets[i]) / w).floor() as i64,
            };
            h ^= val as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// Multi-table LSH index over an owned vector collection.
pub struct LshIndex {
    vectors: Vectors,
    metric: Metric,
    cfg: LshConfig,
    hashes: Vec<TableHash>,
    tables: Vec<HashMap<u64, Vec<u32>>>,
}

impl LshIndex {
    /// Build the index. A p-stable width of `0` is auto-calibrated to the
    /// data's neighbor-distance scale.
    pub fn build(vectors: Vectors, metric: Metric, mut cfg: LshConfig) -> Result<Self> {
        if cfg.l == 0 || cfg.k == 0 {
            return Err(Error::InvalidParameter(
                "LSH needs l >= 1 and k >= 1".into(),
            ));
        }
        metric.validate(vectors.dim())?;
        let dim = vectors.dim();
        let mut rng = Rng::seed_from_u64(cfg.seed);
        if let HashFamily::PStable { w } = cfg.family {
            if w < 0.0 {
                return Err(Error::InvalidParameter(
                    "p-stable bucket width must be >= 0".into(),
                ));
            }
            if w == 0.0 {
                cfg.family = HashFamily::PStable {
                    w: calibrate_width(&vectors, &mut rng),
                };
            }
        }
        let hashes: Vec<TableHash> = (0..cfg.l)
            .map(|_| TableHash::new(dim, cfg.k, cfg.family, &mut rng))
            .collect();
        let mut tables: Vec<HashMap<u64, Vec<u32>>> = (0..cfg.l).map(|_| HashMap::new()).collect();
        for (row, v) in vectors.iter().enumerate() {
            for (t, h) in hashes.iter().enumerate() {
                tables[t]
                    .entry(h.key(v, cfg.family))
                    .or_default()
                    .push(row as u32);
            }
        }
        Ok(LshIndex {
            vectors,
            metric,
            cfg,
            hashes,
            tables,
        })
    }

    /// Collect candidate rows colliding with the query in up to `probes`
    /// tables (all tables if `probes >= l`) into the context's id buffer,
    /// deduplicated through its visited set.
    fn candidates_into(&self, ctx: &mut SearchContext, query: &[f32], probes: usize) {
        let probes = probes.clamp(1, self.cfg.l);
        ctx.begin(self.vectors.len());
        ctx.ids.clear();
        let SearchContext {
            visited: seen,
            ids: out,
            ..
        } = ctx;
        for t in 0..probes {
            let key = self.hashes[t].key(query, self.cfg.family);
            if let Some(bucket) = self.tables[t].get(&key) {
                for &row in bucket {
                    if seen.visit(row as usize) {
                        out.push(row);
                    }
                }
            }
        }
    }

    /// Number of distinct candidates the query would generate (bucket-size
    /// diagnostics for experiment F2).
    pub fn candidate_count(&self, query: &[f32]) -> usize {
        context::with_local(|ctx| {
            self.candidates_into(ctx, query, self.cfg.l);
            ctx.ids.len()
        })
    }

    /// The build configuration.
    pub fn config(&self) -> &LshConfig {
        &self.cfg
    }

    /// Insert a vector into every table, returning its new row id. LSH
    /// has no remove, so it is not a [`vdb_core::MutableIndex`].
    pub fn insert(&mut self, vector: &[f32]) -> Result<usize> {
        let row = self.vectors.push(vector)?;
        let v = self.vectors.get(row);
        for (t, h) in self.hashes.iter().enumerate() {
            self.tables[t]
                .entry(h.key(v, self.cfg.family))
                .or_default()
                .push(row as u32);
        }
        Ok(row)
    }
}

impl VectorIndex for LshIndex {
    fn name(&self) -> &'static str {
        "lsh"
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }

    fn dim(&self) -> usize {
        self.vectors.dim()
    }

    fn metric(&self) -> &Metric {
        &self.metric
    }

    fn search_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        if k == 0 || self.vectors.is_empty() {
            return Ok(Vec::new());
        }
        self.candidates_into(ctx, query, params.nprobe.max(self.cfg.l));
        ctx.pool.reset(k);
        for &row in &ctx.ids {
            let d = self.metric.distance(query, self.vectors.get(row as usize));
            ctx.pool.push(Neighbor::new(row as usize, d));
        }
        Ok(ctx.pool.drain_sorted())
    }

    fn stats(&self) -> IndexStats {
        let entries: usize = self
            .tables
            .iter()
            .map(|t| t.values().map(Vec::len).sum::<usize>())
            .sum();
        let buckets: usize = self.tables.iter().map(HashMap::len).sum();
        IndexStats {
            memory_bytes: entries * 4
                + buckets * 16
                + self.hashes.len() * self.cfg.k * (self.dim() + 1) * 4,
            structure_entries: entries,
            detail: format!("l={} k={} buckets={buckets}", self.cfg.l, self.cfg.k),
        }
    }
}

impl std::fmt::Debug for LshIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LshIndex(n={}, l={}, k={})",
            self.len(),
            self.cfg.l,
            self.cfg.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::recall::GroundTruth;

    fn build_on_clusters(cfg: LshConfig) -> (LshIndex, Vectors, GroundTruth) {
        let mut rng = Rng::seed_from_u64(100);
        let data = dataset::clustered(2000, 16, 10, 0.3, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 30, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let idx = LshIndex::build(data.clone(), Metric::Euclidean, cfg).unwrap();
        (idx, queries, gt)
    }

    fn mean_recall(idx: &LshIndex, queries: &Vectors, gt: &GroundTruth) -> f64 {
        let params = SearchParams::default();
        let results: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        gt.recall_batch(&results)
    }

    #[test]
    fn pstable_reaches_reasonable_recall() {
        let (idx, queries, gt) = build_on_clusters(LshConfig {
            l: 16,
            k: 8,
            family: HashFamily::PStable { w: 8.0 },
            seed: 7,
        });
        let r = mean_recall(&idx, &queries, &gt);
        assert!(r > 0.6, "recall {r}");
    }

    #[test]
    fn more_tables_raise_recall() {
        let mk = |l| LshConfig {
            l,
            k: 10,
            family: HashFamily::PStable { w: 4.0 },
            seed: 7,
        };
        let (idx2, q2, gt2) = build_on_clusters(mk(2));
        let (idx16, q16, gt16) = build_on_clusters(mk(16));
        let r2 = mean_recall(&idx2, &q2, &gt2);
        let r16 = mean_recall(&idx16, &q16, &gt16);
        assert!(r16 >= r2, "L=16 ({r16}) should not lose to L=2 ({r2})");
    }

    #[test]
    fn larger_k_shrinks_buckets() {
        let mk = |k| LshConfig {
            l: 4,
            k,
            family: HashFamily::PStable { w: 4.0 },
            seed: 7,
        };
        let (idx_small_k, queries, _) = build_on_clusters(mk(4));
        let (idx_big_k, _, _) = build_on_clusters(mk(16));
        let q = queries.get(0);
        assert!(
            idx_big_k.candidate_count(q) <= idx_small_k.candidate_count(q),
            "more concatenated hashes must not enlarge buckets"
        );
    }

    #[test]
    fn hyperplane_family_works_for_cosine() {
        let mut rng = Rng::seed_from_u64(5);
        let mut data = dataset::gaussian(1000, 16, &mut rng);
        data.normalize();
        let queries = dataset::split_queries(&data, 20, 0.01, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Cosine, 10).unwrap();
        let idx = LshIndex::build(
            data,
            Metric::Cosine,
            LshConfig {
                l: 16,
                k: 8,
                family: HashFamily::RandomHyperplane,
                seed: 3,
            },
        )
        .unwrap();
        let params = SearchParams::default();
        let results: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        let r = gt.recall_batch(&results);
        assert!(r > 0.35, "angular recall {r}");
    }

    #[test]
    fn insert_is_searchable() {
        let (mut idx, _, _) = build_on_clusters(LshConfig::default());
        let v = vec![500.0f32; 16];
        let row = idx.insert(&v).unwrap();
        let hits = idx.search(&v, 1, &SearchParams::default()).unwrap();
        assert_eq!(hits[0].id, row);
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = dataset::gaussian(10, 4, &mut Rng::seed_from_u64(1));
        assert!(LshIndex::build(
            data.clone(),
            Metric::Euclidean,
            LshConfig {
                l: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(LshIndex::build(
            data.clone(),
            Metric::Euclidean,
            LshConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(LshIndex::build(
            data.clone(),
            Metric::Euclidean,
            LshConfig {
                family: HashFamily::PStable { w: -1.0 },
                ..Default::default()
            }
        )
        .is_err());
        // w = 0 auto-calibrates rather than failing.
        let auto = LshIndex::build(
            data,
            Metric::Euclidean,
            LshConfig {
                family: HashFamily::PStable { w: 0.0 },
                ..Default::default()
            },
        )
        .unwrap();
        match auto.config().family {
            HashFamily::PStable { w } => assert!(w > 0.0, "calibrated width {w}"),
            _ => panic!("family preserved"),
        }
    }

    #[test]
    fn may_return_fewer_than_k_but_sorted() {
        // With very selective hashes some queries find few candidates —
        // the result must still be sorted and contain no duplicates.
        let (idx, queries, _) = build_on_clusters(LshConfig {
            l: 1,
            k: 24,
            family: HashFamily::PStable { w: 0.5 },
            seed: 11,
        });
        for q in queries.iter() {
            let hits = idx.search(q, 10, &SearchParams::default()).unwrap();
            assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist));
            let ids: std::collections::HashSet<_> = hits.iter().map(|n| n.id).collect();
            assert_eq!(ids.len(), hits.len());
        }
    }

    #[test]
    fn stats_entries_equal_l_times_n() {
        let (idx, _, _) = build_on_clusters(LshConfig {
            l: 4,
            k: 8,
            ..Default::default()
        });
        assert_eq!(idx.stats().structure_entries, 4 * idx.len());
    }
}
