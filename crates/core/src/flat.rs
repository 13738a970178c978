//! Exact brute-force index ("flat" scan).
//!
//! This is the baseline every approximate index is judged against, the
//! ground-truth generator for recall measurements, and the executor's
//! fallback plan for tiny collections or ultra-selective predicates
//! (where the paper notes single-stage brute-force scan wins).

use crate::context::SearchContext;
use crate::error::{Error, Result};
use crate::index::{check_query, IndexStats, MutableIndex, RowFilter, SearchParams, VectorIndex};
use crate::metric::Metric;
use crate::topk::Neighbor;
use crate::vector::Vectors;

/// Exact nearest-neighbor index by linear scan (similarity projection over
/// the whole collection).
#[derive(Debug, Clone)]
pub struct FlatIndex {
    vectors: Vectors,
    metric: Metric,
    /// Tombstoned rows (`deleted[id]`); ids stay allocated so row ids
    /// remain aligned with the owning collection's storage.
    deleted: Vec<bool>,
    removed: usize,
}

impl FlatIndex {
    /// Build over an owned copy of the vectors.
    pub fn build(vectors: Vectors, metric: Metric) -> Result<Self> {
        metric.validate(vectors.dim())?;
        let n = vectors.len();
        Ok(FlatIndex {
            vectors,
            metric,
            deleted: vec![false; n],
            removed: 0,
        })
    }

    /// Borrow the underlying vectors.
    pub fn vectors(&self) -> &Vectors {
        &self.vectors
    }

    /// Exact range search by linear scan.
    pub fn range_scan(&self, query: &[f32], radius: f32) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        let mut out: Vec<Neighbor> = self
            .vectors
            .iter()
            .enumerate()
            .filter(|(id, _)| !self.deleted[*id])
            .map(|(id, row)| Neighbor::new(id, self.metric.distance(query, row)))
            .filter(|n| n.dist <= radius)
            .collect();
        out.sort_unstable();
        Ok(out)
    }
}

impl VectorIndex for FlatIndex {
    fn name(&self) -> &'static str {
        "flat"
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
        _params: &SearchParams,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        if self.vectors.is_empty() || k == 0 {
            return Ok(Vec::new());
        }
        ctx.pool.reset(k);
        // Score in fixed-size blocks through the batched SIMD kernels,
        // reusing the context's distance buffer as the output block.
        const BLOCK: usize = 256;
        let dim = self.vectors.dim();
        let flat = self.vectors.as_flat();
        let n = self.vectors.len();
        let mut base = 0;
        while base < n {
            let rows = (n - base).min(BLOCK);
            ctx.dists.resize(rows, 0.0);
            self.metric.distance_batch(
                query,
                &flat[base * dim..(base + rows) * dim],
                dim,
                &mut ctx.dists,
            );
            for (off, &d) in ctx.dists.iter().enumerate() {
                if self.removed == 0 || !self.deleted[base + off] {
                    ctx.pool.push(Neighbor::new(base + off, d));
                }
            }
            base += rows;
        }
        Ok(ctx.pool.drain_sorted())
    }

    /// Single-stage filtered scan: evaluate the predicate while scanning,
    /// computing distances only for surviving rows (exact pre-filtering).
    fn search_filtered_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        _params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        if self.vectors.is_empty() || k == 0 {
            return Ok(Vec::new());
        }
        ctx.pool.reset(k);
        for (id, row) in self.vectors.iter().enumerate() {
            if self.deleted[id] || !filter.accept(id) {
                continue;
            }
            ctx.pool
                .push(Neighbor::new(id, self.metric.distance(query, row)));
        }
        Ok(ctx.pool.drain_sorted())
    }

    fn range_search(
        &self,
        query: &[f32],
        radius: f32,
        _params: &SearchParams,
    ) -> Result<Vec<Neighbor>> {
        self.range_scan(query, radius)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            memory_bytes: self.vectors.memory_bytes(),
            structure_entries: self.vectors.len(),
            detail: String::new(),
        }
    }

    fn as_mutable(&mut self) -> Option<&mut dyn MutableIndex> {
        Some(self)
    }
}

impl MutableIndex for FlatIndex {
    fn insert(&mut self, vector: &[f32]) -> Result<usize> {
        let id = self.vectors.push(vector)?;
        self.deleted.push(false);
        Ok(id)
    }

    fn remove(&mut self, id: usize) -> Result<bool> {
        if id >= self.vectors.len() {
            return Err(Error::NotFound(format!("flat row {id} out of range")));
        }
        if self.deleted[id] {
            return Ok(false);
        }
        self.deleted[id] = true;
        self.removed += 1;
        Ok(true)
    }

    fn live(&self) -> usize {
        self.vectors.len() - self.removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;
    use crate::rng::Rng;

    fn grid_index() -> FlatIndex {
        // Points at x = 0, 1, ..., 9 on a line.
        let mut v = Vectors::new(2);
        for i in 0..10 {
            v.push(&[i as f32, 0.0]).unwrap();
        }
        FlatIndex::build(v, Metric::Euclidean).unwrap()
    }

    #[test]
    fn exact_nearest() {
        let idx = grid_index();
        let hits = idx
            .search(&[3.2, 0.0], 3, &SearchParams::default())
            .unwrap();
        assert_eq!(hits.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 4, 2]);
        assert!((hits[0].dist - 0.2).abs() < 1e-6);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let idx = grid_index();
        let hits = idx
            .search(&[0.0, 0.0], 100, &SearchParams::default())
            .unwrap();
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn k_zero_and_empty() {
        let idx = grid_index();
        assert!(idx
            .search(&[0.0, 0.0], 0, &SearchParams::default())
            .unwrap()
            .is_empty());
        let empty = FlatIndex::build(Vectors::new(2), Metric::Euclidean).unwrap();
        assert!(empty
            .search(&[0.0, 0.0], 5, &SearchParams::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn filtered_scan_respects_predicate() {
        let idx = grid_index();
        let even = |id: usize| id.is_multiple_of(2);
        let hits = idx
            .search_filtered(&[3.0, 0.0], 3, &SearchParams::default(), &even)
            .unwrap();
        assert!(hits.iter().all(|n| n.id % 2 == 0));
        assert_eq!(hits[0].id, 2, "closest even id to x=3");
    }

    #[test]
    fn range_scan_inclusive() {
        let idx = grid_index();
        let hits = idx.range_scan(&[5.0, 0.0], 1.0).unwrap();
        assert_eq!(hits.iter().map(|n| n.id).collect::<Vec<_>>(), vec![5, 4, 6]);
    }

    #[test]
    fn insert_then_search_finds_new_vector() {
        let mut idx = grid_index();
        let id = MutableIndex::insert(&mut idx, &[100.0, 0.0]).unwrap();
        let hits = idx
            .search(&[99.0, 0.0], 1, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].id, id);
    }

    #[test]
    fn removed_rows_never_surface() {
        let mut idx = grid_index();
        assert!(MutableIndex::remove(&mut idx, 3).unwrap());
        assert!(!MutableIndex::remove(&mut idx, 3).unwrap(), "idempotent");
        assert_eq!(idx.live(), 9);
        assert_eq!(idx.len(), 10, "ids stay allocated");
        let hits = idx
            .search(&[3.0, 0.0], 10, &SearchParams::default())
            .unwrap();
        assert!(hits.iter().all(|n| n.id != 3));
        assert_eq!(hits.len(), 9);
        let filtered = idx
            .search_filtered(&[3.0, 0.0], 10, &SearchParams::default(), &|_id: usize| {
                true
            })
            .unwrap();
        assert!(filtered.iter().all(|n| n.id != 3));
        let ranged = idx.range_scan(&[3.0, 0.0], 2.0).unwrap();
        assert!(ranged.iter().all(|n| n.id != 3));
        assert!(MutableIndex::remove(&mut idx, 99).is_err());
        // Re-inserting after removals keeps ids dense.
        let id = MutableIndex::insert(&mut idx, &[42.0, 0.0]).unwrap();
        assert_eq!(id, 10);
        assert_eq!(idx.live(), 10);
    }

    #[test]
    fn rejects_bad_queries() {
        let idx = grid_index();
        assert!(idx.search(&[1.0], 1, &SearchParams::default()).is_err());
        assert!(idx
            .search(&[1.0, f32::NAN], 1, &SearchParams::default())
            .is_err());
    }

    #[test]
    fn inner_product_prefers_large_dot() {
        let mut v = Vectors::new(2);
        v.push(&[1.0, 0.0]).unwrap();
        v.push(&[10.0, 0.0]).unwrap();
        let idx = FlatIndex::build(v, Metric::InnerProduct).unwrap();
        let hits = idx
            .search(&[1.0, 0.0], 1, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].id, 1, "IP favors the longer parallel vector");
    }

    #[test]
    fn default_range_search_matches_exact_on_random_data() {
        let mut rng = Rng::seed_from_u64(3);
        let data = dataset::gaussian(200, 8, &mut rng);
        let idx = FlatIndex::build(data, Metric::Euclidean).unwrap();
        let q: Vec<f32> = (0..8).map(|_| rng.normal_f32()).collect();
        let exact = idx.range_scan(&q, 3.0).unwrap();
        let via_default = idx.range_search(&q, 3.0, &SearchParams::default()).unwrap();
        assert_eq!(exact, via_default);
    }
}
