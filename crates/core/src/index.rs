//! The uniform index interface every vector index in the workspace
//! implements, plus search-time parameters.

use crate::context::{self, SearchContext};
use crate::error::{Error, Result};
use crate::metric::Metric;
use crate::topk::Neighbor;

/// Search-time knobs. Each index interprets the fields relevant to its
/// structure and ignores the rest, so one parameter struct can drive the
/// whole benchmark matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchParams {
    /// Beam width for graph best-first search (HNSW `efSearch`, NSG/Vamana
    /// candidate pool `L`). Clamped to at least `k` by implementations.
    pub beam_width: usize,
    /// Number of buckets/partitions probed by table-based indexes (IVF
    /// `nprobe`, number of LSH tables consulted).
    pub nprobe: usize,
    /// For quantized indexes: how many quantized candidates to re-rank with
    /// exact distances (0 = no re-ranking, return ADC estimates).
    pub rerank: usize,
    /// For tree-based indexes: maximum number of leaf points to examine
    /// across the forest (ANNOY `search_k` analogue).
    pub max_leaf_points: usize,
    /// Over-fetch factor used by post-filter fallbacks: fetch `alpha * k`
    /// candidates before applying a predicate (§2.6(3) of the paper).
    pub overfetch: f32,
    /// Soft deadline for the whole search. In-process indexes ignore it
    /// (their latency is bounded by structure size); the in-process
    /// scatter-gather honors it: it stops waiting for shards at the
    /// deadline and returns a *partial* result. `None` = wait
    /// indefinitely.
    pub timeout: Option<std::time::Duration>,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            beam_width: 64,
            nprobe: 8,
            rerank: 128,
            max_leaf_points: 512,
            overfetch: 3.0,
            timeout: None,
        }
    }
}

impl SearchParams {
    /// Builder-style setter for `beam_width`.
    pub fn with_beam_width(mut self, v: usize) -> Self {
        self.beam_width = v;
        self
    }
    /// Builder-style setter for `nprobe`.
    pub fn with_nprobe(mut self, v: usize) -> Self {
        self.nprobe = v;
        self
    }
    /// Builder-style setter for `rerank`.
    pub fn with_rerank(mut self, v: usize) -> Self {
        self.rerank = v;
        self
    }
    /// Builder-style setter for `max_leaf_points`.
    pub fn with_max_leaf_points(mut self, v: usize) -> Self {
        self.max_leaf_points = v;
        self
    }
    /// Builder-style setter for `overfetch`.
    pub fn with_overfetch(mut self, v: f32) -> Self {
        self.overfetch = v;
        self
    }
    /// Builder-style setter for `timeout`.
    pub fn with_timeout(mut self, v: std::time::Duration) -> Self {
        self.timeout = Some(v);
        self
    }
    /// The instant at which this search should give up, if a timeout is
    /// set, measured from `start`.
    pub fn deadline_from(&self, start: std::time::Instant) -> Option<std::time::Instant> {
        self.timeout.map(|t| start + t)
    }
}

/// Structural statistics reported by indexes for experiment T1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexStats {
    /// Approximate heap footprint of the index structure itself
    /// (excluding the raw vectors unless the index owns a copy).
    pub memory_bytes: usize,
    /// Graph indexes: total directed edges. Tables: total bucket entries.
    /// Trees: total tree nodes.
    pub structure_entries: usize,
    /// Free-form extra info (e.g. "layers=4").
    pub detail: String,
}

/// A membership predicate over internal row ids, used by filtered
/// (visit-first) search. Kept as a trait object so operators built from
/// attribute predicates, bitmasks, or closures all fit.
pub trait RowFilter: Sync {
    /// Whether row `id` passes the filter.
    fn accept(&self, id: usize) -> bool;
    /// Optional selectivity hint in `[0,1]`, if known.
    fn selectivity_hint(&self) -> Option<f64> {
        None
    }
}

impl<F: Fn(usize) -> bool + Sync> RowFilter for F {
    fn accept(&self, id: usize) -> bool {
        self(id)
    }
}

/// Blanket filter backed by a bitset (block-first bitmask scans).
impl RowFilter for crate::bitset::BitSet {
    fn accept(&self, id: usize) -> bool {
        self.contains(id)
    }
    fn selectivity_hint(&self) -> Option<f64> {
        if self.capacity() == 0 {
            None
        } else {
            Some(self.count() as f64 / self.capacity() as f64)
        }
    }
}

/// The interface shared by every vector index in the workspace.
pub trait VectorIndex: Send + Sync {
    /// Short stable name ("hnsw", "ivf_pq", ...).
    fn name(&self) -> &'static str;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Whether the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of indexed vectors.
    fn dim(&self) -> usize;

    /// The similarity score the index was built for.
    fn metric(&self) -> &Metric;

    /// Approximate k-nearest-neighbor search using caller-provided scratch;
    /// returns up to `k` neighbors sorted best-first.
    ///
    /// This is the primitive every index implements. `ctx` supplies the
    /// visited set, candidate pools, and scratch buffers; after the first
    /// query on a warm context, no per-query scratch allocation occurs.
    /// Results are identical whether the context is fresh or reused.
    fn search_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Neighbor>>;

    /// Approximate k-nearest-neighbor search; returns up to `k` neighbors
    /// sorted best-first. Thin wrapper over [`VectorIndex::search_with`]
    /// borrowing the thread-local scratch context.
    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<Vec<Neighbor>> {
        context::with_local(|ctx| self.search_with(ctx, query, k, params))
    }

    /// Batched k-nearest-neighbor search: run every query through one
    /// scratch context, returning one result list per query (in order).
    /// The default is a serial loop over [`VectorIndex::search_with`];
    /// after the first query the context is warm, so the whole batch
    /// amortizes scratch setup (§2.3 "batched queries").
    fn search_batch(
        &self,
        ctx: &mut SearchContext,
        queries: &[&[f32]],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Vec<Neighbor>>> {
        queries
            .iter()
            .map(|q| self.search_with(ctx, q, k, params))
            .collect()
    }

    /// Predicated search using caller-provided scratch: only rows accepted
    /// by `filter` may appear in the result. The default implements the
    /// *post-filtering* strategy from §2.3 — over-fetch `overfetch * k`,
    /// filter, and double the fetch until `k` survivors are found or the
    /// whole collection has been considered. Indexes with native
    /// block-first or visit-first support override this.
    fn search_filtered_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        let n = self.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut fetch = ((k as f32 * params.overfetch).ceil() as usize).clamp(k, n);
        loop {
            let cands = self.search_with(ctx, query, fetch, params)?;
            let got = cands.len();
            let mut out: Vec<Neighbor> =
                cands.into_iter().filter(|c| filter.accept(c.id)).collect();
            if out.len() >= k || fetch >= n || got < fetch {
                out.truncate(k);
                return Ok(out);
            }
            fetch = (fetch * 2).min(n);
        }
    }

    /// Predicated search; thin wrapper over
    /// [`VectorIndex::search_filtered_with`] borrowing the thread-local
    /// scratch context.
    fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        context::with_local(|ctx| self.search_filtered_with(ctx, query, k, params, filter))
    }

    /// Block-first predicated search (§2.3(1)) using caller-provided
    /// scratch: the filter *blocks* parts of the index from exploration
    /// entirely. For bucket indexes this is identical to
    /// [`VectorIndex::search_filtered_with`] (blocked rows are skipped
    /// during list scans); graph indexes override it with a masked
    /// traversal that never enters blocked nodes — which is cheaper than
    /// visit-first but can strand the search when blocking disconnects the
    /// graph, the failure mode §2.3 discusses.
    fn search_blocked_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        self.search_filtered_with(ctx, query, k, params, filter)
    }

    /// Block-first predicated search; thin wrapper over
    /// [`VectorIndex::search_blocked_with`] borrowing the thread-local
    /// scratch context.
    fn search_blocked(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        context::with_local(|ctx| self.search_blocked_with(ctx, query, k, params, filter))
    }

    /// Range search: every vector within `radius` of the query (under the
    /// index metric's distance convention). Default: iterative-deepening
    /// k-NN, doubling k until the worst retained hit exceeds the radius.
    fn range_search(
        &self,
        query: &[f32],
        radius: f32,
        params: &SearchParams,
    ) -> Result<Vec<Neighbor>> {
        let n = self.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut k = 16.min(n);
        loop {
            let hits = self.search(query, k, params)?;
            let saturated = hits.len() == k && hits.last().is_some_and(|h| h.dist <= radius);
            if !saturated || k >= n {
                return Ok(hits.into_iter().filter(|h| h.dist <= radius).collect());
            }
            k = (k * 2).min(n);
        }
    }

    /// Structural statistics for reporting.
    fn stats(&self) -> IndexStats {
        IndexStats::default()
    }

    /// A self-contained, versioned serialization of the built structure,
    /// from which the index can be reloaded over the same vectors with no
    /// distance computations (checkpoint snapshots store it so recovery
    /// does not rebuild). `None` for families without an image format;
    /// those are rebuilt from their vectors.
    fn image(&self) -> Option<Vec<u8>> {
        None
    }

    /// The optional mutable capability: `Some` when this index supports
    /// in-place insert *and* remove (tombstone + repair), `None` for
    /// static structures that must be rebuilt out-of-place. Collections
    /// use this to choose between incremental maintenance and a full
    /// background rebuild.
    fn as_mutable(&mut self) -> Option<&mut dyn MutableIndex> {
        None
    }
}

/// The mutable capability (§2.3 in-place updates): insertion plus
/// removal. Static graph/tree indexes are updated out-of-place via the
/// update-buffer path instead (§2.3 out-of-place updates). Removal is
/// tombstone-based — the row id stays allocated (so ids remain stable
/// and aligned with the owner's row storage) but the row stops
/// surfacing in search results; graph indexes additionally
/// patch neighbor edges and periodically re-prune so recall does not
/// decay (the EXPERIMENTS.md §Vamana disconnection lesson).
pub trait MutableIndex: VectorIndex {
    /// Insert a vector, returning its new row id. Ids are dense and
    /// include tombstoned rows: the id equals the pre-insert capacity.
    fn insert(&mut self, vector: &[f32]) -> Result<usize>;

    /// Tombstone row `id`. Returns `true` if the row was live, `false`
    /// if it was already removed. `Err` only for out-of-range ids.
    fn remove(&mut self, id: usize) -> Result<bool>;

    /// Number of live (non-tombstoned) rows; `len()` keeps counting
    /// tombstones because ids stay allocated.
    fn live(&self) -> usize;
}

/// Validate a query vector against an index before searching.
pub fn check_query(dim: usize, query: &[f32]) -> Result<()> {
    if query.len() != dim {
        return Err(Error::DimensionMismatch {
            expected: dim,
            actual: query.len(),
        });
    }
    if let Some(pos) = query.iter().position(|x| !x.is_finite()) {
        return Err(Error::NonFiniteVector { position: pos });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;

    #[test]
    fn check_query_validates() {
        assert!(check_query(3, &[1.0, 2.0, 3.0]).is_ok());
        assert!(check_query(3, &[1.0, 2.0]).is_err());
        assert!(check_query(2, &[1.0, f32::NAN]).is_err());
    }

    #[test]
    fn bitset_filter_reports_selectivity() {
        let mut b = BitSet::new(100);
        for i in 0..25 {
            b.insert(i);
        }
        assert!(b.accept(3));
        assert!(!b.accept(99));
        assert_eq!(b.selectivity_hint(), Some(0.25));
    }

    #[test]
    fn closure_filter_works() {
        let f = |id: usize| id.is_multiple_of(2);
        assert!(RowFilter::accept(&f, 4));
        assert!(!RowFilter::accept(&f, 5));
        assert_eq!(RowFilter::selectivity_hint(&f), None);
    }

    #[test]
    fn default_params_sane() {
        let p = SearchParams::default()
            .with_beam_width(10)
            .with_nprobe(2)
            .with_rerank(5)
            .with_max_leaf_points(7)
            .with_overfetch(1.5)
            .with_timeout(std::time::Duration::from_millis(250));
        assert_eq!(p.beam_width, 10);
        assert_eq!(p.nprobe, 2);
        assert_eq!(p.rerank, 5);
        assert_eq!(p.max_leaf_points, 7);
        assert_eq!(p.overfetch, 1.5);
        assert_eq!(p.timeout, Some(std::time::Duration::from_millis(250)));
        assert_eq!(SearchParams::default().timeout, None);
    }

    #[test]
    fn deadline_measured_from_start() {
        let start = std::time::Instant::now();
        assert_eq!(SearchParams::default().deadline_from(start), None);
        let p = SearchParams::default().with_timeout(std::time::Duration::from_secs(1));
        assert_eq!(
            p.deadline_from(start),
            Some(start + std::time::Duration::from_secs(1))
        );
    }
}
