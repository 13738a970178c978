//! Navigable small-world graph (Malkov et al. 2014; §2.2(3)).
//!
//! Nodes are inserted one at a time; each new node is connected
//! bidirectionally to its `m` nearest neighbors *among the nodes already in
//! the graph*, found by beam search. Early nodes acquire long-range links
//! as the graph densifies around them, which is what makes the flat graph
//! navigable.

use crate::graph::{beam_search, beam_search_filtered, prune_overfull, AdjacencyList};
use vdb_core::context::{self, SearchContext};
use vdb_core::error::{Error, Result};
use vdb_core::index::{
    check_query, IndexStats, MutableIndex, RowFilter, SearchParams, VectorIndex,
};
use vdb_core::metric::Metric;
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;

/// Build-time configuration.
#[derive(Debug, Clone)]
pub struct NswConfig {
    /// Bidirectional connections made per insertion.
    pub m: usize,
    /// Beam width used for neighbor search during construction.
    pub ef_construction: usize,
}

impl Default for NswConfig {
    fn default() -> Self {
        NswConfig {
            m: 12,
            ef_construction: 64,
        }
    }
}

/// The NSW index. Fully dynamic: construction *is* repeated insertion.
pub struct NswIndex {
    vectors: Vectors,
    metric: Metric,
    adj: AdjacencyList,
    cfg: NswConfig,
    /// Entry point for traversal: node 0 until that node is tombstoned,
    /// then the lowest-id live node.
    entry: usize,
    /// Tombstones: deleted nodes keep their out-edges for routing.
    deleted: Vec<bool>,
    removed: usize,
}

/// Live-rows-only filter for tombstone traversal (see `hnsw::LiveFilter`).
struct LiveFilter<'a> {
    deleted: &'a [bool],
    inner: Option<&'a dyn RowFilter>,
}

impl RowFilter for LiveFilter<'_> {
    fn accept(&self, id: usize) -> bool {
        !self.deleted[id] && self.inner.is_none_or(|f| f.accept(id))
    }
    fn selectivity_hint(&self) -> Option<f64> {
        self.inner.and_then(|f| f.selectivity_hint())
    }
}

impl NswIndex {
    /// Create an empty index ready for insertion.
    pub fn new(dim: usize, metric: Metric, cfg: NswConfig) -> Result<Self> {
        if cfg.m == 0 {
            return Err(Error::InvalidParameter("m must be positive".into()));
        }
        metric.validate(dim)?;
        Ok(NswIndex {
            vectors: Vectors::new(dim),
            metric,
            adj: AdjacencyList::default(),
            cfg,
            entry: 0,
            deleted: Vec::new(),
            removed: 0,
        })
    }

    /// Build by inserting every vector in order.
    pub fn build(vectors: Vectors, metric: Metric, cfg: NswConfig) -> Result<Self> {
        let mut idx = NswIndex::new(vectors.dim(), metric, cfg)?;
        for row in vectors.iter() {
            MutableIndex::insert(&mut idx, row)?;
        }
        Ok(idx)
    }

    /// The underlying adjacency (diagnostics).
    pub fn adjacency(&self) -> &AdjacencyList {
        &self.adj
    }

    /// Number of tombstoned nodes.
    pub fn removed(&self) -> usize {
        self.removed
    }
}

impl VectorIndex for NswIndex {
    fn name(&self) -> &'static str {
        "nsw"
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
        if k == 0 || self.vectors.is_empty() || self.live() == 0 {
            return Ok(Vec::new());
        }
        if self.removed > 0 {
            // Tombstone traversal: deleted nodes route, never surface.
            let live = LiveFilter {
                deleted: &self.deleted,
                inner: None,
            };
            return Ok(beam_search_filtered(
                &self.adj,
                &self.vectors,
                &self.metric,
                query,
                &[self.entry],
                k,
                params.beam_width,
                ctx,
                &live,
                params.beam_width * 16,
                None,
            ));
        }
        Ok(beam_search(
            &self.adj,
            &self.vectors,
            &self.metric,
            query,
            &[self.entry], // lowest-id live node (node 0 until tombstoned)
            k,
            params.beam_width,
            ctx,
            None,
        ))
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            memory_bytes: self.adj.memory_bytes(),
            structure_entries: self.adj.edge_count(),
            detail: format!(
                "m={} mean_degree={:.1} removed={}",
                self.cfg.m,
                self.adj.mean_degree(),
                self.removed
            ),
        }
    }

    fn as_mutable(&mut self) -> Option<&mut dyn MutableIndex> {
        Some(self)
    }
}

impl MutableIndex for NswIndex {
    fn insert(&mut self, vector: &[f32]) -> Result<usize> {
        let row = self.vectors.push(vector)?;
        self.adj.push_node();
        self.deleted.push(false);
        if row == 0 {
            return Ok(0);
        }
        if self.deleted[self.entry] {
            self.entry = row; // re-anchor on the fresh live node
        }
        let mut found = context::with_local(|ctx| {
            beam_search(
                &self.adj,
                &self.vectors,
                &self.metric,
                self.vectors.get(row),
                &[self.entry],
                self.cfg.m,
                self.cfg.ef_construction,
                ctx,
                None,
            )
        });
        if self.removed > 0 {
            found.retain(|n| !self.deleted[n.id]);
        }
        for n in found {
            if n.id != row {
                self.adj.add_edge(row, n.id as u32);
                self.adj.add_edge(n.id, row as u32);
            }
        }
        Ok(row)
    }

    fn remove(&mut self, id: usize) -> Result<bool> {
        if id >= self.vectors.len() {
            return Err(Error::NotFound(format!("nsw row {id} out of range")));
        }
        if self.deleted[id] {
            return Ok(false);
        }
        self.deleted[id] = true;
        self.removed += 1;
        // Patch in-neighbors by contracting the tombstone: each live
        // neighbor drops its edge to `id` and inherits `id`'s remaining
        // live neighbors, keeping the live subgraph connected, then is
        // re-pruned (α = 1) to the build's mean degree `2m` if that
        // overfills it. The tombstone keeps its out-edges so stray
        // in-edges still route.
        let nbrs: Vec<u32> = self.adj.neighbors(id).to_vec();
        let live_nbrs: Vec<u32> = nbrs
            .iter()
            .copied()
            .filter(|&v| !self.deleted[v as usize])
            .collect();
        // `member[v] == u` marks v as already in u's patched list, so the
        // merge stays linear in the degrees.
        let mut member = vec![usize::MAX; self.vectors.len()];
        let mut patched_nodes = Vec::new();
        for &u in &nbrs {
            let u = u as usize;
            if self.deleted[u] {
                continue;
            }
            let list: Vec<u32> = self.adj.neighbors(u).to_vec();
            if !list.contains(&(id as u32)) {
                continue;
            }
            let mut patched: Vec<u32> = list.into_iter().filter(|&v| v != id as u32).collect();
            for &v in &patched {
                member[v as usize] = u;
            }
            for &w in &live_nbrs {
                if w as usize != u && member[w as usize] != u {
                    member[w as usize] = u;
                    patched.push(w);
                }
            }
            self.adj.set_neighbors(u, patched);
            patched_nodes.push(u);
        }
        let cap = 2 * self.cfg.m;
        let (vectors, metric) = (&self.vectors, &self.metric);
        prune_overfull(&mut self.adj, vectors, metric, &patched_nodes, 1.0, cap, 1);
        if id == self.entry {
            // Lowest-id live node becomes the new anchor.
            if let Some(e) = (0..self.vectors.len()).find(|&i| !self.deleted[i]) {
                self.entry = e;
            }
        }
        Ok(true)
    }

    fn live(&self) -> usize {
        self.vectors.len() - self.removed
    }
}

impl std::fmt::Debug for NswIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NswIndex(n={}, m={})", self.len(), self.cfg.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::recall::GroundTruth;
    use vdb_core::rng::Rng;

    #[test]
    fn good_recall_on_clusters() {
        let mut rng = Rng::seed_from_u64(7);
        let data = dataset::clustered(2000, 16, 10, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 25, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let idx = NswIndex::build(data, Metric::Euclidean, NswConfig::default()).unwrap();
        let params = SearchParams::default().with_beam_width(96);
        let results: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        let r = gt.recall_batch(&results);
        assert!(r > 0.9, "recall {r}");
    }

    #[test]
    fn graph_stays_connected() {
        let mut rng = Rng::seed_from_u64(8);
        let data = dataset::gaussian(500, 8, &mut rng);
        let idx = NswIndex::build(data, Metric::Euclidean, NswConfig::default()).unwrap();
        assert_eq!(
            idx.adjacency().reachable_from(0),
            500,
            "insertion keeps connectivity"
        );
    }

    #[test]
    fn incremental_equals_build() {
        let mut rng = Rng::seed_from_u64(9);
        let data = dataset::gaussian(200, 6, &mut rng);
        let built = NswIndex::build(data.clone(), Metric::Euclidean, NswConfig::default()).unwrap();
        let mut incremental = NswIndex::new(6, Metric::Euclidean, NswConfig::default()).unwrap();
        for row in data.iter() {
            MutableIndex::insert(&mut incremental, row).unwrap();
        }
        // Same construction path => identical graphs.
        for u in 0..200 {
            assert_eq!(
                built.adjacency().neighbors(u),
                incremental.adjacency().neighbors(u)
            );
        }
    }

    #[test]
    fn beam_width_trades_recall() {
        let mut rng = Rng::seed_from_u64(10);
        let data = dataset::clustered(1500, 16, 8, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 20, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let idx = NswIndex::build(data, Metric::Euclidean, NswConfig::default()).unwrap();
        let recall_with = |ef: usize| {
            let params = SearchParams::default().with_beam_width(ef);
            let results: Vec<_> = queries
                .iter()
                .map(|q| idx.search(q, 10, &params).unwrap())
                .collect();
            gt.recall_batch(&results)
        };
        let lo = recall_with(10);
        let hi = recall_with(200);
        assert!(hi >= lo, "wider beam cannot hurt: {hi} vs {lo}");
        assert!(hi > 0.9, "wide beam recall {hi}");
    }

    #[test]
    fn removed_nodes_never_surface_including_entry() {
        let mut rng = Rng::seed_from_u64(11);
        let data = dataset::clustered(800, 8, 5, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 10, 0.05, &mut rng);
        let mut idx = NswIndex::build(data, Metric::Euclidean, NswConfig::default()).unwrap();
        // Tombstone the fixed entry (node 0) plus a band of others.
        for id in 0..200 {
            assert!(MutableIndex::remove(&mut idx, id).unwrap());
        }
        assert_ne!(idx.entry, 0, "entry re-anchored off the tombstone");
        assert_eq!(idx.live(), 600);
        let params = SearchParams::default().with_beam_width(96);
        for q in queries.iter() {
            let hits = idx.search(q, 10, &params).unwrap();
            assert_eq!(hits.len(), 10);
            assert!(hits.iter().all(|n| n.id >= 200), "tombstone surfaced");
        }
        // Inserts after removal connect to live nodes only.
        let v = vec![3.0f32; 8];
        let row = MutableIndex::insert(&mut idx, &v).unwrap();
        for &nb in idx.adjacency().neighbors(row) {
            assert!(nb as usize >= 200);
        }
        let hits = idx.search(&v, 1, &params).unwrap();
        assert_eq!(hits[0].id, row);
    }

    #[test]
    fn removals_keep_patched_lists_within_the_cap() {
        let mut rng = Rng::seed_from_u64(12);
        let data = dataset::clustered(1000, 8, 6, 0.5, &mut rng).vectors;
        let mut idx = NswIndex::build(data, Metric::Euclidean, NswConfig::default()).unwrap();
        let before: Vec<usize> = (0..1000)
            .map(|u| idx.adjacency().neighbors(u).len())
            .collect();
        for id in (0..1000).step_by(4) {
            MutableIndex::remove(&mut idx, id).unwrap();
        }
        let cap = 2 * idx.cfg.m;
        for (u, &was) in before.iter().enumerate() {
            let now = idx.adjacency().neighbors(u).len();
            assert!(
                now <= cap.max(was),
                "node {u}: {now} edges, cap {cap}, built with {was}"
            );
        }
        assert!(idx.adjacency().mean_degree() <= cap as f64);
    }

    #[test]
    fn empty_and_singleton_behave() {
        let idx = NswIndex::new(4, Metric::Euclidean, NswConfig::default()).unwrap();
        assert!(idx
            .search(&[0.0; 4], 3, &SearchParams::default())
            .unwrap()
            .is_empty());
        let mut idx = idx;
        MutableIndex::insert(&mut idx, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        let hits = idx
            .search(&[1.0, 0.0, 0.0, 0.0], 3, &SearchParams::default())
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dist, 0.0);
    }
}
