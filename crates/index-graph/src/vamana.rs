//! Vamana (Subramanya et al., DiskANN's graph; §2.2(2) "MSNs").
//!
//! A degree-bounded monotonic-search-network approximation built by two
//! passes of: greedy search from the navigating node (medoid) to collect a
//! candidate pool, then α-robust pruning. The first pass uses α = 1 (pure
//! RNG rule), the second the configured α > 1, which re-adds long-range
//! edges that make searches skip across the space — the key to DiskANN's
//! low hop counts. Each pass refines the nodes in the batches of
//! [`batch_schedule`] through [`insert_batch`].

use crate::graph::{
    batch_schedule, beam_search, beam_search_filtered, insert_batch, medoid, robust_prune,
    AdjacencyList,
};
use vdb_core::context::SearchContext;
use vdb_core::error::{Error, Result};
use vdb_core::index::{check_query, IndexStats, RowFilter, SearchParams, VectorIndex};
use vdb_core::metric::Metric;
use vdb_core::parallel::BuildOptions;
use vdb_core::rng::Rng;
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;

/// Build-time configuration.
#[derive(Debug, Clone)]
pub struct VamanaConfig {
    /// Maximum out-degree (DiskANN's `R`).
    pub r: usize,
    /// Candidate-pool size during construction (DiskANN's `L`).
    pub l: usize,
    /// Robust-prune α for the second pass (> 1 keeps long edges).
    pub alpha: f32,
    /// RNG seed (random init graph and pass orders).
    pub seed: u64,
}

impl Default for VamanaConfig {
    fn default() -> Self {
        VamanaConfig {
            r: 24,
            l: 64,
            alpha: 1.2,
            seed: 0xDA7A,
        }
    }
}

/// The in-memory Vamana index.
pub struct VamanaIndex {
    vectors: Vectors,
    metric: Metric,
    adj: AdjacencyList,
    start: usize,
    cfg: VamanaConfig,
    repaired: usize,
}

impl VamanaIndex {
    /// Build the graph on one thread.
    pub fn build(vectors: Vectors, metric: Metric, cfg: VamanaConfig) -> Result<Self> {
        Self::build_with(vectors, metric, cfg, &BuildOptions::serial())
    }

    /// Build the graph. Each refinement pass visits the nodes in a seeded
    /// random order, cut into the batches of [`batch_schedule`]; a
    /// batch's searches fan out over `opts.threads` workers, and nothing
    /// else depends on the thread count, so the graph is the same at any
    /// count.
    pub fn build_with(
        vectors: Vectors,
        metric: Metric,
        cfg: VamanaConfig,
        opts: &BuildOptions,
    ) -> Result<Self> {
        if cfg.r == 0 || cfg.l == 0 {
            return Err(Error::InvalidParameter(
                "vamana needs r >= 1 and l >= 1".into(),
            ));
        }
        if cfg.alpha < 1.0 {
            return Err(Error::InvalidParameter("alpha must be >= 1".into()));
        }
        if vectors.is_empty() {
            return Err(Error::EmptyCollection);
        }
        metric.validate(vectors.dim())?;
        let n = vectors.len();
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let start = medoid(&vectors, &metric);

        // Random R-regular initial graph.
        let mut adj = AdjacencyList::new(n);
        if n > 1 {
            for u in 0..n {
                let mut picks = Vec::with_capacity(cfg.r.min(n - 1));
                while picks.len() < cfg.r.min(n - 1) {
                    let v = rng.below(n);
                    if v != u && !picks.contains(&(v as u32)) {
                        picks.push(v as u32);
                    }
                }
                adj.set_neighbors(u, picks);
            }
        }

        let mut order: Vec<usize> = (0..n).collect();
        let batches = batch_schedule(n);
        for pass_alpha in [1.0, cfg.alpha] {
            rng.shuffle(&mut order);
            // A node's candidates are its search pool plus its current
            // out-neighbors; reverse edges that overflow a list re-prune it.
            let refine = |graph: &[AdjacencyList], u: usize, ctx: &mut SearchContext| {
                let adj = &graph[0];
                let q = vectors.get(u);
                let mut pool =
                    beam_search(adj, &vectors, &metric, q, &[start], cfg.l, cfg.l, ctx, None);
                for &v in adj.neighbors(u) {
                    pool.push(Neighbor::new(
                        v as usize,
                        metric.distance(q, vectors.get(v as usize)),
                    ));
                }
                vec![robust_prune(&vectors, &metric, u, pool, pass_alpha, cfg.r)]
            };
            for batch in &batches {
                insert_batch(
                    std::slice::from_mut(&mut adj),
                    &vectors,
                    &metric,
                    &order[batch.clone()],
                    pass_alpha,
                    |_| cfg.r,
                    opts.threads,
                    refine,
                );
            }
        }

        let mut ctx = SearchContext::for_index(n);
        let repaired = repair_connectivity(&mut adj, &vectors, &metric, start, cfg.l, &mut ctx);
        adj.compact();

        Ok(VamanaIndex {
            vectors,
            metric,
            adj,
            start,
            cfg,
            repaired,
        })
    }

    /// Edges added by the final connectivity-repair pass (diagnostics).
    pub fn repaired(&self) -> usize {
        self.repaired
    }

    /// The navigating node (medoid).
    pub fn start(&self) -> usize {
        self.start
    }

    /// Adjacency (consumed by the DiskANN serializer).
    pub fn adjacency(&self) -> &AdjacencyList {
        &self.adj
    }

    /// Borrow the vectors (consumed by the DiskANN serializer).
    pub fn vectors(&self) -> &Vectors {
        &self.vectors
    }

    /// The configuration used at build time.
    pub fn config(&self) -> &VamanaConfig {
        &self.cfg
    }
}

/// Connectivity repair after the refinement passes: α-pruning plus the
/// degree cap can sever whole clusters from the navigating node on
/// strongly clustered data (the cross-cluster edges
/// of the random init graph lose the degree-cap race to near
/// neighbors). Like NSG, attach every unreachable node to its nearest
/// reachable node so one best-first search serves all queries. Returns
/// the number of edges added. Also used by NSG's spanning pass, which
/// has the same shape.
pub(crate) fn repair_connectivity(
    adj: &mut AdjacencyList,
    vectors: &Vectors,
    metric: &Metric,
    start: usize,
    l: usize,
    ctx: &mut SearchContext,
) -> usize {
    let n = adj.len();
    let mut repaired = 0usize;
    loop {
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            for &v in adj.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v as usize);
                }
            }
        }
        let Some(orphan) = seen.iter().position(|&s| !s) else {
            break;
        };
        let found = beam_search(
            adj,
            vectors,
            metric,
            vectors.get(orphan),
            &[start],
            1,
            l,
            ctx,
            None,
        );
        let parent = found.first().map(|nb| nb.id).unwrap_or(start);
        adj.add_edge(parent, orphan as u32);
        repaired += 1;
    }
    repaired
}

impl VectorIndex for VamanaIndex {
    fn name(&self) -> &'static str {
        "vamana"
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
        Ok(beam_search(
            &self.adj,
            &self.vectors,
            &self.metric,
            query,
            &[self.start],
            k,
            params.beam_width,
            ctx,
            None,
        ))
    }

    fn search_filtered_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        if k == 0 || self.vectors.is_empty() {
            return Ok(Vec::new());
        }
        let cap = params.beam_width * 16;
        Ok(beam_search_filtered(
            &self.adj,
            &self.vectors,
            &self.metric,
            query,
            &[self.start],
            k,
            params.beam_width,
            ctx,
            filter,
            cap,
            None,
        ))
    }

    /// Block-first scan: masked traversal that never enters blocked nodes.
    fn search_blocked_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        if k == 0 || self.vectors.is_empty() {
            return Ok(Vec::new());
        }
        Ok(crate::graph::beam_search_blocked(
            &self.adj,
            &self.vectors,
            &self.metric,
            query,
            &[self.start],
            k,
            params.beam_width,
            ctx,
            filter,
            None,
        ))
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            memory_bytes: self.adj.memory_bytes(),
            structure_entries: self.adj.edge_count(),
            detail: format!(
                "r={} alpha={} mean_degree={:.1} repaired={}",
                self.cfg.r,
                self.cfg.alpha,
                self.adj.mean_degree(),
                self.repaired
            ),
        }
    }
}

impl std::fmt::Debug for VamanaIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VamanaIndex(n={}, r={}, alpha={})",
            self.len(),
            self.cfg.r,
            self.cfg.alpha
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::recall::GroundTruth;

    fn setup(alpha: f32) -> (VamanaIndex, Vectors, GroundTruth) {
        let mut rng = Rng::seed_from_u64(40);
        let data = dataset::clustered(2000, 16, 10, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 25, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let idx = VamanaIndex::build(
            data,
            Metric::Euclidean,
            VamanaConfig {
                alpha,
                ..Default::default()
            },
        )
        .unwrap();
        (idx, queries, gt)
    }

    fn recall_of(idx: &VamanaIndex, queries: &Vectors, gt: &GroundTruth, ef: usize) -> f64 {
        let params = SearchParams::default().with_beam_width(ef);
        let results: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        gt.recall_batch(&results)
    }

    #[test]
    fn high_recall() {
        let (idx, queries, gt) = setup(1.2);
        let r = recall_of(&idx, &queries, &gt, 64);
        assert!(r > 0.95, "recall {r}");
    }

    #[test]
    fn degree_bounded_by_r() {
        let (idx, _, _) = setup(1.2);
        for u in 0..idx.len() {
            assert!(idx.adjacency().neighbors(u).len() <= idx.config().r);
        }
    }

    #[test]
    fn graph_reaches_everything_from_medoid() {
        let (idx, _, _) = setup(1.2);
        let reach = idx.adjacency().reachable_from(idx.start());
        assert!(
            reach as f64 > 0.99 * idx.len() as f64,
            "reach {reach}/{}",
            idx.len()
        );
    }

    #[test]
    fn alpha_controls_edge_density() {
        let (a10, _, _) = setup(1.0);
        let (a14, _, _) = setup(1.4);
        assert!(
            a14.adjacency().edge_count() > a10.adjacency().edge_count(),
            "alpha=1.4 ({}) should keep more edges than alpha=1.0 ({})",
            a14.adjacency().edge_count(),
            a10.adjacency().edge_count()
        );
    }

    #[test]
    fn filtered_search_visit_first() {
        let (idx, queries, _) = setup(1.2);
        let filter = |id: usize| id.is_multiple_of(4);
        let params = SearchParams::default().with_beam_width(64);
        for q in queries.iter().take(8) {
            let hits = idx.search_filtered(q, 5, &params, &filter).unwrap();
            assert!(!hits.is_empty());
            assert!(hits.iter().all(|n| n.id % 4 == 0));
        }
    }

    #[test]
    fn singleton_collection() {
        let mut data = Vectors::new(3);
        data.push(&[1.0, 2.0, 3.0]).unwrap();
        let idx = VamanaIndex::build(data, Metric::Euclidean, VamanaConfig::default()).unwrap();
        let hits = idx
            .search(&[1.0, 2.0, 3.0], 5, &SearchParams::default())
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut data = Vectors::new(2);
        data.push(&[0.0, 0.0]).unwrap();
        for cfg in [
            VamanaConfig {
                r: 0,
                ..Default::default()
            },
            VamanaConfig {
                l: 0,
                ..Default::default()
            },
            VamanaConfig {
                alpha: 0.5,
                ..Default::default()
            },
        ] {
            assert!(VamanaIndex::build(data.clone(), Metric::Euclidean, cfg).is_err());
        }
        assert!(
            VamanaIndex::build(Vectors::new(2), Metric::Euclidean, VamanaConfig::default())
                .is_err()
        );
    }
}
