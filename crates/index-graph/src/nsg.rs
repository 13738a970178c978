//! NSG — navigating spreading-out graph (Fu et al.; §2.2(2) "MSNs").
//!
//! Built *from an approximate KNNG*: for every node, a candidate pool is
//! gathered by searching the KNNG from the navigating node (the medoid),
//! merged with the node's KNNG neighbors, and filtered with the MRNG edge
//! rule (robust prune, α = 1). A final spanning pass guarantees every node
//! is reachable from the navigating node — the property that lets a single
//! best-first search answer all queries.

use crate::graph::{beam_search, beam_search_filtered, medoid, robust_prune, AdjacencyList};
use crate::knng::{KnngConfig, KnngIndex};
use crate::vamana::repair_connectivity;
use vdb_core::context::SearchContext;
use vdb_core::error::{Error, Result};
use vdb_core::index::{check_query, IndexStats, RowFilter, SearchParams, VectorIndex};
use vdb_core::metric::Metric;
use vdb_core::parallel::{parallel_map_chunks, BuildOptions};
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;

/// Build-time configuration.
#[derive(Debug, Clone)]
pub struct NsgConfig {
    /// Maximum out-degree.
    pub r: usize,
    /// Candidate-pool size gathered per node.
    pub l: usize,
    /// Neighbors per node of the bootstrap KNNG.
    pub knng_k: usize,
    /// RNG seed (forwarded to the KNNG build).
    pub seed: u64,
}

impl Default for NsgConfig {
    fn default() -> Self {
        NsgConfig {
            r: 24,
            l: 64,
            knng_k: 16,
            seed: 0x4E53,
        }
    }
}

/// The NSG index.
pub struct NsgIndex {
    vectors: Vectors,
    metric: Metric,
    adj: AdjacencyList,
    start: usize,
    cfg: NsgConfig,
    /// Nodes re-attached by the connectivity pass (diagnostics).
    pub reattached: usize,
}

impl NsgIndex {
    /// Build the graph serially.
    pub fn build(vectors: Vectors, metric: Metric, cfg: NsgConfig) -> Result<Self> {
        Self::build_with(vectors, metric, cfg, &BuildOptions::serial())
    }

    /// Build the graph. `opts` is forwarded to the bootstrap KNNG build,
    /// and the MRNG edge-selection pass — which reads only the immutable
    /// KNNG and writes only its own node's list — fans out over chunks,
    /// so the graph is the same at any thread count. The spanning pass
    /// runs serially.
    pub fn build_with(
        vectors: Vectors,
        metric: Metric,
        cfg: NsgConfig,
        opts: &BuildOptions,
    ) -> Result<Self> {
        if cfg.r == 0 || cfg.l == 0 || cfg.knng_k == 0 {
            return Err(Error::InvalidParameter(
                "nsg needs r, l, knng_k >= 1".into(),
            ));
        }
        if vectors.is_empty() {
            return Err(Error::EmptyCollection);
        }
        metric.validate(vectors.dim())?;
        let n = vectors.len();
        let start = medoid(&vectors, &metric);

        let knng = KnngIndex::build_with(
            vectors.clone(),
            metric.clone(),
            KnngConfig {
                seed: cfg.seed,
                ..KnngConfig::new(cfg.knng_k)
            },
            opts,
        )?;
        let kg = knng.adjacency();

        // Per-node edge selection over the immutable bootstrap graph.
        let chunks = parallel_map_chunks(n, opts.threads, |_, range| {
            let mut ctx = SearchContext::for_index(n);
            let mut lists: Vec<Vec<u32>> = Vec::with_capacity(range.len());
            for u in range {
                let q = vectors.get(u);
                let mut pool = beam_search(
                    kg,
                    &vectors,
                    &metric,
                    q,
                    &[start],
                    cfg.l,
                    cfg.l,
                    &mut ctx,
                    None,
                );
                for &v in kg.neighbors(u) {
                    pool.push(Neighbor::new(
                        v as usize,
                        metric.distance(q, vectors.get(v as usize)),
                    ));
                }
                lists.push(robust_prune(&vectors, &metric, u, pool, 1.0, cfg.r));
            }
            lists
        });
        let mut adj = AdjacencyList::from_lists(chunks.into_iter().flatten().collect());

        // Connectivity pass: attach any node unreachable from the medoid to
        // its nearest reachable node (the "spanning" step of NSG).
        let mut ctx = SearchContext::for_index(n);
        let reattached = repair_connectivity(&mut adj, &vectors, &metric, start, cfg.l, &mut ctx);

        Ok(NsgIndex {
            vectors,
            metric,
            adj,
            start,
            cfg,
            reattached,
        })
    }

    /// The navigating node.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Adjacency (diagnostics).
    pub fn adjacency(&self) -> &AdjacencyList {
        &self.adj
    }
}

impl VectorIndex for NsgIndex {
    fn name(&self) -> &'static str {
        "nsg"
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
            params.beam_width * 16,
            None,
        ))
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            memory_bytes: self.adj.memory_bytes(),
            structure_entries: self.adj.edge_count(),
            detail: format!(
                "r={} reattached={} mean_degree={:.1}",
                self.cfg.r,
                self.reattached,
                self.adj.mean_degree()
            ),
        }
    }
}

impl std::fmt::Debug for NsgIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NsgIndex(n={}, r={})", self.len(), self.cfg.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::recall::GroundTruth;
    use vdb_core::rng::Rng;

    fn setup() -> (NsgIndex, Vectors, GroundTruth) {
        let mut rng = Rng::seed_from_u64(55);
        let data = dataset::clustered(2000, 16, 10, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 25, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let idx = NsgIndex::build(data, Metric::Euclidean, NsgConfig::default()).unwrap();
        (idx, queries, gt)
    }

    #[test]
    fn high_recall() {
        let (idx, queries, gt) = setup();
        let params = SearchParams::default().with_beam_width(64);
        let results: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        let r = gt.recall_batch(&results);
        assert!(r > 0.9, "recall {r}");
    }

    #[test]
    fn everything_reachable_from_navigating_node() {
        let (idx, _, _) = setup();
        assert_eq!(idx.adjacency().reachable_from(idx.start()), idx.len());
    }

    #[test]
    fn sparser_than_its_bootstrap_knng() {
        let (idx, _, _) = setup();
        // MRNG pruning should leave fewer edges than k * n of the KNNG.
        assert!(idx.adjacency().mean_degree() < 16.0);
    }

    #[test]
    fn filtered_search_respects_predicate() {
        let (idx, queries, _) = setup();
        let filter = |id: usize| id >= 1000;
        let params = SearchParams::default().with_beam_width(64);
        let hits = idx
            .search_filtered(queries.get(0), 5, &params, &filter)
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|n| n.id >= 1000));
    }

    #[test]
    fn tiny_collection_builds() {
        let mut data = Vectors::new(2);
        for i in 0..5 {
            data.push(&[i as f32, 0.0]).unwrap();
        }
        let idx = NsgIndex::build(data, Metric::Euclidean, NsgConfig::default()).unwrap();
        let hits = idx
            .search(&[2.1, 0.0], 2, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].id, 2);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut data = Vectors::new(2);
        data.push(&[0.0, 0.0]).unwrap();
        assert!(NsgIndex::build(
            data,
            Metric::Euclidean,
            NsgConfig {
                r: 0,
                ..Default::default()
            }
        )
        .is_err());
    }
}
