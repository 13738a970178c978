//! k-nearest-neighbor graphs (§2.2(1)): exact construction for small
//! collections and NN-Descent (KGraph) iterative refinement for large ones.
//!
//! NN-Descent starts from a random KNNG and repeatedly improves it using
//! the observation that *a neighbor of a neighbor is likely a neighbor*:
//! each round joins every node's neighborhood (forward + reverse) and
//! offers each pair to each other's k-NN lists, until updates die out.

use crate::graph::{beam_search, AdjacencyList};
use vdb_core::context::SearchContext;
use vdb_core::error::{Error, Result};
use vdb_core::index::{check_query, IndexStats, SearchParams, VectorIndex};
use vdb_core::metric::Metric;
use vdb_core::parallel::{parallel_map_chunks, BuildOptions};
use vdb_core::rng::Rng;
use vdb_core::topk::{Neighbor, TopK};
use vdb_core::vector::Vectors;

/// Build-time configuration for the KNNG index.
#[derive(Debug, Clone)]
pub struct KnngConfig {
    /// Neighbors per node.
    pub k: usize,
    /// Maximum NN-Descent rounds.
    pub max_rounds: usize,
    /// Per-round sample size of neighbors considered for joins
    /// (NN-Descent's ρ·K sampling; bounds the O(nk²) join cost).
    pub sample: usize,
    /// Stop when the fraction of updated entries falls below this.
    pub delta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Build exactly (O(n²)) instead of NN-Descent. Automatic for tiny
    /// collections.
    pub exact: bool,
}

impl KnngConfig {
    /// Defaults for `k` neighbors per node.
    pub fn new(k: usize) -> Self {
        KnngConfig {
            k,
            max_rounds: 10,
            sample: 8,
            delta: 0.002,
            seed: 0x4E4E,
            exact: false,
        }
    }
}

/// A KNNG with a graph-search interface.
pub struct KnngIndex {
    vectors: Vectors,
    metric: Metric,
    adj: AdjacencyList,
    cfg: KnngConfig,
    /// Rounds NN-Descent actually ran (0 for exact builds).
    pub rounds_run: usize,
    /// Entry points used for search (random but fixed at build).
    entries: Vec<usize>,
}

impl KnngIndex {
    /// Build the graph serially.
    pub fn build(vectors: Vectors, metric: Metric, cfg: KnngConfig) -> Result<Self> {
        Self::build_with(vectors, metric, cfg, &BuildOptions::serial())
    }

    /// Build the graph; `opts.threads` fans out the exact construction's
    /// per-node scans (each row's top-k is independent, so the graph is
    /// the same at any thread count). NN-Descent runs serially.
    pub fn build_with(
        vectors: Vectors,
        metric: Metric,
        cfg: KnngConfig,
        opts: &BuildOptions,
    ) -> Result<Self> {
        if cfg.k == 0 {
            return Err(Error::InvalidParameter("k must be positive".into()));
        }
        if vectors.is_empty() {
            return Err(Error::EmptyCollection);
        }
        metric.validate(vectors.dim())?;
        let n = vectors.len();
        let k = cfg.k.min(n.saturating_sub(1)).max(1);
        let mut rng = Rng::seed_from_u64(cfg.seed);

        let (adj, rounds_run) = if cfg.exact || n <= 64 || n <= k + 1 {
            (exact_knng(&vectors, &metric, k, opts.threads), 0)
        } else {
            nn_descent(&vectors, &metric, k, &cfg, &mut rng)
        };

        // A raw KNNG is weakly navigable: clusters can form disconnected
        // components, so search seeds many spread entry points (the
        // standard KGraph mitigation). ~sqrt(n) capped at 64.
        let n_entries = ((n as f64).sqrt() as usize).clamp(1, 64).min(n);
        let entries = rng.sample_indices(n, n_entries);
        Ok(KnngIndex {
            vectors,
            metric,
            adj,
            cfg,
            rounds_run,
            entries,
        })
    }

    /// The adjacency lists (for NSG/EFANNA-style consumers that refine a
    /// KNNG into another graph).
    pub fn adjacency(&self) -> &AdjacencyList {
        &self.adj
    }

    /// Recall of the built graph's edges against the exact KNNG, sampled on
    /// `sample` nodes (graph-quality diagnostics).
    pub fn edge_recall(&self, sample: usize, rng: &mut Rng) -> f64 {
        let n = self.vectors.len();
        let k = self.cfg.k.min(n.saturating_sub(1)).max(1);
        let picks = rng.sample_indices(n, sample.min(n));
        let mut hit = 0usize;
        let mut total = 0usize;
        for &u in &picks {
            let mut top = TopK::new(k);
            for v in 0..n {
                if v != u {
                    top.push(Neighbor::new(
                        v,
                        self.metric
                            .distance(self.vectors.get(u), self.vectors.get(v)),
                    ));
                }
            }
            let truth: std::collections::HashSet<usize> =
                top.into_sorted().into_iter().map(|x| x.id).collect();
            hit += self
                .adj
                .neighbors(u)
                .iter()
                .filter(|&&v| truth.contains(&(v as usize)))
                .count();
            total += truth.len();
        }
        hit as f64 / total.max(1) as f64
    }
}

/// Exact KNNG in O(n² d). Each row's top-k is independent, so the chunked
/// fan-out produces the same lists as a serial scan for any `threads`.
fn exact_knng(vectors: &Vectors, metric: &Metric, k: usize, threads: usize) -> AdjacencyList {
    let n = vectors.len();
    let chunks = parallel_map_chunks(n, threads, |_, range| {
        let mut lists: Vec<Vec<u32>> = Vec::with_capacity(range.len());
        for u in range {
            let mut top = TopK::new(k);
            for v in 0..n {
                if v == u {
                    continue;
                }
                top.push(Neighbor::new(
                    v,
                    metric.distance(vectors.get(u), vectors.get(v)),
                ));
            }
            lists.push(top.into_sorted().into_iter().map(|x| x.id as u32).collect());
        }
        lists
    });
    AdjacencyList::from_lists(chunks.into_iter().flatten().collect())
}

/// NN-Descent. Maintains per-node bounded heaps of (dist, neighbor, new?)
/// and joins sampled new/old neighbors each round.
fn nn_descent(
    vectors: &Vectors,
    metric: &Metric,
    k: usize,
    cfg: &KnngConfig,
    rng: &mut Rng,
) -> (AdjacencyList, usize) {
    let n = vectors.len();
    // Heap entry: (neighbor, dist, is_new).
    let mut heaps: Vec<Vec<(u32, f32, bool)>> = vec![Vec::with_capacity(k + 1); n];
    let try_insert = |heaps: &mut Vec<Vec<(u32, f32, bool)>>, u: usize, v: u32, d: f32| -> bool {
        let h = &mut heaps[u];
        if h.iter().any(|&(x, _, _)| x == v) {
            return false;
        }
        if h.len() < k {
            h.push((v, d, true));
            h.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
            true
        } else if d < h[k - 1].1 {
            h[k - 1] = (v, d, true);
            h.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
            true
        } else {
            false
        }
    };

    // Random initialization.
    for u in 0..n {
        while heaps[u].len() < k {
            let v = rng.below(n);
            if v != u {
                let d = metric.distance(vectors.get(u), vectors.get(v));
                try_insert(&mut heaps, u, v as u32, d);
            }
        }
    }

    let mut rounds = 0usize;
    for round in 0..cfg.max_rounds {
        rounds = round + 1;
        // Collect sampled new/old forward and reverse neighbor lists.
        let mut new_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut old_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n {
            for &(v, _, is_new) in &heaps[u] {
                if is_new {
                    new_lists[u].push(v);
                } else {
                    old_lists[u].push(v);
                }
            }
        }
        // Mark sampled new entries as old (they get joined this round).
        for h in &mut heaps {
            for e in h.iter_mut() {
                e.2 = false;
            }
        }
        // Reverse lists, sampled.
        let mut rnew: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut rold: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n {
            for &v in &new_lists[u] {
                if rnew[v as usize].len() < cfg.sample {
                    rnew[v as usize].push(u as u32);
                }
            }
            for &v in &old_lists[u] {
                if rold[v as usize].len() < cfg.sample {
                    rold[v as usize].push(u as u32);
                }
            }
        }
        let mut updates = 0usize;
        for u in 0..n {
            let mut new_pool = new_lists[u].clone();
            new_pool.extend_from_slice(&rnew[u]);
            new_pool.dedup();
            let mut old_pool = old_lists[u].clone();
            old_pool.extend_from_slice(&rold[u]);
            old_pool.dedup();
            // Join new×new and new×old.
            for (i, &a) in new_pool.iter().enumerate() {
                for &b in new_pool[i + 1..].iter().chain(old_pool.iter()) {
                    if a == b {
                        continue;
                    }
                    let d = metric.distance(vectors.get(a as usize), vectors.get(b as usize));
                    if try_insert(&mut heaps, a as usize, b, d) {
                        updates += 1;
                    }
                    if try_insert(&mut heaps, b as usize, a, d) {
                        updates += 1;
                    }
                }
            }
        }
        if (updates as f64) < cfg.delta * (n * k) as f64 {
            break;
        }
    }

    let mut adj = AdjacencyList::new(n);
    for (u, h) in heaps.into_iter().enumerate() {
        adj.set_neighbors(u, h.into_iter().map(|(v, _, _)| v).collect());
    }
    (adj, rounds)
}

impl VectorIndex for KnngIndex {
    fn name(&self) -> &'static str {
        "knng"
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
            &self.entries,
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
            detail: format!("k={} rounds={}", self.cfg.k, self.rounds_run),
        }
    }
}

impl std::fmt::Debug for KnngIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KnngIndex(n={}, k={})", self.len(), self.cfg.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;

    #[test]
    fn exact_knng_members_answer_self_queries() {
        let mut rng = Rng::seed_from_u64(1);
        let data = dataset::gaussian(50, 8, &mut rng);
        let idx = KnngIndex::build(data.clone(), Metric::Euclidean, KnngConfig::new(5)).unwrap();
        assert_eq!(idx.rounds_run, 0, "small collections build exactly");
        // For a member of the collection, its k-NN in the graph are exact.
        let hits = idx
            .search(data.get(7), 1, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].id, 7);
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn nn_descent_approaches_exact_graph() {
        let mut rng = Rng::seed_from_u64(2);
        let data = dataset::clustered(800, 12, 6, 0.5, &mut rng).vectors;
        let idx = KnngIndex::build(data, Metric::Euclidean, KnngConfig::new(10)).unwrap();
        assert!(idx.rounds_run >= 1);
        let recall = idx.edge_recall(40, &mut rng);
        assert!(recall > 0.85, "edge recall {recall}");
    }

    #[test]
    fn nn_descent_beats_random_init() {
        let mut rng = Rng::seed_from_u64(3);
        let data = dataset::clustered(600, 12, 6, 0.5, &mut rng).vectors;
        let refined =
            KnngIndex::build(data.clone(), Metric::Euclidean, KnngConfig::new(8)).unwrap();
        let unrefined = KnngIndex::build(
            data,
            Metric::Euclidean,
            KnngConfig {
                max_rounds: 0,
                ..KnngConfig::new(8)
            },
        );
        // max_rounds=0 leaves the random graph (rounds loop never runs).
        let r_refined = refined.edge_recall(30, &mut rng);
        let r_random = unrefined.unwrap().edge_recall(30, &mut rng);
        assert!(
            r_refined > r_random + 0.3,
            "refined {r_refined} vs random {r_random}"
        );
    }

    #[test]
    fn search_recall_reasonable() {
        let mut rng = Rng::seed_from_u64(4);
        let data = dataset::clustered(1000, 12, 8, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 20, 0.05, &mut rng);
        let gt =
            vdb_core::recall::GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let idx = KnngIndex::build(data, Metric::Euclidean, KnngConfig::new(10)).unwrap();
        let params = SearchParams::default().with_beam_width(128);
        let results: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        let r = gt.recall_batch(&results);
        assert!(r > 0.7, "recall {r}");
    }

    #[test]
    fn degree_bounded_by_k() {
        let mut rng = Rng::seed_from_u64(5);
        let data = dataset::gaussian(300, 8, &mut rng);
        let idx = KnngIndex::build(data, Metric::Euclidean, KnngConfig::new(7)).unwrap();
        for u in 0..idx.len() {
            assert!(idx.adjacency().neighbors(u).len() <= 7);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(KnngIndex::build(Vectors::new(4), Metric::Euclidean, KnngConfig::new(3)).is_err());
        let mut rng = Rng::seed_from_u64(6);
        let data = dataset::gaussian(10, 4, &mut rng);
        assert!(KnngIndex::build(data, Metric::Euclidean, KnngConfig::new(0)).is_err());
    }

    #[test]
    fn k_clamped_for_tiny_collections() {
        let mut data = Vectors::new(2);
        data.push(&[0.0, 0.0]).unwrap();
        data.push(&[1.0, 0.0]).unwrap();
        let idx = KnngIndex::build(data, Metric::Euclidean, KnngConfig::new(10)).unwrap();
        assert_eq!(idx.adjacency().neighbors(0), &[1]);
    }
}
