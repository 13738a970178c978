//! The shared build/search engine behind every tree index in this crate.
//!
//! A forest of binary space-partition trees is searched ANNOY-style: one
//! global priority queue over tree nodes ordered by the margin distance to
//! the query, popping the most promising subtree across *all* trees until
//! a leaf-point budget is exhausted. Because `|margin|` lower-bounds the L2
//! distance to the far half-space, the same engine supports **exact**
//! search (for L2-family metrics) by expanding until the best remaining
//! bound exceeds the current k-th distance.

use crate::split::{Split, Splitter};
use std::cmp::Reverse;
use vdb_core::context::{self, SearchContext};
use vdb_core::error::{Error, Result};
use vdb_core::index::{check_query, IndexStats, RowFilter, SearchParams, VectorIndex};
use vdb_core::metric::Metric;
use vdb_core::parallel::{clamp_threads, parallel_map_chunks, BuildOptions};
use vdb_core::rng::Rng;
use vdb_core::sync::Mutex;
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;

/// Build-time configuration for a tree forest.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees (1 = a single tree index).
    pub n_trees: usize,
    /// Maximum points per leaf.
    pub leaf_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ForestConfig {
    /// Defaults: `n_trees` trees with 16-point leaves.
    pub fn new(n_trees: usize) -> Self {
        ForestConfig {
            n_trees,
            leaf_size: 16,
            seed: 0x7EE5,
        }
    }
}

enum Node {
    Leaf { points: Vec<u32> },
    Internal { split: Split, left: u32, right: u32 },
}

struct Tree {
    nodes: Vec<Node>,
    root: u32,
}

impl Tree {
    fn build(data: &Vectors, splitter: &dyn Splitter, leaf_size: usize, rng: &mut Rng) -> Tree {
        let mut nodes = Vec::new();
        let all: Vec<u32> = (0..data.len() as u32).collect();
        let root = build_node(data, splitter, leaf_size, all, &mut nodes, rng, 0);
        Tree { nodes, root }
    }
}

/// Depth cap: prevents pathological recursion when splits keep failing to
/// separate duplicated points.
const MAX_DEPTH: usize = 64;

fn build_node(
    data: &Vectors,
    splitter: &dyn Splitter,
    leaf_size: usize,
    points: Vec<u32>,
    nodes: &mut Vec<Node>,
    rng: &mut Rng,
    depth: usize,
) -> u32 {
    if points.len() <= leaf_size || depth >= MAX_DEPTH {
        nodes.push(Node::Leaf { points });
        return (nodes.len() - 1) as u32;
    }
    let Some(split) = splitter.split(data, &points, rng) else {
        nodes.push(Node::Leaf { points });
        return (nodes.len() - 1) as u32;
    };
    let mut left_pts = Vec::new();
    let mut right_pts = Vec::new();
    for &p in &points {
        if split.goes_left(data.get(p as usize)) {
            left_pts.push(p);
        } else {
            right_pts.push(p);
        }
    }
    if left_pts.is_empty() || right_pts.is_empty() {
        nodes.push(Node::Leaf { points });
        return (nodes.len() - 1) as u32;
    }
    let left = build_node(data, splitter, leaf_size, left_pts, nodes, rng, depth + 1);
    let right = build_node(data, splitter, leaf_size, right_pts, nodes, rng, depth + 1);
    nodes.push(Node::Internal { split, left, right });
    (nodes.len() - 1) as u32
}

// The cross-tree frontier reuses the context's `BinaryHeap<Reverse<Neighbor>>`
// by packing `(tree, node)` into `Neighbor::id` and carrying the margin
// bound in `Neighbor::dist`; `Neighbor`'s (dist, id) ordering matches the
// old (bound, tree, node) ordering because the packing is lexicographic.

#[inline]
fn pack(tree: u32, node: u32) -> usize {
    (((tree as u64) << 32) | node as u64) as usize
}

#[inline]
fn unpack(id: usize) -> (u32, u32) {
    ((id as u64 >> 32) as u32, id as u32)
}

/// A forest index over an owned vector collection.
pub struct ForestIndex {
    vectors: Vectors,
    metric: Metric,
    trees: Vec<Tree>,
    name: &'static str,
    cfg: ForestConfig,
    /// Whether `|margin|` is a valid distance lower bound for `metric`
    /// (true for the L2 family), enabling exact search.
    exact_capable: bool,
}

impl ForestIndex {
    /// Build a forest using `splitter` for every tree.
    pub fn build(
        vectors: Vectors,
        metric: Metric,
        splitter: &dyn Splitter,
        cfg: ForestConfig,
        name: &'static str,
    ) -> Result<Self> {
        ForestIndex::build_with(
            vectors,
            metric,
            splitter,
            cfg,
            name,
            &BuildOptions::serial(),
        )
    }

    /// [`ForestIndex::build`] with explicit [`BuildOptions`]: trees build
    /// one-per-thread. Per-tree RNGs are forked from the seed serially in
    /// tree order *before* fanning out, so the forest is **bit-identical**
    /// to the serial build for any thread count.
    pub fn build_with(
        vectors: Vectors,
        metric: Metric,
        splitter: &dyn Splitter,
        cfg: ForestConfig,
        name: &'static str,
        opts: &BuildOptions,
    ) -> Result<Self> {
        if cfg.n_trees == 0 {
            return Err(Error::InvalidParameter(
                "forest needs at least one tree".into(),
            ));
        }
        if cfg.leaf_size == 0 {
            return Err(Error::InvalidParameter("leaf size must be positive".into()));
        }
        metric.validate(vectors.dim())?;
        // Fork one RNG per tree serially, in tree order, so every tree
        // draws the exact sequence it would have drawn in a serial build
        // regardless of which thread builds it.
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let tree_rngs: Vec<Mutex<Rng>> = (0..cfg.n_trees).map(|_| Mutex::new(rng.fork())).collect();
        let threads = clamp_threads(opts.threads, cfg.n_trees);
        let trees: Vec<Tree> = parallel_map_chunks(cfg.n_trees, threads, |_, range| {
            range
                .map(|i| {
                    let mut tree_rng = tree_rngs[i].lock();
                    Tree::build(&vectors, splitter, cfg.leaf_size, &mut tree_rng)
                })
                .collect::<Vec<Tree>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let exact_capable = matches!(metric, Metric::Euclidean | Metric::SquaredEuclidean);
        Ok(ForestIndex {
            vectors,
            metric,
            trees,
            name,
            cfg,
            exact_capable,
        })
    }

    /// The build configuration.
    pub fn config(&self) -> &ForestConfig {
        &self.cfg
    }

    /// Whether this forest supports exact (backtracking-complete) search.
    pub fn exact_capable(&self) -> bool {
        self.exact_capable
    }

    /// Core search. `budget` caps leaf points examined; `exact` ignores the
    /// budget and runs until the bound proves completeness.
    fn search_inner(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        budget: usize,
        exact: bool,
        filter: Option<&dyn RowFilter>,
    ) -> Vec<Neighbor> {
        ctx.begin(self.vectors.len());
        ctx.pool.reset(k);
        let SearchContext {
            visited: seen,
            pool: top,
            frontier: heap,
            ..
        } = ctx;
        for (t, tree) in self.trees.iter().enumerate() {
            heap.push(Reverse(Neighbor::new(pack(t as u32, tree.root), 0.0)));
        }
        let mut examined = 0usize;
        while let Some(Reverse(front)) = heap.pop() {
            if exact {
                // For SquaredEuclidean the comparison must square the bound.
                let thr = top.threshold();
                let bound_d = match self.metric {
                    Metric::SquaredEuclidean => front.dist * front.dist,
                    _ => front.dist,
                };
                if top.is_full() && bound_d >= thr {
                    break;
                }
            } else if examined >= budget {
                break;
            }
            let (tree_id, mut node) = unpack(front.id);
            let tree = &self.trees[tree_id as usize];
            loop {
                match &tree.nodes[node as usize] {
                    Node::Leaf { points } => {
                        for &p in points {
                            if !seen.visit(p as usize) {
                                continue;
                            }
                            examined += 1;
                            if let Some(f) = filter {
                                if !f.accept(p as usize) {
                                    continue;
                                }
                            }
                            let d = self.metric.distance(query, self.vectors.get(p as usize));
                            top.push(Neighbor::new(p as usize, d));
                        }
                        break;
                    }
                    Node::Internal { split, left, right } => {
                        let m = split.margin(query);
                        let (near, far) = if m < 0.0 {
                            (*left, *right)
                        } else {
                            (*right, *left)
                        };
                        let far_bound = front.dist.max(m.abs());
                        heap.push(Reverse(Neighbor::new(pack(tree_id, far), far_bound)));
                        node = near;
                    }
                }
            }
        }
        heap.clear();
        top.drain_sorted()
    }

    /// Exact k-NN via backtracking with margin bounds (L2 family only).
    pub fn search_exact(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        context::with_local(|ctx| self.search_exact_with(ctx, query, k))
    }

    /// [`Self::search_exact`] against a caller-managed scratch context.
    pub fn search_exact_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        if !self.exact_capable {
            return Err(Error::Unsupported(format!(
                "exact tree search requires an L2-family metric, got {}",
                self.metric.name()
            )));
        }
        if k == 0 || self.vectors.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.search_inner(ctx, query, k, usize::MAX, true, None))
    }
}

impl VectorIndex for ForestIndex {
    fn name(&self) -> &'static str {
        self.name
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
        let budget = params.max_leaf_points.max(k);
        Ok(self.search_inner(ctx, query, k, budget, false, None))
    }

    /// Visit-first filtered search: the predicate is evaluated on leaf
    /// points during traversal, and the leaf budget only counts *visited*
    /// points, so low-selectivity predicates naturally explore further.
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
        let budget = params.max_leaf_points.max(k);
        Ok(self.search_inner(ctx, query, k, budget, false, Some(filter)))
    }

    fn stats(&self) -> IndexStats {
        let mut nodes = 0usize;
        let mut bytes = 0usize;
        for t in &self.trees {
            nodes += t.nodes.len();
            for n in &t.nodes {
                bytes += match n {
                    Node::Leaf { points } => points.len() * 4 + 24,
                    Node::Internal { split, .. } => split.memory_bytes() + 8,
                };
            }
        }
        IndexStats {
            memory_bytes: bytes,
            structure_entries: nodes,
            detail: format!(
                "trees={} leaf_size={}",
                self.trees.len(),
                self.cfg.leaf_size
            ),
        }
    }
}

impl std::fmt::Debug for ForestIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ForestIndex({}, n={}, trees={})",
            self.name,
            self.len(),
            self.trees.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{KdSplitter, RpSplitter};
    use vdb_core::dataset;
    use vdb_core::flat::FlatIndex;

    fn data_and_queries() -> (Vectors, Vectors) {
        let mut rng = Rng::seed_from_u64(50);
        let data = dataset::clustered(1500, 12, 8, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 20, 0.05, &mut rng);
        (data, queries)
    }

    #[test]
    fn exact_search_matches_flat() {
        let (data, queries) = data_and_queries();
        let forest = ForestIndex::build(
            data.clone(),
            Metric::Euclidean,
            &KdSplitter,
            ForestConfig::new(1),
            "kd",
        )
        .unwrap();
        let flat = FlatIndex::build(data, Metric::Euclidean).unwrap();
        let params = SearchParams::default();
        for q in queries.iter() {
            let exact = forest.search_exact(q, 5).unwrap();
            let oracle = flat.search(q, 5, &params).unwrap();
            assert_eq!(
                exact.iter().map(|n| n.id).collect::<Vec<_>>(),
                oracle.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn budget_controls_recall() {
        let (data, queries) = data_and_queries();
        let forest = ForestIndex::build(
            data.clone(),
            Metric::Euclidean,
            &RpSplitter,
            ForestConfig::new(8),
            "rp_forest",
        )
        .unwrap();
        let flat = FlatIndex::build(data, Metric::Euclidean).unwrap();
        let mut recalls = Vec::new();
        for budget in [32usize, 256, 1500] {
            let params = SearchParams::default().with_max_leaf_points(budget);
            let mut hit = 0usize;
            let mut total = 0usize;
            for q in queries.iter() {
                let approx = forest.search(q, 10, &params).unwrap();
                let truth = flat.search(q, 10, &SearchParams::default()).unwrap();
                let tset: std::collections::HashSet<_> = truth.iter().map(|n| n.id).collect();
                hit += approx.iter().filter(|n| tset.contains(&n.id)).count();
                total += truth.len();
            }
            recalls.push(hit as f64 / total as f64);
        }
        assert!(
            recalls[0] <= recalls[1] + 0.05 && recalls[1] <= recalls[2] + 0.05,
            "{recalls:?}"
        );
        assert!(
            recalls[2] > 0.95,
            "full budget should be near-exact: {recalls:?}"
        );
    }

    #[test]
    fn exact_rejected_for_non_l2() {
        let (data, _) = data_and_queries();
        let forest = ForestIndex::build(
            data,
            Metric::Cosine,
            &RpSplitter,
            ForestConfig::new(2),
            "rp_forest",
        )
        .unwrap();
        assert!(!forest.exact_capable());
        assert!(forest.search_exact(&[0.0; 12], 3).is_err());
    }

    #[test]
    fn filtered_search_respects_predicate() {
        let (data, queries) = data_and_queries();
        let forest = ForestIndex::build(
            data,
            Metric::Euclidean,
            &KdSplitter,
            ForestConfig::new(4),
            "kd",
        )
        .unwrap();
        let filter = |id: usize| id.is_multiple_of(5);
        let params = SearchParams::default().with_max_leaf_points(1500);
        for q in queries.iter().take(5) {
            let hits = forest.search_filtered(q, 5, &params, &filter).unwrap();
            assert!(!hits.is_empty());
            assert!(hits.iter().all(|n| n.id % 5 == 0));
        }
    }

    #[test]
    fn duplicated_points_build_fine() {
        let mut data = Vectors::new(4);
        for _ in 0..100 {
            data.push(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        }
        let forest = ForestIndex::build(
            data,
            Metric::Euclidean,
            &KdSplitter,
            ForestConfig::new(2),
            "kd",
        )
        .unwrap();
        let hits = forest
            .search(&[1.0, 2.0, 3.0, 4.0], 3, &SearchParams::default())
            .unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let (data, _) = data_and_queries();
        assert!(ForestIndex::build(
            data.clone(),
            Metric::Euclidean,
            &KdSplitter,
            ForestConfig {
                n_trees: 0,
                ..ForestConfig::new(1)
            },
            "kd"
        )
        .is_err());
        assert!(ForestIndex::build(
            data,
            Metric::Euclidean,
            &KdSplitter,
            ForestConfig {
                leaf_size: 0,
                ..ForestConfig::new(1)
            },
            "kd"
        )
        .is_err());
    }
}
