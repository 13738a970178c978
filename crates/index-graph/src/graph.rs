//! Shared graph machinery: adjacency storage, best-first (beam) search,
//! robust pruning, medoid selection, and batch-synchronous insertion.
//!
//! Every graph index in this crate (§2.2 "graph-based indexes") is an
//! overlay graph searched with the same best-first procedure; they differ
//! in *edge selection*. The filtered variant of the search implements the
//! paper's **visit-first scan** (§2.3(2)): traversal may pass through
//! predicate-failing nodes, but only passing nodes enter the result set.

use std::ops::Range;
use vdb_core::context::{self, SearchContext};
use vdb_core::index::RowFilter;
use vdb_core::metric::Metric;
use vdb_core::parallel::parallel_map_chunks;
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;

/// Directed adjacency lists over `u32` node ids.
#[derive(Debug, Clone, Default)]
pub struct AdjacencyList {
    lists: Vec<Vec<u32>>,
}

impl AdjacencyList {
    /// `n` nodes with no edges.
    pub fn new(n: usize) -> Self {
        AdjacencyList {
            lists: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Out-neighbors of `u`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.lists[u]
    }

    /// Replace the out-neighbors of `u`.
    pub fn set_neighbors(&mut self, u: usize, neighbors: Vec<u32>) {
        self.lists[u] = neighbors;
    }

    /// Add an edge `u -> v` if absent. Returns whether it was added.
    pub fn add_edge(&mut self, u: usize, v: u32) -> bool {
        if self.lists[u].contains(&v) {
            false
        } else {
            self.lists[u].push(v);
            true
        }
    }

    /// Append a node with no edges, returning its id.
    pub fn push_node(&mut self) -> usize {
        self.lists.push(Vec::new());
        self.lists.len() - 1
    }

    /// Total directed edges.
    pub fn edge_count(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Mean out-degree.
    pub fn mean_degree(&self) -> f64 {
        if self.lists.is_empty() {
            0.0
        } else {
            self.edge_count() as f64 / self.lists.len() as f64
        }
    }

    /// Approximate heap bytes.
    pub fn memory_bytes(&self) -> usize {
        self.lists.iter().map(|l| l.capacity() * 4 + 24).sum()
    }

    /// Build from raw per-node lists.
    pub fn from_lists(lists: Vec<Vec<u32>>) -> Self {
        AdjacencyList { lists }
    }

    /// Copy every list into an exact-size allocation, in node order, on
    /// the calling thread, so the layout of a graph built by workers does
    /// not depend on which worker allocated which list.
    pub fn compact(&mut self) {
        for list in &mut self.lists {
            *list = list.as_slice().to_vec();
        }
    }

    /// Number of nodes reachable from `start` (connectivity diagnostics).
    pub fn reachable_from(&self, start: usize) -> usize {
        let mut seen = vec![false; self.lists.len()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut count = 0;
        while let Some(u) = stack.pop() {
            count += 1;
            for &v in &self.lists[u] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v as usize);
                }
            }
        }
        count
    }
}

/// Statistics returned by a beam search (operator cost accounting).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchTrace {
    /// Nodes whose neighbor lists were expanded.
    pub expanded: usize,
    /// Distance computations performed.
    pub distance_evals: usize,
}

/// Best-first beam search over a graph.
///
/// Maintains a candidate frontier and a result pool of width
/// `ef = max(ef, k)`; terminates when the closest frontier node is farther
/// than the worst pooled result. Returns up to `k` neighbors best-first.
///
/// All transient state (visited set, frontier, pools) lives in `ctx` and
/// is epoch-reset here, so a warm context allocates only the `k` results.
#[allow(clippy::too_many_arguments)]
pub fn beam_search(
    adj: &AdjacencyList,
    vectors: &Vectors,
    metric: &Metric,
    query: &[f32],
    entries: &[usize],
    k: usize,
    ef: usize,
    ctx: &mut SearchContext,
    trace: Option<&mut SearchTrace>,
) -> Vec<Neighbor> {
    ctx.begin(vectors.len());
    beam_search_impl(
        adj, vectors, metric, query, entries, k, ef, ctx, None, trace,
    )
}

/// Block-first beam search (§2.3(1)): blocked nodes are masked out of the
/// traversal entirely by pre-visiting them. Cheaper per hop than
/// visit-first, but if blocking disconnects the graph the search strands —
/// the trade-off experiment F3 measures.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_blocked(
    adj: &AdjacencyList,
    vectors: &Vectors,
    metric: &Metric,
    query: &[f32],
    entries: &[usize],
    k: usize,
    ef: usize,
    ctx: &mut SearchContext,
    filter: &dyn RowFilter,
    trace: Option<&mut SearchTrace>,
) -> Vec<Neighbor> {
    ctx.begin(vectors.len());
    // Entry points stay traversable even when blocked (a blocked entry
    // would otherwise strand the whole search); the filter below keeps
    // them out of the result pool.
    for row in 0..vectors.len() {
        if !filter.accept(row) && !entries.contains(&row) {
            ctx.visited.visit(row);
        }
    }
    beam_search_impl(
        adj,
        vectors,
        metric,
        query,
        entries,
        k,
        ef,
        ctx,
        Some((filter, usize::MAX)),
        trace,
    )
}

/// Visit-first filtered beam search: `filter`-failing nodes still guide the
/// traversal but are excluded from the result pool. To avoid starving the
/// result set under selective predicates, the pool width for *accepted*
/// nodes stays `ef` while traversal is bounded by `expansion_cap` expanded
/// nodes (backtracking control; see §2.6(3)).
#[allow(clippy::too_many_arguments)]
pub fn beam_search_filtered(
    adj: &AdjacencyList,
    vectors: &Vectors,
    metric: &Metric,
    query: &[f32],
    entries: &[usize],
    k: usize,
    ef: usize,
    ctx: &mut SearchContext,
    filter: &dyn RowFilter,
    expansion_cap: usize,
    trace: Option<&mut SearchTrace>,
) -> Vec<Neighbor> {
    ctx.begin(vectors.len());
    beam_search_impl(
        adj,
        vectors,
        metric,
        query,
        entries,
        k,
        ef,
        ctx,
        Some((filter, expansion_cap)),
        trace,
    )
}

#[allow(clippy::too_many_arguments)]
fn beam_search_impl(
    adj: &AdjacencyList,
    vectors: &Vectors,
    metric: &Metric,
    query: &[f32],
    entries: &[usize],
    k: usize,
    ef: usize,
    ctx: &mut SearchContext,
    filter: Option<(&dyn RowFilter, usize)>,
    trace: Option<&mut SearchTrace>,
) -> Vec<Neighbor> {
    use std::cmp::Reverse;

    let ef = ef.max(k);
    // `frontier`: min-heap of candidates to expand. Callers reset (or
    // pre-populate, for blocked search) the visited set via `ctx.begin`.
    // `pool`: top-ef accepted results. `bound_pool`: top-ef over *all*
    // visited nodes, used for termination so filtering does not change the
    // traversal frontier shape. All three reuse the context's allocations.
    let SearchContext {
        visited,
        frontier,
        pool,
        bound_pool,
        ids,
        dists,
        ..
    } = ctx;
    pool.reset(ef);
    bound_pool.reset(ef);
    let mut expanded = 0usize;
    let mut evals = 0usize;

    for &e in entries {
        if e >= vectors.len() || !visited.visit(e) {
            continue;
        }
        let d = metric.distance(query, vectors.get(e));
        evals += 1;
        frontier.push(Reverse(Neighbor::new(e, d)));
        bound_pool.push(Neighbor::new(e, d));
        match filter {
            Some((f, _)) if !f.accept(e) => {}
            _ => {
                pool.push(Neighbor::new(e, d));
            }
        }
    }

    let expansion_cap = filter.map(|(_, cap)| cap).unwrap_or(usize::MAX);

    while let Some(Reverse(cand)) = frontier.pop() {
        // Termination/admission bound: unfiltered search prunes against
        // the ef best *visited* nodes; visit-first search must keep
        // expanding until the ef best *accepted* nodes stabilize, because
        // the nearest predicate matches may lie beyond many non-matching
        // nodes (§2.3(2) backtracking). The expansion cap bounds the walk
        // under pathologically selective predicates.
        let bound = if filter.is_some() {
            pool.threshold().max(bound_pool.threshold())
        } else {
            bound_pool.threshold()
        };
        if cand.dist > bound {
            break;
        }
        if expanded >= expansion_cap {
            break;
        }
        expanded += 1;
        // Batched expansion: gather the unvisited neighbors, score them all
        // in one multi-row kernel call, then run the admission loop over
        // the precomputed distances. The old code also computed a distance
        // for every unvisited neighbor (admission only gated heap pushes),
        // and admission order is unchanged, so results are identical.
        ids.clear();
        for &nb in adj.neighbors(cand.id) {
            if visited.visit(nb as usize) {
                ids.push(nb);
            }
        }
        dists.resize(ids.len(), 0.0);
        metric.distance_gather(query, vectors, ids, dists);
        evals += ids.len();
        for (&nb, &d) in ids.iter().zip(dists.iter()) {
            let nb = nb as usize;
            let admit = if filter.is_some() {
                d <= pool.threshold().max(bound_pool.threshold()) || !pool.is_full()
            } else {
                d <= bound_pool.threshold() || !bound_pool.is_full()
            };
            if admit {
                frontier.push(Reverse(Neighbor::new(nb, d)));
                bound_pool.push(Neighbor::new(nb, d));
                match filter {
                    Some((f, _)) if !f.accept(nb) => {}
                    _ => {
                        pool.push(Neighbor::new(nb, d));
                    }
                }
            }
        }
    }
    if let Some(t) = trace {
        t.expanded += expanded;
        t.distance_evals += evals;
    }
    pool.drain_best(k)
}

/// Robust pruning (Vamana's α-RNG rule; α = 1 gives the MRNG rule used by
/// NSG). From distance-sorted `candidates`, keep a candidate `c` only if no
/// already-kept `s` *occludes* it: `α · d(s, c) ≤ d(node, c)`. Larger α
/// keeps more (longer-range) edges.
pub fn robust_prune(
    vectors: &Vectors,
    metric: &Metric,
    node: usize,
    mut candidates: Vec<Neighbor>,
    alpha: f32,
    max_degree: usize,
) -> Vec<u32> {
    candidates.sort_unstable();
    candidates.dedup_by_key(|n| n.id);
    let mut kept: Vec<u32> = Vec::with_capacity(max_degree);
    for c in candidates {
        if c.id == node {
            continue;
        }
        if kept.len() >= max_degree {
            break;
        }
        let occluded = kept.iter().any(|&s| {
            let d_sc = metric.distance(vectors.get(s as usize), vectors.get(c.id));
            alpha * d_sc <= c.dist
        });
        if !occluded {
            kept.push(c.id as u32);
        }
    }
    kept
}

/// Re-prune every list of `nodes` longer than `cap` back to at most `cap`
/// edges with [`robust_prune`] at `alpha`, fanning the lists out through
/// [`parallel_map_chunks`]. Each new list reads only the lists as they
/// stood before the call, so the result is the same at any thread count.
pub fn prune_overfull(
    adj: &mut AdjacencyList,
    vectors: &Vectors,
    metric: &Metric,
    nodes: &[usize],
    alpha: f32,
    cap: usize,
    threads: usize,
) {
    let over: Vec<usize> = nodes
        .iter()
        .copied()
        .filter(|&u| adj.neighbors(u).len() > cap)
        .collect();
    let graph = &*adj;
    let pruned = parallel_map_chunks(over.len(), threads, |_, range| {
        range
            .map(|i| {
                let u = over[i];
                let cands = graph
                    .neighbors(u)
                    .iter()
                    .map(|&v| {
                        let d = metric.distance(vectors.get(u), vectors.get(v as usize));
                        Neighbor::new(v as usize, d)
                    })
                    .collect();
                robust_prune(vectors, metric, u, cands, alpha, cap)
            })
            .collect::<Vec<_>>()
    });
    for (u, list) in over.into_iter().zip(pruned.into_iter().flatten()) {
        adj.set_neighbors(u, list);
    }
}

/// The batches a batch-synchronous build inserts `n` rows in: prefix
/// doubling (1, 1, 2, 4, …), each batch as large as the prefix it joins,
/// capped at `max(1, n / 50)` rows. The schedule depends on `n` alone.
pub fn batch_schedule(n: usize) -> Vec<Range<usize>> {
    let cap = (n / 50).max(1);
    let mut batches = Vec::new();
    let mut start = 0;
    while start < n {
        let end = n.min(start + start.clamp(1, cap));
        batches.push(start..end);
        start = end;
    }
    batches
}

/// Link one batch of `rows` into a graph of one or more `layers`,
/// batch-synchronously (in the style of ParlayANN, Manohar et al.,
/// PPoPP 2024).
///
/// `link(layers, row, ctx)` returns `row`'s pruned out-list on each layer
/// it joins, indexed by layer. Every row of the batch computes it through
/// [`parallel_map_chunks`], against the graph as it stood at the batch
/// start. Then, layer by layer and in row order, the out-lists replace
/// the rows' lists and the reverse edges are added, and every list a
/// reverse edge took over `cap(layer)` is re-pruned at `alpha`
/// ([`prune_overfull`]). No step depends on `threads`, so the graph is
/// the same at any thread count; a batch of one row is a plain
/// sequential insert.
#[allow(clippy::too_many_arguments)]
pub fn insert_batch<F>(
    layers: &mut [AdjacencyList],
    vectors: &Vectors,
    metric: &Metric,
    rows: &[usize],
    alpha: f32,
    cap: impl Fn(usize) -> usize,
    threads: usize,
    link: F,
) where
    F: Fn(&[AdjacencyList], usize, &mut SearchContext) -> Vec<Vec<u32>> + Sync,
{
    let graph = &*layers;
    let outs: Vec<Vec<Vec<u32>>> = parallel_map_chunks(rows.len(), threads, |_, range| {
        context::with_local(|ctx| range.map(|i| link(graph, rows[i], ctx)).collect::<Vec<_>>())
    })
    .into_iter()
    .flatten()
    .collect();
    for (l, adj) in layers.iter_mut().enumerate() {
        let joined = || {
            rows.iter()
                .zip(&outs)
                .filter_map(|(&u, out)| Some((u, out.get(l)?)))
        };
        for (u, out) in joined() {
            adj.set_neighbors(u, out.clone());
        }
        let mut grown = Vec::new();
        for (u, out) in joined() {
            for &v in out {
                if adj.add_edge(v as usize, u as u32) {
                    grown.push(v as usize);
                }
            }
        }
        grown.sort_unstable();
        grown.dedup();
        prune_overfull(adj, vectors, metric, &grown, alpha, cap(l), threads);
    }
}

/// Index of the medoid: the point minimizing distance to the collection
/// centroid (the "navigating node" of NSG/Vamana). Computed against the
/// centroid rather than all-pairs for O(n·d) cost.
pub fn medoid(vectors: &Vectors, metric: &Metric) -> usize {
    let centroid = vectors.centroid().expect("non-empty collection");
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, row) in vectors.iter().enumerate() {
        let d = metric.distance(&centroid, row);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::rng::Rng;

    /// Line graph 0-1-2-...-9 over points on a line.
    fn line_graph() -> (AdjacencyList, Vectors) {
        let mut v = Vectors::new(1);
        let mut adj = AdjacencyList::new(10);
        for i in 0..10usize {
            v.push(&[i as f32]).unwrap();
            if i > 0 {
                adj.add_edge(i, (i - 1) as u32);
                adj.add_edge(i - 1, i as u32);
            }
        }
        (adj, v)
    }

    #[test]
    fn beam_search_walks_to_nearest() {
        let (adj, v) = line_graph();
        let mut ctx = SearchContext::new();
        let out = beam_search(
            &adj,
            &v,
            &Metric::Euclidean,
            &[7.2],
            &[0],
            3,
            8,
            &mut ctx,
            None,
        );
        assert_eq!(out[0].id, 7);
        assert_eq!(out[1].id, 8);
        assert_eq!(out[2].id, 6);
    }

    #[test]
    fn result_allocates_k_not_ef() {
        let (adj, v) = line_graph();
        let mut ctx = SearchContext::new();
        let out = beam_search(
            &adj,
            &v,
            &Metric::Euclidean,
            &[7.2],
            &[0],
            2,
            8,
            &mut ctx,
            None,
        );
        assert_eq!(out.len(), 2);
        assert!(out.capacity() <= 2, "capacity {}", out.capacity());
    }

    #[test]
    fn narrow_beam_can_miss_wide_beam_cannot() {
        // A graph with a decoy branch: from node 0, edges to 1 (toward
        // target) and 2 (decoy closer to query at first hop).
        let mut v = Vectors::new(1);
        for x in [0.0f32, 3.0, 4.5, 10.0] {
            v.push(&[x]).unwrap();
        }
        let mut adj = AdjacencyList::new(4);
        adj.add_edge(0, 1);
        adj.add_edge(0, 2);
        adj.add_edge(1, 3);
        let mut ctx = SearchContext::new();
        let wide = beam_search(
            &adj,
            &v,
            &Metric::Euclidean,
            &[10.0],
            &[0],
            1,
            8,
            &mut ctx,
            None,
        );
        assert_eq!(wide[0].id, 3, "wide beam reaches the target");
    }

    #[test]
    fn filtered_search_traverses_blocked_nodes() {
        let (adj, v) = line_graph();
        // Only even ids pass; the path to them runs through odd ids.
        let filter = |id: usize| id.is_multiple_of(2);
        let mut ctx = SearchContext::new();
        let out = beam_search_filtered(
            &adj,
            &v,
            &Metric::Euclidean,
            &[9.0],
            &[0],
            2,
            8,
            &mut ctx,
            &filter,
            usize::MAX,
            None,
        );
        assert_eq!(out[0].id, 8);
        assert!(out.iter().all(|n| n.id % 2 == 0));
    }

    #[test]
    fn expansion_cap_bounds_work() {
        let (adj, v) = line_graph();
        let filter = |_: usize| false; // nothing passes: worst case
        let mut ctx = SearchContext::new();
        let mut trace = SearchTrace::default();
        let out = beam_search_filtered(
            &adj,
            &v,
            &Metric::Euclidean,
            &[9.0],
            &[0],
            2,
            8,
            &mut ctx,
            &filter,
            3,
            Some(&mut trace),
        );
        assert!(out.is_empty());
        assert!(trace.expanded <= 3, "cap respected: {}", trace.expanded);
    }

    #[test]
    fn robust_prune_drops_occluded_candidates() {
        // node at origin; candidates at 1.0, 1.1 (next to each other), 5.0.
        let mut v = Vectors::new(1);
        for x in [0.0f32, 1.0, 1.1, 5.0] {
            v.push(&[x]).unwrap();
        }
        let m = Metric::Euclidean;
        let cands = vec![
            Neighbor::new(1, 1.0),
            Neighbor::new(2, 1.1),
            Neighbor::new(3, 5.0),
        ];
        // alpha=1: candidate 2 occluded by 1 (d(1,2)=0.1 <= 1.1); 3 kept
        // (d(1,3)=4 > 5? no, 4 <= 5 so occluded too!). Check the actual rule.
        let kept = robust_prune(&v, &m, 0, cands.clone(), 1.0, 8);
        assert_eq!(kept, vec![1], "alpha=1 keeps only the closest here");
        // alpha=2: occlusion needs 2*d(s,c) <= d(0,c): for c=3, 2*4=8 > 5 so kept.
        let kept = robust_prune(&v, &m, 0, cands, 2.0, 8);
        assert_eq!(kept, vec![1, 3]);
    }

    #[test]
    fn robust_prune_respects_degree_and_self() {
        let mut rng = Rng::seed_from_u64(1);
        let v = dataset::gaussian(50, 4, &mut rng);
        let m = Metric::Euclidean;
        let cands: Vec<Neighbor> = (0..50)
            .map(|i| Neighbor::new(i, m.distance(v.get(0), v.get(i))))
            .collect();
        let kept = robust_prune(&v, &m, 0, cands, 1.2, 5);
        assert!(kept.len() <= 5);
        assert!(!kept.contains(&0), "no self-edge");
    }

    #[test]
    fn batch_schedule_covers_every_row_once_in_order() {
        for n in [0, 1, 2, 3, 7, 49, 50, 51, 100, 999, 2000, 20_000] {
            let rows: Vec<usize> = batch_schedule(n).into_iter().flatten().collect();
            assert_eq!(rows, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn batch_sizes_double_up_to_the_cap() {
        for n in [1, 2, 10, 50, 333, 2000, 20_000] {
            let cap = (n / 50).max(1);
            let sizes: Vec<usize> = batch_schedule(n).iter().map(Range::len).collect();
            assert!(sizes.iter().all(|&s| (1..=cap).contains(&s)), "n={n}");
            // Each batch is as large as the prefix before it, up to the cap;
            // only the last may be cut short by the row count.
            let mut start = 0;
            for (i, &size) in sizes.iter().enumerate() {
                let want = start.clamp(1, cap);
                if i + 1 < sizes.len() {
                    assert_eq!(size, want, "n={n} batch {i}");
                } else {
                    assert_eq!(size, want.min(n - start), "n={n} last batch");
                }
                start += size;
            }
        }
        let first: Vec<usize> = batch_schedule(2000)
            .iter()
            .take(7)
            .map(Range::len)
            .collect();
        assert_eq!(first, vec![1, 1, 2, 4, 8, 16, 32]);
        assert!(batch_schedule(2000).iter().all(|b| b.len() <= 40));
    }

    #[test]
    fn batch_insert_graph_ignores_the_thread_count() {
        // The schedule takes no thread count; the linked graph must not
        // depend on one either.
        let mut rng = Rng::seed_from_u64(3);
        let v = dataset::gaussian(600, 8, &mut rng);
        let m = Metric::Euclidean;
        let build = |threads: usize| {
            let mut layers = vec![AdjacencyList::new(v.len())];
            for batch in batch_schedule(v.len()) {
                let rows: Vec<usize> = batch.clone().collect();
                let search = |g: &[AdjacencyList], row: usize, ctx: &mut SearchContext| {
                    if batch.start == 0 {
                        return vec![Vec::new()];
                    }
                    let found = beam_search(&g[0], &v, &m, v.get(row), &[0], 16, 16, ctx, None);
                    vec![robust_prune(&v, &m, row, found, 1.0, 8)]
                };
                insert_batch(&mut layers, &v, &m, &rows, 1.0, |_| 16, threads, search);
            }
            layers.remove(0)
        };
        let serial = build(1);
        assert!(serial.mean_degree() > 4.0, "rows were linked");
        for threads in [2, 3, 4] {
            let par = build(threads);
            for u in 0..v.len() {
                assert_eq!(
                    par.neighbors(u),
                    serial.neighbors(u),
                    "threads={threads} node {u}"
                );
            }
        }
        assert!((0..v.len()).all(|u| serial.neighbors(u).len() <= 16));
    }

    #[test]
    fn medoid_is_central() {
        let mut v = Vectors::new(1);
        for x in [0.0f32, 1.0, 2.0, 3.0, 100.0] {
            v.push(&[x]).unwrap();
        }
        // Centroid is ~21.2; nearest point is 3.0 (index 3).
        assert_eq!(medoid(&v, &Metric::Euclidean), 3);
    }

    #[test]
    fn adjacency_utilities() {
        let (adj, _) = line_graph();
        assert_eq!(adj.len(), 10);
        assert_eq!(adj.edge_count(), 18);
        assert!((adj.mean_degree() - 1.8).abs() < 1e-12);
        assert_eq!(adj.reachable_from(0), 10);
        let mut disconnected = adj.clone();
        disconnected.set_neighbors(4, vec![3]);
        disconnected.set_neighbors(5, vec![6]);
        // 5 -> 6 .. 9 reachable but 0..=4 cannot reach 5 anymore.
        assert!(disconnected.reachable_from(0) < 10);
    }
}
