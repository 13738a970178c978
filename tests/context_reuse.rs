//! Context-reuse equivalence: for every index family, searching with a
//! fresh [`SearchContext`], with a deliberately dirty reused context, and
//! through the legacy context-free `search()` wrapper must produce
//! byte-identical results. This is the contract that lets batch workers,
//! shard scatter loops, and the collection facade reuse scratch freely.

use vdb_core::context::SearchContext;
use vdb_core::vector::Vectors;
use vdb_core::{dataset, FlatIndex, Metric, Rng, SearchParams, VectorIndex};
use vdb_index_graph::{
    DiskAnnConfig, DiskAnnIndex, HnswConfig, HnswIndex, KnngConfig, KnngIndex, NsgConfig, NsgIndex,
    NswConfig, NswIndex, StitchedConfig, StitchedVamanaIndex, VamanaConfig, VamanaIndex,
};
use vdb_index_table::{
    IvfConfig, IvfFlatIndex, IvfPqIndex, IvfSqIndex, LshConfig, LshIndex, SpannConfig, SpannIndex,
};
use vdb_index_tree::annoy_forest;
use vdb_quant::{PqConfig, SqBits};
use vdb_storage::TempDir;

const K: usize = 10;

fn workload() -> (Vectors, Vectors) {
    let mut rng = Rng::seed_from_u64(0xC0DE);
    let data = dataset::clustered(900, 16, 9, 0.5, &mut rng).vectors;
    let queries = dataset::split_queries(&data, 16, 0.05, &mut rng);
    (data, queries)
}

/// Pollute every public buffer of `ctx` so a reuse bug (missing reset,
/// stale epoch, leftover candidates) cannot hide behind clean state.
fn dirty(ctx: &mut SearchContext, index: &dyn VectorIndex, params: &SearchParams) {
    let junk = vec![1e30f32; index.dim()];
    // A real search leaves representative dirt in the visited set, pools,
    // frontier, and ext slots...
    index.search_with(ctx, &junk, K + 3, params).unwrap();
    // ...and hand-thrown garbage covers the plain buffers.
    ctx.scratch.extend([f32::NAN; 7]);
    ctx.order.extend([(f32::INFINITY, 9999), (-1.0, 0)]);
    ctx.ids.extend([u32::MAX, 0, 42]);
    ctx.pool.reset(3);
    ctx.rerank.reset(2);
}

/// Assert the three access paths agree exactly for every query, and that
/// `search_batch` over one warm context matches the per-query results.
fn assert_context_equivalence(index: &dyn VectorIndex, queries: &Vectors, params: &SearchParams) {
    let mut reused = SearchContext::for_index(index.len());
    dirty(&mut reused, index, params);
    let mut per_query = Vec::new();
    for q in queries.iter() {
        let legacy = index.search(q, K, params).unwrap();
        let fresh = index
            .search_with(&mut SearchContext::new(), q, K, params)
            .unwrap();
        let warm = index.search_with(&mut reused, q, K, params).unwrap();
        assert_eq!(legacy, fresh, "{}: legacy vs fresh context", index.name());
        assert_eq!(
            legacy,
            warm,
            "{}: fresh vs dirty reused context",
            index.name()
        );
        per_query.push(legacy);
    }
    let mut batch_ctx = SearchContext::new();
    dirty(&mut batch_ctx, index, params);
    let refs: Vec<&[f32]> = queries.iter().collect();
    let batched = index
        .search_batch(&mut batch_ctx, &refs, K, params)
        .unwrap();
    assert_eq!(per_query, batched, "{}: batch vs per-query", index.name());

    // Filtered paths reuse the same scratch; they must be just as stable.
    let filter = |id: usize| !id.is_multiple_of(3);
    for q in queries.iter().take(4) {
        let legacy = index.search_filtered(q, K, params, &filter).unwrap();
        let warm = index
            .search_filtered_with(&mut reused, q, K, params, &filter)
            .unwrap();
        assert_eq!(legacy, warm, "{}: filtered legacy vs reused", index.name());
        assert!(legacy.iter().all(|n| n.id % 3 != 0));
    }
}

#[test]
fn flat_context_equivalence() {
    let (data, queries) = workload();
    let idx = FlatIndex::build(data, Metric::Euclidean).unwrap();
    assert_context_equivalence(&idx, &queries, &SearchParams::default());
}

#[test]
fn graph_indexes_context_equivalence() {
    let (data, queries) = workload();
    let params = SearchParams::default().with_beam_width(48);
    let hnsw = HnswIndex::build(data.clone(), Metric::Euclidean, HnswConfig::default()).unwrap();
    assert_context_equivalence(&hnsw, &queries, &params);
    let nsw = NswIndex::build(data.clone(), Metric::Euclidean, NswConfig::default()).unwrap();
    assert_context_equivalence(&nsw, &queries, &params);
    let vamana =
        VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
    assert_context_equivalence(&vamana, &queries, &params);
    let nsg = NsgIndex::build(data.clone(), Metric::Euclidean, NsgConfig::default()).unwrap();
    assert_context_equivalence(&nsg, &queries, &params);
    let knng = KnngIndex::build(data.clone(), Metric::Euclidean, KnngConfig::new(12)).unwrap();
    assert_context_equivalence(&knng, &queries, &params);
    let labels: Vec<u32> = (0..data.len() as u32).map(|i| i % 4).collect();
    let stitched =
        StitchedVamanaIndex::build(data, labels, Metric::Euclidean, StitchedConfig::default())
            .unwrap();
    assert_context_equivalence(&stitched, &queries, &params);
}

#[test]
fn table_indexes_context_equivalence() {
    let (data, queries) = workload();
    let params = SearchParams::default().with_nprobe(4);
    let cfg = IvfConfig::new(16);
    let ivf = IvfFlatIndex::build(data.clone(), Metric::Euclidean, &cfg, &()).unwrap();
    assert_context_equivalence(&ivf, &queries, &params);
    let ivf_pq =
        IvfPqIndex::build(data.clone(), Metric::Euclidean, &cfg, &PqConfig::new(4)).unwrap();
    assert_context_equivalence(&ivf_pq, &queries, &params);
    let ivf_sq = IvfSqIndex::build(data.clone(), Metric::Euclidean, &cfg, &SqBits::B8).unwrap();
    assert_context_equivalence(&ivf_sq, &queries, &params);
    let lsh = LshIndex::build(data, Metric::Euclidean, LshConfig::default()).unwrap();
    assert_context_equivalence(&lsh, &queries, &params);
}

#[test]
fn disk_indexes_context_equivalence() {
    let (data, queries) = workload();
    let dir = TempDir::new("ctx-reuse").unwrap();
    let vam = VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
    let diskann = DiskAnnIndex::build(dir.file("d.idx"), &vam, &DiskAnnConfig::default()).unwrap();
    assert_context_equivalence(
        &diskann,
        &queries,
        &SearchParams::default().with_beam_width(48),
    );
    let spann = SpannIndex::build(
        dir.file("s.idx"),
        &data,
        Metric::Euclidean,
        &SpannConfig::new(12),
    )
    .unwrap();
    assert_context_equivalence(&spann, &queries, &SearchParams::default().with_nprobe(4));
}

#[test]
fn tree_index_context_equivalence() {
    let (data, queries) = workload();
    let forest = annoy_forest(data, Metric::Euclidean, 8, 24, 7).unwrap();
    assert_context_equivalence(&forest, &queries, &SearchParams::default());
}

/// A context dirtied by one index must serve a *different* index
/// unchanged — the plan executor interleaves index types over one context.
#[test]
fn one_context_serves_mixed_index_types() {
    let (data, queries) = workload();
    let params = SearchParams::default().with_beam_width(48).with_nprobe(4);
    let flat = FlatIndex::build(data.clone(), Metric::Euclidean).unwrap();
    let hnsw = HnswIndex::build(data.clone(), Metric::Euclidean, HnswConfig::default()).unwrap();
    let ivf_pq = IvfPqIndex::build(
        data,
        Metric::Euclidean,
        &IvfConfig::new(16),
        &PqConfig::new(4),
    )
    .unwrap();
    let indexes: [&dyn VectorIndex; 3] = [&flat, &hnsw, &ivf_pq];
    let mut shared = SearchContext::new();
    for q in queries.iter().take(8) {
        for idx in indexes {
            let expected = idx
                .search_with(&mut SearchContext::new(), q, K, &params)
                .unwrap();
            let got = idx.search_with(&mut shared, q, K, &params).unwrap();
            assert_eq!(expected, got, "{} after cross-index reuse", idx.name());
        }
    }
}
