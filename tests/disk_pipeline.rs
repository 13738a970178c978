//! Disk-serving pipeline equivalence suite (DESIGN.md §12).
//!
//! The pipeline's contract is that none of its levers can change what a
//! query returns: the page cache only changes which reads go to disk, the
//! BFS-packed layout only permutes record placement, and kernel-batched
//! rescoring computes the same distances as scalar loops. These tests
//! pin that contract across every dimension 1..=67 (covering each SIMD
//! remainder lane), with filters, with deliberately reused contexts, and
//! under concurrent searchers hammering one shared cache.

use std::sync::Arc;
use vdb_core::context::SearchContext;
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;
use vdb_core::{dataset, Metric, Rng, SearchParams, VectorIndex};
use vdb_index_graph::{DiskAnnConfig, DiskAnnIndex, VamanaConfig, VamanaIndex};
use vdb_index_table::{SpannConfig, SpannIndex};
use vdb_storage::{PageId, PagedFile, TempDir};

const K: usize = 5;

fn workload(dim: usize) -> (Vectors, Vectors) {
    let mut rng = Rng::seed_from_u64(0xD15C + dim as u64);
    let data = dataset::clustered(160, dim, 4, 0.5, &mut rng).vectors;
    let queries = dataset::split_queries(&data, 4, 0.05, &mut rng);
    (data, queries)
}

fn diskann_cfg(packed: bool) -> DiskAnnConfig {
    DiskAnnConfig {
        // pq_m = 1 divides every dimension in 1..=67.
        pq_m: 1,
        nav_nlist: 8,
        cache_pages: 32,
        packed_layout: packed,
        ..DiskAnnConfig::default()
    }
}

fn spann_cfg() -> SpannConfig {
    let mut cfg = SpannConfig::new(8);
    cfg.cache_pages = 32;
    cfg
}

fn search_all(
    idx: &dyn VectorIndex,
    queries: &Vectors,
    params: &SearchParams,
    ctx: &mut SearchContext,
) -> Vec<Vec<Neighbor>> {
    queries
        .iter()
        .map(|q| idx.search_with(ctx, q, K, params).unwrap())
        .collect()
}

/// Packed and identity layouts are bit-identical for DiskANN, and cold
/// and warm caches for SPANN, at every dim 1..=67.
#[test]
fn pipeline_levers_are_bit_identical_across_dims() {
    let dir = TempDir::new("pipeline-dims").unwrap();
    let dparams = SearchParams::default().with_beam_width(24);
    let sparams = SearchParams::default().with_nprobe(4);
    // One deliberately never-reset context across all dims and indexes:
    // reuse must be invisible too.
    let mut ctx = SearchContext::new();
    for dim in 1..=67usize {
        let (data, queries) = workload(dim);
        let vam =
            VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
        let packed =
            DiskAnnIndex::build(dir.file(&format!("d{dim}-p.idx")), &vam, &diskann_cfg(true))
                .unwrap();
        let identity = DiskAnnIndex::build(
            dir.file(&format!("d{dim}-i.idx")),
            &vam,
            &diskann_cfg(false),
        )
        .unwrap();
        let baseline = search_all(&packed, &queries, &dparams, &mut ctx);
        assert_eq!(
            baseline,
            search_all(&identity, &queries, &dparams, &mut ctx),
            "dim {dim}: layout changed results"
        );

        let spann = SpannIndex::build(
            dir.file(&format!("d{dim}-s.idx")),
            &data,
            Metric::Euclidean,
            &spann_cfg(),
        )
        .unwrap();
        let cold = search_all(&spann, &queries, &sparams, &mut ctx);
        assert_eq!(
            cold,
            search_all(&spann, &queries, &sparams, &mut ctx),
            "dim {dim}: spann cache state changed results"
        );
    }
}

/// Filtered search is equally invariant under every pipeline lever.
#[test]
fn filtered_search_is_bit_identical() {
    let dir = TempDir::new("pipeline-filter").unwrap();
    let (data, queries) = workload(19);
    let filter = |id: usize| !id.is_multiple_of(3);
    let dparams = SearchParams::default().with_beam_width(24);
    let sparams = SearchParams::default().with_nprobe(4);

    let vam = VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
    let packed = DiskAnnIndex::build(dir.file("p.idx"), &vam, &diskann_cfg(true)).unwrap();
    let identity = DiskAnnIndex::build(dir.file("i.idx"), &vam, &diskann_cfg(false)).unwrap();
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| packed.search_filtered(q, K, &dparams, &filter).unwrap())
        .collect();
    assert!(baseline.iter().flatten().all(|n| !n.id.is_multiple_of(3)));
    for idx in [&packed, &identity] {
        let got: Vec<_> = queries
            .iter()
            .map(|q| idx.search_filtered(q, K, &dparams, &filter).unwrap())
            .collect();
        assert_eq!(baseline, got);
    }

    let spann =
        SpannIndex::build(dir.file("s.idx"), &data, Metric::Euclidean, &spann_cfg()).unwrap();
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| spann.search_filtered(q, K, &sparams, &filter).unwrap())
        .collect();
    let got: Vec<_> = queries
        .iter()
        .map(|q| spann.search_filtered(q, K, &sparams, &filter).unwrap())
        .collect();
    assert_eq!(baseline, got);
}

/// Concurrent searchers over one shared cache: every thread gets exactly
/// the serial results while the cache serves hits and misses from all of
/// them at once, including racing misses on the same page.
#[test]
fn concurrent_searchers_share_the_cache() {
    let dir = TempDir::new("pipeline-stress").unwrap();
    let (data, queries) = workload(32);
    let dparams = SearchParams::default().with_beam_width(24);
    let vam = VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
    // Tiny budget so eviction and admission churn constantly.
    let mut cfg = diskann_cfg(true);
    cfg.cache_pages = 4;
    let idx = Arc::new(DiskAnnIndex::build(dir.file("c.idx"), &vam, &cfg).unwrap());
    let expected = Arc::new(search_all(
        idx.as_ref(),
        &queries,
        &dparams,
        &mut SearchContext::new(),
    ));
    let queries = Arc::new(queries);
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let (idx, queries, expected) = (idx.clone(), queries.clone(), expected.clone());
            let dparams = dparams.clone();
            std::thread::spawn(move || {
                let mut ctx = SearchContext::new();
                for _ in 0..8 {
                    let got = search_all(idx.as_ref(), &queries, &dparams, &mut ctx);
                    assert_eq!(*expected, got);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = idx.cache().stats();
    assert!(stats.accesses() > 0);
    assert_eq!(stats.pinned_pages as usize, idx.cache().pinned_pages());
}

/// Identity-layout images are byte-compatible with the pre-pipeline
/// format: the layout-version header word is zero (exactly what old
/// zeroed headers contain), and reopening serves identical results.
#[test]
fn legacy_images_remain_loadable() {
    let dir = TempDir::new("pipeline-legacy").unwrap();
    let (data, queries) = workload(16);
    let dparams = SearchParams::default().with_beam_width(24);
    let vam = VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
    let path = dir.file("legacy.idx");
    let built = DiskAnnIndex::build(&path, &vam, &diskann_cfg(false)).unwrap();
    assert_eq!(built.layout_version(), 0);
    let expected = search_all(&built, &queries, &dparams, &mut SearchContext::new());
    drop(built);
    // The v0 header's layout word is zero — indistinguishable from a
    // file written before layout versioning existed.
    let file = PagedFile::open(&path).unwrap();
    assert_eq!(file.read_page(PageId(0)).unwrap().read_u32(32), 0);
    drop(file);
    let reopened = DiskAnnIndex::open(&path, Metric::Euclidean, 32).unwrap();
    assert_eq!(reopened.layout_version(), 0);
    assert_eq!(
        expected,
        search_all(&reopened, &queries, &dparams, &mut SearchContext::new())
    );

    // SPANN's format is unchanged by this PR; reopen round-trips too.
    let spath = dir.file("legacy-spann.idx");
    let built = SpannIndex::build(&spath, &data, Metric::Euclidean, &spann_cfg()).unwrap();
    let sparams = SearchParams::default().with_nprobe(4);
    let expected = search_all(&built, &queries, &sparams, &mut SearchContext::new());
    drop(built);
    let reopened = SpannIndex::open(&spath, Metric::Euclidean, 32).unwrap();
    assert_eq!(
        expected,
        search_all(&reopened, &queries, &sparams, &mut SearchContext::new())
    );
}
