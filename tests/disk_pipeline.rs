//! Disk-serving pipeline equivalence suite (DESIGN.md §12).
//!
//! The pipeline's contract is that none of its levers can change what a
//! query returns: asynchronous prefetch only warms the cache, the
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

/// Prefetch on/off and packed/identity layouts are bit-identical for
/// DiskANN, and prefetch on/off for SPANN, at every dim 1..=67.
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
        packed.set_prefetch(false);
        let baseline = search_all(&packed, &queries, &dparams, &mut ctx);
        packed.set_prefetch(true);
        assert_eq!(
            baseline,
            search_all(&packed, &queries, &dparams, &mut ctx),
            "dim {dim}: diskann prefetch changed results"
        );
        for prefetch in [false, true] {
            identity.set_prefetch(prefetch);
            assert_eq!(
                baseline,
                search_all(&identity, &queries, &dparams, &mut ctx),
                "dim {dim}: layout (prefetch={prefetch}) changed results"
            );
        }

        let spann = SpannIndex::build(
            dir.file(&format!("d{dim}-s.idx")),
            &data,
            Metric::Euclidean,
            &spann_cfg(),
        )
        .unwrap();
        spann.set_prefetch(false);
        let baseline = search_all(&spann, &queries, &sparams, &mut ctx);
        spann.set_prefetch(true);
        assert_eq!(
            baseline,
            search_all(&spann, &queries, &sparams, &mut ctx),
            "dim {dim}: spann prefetch changed results"
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
    packed.set_prefetch(false);
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| packed.search_filtered(q, K, &dparams, &filter).unwrap())
        .collect();
    assert!(baseline.iter().flatten().all(|n| !n.id.is_multiple_of(3)));
    packed.set_prefetch(true);
    identity.set_prefetch(true);
    for idx in [&packed, &identity] {
        let got: Vec<_> = queries
            .iter()
            .map(|q| idx.search_filtered(q, K, &dparams, &filter).unwrap())
            .collect();
        assert_eq!(baseline, got);
    }

    let spann =
        SpannIndex::build(dir.file("s.idx"), &data, Metric::Euclidean, &spann_cfg()).unwrap();
    spann.set_prefetch(false);
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| spann.search_filtered(q, K, &sparams, &filter).unwrap())
        .collect();
    spann.set_prefetch(true);
    let got: Vec<_> = queries
        .iter()
        .map(|q| spann.search_filtered(q, K, &sparams, &filter).unwrap())
        .collect();
    assert_eq!(baseline, got);
}

/// Concurrent searchers over one shared cache: every thread gets exactly
/// the serial results while the cache serves hits and misses from all of
/// them at once — and, when reads are slow enough to open the prefetch
/// gate, prefetches and in-flight waits too.
#[test]
fn concurrent_searchers_share_the_cache() {
    let dir = TempDir::new("pipeline-stress").unwrap();
    let (data, queries) = workload(32);
    let dparams = SearchParams::default().with_beam_width(24);
    let vam = VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
    // Tiny budget so eviction, admission, and prefetch churn constantly.
    let mut cfg = diskann_cfg(true);
    cfg.cache_pages = 4;
    let idx = Arc::new(DiskAnnIndex::build(dir.file("c.idx"), &vam, &cfg).unwrap());
    idx.set_prefetch(true);
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

/// Prefetch is gated on the cache's measured read cost: reads at OS
/// page-cache speed keep the prefetch pool idle, while a slow device
/// (`VDB_SIM_READ_LAT_US`, which ci.sh sets for one pass of this suite)
/// engages it. The tests above hold results identical in either state.
///
/// A search decides once, at its start, whether to prefetch. This test
/// searches each cache from one thread, and no prefetch worker reads a
/// cache before some search opened its gate, so checking `prefetch_pays()`
/// right before each search observes exactly what the search decided.
/// At page-cache speed a few reads that lose their core to the scheduler
/// can open the gate for a search or two, and only then may pages be
/// prefetched.
#[test]
fn prefetch_runs_only_when_reads_are_slow() {
    let slow = std::env::var("VDB_SIM_READ_LAT_US")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .is_some_and(|us| us > 0);
    let dir = TempDir::new("pipeline-gate").unwrap();
    let (data, queries) = workload(32);
    let dparams = SearchParams::default().with_beam_width(24);
    let sparams = SearchParams::default().with_nprobe(4);
    let vam = VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
    // Budgets below the working set, so every pass keeps missing.
    let mut cfg = diskann_cfg(true);
    cfg.cache_pages = 4;
    let diskann = DiskAnnIndex::build(dir.file("g.idx"), &vam, &cfg).unwrap();
    let mut scfg = spann_cfg();
    scfg.cache_pages = 2;
    let spann = SpannIndex::build(dir.file("g-s.idx"), &data, Metric::Euclidean, &scfg).unwrap();
    let mut ctx = SearchContext::new();
    for (idx, cache, params) in [
        (&diskann as &dyn VectorIndex, diskann.cache(), &dparams),
        (&spann, spann.cache(), &sparams),
    ] {
        // What each search's gate check will find.
        let mut gate = Vec::new();
        for _ in 0..9 {
            for q in queries.iter() {
                gate.push(cache.prefetch_pays());
                idx.search_with(&mut ctx, q, K, params).unwrap();
            }
        }
        // The first pass settles the estimate: SPANN pins nothing, so it
        // times its first read there.
        let settled = &gate[queries.len()..];
        let open = settled.iter().filter(|&&pays| pays).count();
        let (cost, stats) = (cache.read_cost_ns(), cache.stats());
        let name = idx.name();
        assert!(cost > 0, "{name}: no read was timed");
        assert!(stats.misses > 0, "{name}: budget holds everything");
        if slow {
            assert_eq!(open, settled.len(), "{name}: {cost} ns reads");
            assert!(stats.prefetched > 0, "{name}: {cost} ns reads");
        } else {
            assert!(
                2 * open <= settled.len(),
                "{name}: open for {open} searches"
            );
            if !gate.contains(&true) {
                assert_eq!(stats.prefetched, 0, "{name}: {cost} ns reads");
            }
        }
    }
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
