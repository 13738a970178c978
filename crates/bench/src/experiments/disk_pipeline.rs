//! D1 — disk-resident serving under a tight memory budget.
//!
//! Serves DiskANN and SPANN at ~10% of the data size in cache and grids
//! the layout lever: identity vs BFS-packed record placement for DiskANN,
//! beside SPANN's posting-list runs. Every read is a synchronous demand
//! read, so `reads/q` (cache misses per query) is the whole I/O bill and
//! `us/query` is what the host's page reads plus scoring cost.

use crate::workload::{standard, GT_K};
use crate::{fmt, print_table, time_queries, Scale};
use vdb_core::index::{SearchParams, VectorIndex};
use vdb_core::metric::Metric;
use vdb_core::topk::Neighbor;
use vdb_core::Result;
use vdb_index_graph::{DiskAnnConfig, DiskAnnIndex, VamanaConfig, VamanaIndex};
use vdb_index_table::{SpannConfig, SpannIndex};
use vdb_storage::{CacheStats, PageCache, TempDir};

/// D1: page layout at a ~10% memory budget.
pub fn d1_disk_pipeline(scale: Scale) -> Result<()> {
    let w = standard(scale, 0xD1);
    let dir = TempDir::new("bench-d1")?;
    let params = SearchParams::default().with_beam_width(48).with_nprobe(4);

    // Build both DiskANN layouts from one Vamana graph, plus SPANN.
    let vam = VamanaIndex::build(w.data.clone(), Metric::Euclidean, VamanaConfig::default())?;
    let mut cfg = DiskAnnConfig {
        pq_m: 16,
        nav_nlist: 64,
        cache_pages: 0,
        ..DiskAnnConfig::default()
    };
    cfg.packed_layout = false;
    let identity_path = dir.file("d1-identity.idx");
    DiskAnnIndex::build(&identity_path, &vam, &cfg)?;
    cfg.packed_layout = true;
    let packed_path = dir.file("d1-packed.idx");
    DiskAnnIndex::build(&packed_path, &vam, &cfg)?;
    let spann_path = dir.file("d1-spann.idx");
    SpannIndex::build(
        &spann_path,
        &w.data,
        Metric::Euclidean,
        &SpannConfig::new(64),
    )?;

    // ~10% of the raw data size in cache pages.
    let data_pages = (w.data.len() * (w.data.dim() * 4 + 100)).div_ceil(4096);
    let budget = (data_pages / 10).max(1);
    let nq = w.queries.len() as f64;

    // One warm pass, then a measured pass over the same queries.
    let measure = |idx: &dyn VectorIndex, cache: &PageCache| {
        for q in w.queries.iter() {
            idx.search(q, GT_K, &params).expect("search");
        }
        cache.reset_stats();
        let (us, _, results) = time_queries(&w.queries, |q| {
            idx.search(q, GT_K, &params).expect("search")
        });
        (us, cache.stats(), results)
    };
    let row = |index: &str, layout: &str, us: f64, io: CacheStats, results: &[Vec<Neighbor>]| {
        vec![
            index.into(),
            layout.into(),
            fmt(io.misses as f64 / nq, 1),
            fmt(io.hit_ratio(), 3),
            io.pinned_pages.to_string(),
            fmt(w.gt.recall_batch(results), 3),
            fmt(us, 0),
        ]
    };

    let mut rows = Vec::new();
    let mut baseline = None;
    for (layout, path) in [("identity", &identity_path), ("packed", &packed_path)] {
        let idx = DiskAnnIndex::open(path, Metric::Euclidean, budget)?;
        let (us, io, results) = measure(&idx, idx.cache());
        // Layout only permutes record placement: both return exactly the
        // same neighbors.
        match &baseline {
            None => baseline = Some(results.clone()),
            Some(base) => assert_eq!(base, &results, "layout changed results"),
        }
        rows.push(row("diskann", layout, us, io, &results));
    }
    let idx = SpannIndex::open(&spann_path, Metric::Euclidean, budget)?;
    let (us, io, results) = measure(&idx, idx.cache());
    rows.push(row("spann", "postings", us, io, &results));

    print_table(
        &format!(
            "D1: disk layout at ~10% memory budget ({budget} cache pages, n={})",
            scale.n()
        ),
        &[
            "index",
            "layout",
            "reads/q",
            "hit_ratio",
            "pinned",
            "recall",
            "us/query",
        ],
        &rows,
    );
    println!(
        "  reads/q counts cache misses: every one is a synchronous page read.\n  \
         Expected shape: packed layout cuts reads/q against identity at\n  \
         identical recall (the grid asserts bit-identical neighbor lists)."
    );
    Ok(())
}
