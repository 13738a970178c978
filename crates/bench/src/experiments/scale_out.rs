//! F5 (distributed scaling), F6 (out-of-place updates), F7 (disk-resident
//! indexes) — the systems-side experiments of §2.2 and §2.3.

use crate::workload::{standard, GT_K};
use crate::{fmt, print_table, time_queries, Scale};
use std::time::Instant;
use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec};
use vdb_core::index::{SearchParams, VectorIndex};
use vdb_core::metric::Metric;
use vdb_core::vector::Vectors;
use vdb_core::Result;
use vdb_distributed::{DistributedConfig, DistributedIndex};
use vdb_index_graph::{
    DiskAnnConfig, DiskAnnIndex, HnswConfig, HnswIndex, VamanaConfig, VamanaIndex,
};
use vdb_index_table::{SpannConfig, SpannIndex};
use vdb_query::PlannerMode;
use vdb_storage::TempDir;

fn hnsw_builder(v: Vectors, m: Metric) -> Result<Box<dyn VectorIndex>> {
    Ok(Box::new(HnswIndex::build(v, m, HnswConfig::default())?))
}

/// F5: shards × partitioning policy.
pub fn f5_distributed(scale: Scale) -> Result<()> {
    let w = standard(scale, 0xF5);
    let params = SearchParams::default().with_beam_width(64);
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        // Uniform partitioning, full fan-out.
        let d = DistributedIndex::build(
            &w.data,
            Metric::Euclidean,
            DistributedConfig::uniform(shards),
            &hnsw_builder,
        )?;
        let (us, qps, results) =
            time_queries(&w.queries, |q| d.search(q, GT_K, &params).expect("search"));
        rows.push(vec![
            shards.to_string(),
            "uniform/all".into(),
            fmt(w.gt.recall_batch(&results), 3),
            fmt(qps, 0),
            fmt(us, 0),
            (d.probes_issued() / w.queries.len() as u64).to_string(),
        ]);
        // Index-guided partitioning, routed to 2 shards.
        if shards >= 2 {
            let d = DistributedIndex::build(
                &w.data,
                Metric::Euclidean,
                DistributedConfig::index_guided(shards, 2),
                &hnsw_builder,
            )?;
            let (us, qps, results) =
                time_queries(&w.queries, |q| d.search(q, GT_K, &params).expect("search"));
            rows.push(vec![
                shards.to_string(),
                "guided/2".into(),
                fmt(w.gt.recall_batch(&results), 3),
                fmt(qps, 0),
                fmt(us, 0),
                (d.probes_issued() / w.queries.len() as u64).to_string(),
            ]);
        }
    }
    print_table(
        &format!(
            "F5: distributed scatter-gather (HNSW shards, n={})",
            scale.n()
        ),
        &[
            "shards",
            "policy/probed",
            "recall@10",
            "qps",
            "latency_us",
            "probes/query",
        ],
        &rows,
    );
    println!(
        "  Expected shape: uniform fan-out keeps recall at the single-node level\n  \
         while per-shard work shrinks; index-guided routing answers from 2\n  \
         probes with modest recall loss on clustered data."
    );
    Ok(())
}

/// F6: streaming ingest — buffered out-of-place updates vs rebuild-per-batch.
pub fn f6_out_of_place_updates(scale: Scale) -> Result<()> {
    let w = standard(scale, 0xF6);
    let n = w.data.len();
    let batch = n / 10;
    let params = SearchParams::default().with_beam_width(64);

    // Strategy A: out-of-place (update buffer, merge every `merge_threshold`).
    let mut rows = Vec::new();
    let c = Collection::create(
        CollectionSchema::new("f6", w.data.dim(), Metric::Euclidean),
        CollectionConfig {
            index: IndexSpec::parse("hnsw")?,
            merge_threshold: batch * 2,
            planner: PlannerMode::CostBased,
            wal_dir: None,
            ..Default::default()
        },
    )?;
    let mut lsm_ingest = 0.0f64;
    for wave in 0..10 {
        let start = Instant::now();
        for i in wave * batch..(wave + 1) * batch {
            c.insert(i as u64, w.data.get(i), &[])?;
        }
        lsm_ingest += start.elapsed().as_secs_f64();
        let (us, _, _) = time_queries(&w.queries, |q| {
            c.search(q, GT_K, &params)
                .expect("search")
                .into_iter()
                .map(|h| vdb_core::Neighbor::new(h.key as usize, h.dist))
                .collect()
        });
        rows.push(vec![
            ((wave + 1) * batch).to_string(),
            "lsm_buffer".into(),
            fmt(lsm_ingest, 2),
            fmt(us, 0),
            c.stats().merges.to_string(),
        ]);
    }
    // Final recall with everything merged.
    c.merge()?;
    let (_, _, results) = time_queries(&w.queries, |q| {
        c.search(q, GT_K, &params)
            .expect("search")
            .into_iter()
            .map(|h| vdb_core::Neighbor::new(h.key as usize, h.dist))
            .collect()
    });
    let lsm_recall = w.gt.recall_batch(&results);

    // Strategy B: naive — rebuild the whole index after every batch.
    let mut naive_ingest = 0.0f64;
    for wave in 0..10 {
        let start = Instant::now();
        let upto = (wave + 1) * batch;
        let slice = w.data.select(&(0..upto).collect::<Vec<_>>());
        let idx = HnswIndex::build(slice, Metric::Euclidean, HnswConfig::default())?;
        naive_ingest += start.elapsed().as_secs_f64();
        let (us, _, _) = time_queries(&w.queries, |q| {
            idx.search(q, GT_K, &params).expect("search")
        });
        rows.push(vec![
            upto.to_string(),
            "rebuild_each".into(),
            fmt(naive_ingest, 2),
            fmt(us, 0),
            (wave + 1).to_string(),
        ]);
    }
    print_table(
        &format!("F6: out-of-place updates vs rebuild-per-batch ({n} inserts in 10 waves)"),
        &[
            "inserted",
            "strategy",
            "cum_ingest_s",
            "search_us",
            "rebuilds",
        ],
        &rows,
    );
    println!(
        "  Final recall after full merge (lsm_buffer): {:.3}\n  \
         Expected shape: LSM ingest cost stays far below rebuild-per-batch\n  \
         while search latency stays flat and recall is preserved.",
        lsm_recall
    );
    Ok(())
}

/// F7: page reads per query vs cache budget for both disk indexes.
pub fn f7_disk_resident(scale: Scale) -> Result<()> {
    let w = standard(scale, 0xF7);
    let dir = TempDir::new("bench-f7")?;
    let params = SearchParams::default().with_beam_width(48).with_nprobe(4);
    let mut rows = Vec::new();

    // DiskANN.
    let vam = VamanaIndex::build(w.data.clone(), Metric::Euclidean, VamanaConfig::default())?;
    let diskann_path = dir.file("f7-diskann.idx");
    DiskAnnIndex::build(
        &diskann_path,
        &vam,
        &DiskAnnConfig {
            pq_m: 16,
            nav_nlist: 64,
            cache_pages: 0,
            ..DiskAnnConfig::default()
        },
    )?;
    // SPANN.
    let spann_path = dir.file("f7-spann.idx");
    SpannIndex::build(
        &spann_path,
        &w.data,
        Metric::Euclidean,
        &SpannConfig::new(64),
    )?;

    let data_pages = (w.data.len() * (w.data.dim() * 4 + 100)).div_ceil(4096); // rough
    for pct in [1usize, 5, 25, 100] {
        let budget = (data_pages * pct / 100).max(1);
        // DiskANN at this budget.
        let idx = DiskAnnIndex::open(&diskann_path, Metric::Euclidean, budget)?;
        // Warm pass then measured pass (steady-state behaviour).
        for q in w.queries.iter() {
            idx.search(q, GT_K, &params)?;
        }
        idx.cache().reset_stats();
        let (us, _, results) = time_queries(&w.queries, |q| {
            idx.search(q, GT_K, &params).expect("search")
        });
        let io = idx.cache().stats();
        rows.push(vec![
            "diskann".into(),
            format!("{pct}%"),
            fmt(io.misses as f64 / w.queries.len() as f64, 1),
            fmt(io.hit_ratio(), 3),
            fmt(w.gt.recall_batch(&results), 3),
            fmt(us, 0),
        ]);
        // SPANN at this budget.
        let idx = SpannIndex::open(&spann_path, Metric::Euclidean, budget)?;
        for q in w.queries.iter() {
            idx.search(q, GT_K, &params)?;
        }
        idx.cache().reset_stats();
        let (us, _, results) = time_queries(&w.queries, |q| {
            idx.search(q, GT_K, &params).expect("search")
        });
        let io = idx.cache().stats();
        rows.push(vec![
            "spann".into(),
            format!("{pct}%"),
            fmt(io.misses as f64 / w.queries.len() as f64, 1),
            fmt(io.hit_ratio(), 3),
            fmt(w.gt.recall_batch(&results), 3),
            fmt(us, 0),
        ]);
    }
    print_table(
        &format!(
            "F7: disk-resident indexes under cache budgets (n={})",
            scale.n()
        ),
        &[
            "index",
            "cache",
            "page_reads/query",
            "hit_ratio",
            "recall@10",
            "latency_us",
        ],
        &rows,
    );
    println!(
        "  Expected shape: both answer in few page reads even at 1% cache;\n  \
         DiskANN reads ~beam pages (graph hops), SPANN ~nprobe posting runs;\n  \
         misses fall monotonically as the budget grows."
    );

    // Ablation (DESIGN.md par.4.3): SPANN closure epsilon -- replication vs
    // the probes needed for a given recall.
    let mut ab = Vec::new();
    for eps in [0.0f32, 0.1, 0.3] {
        let name = format!("f7-spann-eps{}.idx", (eps * 10.0) as u32);
        let path = dir.file(&name);
        let mut cfg = SpannConfig::new(64);
        cfg.closure_epsilon = eps;
        cfg.cache_pages = 0;
        let idx = SpannIndex::build(&path, &w.data, Metric::Euclidean, &cfg)?;
        for nprobe in [1usize, 2, 4] {
            let p = SearchParams::default().with_nprobe(nprobe);
            idx.cache().reset_stats();
            let (_, _, results) =
                time_queries(&w.queries, |q| idx.search(q, GT_K, &p).expect("search"));
            let io = idx.cache().stats();
            ab.push(vec![
                format!("{eps:.1}"),
                fmt(idx.replication_factor(), 2),
                nprobe.to_string(),
                fmt(w.gt.recall_batch(&results), 3),
                fmt(io.misses as f64 / w.queries.len() as f64, 1),
            ]);
        }
    }
    print_table(
        "F7b (ablation): SPANN closure assignment epsilon",
        &[
            "epsilon",
            "replication",
            "nprobe",
            "recall@10",
            "page_reads/query",
        ],
        &ab,
    );
    println!(
        "  Expected shape: larger epsilon replicates boundary vectors, buying\n  \
         higher recall at low nprobe in exchange for more pages per posting."
    );
    Ok(())
}
