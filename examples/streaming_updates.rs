//! Streaming writes against a graph-indexed collection (§2.3(3)
//! out-of-place updates), plus WAL-based crash recovery and incremental
//! (paged) search.
//!
//! Run with: `cargo run --release --example streaming_updates`

use std::time::Instant;
use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec};
use vdb_core::{dataset, Metric, Rng, SearchParams};
use vdb_index_graph::{HnswConfig, HnswIndex};
use vdb_query::IncrementalSearch;
use vdb_query::PlannerMode;
use vdb_storage::TempDir;

fn main() -> vdb_core::Result<()> {
    let mut rng = Rng::seed_from_u64(99);
    let dim = 32;
    let wal_dir = TempDir::new("streaming-example")?;

    let cfg = CollectionConfig {
        index: IndexSpec::parse("hnsw")?,
        merge_threshold: 2_000,
        planner: PlannerMode::CostBased,
        wal_dir: Some(wal_dir.path().to_path_buf()),
        ..Default::default()
    };
    let schema = CollectionSchema::new("stream", dim, Metric::Euclidean);
    let c = Collection::create(schema.clone(), cfg.clone())?;

    // Interleave inserts with searches; search latency stays flat because
    // writes land in the update buffer, not the graph.
    println!("streaming 10k inserts with interleaved searches:");
    println!(
        "{:>8} {:>10} {:>12} {:>8}",
        "inserted", "buffered", "search_us", "merges"
    );
    let params = SearchParams::default().with_beam_width(64);
    let mut probe = vec![0.0f32; dim];
    for wave in 0..5 {
        for _ in 0..2_000u32 {
            let key = rng.next_u64() % 1_000_000;
            let v: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
            c.insert(key, &v, &[])?;
        }
        for (i, x) in probe.iter_mut().enumerate() {
            *x = (wave * dim + i) as f32 % 3.0 - 1.0;
        }
        let start = Instant::now();
        for _ in 0..50 {
            c.search(&probe, 10, &params)?;
        }
        let us = start.elapsed().as_micros() as f64 / 50.0;
        let s = c.stats();
        println!(
            "{:>8} {:>10} {:>12.0} {:>8}",
            (wave + 1) * 2_000,
            s.buffered,
            us,
            s.merges
        );
    }

    // Deletes and overwrites are visible immediately.
    let live_before = c.len();
    c.insert(424242, &vec![5.0; dim], &[])?;
    c.delete(424242)?;
    assert_eq!(c.len(), live_before);
    println!(
        "\ndelete visible immediately (live count unchanged: {})",
        c.len()
    );

    // Crash recovery: reopen from the WAL alone.
    let t = Instant::now();
    drop(c);
    let recovered = Collection::recover(schema, cfg)?;
    println!(
        "recovered {} live vectors from the WAL in {:.1} ms",
        recovered.len(),
        t.elapsed().as_secs_f64() * 1000.0
    );

    // Incremental search: page through neighbors without a known k,
    // directly against a graph index (§2.6(5)).
    let mut rng2 = Rng::seed_from_u64(5);
    let data = dataset::clustered(5_000, dim, 8, 0.5, &mut rng2).vectors;
    let idx = HnswIndex::build(data.clone(), Metric::Euclidean, HnswConfig::default())?;
    let mut pages = IncrementalSearch::new(&idx, data.get(123).to_vec(), params);
    println!("\nincremental search pages (10 hits each):");
    for page_no in 0..3 {
        let page = pages.next_page(10)?;
        let first = page.first().map(|n| n.dist).unwrap_or(f32::NAN);
        let last = page.last().map(|n| n.dist).unwrap_or(f32::NAN);
        println!(
            "  page {page_no}: {} hits, distances {first:.3} .. {last:.3}",
            page.len()
        );
    }
    Ok(())
}
