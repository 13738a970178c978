//! Persistence integration: disk-resident indexes survive reopen, WAL
//! recovery reproduces live state, and torn logs degrade gracefully.

use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec};
use vdb_core::{dataset, Metric, Rng, SearchParams, VectorIndex};
use vdb_index_graph::{DiskAnnConfig, DiskAnnIndex, VamanaConfig, VamanaIndex};
use vdb_index_table::{SpannConfig, SpannIndex};
use vdb_query::PlannerMode;
use vdb_storage::TempDir;

#[test]
fn diskann_reopen_equals_built_and_counts_io() {
    let mut rng = Rng::seed_from_u64(3000);
    let data = dataset::clustered(1200, 16, 8, 0.5, &mut rng).vectors;
    let queries = dataset::split_queries(&data, 10, 0.05, &mut rng);
    let vam = VamanaIndex::build(data, Metric::Euclidean, VamanaConfig::default()).unwrap();
    let dir = TempDir::new("it-diskann").unwrap();
    let path = dir.file("g.idx");
    let params = SearchParams::default().with_beam_width(48);

    let built = DiskAnnIndex::build(&path, &vam, &DiskAnnConfig::default()).unwrap();
    let before: Vec<_> = queries
        .iter()
        .map(|q| built.search(q, 10, &params).unwrap())
        .collect();
    drop(built);

    let reopened = DiskAnnIndex::open(&path, Metric::Euclidean, 0).unwrap();
    reopened.cache().reset_stats();
    let after: Vec<_> = queries
        .iter()
        .map(|q| reopened.search(q, 10, &params).unwrap())
        .collect();
    assert_eq!(before, after, "reopen must not change results");
    let io = reopened.cache().stats();
    assert!(io.misses > 0, "uncached search must read pages");
    let per_query = io.misses as f64 / queries.len() as f64;
    assert!(
        per_query <= 150.0,
        "I/O per query bounded by the beam: {per_query}"
    );
}

#[test]
fn spann_reopen_under_different_cache_budgets() {
    let mut rng = Rng::seed_from_u64(3001);
    let data = dataset::clustered(1500, 16, 12, 0.5, &mut rng).vectors;
    let queries = dataset::split_queries(&data, 10, 0.05, &mut rng);
    let dir = TempDir::new("it-spann").unwrap();
    let path = dir.file("s.idx");
    let built = SpannIndex::build(&path, &data, Metric::Euclidean, &SpannConfig::new(12)).unwrap();
    let params = SearchParams::default().with_nprobe(4);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| built.search(q, 10, &params).unwrap())
        .collect();
    drop(built);
    for budget in [0usize, 8, 1024] {
        let idx = SpannIndex::open(&path, Metric::Euclidean, budget).unwrap();
        let got: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        assert_eq!(expected, got, "cache budget {budget} changed results");
    }
}

#[test]
fn wal_recovery_equals_live_collection() {
    let dir = TempDir::new("it-wal").unwrap();
    let schema = CollectionSchema::new("r", 8, Metric::Euclidean);
    let cfg = CollectionConfig {
        index: IndexSpec::parse("hnsw").unwrap(),
        merge_threshold: 64,
        planner: PlannerMode::CostBased,
        wal_dir: Some(dir.path().to_path_buf()),
        ..Default::default()
    };
    let mut rng = Rng::seed_from_u64(3002);
    let data = dataset::gaussian(300, 8, &mut rng);
    let params = SearchParams::default().with_beam_width(64);

    let live_hits;
    let live_len;
    {
        let c = Collection::create(schema.clone(), cfg.clone()).unwrap();
        for (i, row) in data.iter().enumerate() {
            c.insert(i as u64, row, &[]).unwrap();
        }
        for key in (0..300u64).step_by(7) {
            c.delete(key).unwrap();
        }
        c.insert(5, data.get(200), &[]).unwrap(); // resurrect + move key 5
        live_len = c.len();
        live_hits = c.search(data.get(100), 10, &params).unwrap();
    } // drop simulates the crash (WAL already synced per operation)

    let recovered = Collection::recover(schema, cfg).unwrap();
    assert_eq!(recovered.len(), live_len);
    let hits = recovered.search(data.get(100), 10, &params).unwrap();
    assert_eq!(
        live_hits.iter().map(|h| h.key).collect::<Vec<_>>(),
        hits.iter().map(|h| h.key).collect::<Vec<_>>()
    );
    assert_eq!(recovered.get(5).unwrap(), data.get(200));
}

#[test]
fn torn_wal_tail_loses_only_the_torn_record() {
    let dir = TempDir::new("it-torn").unwrap();
    let schema = CollectionSchema::new("t", 4, Metric::Euclidean);
    let cfg = CollectionConfig {
        index: IndexSpec::Flat,
        merge_threshold: 1024,
        planner: PlannerMode::CostBased,
        wal_dir: Some(dir.path().to_path_buf()),
        ..Default::default()
    };
    {
        let c = Collection::create(schema.clone(), cfg.clone()).unwrap();
        for i in 0..10u64 {
            c.insert(i, &[i as f32, 0.0, 0.0, 0.0], &[]).unwrap();
        }
    }
    // Tear the last few bytes off the log.
    let wal_path = dir.path().join("t.wal");
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();
    let recovered = Collection::recover(schema, cfg).unwrap();
    assert_eq!(recovered.len(), 9, "only the torn final insert is lost");
    assert!(recovered.get(8).is_some());
    assert!(recovered.get(9).is_none());
}
