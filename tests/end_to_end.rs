//! End-to-end integration: every index in the registry serving the same
//! collection, searched through the full facade.

use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec};
use vdb_core::recall::GroundTruth;
use vdb_core::{dataset, AttrType, Metric, Rng, SearchParams};
use vdb_query::PlannerMode;

fn dataset_and_queries() -> (vdb_core::Vectors, vdb_core::Vectors, GroundTruth) {
    let mut rng = Rng::seed_from_u64(1000);
    let data = dataset::clustered(2000, 16, 12, 0.5, &mut rng).vectors;
    let queries = dataset::split_queries(&data, 20, 0.05, &mut rng);
    let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
    (data, queries, gt)
}

/// Generous per-index search parameters for the recall check.
fn params() -> SearchParams {
    SearchParams::default()
        .with_beam_width(128)
        .with_nprobe(16)
        .with_max_leaf_points(800)
        .with_rerank(128)
}

#[test]
fn every_registry_index_reaches_reasonable_recall_through_the_facade() {
    let (data, queries, gt) = dataset_and_queries();
    for spec in IndexSpec::all_defaults() {
        let name = spec.name();
        let c = Collection::create(
            CollectionSchema::new("zoo", 16, Metric::Euclidean),
            CollectionConfig {
                index: spec,
                merge_threshold: 100_000, // merge manually below
                planner: PlannerMode::CostBased,
                wal_dir: None,
                ..Default::default()
            },
        )
        .unwrap();
        for (i, row) in data.iter().enumerate() {
            c.insert(i as u64, row, &[]).unwrap();
        }
        c.merge().unwrap();
        assert_eq!(c.stats().index_name, name);
        let results: Vec<Vec<vdb_core::Neighbor>> = queries
            .iter()
            .map(|q| {
                c.search(q, 10, &params())
                    .unwrap()
                    .into_iter()
                    .map(|h| vdb_core::Neighbor::new(h.key as usize, h.dist))
                    .collect()
            })
            .collect();
        let recall = gt.recall_batch(&results);
        // LSH and raw KNNGs are the weakest structures here; everything
        // must still clear a meaningful floor at these settings.
        let floor = match name {
            "lsh" | "knng" => 0.5,
            _ => 0.8,
        };
        assert!(recall >= floor, "{name}: recall {recall} < {floor}");
    }
}

#[test]
fn collection_lifecycle_with_attributes_and_updates() {
    let (data, queries, _) = dataset_and_queries();
    let c = Collection::create(
        CollectionSchema::new("life", 16, Metric::Euclidean).column("bucket", AttrType::Int),
        CollectionConfig {
            index: IndexSpec::parse("hnsw").unwrap(),
            merge_threshold: 500,
            planner: PlannerMode::CostBased,
            wal_dir: None,
            ..Default::default()
        },
    )
    .unwrap();
    for (i, row) in data.iter().enumerate() {
        c.insert(i as u64, row, &[("bucket", ((i % 10) as i64).into())])
            .unwrap();
    }
    assert_eq!(c.len(), 2000);

    // Hybrid query.
    let pred = vdb_query::Predicate::eq("bucket", 3i64);
    let hits = c
        .search_hybrid(queries.get(0), 5, &pred, &params(), None)
        .unwrap();
    assert!(!hits.is_empty());
    assert!(hits.iter().all(|h| h.key % 10 == 3));

    // Delete a whole bucket; it must vanish from results.
    for key in (0..2000u64).filter(|k| k % 10 == 3) {
        c.delete(key).unwrap();
    }
    assert_eq!(c.len(), 1800);
    let hits = c
        .search_hybrid(queries.get(0), 5, &pred, &params(), None)
        .unwrap();
    assert!(hits.is_empty(), "deleted bucket still visible: {hits:?}");

    // Merge compacts and the collection still answers.
    c.merge().unwrap();
    assert_eq!(c.len(), 1800);
    let hits = c.search(queries.get(1), 10, &params()).unwrap();
    assert_eq!(hits.len(), 10);
    assert!(hits.iter().all(|h| h.key % 10 != 3));
}

#[test]
fn metrics_other_than_l2_flow_through() {
    let mut rng = Rng::seed_from_u64(1001);
    let mut data = dataset::gaussian(500, 16, &mut rng);
    data.normalize();
    for metric in [Metric::Cosine, Metric::InnerProduct, Metric::Manhattan] {
        let c = Collection::create(
            CollectionSchema::new("m", 16, metric.clone()),
            CollectionConfig {
                index: IndexSpec::Flat,
                merge_threshold: 200,
                planner: PlannerMode::RuleBased,
                wal_dir: None,
                ..Default::default()
            },
        )
        .unwrap();
        for (i, row) in data.iter().enumerate() {
            c.insert(i as u64, row, &[]).unwrap();
        }
        let hits = c.search(data.get(42), 1, &SearchParams::default()).unwrap();
        assert_eq!(
            hits[0].key,
            42,
            "{} must retrieve the query point",
            metric.name()
        );
    }
}
