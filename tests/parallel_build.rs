//! Parallel-construction guarantees (DESIGN.md §7): the thread count
//! changes how long a build takes, never the index it builds.

use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec};
use vdb_core::recall::GroundTruth;
use vdb_core::{dataset, BuildOptions, Metric, Neighbor, Rng, SearchParams, VectorIndex, Vectors};
use vdb_distributed::{DistributedConfig, DistributedIndex};
use vdb_index_graph::graph::batch_schedule;

fn dataset_and_queries() -> (Vectors, Vectors, GroundTruth) {
    let mut rng = Rng::seed_from_u64(7100);
    let data = dataset::clustered(2000, 16, 12, 0.5, &mut rng).vectors;
    let queries = dataset::split_queries(&data, 25, 0.05, &mut rng);
    let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
    (data, queries, gt)
}

fn params() -> SearchParams {
    SearchParams::default()
        .with_beam_width(128)
        .with_nprobe(16)
        .with_max_leaf_points(800)
        .with_rerank(128)
}

fn results_of(index: &dyn VectorIndex, queries: &Vectors) -> Vec<Vec<Neighbor>> {
    queries
        .iter()
        .map(|q| index.search(q, 10, &params()).unwrap())
        .collect()
}

/// Bitwise comparison of two result sets (ids and distance bits).
fn assert_bit_identical(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: query count");
    for (qi, (ra, rb)) in a.iter().zip(b).enumerate() {
        let ka: Vec<(usize, u32)> = ra.iter().map(|n| (n.id, n.dist.to_bits())).collect();
        let kb: Vec<(usize, u32)> = rb.iter().map(|n| (n.id, n.dist.to_bits())).collect();
        assert_eq!(ka, kb, "{what}: query {qi} diverged");
    }
}

/// Thread count changes build time, never the index: every family (and
/// a distributed deployment of HNSW shards) built at 1, 2 and 4 threads
/// answers bit-identically to the serial `spec.build`.
#[test]
fn every_family_is_bit_identical_at_any_thread_count() {
    let (data, queries, _) = dataset_and_queries();
    // HNSW, Vamana and DiskANN search each batch of the schedule on
    // every worker; a fixture whose batches never reach 4 rows would
    // leave the 4-thread build partly serial and the comparison weaker.
    let widest = batch_schedule(data.len()).iter().map(|b| b.len()).max();
    assert!(widest >= Some(4), "widest batch {widest:?}");
    let names = IndexSpec::all_defaults()
        .iter()
        .map(IndexSpec::name)
        .chain(["diskann", "spann"])
        .collect::<Vec<_>>();
    for name in names {
        let spec = IndexSpec::parse(name).unwrap();
        let serial = results_of(
            &*spec.build(data.clone(), Metric::Euclidean).unwrap(),
            &queries,
        );
        for threads in [1, 2, 4] {
            let opts = BuildOptions::with_threads(threads);
            let built = spec
                .build_with(data.clone(), Metric::Euclidean, &opts)
                .unwrap();
            assert_bit_identical(
                &serial,
                &results_of(&*built, &queries),
                &format!("{name}@{threads}"),
            );
        }
    }
    let cfg = DistributedConfig::uniform(4);
    let serial = DistributedIndex::build(&data, Metric::Euclidean, cfg.clone(), &|v, m| {
        IndexSpec::parse("hnsw").unwrap().build(v, m)
    })
    .unwrap();
    let answers = |d: &DistributedIndex| -> Vec<Vec<Neighbor>> {
        queries
            .iter()
            .map(|q| d.search(q, 10, &params()).unwrap())
            .collect()
    };
    for threads in [1, 2, 4] {
        let opts = BuildOptions::with_threads(threads);
        let built = DistributedIndex::build_with(
            &data,
            Metric::Euclidean,
            cfg.clone(),
            &move |v, m| {
                IndexSpec::parse("hnsw").unwrap().build_with(
                    v,
                    m,
                    &BuildOptions::with_threads(threads),
                )
            },
            &opts,
        )
        .unwrap();
        assert_bit_identical(
            &answers(&serial),
            &answers(&built),
            &format!("distributed hnsw@{threads}"),
        );
    }
}

/// Forests pre-fork one RNG per tree in tree order, so they are
/// bit-identical to the serial build at ANY thread count.
#[test]
fn forest_parallel_builds_are_bit_identical() {
    let (data, queries, _) = dataset_and_queries();
    for name in ["rp_forest", "annoy", "flann"] {
        let spec = IndexSpec::parse(name).unwrap();
        let serial = spec.build(data.clone(), Metric::Euclidean).unwrap();
        for threads in [2, 4, 8] {
            let par = spec
                .build_with(
                    data.clone(),
                    Metric::Euclidean,
                    &BuildOptions::with_threads(threads),
                )
                .unwrap();
            assert_bit_identical(
                &results_of(&*serial, &queries),
                &results_of(&*par, &queries),
                &format!("{name}@{threads}"),
            );
        }
    }
}

/// Distributed per-shard builds fan out across threads; with a
/// deterministic per-shard builder the deployment is bit-identical to
/// the serial scatter order.
#[test]
fn distributed_parallel_shard_builds_match_serial() {
    let (data, queries, _) = dataset_and_queries();
    let builder = |v: Vectors, m: Metric| {
        Ok(Box::new(vdb_core::FlatIndex::build(v, m)?) as Box<dyn VectorIndex>)
    };
    let mut cfg = DistributedConfig::uniform(4);
    cfg.replicas = 2;
    let serial = DistributedIndex::build(&data, Metric::Euclidean, cfg.clone(), &builder).unwrap();
    let par = DistributedIndex::build_with(
        &data,
        Metric::Euclidean,
        cfg,
        &builder,
        &BuildOptions::with_threads(8),
    )
    .unwrap();
    assert_eq!(serial.shard_sizes(), par.shard_sizes());
    let p = SearchParams::default();
    for q in queries.iter() {
        let a = serial.search(q, 10, &p).unwrap();
        let b = par.search(q, 10, &p).unwrap();
        assert_bit_identical(&[a], &[b], "distributed");
    }
}

/// The facade opt-in: a collection configured with parallel build
/// options rebuilds its main index on merge and keeps serving correctly.
#[test]
fn collection_merge_with_parallel_build_options() {
    let (data, queries, gt) = dataset_and_queries();
    let c = Collection::create(
        CollectionSchema::new("par", 16, Metric::Euclidean),
        CollectionConfig {
            index: IndexSpec::parse("hnsw").unwrap(),
            merge_threshold: 100_000, // merge manually below
            build: BuildOptions::with_threads(4),
            ..Default::default()
        },
    )
    .unwrap();
    for (i, row) in data.iter().enumerate() {
        c.insert(i as u64, row, &[]).unwrap();
    }
    c.merge().unwrap();
    assert_eq!(c.stats().index_name, "hnsw");
    let results: Vec<Vec<Neighbor>> = queries
        .iter()
        .map(|q| {
            c.search(q, 10, &params())
                .unwrap()
                .into_iter()
                .map(|h| Neighbor::new(h.key as usize, h.dist))
                .collect()
        })
        .collect();
    let r = gt.recall_batch(&results);
    assert!(r > 0.85, "recall through facade {r}");
}
