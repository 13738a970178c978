//! F4 (batched queries), T4 (multi-vector queries), T5 (kernel
//! acceleration) — the §2.3 execution experiments.

use crate::workload::{standard, GT_K};
use crate::{fmt, print_table, Scale};
use std::hint::black_box;
use std::time::Instant;
use vdb_core::context::SearchContext;
use vdb_core::index::SearchParams;
use vdb_core::index::VectorIndex;
use vdb_core::kernel;
use vdb_core::metric::Metric;
use vdb_core::rng::Rng;
use vdb_core::score::Aggregator;
use vdb_core::vector::Vectors;
use vdb_core::Result;
use vdb_index_graph::{HnswConfig, HnswIndex};
use vdb_quant::{PqConfig, ProductQuantizer};
use vdb_query::{
    execute_batch, multi_vector_exact, multi_vector_search, BatchOptions, EntityMap,
    MultiVectorQuery, Planner, PlannerMode, Predicate, QueryContext, VectorQuery,
};

/// F4: throughput vs batch size, sequential vs threaded.
pub fn f4_batched_queries(scale: Scale) -> Result<()> {
    let w = standard(scale, 0xF4);
    let index = HnswIndex::build(w.data.clone(), Metric::Euclidean, HnswConfig::default())?;
    let ctx = QueryContext::new(&w.data, &w.attrs, &index)?;
    let planner = Planner::new(PlannerMode::CostBased);
    let params = SearchParams::default().with_beam_width(64);
    let pred = Predicate::lt("price", 500);
    let mut rows = Vec::new();
    for batch_size in [1usize, 8, 64, 256] {
        for threads in [1usize, 4] {
            // Build the batch by cycling the query set.
            let queries: Vec<VectorQuery> = (0..batch_size)
                .map(|i| {
                    VectorQuery::knn(w.queries.get(i % w.queries.len()).to_vec(), GT_K)
                        .filtered(pred.clone())
                        .with_params(params.clone())
                })
                .collect();
            // Repeat to keep wall time measurable for small batches.
            let reps = (512 / batch_size).max(1);
            let start = Instant::now();
            for _ in 0..reps {
                let out = execute_batch(&ctx, &queries, &planner, &BatchOptions { threads })?;
                black_box(out);
            }
            let total = start.elapsed().as_secs_f64();
            let qps = (reps * batch_size) as f64 / total;
            rows.push(vec![
                batch_size.to_string(),
                threads.to_string(),
                fmt(qps, 0),
                fmt(total * 1e6 / (reps * batch_size) as f64, 1),
            ]);
        }
    }
    print_table(
        "F4: batched query throughput (hybrid queries, shared bitmask per batch)",
        &["batch", "threads", "qps", "us_per_query"],
        &rows,
    );
    println!(
        "  Expected shape: throughput grows with batch size (shared predicate\n  \
         work) and with threads (parallel similarity projection)."
    );

    // F4b: the same index-level searches with and without scratch reuse.
    // "cold" pays VisitedSet zeroing + pool/frontier allocation per query;
    // "warm" runs every query through one reused SearchContext, the way
    // batch workers and shard scatter loops do.
    let reps = 2048usize.div_ceil(w.queries.len());
    let cold_qps = {
        let start = Instant::now();
        for _ in 0..reps {
            for q in w.queries.iter() {
                let mut ctx = SearchContext::new();
                black_box(index.search_with(&mut ctx, q, GT_K, &params)?);
            }
        }
        (reps * w.queries.len()) as f64 / start.elapsed().as_secs_f64()
    };
    let warm_qps = {
        let mut ctx = SearchContext::for_index(w.data.len());
        black_box(index.search_with(&mut ctx, w.queries.get(0), GT_K, &params)?); // warm-up
        let refs: Vec<&[f32]> = w.queries.iter().collect();
        let start = Instant::now();
        for _ in 0..reps {
            black_box(index.search_batch(&mut ctx, &refs, GT_K, &params)?);
        }
        (reps * refs.len()) as f64 / start.elapsed().as_secs_f64()
    };
    print_table(
        "F4b: context reuse (hnsw, unfiltered search_batch vs fresh context per query)",
        &["mode", "qps", "us_per_query"],
        &[
            vec![
                "cold (new context/query)".into(),
                fmt(cold_qps, 0),
                fmt(1e6 / cold_qps, 1),
            ],
            vec![
                "warm (reused context)".into(),
                fmt(warm_qps, 0),
                fmt(1e6 / warm_qps, 1),
            ],
            vec!["speedup".into(), fmt(warm_qps / cold_qps, 2), String::new()],
        ],
    );
    println!(
        "  Expected shape: warm >= cold — after warm-up the reused context\n  \
         performs no per-query visited-set or pool allocations."
    );
    Ok(())
}

/// T4: multi-vector entity queries under each aggregate score.
pub fn t4_multivector(scale: Scale) -> Result<()> {
    // Entities of 4 vectors each around shared centers.
    let mut rng = Rng::seed_from_u64(0x74);
    let n_entities = scale.n() / 8;
    let dim = scale.dim();
    let centers = vdb_core::dataset::gaussian(n_entities, dim, &mut rng);
    let mut data = Vectors::with_capacity(dim, n_entities * 4);
    let mut entity_of = Vec::new();
    let mut row = vec![0.0f32; dim];
    for e in 0..n_entities {
        for _ in 0..4 {
            for (i, x) in row.iter_mut().enumerate() {
                *x = centers.get(e)[i] + rng.normal_f32() * 0.1;
            }
            data.push(&row).expect("valid row");
            entity_of.push(e);
        }
    }
    let map = EntityMap::new(entity_of)?;
    let index = HnswIndex::build(data.clone(), Metric::Euclidean, HnswConfig::default())?;
    let params = SearchParams::default().with_beam_width(64);
    let metric = Metric::Euclidean;

    let aggregators = [
        Aggregator::Mean,
        Aggregator::Min,
        Aggregator::Max,
        Aggregator::WeightedSum(vec![0.7, 0.3]),
    ];
    let mut rows = Vec::new();
    for aggregator in aggregators {
        let n_queries = 40usize;
        let mut agree = 0usize;
        let start = Instant::now();
        for qi in 0..n_queries {
            let query = MultiVectorQuery {
                vectors: (0..2)
                    .map(|j| {
                        let mut v = centers.get((qi * 7 + j) % n_entities).to_vec();
                        for x in &mut v {
                            *x += rng.normal_f32() * 0.05;
                        }
                        v
                    })
                    .collect(),
                k: 5,
                aggregator: aggregator.clone(),
                fetch: 64,
            };
            let approx = multi_vector_search(&index, &data, &map, &query, &params)?;
            let exact = multi_vector_exact(&metric, &data, &map, &query)?;
            let aset: std::collections::HashSet<usize> = approx.iter().map(|h| h.entity).collect();
            agree += exact.iter().filter(|h| aset.contains(&h.entity)).count();
        }
        let us = start.elapsed().as_micros() as f64 / n_queries as f64;
        rows.push(vec![
            aggregator.name().to_string(),
            fmt(agree as f64 / (n_queries * 5) as f64, 3),
            fmt(us, 0),
        ]);
    }
    print_table(
        &format!("T4: multi-vector queries ({n_entities} entities x 4 vectors, 2 query vectors)"),
        &["aggregator", "recall@5 vs exact", "latency_us"],
        &rows,
    );
    println!(
        "  Expected shape: ANN candidate generation + exact aggregation tracks\n  \
         the exact oracle closely for every aggregate score (§2.1)."
    );
    Ok(())
}

fn throughput<F: FnMut() -> f32>(bytes_per_iter: usize, iters: usize, mut f: F) -> (f64, f64) {
    let start = Instant::now();
    let mut acc = 0.0f32;
    for _ in 0..iters {
        acc += f();
    }
    black_box(acc);
    let s = start.elapsed().as_secs_f64();
    (
        (bytes_per_iter * iters) as f64 / s / 1e9,
        s * 1e9 / iters as f64,
    )
}

/// T5: scalar vs blocked kernels and the batched ADC scan.
pub fn t5_kernels() -> Result<()> {
    let mut rng = Rng::seed_from_u64(0x75);
    let mut rows = Vec::new();
    for dim in [64usize, 256, 1024] {
        let a: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
        let b: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
        let bytes = dim * 8; // two vectors read
        let iters = 2_000_000 / dim;
        let (gbps_scalar, ns_scalar) = throughput(bytes, iters, || {
            kernel::l2_sq_scalar(black_box(&a), black_box(&b))
        });
        let (gbps_blocked, ns_blocked) =
            throughput(bytes, iters, || kernel::l2_sq(black_box(&a), black_box(&b)));
        rows.push(vec![
            format!("l2_sq d={dim}"),
            fmt(gbps_scalar, 2),
            fmt(gbps_blocked, 2),
            fmt(gbps_blocked / gbps_scalar, 2),
            fmt(ns_scalar, 0),
            fmt(ns_blocked, 0),
        ]);
        let (dscalar, _) = throughput(bytes, iters, || {
            kernel::dot_scalar(black_box(&a), black_box(&b))
        });
        let (dblocked, _) = throughput(bytes, iters, || kernel::dot(black_box(&a), black_box(&b)));
        rows.push(vec![
            format!("dot   d={dim}"),
            fmt(dscalar, 2),
            fmt(dblocked, 2),
            fmt(dblocked / dscalar, 2),
            String::new(),
            String::new(),
        ]);
    }
    print_table(
        "T5a: distance kernels — scalar vs blocked (auto-vectorized)",
        &[
            "kernel",
            "scalar_GB/s",
            "blocked_GB/s",
            "speedup",
            "scalar_ns",
            "blocked_ns",
        ],
        &rows,
    );

    // ADC scan: table lookups vs full-precision distances over the same
    // logical vectors (the §2.3 memory-bandwidth argument).
    let dim = 64;
    let n = 50_000;
    let data = vdb_core::dataset::gaussian(n, dim, &mut rng);
    let pq = ProductQuantizer::train(&data, &PqConfig::new(8))?;
    let codes: Vec<u8> = data
        .iter()
        .flat_map(|v| pq.encode(v).expect("encode"))
        .collect();
    let q: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
    let table = pq.adc_table(&q)?;
    let mut out = vec![0.0f32; n];
    let adc_start = Instant::now();
    let reps = 20;
    for _ in 0..reps {
        table.distance_batch(black_box(&codes), &mut out);
        black_box(&out);
    }
    let adc_ns = adc_start.elapsed().as_secs_f64() * 1e9 / (reps * n) as f64;
    let flat = data.as_flat();
    let full_start = Instant::now();
    for _ in 0..reps {
        kernel::l2_sq_batch(black_box(&q), black_box(flat), dim, &mut out);
        black_box(&out);
    }
    let full_ns = full_start.elapsed().as_secs_f64() * 1e9 / (reps * n) as f64;
    print_table(
        "T5b: similarity projection over 50k vectors (d=64)",
        &["method", "bytes/vec", "ns_per_vec", "speedup"],
        &[
            vec![
                "full f32".into(),
                (dim * 4).to_string(),
                fmt(full_ns, 1),
                "1.00".into(),
            ],
            vec![
                "PQ ADC (m=8)".into(),
                "8".into(),
                fmt(adc_ns, 1),
                fmt(full_ns / adc_ns, 2),
            ],
        ],
    );
    println!(
        "  Expected shape: blocked kernels beat scalar by a multiple; ADC scans\n  \
         trade accuracy for a large bandwidth (and time) reduction."
    );

    // T5c: end-to-end quantized search with and without context reuse.
    // IVF-PQ rebuilds an ADC table per query; the warm path reuses the
    // table storage, probe buffers, and pools from one SearchContext.
    let ivf_pq = vdb_index_table::IvfPqIndex::build(
        data.clone(),
        Metric::Euclidean,
        &vdb_index_table::IvfConfig::new(64),
        &PqConfig::new(8),
    )?;
    let queries: Vec<Vec<f32>> = (0..64)
        .map(|_| (0..dim).map(|_| rng.normal_f32()).collect())
        .collect();
    let params = SearchParams::default().with_nprobe(8);
    let reps = 8;
    let cold_start = Instant::now();
    for _ in 0..reps {
        for q in &queries {
            let mut ctx = SearchContext::new();
            black_box(ivf_pq.search_with(&mut ctx, q, 10, &params)?);
        }
    }
    let cold_qps = (reps * queries.len()) as f64 / cold_start.elapsed().as_secs_f64();
    let mut ctx = SearchContext::for_index(n);
    black_box(ivf_pq.search_with(&mut ctx, &queries[0], 10, &params)?);
    let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
    let warm_start = Instant::now();
    for _ in 0..reps {
        black_box(ivf_pq.search_batch(&mut ctx, &refs, 10, &params)?);
    }
    let warm_qps = (reps * refs.len()) as f64 / warm_start.elapsed().as_secs_f64();
    print_table(
        "T5c: quantized search (ivf_pq, 50k vectors) — context reuse",
        &["mode", "qps", "us_per_query"],
        &[
            vec![
                "cold (new context/query)".into(),
                fmt(cold_qps, 0),
                fmt(1e6 / cold_qps, 1),
            ],
            vec![
                "warm (reused context)".into(),
                fmt(warm_qps, 0),
                fmt(1e6 / warm_qps, 1),
            ],
            vec!["speedup".into(), fmt(warm_qps / cold_qps, 2), String::new()],
        ],
    );
    println!(
        "  Expected shape: warm >= cold — the reused context keeps the ADC\n  \
         table, probe ordering, and rerank pool allocations across queries."
    );
    Ok(())
}
