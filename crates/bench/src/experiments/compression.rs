//! T2 (quantization: bytes/vector vs recall) and F2 (LSH (L,K) sweep) —
//! the table-based indexing experiments of §2.2.

use crate::workload::{standard, GT_K};
use crate::{fmt, print_table, time_queries, Scale};
use vdb_core::index::{SearchParams, VectorIndex};
use vdb_core::metric::Metric;
use vdb_core::topk::{Neighbor, TopK};
use vdb_core::Result;
use vdb_index_table::{HashFamily, IvfConfig, IvfPqIndex, LshConfig, LshIndex};
use vdb_quant::{OpqConfig, OpqQuantizer, PqConfig, ProductQuantizer, ScalarQuantizer, SqBits};

/// Search all codes by asymmetric distance, re-ranking nothing: measures
/// what the compressed representation alone retains.
fn scan_codes<D: Fn(usize) -> f32>(n: usize, k: usize, dist: D) -> Vec<Neighbor> {
    let mut top = TopK::new(k);
    for i in 0..n {
        top.push(Neighbor::new(i, dist(i)));
    }
    top.into_sorted()
}

/// T2: compression ratio vs retained recall for every quantizer.
pub fn t2_quantization(scale: Scale) -> Result<()> {
    let w = standard(scale, 0x72);
    let dim = w.data.dim();
    let n = w.data.len();
    let raw_bytes = dim * 4;
    let mut rows = Vec::new();

    // Scalar quantizers.
    for (label, bits) in [("sq8", SqBits::B8), ("sq4", SqBits::B4)] {
        let sq = ScalarQuantizer::train(&w.data, bits)?;
        let codes: Vec<Vec<u8>> = w
            .data
            .iter()
            .map(|v| sq.encode(v).expect("encode"))
            .collect();
        let (us, _, results) = time_queries(&w.queries, |q| {
            scan_codes(n, GT_K, |i| sq.asymmetric_l2_sq(q, &codes[i]))
        });
        rows.push(vec![
            label.into(),
            sq.code_len().to_string(),
            fmt(raw_bytes as f64 / sq.code_len() as f64, 1),
            fmt(w.gt.recall_batch(&results), 3),
            fmt(us, 1),
        ]);
    }

    // Product quantizers.
    for m in [8usize, 16, 32] {
        if !dim.is_multiple_of(m) {
            continue;
        }
        let pq = ProductQuantizer::train(&w.data, &PqConfig::new(m))?;
        let codes: Vec<Vec<u8>> = w
            .data
            .iter()
            .map(|v| pq.encode(v).expect("encode"))
            .collect();
        let (us, _, results) = time_queries(&w.queries, |q| {
            let table = pq.adc_table(q).expect("table");
            scan_codes(n, GT_K, |i| table.distance(&codes[i]))
        });
        rows.push(vec![
            format!("pq_m{m}"),
            pq.code_len().to_string(),
            fmt(raw_bytes as f64 / pq.code_len() as f64, 1),
            fmt(w.gt.recall_batch(&results), 3),
            fmt(us, 1),
        ]);
    }

    // OPQ.
    let opq = OpqQuantizer::train(&w.data, &OpqConfig::new(8))?;
    let codes: Vec<Vec<u8>> = w
        .data
        .iter()
        .map(|v| opq.encode(v).expect("encode"))
        .collect();
    let (us, _, results) = time_queries(&w.queries, |q| {
        let table = opq.adc_table(q).expect("table");
        scan_codes(n, GT_K, |i| table.distance(&codes[i]))
    });
    rows.push(vec![
        format!("opq_m8 ({})", opq.chosen),
        opq.code_len().to_string(),
        fmt(raw_bytes as f64 / opq.code_len() as f64, 1),
        fmt(w.gt.recall_batch(&results), 3),
        fmt(us, 1),
    ]);

    // IVFADC with and without exact re-ranking: `rerank = 0` keeps the
    // top-k by raw ADC distance (re-scoring k rows cannot change the set).
    let idx = IvfPqIndex::build(
        w.data.clone(),
        Metric::Euclidean,
        &IvfConfig::new(32),
        &PqConfig::new(8),
    )?;
    for (label, rerank) in [("ivfadc_m8_raw", 0usize), ("ivfadc_m8_rerank128", 128)] {
        let params = SearchParams::default().with_nprobe(16).with_rerank(rerank);
        let (us, _, results) = time_queries(&w.queries, |q| {
            idx.search(q, GT_K, &params).expect("search")
        });
        rows.push(vec![
            label.into(),
            idx.bytes_per_vector().to_string(),
            fmt(raw_bytes as f64 / idx.bytes_per_vector() as f64, 1),
            fmt(w.gt.recall_batch(&results), 3),
            fmt(us, 1),
        ]);
    }

    print_table(
        &format!("T2: quantization — bytes/vector vs recall (dim={dim}, raw {raw_bytes} B/vec)"),
        &["quantizer", "bytes/vec", "ratio", "recall@10", "latency_us"],
        &rows,
    );
    println!(
        "  Expected shape: recall falls monotonically with compression; OPQ >= PQ\n  \
         at equal size; IVFADC re-ranking recovers most of the loss."
    );

    // Ablation (DESIGN.md §4.4): re-ranking depth in IVFADC.
    let mut ab = Vec::new();
    for rerank in [0usize, 16, 64, 256, 1024] {
        let params = SearchParams::default().with_nprobe(16).with_rerank(rerank);
        let (us, _, results) = time_queries(&w.queries, |q| {
            idx.search(q, GT_K, &params).expect("search")
        });
        ab.push(vec![
            rerank.to_string(),
            fmt(w.gt.recall_batch(&results), 3),
            fmt(us, 1),
        ]);
    }
    print_table(
        "T2b (ablation): IVFADC re-ranking depth",
        &["rerank", "recall@10", "latency_us"],
        &ab,
    );
    println!("  Expected shape: recall saturates with depth while latency keeps growing\n  — the `a·k` over-fetch tuning problem of §2.6(3).");
    Ok(())
}

/// F2: LSH recall/QPS over the (L, K) grid.
pub fn f2_lsh_sweep(scale: Scale) -> Result<()> {
    let w = standard(scale, 0xF2);
    let mut rows = Vec::new();
    for l in [2usize, 4, 8, 16] {
        for k in [4usize, 8, 12, 16] {
            let cfg = LshConfig {
                l,
                k,
                family: HashFamily::PStable { w: 8.0 },
                seed: 0xF2,
            };
            let index = LshIndex::build(w.data.clone(), Metric::Euclidean, cfg)?;
            let params = SearchParams::default();
            let (us, qps, results) = time_queries(&w.queries, |q| {
                index.search(q, GT_K, &params).expect("search")
            });
            let mean_cands: f64 = w
                .queries
                .iter()
                .map(|q| index.candidate_count(q) as f64)
                .sum::<f64>()
                / w.queries.len() as f64;
            rows.push(vec![
                l.to_string(),
                k.to_string(),
                fmt(w.gt.recall_batch(&results), 3),
                fmt(qps, 0),
                fmt(us, 1),
                fmt(mean_cands, 0),
            ]);
        }
    }
    print_table(
        "F2: LSH (L, K) sweep (p-stable family, w = 8)",
        &["L", "K", "recall@10", "qps", "latency_us", "candidates"],
        &rows,
    );
    println!(
        "  Expected shape: recall rises with L (more tables) and falls with K\n  \
         (smaller buckets); candidates move the opposite way — the classic\n  \
         LSH accuracy/cost dial."
    );
    Ok(())
}
