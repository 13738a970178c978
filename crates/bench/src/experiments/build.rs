//! B1: parallel index construction — build time vs thread count for
//! every family whose build fans out, with recall@10 required to equal
//! the serial build's (DESIGN.md §7: threads change time, never bits).

use crate::workload::{standard, GT_K};
use crate::{fmt, print_table, time_queries, Scale};
use std::time::Instant;
use vdb::IndexSpec;
use vdb_core::index::SearchParams;
use vdb_core::metric::Metric;
use vdb_core::parallel::BuildOptions;
use vdb_core::Result;

/// The families whose builds fan out at this scale: IVF assignment and
/// encoding, one tree per job, NSG's per-node edge selection, and the
/// batch-synchronous HNSW and Vamana inserts (DiskANN builds a Vamana
/// graph plus navigation codes). NSW and NN-Descent build on one thread.
const FAMILIES: [&str; 8] = [
    "ivf_flat", "ivf_sq", "ivf_pq", "annoy", "nsg", "hnsw", "vamana", "diskann",
];

/// B1: build seconds and recall@10 per family at 1, 2, and N threads,
/// where N is the host's available parallelism, floored at 4 so the
/// table always has a 4+-thread point even on small hosts.
pub fn b1_parallel_build(scale: Scale) -> Result<()> {
    let w = standard(scale, 0xB1);
    let default_threads = BuildOptions::default().threads;
    let mut thread_counts = vec![1, 2, default_threads.max(4)];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let params = SearchParams::default()
        .with_beam_width(80)
        .with_nprobe(8)
        .with_max_leaf_points(1024)
        .with_rerank(128);
    let mut rows = Vec::new();
    for family in FAMILIES {
        let spec = IndexSpec::parse(family)?;
        let mut serial_s = 0.0;
        let mut serial_recall = 0.0;
        for &threads in &thread_counts {
            let opts = BuildOptions::with_threads(threads);
            let start = Instant::now();
            let index = spec.build_with(w.data.clone(), Metric::Euclidean, &opts)?;
            let build_s = start.elapsed().as_secs_f64();
            if threads == 1 {
                serial_s = build_s;
            }
            let (_, _, results) = time_queries(&w.queries, |q| {
                index.search(q, GT_K, &params).expect("search")
            });
            let recall = w.gt.recall_batch(&results);
            if threads == 1 {
                serial_recall = recall;
            }
            assert_eq!(
                recall, serial_recall,
                "{family}: recall at {threads} threads differs from the serial build"
            );
            rows.push(vec![
                family.to_string(),
                threads.to_string(),
                fmt(build_s, 2),
                fmt(
                    if build_s > 0.0 {
                        serial_s / build_s
                    } else {
                        0.0
                    },
                    2,
                ),
                fmt(recall, 3),
            ]);
        }
    }
    print_table(
        &format!(
            "B1: parallel build scaling (n={}, dim={}, default threads={})",
            scale.n(),
            scale.dim(),
            default_threads
        ),
        &["index", "threads", "build_s", "speedup", "recall@10"],
        &rows,
    );
    println!(
        "  Expected shape: near-linear scaling for the embarrassingly parallel\n  \
         families (IVF assignment/encoding, one-tree-per-thread forests) and\n  \
         sub-linear for NSG (its KNNG bootstrap and spanning pass are serial)\n  \
         and for HNSW/Vamana/DiskANN (each batch links its rows serially);\n  \
         recall@10 identical to the serial build everywhere (asserted)."
    );
    Ok(())
}
