//! One module per experiment family; see the index in DESIGN.md §3.

pub mod build;
pub mod compression;
pub mod disk_pipeline;
pub mod execution;
pub mod hybrid;
pub mod index_zoo;
pub mod recovery;
pub mod replication;
pub mod scale_out;
pub mod score;
pub mod serving;

use crate::Scale;

/// All experiment ids in presentation order.
pub const ALL: [&str; 21] = [
    "f1", "t1", "b1", "t2", "f2", "f3", "t3", "h1", "f4", "t4", "f5", "f6", "r1", "f7", "d1", "f8",
    "t5", "k1", "s1", "s2", "s3",
];

/// Dispatch one experiment by id.
pub fn run(id: &str, scale: Scale) -> vdb_core::Result<()> {
    match id {
        "f1" => index_zoo::f1_recall_qps_curves(scale),
        "t1" => index_zoo::t1_build_and_memory(scale),
        "b1" => build::b1_parallel_build(scale),
        "t2" => compression::t2_quantization(scale),
        "f2" => compression::f2_lsh_sweep(scale),
        "f3" => hybrid::f3_strategies_vs_selectivity(scale),
        "t3" => hybrid::t3_plan_selection(scale),
        "h1" => hybrid::h1_text_fusion(scale),
        "f4" => execution::f4_batched_queries(scale),
        "t4" => execution::t4_multivector(scale),
        "f5" => scale_out::f5_distributed(scale),
        "f6" => scale_out::f6_out_of_place_updates(scale),
        "r1" => recovery::r1_recovery(scale),
        "f7" => scale_out::f7_disk_resident(scale),
        "d1" => disk_pipeline::d1_disk_pipeline(scale),
        "f8" => score::f8_curse_of_dimensionality(scale),
        "t5" => execution::t5_kernels(),
        "k1" => score::k1_simd_dispatch(),
        "s1" => serving::s1_serving(scale),
        "s2" => serving::s2_connection_scaling(scale),
        "s3" => replication::s3_failover(scale),
        other => Err(vdb_core::Error::InvalidParameter(format!(
            "unknown experiment `{other}`; known: {ALL:?}"
        ))),
    }
}
