//! The seed, and nothing else, decides the inputs.

use vdb_benchmark::gen::generate;
use vdb_benchmark::workload::{Scale, SPECS};

#[test]
fn same_seed_same_inputs_and_another_seed_other_inputs() {
    for spec in &SPECS {
        let shape = spec.shape(Scale::Smoke);
        let a = generate(&shape, 42);
        let b = generate(&shape, 42);
        assert_eq!(a.hash, b.hash, "{}: same seed, same hash", spec.name);
        assert_eq!(a.search_streams, b.search_streams);
        assert_eq!(a.ingest_streams, b.ingest_streams);
        assert_eq!(a.rw_stream, b.rw_stream);
        assert_eq!(a.probe, b.probe);
        assert_eq!(a.truth_knn, b.truth_knn);
        assert_eq!(a.truth_filtered, b.truth_filtered);
        assert_eq!(a.text_queries, b.text_queries);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&a.base.vectors), bits(&b.base.vectors));
        assert_eq!(bits(&a.fresh.vectors), bits(&b.fresh.vectors));
        assert_eq!(bits(&a.queries.vectors), bits(&b.queries.vectors));

        let c = generate(&shape, 43);
        assert_ne!(a.hash, c.hash, "{}: another seed, another hash", spec.name);
        assert_ne!(bits(&a.base.vectors), bits(&c.base.vectors));
    }
}
