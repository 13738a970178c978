//! Answer goldens: one CRC per (family, dimension, filter) case over the
//! top-10 answers of a freshly built index, then per mutation phase of
//! every family that takes online inserts and removes, keyed by the
//! kernel backend.
//!
//! Shared by `tests/answer_goldens.rs`, which checks the recorded CRCs,
//! and `examples/bless_answers.rs`, which re-records them for the active
//! backend.

use vdb::IndexSpec;
use vdb_core::{dataset, Metric, Rng, SearchParams, VectorIndex, Vectors};

/// The recorded goldens, one `<backend> <case> <crc>` line per case.
pub const FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/answers.txt");

/// Every case name with the CRC of its answers on the active backend, in
/// a fixed order: every registry family plus `diskann` and `spann`, at
/// d ∈ {8, 64}, unfiltered and filtered, on the fresh build; then, for
/// every family with online mutation, the same cases after each phase:
/// `drift` (200 inserts away from the trained centroids), `removed`
/// (every 4th row removed) and `refill` (100 more inserts).
pub fn answers() -> Vec<(String, u32)> {
    let names: Vec<&str> = IndexSpec::all_defaults()
        .iter()
        .map(IndexSpec::name)
        .chain(["diskann", "spann"])
        .collect();
    let mut fresh = Vec::new();
    let mut mutated = Vec::new();
    for dim in [8, 64] {
        let mut rng = Rng::seed_from_u64(4100 + dim as u64);
        let data = dataset::clustered(2000, dim, 12, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 25, 0.05, &mut rng);
        // The fixture's centers lie in [0, 10)^dim; the inserts sit past it.
        let mut rng = Rng::seed_from_u64(4200 + dim as u64);
        let away = dataset::clustered(300, dim, 2, 0.5, &mut rng).vectors;
        let away: Vec<Vec<f32>> = away
            .iter()
            .map(|v| v.iter().map(|x| x + 12.0).collect())
            .collect();
        for name in &names {
            let mut index = IndexSpec::parse(name)
                .unwrap()
                .build(data.clone(), Metric::Euclidean)
                .unwrap();
            let case = format!("{name}/d{dim}");
            record(&mut fresh, &case, &*index, &queries);
            if index.as_mutable().is_none() {
                continue;
            }
            for v in &away[..200] {
                index.as_mutable().unwrap().insert(v).unwrap();
            }
            record(&mut mutated, &format!("{case}/drift"), &*index, &queries);
            for id in (0..index.len()).step_by(4) {
                index.as_mutable().unwrap().remove(id).unwrap();
            }
            record(&mut mutated, &format!("{case}/removed"), &*index, &queries);
            for v in &away[200..] {
                index.as_mutable().unwrap().insert(v).unwrap();
            }
            record(&mut mutated, &format!("{case}/refill"), &*index, &queries);
        }
    }
    fresh.extend(mutated);
    fresh
}

/// Push the unfiltered and filtered cases of `prefix`: the CRC of every
/// query's top-10 ids and distance bits.
fn record(out: &mut Vec<(String, u32)>, prefix: &str, index: &dyn VectorIndex, queries: &Vectors) {
    let params = SearchParams::default();
    let filter = |id: usize| !id.is_multiple_of(3);
    for filtered in [false, true] {
        let mut bytes = Vec::new();
        for q in queries.iter() {
            let hits = if filtered {
                index.search_filtered(q, 10, &params, &filter)
            } else {
                index.search(q, 10, &params)
            }
            .unwrap();
            for n in hits {
                bytes.extend_from_slice(&(n.id as u64).to_le_bytes());
                bytes.extend_from_slice(&n.dist.to_bits().to_le_bytes());
            }
        }
        let kind = if filtered { "filtered" } else { "unfiltered" };
        out.push((format!("{prefix}/{kind}"), vdb_core::crc32(&bytes)));
    }
}

/// The recorded `(backend, case, crc)` triples; an absent file is empty.
pub fn load() -> Vec<(String, String, u32)> {
    let text = std::fs::read_to_string(FILE).unwrap_or_default();
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "malformed golden line `{l}`");
            let crc = u32::from_str_radix(f[2], 16).expect("hex crc");
            (f[0].to_string(), f[1].to_string(), crc)
        })
        .collect()
}
