//! Answer goldens: one CRC per (family, dimension, filter) case over the
//! top-10 answers of a freshly built index, keyed by the kernel backend.
//!
//! Shared by `tests/answer_goldens.rs`, which checks the recorded CRCs,
//! and `examples/bless_answers.rs`, which re-records them for the active
//! backend.

use vdb::IndexSpec;
use vdb_core::{dataset, Metric, Rng, SearchParams};

/// The recorded goldens, one `<backend> <case> <crc>` line per case.
pub const FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/answers.txt");

/// Every case name with the CRC of its answers on the active backend, in
/// a fixed order: every registry family plus `diskann` and `spann`, at
/// d ∈ {8, 64}, unfiltered and filtered.
pub fn answers() -> Vec<(String, u32)> {
    let names: Vec<&str> = IndexSpec::all_defaults()
        .iter()
        .map(IndexSpec::name)
        .chain(["diskann", "spann"])
        .collect();
    let params = SearchParams::default();
    let filter = |id: usize| !id.is_multiple_of(3);
    let mut out = Vec::new();
    for dim in [8, 64] {
        let mut rng = Rng::seed_from_u64(4100 + dim as u64);
        let data = dataset::clustered(2000, dim, 12, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 25, 0.05, &mut rng);
        for name in &names {
            let index = IndexSpec::parse(name)
                .unwrap()
                .build(data.clone(), Metric::Euclidean)
                .unwrap();
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
                out.push((format!("{name}/d{dim}/{kind}"), vdb_core::crc32(&bytes)));
            }
        }
    }
    out
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
