//! Front-door goldens: one CRC per case over the top-10 answers that
//! `Collection::search` and `Collection::search_hybrid` return, through
//! the collection's whole read path (main index, update buffer, planner),
//! keyed by the kernel backend.
//!
//! Shared by `tests/front_goldens.rs`, which checks the recorded CRCs,
//! and `examples/bless_answers.rs`, which re-records them for the active
//! backend.

use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec, MergeMode, Predicate};
use vdb_core::{dataset, AttrType, AttrValue, Metric, Rng, SearchParams, Vectors};
use vdb_query::Strategy;

/// The recorded goldens, one `<backend> <case> <crc>` line per case.
pub const FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/front.txt");

const DIM: usize = 32;
const ROWS: usize = 2000;

/// Every case name with the CRC of its answers on the active backend, in
/// a fixed order. For an HNSW and an IVF-PQ collection (Blocking merges,
/// threshold above anything buffered) in three states — `fresh` (2,000
/// rows, merged), `buffered` (then 300 inserts, 50 overwrites of merged
/// keys with moved vectors and removes of every 4th merged key, all
/// unmerged) and `remerged` (then merged) — the cases are plain k-NN,
/// every forced `Strategy` and the planner's own choice on `price`
/// predicates of about 0.5 %, 5 % and 50 % selectivity.
pub fn answers() -> Vec<(String, u32)> {
    let mut rng = Rng::seed_from_u64(4900);
    let data = dataset::clustered(ROWS + 300, DIM, 12, 0.5, &mut rng).vectors;
    let queries = dataset::split_queries(&data, 25, 0.05, &mut rng);
    let prices: Vec<i64> = (0..data.len()).map(|_| rng.below(1000) as i64).collect();
    let mut out = Vec::new();
    for name in ["hnsw", "ivf_pq"] {
        let schema =
            CollectionSchema::new("front", DIM, Metric::Euclidean).column("price", AttrType::Int);
        let cfg = CollectionConfig {
            index: IndexSpec::parse(name).unwrap(),
            merge_threshold: 4096,
            merge_mode: MergeMode::Blocking,
            ..Default::default()
        };
        let mut c = Collection::create(schema, cfg).unwrap();
        let insert = |c: &mut Collection, key: usize, v: &[f32], price: i64| {
            c.insert(key as u64, v, &[("price", AttrValue::Int(price))])
                .unwrap();
        };
        let add = |c: &mut Collection, row: usize| insert(c, row, data.get(row), prices[row]);
        for row in 0..ROWS {
            add(&mut c, row);
        }
        c.merge().unwrap();
        record(&mut out, &format!("{name}/fresh"), &c, &queries);

        for row in ROWS..ROWS + 300 {
            add(&mut c, row);
        }
        for i in 0..50 {
            let key = 1 + 8 * i;
            let moved: Vec<f32> = data.get(key).iter().map(|x| x + 0.75).collect();
            insert(&mut c, key, &moved, prices[ROWS - 1 - key]);
        }
        for key in (0..ROWS as u64).step_by(4) {
            c.delete(key).unwrap();
        }
        assert_eq!(c.stats().merges, 1, "{name}: the buffer stays unmerged");
        record(&mut out, &format!("{name}/buffered"), &c, &queries);

        c.merge().unwrap();
        record(&mut out, &format!("{name}/remerged"), &c, &queries);
    }
    out
}

/// Push every case of one collection state: plain k-NN, then per
/// selectivity each forced strategy and the planner's choice.
fn record(out: &mut Vec<(String, u32)>, prefix: &str, c: &Collection, queries: &Vectors) {
    let params = SearchParams::default();
    let crc = |search: &dyn Fn(&[f32]) -> Vec<vdb::SearchHit>| {
        let mut bytes = Vec::new();
        for q in queries.iter() {
            for h in search(q) {
                bytes.extend_from_slice(&h.key.to_le_bytes());
                bytes.extend_from_slice(&h.dist.to_bits().to_le_bytes());
            }
        }
        vdb_core::crc32(&bytes)
    };
    out.push((
        format!("{prefix}/knn"),
        crc(&|q| c.search(q, 10, &params).unwrap()),
    ));
    for (sel, bound) in [("p0.5", 5), ("p5", 50), ("p50", 500)] {
        let pred = Predicate::lt("price", bound);
        let strategies = Strategy::ALL.iter().map(|&s| (s.name(), Some(s)));
        for (plan, strategy) in strategies.chain([("planned", None)]) {
            out.push((
                format!("{prefix}/{sel}/{plan}"),
                crc(&|q| c.search_hybrid(q, 10, &pred, &params, strategy).unwrap()),
            ));
        }
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
