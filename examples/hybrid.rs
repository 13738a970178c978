//! Hybrid text + vector search quick-start (DESIGN.md §15): a text
//! column with a native BM25 inverted index, fused with ANN search
//! through RRF and convex fusion, driven both through VQL and the
//! programmatic API.
//!
//! Run with: `cargo run --release --example hybrid`

use vdb::{CollectionSchema, Fusion, HybridStrategy, IndexSpec, SystemProfile, Vdbms, VqlOutput};
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::{dataset, Metric, Rng, SearchParams};
use vdb_query::Predicate;

/// Eight topics: each owns a vector cluster and a signature keyword.
const TOPICS: [&str; 8] = [
    "espresso", "volcano", "saffron", "glacier", "orchid", "falcon", "granite", "monsoon",
];
const FILLER: [&str; 12] = [
    "field", "report", "notes", "on", "the", "annual", "survey", "with", "summary", "data",
    "tables", "appendix",
];

fn main() -> vdb_core::Result<()> {
    let mut rng = Rng::seed_from_u64(15);
    let n = 4_000;
    let dim = 32;
    println!("building a {n}-document corpus ({dim}-d embeddings + text bodies)...");
    let clustered = dataset::clustered(n, dim, TOPICS.len(), 0.8, &mut rng);

    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection(
        CollectionSchema::new("articles", dim, Metric::Euclidean)
            .column("body", AttrType::Str)
            .column("year", AttrType::Int)
            .text_index("body"),
        IndexSpec::parse("hnsw")?,
    )?;
    {
        let col = db.collection_mut("articles")?;
        for (i, v) in clustered.vectors.iter().enumerate() {
            let topic = clustered.assignments[i];
            // Half of each topic's documents mention the keyword.
            let mut words: Vec<&str> = (0..8).map(|_| FILLER[rng.below(FILLER.len())]).collect();
            if rng.f64() < 0.5 {
                words.insert(rng.below(words.len()), TOPICS[topic]);
            }
            col.insert(
                i as u64,
                v,
                &[
                    ("body", AttrValue::Str(words.join(" "))),
                    ("year", AttrValue::Int(2015 + (i % 10) as i64)),
                ],
            )?;
        }
        col.merge()?; // fold the update buffer so searches hit the index
    }

    // A query vector near the "glacier" cluster, plus the keyword.
    let qv: Vec<f32> = clustered.centers.get(3).to_vec();

    // 1. Through VQL: MATCH + FUSE + HYBRID clauses.
    println!("\nVQL: SEARCH articles K 5 NEAR [...] MATCH 'glacier' FUSE rrf 60 HYBRID fused");
    let stmt = format!(
        "SEARCH articles K 5 NEAR [{}] MATCH 'glacier survey' FUSE rrf 60 HYBRID fused",
        qv.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    match db.execute(&stmt)? {
        VqlOutput::FusedHits(result) => {
            println!("  strategy executed: {:?}", result.strategy);
            for (h, d) in result.hits.iter().zip(&result.details) {
                println!(
                    "  key {:>5}  dist {:>7.3}  bm25 {:>6.3}  fused {:>6.4}  (doc_len {})",
                    h.key, h.dist, h.text_score, h.fused, d.doc_len
                );
            }
        }
        other => println!("  unexpected output: {other:?}"),
    }

    // 2. Programmatic: every fusion strategy on the same hybrid query,
    //    with a structured predicate riding along.
    println!("\nprogrammatic: hybrid_text_search under each strategy, year >= 2020");
    let col = db.collection("articles")?;
    let params = SearchParams::default().with_beam_width(96);
    let pred = Predicate::gt("year", 2019);
    for (label, strategy) in [
        ("text_first", Some(HybridStrategy::TextFirst)),
        ("vector_first", Some(HybridStrategy::VectorFirst)),
        ("fused", Some(HybridStrategy::Fused)),
        ("auto (planner)", None),
    ] {
        let r = col.hybrid_text_search(
            &qv,
            "glacier survey",
            5,
            &pred,
            Fusion::Rrf { k0: 60 },
            strategy,
            &params,
        )?;
        let keys: Vec<u64> = r.hits.iter().map(|h| h.key).collect();
        println!(
            "  {label:>14} -> executed {:?}, top-5 keys {keys:?}",
            r.strategy
        );
    }

    // 3. Convex fusion: interpolate between pure-vector and pure-text.
    println!("\nconvex fusion: alpha sweeps from pure text (0.0) to pure vector (1.0)");
    for alpha in [0.0f32, 0.5, 1.0] {
        let r = col.hybrid_text_search(
            &qv,
            "glacier survey",
            3,
            &Predicate::True,
            Fusion::Convex { alpha },
            Some(HybridStrategy::Fused),
            &params,
        )?;
        let keys: Vec<u64> = r.hits.iter().map(|h| h.key).collect();
        println!("  alpha {alpha:.1} -> top-3 keys {keys:?}");
    }
    println!("\ncorpus stats travel with every result: try `examples/cluster.rs` for the");
    println!("distributed variant, where shards ship integer text evidence and the");
    println!("coordinator re-scores under summed global statistics.");
    Ok(())
}
