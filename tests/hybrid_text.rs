//! Acceptance suite for the hybrid text + vector subsystem (DESIGN.md
//! §15): BM25 scans against a naive reference, block-max skipping
//! equivalence, predicate-respecting deterministic fusion, freshness
//! through background merges, and distributed fusion parity.

use vdb::{
    CollectionSchema, Fusion, HybridResult, HybridStrategy, IndexSpec, SystemProfile, Vdbms,
};
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::{Metric, Rng, SearchParams};
use vdb_distributed::ClusterManifest;
use vdb_query::{bm25_score, Predicate, TextHit, TextIndex};
use vdb_server::{serve, ClusterClient, ServerConfig};

/// Small vocabulary with skewed frequencies: early words are common
/// (stopword-like load), late words are rare (high idf).
const VOCAB: [&str; 20] = [
    "system", "index", "vector", "query", "data", "search", "graph", "disk", "cache", "merge",
    "quantize", "recall", "filter", "shard", "replica", "wand", "bm25", "fusion", "saffron",
    "glacier",
];

/// Zipf-ish document: common words drawn often, rare words rarely.
fn synth_text(rng: &mut Rng, len: usize) -> String {
    let words: Vec<&str> = (0..len)
        .map(|_| {
            // Square the draw so low indices (common words) dominate.
            let u = rng.f64();
            let i = ((u * u) * VOCAB.len() as f64) as usize;
            VOCAB[i.min(VOCAB.len() - 1)]
        })
        .collect();
    words.join(" ")
}

fn corpus(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let len = 4 + rng.below(12);
            synth_text(rng, len)
        })
        .collect()
}

const QUERIES: [&str; 6] = [
    "vector index",
    "glacier",
    "bm25 fusion recall",
    "the of and", // all stopwords
    "saffron glacier wand quantize",
    "data data data system", // duplicate terms
];

/// Naive BM25 reference: score every document via the public
/// [`bm25_score`] building blocks, sort by (score desc, doc asc) — the
/// index's own tie order — and truncate.
fn naive_topk(ix: &TextIndex, query: &str, k: usize) -> Vec<TextHit> {
    let terms = ix.query_terms(query);
    if terms.is_empty() {
        return Vec::new();
    }
    let stats = ix.corpus_stats(&terms);
    let mut hits: Vec<TextHit> = (0..ix.n_docs() as u32)
        .map(|doc| TextHit {
            doc,
            score: bm25_score(&terms, &ix.tf_vector(doc, &terms), ix.doc_len(doc), &stats),
        })
        .filter(|h| h.score > 0.0)
        .collect();
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.doc.cmp(&b.doc))
    });
    hits.truncate(k);
    hits
}

#[test]
fn bm25_topk_matches_naive_reference() {
    let mut rng = Rng::seed_from_u64(71);
    let mut ix = TextIndex::new();
    for d in corpus(&mut rng, 500) {
        ix.push_doc(&d);
    }
    for query in QUERIES {
        for k in [1, 3, 10, 50] {
            let got = ix.search(query, k);
            let want = naive_topk(&ix, query, k);
            assert_eq!(got, want, "query {query:?} k={k}");
        }
    }
}

#[test]
fn block_max_skipping_is_bit_identical_to_exhaustive() {
    let mut rng = Rng::seed_from_u64(72);
    // Big enough that every common term spans many posting blocks.
    let mut ix = TextIndex::new();
    for d in corpus(&mut rng, 3000) {
        ix.push_doc(&d);
    }
    for query in QUERIES {
        let terms = ix.query_terms(query);
        for k in [1, 5, 10, 100] {
            assert_eq!(
                ix.search_terms(&terms, k, true),
                ix.search_terms(&terms, k, false),
                "query {query:?} k={k}: skipping changed the result"
            );
        }
    }
}

/// Text-indexed collection fixture: `n` docs, synthetic text, a `tag`
/// attribute alternating even/odd for predicate tests.
fn text_db(n: usize, seed: u64) -> Vdbms {
    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection(
        CollectionSchema::new("docs", 4, Metric::Euclidean)
            .column("tag", AttrType::Str)
            .column("body", AttrType::Str)
            .text_index("body"),
        IndexSpec::Flat,
    )
    .unwrap();
    let mut rng = Rng::seed_from_u64(seed);
    let col = db.collection_mut("docs").unwrap();
    for i in 0..n as u64 {
        let tag = if i % 2 == 0 { "even" } else { "odd" };
        let len = 4 + rng.below(12);
        let body = synth_text(&mut rng, len);
        let v = [i as f32, (i % 7) as f32, 0.0, 1.0];
        col.insert(
            i,
            &v,
            &[("tag", tag.into()), ("body", AttrValue::Str(body))],
        )
        .unwrap();
    }
    db
}

#[test]
fn fusion_respects_predicates_and_is_deterministic_across_threads() {
    let db = text_db(300, 73);
    let col = db.collection("docs").unwrap();
    let params = SearchParams::default();
    let pred = Predicate::eq("tag", "even");
    for fusion in [Fusion::Rrf { k0: 60 }, Fusion::Convex { alpha: 0.7 }] {
        for strategy in [
            Some(HybridStrategy::TextFirst),
            Some(HybridStrategy::VectorFirst),
            Some(HybridStrategy::Fused),
            None,
        ] {
            let run = || {
                col.hybrid_text_search(
                    &[40.0, 3.0, 0.0, 1.0],
                    "vector index recall",
                    10,
                    &pred,
                    fusion,
                    strategy,
                    &params,
                )
                .unwrap()
            };
            let baseline = run();
            assert!(!baseline.hits.is_empty(), "{fusion:?}/{strategy:?}");
            for h in &baseline.hits {
                assert_eq!(h.key % 2, 0, "{fusion:?}/{strategy:?}: predicate violated");
            }
            // Fused scores must be monotone non-increasing in rank.
            for w in baseline.hits.windows(2) {
                assert!(w[0].fused >= w[1].fused, "{fusion:?}/{strategy:?}");
            }
            // Determinism: eight concurrent threads, bit-identical results.
            std::thread::scope(|s| {
                for _ in 0..8 {
                    let baseline = &baseline;
                    let run = &run;
                    s.spawn(move || assert_eq!(&run(), baseline));
                }
            });
        }
    }
}

/// The inverted index stays queryable and exact while the LSM buffer
/// drains through background merges: after every row is merged, hybrid
/// results equal those of a collection that never buffered at all.
#[test]
fn inverted_index_stays_queryable_through_background_merge() {
    use vdb::{Collection, CollectionConfig, MergeMode};
    let schema = || {
        CollectionSchema::new("docs", 4, Metric::Euclidean)
            .column("body", AttrType::Str)
            .text_index("body")
    };
    let mut rng = Rng::seed_from_u64(74);
    let rows: Vec<(u64, [f32; 4], String)> = (0..200)
        .map(|i| {
            (i, [i as f32, (i % 5) as f32, 0.0, 1.0], {
                let len = 4 + rng.below(12);
                synth_text(&mut rng, len)
            })
        })
        .collect();
    let rows_len = rows.len();

    let bg = Collection::create(
        schema(),
        CollectionConfig {
            index: IndexSpec::Flat,
            merge_threshold: 16,
            merge_mode: MergeMode::Background,
            ..Default::default()
        },
    )
    .unwrap();
    let reference = Collection::create(
        schema(),
        CollectionConfig {
            index: IndexSpec::Flat,
            ..Default::default()
        },
    )
    .unwrap();

    let params = SearchParams::default();
    // k = row count: both retrievers pool the full corpus, so the fused
    // ranking is exactly comparable across merge histories. (With a
    // truncated pool, ties at the pool boundary may resolve by row
    // order, which differs between chunked and bulk merges.)
    let query = |c: &Collection| {
        c.hybrid_text_search(
            &[60.0, 2.0, 0.0, 1.0],
            "vector recall bm25",
            rows_len,
            &Predicate::True,
            Fusion::Rrf { k0: 60 },
            Some(HybridStrategy::Fused),
            &params,
        )
        .unwrap()
    };
    for (key, v, body) in &rows {
        loop {
            match bg.insert(*key, v, &[("body", AttrValue::Str(body.clone()))]) {
                Ok(()) => break,
                Err(vdb_core::Error::Busy) => {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                }
                Err(e) => panic!("insert: {e}"),
            }
        }
        reference
            .insert(*key, v, &[("body", AttrValue::Str(body.clone()))])
            .unwrap();
        // Interleave queries with merges in flight; results must never
        // error and every hit must be a live key (read-your-writes view
        // may lag text stats, never the candidate set).
        if key % 17 == 0 {
            let r = query(&bg);
            assert!(r.hits.iter().all(|h| h.key <= *key));
            for w in r.hits.windows(2) {
                assert!(w[0].fused >= w[1].fused, "mid-merge ranking not monotone");
            }
        }
    }
    bg.merge().unwrap(); // drain the tail; waits out the worker
    reference.merge().unwrap();
    assert_eq!(bg.stats().buffered, 0);
    assert!(bg.stats().merges > 0, "background worker never merged");
    assert_eq!(query(&bg), query(&reference));
}

/// Distributed fused search equals a single node holding the whole
/// corpus: disjoint shards ship integer text evidence, the coordinator
/// re-scores under summed global stats, and — with candidate pools deep
/// enough to cover the corpus — the fused ranking is bit-identical.
#[test]
fn distributed_fused_search_equals_single_node_fusion() {
    let n = 24;
    let single = text_db(n, 75);

    // Same rows split across two shards by key parity (manifest routing).
    let mut shard_dbs = [
        Vdbms::new(SystemProfile::MostlyMixed),
        Vdbms::new(SystemProfile::MostlyMixed),
    ];
    let mut rng = Rng::seed_from_u64(75);
    for db in &mut shard_dbs {
        db.create_collection(
            CollectionSchema::new("docs", 4, Metric::Euclidean)
                .column("tag", AttrType::Str)
                .column("body", AttrType::Str)
                .text_index("body"),
            IndexSpec::Flat,
        )
        .unwrap();
    }
    for i in 0..n as u64 {
        let tag = if i % 2 == 0 { "even" } else { "odd" };
        let len = 4 + rng.below(12);
        let body = synth_text(&mut rng, len);
        let v = [i as f32, (i % 7) as f32, 0.0, 1.0];
        shard_dbs[(i % 2) as usize]
            .collection_mut("docs")
            .unwrap()
            .insert(
                i,
                &v,
                &[("tag", tag.into()), ("body", AttrValue::Str(body))],
            )
            .unwrap();
    }
    let [db_a, db_b] = shard_dbs;
    let a = serve(db_a, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let b = serve(db_b, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (a_addr, b_addr) = (a.addr().to_string(), b.addr().to_string());
    let manifest = ClusterManifest::new("docs", 2, &[a_addr.clone(), b_addr.clone()]).unwrap();
    a.set_cluster(a_addr.clone(), manifest.clone());
    b.set_cluster(b_addr, manifest);
    let cluster = ClusterClient::connect(&a_addr, "docs").unwrap();

    let params = SearchParams::default();
    let qv = [11.0, 4.0, 0.0, 1.0];
    // k = n: every shard ships its full corpus, so the coordinator's
    // candidate pool equals the single node's and equality is exact,
    // not merely top-k-overlapping.
    for fusion in [Fusion::Rrf { k0: 60 }, Fusion::Convex { alpha: 0.6 }] {
        for query in ["vector index recall", "glacier saffron", "data system"] {
            let want: HybridResult = single
                .collection("docs")
                .unwrap()
                .hybrid_text_search(
                    &qv,
                    query,
                    n,
                    &Predicate::True,
                    fusion,
                    Some(HybridStrategy::Fused),
                    &params,
                )
                .unwrap();
            let got = cluster
                .hybrid_search(&qv, query, n, fusion, Some(HybridStrategy::Fused), &params)
                .unwrap();
            assert_eq!(got.stats, want.stats, "{fusion:?} {query:?}: global stats");
            assert_eq!(got.hits, want.hits, "{fusion:?} {query:?}: fused ranking");
            assert_eq!(got.strategy, want.strategy, "{fusion:?} {query:?}");
        }
    }
    a.shutdown();
    b.shutdown();
}
