//! Hostile requests against a live server: a client-chosen `k` of
//! `u32::MAX` on every search opcode, and VQL predicates nested far past
//! any real query. Each must be answered — with every live row in exact
//! order, or with a typed error — and the server must keep serving: a
//! `ping` answers after every request. Nothing a client sends may size an
//! allocation past what a search can return, or recurse without bound.

use std::time::Duration;
use vdb::{CollectionSchema, Fusion, HybridStrategy, IndexSpec, SearchHit, SystemProfile, Vdbms};
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::error::Error;
use vdb_core::{Metric, Rng, SearchParams};
use vdb_server::{serve, Client, ClientConfig, ServerConfig, ServerHandle};

const DIM: usize = 8;
const ROWS: u64 = 100;
const WORDS: [&str; 6] = ["vector", "index", "graph", "disk", "cache", "merge"];

/// 100 live rows in an HNSW collection with a text column: 90 merged into
/// the index, 10 still in the update buffer, so both parts of a search
/// see the hostile `k`.
fn hostile_db() -> (Vdbms, Vec<Vec<f32>>) {
    let mut rng = Rng::seed_from_u64(2851);
    let vectors: Vec<Vec<f32>> = (0..ROWS)
        .map(|_| (0..DIM).map(|_| rng.f32_range(-1.0, 1.0)).collect())
        .collect();
    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection(
        CollectionSchema::new("docs", DIM, Metric::Euclidean)
            .column("price", AttrType::Int)
            .column("body", AttrType::Str)
            .text_index("body"),
        IndexSpec::parse("hnsw").unwrap(),
    )
    .unwrap();
    let c = db.collection_mut("docs").unwrap();
    for (key, v) in vectors.iter().enumerate() {
        let body = format!("{} {}", WORDS[key % 6], WORDS[(key / 6) % 6]);
        c.insert(
            key as u64,
            v,
            &[
                ("price", AttrValue::Int(key as i64)),
                ("body", AttrValue::Str(body)),
            ],
        )
        .unwrap();
        if key == 89 {
            c.merge().unwrap();
        }
    }
    let stats = c.stats();
    assert_eq!((stats.indexed, stats.buffered), (90, 10));
    (db, vectors)
}

/// Every row, nearest first (ties by key): the only acceptable answer
/// to a `k` at or past the row count.
fn every_row_in_order(vectors: &[Vec<f32>], query: &[f32]) -> Vec<u64> {
    let mut rows: Vec<(f32, u64)> = vectors
        .iter()
        .enumerate()
        .map(|(key, v)| (Metric::Euclidean.distance(query, v), key as u64))
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    rows.into_iter().map(|(_, key)| key).collect()
}

fn keys(hits: &[SearchHit]) -> Vec<u64> {
    hits.iter().map(|h| h.key).collect()
}

fn client(handle: &ServerHandle) -> Client {
    let cfg = ClientConfig {
        read_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    };
    Client::connect_with(handle.addr(), cfg).unwrap()
}

/// The answer to a hostile request is either `Ok` with what `check`
/// accepts or a parameter error; anything else fails. Then the server
/// must still answer a ping.
fn answered<T: std::fmt::Debug>(
    what: &str,
    client: &Client,
    reply: vdb_core::error::Result<T>,
    check: impl FnOnce(T),
) {
    match reply {
        Ok(out) => check(out),
        Err(Error::InvalidQuery(_)) => {}
        Err(e) => panic!("{what}: expected every row or InvalidParameter, got {e:?}"),
    }
    client
        .ping()
        .unwrap_or_else(|e| panic!("{what}: server stopped answering: {e:?}"));
}

#[test]
fn k_of_u32_max_returns_every_row_or_is_refused_on_every_search_opcode() {
    let (db, vectors) = hostile_db();
    let handle = serve(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = client(&handle);
    let params = SearchParams::default();
    let k = u32::MAX as usize;
    let query = vectors[17].iter().map(|x| x + 0.01).collect::<Vec<f32>>();
    let want = every_row_in_order(&vectors, &query);

    let reply = client.search("docs", &query, k, &params);
    answered("OP_SEARCH", &client, reply, |hits| {
        assert_eq!(keys(&hits), want, "OP_SEARCH")
    });

    let other = vectors[63].clone();
    let reply = client.search_batch("docs", &[&query, &other], k, &params);
    answered("OP_SEARCH_BATCH", &client, reply, |lists| {
        assert_eq!(lists.len(), 2);
        assert_eq!(keys(&lists[0]), want, "OP_SEARCH_BATCH query 0");
        assert_eq!(
            keys(&lists[1]),
            every_row_in_order(&vectors, &other),
            "OP_SEARCH_BATCH query 1"
        );
    });

    // Fused order has no closed form here: the same request at exactly
    // the row count is the reference, and it must name every row once.
    let hybrid = |k: usize| {
        client.hybrid_search(
            "docs",
            &query,
            "vector cache",
            k,
            Fusion::Rrf { k0: 60 },
            Some(HybridStrategy::Fused),
            &params,
        )
    };
    let reference = hybrid(ROWS as usize).unwrap();
    let mut named: Vec<u64> = reference.hits.iter().map(|h| h.key).collect();
    named.sort_unstable();
    assert_eq!(named, (0..ROWS).collect::<Vec<_>>());
    let reply = hybrid(k);
    answered("OP_HYBRID_SEARCH", &client, reply, |result| {
        assert_eq!(result.hits, reference.hits, "OP_HYBRID_SEARCH")
    });

    let literal: Vec<String> = query.iter().map(|x| format!("{x:?}")).collect();
    let statement = format!("SEARCH docs K {} NEAR [{}]", u32::MAX, literal.join(", "));
    let reply = client.vql(&statement);
    answered("OP_VQL", &client, reply, |out| match out {
        vdb::VqlOutput::Hits(hits) => assert_eq!(keys(&hits), want, "OP_VQL"),
        other => panic!("OP_VQL: expected hits, got {other:?}"),
    });
    handle.shutdown();
}

#[test]
fn deeply_nested_vql_predicates_are_refused_with_a_position() {
    let (db, _) = hostile_db();
    let handle = serve(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = client(&handle);
    let head = "SEARCH docs K 3 NEAR [0, 0, 0, 0, 0, 0, 0, 0] WHERE ";
    let parens = format!("{head}{}price > 1{}", "(".repeat(2_000), ")".repeat(2_000));
    let nots = format!("{head}{}price > 1", "NOT ".repeat(10_000));
    for (what, statement) in [("2,000 parentheses", parens), ("10,000 NOTs", nots)] {
        match client.vql(&statement) {
            Err(Error::ParseAt { pos, .. }) => assert!(
                pos >= head.len() && pos < statement.len(),
                "{what}: position {pos} outside the predicate"
            ),
            other => panic!("{what}: expected a positioned parse error, got {other:?}"),
        }
        client
            .ping()
            .unwrap_or_else(|e| panic!("{what}: server stopped answering: {e:?}"));
    }
    handle.shutdown();
}
