//! End-to-end serving acceptance: concurrent clients over loopback TCP,
//! admission control under overload, coalesced batching, graceful
//! drain-then-stop shutdown, and a manifest-routed cluster failing over
//! to a replica, or degrading to the surviving shards, when a node dies.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vdb::{
    CollectionSchema, Fusion, HybridStrategy, IndexSpec, SearchHit, SystemProfile, Vdbms, VqlOutput,
};
use vdb_core::{Metric, SearchParams};
use vdb_distributed::ClusterManifest;
use vdb_server::{
    serve, Client, ClusterClient, ErrorCode, RateLimit, Request, Response, ServerConfig,
};

fn fixture_db(n: usize, dim: usize) -> Vdbms {
    let mut db = Vdbms::new(SystemProfile::MostlyVector);
    db.create_collection(
        CollectionSchema::new("docs", dim, Metric::Euclidean),
        IndexSpec::Flat,
    )
    .unwrap();
    for i in 0..n as u64 {
        let mut v = vec![0.0; dim];
        v[0] = i as f32;
        db.collection_mut("docs")
            .unwrap()
            .insert(i, &v, &[])
            .unwrap();
    }
    db
}

#[test]
fn concurrent_clients_get_correct_results() {
    let handle = serve(fixture_db(256, 4), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Arc::new(Client::connect(handle.addr()).unwrap());
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let client = client.clone();
            s.spawn(move || {
                for i in 0..25u64 {
                    let target = (t * 31 + i * 7) % 256;
                    let hits = client
                        .search(
                            "docs",
                            &[target as f32 + 0.3, 0.0, 0.0, 0.0],
                            3,
                            &SearchParams::default(),
                        )
                        .unwrap();
                    assert_eq!(hits[0].key, target, "client {t} query {i}");
                    assert_eq!(hits[1].key, target + 1);
                }
            });
        }
    });
    let stats = handle.stats();
    assert!(stats.served >= 200, "all requests must be counted");
    handle.shutdown();
}

/// Overload the server while its single worker is parked in the batch
/// window: `max_queue` requests are admitted, the overflow is answered
/// BUSY immediately (no hang), and every admitted search is coalesced
/// into one batched call.
#[test]
fn overload_sheds_busy_and_admitted_requests_coalesce() {
    let cfg = ServerConfig {
        workers: 1,
        max_queue: 4,
        batching: true,
        batch_max: 64,
        batch_window: Duration::from_millis(800),
        ..ServerConfig::default()
    };
    let handle = serve(fixture_db(64, 4), "127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();
    let search = |target: u64| Request::Search {
        collection: "docs".into(),
        k: 1,
        params: SearchParams::default(),
        query: vec![target as f32 + 0.1, 0.0, 0.0, 0.0],
    };
    let call_raw = move |req: Request| -> Response {
        use std::net::TcpStream;
        use vdb_server::wire;
        let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        wire::write_frame(&mut conn, &req.encode()).unwrap();
        let payload = wire::read_frame(&mut conn, wire::MAX_FRAME)
            .unwrap()
            .unwrap();
        Response::decode(&payload).unwrap()
    };
    // Head request: the worker pops it, finds nothing to coalesce, and
    // parks in the batch window — the queue is now drained by nobody.
    let head = std::thread::spawn(move || call_raw(search(0)));
    std::thread::sleep(Duration::from_millis(150));
    // Flood: 4 fill the queue, the rest must be shed with BUSY *now*,
    // not after the worker frees up.
    let flood_start = Instant::now();
    let mut floods = Vec::new();
    for i in 1..=9u64 {
        floods.push(std::thread::spawn(move || call_raw(search(i))));
    }
    let mut hits = 0;
    let mut busy = 0;
    for f in floods {
        match f.join().unwrap() {
            Response::Hits(h) => {
                assert_eq!(h.len(), 1);
                hits += 1;
            }
            Response::Busy => busy += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(matches!(head.join().unwrap(), Response::Hits(_)));
    assert_eq!(busy, 5, "overflow past max_queue must be shed");
    assert_eq!(hits, 4, "admitted requests must still be answered");
    assert!(
        flood_start.elapsed() < Duration::from_secs(5),
        "BUSY must be immediate, not queued"
    );
    let stats = handle.stats();
    assert_eq!(stats.busy, 5);
    assert!(stats.batches >= 1, "queued searches must coalesce");
    assert!(
        stats.coalesced >= 4,
        "the 4 queued searches must ride the head's batch, got {}",
        stats.coalesced
    );
    handle.shutdown();
}

/// Graceful shutdown: requests admitted before the stop must all be
/// answered (drained by the executors), never dropped.
#[test]
fn graceful_shutdown_completes_in_flight_requests() {
    let cfg = ServerConfig {
        workers: 1,
        max_queue: 16,
        batching: true,
        batch_window: Duration::from_millis(600),
        ..ServerConfig::default()
    };
    let handle = serve(fixture_db(32, 4), "127.0.0.1:0", cfg).unwrap();
    let client = Arc::new(Client::connect(handle.addr()).unwrap());
    let mut pending = Vec::new();
    // Head search parks the worker in its batch window; the rest queue
    // up behind it.
    for i in 0..5u64 {
        let client = client.clone();
        pending.push(std::thread::spawn(move || {
            client.search(
                "docs",
                &[i as f32 + 0.2, 0.0, 0.0, 0.0],
                1,
                &SearchParams::default(),
            )
        }));
        if i == 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    std::thread::sleep(Duration::from_millis(150));
    // All 5 are in flight (1 executing, 4 queued). Shut down now.
    let db = handle.shutdown();
    for (i, t) in pending.into_iter().enumerate() {
        let hits = t
            .join()
            .unwrap()
            .unwrap_or_else(|e| panic!("in-flight request {i} dropped during shutdown: {e}"));
        assert_eq!(hits[0].key, i as u64);
    }
    assert_eq!(db.collection("docs").unwrap().len(), 32);
}

#[test]
fn vql_roundtrips_over_the_wire() {
    let handle = serve(fixture_db(0, 3), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    for i in 0..6 {
        let stmt = format!("INSERT INTO docs KEY {i} VALUES [{i}, 0, 0]");
        assert!(matches!(client.vql(&stmt).unwrap(), VqlOutput::Done));
    }
    match client.vql("COUNT docs").unwrap() {
        VqlOutput::Count(n) => assert_eq!(n, 6),
        other => panic!("expected count, got {other:?}"),
    }
    match client.vql("SEARCH docs K 2 NEAR [3.1, 0, 0]").unwrap() {
        VqlOutput::Hits(hits) => {
            assert_eq!(hits[0].key, 3);
            assert_eq!(hits[1].key, 4);
        }
        other => panic!("expected hits, got {other:?}"),
    }
    handle.shutdown();
}

/// One blocking round trip on a fresh socket, so admission-control
/// responses (BUSY) surface as values instead of being retried away by
/// the pooled [`Client`].
fn call_raw(addr: std::net::SocketAddr, req: Request) -> Response {
    use std::net::TcpStream;
    use vdb_server::wire;
    let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire::write_frame(&mut conn, &req.encode()).unwrap();
    let payload = wire::read_frame(&mut conn, wire::MAX_FRAME)
        .unwrap()
        .unwrap();
    Response::decode(&payload).unwrap()
}

/// The transport adds nothing to an answer: on the same fixture, served
/// searches return exactly the hits (keys and distance bits) of an
/// in-process `Collection::search`.
#[test]
fn served_search_is_bit_identical_to_in_process() {
    let reference = fixture_db(128, 4);
    let docs = reference.collection("docs").unwrap();
    let handle = serve(fixture_db(128, 4), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    let bits = |hits: &[SearchHit]| {
        hits.iter()
            .map(|h| (h.key, h.dist.to_bits()))
            .collect::<Vec<_>>()
    };
    for q in 0..32u64 {
        let query = [(q * 3 % 128) as f32 + 0.4, 0.25, 0.0, 0.0];
        let params = SearchParams::default();
        let served = client.search("docs", &query, 5, &params).unwrap();
        let local = docs.search(&query, 5, &params).unwrap();
        assert_eq!(bits(&served), bits(&local), "query {q}");
    }
    handle.shutdown();
}

/// The bulk lane has its own, smaller bound: with the single worker
/// parked, overflowing inserts are shed BUSY while interactive searches
/// are still admitted into the remaining `max_queue` headroom.
#[test]
fn bulk_lane_sheds_before_interactive_searches() {
    let cfg = ServerConfig {
        workers: 1,
        max_queue: 8,
        bulk_queue: 2,
        batching: true,
        batch_max: 64,
        batch_window: Duration::from_millis(800),
        ..ServerConfig::default()
    };
    let handle = serve(fixture_db(64, 4), "127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();
    // Head search: the worker pops it and parks in the batch window,
    // so nothing drains the lanes while we flood them.
    let head = std::thread::spawn(move || {
        call_raw(
            addr,
            Request::Search {
                collection: "docs".into(),
                k: 1,
                params: SearchParams::default(),
                query: vec![0.1, 0.0, 0.0, 0.0],
            },
        )
    });
    std::thread::sleep(Duration::from_millis(150));
    let mut inserts = Vec::new();
    for i in 0..5u64 {
        inserts.push(std::thread::spawn(move || {
            call_raw(
                addr,
                Request::Insert {
                    collection: "docs".into(),
                    key: 1000 + i,
                    vector: vec![500.0 + i as f32, 0.0, 0.0, 0.0],
                    attrs: Vec::new(),
                },
            )
        }));
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut searches = Vec::new();
    for i in 1..=3u64 {
        searches.push(std::thread::spawn(move || {
            call_raw(
                addr,
                Request::Search {
                    collection: "docs".into(),
                    k: 1,
                    params: SearchParams::default(),
                    query: vec![i as f32 + 0.1, 0.0, 0.0, 0.0],
                },
            )
        }));
    }
    let (mut done, mut busy) = (0, 0);
    for t in inserts {
        match t.join().unwrap() {
            Response::Done => done += 1,
            Response::Busy => busy += 1,
            other => panic!("unexpected insert response {other:?}"),
        }
    }
    assert_eq!(busy, 3, "inserts past bulk_queue must be shed");
    assert_eq!(done, 2, "admitted inserts must still execute");
    for t in searches {
        assert!(
            matches!(t.join().unwrap(), Response::Hits(_)),
            "interactive searches must be admitted while bulk sheds"
        );
    }
    assert!(matches!(head.join().unwrap(), Response::Hits(_)));
    let stats = handle.stats();
    assert_eq!(stats.busy, 3);
    assert_eq!(stats.rate_limited, 0);
    handle.shutdown();
}

/// Per-collection token buckets: a limited collection sheds with the
/// dedicated RATE_LIMITED error code once its burst is spent (counted in
/// `rate_limited` AND `busy` — the plain Busy opcode stays reserved for
/// queue overload), while an unlimited collection on the same server is
/// untouched.
#[test]
fn per_collection_rate_limit_sheds_and_counts() {
    let mut db = fixture_db(32, 4);
    db.create_collection(
        CollectionSchema::new("free", 4, Metric::Euclidean),
        IndexSpec::Flat,
    )
    .unwrap();
    for i in 0..32u64 {
        db.collection_mut("free")
            .unwrap()
            .insert(i, &[i as f32, 0.0, 0.0, 0.0], &[])
            .unwrap();
    }
    let cfg = ServerConfig {
        rate_limits: vec![(
            "docs".into(),
            RateLimit {
                per_sec: 0.1,
                burst: 2.0,
            },
        )],
        ..ServerConfig::default()
    };
    let handle = serve(db, "127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();
    let search = |collection: &str, target: u64| Request::Search {
        collection: collection.into(),
        k: 1,
        params: SearchParams::default(),
        query: vec![target as f32 + 0.1, 0.0, 0.0, 0.0],
    };
    let (mut hits, mut limited) = (0, 0);
    for i in 0..5u64 {
        match call_raw(addr, search("docs", i)) {
            Response::Hits(_) => hits += 1,
            Response::Error {
                code: ErrorCode::RateLimited,
                ..
            } => limited += 1,
            Response::Busy => panic!(
                "rate-limit sheds must use the RATE_LIMITED code, \
                 not the queue-overload Busy opcode"
            ),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(hits, 2, "the burst allowance must be served");
    assert_eq!(limited, 3, "past the burst the bucket must shed");
    for i in 0..5u64 {
        assert!(
            matches!(call_raw(addr, search("free", i)), Response::Hits(_)),
            "an unlimited collection must not be throttled"
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.rate_limited, 3);
    assert_eq!(stats.busy, 3, "rate-limit sheds are also counted busy");
    handle.shutdown();
}

/// The metrics plane over the wire: after a burst of traffic the
/// `server-stats` snapshot carries live latency percentiles, QPS, and
/// connection gauges.
#[test]
fn metrics_snapshot_reports_latency_qps_and_gauges() {
    let handle = serve(fixture_db(64, 4), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    for i in 0..40u64 {
        let hits = client
            .search(
                "docs",
                &[(i % 64) as f32 + 0.2, 0.0, 0.0, 0.0],
                1,
                &SearchParams::default(),
            )
            .unwrap();
        assert_eq!(hits[0].key, i % 64);
    }
    let s = client.server_stats().unwrap();
    assert!(s.served >= 40, "served={}", s.served);
    assert!(s.p50_us > 0, "median latency must be recorded");
    assert!(s.p99_us >= s.p50_us, "p99 must dominate p50");
    assert!(s.qps > 0, "recent completions must show up as QPS");
    assert_eq!(s.interactive_depth, 0, "lanes must be drained at rest");
    assert_eq!(s.bulk_depth, 0);
    assert!(s.open_connections >= 1, "our own connection is open");
    assert_eq!(
        s.connections,
        s.open_connections + s.reaped,
        "accepted = open + closed on an idle server (no client hangups)"
    );
    assert_eq!(s.busy, 0);
    assert_eq!(s.deadline_expired, 0);
    handle.shutdown();
}

/// A three-shard cluster over 60 rows, key `i` on shard `i % 3` at
/// `[i, 0, 0, 1]` with a short text body. Shard 0 has one replica, a
/// node holding a copy of its rows; shards 1 and 2 have none. Returns
/// the servers (primaries of shards 0, 1, 2, then the replica) and a
/// client bootstrapped from shard 1's primary.
fn replicated_cluster() -> (Vec<vdb_server::ServerHandle>, ClusterClient) {
    use vdb_core::attr::{AttrType, AttrValue};
    let words = [
        "vector index",
        "text ranking",
        "fusion notes",
        "index recall",
    ];
    let node = |shard: u64| {
        let mut db = Vdbms::new(SystemProfile::MostlyMixed);
        db.create_collection(
            CollectionSchema::new("docs", 4, Metric::Euclidean)
                .column("body", AttrType::Str)
                .text_index("body"),
            IndexSpec::Flat,
        )
        .unwrap();
        let c = db.collection_mut("docs").unwrap();
        for i in (shard..60).step_by(3) {
            let body = AttrValue::Str(words[i as usize % 4].to_string());
            c.insert(i, &[i as f32, 0.0, 0.0, 1.0], &[("body", body)])
                .unwrap();
        }
        serve(db, "127.0.0.1:0", ServerConfig::default()).unwrap()
    };
    let servers = vec![node(0), node(1), node(2), node(0)];
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let mut manifest = ClusterManifest::new("docs", 3, &addrs[..3]).unwrap();
    manifest.shards[0].replicas.push(addrs[3].clone());
    for (server, addr) in servers.iter().zip(&addrs) {
        server.set_cluster(addr.clone(), manifest.clone());
    }
    let client = ClusterClient::connect(&addrs[1], "docs").unwrap();
    (servers, client)
}

fn keys(hits: &[SearchHit]) -> Vec<u64> {
    hits.iter().map(|h| h.key).collect()
}

/// A shard whose primary died is answered by its replica: plain and
/// hybrid searches return exactly the answers they gave before the kill.
#[test]
fn killed_primary_fails_over_to_its_replica() {
    let (mut servers, cluster) = replicated_cluster();
    let params = SearchParams::default();
    let q = [0.0, 0.0, 0.0, 1.0];
    let fusion = Fusion::Rrf { k0: 60 };
    let hybrid = |c: &ClusterClient| {
        c.hybrid_search(
            &q,
            "index recall",
            6,
            fusion,
            Some(HybridStrategy::Fused),
            &params,
        )
        .unwrap()
    };
    let before = cluster.search(&q, 6, &params).unwrap();
    assert_eq!(keys(&before), vec![0, 1, 2, 3, 4, 5]);
    let hybrid_before = hybrid(&cluster);

    servers.remove(0).shutdown();
    assert_eq!(cluster.search(&q, 6, &params).unwrap(), before);
    let hybrid_after = hybrid(&cluster);
    assert_eq!(hybrid_after.hits, hybrid_before.hits);
    assert_eq!(hybrid_after.stats, hybrid_before.stats);
    for server in servers {
        server.shutdown();
    }
}

/// A shard with no live copy is dropped from the answer: the surviving
/// shards still answer, promptly rather than at some deadline.
#[test]
fn killed_shard_without_replica_degrades_to_the_surviving_shards() {
    let (mut servers, cluster) = replicated_cluster();
    let params = SearchParams::default();
    let q = [0.0, 0.0, 0.0, 1.0];
    servers.remove(2).shutdown();
    let start = Instant::now();
    let hits = cluster.search(&q, 6, &params).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(keys(&hits), vec![0, 1, 3, 4, 6, 7]);
    assert!(
        elapsed < Duration::from_millis(500),
        "surviving shards must answer well inside a second, took {elapsed:?}"
    );
    for server in servers {
        server.shutdown();
    }
}

/// Satellite regression: a malformed MATCH/FUSE clause sent over the
/// wire comes back as a TYPED parse error carrying the byte position of
/// the offending token — not a stringly Invalid — and a well-formed
/// hybrid statement on the same connection returns fused hits.
#[test]
fn malformed_match_clause_returns_typed_parse_error_with_position() {
    use vdb_core::attr::{AttrType, AttrValue};
    use vdb_core::Error;

    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection(
        CollectionSchema::new("docs", 4, Metric::Euclidean)
            .column("body", AttrType::Str)
            .text_index("body"),
        IndexSpec::Flat,
    )
    .unwrap();
    for (i, body) in [
        "vector search engine",
        "text ranking notes",
        "fusion of rankings",
    ]
    .iter()
    .enumerate()
    {
        db.collection_mut("docs")
            .unwrap()
            .insert(
                i as u64,
                &[i as f32, 0.0, 0.0, 1.0],
                &[("body", AttrValue::Str((*body).to_string()))],
            )
            .unwrap();
    }
    let handle = serve(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect(handle.addr()).unwrap();

    // FUSE without MATCH: blamed at the FUSE keyword, position intact
    // across the encode/decode round trip.
    let bad = "SEARCH docs K 3 NEAR [1, 0, 0, 1] FUSE rrf 60";
    match client.vql(bad) {
        Err(Error::ParseAt { msg, pos }) => {
            assert_eq!(pos, bad.find("FUSE").unwrap(), "{msg}");
            assert!(msg.contains("MATCH"), "{msg}");
        }
        other => panic!("expected ParseAt over the wire, got {other:?}"),
    }
    // Unquoted MATCH argument: blamed at the argument.
    let bad = "SEARCH docs K 3 NEAR [1, 0, 0, 1] MATCH unquoted";
    match client.vql(bad) {
        Err(Error::ParseAt { pos, .. }) => {
            assert_eq!(pos, bad.find("unquoted").unwrap())
        }
        other => panic!("expected ParseAt over the wire, got {other:?}"),
    }
    // Malformed fusion parameter: convex alpha out of range.
    let bad = "SEARCH docs K 3 NEAR [1, 0, 0, 1] MATCH 'text' FUSE convex 1.5";
    match client.vql(bad) {
        Err(Error::ParseAt { pos, .. }) => assert_eq!(pos, bad.find("1.5").unwrap()),
        other => panic!("expected ParseAt over the wire, got {other:?}"),
    }

    // The same connection still serves a well-formed hybrid statement.
    let out = client
        .vql("SEARCH docs K 2 NEAR [1, 0, 0, 1] MATCH 'ranking text' FUSE rrf 60 HYBRID fused")
        .unwrap();
    match out {
        VqlOutput::FusedHits(result) => {
            assert_eq!(result.hits.len(), 2);
            assert!(result.hits.iter().any(|h| h.key == 1), "{result:?}");
        }
        other => panic!("expected FusedHits, got {other:?}"),
    }
    handle.shutdown();
}

/// `docs` with an integer `price` column equal to each row's key, merged
/// into the main part so predicates run on the indexed columns.
fn priced_db(n: u64) -> Vdbms {
    use vdb_core::attr::{AttrType, AttrValue};
    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection(
        CollectionSchema::new("docs", 4, Metric::Euclidean).column("price", AttrType::Int),
        IndexSpec::Flat,
    )
    .unwrap();
    let c = db.collection_mut("docs").unwrap();
    for i in 0..n {
        c.insert(
            i,
            &[i as f32, 0.0, 0.0, 0.0],
            &[("price", AttrValue::Int(i as i64))],
        )
        .unwrap();
    }
    c.merge().unwrap();
    db
}

/// A client that gives up after a few seconds instead of hanging, so a
/// request stuck behind a lock fails the test rather than stalling it.
fn impatient_client(handle: &vdb_server::ServerHandle) -> Client {
    let cfg = vdb_server::ClientConfig {
        read_timeout: Duration::from_secs(3),
        ..vdb_server::ClientConfig::default()
    };
    Client::connect_with(handle.addr(), cfg).unwrap()
}

fn vql_keys(client: &Client, statement: &str) -> Vec<u64> {
    match client.vql(statement) {
        Ok(VqlOutput::Hits(hits)) => hits.iter().map(|h| h.key).collect(),
        other => panic!("{statement}: expected hits, got {other:?}"),
    }
}

/// VQL reads run under the shared lock: two connections search with
/// predicates concurrently and get exact answers, and a search completes
/// while another reader holds the lock.
#[test]
fn concurrent_vql_searches_with_predicates_share_the_read_lock() {
    let handle = serve(priced_db(300), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let clients = [impatient_client(&handle), impatient_client(&handle)];
    std::thread::scope(|s| {
        for (c, client) in clients.iter().enumerate() {
            s.spawn(move || {
                for i in 0..40u64 {
                    let t = (i * 7 + c as u64 * 13) % 290;
                    // Nearest rows to t + 0.3 priced at least t + 1.
                    let stmt = format!(
                        "SEARCH docs K 3 NEAR [{}.3, 0, 0, 0] WHERE price >= {}",
                        t,
                        t + 1
                    );
                    assert_eq!(vql_keys(client, &stmt), vec![t + 1, t + 2, t + 3]);
                    let stmt = format!(
                        "SEARCH docs K 5 NEAR [{t}, 0, 0, 0] WHERE price BETWEEN {} AND {}",
                        t.saturating_sub(1),
                        t + 1
                    );
                    let mut want: Vec<u64> = (t.saturating_sub(1)..=t + 1).collect();
                    want.sort_by_key(|&k| (k.abs_diff(t), k));
                    assert_eq!(vql_keys(client, &stmt), want);
                }
            });
        }
    });
    // Another reader holds the database: a VQL read still answers.
    let keys = handle.with_db(|_| {
        vql_keys(
            &clients[0],
            "SEARCH docs K 2 NEAR [10, 0, 0, 0] WHERE price < 10",
        )
    });
    assert_eq!(keys, vec![9, 8]);
    handle.shutdown();
}

/// A VQL write needs no exclusion from readers: an INSERT completes while
/// another reader holds the database, and what it changes is visible to
/// the next VQL search.
#[test]
fn vql_insert_completes_while_a_reader_holds_the_database() {
    let handle = serve(priced_db(50), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = impatient_client(&handle);
    let search = "SEARCH docs K 2 NEAR [100, 0, 0, 0] WHERE price > 40";
    assert_eq!(vql_keys(&client, search), vec![49, 48]);

    let inserted = handle
        .with_db(|_| client.vql("INSERT INTO docs KEY 99 VALUES [99, 0, 0, 0] SET price = 99"));
    assert!(matches!(inserted, Ok(VqlOutput::Done)), "{inserted:?}");
    assert_eq!(vql_keys(&client, search), vec![99, 49]);

    assert!(matches!(
        client.vql("DELETE FROM docs KEY 99").unwrap(),
        VqlOutput::Done
    ));
    assert_eq!(vql_keys(&client, search), vec![49, 48]);
    match client.vql("COUNT docs").unwrap() {
        VqlOutput::Count(n) => assert_eq!(n, 50),
        other => panic!("expected count, got {other:?}"),
    }
    handle.shutdown();
}

/// A malformed statement is answered before any lock is taken: it comes
/// back while the database is held exclusively.
#[test]
fn vql_parse_error_is_answered_without_taking_a_lock() {
    let handle = serve(priced_db(10), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = impatient_client(&handle);
    for bad in ["FROB docs", "SEARCH docs K 1 NEAR [1, 0, 0, 0] WHERE"] {
        let answer = handle.with_db_mut(|_| client.vql(bad));
        assert!(
            matches!(answer, Err(vdb_core::Error::ParseAt { .. })),
            "{bad}: {answer:?}"
        );
    }
    handle.shutdown();
}
