//! Protocol robustness: every message type survives the framed
//! transport; every torn, oversized, or corrupted frame is rejected
//! cleanly — and a live server answers wire garbage with a typed
//! protocol error instead of hanging or crashing.
//!
//! Mirrors the `wal_torn_tail` durability test: the wire, like the WAL,
//! must treat every possible truncation point as a first-class input.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use vdb::{CollectionSchema, IndexSpec, SystemProfile, Vdbms};
use vdb_core::attr::AttrValue;
use vdb_core::error::Error;
use vdb_core::index::SearchParams;
use vdb_core::metric::Metric;
use vdb_server::wire;
use vdb_server::{serve, ErrorCode, Request, Response, ServerConfig};

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Insert {
            collection: "docs".into(),
            key: 42,
            vector: vec![1.0, -2.5, 3.25],
            attrs: vec![
                ("brand".into(), AttrValue::Str("acme".into())),
                ("price".into(), AttrValue::Int(-7)),
                ("rating".into(), AttrValue::Float(4.5)),
                ("in_stock".into(), AttrValue::Bool(true)),
                ("note".into(), AttrValue::Null),
            ],
        },
        Request::Delete {
            collection: "docs".into(),
            key: 7,
        },
        Request::Search {
            collection: "docs".into(),
            k: 10,
            params: SearchParams::default().with_timeout(Duration::from_millis(250)),
            query: vec![0.25; 8],
        },
        Request::SearchBatch {
            collection: "docs".into(),
            k: 3,
            params: SearchParams::default().with_beam_width(128).with_nprobe(4),
            queries: vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![]],
        },
        Request::Vql {
            statement: "SEARCH docs K 5 NEAR [1, 2, 3] WHERE brand = 'acme'".into(),
        },
        Request::Checkpoint {
            collection: String::new(),
        },
        Request::Stats {
            collection: "docs".into(),
        },
        Request::ServerStats,
        Request::Shutdown,
    ]
}

fn sample_responses() -> Vec<Response> {
    use vdb::SearchHit;
    use vdb_server::{ServerStatsSnapshot, WireCollectionStats};
    vec![
        Response::Pong,
        Response::Done,
        Response::Hits(vec![
            SearchHit { key: 1, dist: 0.5 },
            SearchHit { key: 2, dist: 1.5 },
        ]),
        Response::HitsBatch(vec![vec![SearchHit { key: 9, dist: 0.0 }], vec![]]),
        Response::Count(12345),
        Response::Stats(WireCollectionStats {
            live: 10,
            indexed: 8,
            buffered: 2,
            merges: 1,
            index_name: "hnsw".into(),
            merge_threshold: 512,
            max_buffer: 2048,
            merge_mode: "background".into(),
            rebuilds_in_flight: 1,
            last_swap_micros: 42,
            failed_merges: 0,
        }),
        Response::ServerStats(ServerStatsSnapshot {
            served: 100,
            batches: 5,
            coalesced: 17,
            busy: 3,
            rate_limited: 2,
            deadline_expired: 1,
            protocol_errors: 1,
            connections: 9,
            open_connections: 4,
            reaped: 2,
            interactive_depth: 3,
            bulk_depth: 1,
            qps: 4200,
            p50_us: 512,
            p99_us: 8192,
            merges: 7,
            buffered: 130,
            rebuilds_in_flight: 1,
            last_swap_micros: 250,
            failed_merges: 0,
            cache_hits: 800,
            cache_misses: 20,
            repl_links: vec![vdb_server::WireReplLink {
                addr: "10.0.0.9:7071".into(),
                lag: 3,
                live: true,
            }],
        }),
        Response::Busy,
        Response::Error {
            code: ErrorCode::NotFound,
            message: "collection `ghosts`".into(),
            pos: 0,
        },
        Response::Error {
            code: ErrorCode::Parse,
            message: "expected K".into(),
            pos: 12,
        },
    ]
}

/// Frame a payload into bytes the way `write_frame` puts them on a
/// socket.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame(&mut out, payload).unwrap();
    out
}

#[test]
fn every_message_type_roundtrips_through_framing() {
    for req in sample_requests() {
        let bytes = framed(&req.encode());
        let mut cursor: &[u8] = &bytes;
        let payload = wire::read_frame(&mut cursor, wire::MAX_FRAME)
            .unwrap()
            .expect("frame present");
        assert_eq!(Request::decode(&payload).unwrap(), req);
        assert!(cursor.is_empty(), "frame must consume exactly its bytes");
    }
    for resp in sample_responses() {
        let bytes = framed(&resp.encode());
        let mut cursor: &[u8] = &bytes;
        let payload = wire::read_frame(&mut cursor, wire::MAX_FRAME)
            .unwrap()
            .expect("frame present");
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }
    // Servers that ran the retired thread-per-connection core sent 0 in
    // the connection-core byte (opcode + 15 u64 counters in); their
    // stats payloads must still decode.
    let stats = sample_responses()
        .into_iter()
        .find(|r| matches!(r, Response::ServerStats(_)))
        .unwrap();
    let mut payload = stats.encode();
    assert_eq!(payload[1 + 15 * 8], 1, "the slot carries 1 today");
    payload[1 + 15 * 8] = 0;
    assert_eq!(Response::decode(&payload).unwrap(), stats);
}

#[test]
fn torn_frame_at_every_byte_offset_rejected_cleanly() {
    for req in sample_requests() {
        let bytes = framed(&req.encode());
        // Cut 0 bytes = clean EOF (Ok(None)); every other prefix is torn.
        for cut in 0..bytes.len() {
            let mut cursor: &[u8] = &bytes[..cut];
            let outcome = wire::read_frame(&mut cursor, wire::MAX_FRAME);
            if cut == 0 {
                assert!(
                    matches!(outcome, Ok(None)),
                    "empty stream must read as clean EOF"
                );
            } else {
                assert!(
                    outcome.is_err(),
                    "torn frame (cut at {cut}/{}) must be rejected, got {outcome:?}",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn torn_payload_at_every_byte_offset_rejected_by_decode() {
    // Even when the frame arrives intact, a truncated or padded message
    // body must never decode into a half-parsed request.
    for req in sample_requests() {
        let payload = req.encode();
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "truncated body (cut at {cut}) must be rejected"
            );
        }
        let mut padded = payload.clone();
        padded.push(0xAB);
        assert!(
            Request::decode(&padded).is_err(),
            "trailing bytes must be rejected"
        );
    }
    for resp in sample_responses() {
        let payload = resp.encode();
        for cut in 0..payload.len() {
            assert!(
                Response::decode(&payload[..cut]).is_err(),
                "truncated body (cut at {cut}) must be rejected"
            );
        }
    }
}

fn fixture_server() -> vdb_server::ServerHandle {
    let mut db = Vdbms::new(SystemProfile::MostlyVector);
    db.create_collection(
        CollectionSchema::new("docs", 3, Metric::Euclidean),
        IndexSpec::Flat,
    )
    .unwrap();
    for i in 0..8u64 {
        db.collection_mut("docs")
            .unwrap()
            .insert(i, &[i as f32, 0.0, 0.0], &[])
            .unwrap();
    }
    serve(db, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

fn raw_conn(handle: &vdb_server::ServerHandle) -> TcpStream {
    let conn = TcpStream::connect_timeout(&handle.addr(), Duration::from_secs(1)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn
}

fn expect_protocol_error(conn: &mut TcpStream) {
    let payload = wire::read_frame(conn, wire::MAX_FRAME)
        .unwrap()
        .expect("server must answer before closing");
    match Response::decode(&payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
}

#[test]
fn live_server_answers_flipped_crc_with_protocol_error() {
    let handle = fixture_server();
    let mut conn = raw_conn(&handle);
    let mut bytes = framed(&Request::Ping.encode());
    *bytes.last_mut().unwrap() ^= 0x01; // corrupt the payload under the CRC
    conn.write_all(&bytes).unwrap();
    expect_protocol_error(&mut conn);
    assert!(handle.stats().protocol_errors >= 1);
    handle.shutdown();
}

#[test]
fn live_server_answers_oversized_length_with_protocol_error() {
    let handle = fixture_server();
    let mut conn = raw_conn(&handle);
    let mut bytes = framed(&Request::Ping.encode());
    // Claim a payload far past MAX_FRAME; the server must refuse to
    // allocate or read it.
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    conn.write_all(&bytes).unwrap();
    expect_protocol_error(&mut conn);
    handle.shutdown();
}

#[test]
fn live_server_answers_bad_magic_with_protocol_error() {
    let handle = fixture_server();
    let mut conn = raw_conn(&handle);
    conn.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    expect_protocol_error(&mut conn);
    handle.shutdown();
}

#[test]
fn live_server_answers_malformed_body_and_keeps_connection() {
    let handle = fixture_server();
    let mut conn = raw_conn(&handle);
    // A perfectly framed payload with an unknown opcode: the frame is
    // intact, so the connection survives and the next request works.
    conn.write_all(&framed(&[0x77, 1, 2, 3])).unwrap();
    expect_protocol_error(&mut conn);
    conn.write_all(&framed(&Request::Ping.encode())).unwrap();
    let payload = wire::read_frame(&mut conn, wire::MAX_FRAME)
        .unwrap()
        .expect("connection must survive a malformed body");
    assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);
    handle.shutdown();
}

#[test]
fn clean_disconnect_mid_frame_does_not_wedge_server() {
    let handle = fixture_server();
    {
        let mut conn = raw_conn(&handle);
        let bytes = framed(&Request::Ping.encode());
        conn.write_all(&bytes[..bytes.len() / 2]).unwrap();
        // Drop: the peer vanishes mid-frame.
    }
    // The server must still answer a fresh, well-formed connection.
    let mut conn = raw_conn(&handle);
    conn.write_all(&framed(&Request::Ping.encode())).unwrap();
    let payload = wire::read_frame(&mut conn, wire::MAX_FRAME)
        .unwrap()
        .expect("server must still serve after a torn peer");
    assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);
    handle.shutdown();
}

/// Slow-loris defense: hundreds of connections
/// that trickle a partial frame one byte at a time (or send nothing at
/// all) must not block real clients, and the frame/idle timeouts must
/// reap every one of them.
#[test]
fn slow_loris_trickle_is_reaped_and_does_not_block_other_clients() {
    let mut db = Vdbms::new(SystemProfile::MostlyVector);
    db.create_collection(
        CollectionSchema::new("docs", 3, Metric::Euclidean),
        IndexSpec::Flat,
    )
    .unwrap();
    for i in 0..8u64 {
        db.collection_mut("docs")
            .unwrap()
            .insert(i, &[i as f32, 0.0, 0.0], &[])
            .unwrap();
    }
    let handle = serve(
        db,
        "127.0.0.1:0",
        ServerConfig {
            frame_timeout: Duration::from_millis(400),
            idle_timeout: Duration::from_millis(800),
            idle_tick: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let attack_start = std::time::Instant::now();
    let frame = framed(&Request::Ping.encode());
    // 120 tricklers start a frame and dribble it; 80 idlers connect and
    // go silent.
    let mut tricklers: Vec<TcpStream> = Vec::new();
    let mut idlers: Vec<TcpStream> = Vec::new();
    for i in 0..200 {
        let conn = TcpStream::connect_timeout(&handle.addr(), Duration::from_secs(2))
            .expect("accepts must not fail under connection load");
        if i % 5 < 3 {
            tricklers.push(conn);
        } else {
            idlers.push(conn);
        }
    }
    for conn in &mut tricklers {
        conn.write_all(&frame[..1]).ok();
    }
    // While the attackers dangle, a real client must be served promptly.
    let victim_start = std::time::Instant::now();
    let mut victim = raw_conn(&handle);
    for i in 0..5u64 {
        let req = Request::Search {
            collection: "docs".into(),
            k: 1,
            params: SearchParams::default(),
            query: vec![i as f32 + 0.1, 0.0, 0.0],
        };
        victim.write_all(&framed(&req.encode())).unwrap();
        let payload = wire::read_frame(&mut victim, wire::MAX_FRAME)
            .unwrap()
            .expect("victim must get a response during the attack");
        match Response::decode(&payload).unwrap() {
            Response::Hits(hits) => assert_eq!(hits[0].key, i),
            other => panic!("expected hits, got {other:?}"),
        }
    }
    assert!(
        victim_start.elapsed() < Duration::from_secs(3),
        "victim searches took {:?} behind 200 slow-loris connections",
        victim_start.elapsed()
    );
    // Keep trickling: the frame timeout is an absolute budget, so more
    // bytes must not extend a trickler's life.
    for byte in 2..4 {
        std::thread::sleep(Duration::from_millis(150));
        for conn in &mut tricklers {
            conn.write_all(&frame[byte - 1..byte]).ok();
        }
    }
    // Past both deadlines (frame 400ms, idle 800ms) everyone should be
    // reaped; poll with a generous allowance for scheduler contention.
    let reap_deadline = attack_start + Duration::from_secs(15);
    loop {
        let reaped = handle.stats().reaped;
        if reaped >= 200 {
            break;
        }
        assert!(
            std::time::Instant::now() < reap_deadline,
            "server reaped only {reaped} of 200 attackers"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    for mut conn in tricklers.into_iter().chain(idlers) {
        conn.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        let mut sink = [0u8; 16];
        use std::io::Read;
        match conn.read(&mut sink) {
            Ok(0) | Err(_) => {} // FIN or RST: the server hung up
            Ok(n) => panic!("reaped connection unexpectedly received {n} bytes"),
        }
    }
    // And the server still serves fresh connections afterwards.
    let mut conn = raw_conn(&handle);
    conn.write_all(&framed(&Request::Ping.encode())).unwrap();
    let payload = wire::read_frame(&mut conn, wire::MAX_FRAME)
        .unwrap()
        .expect("server must serve after reaping the attack");
    assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);
    handle.shutdown();
}

#[test]
fn error_code_mapping_is_stable() {
    // The wire codes are a compatibility surface; pin them.
    assert_eq!(
        ErrorCode::classify(&Error::Corrupt("x".into())),
        ErrorCode::Protocol
    );
    assert_eq!(
        ErrorCode::classify(&Error::NotFound("x".into())),
        ErrorCode::NotFound
    );
    assert_eq!(
        ErrorCode::classify(&Error::DimensionMismatch {
            expected: 3,
            actual: 4
        }),
        ErrorCode::Invalid
    );
    assert_eq!(
        ErrorCode::classify(&Error::Io(std::io::Error::other("x"))),
        ErrorCode::Internal
    );
}
