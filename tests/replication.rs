//! The replicated write path, end to end: WAL shipping with idempotent
//! LSN apply, torn-stream prefix semantics at the collection level,
//! snapshot + tail bootstrap under concurrent writes (bit-identical
//! convergence), and the headline crash drill — kill the primary under
//! load, promote a replica via the cluster manifest, and prove that no
//! acknowledged write was lost and routing recovers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vdb::{CollectionSchema, IndexSpec, SystemProfile, Vdbms};
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::sync::Mutex;
use vdb_core::Metric;
use vdb_distributed::ClusterManifest;
use vdb_server::{
    attach_primary, serve, Client, ClusterClient, ReplicationConfig, Request, Response,
    ServerConfig,
};
use vdb_storage::decode_shipped;

fn schema(name: &str) -> CollectionSchema {
    CollectionSchema::new(name, 4, Metric::Euclidean).column("tag", AttrType::Int)
}

fn fresh_db(collection: &str) -> Vdbms {
    let mut db = Vdbms::new(SystemProfile::MostlyVector);
    db.create_collection(schema(collection), IndexSpec::Flat)
        .unwrap();
    db
}

fn vector_of(key: u64) -> Vec<f32> {
    vec![
        key as f32,
        (key % 7) as f32 * 0.5,
        -(key as f32) * 0.25,
        1.0,
    ]
}

/// Every mutation a primary acknowledges flows through its sink as one
/// shipped frame. Capture the stream, then cut it at EVERY byte offset
/// and apply to a fresh replica: the replica must hold exactly the
/// state of the record prefix that survived — never an error, never a
/// partial record, never a panic. This is `wal_torn_tail.rs` lifted to
/// the replication layer.
#[test]
fn torn_replication_stream_applies_exact_prefix_at_every_offset() {
    let mut primary = fresh_db("docs");
    let stream = Arc::new(Mutex::new(Vec::<u8>::new()));
    {
        let sink_stream = Arc::clone(&stream);
        primary
            .collection("docs")
            .unwrap()
            .set_replication_sink(Some(Arc::new(move |_lsn, frame: &[u8]| {
                sink_stream.lock().extend_from_slice(frame);
                Ok(())
            })));
    }
    let c = primary.collection_mut("docs").unwrap();
    for key in 0..8u64 {
        c.insert(key, &vector_of(key), &[("tag", AttrValue::Int(key as i64))])
            .unwrap();
    }
    c.delete(3).unwrap();
    c.delete(6).unwrap();
    c.insert(3, &vector_of(103), &[]).unwrap();
    let full = stream.lock().clone();
    assert_eq!(c.replication_lsn(), 11, "8 inserts + 2 deletes + 1 insert");

    // Model the expected state per record prefix from the decoded
    // stream itself (the codec's own sweep lives in vdb-storage; here
    // we trust decode on the FULL stream and check collection state).
    let records = decode_shipped(&full).unwrap();
    assert_eq!(records.len(), 11);
    let mut frame_ends = Vec::new();
    let mut off = 0usize;
    while off + 8 <= full.len() {
        let len = u32::from_le_bytes(full[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        frame_ends.push(off);
    }
    assert_eq!(frame_ends.len(), 11);

    for cut in 0..=full.len() {
        let n_records = frame_ends.iter().filter(|&&e| e <= cut).count();
        let mut replica = fresh_db("docs");
        let rc = replica.collection_mut("docs").unwrap();
        let lsn = rc
            .apply_replication_stream(&full[..cut])
            .unwrap_or_else(|e| panic!("apply failed at cut {cut}: {e}"));
        assert_eq!(lsn, n_records as u64, "cut {cut}: wrong LSN");
        let mut model: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
        for shipped in &records[..n_records] {
            match &shipped.record {
                vdb_storage::WalRecord::Insert { key, vector, .. } => {
                    model.insert(*key, vector.clone());
                }
                vdb_storage::WalRecord::Delete { key } => {
                    model.remove(key);
                }
            }
        }
        let mut keys = rc.keys();
        keys.sort_unstable();
        assert_eq!(
            keys,
            model.keys().copied().collect::<Vec<_>>(),
            "cut {cut}: live key set diverged"
        );
        for (key, vector) in &model {
            assert_eq!(
                rc.get(*key).as_deref(),
                Some(vector.as_slice()),
                "cut {cut}: vector bytes diverged for key {key}"
            );
        }
        // Idempotence: re-applying the same prefix is a no-op.
        assert_eq!(rc.apply_replication_stream(&full[..cut]).unwrap(), lsn);
    }
}

/// Duplicate and gap detection at the record level: at-or-below LSNs
/// are skipped, jumps ahead are refused (the replica must re-bootstrap,
/// not silently hold a hole).
#[test]
fn lsn_rules_skip_duplicates_and_refuse_gaps() {
    let mut db = fresh_db("docs");
    let stream = Arc::new(Mutex::new(Vec::<u8>::new()));
    {
        let sink_stream = Arc::clone(&stream);
        db.collection("docs")
            .unwrap()
            .set_replication_sink(Some(Arc::new(move |_l, f: &[u8]| {
                sink_stream.lock().extend_from_slice(f);
                Ok(())
            })));
    }
    let c = db.collection_mut("docs").unwrap();
    for key in 0..4u64 {
        c.insert(key, &vector_of(key), &[]).unwrap();
    }
    let full = stream.lock().clone();
    let records = decode_shipped(&full).unwrap();

    let mut replica = fresh_db("docs");
    let rc = replica.collection_mut("docs").unwrap();
    assert!(rc.apply_replicated(1, &records[0].record).unwrap());
    assert!(
        !rc.apply_replicated(1, &records[0].record).unwrap(),
        "duplicate LSN must be skipped, not re-applied"
    );
    assert!(
        rc.apply_replicated(3, &records[2].record).is_err(),
        "a gap (replica at 1, record 3) must be refused"
    );
    assert!(rc.apply_replicated(2, &records[1].record).unwrap());
    assert_eq!(rc.replication_lsn(), 2);
}

/// Bootstrap under fire: a replica attaches WHILE the primary is taking
/// writes. The snapshot/tail export and the sink installation happen
/// under one lock, so every write lands either in the bootstrap payload
/// or in the shipped stream — afterwards the two nodes must hold
/// bit-identical collection state (same keys, same f32 bits, same
/// attributes, same LSN).
#[test]
fn replica_bootstrap_during_writes_is_bit_identical() {
    let primary = serve(fresh_db("docs"), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let replica = serve(
        Vdbms::new(SystemProfile::MostlyVector),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let primary_client = Client::connect(primary.addr()).unwrap();

    // Seed some pre-attach history.
    for key in 0..64u64 {
        primary_client
            .insert(
                "docs",
                key,
                &vector_of(key),
                &[("tag", AttrValue::Int(key as i64))],
            )
            .unwrap();
    }

    // Writer hammers the primary while the replica bootstraps.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        let client = Client::connect(primary.addr()).unwrap();
        std::thread::spawn(move || {
            let mut key = 1000u64;
            while !stop.load(Ordering::SeqCst) {
                // During the bootstrap window (sink installed, link not
                // yet attached) an insert applies locally but fails its
                // replication ack — tolerated here; convergence is
                // checked against the primary's actual final state.
                let _ = client.insert("docs", key, &vector_of(key), &[]);
                if key.is_multiple_of(5) {
                    let _ = client.delete("docs", key - 3);
                }
                key += 1;
            }
            key
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(30));
    let replica_addr = replica.addr().to_string();
    let replicator = attach_primary(
        &primary,
        "docs",
        &[replica_addr],
        ReplicationConfig::default(),
    )
    .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();

    let states = replicator.replica_states();
    assert_eq!(states.len(), 1);
    assert!(states[0].2, "replica must be live after bootstrap");

    // Pull-path cross-check: both nodes report the same LSN over the
    // wire, and the replica can serve a bootstrap payload itself.
    let replica_client = Client::connect(replica.addr()).unwrap();
    let p_lsn = primary_client.repl_status("docs").unwrap();
    let r_lsn = replica_client.repl_status("docs").unwrap();
    assert_eq!(p_lsn, r_lsn, "replica must be caught up once writes stop");
    let payload = replica_client.repl_snapshot("docs").unwrap();
    assert_eq!(payload.lsn, r_lsn);
    assert_eq!(payload.dim, 4);

    // Bit-identical convergence, checked in-process after shutdown.
    let p_db = primary.shutdown();
    let r_db = replica.shutdown();
    let p = p_db.collection("docs").unwrap();
    let r = r_db.collection("docs").unwrap();
    let mut p_keys = p.keys();
    let mut r_keys = r.keys();
    p_keys.sort_unstable();
    r_keys.sort_unstable();
    assert_eq!(p_keys, r_keys, "live key sets diverged");
    assert!(p_keys.len() > 64, "writer traffic must have landed");
    for key in p_keys {
        let pv = p.get(key).unwrap();
        let rv = r.get(key).unwrap();
        assert_eq!(
            pv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "vector bits diverged for key {key}"
        );
        assert_eq!(p.get_attrs(key), r.get_attrs(key), "attrs diverged: {key}");
    }
    assert_eq!(p.replication_lsn(), r.replication_lsn());
}

/// A write sent to a non-primary node answers `Redirect` with the
/// shard primary's address instead of applying locally.
#[test]
fn non_primary_node_redirects_writes() {
    let a = serve(fresh_db("docs"), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let b = serve(fresh_db("docs"), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (a_addr, b_addr) = (a.addr().to_string(), b.addr().to_string());
    let manifest = {
        let mut m = ClusterManifest::new("docs", 1, std::slice::from_ref(&a_addr)).unwrap();
        m.shards[0].replicas.push(b_addr.clone());
        m
    };
    a.set_cluster(a_addr.clone(), manifest.clone());
    b.set_cluster(b_addr, manifest);
    let direct = Client::connect(b.addr()).unwrap();
    let resp = direct
        .call(&Request::Insert {
            collection: "docs".into(),
            key: 7,
            vector: vector_of(7),
            attrs: vec![],
        })
        .unwrap();
    match resp {
        Response::Redirect { addr } => assert_eq!(addr, a_addr),
        other => panic!("expected Redirect to the primary, got {other:?}"),
    }
    a.shutdown();
    b.shutdown();
}

/// The headline drill: writes flow through a `ClusterClient` while the
/// primary is killed mid-stream; a coordinator promotes the replica via
/// the manifest; the client refreshes routing and keeps writing. Every
/// write acknowledged BEFORE, DURING, or AFTER the failover must be on
/// the surviving node with exact bytes — zero lost acked writes.
#[test]
fn kill_primary_under_load_loses_no_acked_write() {
    let primary = serve(fresh_db("docs"), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let replica = serve(
        Vdbms::new(SystemProfile::MostlyVector),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let (p_addr, r_addr) = (primary.addr().to_string(), replica.addr().to_string());
    let manifest = {
        let mut m = ClusterManifest::new("docs", 1, std::slice::from_ref(&p_addr)).unwrap();
        m.shards[0].replicas.push(r_addr.clone());
        m
    };
    primary.set_cluster(p_addr.clone(), manifest.clone());
    replica.set_cluster(r_addr.clone(), manifest.clone());
    // Synchronous replication: an acked write is on the replica.
    attach_primary(
        &primary,
        "docs",
        std::slice::from_ref(&r_addr),
        ReplicationConfig {
            min_acks: 1,
            ..ReplicationConfig::default()
        },
    )
    .unwrap();

    let acked: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let seed = p_addr.clone();
    let writer = {
        let acked = Arc::clone(&acked);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let client = ClusterClient::connect(&seed, "docs").unwrap();
            let mut key = 0u64;
            while !stop.load(Ordering::SeqCst) {
                if client
                    .insert(key, &vector_of(key), &[("tag", AttrValue::Int(key as i64))])
                    .is_ok()
                {
                    acked.lock().push(key);
                }
                key += 1;
            }
        })
    };

    // Let load build, then kill the primary and promote the replica.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let killed_at = acked.lock().len();
    assert!(killed_at > 0, "some writes must be acked before the kill");
    primary.shutdown();
    let mut promoted = manifest.clone();
    let new_primary = promoted.promote(0).unwrap();
    assert_eq!(new_primary, r_addr);
    Client::connect(replica.addr())
        .unwrap()
        .manifest_put(&promoted)
        .unwrap();

    // Writes must start succeeding again (failover recovery).
    let resumed_from = acked.lock().len();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while acked.lock().len() < resumed_from + 20 {
        assert!(
            std::time::Instant::now() < deadline,
            "writes never recovered after failover"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();

    // THE invariant: every acknowledged write is on the survivor,
    // bit-exact. (Un-acked writes may or may not be present — keyed
    // retries make that safe — but acked ones have no excuse.)
    let survivor = replica.shutdown();
    let c = survivor.collection("docs").unwrap();
    let acked = acked.lock();
    for &key in acked.iter() {
        let got = c
            .get(key)
            .unwrap_or_else(|| panic!("ACKED write {key} lost in failover"));
        assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            vector_of(key)
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "acked write {key} corrupted in failover"
        );
        assert_eq!(
            c.get_attrs(key).unwrap().as_slice(),
            &[("tag".to_string(), AttrValue::Int(key as i64))],
            "acked attrs {key} lost in failover"
        );
    }
    assert!(
        acked.len() > killed_at,
        "no write was ever acked after the kill: failover did not recover"
    );
}
