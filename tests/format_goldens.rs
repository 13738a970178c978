//! Format goldens: the committed bytes of every persisted and shipped
//! format. Each line of `tests/golden/formats.txt` is `<case> <hex>`;
//! encoding the case's literal value must give exactly that hex, and
//! decoding the hex must give the value back. A failure means the encoder
//! and the decoder no longer agree with bytes already on disk or on the
//! wire, so a format change must be one-sided: the message names each
//! case and prints its actual line.
//!
//! The wire protocol's messages are checked against the same file by
//! `vdb-server`'s protocol tests.

use std::collections::BTreeMap;
use vdb_core::{AttrType, AttrValue, Metric, VectorIndex, Vectors};
use vdb_distributed::{ClusterManifest, ShardRoute};
use vdb_index_graph::{HnswConfig, HnswIndex};
use vdb_query::TextIndex;
use vdb_storage::snapshot::{self, Checkpoint};
use vdb_storage::{decode_shipped, ship_record, Snapshot, SnapshotColumn, TempDir, Wal, WalRecord};

const FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/formats.txt");

fn goldens() -> BTreeMap<String, Vec<u8>> {
    let text = std::fs::read_to_string(FILE).expect("tests/golden/formats.txt is committed");
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (case, hex) = l.split_once(' ').expect("`<case> <hex>` line");
            (case.to_string(), unhex(hex))
        })
        .collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Check each case's encoding against its recorded line and return the
/// recorded bytes; panics with the actual line of every mismatching case.
fn check(cases: &[(&str, Vec<u8>)]) -> BTreeMap<String, Vec<u8>> {
    let recorded = goldens();
    let wrong: Vec<String> = cases
        .iter()
        .filter(|(case, bytes)| recorded.get(*case) != Some(bytes))
        .map(|(case, bytes)| format!("{case} {}", hex(bytes)))
        .collect();
    assert!(
        wrong.is_empty(),
        "encodings differ from tests/golden/formats.txt; actual lines:\n{}",
        wrong.join("\n")
    );
    recorded
}

fn wal_bytes(records: &[WalRecord]) -> Vec<u8> {
    let dir = TempDir::new("golden-wal").unwrap();
    let path = dir.file("log.wal");
    let mut wal = Wal::open(&path).unwrap();
    for r in records {
        wal.append(r).unwrap();
    }
    wal.sync().unwrap();
    std::fs::read(&path).unwrap()
}

fn wal_replay(bytes: &[u8]) -> Vec<WalRecord> {
    let dir = TempDir::new("golden-wal-replay").unwrap();
    let path = dir.file("log.wal");
    std::fs::write(&path, bytes).unwrap();
    Wal::replay(&path).unwrap()
}

fn every_attr_insert() -> WalRecord {
    WalRecord::Insert {
        key: 0x0102_0304_0506_0708,
        vector: vec![1.0, -0.5, 3.25],
        attrs: vec![
            ("none".into(), AttrValue::Null),
            ("count".into(), AttrValue::Int(-42)),
            ("price".into(), AttrValue::Float(9.75)),
            ("brand".into(), AttrValue::Str("acmé".into())),
            ("stock".into(), AttrValue::Bool(true)),
        ],
    }
}

#[test]
fn wal_records() {
    let delete = WalRecord::Delete { key: 77 };
    let recorded = check(&[
        ("wal.v2_insert", wal_bytes(&[every_attr_insert()])),
        ("wal.delete", wal_bytes(std::slice::from_ref(&delete))),
    ]);
    assert_eq!(
        wal_replay(&recorded["wal.v2_insert"]),
        [every_attr_insert()]
    );
    assert_eq!(wal_replay(&recorded["wal.delete"]), [delete]);
    // Logs from before attributes existed: hand-made, decode only.
    assert_eq!(
        wal_replay(&recorded["wal.v1_insert"]),
        [WalRecord::Insert {
            key: 5,
            vector: vec![1.5, -2.0],
            attrs: Vec::new(),
        }]
    );
}

#[test]
fn shipped_stream() {
    let records = [(7, every_attr_insert()), (8, WalRecord::Delete { key: 77 })];
    let mut stream = Vec::new();
    for (lsn, r) in &records {
        ship_record(&mut stream, *lsn, r);
    }
    let recorded = check(&[("shipped.two_records", stream)]);
    let back: Vec<(u64, WalRecord)> = decode_shipped(&recorded["shipped.two_records"])
        .unwrap()
        .into_iter()
        .map(|s| (s.lsn, s.record))
        .collect();
    assert_eq!(back, records);
}

fn two_row_snapshot() -> Snapshot {
    let mut vectors = Vectors::new(2);
    vectors.push(&[0.5, -1.0]).unwrap();
    vectors.push(&[2.0, 4.5]).unwrap();
    let column = |name: &str, ty, values| SnapshotColumn {
        name: name.into(),
        ty,
        values,
    };
    Snapshot {
        fingerprint: "hnsw:00c0ffee".into(),
        row_keys: vec![10, 11],
        vectors,
        columns: vec![
            column(
                "count",
                AttrType::Int,
                vec![AttrValue::Int(3), AttrValue::Null],
            ),
            column(
                "price",
                AttrType::Float,
                vec![AttrValue::Float(1.25), AttrValue::Float(-8.0)],
            ),
            column(
                "brand",
                AttrType::Str,
                vec![AttrValue::Null, AttrValue::Str("zed".into())],
            ),
            column(
                "stock",
                AttrType::Bool,
                vec![AttrValue::Bool(false), AttrValue::Bool(true)],
            ),
        ],
        text: None,
    }
}

#[test]
fn snapshots() {
    let plain = Checkpoint::from(two_row_snapshot());
    let mut sections = plain.clone();
    sections.snapshot.text = Some(vec![0xDE, 0xAD, 0xBE, 0xEF]);
    sections.index = Some(vec![1, 2, 3, 4, 5, 6, 7]);
    let recorded = check(&[
        ("snapshot.plain", snapshot::encode(&plain).unwrap()),
        ("snapshot.text_index", snapshot::encode(&sections).unwrap()),
    ]);
    assert_eq!(
        snapshot::decode(&recorded["snapshot.plain"]).unwrap(),
        plain
    );
    assert_eq!(
        snapshot::decode(&recorded["snapshot.text_index"]).unwrap(),
        sections
    );
}

#[test]
fn manifest() {
    let manifest = ClusterManifest {
        version: 3,
        collection: "docs".into(),
        shards: vec![
            ShardRoute {
                primary: "10.0.0.1:7070".into(),
                replicas: vec!["10.0.0.2:7070".into(), "10.0.0.3:7070".into()],
            },
            ShardRoute {
                primary: "10.0.0.2:7070".into(),
                replicas: Vec::new(),
            },
        ],
    };
    let recorded = check(&[("manifest", manifest.encode())]);
    assert_eq!(
        ClusterManifest::decode(&recorded["manifest"]).unwrap(),
        manifest
    );
}

#[test]
fn text_index() {
    let mut index = TextIndex::with_stopwords(["the", "a"]);
    index.push_doc("The quick brown fox");
    index.push_doc("a lazy dog and the quick cat");
    index.push_doc("");
    index.push_doc("fox fox fox dog");
    let recorded = check(&[("text_index", index.encode())]);
    assert_eq!(TextIndex::decode(&recorded["text_index"]).unwrap(), index);
}

/// Twelve rows in the plane; the image over them is only reloaded and
/// re-encoded here, so no distance kernel runs.
fn hnsw_rows() -> Vectors {
    let mut vectors = Vectors::new(2);
    for i in 0..12 {
        vectors.push(&[i as f32, ((i * i) % 7) as f32]).unwrap();
    }
    vectors
}

fn hnsw_config() -> HnswConfig {
    HnswConfig {
        m: 4,
        ..HnswConfig::default()
    }
}

#[test]
fn hnsw_image() {
    let image = &goldens()["hnsw.image"];
    let index = HnswIndex::from_image(image, hnsw_rows(), Metric::Euclidean, hnsw_config())
        .expect("the golden image loads");
    assert_eq!(index.len(), 12);
    check(&[("hnsw.image", index.image().expect("hnsw has an image"))]);
}
