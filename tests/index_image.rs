//! Recovery without a rebuild: the checkpoint snapshot carries the image
//! of the index the collection served, and recovery (or replica install)
//! loads it instead of building a new one.
//!
//! Answers are compared bit for bit — `(key, dist.to_bits())` per hit —
//! at a small beam, where a different graph gives different answers.
//! `CollectionStats::index_from_image` pins which path ran, so a silent
//! fallback to a rebuild cannot pass a test that expects the image.

use std::path::Path;
use vdb::{Collection, CollectionConfig, CollectionSchema, IndexSpec, MergeMode};
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::{dataset, Metric, Rng, SearchParams, Vectors};
use vdb_index_graph::HnswConfig;
use vdb_storage::{snapshot, Checkpoint, TempDir};

const DIM: usize = 16;
const ROWS: usize = 600;

type Answers = Vec<Vec<(u64, u32)>>;

fn schema() -> CollectionSchema {
    CollectionSchema::new("img", DIM, Metric::Euclidean).column("tag", AttrType::Int)
}

fn cfg(dir: &Path, index: IndexSpec, mode: MergeMode) -> CollectionConfig {
    CollectionConfig {
        index,
        merge_threshold: 200,
        merge_mode: mode,
        wal_dir: Some(dir.to_path_buf()),
        ..CollectionConfig::default()
    }
}

fn hnsw() -> IndexSpec {
    IndexSpec::Hnsw(HnswConfig::default())
}

fn diskann() -> IndexSpec {
    IndexSpec::DiskAnn {
        memory_fraction: 0.1,
    }
}

fn data(seed: u64) -> (Vectors, Vectors) {
    let mut rng = Rng::seed_from_u64(seed);
    let rows = dataset::gaussian(ROWS + 60, DIM, &mut rng);
    let queries = dataset::gaussian(25, DIM, &mut rng);
    (rows, queries)
}

fn insert_rows(c: &mut Collection, rows: &Vectors, range: std::ops::Range<usize>) {
    for i in range {
        c.insert(
            i as u64,
            rows.get(i),
            &[("tag", AttrValue::Int(i as i64 % 7))],
        )
        .unwrap();
    }
}

fn answers(c: &Collection, queries: &Vectors) -> Answers {
    let params = SearchParams::default().with_beam_width(12);
    queries
        .iter()
        .map(|q| {
            c.search(q, 10, &params)
                .unwrap()
                .iter()
                .map(|h| (h.key, h.dist.to_bits()))
                .collect()
        })
        .collect()
}

/// A checkpointed collection of `ROWS` rows (merged, buffer empty).
fn checkpointed(dir: &Path, index: IndexSpec, rows: &Vectors) -> Collection {
    let mut c = Collection::create(schema(), cfg(dir, index, MergeMode::Blocking)).unwrap();
    insert_rows(&mut c, rows, 0..ROWS);
    c.checkpoint().unwrap();
    assert_eq!(c.stats().buffered, 0);
    c
}

fn snap_path(dir: &Path) -> std::path::PathBuf {
    dir.join("img.snap")
}

fn read_ckpt(dir: &Path) -> Checkpoint {
    snapshot::read(&snap_path(dir))
        .unwrap()
        .expect("snapshot exists")
}

/// Copy the collection's durable files into a fresh directory, after
/// letting `edit` rewrite the checkpoint.
fn copy_with(dir: &Path, edit: impl FnOnce(&mut Checkpoint)) -> TempDir {
    let out = TempDir::new("img-copy").unwrap();
    let mut ckpt = read_ckpt(dir);
    edit(&mut ckpt);
    snapshot::write_checkpoint(&snap_path(out.path()), &ckpt).unwrap();
    std::fs::copy(dir.join("img.wal"), out.path().join("img.wal")).unwrap();
    out
}

fn recover(dir: &Path, index: IndexSpec) -> Collection {
    Collection::recover(schema(), cfg(dir, index, MergeMode::Blocking)).unwrap()
}

/// The recovered collection answers bit-identically
/// to the one that was checkpointed, through the image, and a forced
/// rebuild (the same snapshot with its image stripped) agrees too.
fn image_path_is_bit_identical(index: IndexSpec, seed: u64) {
    let (rows, queries) = data(seed);
    let dir = TempDir::new("img-served").unwrap();
    let c = checkpointed(dir.path(), index.clone(), &rows);
    let served = answers(&c, &queries);
    assert!(
        read_ckpt(dir.path()).index.is_some(),
        "checkpoint wrote an image"
    );
    drop(c);

    let r = recover(dir.path(), index.clone());
    assert!(r.stats().index_from_image, "recovery took the image path");
    assert_eq!(r.stats().index_name, index.name());
    assert_eq!(answers(&r, &queries), served, "recovered answers");

    let legacy = copy_with(dir.path(), |ck| ck.index = None);
    let rebuilt = recover(legacy.path(), index);
    assert!(
        !rebuilt.stats().index_from_image,
        "image-less snapshot rebuilds"
    );
    assert_eq!(answers(&rebuilt, &queries), served, "forced rebuild");
}

#[test]
fn hnsw_recovers_through_its_image() {
    image_path_is_bit_identical(hnsw(), 3500);
}

#[test]
fn diskann_recovers_through_its_image() {
    image_path_is_bit_identical(diskann(), 3501);
}

#[test]
fn unusable_images_fall_back_to_a_correct_rebuild() {
    let (rows, queries) = data(3503);
    let dir = TempDir::new("img-fallback").unwrap();
    drop(checkpointed(dir.path(), hnsw(), &rows));
    let rebuilt = |index: IndexSpec| {
        let legacy = copy_with(dir.path(), |ck| ck.index = None);
        answers(&recover(legacy.path(), index), &queries)
    };
    let expect_rebuild = |name: &str, copy: TempDir, index: IndexSpec| {
        let r = recover(copy.path(), index.clone());
        assert!(!r.stats().index_from_image, "{name}: image must be refused");
        assert_eq!(r.len(), ROWS, "{name}");
        assert_eq!(answers(&r, &queries), rebuilt(index), "{name}");
    };

    // A changed IndexSpec: the fingerprint no longer matches.
    let changed = IndexSpec::Hnsw(HnswConfig {
        m: 8,
        ..HnswConfig::default()
    });
    expect_rebuild("changed spec", copy_with(dir.path(), |_| {}), changed);

    // The image describes more rows than the snapshot holds.
    let fewer = copy_with(dir.path(), |ck| {
        let snap = &mut ck.snapshot;
        snap.row_keys.pop();
        let mut vectors = Vectors::new(DIM);
        for v in snap.vectors.iter().take(ROWS - 1) {
            vectors.push(v).unwrap();
        }
        snap.vectors = vectors;
        for col in &mut snap.columns {
            col.values.pop();
        }
    });
    let r = recover(fewer.path(), hnsw());
    assert!(!r.stats().index_from_image, "row-count mismatch");
    assert_eq!(r.len(), ROWS - 1);

    // An image version this build does not know.
    let version = copy_with(dir.path(), |ck| ck.index.as_mut().unwrap()[4] = 99);
    expect_rebuild("unknown version", version, hnsw());

    // A neighbour id past the last row (first edge of layer 0, after the
    // 24-byte header and the layer's ROWS + 1 offsets).
    let neighbour = copy_with(dir.path(), |ck| {
        let at = 24 + 4 * (ROWS + 1);
        ck.index.as_mut().unwrap()[at..at + 4].copy_from_slice(&(ROWS as u32).to_le_bytes());
    });
    expect_rebuild("neighbour out of range", neighbour, hnsw());

    // Garbage where the image should be.
    let garbage = copy_with(dir.path(), |ck| ck.index = Some(vec![0xAB; 64]));
    expect_rebuild("garbage image", garbage, hnsw());
}

#[test]
fn damaged_diskann_image_falls_back() {
    let (rows, queries) = data(3504);
    let dir = TempDir::new("img-disk-fallback").unwrap();
    let served = answers(&checkpointed(dir.path(), diskann(), &rows), &queries);
    let cut = copy_with(dir.path(), |ck| {
        let image = ck.index.as_mut().unwrap();
        image.truncate(image.len() / 2);
    });
    // A header whose PQ codebook size (`ksub`, byte 24) runs far past the
    // end of the file must be refused before anything is allocated.
    let inflated = copy_with(dir.path(), |ck| {
        ck.index.as_mut().unwrap()[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    for damaged in [cut, inflated] {
        let r = recover(damaged.path(), diskann());
        assert!(!r.stats().index_from_image);
        assert_eq!(answers(&r, &queries), served);
    }
}

/// The replica-bootstrap snapshot and the `.snap` file come from one
/// checkpoint of the published state: equal after a merge, and equal
/// again after a recovery folds a replayed WAL tail back in.
#[test]
fn exported_snapshot_equals_the_checkpoint_file() {
    let (rows, _) = data(3507);
    let dir = TempDir::new("img-export").unwrap();
    let schema = || {
        CollectionSchema::new("img", DIM, Metric::Euclidean)
            .column("body", AttrType::Str)
            .text_index("body")
    };
    let conf = cfg(dir.path(), hnsw(), MergeMode::Blocking);
    let insert = |c: &mut Collection, range: std::ops::Range<usize>| {
        for i in range {
            let body = format!("doc {i} word{} topic{}", i % 5, i % 11);
            c.insert(i as u64, rows.get(i), &[("body", AttrValue::Str(body))])
                .unwrap();
        }
    };
    let exported_equals_file = |c: &Collection, stage: &str| {
        let (_, bytes, _) = c.export_replica_state().unwrap();
        let exported = snapshot::decode(&bytes).unwrap();
        let file = read_ckpt(dir.path());
        assert!(file.index.is_some(), "{stage}: the file carries an image");
        assert!(
            file.snapshot.text.is_some(),
            "{stage}: the file carries text"
        );
        assert_eq!(
            snapshot::encode(&exported).unwrap(),
            std::fs::read(snap_path(dir.path())).unwrap(),
            "{stage}: exported bytes"
        );
        assert_eq!(exported, file, "{stage}: exported checkpoint");
    };

    let mut c = Collection::create(schema(), conf.clone()).unwrap();
    insert(&mut c, 0..ROWS);
    c.merge().unwrap();
    exported_equals_file(&c, "after merge");
    // A WAL tail of inserts, an overwrite and a delete for recovery to
    // replay and the next checkpoint to fold in.
    insert(&mut c, ROWS..ROWS + 40);
    insert(&mut c, 5..6);
    c.delete(9).unwrap();
    drop(c);

    let r = Collection::recover(schema(), conf).unwrap();
    r.checkpoint().unwrap();
    assert_eq!(r.len(), ROWS + 39);
    exported_equals_file(&r, "after recover + checkpoint");
}

#[test]
fn replica_install_loads_the_primary_graph() {
    let (rows, queries) = data(3506);
    let pdir = TempDir::new("img-primary").unwrap();
    let primary = checkpointed(pdir.path(), hnsw(), &rows);
    let (lsn, snap, tail) = primary.export_replica_state().unwrap();
    let rdir = TempDir::new("img-replica").unwrap();
    let mut replica =
        Collection::create(schema(), cfg(rdir.path(), hnsw(), MergeMode::Blocking)).unwrap();
    replica.install_replica_state(lsn, &snap, &tail).unwrap();
    assert!(replica.stats().index_from_image);
    assert_eq!(answers(&replica, &queries), answers(&primary, &queries));
}
