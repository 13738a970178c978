//! Checkpointed collection snapshots: the durable merged state.
//!
//! A snapshot captures everything the merge step folded into the main
//! part of a collection — row keys, vectors, attribute columns, the
//! fingerprint of the index spec that was built over them, and
//! optionally that index itself — so recovery becomes *snapshot load +
//! WAL-tail replay* instead of a full-history WAL replay, and the WAL can
//! be truncated after every merge.
//!
//! ## On-disk format
//!
//! ```text
//! "VDBSNAP1"                                    8-byte magic
//! [tag u8][frame]                               tagged sections:
//!   1 META    fingerprint, dim, rows, #columns
//!   2 KEYS    row keys (u64 × rows)
//!   3 VECTORS row-major f32 × rows × dim
//!   4 COLUMN  name, type, values (one section per column)
//!   6 TEXT    serialized inverted index (optional)
//!   7 INDEX   serialized vector index over exactly these rows (optional)
//!   5 END     empty terminator
//! ```
//!
//! TEXT and INDEX are opaque to this layer: their owners version their
//! own payloads, and a reader that cannot use one rebuilds that index
//! from the rows. A snapshot without them is byte-identical to the
//! format that predates them, so every older `.snap` still loads.
//!
//! Each section is a tag byte and one `vdb_core::codec` frame (length,
//! CRC-32, payload), the framing the WAL uses. A snapshot is only ever
//! observed complete: [`write`] builds `<name>.tmp` in the same
//! directory, fsyncs it, renames it over the target, and fsyncs the
//! directory — a crash at any point leaves either the old snapshot or
//! the new one, never a mixture. [`read`] still verifies the magic,
//! every section CRC, and the END terminator, so a snapshot damaged
//! *after* it was written (bit rot, manual truncation) is reported as
//! [`Error::Corrupt`] rather than silently replayed.
//!
//! Every durable step passes through a [`crate::failpoint`] crash point,
//! which is how the crash-fault-injection harness sweeps this protocol.

use crate::failpoint;
use crate::file::sync_dir;
use std::fs::{File, OpenOptions};
use std::path::Path;
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::codec::{self, Reader};
use vdb_core::error::{Error, Result};
use vdb_core::vector::Vectors;

const MAGIC: &[u8; 8] = b"VDBSNAP1";

const SEC_META: u8 = 1;
const SEC_KEYS: u8 = 2;
const SEC_VECTORS: u8 = 3;
const SEC_COLUMN: u8 = 4;
const SEC_END: u8 = 5;
/// Serialized full-text index over the rows (optional; absent in
/// snapshots from before text indexing existed and in collections with
/// no text-indexed column). The payload is opaque to the storage layer —
/// the text subsystem owns its own versioned format, and a reader that
/// cannot use the bytes rebuilds the index from the source column.
const SEC_TEXT: u8 = 6;
/// Serialized vector index whose row `i` is snapshot row `i` (optional;
/// absent in snapshots from before index images existed and for index
/// families without an image). Opaque like TEXT: the index family owns
/// the versioned payload, and a reader that cannot use it rebuilds.
const SEC_INDEX: u8 = 7;

/// One attribute column of a snapshot, aligned with the row keys.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotColumn {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: AttrType,
    /// One value per row (Null for missing).
    pub values: Vec<AttrValue>,
}

/// A collection's merged state at checkpoint time.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Fingerprint of the index spec the main index was built with. A
    /// stored index image is only loaded by a collection whose spec has
    /// the same fingerprint; any other spec rebuilds from the vectors.
    pub fingerprint: String,
    /// External key of each row, aligned with `vectors`.
    pub row_keys: Vec<u64>,
    /// The merged vectors.
    pub vectors: Vectors,
    /// Attribute columns, each aligned with `row_keys`.
    pub columns: Vec<SnapshotColumn>,
    /// Serialized full-text index (row-aligned doc ids), if the
    /// collection maintains one. `None` round-trips to a byte-identical
    /// legacy snapshot.
    pub text: Option<Vec<u8>>,
}

impl Snapshot {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_keys.len()
    }
}

/// A whole checkpoint file: the [`Snapshot`] plus, optionally, the image
/// of the vector index built over exactly its rows (section INDEX).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The merged state.
    pub snapshot: Snapshot,
    /// Opaque index image (`VectorIndex::image`); `None` writes a
    /// snapshot byte-identical to one without the section.
    pub index: Option<Vec<u8>>,
}

impl From<Snapshot> for Checkpoint {
    fn from(snapshot: Snapshot) -> Self {
        Checkpoint {
            snapshot,
            index: None,
        }
    }
}

fn put_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    codec::put_frame(out, payload);
}

fn write_section(file: &mut File, tag: u8, payload: &[u8], site: &'static str) -> Result<()> {
    let head = codec::frame_header(payload);
    failpoint::write_parts_torn(file, &[&[tag], &head, payload], site)
}

fn meta_payload(snap: &Snapshot) -> Vec<u8> {
    let mut meta = Vec::new();
    codec::put_str(&mut meta, &snap.fingerprint);
    codec::put_u32(&mut meta, snap.vectors.dim() as u32);
    codec::put_u64(&mut meta, snap.row_keys.len() as u64);
    codec::put_u32(&mut meta, snap.columns.len() as u32);
    meta
}

fn keys_payload(snap: &Snapshot) -> Vec<u8> {
    let mut keys = Vec::with_capacity(snap.row_keys.len() * 8);
    for &k in &snap.row_keys {
        codec::put_u64(&mut keys, k);
    }
    keys
}

fn vectors_payload(snap: &Snapshot) -> Vec<u8> {
    let mut vecs = Vec::with_capacity(snap.vectors.as_flat().len() * 4);
    for &x in snap.vectors.as_flat() {
        codec::put_f32(&mut vecs, x);
    }
    vecs
}

fn column_payload(col: &SnapshotColumn) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_str(&mut payload, &col.name);
    codec::put_u8(&mut payload, codec::attr_type_tag(col.ty));
    for v in &col.values {
        codec::put_attr(&mut payload, v);
    }
    payload
}

fn validate(snap: &Snapshot) -> Result<()> {
    if snap.vectors.len() != snap.row_keys.len() {
        return Err(Error::InvalidParameter(format!(
            "snapshot has {} keys but {} vectors",
            snap.row_keys.len(),
            snap.vectors.len()
        )));
    }
    for col in &snap.columns {
        if col.values.len() != snap.row_keys.len() {
            return Err(Error::InvalidParameter(format!(
                "snapshot column `{}` has {} values for {} rows",
                col.name,
                col.values.len(),
                snap.row_keys.len()
            )));
        }
    }
    Ok(())
}

/// Serialize a checkpoint to bytes in the on-disk format (magic
/// included), for shipping over the wire during replica bootstrap. The
/// bytes are exactly what [`write_checkpoint`] would put on disk, so
/// [`decode`] and [`read`] verify the same magic, section CRCs, and END
/// terminator.
pub fn encode(ckpt: &Checkpoint) -> Result<Vec<u8>> {
    let snap = &ckpt.snapshot;
    validate(snap)?;
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_section(&mut out, SEC_META, &meta_payload(snap));
    put_section(&mut out, SEC_KEYS, &keys_payload(snap));
    put_section(&mut out, SEC_VECTORS, &vectors_payload(snap));
    for col in &snap.columns {
        put_section(&mut out, SEC_COLUMN, &column_payload(col));
    }
    if let Some(text) = &snap.text {
        put_section(&mut out, SEC_TEXT, text);
    }
    if let Some(index) = &ckpt.index {
        put_section(&mut out, SEC_INDEX, index);
    }
    put_section(&mut out, SEC_END, &[]);
    Ok(out)
}

/// Atomically replace the snapshot at `path` with `snap` and no index
/// image: write-to-temp, fsync, rename, fsync-directory.
pub fn write(path: &Path, snap: &Snapshot) -> Result<()> {
    write_sections(path, snap, None)
}

/// [`write`] for a whole checkpoint, index image included.
pub fn write_checkpoint(path: &Path, ckpt: &Checkpoint) -> Result<()> {
    write_sections(path, &ckpt.snapshot, ckpt.index.as_deref())
}

fn write_sections(path: &Path, snap: &Snapshot, index: Option<&[u8]>) -> Result<()> {
    validate(snap)?;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| Error::InvalidParameter("snapshot path has no file name".into()))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp"));

    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;

    // META (with the magic prepended so the first write stamps the file).
    let mut head = MAGIC.to_vec();
    put_section(&mut head, SEC_META, &meta_payload(snap));
    failpoint::write_all_torn(&mut file, &head, "snapshot.meta")?;

    // KEYS.
    write_section(&mut file, SEC_KEYS, &keys_payload(snap), "snapshot.keys")?;

    // VECTORS.
    write_section(
        &mut file,
        SEC_VECTORS,
        &vectors_payload(snap),
        "snapshot.vectors",
    )?;

    // One section per COLUMN.
    for col in &snap.columns {
        write_section(
            &mut file,
            SEC_COLUMN,
            &column_payload(col),
            "snapshot.column",
        )?;
    }

    // TEXT (only when the collection maintains a text index).
    if let Some(text) = &snap.text {
        write_section(&mut file, SEC_TEXT, text, "snapshot.text")?;
    }

    // INDEX (only when the index family produced an image).
    if let Some(index) = index {
        write_section(&mut file, SEC_INDEX, index, "snapshot.index")?;
    }

    // END terminator, then make it durable and visible.
    write_section(&mut file, SEC_END, &[], "snapshot.end")?;
    failpoint::hit("snapshot.sync")?;
    file.sync_all()?;
    drop(file);
    failpoint::hit("snapshot.rename")?;
    std::fs::rename(&tmp, path)?;
    failpoint::hit("snapshot.dir_sync")?;
    if let Some(dir) = path.parent() {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Load the checkpoint at `path`. Returns `Ok(None)` if no snapshot file
/// exists (a collection that never checkpointed); any structural damage
/// to an existing file is [`Error::Corrupt`].
pub fn read(path: &Path) -> Result<Option<Checkpoint>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    decode(&bytes).map(Some)
}

/// Parse checkpoint bytes produced by [`encode`] (or read back from a
/// file [`write_checkpoint`] produced). Verifies magic, every section
/// CRC, and the END terminator — identical guarantees to [`read`].
pub fn decode(bytes: &[u8]) -> Result<Checkpoint> {
    let corrupt = |what: &str| Error::Corrupt(format!("snapshot {what}"));
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("has bad magic"));
    }
    let mut r = Reader::new(&bytes[MAGIC.len()..]);

    let mut fingerprint = None;
    let mut dim = 0usize;
    let mut rows = 0u64;
    let mut ncols = 0usize;
    let mut row_keys: Option<Vec<u64>> = None;
    let mut vectors: Option<Vectors> = None;
    let mut columns: Vec<SnapshotColumn> = Vec::new();
    let mut text: Option<Vec<u8>> = None;
    let mut index: Option<Vec<u8>> = None;
    let mut ended = false;

    while !r.is_empty() {
        let tag = r.u8()?;
        let payload = r
            .frame(u32::MAX)?
            .ok_or_else(|| corrupt("ends inside a section"))?;
        let mut p = Reader::new(payload);
        match tag {
            SEC_META => {
                fingerprint = Some(p.str()?);
                dim = p.u32()? as usize;
                rows = p.u64()?;
                ncols = p.u32()? as usize;
            }
            SEC_KEYS => {
                // META's row count is untrusted: every count below passes
                // the count rule against its own section first.
                let n = p.count(rows, 8)?;
                row_keys = Some(p.u64s(n)?);
                p.finish()?;
            }
            SEC_VECTORS => {
                let n = rows
                    .checked_mul(dim as u64)
                    .ok_or_else(|| corrupt("has more vector components than fit in memory"))?;
                let n = p.count(n, 4)?;
                vectors = Some(Vectors::from_flat(dim.max(1), p.f32s(n)?)?);
                p.finish()?;
            }
            SEC_COLUMN => {
                let name = p.str()?;
                let ty = codec::attr_type_from_tag(p.u8()?)?;
                let n = p.count(rows, 1)?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(p.attr()?);
                }
                p.finish()?;
                columns.push(SnapshotColumn { name, ty, values });
            }
            SEC_TEXT => {
                text = Some(payload.to_vec());
            }
            SEC_INDEX => {
                index = Some(payload.to_vec());
            }
            SEC_END => {
                ended = true;
                break;
            }
            other => return Err(Error::Corrupt(format!("unknown snapshot section {other}"))),
        }
    }
    if !ended {
        return Err(corrupt("is missing its END terminator"));
    }
    let fingerprint = fingerprint.ok_or_else(|| corrupt("is missing its META section"))?;
    let row_keys = row_keys.ok_or_else(|| corrupt("is missing its KEYS section"))?;
    let vectors = vectors.ok_or_else(|| corrupt("is missing its VECTORS section"))?;
    if columns.len() != ncols {
        return Err(corrupt("column count does not match META"));
    }
    Ok(Checkpoint {
        snapshot: Snapshot {
            fingerprint,
            row_keys,
            vectors,
            columns,
            text,
        },
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::TempDir;

    fn sample(rows: usize) -> Snapshot {
        let dim = 3;
        let mut vectors = Vectors::new(dim);
        let mut keys = Vec::new();
        let mut tags = Vec::new();
        let mut scores = Vec::new();
        for i in 0..rows {
            vectors.push(&[i as f32, 0.5, -1.0]).unwrap();
            keys.push(100 + i as u64);
            tags.push(if i % 3 == 0 {
                AttrValue::Null
            } else {
                AttrValue::Str(format!("t{i}"))
            });
            scores.push(AttrValue::Int(i as i64 * 7));
        }
        Snapshot {
            fingerprint: "hnsw:deadbeef".into(),
            row_keys: keys,
            vectors,
            text: None,
            columns: vec![
                SnapshotColumn {
                    name: "tag".into(),
                    ty: AttrType::Str,
                    values: tags,
                },
                SnapshotColumn {
                    name: "score".into(),
                    ty: AttrType::Int,
                    values: scores,
                },
            ],
        }
    }

    fn with_image(rows: usize) -> Checkpoint {
        let mut snapshot = sample(rows);
        snapshot.text = Some(vec![0x11, 0x22, 0x33]);
        Checkpoint {
            snapshot,
            index: Some((0..200u32).map(|b| (b * 7) as u8).collect()),
        }
    }

    fn load(path: &Path) -> Checkpoint {
        read(path).unwrap().expect("snapshot exists")
    }

    #[test]
    fn roundtrip() {
        let dir = TempDir::new("snap-rt").unwrap();
        let path = dir.file("c.snap");
        let snap = sample(17);
        write(&path, &snap).unwrap();
        let back = load(&path);
        assert_eq!(back.snapshot, snap);
        assert!(back.index.is_none());
    }

    #[test]
    fn empty_collection_roundtrip() {
        let dir = TempDir::new("snap-empty").unwrap();
        let path = dir.file("c.snap");
        let mut snap = sample(0);
        snap.columns.clear();
        write(&path, &snap).unwrap();
        let back = load(&path).snapshot;
        assert_eq!(back.rows(), 0);
        assert!(back.columns.is_empty());
    }

    #[test]
    fn encode_matches_on_disk_bytes_and_decodes() {
        let dir = TempDir::new("snap-enc").unwrap();
        let path = dir.file("c.snap");
        for ckpt in [Checkpoint::from(sample(11)), with_image(11)] {
            write_checkpoint(&path, &ckpt).unwrap();
            let disk = std::fs::read(&path).unwrap();
            let wire = encode(&ckpt).unwrap();
            assert_eq!(wire, disk, "wire encoding is byte-identical to disk");
            assert_eq!(decode(&wire).unwrap(), ckpt);
        }
    }

    #[test]
    fn text_section_roundtrips_and_stays_optional() {
        let dir = TempDir::new("snap-text").unwrap();
        let path = dir.file("c.snap");
        let mut snap = sample(5);
        snap.text = Some(vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F]);
        write(&path, &snap).unwrap();
        let back = load(&path).snapshot;
        assert_eq!(back, snap);
        assert_eq!(back.text.as_deref(), Some(&snap.text.clone().unwrap()[..]));
        // A text-less snapshot stays byte-identical to the legacy format:
        // the section is simply absent, so old readers keep working.
        let legacy = sample(5);
        let with = encode(&snap.clone().into()).unwrap();
        let without = encode(&legacy.clone().into()).unwrap();
        assert!(with.len() > without.len());
        assert!(load(&path).snapshot.text.is_some());
        write(&path, &legacy).unwrap();
        assert!(load(&path).snapshot.text.is_none());
    }

    #[test]
    fn index_section_roundtrips_and_stays_optional() {
        let dir = TempDir::new("snap-index").unwrap();
        let path = dir.file("c.snap");
        let ckpt = with_image(7);
        write_checkpoint(&path, &ckpt).unwrap();
        assert_eq!(load(&path), ckpt);
        // Without an image the bytes are exactly the image-less format:
        // the INDEX section is the only difference, placed before END.
        let bare = Checkpoint::from(ckpt.snapshot.clone());
        let with = encode(&ckpt).unwrap();
        let without = encode(&bare).unwrap();
        let image_len = ckpt.index.as_ref().unwrap().len();
        assert_eq!(with.len(), without.len() + 9 + image_len);
        let end_frame = without.len() - 9;
        assert_eq!(with[..end_frame], without[..end_frame]);
        assert_eq!(with[end_frame], SEC_INDEX);
        assert_eq!(with[with.len() - 9..], without[end_frame..]);
        assert_eq!(decode(&without).unwrap(), bare);
        write(&path, &bare.snapshot).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), without);
        assert!(load(&path).index.is_none());
    }

    #[test]
    fn forged_meta_counts_are_corrupt_before_allocating() {
        // A CRC-valid snapshot whose META promises `rows` rows of four
        // components and `ncols` columns, then the given empty sections.
        let forged = |rows: u64, ncols: u32, tags: &[u8]| {
            let mut meta = Vec::new();
            codec::put_str(&mut meta, "");
            codec::put_u32(&mut meta, 4);
            codec::put_u64(&mut meta, rows);
            codec::put_u32(&mut meta, ncols);
            let mut out = MAGIC.to_vec();
            put_section(&mut out, SEC_META, &meta);
            for &tag in tags {
                let mut body = Vec::new();
                if tag == SEC_COLUMN {
                    codec::put_str(&mut body, "c");
                    codec::put_u8(&mut body, codec::attr_type_tag(AttrType::Int));
                }
                put_section(&mut out, tag, &body);
            }
            put_section(&mut out, SEC_END, &[]);
            decode(&out)
        };
        assert!(forged(0, 0, &[SEC_KEYS, SEC_VECTORS]).is_ok());
        for rows in [1 << 40, 1 << 62, u64::MAX] {
            for tag in [SEC_KEYS, SEC_VECTORS, SEC_COLUMN] {
                let res = forged(rows, 0, &[tag]);
                assert!(
                    matches!(res, Err(Error::Corrupt(_))),
                    "rows {rows}, section {tag}"
                );
            }
        }
        let res = forged(0, u32::MAX, &[SEC_KEYS, SEC_VECTORS]);
        assert!(matches!(res, Err(Error::Corrupt(_))), "column count");
    }

    #[test]
    fn missing_file_is_none() {
        let dir = TempDir::new("snap-miss").unwrap();
        assert!(read(&dir.file("nope.snap")).unwrap().is_none());
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let dir = TempDir::new("snap-ow").unwrap();
        let path = dir.file("c.snap");
        write(&path, &sample(5)).unwrap();
        write(&path, &sample(9)).unwrap();
        assert_eq!(load(&path).snapshot.rows(), 9);
        assert!(!path.with_file_name("c.snap.tmp").exists());
    }

    #[test]
    fn truncation_and_bitflips_detected() {
        let dir = TempDir::new("snap-corrupt").unwrap();
        let path = dir.file("c.snap");
        // Both the legacy layout and one carrying TEXT + INDEX sections.
        for ckpt in [Checkpoint::from(sample(6)), with_image(6)] {
            write_checkpoint(&path, &ckpt).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            // Truncations anywhere are Corrupt (never a panic, never Ok).
            for cut in 0..bytes.len() {
                std::fs::write(&path, &bytes[..cut]).unwrap();
                assert!(
                    matches!(read(&path), Err(Error::Corrupt(_))),
                    "cut at {cut} must be corrupt"
                );
            }
            // A flipped payload byte fails its section CRC.
            let mut flipped = bytes.clone();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x40;
            std::fs::write(&path, &flipped).unwrap();
            assert!(read(&path).is_err());
            // So does one inside the index image (the last payload).
            let mut flipped = bytes.clone();
            let at = flipped.len() - 9 - 3;
            flipped[at] ^= 0x01;
            std::fs::write(&path, &flipped).unwrap();
            assert!(read(&path).is_err());
        }
    }

    #[test]
    fn crash_during_write_preserves_old_snapshot() {
        let dir = TempDir::new("snap-crash").unwrap();
        let path = dir.file("c.snap");
        let old = with_image(4);
        let new = with_image(8);
        let (res, points) = crate::failpoint::count_crash_points(|| {
            write_checkpoint(&dir.file("scratch.snap"), &new)
        });
        res.unwrap();
        assert!(
            points >= 11,
            "meta+keys+vectors+2 cols+text+index+end+sync+rename+dir"
        );
        for n in 1..=points {
            write_checkpoint(&path, &old).unwrap();
            crate::failpoint::arm(n);
            let err = write_checkpoint(&path, &new).unwrap_err();
            assert!(crate::failpoint::is_crash(&err));
            crate::failpoint::disarm();
            let back = load(&path);
            assert!(
                back == old || back == new,
                "crash point {n} left a mixed snapshot"
            );
            if n < points - 1 {
                // Every crash before the rename step preserves the old file.
                assert_eq!(back, old, "crash point {n} must not touch the target");
            }
        }
    }
}
