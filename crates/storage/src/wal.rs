//! Write-ahead log for vector DML.
//!
//! Inserts and deletes are appended to the log before being applied to the
//! in-memory update buffer, so a crash between acknowledgement and merge
//! loses nothing. Records are length-prefixed and checksummed; replay stops
//! cleanly at the first torn or corrupt record (the crash point).
//!
//! Insert records are versioned: the current format (tag 3) carries the
//! full attribute payload alongside the vector, so recovery reproduces
//! hybrid state exactly; logs written by the original attribute-less
//! format (tag 1) still replay, with empty attributes.
//!
//! Durability protocol: the log file is fsynced per batch ([`Wal::sync`]),
//! the *directory* is fsynced when the log is first created (so the file
//! name itself survives a crash), and truncation after a checkpoint
//! ([`Wal::reset`]) truncates in place and fsyncs before returning —
//! the append handle stays valid throughout.

use crate::failpoint;
use crate::file::sync_dir;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use vdb_core::attr::AttrValue;
use vdb_core::codec::{self, Reader};
use vdb_core::error::{Error, Result};

/// A logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Insert (or overwrite) `key` with a vector and its attributes.
    Insert {
        /// External key.
        key: u64,
        /// The vector payload.
        vector: Vec<f32>,
        /// Attribute assignments `(column, value)`; columns not listed
        /// default to NULL at replay, matching the live insert path.
        attrs: Vec<(String, AttrValue)>,
    },
    /// Delete `key`.
    Delete {
        /// External key.
        key: u64,
    },
}

/// Legacy insert without attributes (logs written before the attribute
/// payload existed replay as this; decoded with empty `attrs`).
const TAG_INSERT_V1: u8 = 1;
const TAG_DELETE: u8 = 2;
/// Current insert: vector + attribute list.
const TAG_INSERT_V2: u8 = 3;

/// Cap on one record's frame payload: a longer length is corruption,
/// not a torn tail.
const MAX_RECORD: u32 = 1 << 30;

/// The workspace CRC-32, re-exported so `vdb_storage::crc32` keeps
/// naming the checksum every WAL frame and snapshot section carries.
pub use vdb_core::crc32;

/// An append-only write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending. On
    /// first creation the parent directory is fsynced so the new file
    /// name survives a crash.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref();
        let existed = path.exists();
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if !existed {
            failpoint::hit("wal.create_dir_sync")?;
            if let Some(dir) = path.parent() {
                sync_dir(dir)?;
            }
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Append one record (buffered; call [`Wal::sync`] for durability).
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let payload = encode(rec);
        let mut frame = Vec::with_capacity(codec::FRAME_HEADER + payload.len());
        codec::put_frame(&mut frame, &payload);
        failpoint::write_all_torn(&mut self.file, &frame, "wal.append")
    }

    /// Flush to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        failpoint::hit("wal.sync")?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replay all complete, checksum-valid records from the start of the
    /// log. A torn tail (partial final record) ends replay without error;
    /// a checksum mismatch on a *complete* record is reported as corruption.
    pub fn replay<P: AsRef<Path>>(path: P) -> Result<Vec<WalRecord>> {
        let bytes = match std::fs::read(path.as_ref()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        frames(&bytes)?
            .into_iter()
            .map(|payload| decode(Reader::new(payload)))
            .collect()
    }

    /// Truncate the log in place (after its contents have been merged
    /// durably) and fsync the truncation. The append handle is kept, so
    /// a crash here can never resurrect stale bytes through a dangling
    /// pre-truncation file descriptor.
    pub fn reset(&mut self) -> Result<()> {
        failpoint::hit("wal.reset.truncate")?;
        self.file.set_len(0)?;
        failpoint::hit("wal.reset.sync")?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Size of the log file in bytes (durability/space accounting).
    pub fn size_bytes(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Atomically replace the log's contents with `records`:
    /// write-to-temp, fsync, rename over the log, fsync-directory, then
    /// swing the append handle to the new file. A crash at any point
    /// leaves either the complete old log or the complete new one —
    /// never a mixture — which is what lets a background merge retire
    /// only the *merged prefix* of operations while preserving a tail of
    /// operations that arrived during the rebuild.
    pub fn rewrite(&mut self, records: &[WalRecord]) -> Result<()> {
        let file_name = self
            .path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| Error::InvalidParameter("WAL path has no file name".into()))?;
        let tmp = self.path.with_file_name(format!("{file_name}.tmp"));
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        for rec in records {
            let mut frame = Vec::new();
            codec::put_frame(&mut frame, &encode(rec));
            failpoint::write_all_torn(&mut file, &frame, "wal.rewrite.write")?;
        }
        failpoint::hit("wal.rewrite.sync")?;
        file.sync_all()?;
        drop(file);
        failpoint::hit("wal.rewrite.rename")?;
        std::fs::rename(&tmp, &self.path)?;
        failpoint::hit("wal.rewrite.dir_sync")?;
        if let Some(dir) = self.path.parent() {
            sync_dir(dir)?;
        }
        // Appends must land after the preserved tail, not in the unlinked
        // pre-rewrite file the old handle still points at.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

/// A WAL record stamped with its log sequence number, as shipped from a
/// replication primary to its replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct ShippedRecord {
    /// The primary's logical mutation counter at the time this record was
    /// applied (1-based, strictly increasing, gap-free within a primary
    /// incarnation).
    pub lsn: u64,
    /// The logged operation itself.
    pub record: WalRecord,
}

/// Append one LSN-stamped record to a replication stream buffer.
///
/// The framing is the WAL's own ([`codec::put_frame`]), where the payload
/// is the LSN (little-endian u64) followed by the record encoding.
/// Because the stream reuses the torn-tail-tolerant frame layout, a
/// truncated stream decodes to an exact record prefix — a replica that
/// receives a partial shipment applies a prefix and asks for the rest.
pub fn ship_record(out: &mut Vec<u8>, lsn: u64, rec: &WalRecord) {
    let mut payload = Vec::new();
    codec::put_u64(&mut payload, lsn);
    payload.extend_from_slice(&encode(rec));
    codec::put_frame(out, &payload);
}

/// Decode a replication stream produced by [`ship_record`].
///
/// Mirrors [`Wal::replay`]: a torn tail (truncated final frame) ends the
/// decode cleanly with the complete prefix, while a checksum mismatch on a
/// *complete* frame — actual corruption rather than truncation — is an
/// error.
pub fn decode_shipped(stream: &[u8]) -> Result<Vec<ShippedRecord>> {
    frames(stream)?
        .into_iter()
        .map(|payload| {
            let mut r = Reader::new(payload);
            let lsn = r.u64()?;
            Ok(ShippedRecord {
                lsn,
                record: decode(r)?,
            })
        })
        .collect()
}

/// The payloads of every complete frame, in order. A torn tail ends the
/// walk (the crash point); a complete frame that fails its CRC, or a
/// length past [`MAX_RECORD`], is corruption.
fn frames(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    let mut r = Reader::new(bytes);
    let mut out = Vec::new();
    while let Some(payload) = r.frame(MAX_RECORD)? {
        out.push(payload);
    }
    Ok(out)
}

fn encode(rec: &WalRecord) -> Vec<u8> {
    match rec {
        WalRecord::Insert { key, vector, attrs } => {
            let mut out = Vec::with_capacity(17 + vector.len() * 4);
            out.push(TAG_INSERT_V2);
            codec::put_u64(&mut out, *key);
            codec::put_vec_f32(&mut out, vector);
            codec::put_u32(&mut out, attrs.len() as u32);
            for (name, value) in attrs {
                codec::put_str(&mut out, name);
                codec::put_attr(&mut out, value);
            }
            out
        }
        WalRecord::Delete { key } => {
            let mut out = Vec::with_capacity(9);
            out.push(TAG_DELETE);
            codec::put_u64(&mut out, *key);
            out
        }
    }
}

fn decode(mut r: Reader<'_>) -> Result<WalRecord> {
    let record = match r.u8()? {
        TAG_INSERT_V1 => WalRecord::Insert {
            key: r.u64()?,
            vector: r.vec_f32()?,
            attrs: Vec::new(),
        },
        TAG_INSERT_V2 => {
            let key = r.u64()?;
            let vector = r.vec_f32()?;
            // A name's length prefix and a value's tag: 5 bytes at least.
            let nattrs = r.u32_count(5)?;
            let mut attrs = Vec::with_capacity(nattrs);
            for _ in 0..nattrs {
                attrs.push((r.str()?, r.attr()?));
            }
            WalRecord::Insert { key, vector, attrs }
        }
        TAG_DELETE => WalRecord::Delete { key: r.u64()? },
        tag => return Err(Error::Corrupt(format!("unknown WAL record tag {tag}"))),
    };
    r.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::TempDir;

    fn insert(key: u64, vector: Vec<f32>) -> WalRecord {
        WalRecord::Insert {
            key,
            vector,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn append_and_replay() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("log.wal");
        let recs = vec![
            WalRecord::Insert {
                key: 1,
                vector: vec![1.0, 2.0],
                attrs: vec![
                    ("tag".into(), AttrValue::Str("a".into())),
                    ("score".into(), AttrValue::Int(7)),
                    ("flag".into(), AttrValue::Null),
                ],
            },
            WalRecord::Delete { key: 9 },
            insert(2, vec![-0.5; 7]),
        ];
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        assert_eq!(Wal::replay(&path).unwrap(), recs);
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let dir = TempDir::new("wal-missing").unwrap();
        assert!(Wal::replay(dir.file("nope.wal")).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let dir = TempDir::new("wal-torn").unwrap();
        let path = dir.file("torn.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&insert(1, vec![1.0])).unwrap();
            wal.append(&insert(2, vec![2.0])).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-write: chop off the last 3 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 1, "only the complete record survives");
        assert_eq!(recs[0], insert(1, vec![1.0]));
    }

    #[test]
    fn bitflip_detected() {
        let dir = TempDir::new("wal-flip").unwrap();
        let path = dir.file("flip.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&insert(1, vec![1.0, 2.0, 3.0])).unwrap();
            wal.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt inside the payload
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::replay(&path), Err(Error::Corrupt(_))));
    }

    #[test]
    fn reset_truncates_in_place_and_appends_continue() {
        let dir = TempDir::new("wal-reset").unwrap();
        let path = dir.file("r.wal");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Delete { key: 5 }).unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert!(Wal::replay(&path).unwrap().is_empty());
        assert_eq!(wal.size_bytes().unwrap(), 0);
        // The same handle keeps appending from offset zero.
        wal.append(&WalRecord::Delete { key: 6 }).unwrap();
        wal.sync().unwrap();
        assert_eq!(
            Wal::replay(&path).unwrap(),
            vec![WalRecord::Delete { key: 6 }]
        );
    }

    #[test]
    fn rewrite_replaces_contents_atomically_and_appends_continue() {
        let dir = TempDir::new("wal-rewrite").unwrap();
        let path = dir.file("rw.wal");
        let mut wal = Wal::open(&path).unwrap();
        for k in 0..5 {
            wal.append(&insert(k, vec![k as f32])).unwrap();
        }
        wal.sync().unwrap();
        // Retire the merged prefix, preserve a two-record tail.
        let tail = vec![insert(3, vec![3.0]), insert(4, vec![4.0])];
        wal.rewrite(&tail).unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), tail);
        // The swung handle appends after the preserved tail.
        wal.append(&WalRecord::Delete { key: 3 }).unwrap();
        wal.sync().unwrap();
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2], WalRecord::Delete { key: 3 });
        // Rewrite to empty behaves like reset.
        wal.rewrite(&[]).unwrap();
        assert!(Wal::replay(&path).unwrap().is_empty());
    }

    #[test]
    fn shipped_stream_roundtrips() {
        let recs = [
            WalRecord::Insert {
                key: 1,
                vector: vec![1.0, 2.0],
                attrs: vec![("tag".into(), AttrValue::Str("a".into()))],
            },
            WalRecord::Delete { key: 9 },
        ];
        let mut stream = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            ship_record(&mut stream, i as u64 + 1, r);
        }
        let shipped = decode_shipped(&stream).unwrap();
        assert_eq!(shipped.len(), 2);
        assert_eq!(shipped[0].lsn, 1);
        assert_eq!(shipped[1].lsn, 2);
        assert_eq!(shipped[0].record, recs[0]);
        assert_eq!(shipped[1].record, recs[1]);
        // A flipped bit in a complete frame is corruption, not truncation.
        let mut bad = stream.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(decode_shipped(&bad), Err(Error::Corrupt(_))));
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let dir = TempDir::new("wal-reopen").unwrap();
        let path = dir.file("a.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Delete { key: 1 }).unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Delete { key: 2 }).unwrap();
            wal.sync().unwrap();
        }
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 2);
    }
}
