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

use crate::codec::{self, Reader};
use crate::failpoint;
use crate::file::sync_dir;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use vdb_core::attr::AttrValue;
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
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
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
        let file = match File::open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut reader = BufReader::new(file);
        let mut out = Vec::new();
        loop {
            let mut header = [0u8; 8];
            match read_exact_or_eof(&mut reader, &mut header)? {
                ReadOutcome::Eof => break,
                ReadOutcome::Partial => break, // torn header
                ReadOutcome::Full => {}
            }
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            if len > 1 << 30 {
                return Err(Error::Corrupt("unreasonable WAL record length".into()));
            }
            let mut payload = vec![0u8; len];
            match read_exact_or_eof(&mut reader, &mut payload)? {
                ReadOutcome::Full => {}
                _ => break, // torn payload
            }
            if crc32(&payload) != crc {
                return Err(Error::Corrupt("WAL checksum mismatch".into()));
            }
            out.push(decode(&payload)?);
        }
        Ok(out)
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
            let payload = encode(rec);
            let mut frame = Vec::with_capacity(8 + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
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
/// The framing is the WAL's own: `[len u32][crc32 u32][payload]`, where the
/// payload is the LSN (little-endian u64) followed by the record encoding.
/// Because the stream reuses the torn-tail-tolerant frame layout, a
/// truncated stream decodes to an exact record prefix — a replica that
/// receives a partial shipment applies a prefix and asks for the rest.
pub fn ship_record(out: &mut Vec<u8>, lsn: u64, rec: &WalRecord) {
    let mut payload = Vec::with_capacity(16);
    codec::put_u64(&mut payload, lsn);
    payload.extend_from_slice(&encode(rec));
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Decode a replication stream produced by [`ship_record`].
///
/// Mirrors [`Wal::replay`]: a torn tail (truncated final frame) ends the
/// decode cleanly with the complete prefix, while a checksum mismatch on a
/// *complete* frame — actual corruption rather than truncation — is an
/// error.
pub fn decode_shipped(stream: &[u8]) -> Result<Vec<ShippedRecord>> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while stream.len() - at >= 8 {
        let len = u32::from_le_bytes(stream[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(stream[at + 4..at + 8].try_into().expect("4 bytes"));
        if len > 1 << 30 {
            return Err(Error::Corrupt(
                "unreasonable replication record length".into(),
            ));
        }
        if stream.len() - at - 8 < len {
            break; // torn payload
        }
        let payload = &stream[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            return Err(Error::Corrupt(
                "replication stream checksum mismatch".into(),
            ));
        }
        if payload.len() < 8 {
            return Err(Error::Corrupt("replication record shorter than LSN".into()));
        }
        let lsn = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let record = decode(&payload[8..])?;
        out.push(ShippedRecord { lsn, record });
        at += 8 + len;
    }
    Ok(out)
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(if filled == 0 {
                ReadOutcome::Eof
            } else {
                ReadOutcome::Partial
            });
        }
        filled += n;
    }
    Ok(ReadOutcome::Full)
}

fn encode(rec: &WalRecord) -> Vec<u8> {
    match rec {
        WalRecord::Insert { key, vector, attrs } => {
            let mut out = Vec::with_capacity(17 + vector.len() * 4);
            out.push(TAG_INSERT_V2);
            codec::put_u64(&mut out, *key);
            codec::put_u32(&mut out, vector.len() as u32);
            for x in vector {
                out.extend_from_slice(&x.to_le_bytes());
            }
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

fn decode(payload: &[u8]) -> Result<WalRecord> {
    let corrupt = || Error::Corrupt("malformed WAL payload".into());
    let mut r = Reader::new(payload);
    match r.u8()? {
        TAG_INSERT_V1 => {
            let key = r.u64()?;
            let dim = r.u32()? as usize;
            let vector = r.f32s(dim)?;
            if !r.is_empty() {
                return Err(corrupt());
            }
            Ok(WalRecord::Insert {
                key,
                vector,
                attrs: Vec::new(),
            })
        }
        TAG_INSERT_V2 => {
            let key = r.u64()?;
            let dim = r.u32()? as usize;
            let vector = r.f32s(dim)?;
            let nattrs = r.u32()? as usize;
            let mut attrs = Vec::with_capacity(nattrs.min(1024));
            for _ in 0..nattrs {
                let name = r.string()?;
                let value = r.attr()?;
                attrs.push((name, value));
            }
            if !r.is_empty() {
                return Err(corrupt());
            }
            Ok(WalRecord::Insert { key, vector, attrs })
        }
        TAG_DELETE => {
            let key = r.u64()?;
            if !r.is_empty() {
                return Err(corrupt());
            }
            Ok(WalRecord::Delete { key })
        }
        _ => Err(corrupt()),
    }
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
    fn legacy_v1_insert_still_replays() {
        let dir = TempDir::new("wal-v1").unwrap();
        let path = dir.file("old.wal");
        // Hand-encode a v1 record: tag, key, dim, components.
        let mut payload = vec![TAG_INSERT_V1];
        payload.extend_from_slice(&5u64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&1.5f32.to_le_bytes());
        payload.extend_from_slice(&(-2.0f32).to_le_bytes());
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        std::fs::write(&path, &frame).unwrap();
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs, vec![insert(5, vec![1.5, -2.0])]);
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
    fn crc32_known_value() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
