//! Length-prefixed, CRC-framed binary transport of the `vdb-server`
//! wire protocol, also the encoding of the [`crate::manifest`].
//!
//! A frame on the wire is:
//!
//! ```text
//! [magic u32][len u32][crc32 u32][payload: len bytes]   (all little-endian)
//! ```
//!
//! The magic word rejects strays (an HTTP client, a torn reconnect mid
//! stream), the length prefix is bounded by a caller-supplied cap so a
//! corrupt header cannot trigger an unbounded allocation, and the CRC
//! covers the payload so a flipped byte is detected before any message
//! decoding runs. Every decode failure maps to [`Error::Corrupt`] — a
//! peer can answer with a protocol error instead of tearing down
//! silently.
//!
//! The module also hosts the bounded little-endian [`Reader`] and the
//! `put_*` encoding helpers the protocol and the manifest build their
//! messages from.

use std::io::{ErrorKind, Read, Write};
use vdb_core::error::{Error, Result};

/// Frame magic: "VDBW" (vectordb wire), little-endian.
pub const MAGIC: u32 = 0x5744_4256;

/// Default cap on a single frame's payload (16 MiB) — large enough for a
/// several-thousand-query batch at laptop dims, small enough that a
/// corrupt length header cannot OOM the peer.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// The workspace CRC-32 (the same checksum as the WAL's), re-exported
/// so `wire::crc32` callers keep compiling.
pub use vdb_core::crc32;

/// Write one frame (header + payload) and flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut head = [0u8; 12];
    head[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    head[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. Returns `Ok(None)` on clean end-of-stream
/// (the peer closed between frames); any torn header/payload, bad magic,
/// oversized length, or CRC mismatch is [`Error::Corrupt`]. I/O timeouts
/// surface as [`Error::Io`].
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>> {
    let mut head = [0u8; 12];
    match r.read(&mut head) {
        Ok(0) => return Ok(None),
        Ok(mut got) => {
            while got < head.len() {
                match r.read(&mut head[got..]) {
                    Ok(0) => return Err(Error::Corrupt("torn frame header".into())),
                    Ok(n) => got += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => return read_frame(r, max_len),
        Err(e) => return Err(e.into()),
    }
    let magic = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(Error::Corrupt(format!("bad frame magic {magic:#010x}")));
    }
    let len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(Error::Corrupt(format!(
            "frame length {len} exceeds cap {max_len}"
        )));
    }
    let crc = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len as usize];
    if let Err(e) = r.read_exact(&mut payload) {
        return Err(if e.kind() == ErrorKind::UnexpectedEof {
            Error::Corrupt("torn frame payload".into())
        } else {
            e.into()
        });
    }
    if crc32(&payload) != crc {
        return Err(Error::Corrupt("frame CRC mismatch".into()));
    }
    Ok(Some(payload))
}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f32`.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a length-prefixed opaque byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a length-prefixed `f32` vector.
pub fn put_vec_f32(out: &mut Vec<u8>, v: &[f32]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_f32(out, x);
    }
}

/// Append a [`vdb_core::index::SearchParams`] (timeout encoded as whole
/// milliseconds, `0` = none).
pub fn put_search_params(out: &mut Vec<u8>, p: &vdb_core::index::SearchParams) {
    put_u32(out, p.beam_width as u32);
    put_u32(out, p.nprobe as u32);
    put_u32(out, p.rerank as u32);
    put_u32(out, p.max_leaf_points as u32);
    put_f32(out, p.overfetch);
    put_u64(out, p.timeout.map_or(0, |t| t.as_millis().max(1) as u64));
}

/// Decode a [`vdb_core::index::SearchParams`] written by
/// [`put_search_params`].
pub fn read_search_params(r: &mut Reader<'_>) -> Result<vdb_core::index::SearchParams> {
    let beam_width = r.u32()? as usize;
    let nprobe = r.u32()? as usize;
    let rerank = r.u32()? as usize;
    let max_leaf_points = r.u32()? as usize;
    let overfetch = r.f32()?;
    let timeout_ms = r.u64()?;
    Ok(vdb_core::index::SearchParams {
        beam_width,
        nprobe,
        rerank,
        max_leaf_points,
        overfetch,
        timeout: (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)),
    })
}

/// A bounds-checked little-endian reader over a message payload; every
/// decode error maps to [`Error::Corrupt`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::Corrupt("truncated message".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Decode a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Decode a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Decode a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Decode an `f32`.
    pub fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Decode an `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Decode a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::Corrupt("non-UTF-8 string".into()))
    }

    /// Decode a length-prefixed opaque byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Decode a length-prefixed `f32` vector.
    pub fn vec_f32(&mut self) -> Result<Vec<f32>> {
        let len = self.u32()? as usize;
        // Bound the pre-allocation by what the payload can actually hold.
        if len > self.buf.len().saturating_sub(self.pos) / 4 {
            return Err(Error::Corrupt("vector length exceeds payload".into()));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    /// Require that the whole payload was consumed (trailing garbage is
    /// a framing bug, not padding).
    pub fn finish(self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(Error::Corrupt("trailing bytes after message".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert!(read_frame(&mut cur, MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn clean_eof_is_none_torn_header_is_corrupt() {
        let mut empty = Cursor::new(Vec::new());
        assert!(read_frame(&mut empty, MAX_FRAME).unwrap().is_none());
        let mut framed = Vec::new();
        write_frame(&mut framed, b"abc").unwrap();
        for cut in 1..framed.len() {
            let mut cur = Cursor::new(framed[..cut].to_vec());
            let err = read_frame(&mut cur, MAX_FRAME).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_oversize_and_crc_rejected() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"abcdef").unwrap();
        let mut bad_magic = framed.clone();
        bad_magic[0] ^= 0xFF;
        assert!(read_frame(&mut Cursor::new(bad_magic), MAX_FRAME).is_err());
        let mut oversize = framed.clone();
        oversize[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut Cursor::new(oversize), MAX_FRAME).is_err());
        let mut bad_crc = framed.clone();
        *bad_crc.last_mut().unwrap() ^= 0x01;
        assert!(read_frame(&mut Cursor::new(bad_crc), MAX_FRAME).is_err());
        // The cap applies even to well-formed frames.
        assert!(read_frame(&mut Cursor::new(framed), 3).is_err());
    }

    #[test]
    fn reader_roundtrips_all_primitives() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, -1.5);
        put_f64(&mut buf, 2.25);
        put_str(&mut buf, "héllo");
        put_vec_f32(&mut buf, &[1.0, 2.0, 3.0]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.f64().unwrap(), 2.25);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.vec_f32().unwrap(), vec![1.0, 2.0, 3.0]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_trailing() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 10);
        let mut r = Reader::new(&buf);
        assert!(r.u64().is_err(), "truncated");
        let mut buf = Vec::new();
        put_vec_f32(&mut buf, &[1.0]);
        buf.push(0);
        let mut r = Reader::new(&buf);
        r.vec_f32().unwrap();
        assert!(r.finish().is_err(), "trailing byte");
        // A vector length that promises more floats than the payload holds
        // must fail before allocating.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Reader::new(&buf).vec_f32().is_err());
    }
}
