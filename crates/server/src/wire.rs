//! The wire frame of the vdb protocol: a magic word in front of one
//! `vdb_core::codec` frame.
//!
//! ```text
//! [magic u32][len u32][crc32 u32][payload: len bytes]   (all little-endian)
//! ```
//!
//! The magic word rejects strays (an HTTP client, a torn reconnect mid
//! stream), the length is bounded by a caller-supplied cap so a corrupt
//! header cannot trigger an unbounded allocation, and the CRC covers the
//! payload so a flipped byte is detected before any message decoding
//! runs. Every framing failure is [`Error::Corrupt`] — a peer can answer
//! with a protocol error instead of tearing down silently.
//!
//! `split_frame` is the one header check: the blocking [`read_frame`] and
//! the server's event loop, which parses frames out of its read buffer,
//! both go through it.

use std::io::{ErrorKind, Read, Write};
use vdb_core::codec::{self, Reader, FRAME_HEADER};
use vdb_core::error::{Error, Result};

/// Frame magic: "VDBW" (vectordb wire), little-endian.
pub const MAGIC: u32 = 0x5744_4256;

/// Default cap on a single frame's payload (16 MiB) — large enough for a
/// several-thousand-query batch at laptop dims, small enough that a
/// corrupt length header cannot OOM the peer.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes in front of a payload: the magic and the frame header.
const HEADER: usize = 4 + FRAME_HEADER;

/// Write one frame (header + payload) and flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut framed = Vec::with_capacity(HEADER + payload.len());
    codec::put_u32(&mut framed, MAGIC);
    codec::put_frame(&mut framed, payload);
    w.write_all(&framed)?;
    w.flush()?;
    Ok(())
}

/// The first frame of `buf`: its payload and the bytes it spans, or
/// `Ok(None)` while `buf` holds only part of it. A wrong magic, a length
/// over `max_len` (rejected as soon as the header is in) or a CRC
/// mismatch is [`Error::Corrupt`].
pub(crate) fn split_frame(buf: &[u8], max_len: u32) -> Result<Option<(&[u8], usize)>> {
    let mut r = Reader::new(buf);
    let Ok(magic) = r.u32() else {
        return Ok(None);
    };
    if magic != MAGIC {
        return Err(Error::Corrupt(format!("bad frame magic {magic:#010x}")));
    }
    Ok(r.frame(max_len)?.map(|p| (p, HEADER + p.len())))
}

/// Read one frame's payload. Returns `Ok(None)` on clean end-of-stream
/// (the peer closed between frames); a torn header or payload, a wrong
/// magic, an over-long length or a CRC mismatch is [`Error::Corrupt`]. I/O timeouts surface as
/// [`Error::Io`].
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>> {
    let mut buf = vec![0u8; HEADER];
    let mut got = 0;
    while got < HEADER {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(Error::Corrupt("torn frame header".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    if split_frame(&buf, max_len)?.is_none() {
        // The header passed the check, so its length is within the cap.
        let len = Reader::new(&buf[4..]).u32()? as usize;
        buf.resize(HEADER + len, 0);
        if let Err(e) = r.read_exact(&mut buf[HEADER..]) {
            return Err(if e.kind() == ErrorKind::UnexpectedEof {
                Error::Corrupt("torn frame payload".into())
            } else {
                e.into()
            });
        }
        split_frame(&buf, max_len)?.expect("a whole frame was read");
    }
    buf.drain(..HEADER);
    Ok(Some(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        assert_eq!(
            split_frame(&buf, MAX_FRAME).unwrap(),
            Some((&b"hello"[..], HEADER + 5))
        );
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME).unwrap().as_deref(),
            Some(&b""[..])
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
            assert!(split_frame(&framed[..cut], MAX_FRAME).unwrap().is_none());
        }
    }

    #[test]
    fn bad_magic_oversize_and_crc_rejected() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"abcdef").unwrap();
        let mut bad_magic = framed.clone();
        bad_magic[0] ^= 0xFF;
        let mut oversize = framed.clone();
        oversize[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut bad_crc = framed.clone();
        *bad_crc.last_mut().unwrap() ^= 0x01;
        for bytes in [bad_magic, oversize.clone(), bad_crc] {
            assert!(read_frame(&mut Cursor::new(bytes.clone()), MAX_FRAME).is_err());
            assert!(split_frame(&bytes, MAX_FRAME).is_err());
        }
        // An over-long length is caught from the header alone.
        assert!(split_frame(&oversize[..HEADER], MAX_FRAME).is_err());
        // The cap applies even to well-formed frames.
        assert!(read_frame(&mut Cursor::new(framed), 3).is_err());
    }
}
