//! The workspace's one little-endian byte codec: the `put_*` encoders,
//! the bounds-checked [`Reader`], the attribute tags, and the CRC frame.
//! WAL records, the replication stream, snapshots, the cluster manifest,
//! the text index, the HNSW image and the wire protocol are written and
//! read through this module; the DiskANN and SPANN page files still
//! encode by hand.
//!
//! A **frame** is `[len u32][crc32 u32][payload: len bytes]`, the CRC
//! ([`crate::crc32`]) covering the payload. [`put_frame`] writes one;
//! [`Reader::frame`] reads one and returns `Ok(None)` when the input ends
//! inside it (a torn tail), so each caller keeps its own torn-tail
//! policy, while an over-long length or a CRC mismatch is
//! [`Error::Corrupt`].
//!
//! **Count rule:** a decoded element count `n` whose elements need more
//! than the bytes left is [`Error::Corrupt`] before anything is allocated
//! for them ([`Reader::count`]), so no untrusted count reaches an
//! allocation. Every decode failure maps to [`Error::Corrupt`].

use crate::attr::{AttrType, AttrValue};
use crate::checksum::crc32;
use crate::error::{Error, Result};

const ATTR_NULL: u8 = 0;
const ATTR_INT: u8 = 1;
const ATTR_FLOAT: u8 = 2;
const ATTR_STR: u8 = 3;
const ATTR_BOOL: u8 = 4;

/// Bytes of a frame's `[len][crc]` header.
pub const FRAME_HEADER: usize = 8;

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

/// Append an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a `u32`-length-prefixed opaque byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a `u32`-length-prefixed `f32` vector.
pub fn put_vec_f32(out: &mut Vec<u8>, v: &[f32]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_f32(out, x);
    }
}

/// Append an attribute value: a tag byte, then the value.
pub fn put_attr(out: &mut Vec<u8>, v: &AttrValue) {
    match v {
        AttrValue::Null => put_u8(out, ATTR_NULL),
        AttrValue::Int(i) => {
            put_u8(out, ATTR_INT);
            put_u64(out, *i as u64);
        }
        AttrValue::Float(f) => {
            put_u8(out, ATTR_FLOAT);
            put_f64(out, *f);
        }
        AttrValue::Str(s) => {
            put_u8(out, ATTR_STR);
            put_str(out, s);
        }
        AttrValue::Bool(b) => {
            put_u8(out, ATTR_BOOL);
            put_u8(out, *b as u8);
        }
    }
}

/// The tag byte of an attribute type.
pub fn attr_type_tag(ty: AttrType) -> u8 {
    match ty {
        AttrType::Int => 0,
        AttrType::Float => 1,
        AttrType::Str => 2,
        AttrType::Bool => 3,
    }
}

/// The attribute type of a tag byte written by [`attr_type_tag`].
pub fn attr_type_from_tag(tag: u8) -> Result<AttrType> {
    match tag {
        0 => Ok(AttrType::Int),
        1 => Ok(AttrType::Float),
        2 => Ok(AttrType::Str),
        3 => Ok(AttrType::Bool),
        other => Err(Error::Corrupt(format!("unknown attr type tag {other}"))),
    }
}

/// The `[len][crc]` header of a frame around `payload`.
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut head = [0u8; FRAME_HEADER];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    head
}

/// Append `payload` as one frame: [`frame_header`], then the payload.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload);
}

/// A bounds-checked little-endian reader over a byte slice; every decode
/// error maps to [`Error::Corrupt`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read `buf` from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Require that every byte was consumed: trailing bytes are a framing
    /// bug, not padding.
    pub fn finish(self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(Error::Corrupt(
                "trailing bytes after the encoded value".into(),
            ))
        }
    }

    /// The count rule: `n` elements of at least `min_bytes` bytes each
    /// must fit in the bytes left. Checked before the caller allocates
    /// anything for them; returns `n` as a `usize`.
    pub fn count(&self, n: u64, min_bytes: usize) -> Result<usize> {
        let left = (self.buf.len() - self.pos) as u64;
        match n.checked_mul(min_bytes.max(1) as u64) {
            Some(need) if need <= left => Ok(n as usize),
            _ => Err(Error::Corrupt(format!(
                "count {n} needs more than the {left} bytes left"
            ))),
        }
    }

    /// A `u32` element count, checked by the [count rule](Reader::count).
    pub fn u32_count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.u32()?;
        self.count(n.into(), min_bytes)
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::Corrupt("truncated input".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// The next little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32> {
        self.array().map(f32::from_le_bytes)
    }

    /// The next little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// The next `n` little-endian values of `N` bytes each, bounds-checked
    /// before the output is allocated.
    fn values<const N: usize, T>(&mut self, n: usize, f: impl Fn([u8; N]) -> T) -> Result<Vec<T>> {
        let bytes = n
            .checked_mul(N)
            .ok_or_else(|| Error::Corrupt(format!("count {n} overflows")))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(N)
            .map(|c| f(c.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    /// The next `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        self.values(n, u32::from_le_bytes)
    }

    /// The next `n` little-endian `u64`s.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>> {
        self.values(n, u64::from_le_bytes)
    }

    /// The next `n` little-endian `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>> {
        self.values(n, f32::from_le_bytes)
    }

    /// The next unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(Error::Corrupt("varint overflows 64 bits".into()));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// The next `len` bytes as a UTF-8 string.
    pub fn utf8(&mut self, len: usize) -> Result<String> {
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| Error::Corrupt("invalid UTF-8 in a string".into()))
    }

    /// The next `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        self.utf8(len)
    }

    /// The next `u32`-length-prefixed opaque byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// The next `u32`-length-prefixed `f32` vector.
    pub fn vec_f32(&mut self) -> Result<Vec<f32>> {
        let len = self.u32()? as usize;
        self.f32s(len)
    }

    /// The next attribute value written by [`put_attr`].
    pub fn attr(&mut self) -> Result<AttrValue> {
        match self.u8()? {
            ATTR_NULL => Ok(AttrValue::Null),
            ATTR_INT => Ok(AttrValue::Int(self.i64()?)),
            ATTR_FLOAT => Ok(AttrValue::Float(self.f64()?)),
            ATTR_STR => Ok(AttrValue::Str(self.str()?)),
            ATTR_BOOL => Ok(AttrValue::Bool(self.u8()? != 0)),
            other => Err(Error::Corrupt(format!("unknown attr value tag {other}"))),
        }
    }

    /// The next frame's payload. `Ok(None)` when the input ends inside the
    /// frame (nothing is consumed); [`Error::Corrupt`] when its length
    /// exceeds `max_len` (checked as soon as the header is in) or its CRC
    /// does not match.
    pub fn frame(&mut self, max_len: u32) -> Result<Option<&'a [u8]>> {
        let rest = &self.buf[self.pos..];
        let Some(head) = rest.get(..FRAME_HEADER) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        if len > max_len {
            return Err(Error::Corrupt(format!(
                "frame length {len} exceeds cap {max_len}"
            )));
        }
        let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        let Some(payload) = rest.get(FRAME_HEADER..FRAME_HEADER + len as usize) else {
            return Ok(None);
        };
        if crc32(payload) != crc {
            return Err(Error::Corrupt("frame CRC mismatch".into()));
        }
        self.pos += FRAME_HEADER + payload.len();
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Check = fn(&mut Reader<'_>) -> Result<bool>;

    fn attrs() -> [AttrValue; 6] {
        [
            AttrValue::Null,
            AttrValue::Int(-42),
            AttrValue::Float(2.5),
            AttrValue::Str("héllo".into()),
            AttrValue::Bool(true),
            AttrValue::Bool(false),
        ]
    }

    /// One row per primitive: its encoding, and a decode that says whether
    /// it read the value back.
    fn table() -> Vec<(&'static str, Vec<u8>, Check)> {
        fn enc(f: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
            let mut out = Vec::new();
            f(&mut out);
            out
        }
        vec![
            ("u8", enc(|o| put_u8(o, 7)), |r| Ok(r.u8()? == 7)),
            ("u32", enc(|o| put_u32(o, 0xDEAD_BEEF)), |r| {
                Ok(r.u32()? == 0xDEAD_BEEF)
            }),
            ("u64", enc(|o| put_u64(o, u64::MAX - 1)), |r| {
                Ok(r.u64()? == u64::MAX - 1)
            }),
            ("i64", enc(|o| put_u64(o, -5i64 as u64)), |r| {
                Ok(r.i64()? == -5)
            }),
            ("f32", enc(|o| put_f32(o, -1.5)), |r| Ok(r.f32()? == -1.5)),
            ("f64", enc(|o| put_f64(o, 2.25)), |r| Ok(r.f64()? == 2.25)),
            ("varint", enc(|o| put_varint(o, u64::MAX)), |r| {
                Ok(r.varint()? == u64::MAX)
            }),
            ("str", enc(|o| put_str(o, "héllo")), |r| {
                Ok(r.str()? == "héllo")
            }),
            ("bytes", enc(|o| put_bytes(o, &[9, 8, 7])), |r| {
                Ok(r.bytes()? == [9, 8, 7])
            }),
            ("vec_f32", enc(|o| put_vec_f32(o, &[1.0, 2.0, 3.0])), |r| {
                Ok(r.vec_f32()? == [1.0, 2.0, 3.0])
            }),
            ("u32s", enc(|o| (1..=2).for_each(|v| put_u32(o, v))), |r| {
                Ok(r.u32s(2)? == [1, 2])
            }),
            ("u64s", enc(|o| (3..=4).for_each(|v| put_u64(o, v))), |r| {
                Ok(r.u64s(2)? == [3, 4])
            }),
            (
                "f32s",
                enc(|o| [0.5, -0.5].into_iter().for_each(|v| put_f32(o, v))),
                |r| Ok(r.f32s(2)? == [0.5, -0.5]),
            ),
            (
                "attrs",
                enc(|o| attrs().iter().for_each(|a| put_attr(o, a))),
                |r| {
                    let back: Result<Vec<AttrValue>> = (0..6).map(|_| r.attr()).collect();
                    Ok(back? == attrs())
                },
            ),
        ]
    }

    #[test]
    fn every_primitive_roundtrips_and_trailing_bytes_are_corrupt() {
        for (name, bytes, check) in table() {
            let mut r = Reader::new(&bytes);
            assert!(check(&mut r).unwrap(), "{name}");
            r.finish().unwrap();
            let mut extra = bytes.clone();
            extra.push(0);
            let mut r = Reader::new(&extra);
            assert!(check(&mut r).unwrap(), "{name}");
            assert!(matches!(r.finish(), Err(Error::Corrupt(_))), "{name}");
        }
    }

    #[test]
    fn a_cut_at_every_byte_is_corrupt() {
        for (name, bytes, check) in table() {
            for cut in 0..bytes.len() {
                let res = check(&mut Reader::new(&bytes[..cut]));
                assert!(matches!(res, Err(Error::Corrupt(_))), "{name} cut {cut}");
            }
        }
    }

    #[test]
    fn the_count_rule_rejects_before_allocating() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&buf).u32_count(4).unwrap(), 3, "fits exactly");
        assert!(
            Reader::new(&buf[..15]).u32_count(4).is_err(),
            "one byte short"
        );
        let r = Reader::new(&buf);
        assert!(matches!(r.count(1 << 40, 1), Err(Error::Corrupt(_))));
        assert!(
            matches!(r.count(1 << 62, 8), Err(Error::Corrupt(_))),
            "overflow"
        );
        // Length-prefixed values and arrays hit the same wall.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert!(Reader::new(&huge).vec_f32().is_err());
        assert!(Reader::new(&huge).str().is_err());
        assert!(Reader::new(&huge).bytes().is_err());
        assert!(Reader::new(&huge).u64s(usize::MAX).is_err());
    }

    #[test]
    fn frames_report_torn_tails_over_long_lengths_and_flipped_bytes() {
        let mut two = Vec::new();
        put_frame(&mut two, b"first");
        put_frame(&mut two, b"");
        let mut r = Reader::new(&two);
        assert_eq!(r.frame(16).unwrap(), Some(&b"first"[..]));
        assert_eq!(r.frame(16).unwrap(), Some(&b""[..]));
        assert!(r.frame(16).unwrap().is_none() && r.is_empty());
        // A torn tail is `None` and consumes nothing.
        for cut in 1..FRAME_HEADER + 5 {
            let mut r = Reader::new(&two[..cut]);
            assert_eq!(r.frame(16).unwrap(), None, "cut {cut}");
            assert!(!r.is_empty(), "cut {cut}");
        }
        // The cap is checked as soon as the header is in.
        assert!(matches!(
            Reader::new(&two[..FRAME_HEADER]).frame(4),
            Err(Error::Corrupt(_))
        ));
        for at in 0..two.len() {
            let mut flipped = two.clone();
            flipped[at] ^= 0x40;
            let mut r = Reader::new(&flipped);
            let res = r.frame(16).and_then(|_| r.frame(16));
            assert!(matches!(res, Err(Error::Corrupt(_))), "flip at {at}");
        }
    }

    #[test]
    fn attr_tags_roundtrip() {
        for ty in [
            AttrType::Int,
            AttrType::Float,
            AttrType::Str,
            AttrType::Bool,
        ] {
            assert_eq!(attr_type_from_tag(attr_type_tag(ty)).unwrap(), ty);
        }
        assert!(attr_type_from_tag(9).is_err());
        assert!(Reader::new(&[9]).attr().is_err());
        assert!(
            Reader::new(&[0x80; 11]).varint().is_err(),
            "over-long varint"
        );
    }
}
