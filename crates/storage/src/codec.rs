//! Shared little-endian (de)serialization helpers for the WAL, the
//! snapshot format, and the index images stored inside snapshots:
//! primitives, strings, and [`AttrValue`]s.

use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::error::{Error, Result};

const ATTR_NULL: u8 = 0;
const ATTR_INT: u8 = 1;
const ATTR_FLOAT: u8 = 2;
const ATTR_STR: u8 = 3;
const ATTR_BOOL: u8 = 4;

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_attr(out: &mut Vec<u8>, v: &AttrValue) {
    match v {
        AttrValue::Null => out.push(ATTR_NULL),
        AttrValue::Int(i) => {
            out.push(ATTR_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        AttrValue::Float(f) => {
            out.push(ATTR_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        AttrValue::Str(s) => {
            out.push(ATTR_STR);
            put_str(out, s);
        }
        AttrValue::Bool(b) => {
            out.push(ATTR_BOOL);
            out.push(*b as u8);
        }
    }
}

pub(crate) fn attr_type_tag(ty: AttrType) -> u8 {
    match ty {
        AttrType::Int => 0,
        AttrType::Float => 1,
        AttrType::Str => 2,
        AttrType::Bool => 3,
    }
}

pub(crate) fn attr_type_from_tag(tag: u8) -> Result<AttrType> {
    match tag {
        0 => Ok(AttrType::Int),
        1 => Ok(AttrType::Float),
        2 => Ok(AttrType::Str),
        3 => Ok(AttrType::Bool),
        other => Err(Error::Corrupt(format!("unknown attr type tag {other}"))),
    }
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

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::Corrupt("truncated payload".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// The next `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or_else(|| Error::Corrupt("array length overflow".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    pub(crate) fn f32s(&mut self, n: usize) -> Result<Vec<f32>> {
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or_else(|| Error::Corrupt("vector length overflow".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    pub(crate) fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corrupt("invalid UTF-8 in stored string".into()))
    }

    pub(crate) fn attr(&mut self) -> Result<AttrValue> {
        match self.u8()? {
            ATTR_NULL => Ok(AttrValue::Null),
            ATTR_INT => Ok(AttrValue::Int(self.i64()?)),
            ATTR_FLOAT => Ok(AttrValue::Float(self.f64()?)),
            ATTR_STR => Ok(AttrValue::Str(self.string()?)),
            ATTR_BOOL => Ok(AttrValue::Bool(self.u8()? != 0)),
            other => Err(Error::Corrupt(format!("unknown attr value tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_roundtrip() {
        let values = [
            AttrValue::Null,
            AttrValue::Int(-42),
            AttrValue::Float(2.5),
            AttrValue::Str("héllo".into()),
            AttrValue::Bool(true),
            AttrValue::Bool(false),
        ];
        let mut buf = Vec::new();
        for v in &values {
            put_attr(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            assert_eq!(&r.attr().unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        put_attr(&mut buf, &AttrValue::Str("long enough".into()));
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(matches!(r.attr(), Err(Error::Corrupt(_))), "cut {cut}");
        }
    }

    #[test]
    fn attr_type_tags_roundtrip() {
        for ty in [
            AttrType::Int,
            AttrType::Float,
            AttrType::Str,
            AttrType::Bool,
        ] {
            assert_eq!(attr_type_from_tag(attr_type_tag(ty)).unwrap(), ty);
        }
        assert!(attr_type_from_tag(9).is_err());
    }
}
