//! Page abstraction for disk-resident structures.
//!
//! Disk-resident indexes (DiskANN, SPANN; §2.2 of the paper) are designed
//! around the number of page-granular I/Os per query. Everything below the
//! cache works in fixed-size pages so that experiments can report *page
//! reads per query* — the hardware-independent cost those indexes optimize.

/// Size of one storage page in bytes (4 KiB, the common SSD/OS unit).
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within one paged file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Byte offset of this page in its file.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

/// An owned page buffer.
pub struct Page {
    data: Box<[u8]>,
}

impl Page {
    /// A zeroed page.
    pub fn zeroed() -> Self {
        Page {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        }
    }

    /// Read access to the page bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Write access to the page bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Read a little-endian `u32` at `offset`.
    pub fn read_u32(&self, offset: usize) -> u32 {
        u32::from_le_bytes(self.data[offset..offset + 4].try_into().expect("4 bytes"))
    }

    /// Write a little-endian `u32` at `offset`.
    pub fn write_u32(&mut self, offset: usize, v: u32) {
        self.data[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `f32` at `offset`.
    pub fn read_f32(&self, offset: usize) -> f32 {
        f32::from_le_bytes(self.data[offset..offset + 4].try_into().expect("4 bytes"))
    }

    /// Write a little-endian `f32` at `offset`.
    pub fn write_f32(&mut self, offset: usize, v: f32) {
        self.data[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", self.data.len())
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_offsets() {
        assert_eq!(PageId(0).offset(), 0);
        assert_eq!(PageId(3).offset(), 3 * 4096);
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let mut p = Page::zeroed();
        p.write_u32(0, 0xDEADBEEF);
        p.write_f32(8, -1.5);
        assert_eq!(p.read_u32(0), 0xDEADBEEF);
        assert_eq!(p.read_f32(8), -1.5);
        assert_eq!(p.read_u32(4), 0, "untouched bytes stay zero");
    }
}
