//! Page-granular file I/O.
//!
//! Reads are *positioned* on unix (`pread` via [`std::os::unix::fs::FileExt`])
//! so concurrent searchers sharing one file overlap at the syscall level
//! instead of serializing on a seek lock. On other platforms reads fall
//! back to seek+read under the handle mutex.

use crate::page::{Page, PageId, PAGE_SIZE};
use std::fs::{File, OpenOptions};
#[cfg(not(unix))]
use std::io::Read;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use vdb_core::error::Result;
use vdb_core::sync::Mutex;

/// A file accessed in whole pages, with allocation tracking.
///
/// Thread-safe: on unix, page reads use positioned I/O on a dup'ed handle
/// and never take a lock; writes and metadata operations go through the
/// seek-based handle under a mutex (portable fallback for reads too).
pub struct PagedFile {
    inner: Mutex<File>,
    /// Dup of the same descriptor used for lock-free positioned reads.
    #[cfg(unix)]
    reader: File,
    path: PathBuf,
    pages: Mutex<u64>,
}

impl PagedFile {
    fn wrap(file: File, path: &Path, pages: u64) -> Result<Self> {
        #[cfg(unix)]
        let reader = file.try_clone()?;
        Ok(PagedFile {
            inner: Mutex::new(file),
            #[cfg(unix)]
            reader,
            path: path.to_path_buf(),
            pages: Mutex::new(pages),
        })
    }

    /// Create (truncating) a new paged file.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        PagedFile::wrap(file, path.as_ref(), 0)
    }

    /// Open an existing paged file.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        PagedFile::wrap(file, path.as_ref(), len / PAGE_SIZE as u64)
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u64 {
        *self.pages.lock()
    }

    /// Allocate `n` fresh zeroed pages, returning the id of the first.
    pub fn allocate(&self, n: u64) -> Result<PageId> {
        let mut pages = self.pages.lock();
        let first = *pages;
        *pages += n;
        // Extend the file so reads of the new pages succeed.
        let file = self.inner.lock();
        file.set_len(*pages * PAGE_SIZE as u64)?;
        Ok(PageId(first))
    }

    /// Read one page into a fresh buffer.
    pub fn read_page(&self, id: PageId) -> Result<Page> {
        let mut page = Page::zeroed();
        self.read_page_into(id, &mut page)?;
        Ok(page)
    }

    /// Read one page into `page`, overwriting all of it.
    pub fn read_page_into(&self, id: PageId, page: &mut Page) -> Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.reader.read_exact_at(page.bytes_mut(), id.offset())?;
        }
        #[cfg(not(unix))]
        {
            let mut file = self.inner.lock();
            file.seek(SeekFrom::Start(id.offset()))?;
            file.read_exact(page.bytes_mut())?;
        }
        Ok(())
    }

    /// Write one page.
    pub fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        let mut file = self.inner.lock();
        file.seek(SeekFrom::Start(id.offset()))?;
        file.write_all(page.bytes())?;
        Ok(())
    }

    /// Flush to the OS.
    pub fn sync(&self) -> Result<()> {
        self.inner.lock().sync_data()?;
        Ok(())
    }
}

impl std::fmt::Debug for PagedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PagedFile({:?}, {} pages)", self.path, self.num_pages())
    }
}

/// Fsync a directory so metadata operations inside it (file creation,
/// rename) survive a crash. No-op on platforms where directories cannot
/// be opened as files.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// A unique temporary directory for tests and experiments; removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory under the system temp dir.
    pub fn new(prefix: &str) -> Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("vdb-{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let dir = TempDir::new("pagedfile").unwrap();
        let f = PagedFile::create(dir.file("a.pages")).unwrap();
        let first = f.allocate(2).unwrap();
        assert_eq!(first, PageId(0));
        assert_eq!(f.num_pages(), 2);

        let mut p = Page::zeroed();
        p.write_u32(0, 42);
        p.write_u32(PAGE_SIZE - 4, 7);
        f.write_page(PageId(1), &p).unwrap();

        let back = f.read_page(PageId(1)).unwrap();
        assert_eq!(back.read_u32(0), 42);
        assert_eq!(back.read_u32(PAGE_SIZE - 4), 7);
        // Unwritten page reads as zeros.
        assert_eq!(f.read_page(PageId(0)).unwrap().read_u32(0), 0);
    }

    #[test]
    fn reopen_preserves_contents() {
        let dir = TempDir::new("reopen").unwrap();
        let path = dir.file("b.pages");
        {
            let f = PagedFile::create(&path).unwrap();
            f.allocate(1).unwrap();
            let mut p = Page::zeroed();
            p.write_f32(16, 2.5);
            f.write_page(PageId(0), &p).unwrap();
            f.sync().unwrap();
        }
        let f = PagedFile::open(&path).unwrap();
        assert_eq!(f.num_pages(), 1);
        assert_eq!(f.read_page(PageId(0)).unwrap().read_f32(16), 2.5);
    }

    #[test]
    fn concurrent_positioned_reads_agree() {
        let dir = TempDir::new("pread").unwrap();
        let f = std::sync::Arc::new(PagedFile::create(dir.file("c.pages")).unwrap());
        f.allocate(64).unwrap();
        for i in 0..64u64 {
            let mut p = Page::zeroed();
            p.write_u32(0, i as u32);
            f.write_page(PageId(i), &p).unwrap();
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let f = std::sync::Arc::clone(&f);
                std::thread::spawn(move || {
                    for round in 0..8 {
                        for i in 0..64u64 {
                            let id = (i + t * 13 + round) % 64;
                            assert_eq!(f.read_page(PageId(id)).unwrap().read_u32(0), id as u32);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn tempdir_cleans_up() {
        let path;
        {
            let dir = TempDir::new("cleanup").unwrap();
            path = dir.path().to_path_buf();
            std::fs::write(dir.file("x"), b"hello").unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
