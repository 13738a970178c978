//! Asynchronous page prefetch: a std-only I/O worker pool.
//!
//! The disk-resident indexes (DiskANN beam search, SPANN posting-list
//! probes) know which pages they will need one step before they score
//! them: every candidate pushed onto the frontier names the page holding
//! its record, and every probed posting list enumerates its page run up
//! front. This module turns that knowledge into overlap — page reads are
//! *issued* the moment a candidate is queued and *awaited* only when the
//! search actually expands it, so query latency approaches
//! `max(io_stream, compute)` instead of `hops × (seek + compute)`.
//!
//! Overlap is not free: each request takes a queue lock and a worker
//! wake-up, and the demand read that finds its page in flight waits on a
//! condvar — a few µs of CPU on the cores the searches also run on. That
//! buys time only when the read it hides costs more, so the indexes queue
//! requests only while their cache reports
//! [`PageCache::prefetch_pays`]: a read timed at or above
//! [`crate::cache::PREFETCH_MIN_READ_NS`]. Reads served from the OS page
//! cache (~1 µs) stay inline and the pool is never spawned; a real or
//! simulated device (`VDB_SIM_READ_LAT_US`) opens the gate.
//!
//! # Design
//!
//! A small process-global pool of blocking reader threads drains a
//! bounded queue of `(cache, page)` requests and installs completed pages
//! through [`PageCache::prefetch_read`]. The cache's in-flight table makes
//! a demand read for a page already being prefetched *wait* for that read
//! instead of duplicating it, and completed pages are ordinary cache
//! residents — so prefetch is invisible to search results by
//! construction: it can only change *when* a page enters memory, never
//! what any page contains. Requests are best-effort: a full queue drops
//! the request (the demand read simply pays the miss), and pages already
//! resident or in flight are skipped before enqueueing.
//!
//! # io_uring seam
//!
//! The pool dispatches through the [`IoBackend`] trait, whose only
//! current implementation is [`SyncReadBackend`] (one blocking `pread`
//! per worker — portable, std-only). A real async backend (io_uring on
//! Linux) would implement `IoBackend` by batching the queued page ids
//! into submission-queue entries and completing them onto the same
//! `PageCache::prefetch_read`-equivalent install path; everything above
//! this trait (request dedup, accounting, waiting demand reads) is
//! backend-agnostic.

use crate::cache::PageCache;
use crate::page::PageId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use vdb_core::sync::Mutex;

/// How a worker services one prefetch request. The seam behind which an
/// io_uring (or other async I/O) backend would slot; see the module docs.
pub trait IoBackend: Send + Sync + 'static {
    /// Bring `id` into `cache`, accounting the read as a prefetch.
    fn fetch(&self, cache: &PageCache, id: PageId);
}

/// The std-only backend: one synchronous positioned read per request.
#[derive(Debug, Default)]
pub struct SyncReadBackend;

impl IoBackend for SyncReadBackend {
    fn fetch(&self, cache: &PageCache, id: PageId) {
        // Errors are swallowed here by design: a failed prefetch costs
        // nothing; the demand read retries and surfaces the error.
        let _ = cache.prefetch_read(id);
    }
}

struct Queue {
    jobs: VecDeque<(Arc<PageCache>, PageId)>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    ready: Condvar,
    backend: Box<dyn IoBackend>,
    cap: usize,
    /// Requests dropped because the queue was full (observability; a
    /// dropped prefetch only costs the demand miss it would have hidden).
    dropped: AtomicU64,
    issued: AtomicU64,
}

/// A pool of prefetch I/O workers shared by every disk-resident index in
/// the process (see [`pool`] for the global instance).
pub struct PrefetchPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl PrefetchPool {
    /// Spawn a pool with `workers` reader threads over `backend`.
    pub fn with_backend(workers: usize, backend: Box<dyn IoBackend>) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            backend,
            cap: 1024,
            dropped: AtomicU64::new(0),
            issued: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vdb-prefetch-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn prefetch worker")
            })
            .collect();
        PrefetchPool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Spawn a pool of `workers` synchronous readers.
    pub fn new(workers: usize) -> Self {
        PrefetchPool::with_backend(workers, Box::new(SyncReadBackend))
    }

    /// Queue a page read. Skips pages already resident or in flight
    /// (cheap check) and drops the request if the queue is full; never
    /// blocks the caller.
    pub fn request(&self, cache: &Arc<PageCache>, id: PageId) {
        if cache.budget() == 0 || cache.contains_or_inflight(id) {
            return;
        }
        {
            let mut q = self.shared.queue.lock();
            if q.shutdown {
                return;
            }
            if q.jobs.len() >= self.shared.cap {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            q.jobs.push_back((Arc::clone(cache), id));
            self.shared.issued.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.ready.notify_one();
    }

    /// Requests accepted so far (queued for a worker).
    pub fn issued(&self) -> u64 {
        self.shared.issued.load(Ordering::Relaxed)
    }

    /// Requests dropped on a full queue so far.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Block until the queue is empty and workers are idle-ish (test
    /// helper: the queue being drained means every accepted request has
    /// at least reached its worker; in-flight installs are then awaited
    /// by the cache's own in-flight table).
    pub fn drain(&self) {
        loop {
            {
                let q = self.shared.queue.lock();
                if q.jobs.is_empty() {
                    break;
                }
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for PrefetchPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
            q.jobs.clear();
        }
        self.shared.ready.notify_all();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for PrefetchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PrefetchPool(issued={}, dropped={})",
            self.issued(),
            self.dropped()
        )
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                q = shared
                    .ready
                    .wait(q)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        shared.backend.fetch(&job.0, job.1);
    }
}

/// The process-global prefetch pool, spawned on first use. Worker count
/// comes from `VDB_PREFETCH_WORKERS` (default 4 — blocking readers spend
/// their time in the kernel, so the count need not match CPU cores).
pub fn pool() -> &'static PrefetchPool {
    static POOL: OnceLock<PrefetchPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::env::var("VDB_PREFETCH_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or(4);
        PrefetchPool::new(workers)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{PagedFile, TempDir};
    use crate::page::Page;

    fn setup(pages: u64, budget: usize) -> (TempDir, Arc<PageCache>) {
        let dir = TempDir::new("prefetch").unwrap();
        let file = Arc::new(PagedFile::create(dir.file("p.pages")).unwrap());
        file.allocate(pages).unwrap();
        for i in 0..pages {
            let mut p = Page::zeroed();
            p.write_u32(0, i as u32);
            file.write_page(PageId(i), &p).unwrap();
        }
        (dir, Arc::new(PageCache::new(file, budget)))
    }

    #[test]
    fn prefetched_pages_become_hits() {
        let (_dir, cache) = setup(16, 16);
        let pool = PrefetchPool::new(2);
        for i in 0..16u64 {
            pool.request(&cache, PageId(i));
        }
        pool.drain();
        // Wait for installs to land (drain only proves dequeue).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while cache.stats().prefetched < 16 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        for i in 0..16u64 {
            assert_eq!(cache.read(PageId(i)).unwrap().read_u32(0), i as u32);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 0, "all demand reads served from prefetch: {s:?}");
        assert_eq!(s.hits, 16);
        assert_eq!(s.disk_reads(), 16);
    }

    #[test]
    fn resident_pages_are_not_reprefetched() {
        let (_dir, cache) = setup(4, 4);
        cache.read(PageId(0)).unwrap();
        let pool = PrefetchPool::new(1);
        pool.request(&cache, PageId(0));
        pool.drain();
        assert_eq!(pool.issued(), 0, "resident page filtered before enqueue");
    }

    #[test]
    fn demand_read_waits_for_inflight_prefetch() {
        // Deterministic interleaving: mark the page in flight by hand,
        // then complete the prefetch from another thread while a demand
        // read is blocked on it.
        let (_dir, cache) = setup(4, 4);
        let slow = Arc::clone(&cache);
        let t = std::thread::spawn(move || slow.read(PageId(1)).unwrap().read_u32(0));
        // Racy but harmless: whichever path reads the page, the result and
        // the total disk-read count must agree.
        assert!(cache.prefetch_read(PageId(1)).unwrap() || cache.contains(PageId(1)));
        assert_eq!(t.join().unwrap(), 1);
        assert!(cache.stats().disk_reads() <= 2);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let (_dir, cache) = setup(4, 4);
        let pool = PrefetchPool::new(3);
        pool.request(&cache, PageId(2));
        drop(pool); // must not hang
    }
}
