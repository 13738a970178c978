//! Admission-controlled page cache with pinning and lock-free I/O
//! accounting.
//!
//! The cache sits between disk-resident indexes and their [`PagedFile`]s.
//! Its budget (in pages) models available memory; its counters let the
//! disk experiments (F7/D1) report page reads per query under different
//! budgets, reproducing the DiskANN/SPANN design tradeoff without real
//! NVMe timing. Three mechanisms beyond plain LRU serve the §2.2
//! disk-serving story:
//!
//! - **Pinned hot set** ([`PageCache::pin`]): entry-region pages and other
//!   navigation state are held resident outside the eviction pool, so a
//!   scan can never push the pages every query touches out of memory.
//! - **Scan-resistant eviction**: resident pages are *probationary* until
//!   re-referenced, then *protected*; eviction takes the LRU probationary
//!   page first. One sequential sweep over a large posting file therefore
//!   recycles a single probationary slice instead of flushing the working
//!   set. The protected segment is capped (SLRU-style) at 4/5 of the
//!   budget — promoting past the cap demotes the LRU protected page — so
//!   stale once-hot pages cannot monopolize the cache: at least a fifth
//!   of it always recycles as probationary space for pages a scan has
//!   touched only once.
//! - **Frequency-based admission**: when the cache is full, a page whose
//!   access frequency is lower than the victim's is returned to the
//!   caller but *not cached* (counted in `admission_rejects`), the
//!   TinyLFU admission idea at page granularity.
//!
//! There is one read path: a miss reads the page synchronously, outside
//! the page-table lock, and installs it. Two searchers missing on the same
//! page at once may both read it; the second install finds the page
//! resident and only refreshes it.
//!
//! Counters are plain atomics outside the page-table lock, so
//! [`PageCache::stats`] is a cheap wait-free snapshot safe to poll from
//! serving threads.

use crate::file::PagedFile;
use crate::page::{Page, PageId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vdb_core::error::Result;
use vdb_core::sync::Mutex;

/// Cache counters (monotonic, except the `pinned_pages` gauge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page requests served from memory (including pinned pages).
    pub hits: u64,
    /// Page requests that went to disk — the I/O metric of experiments
    /// F7/D1.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Demand-filled pages the admission policy declined to cache.
    pub admission_rejects: u64,
    /// Currently pinned pages (gauge, not a counter).
    pub pinned_pages: u64,
}

impl CacheStats {
    /// Total page requests.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]` (1.0 when there were no accesses).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Process-wide hit/miss totals, summed across every [`PageCache`]
/// instance that ever served a read. The serving layer's `server-stats`
/// reports these: a server hosts one cache per disk-resident index, and
/// the operator-facing signal ("is the page budget big enough?") is the
/// aggregate hit rate, not any single instance's.
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` accumulated by every page cache in this process.
pub fn global_cache_stats() -> (u64, u64) {
    (
        GLOBAL_HITS.load(Ordering::Relaxed),
        GLOBAL_MISSES.load(Ordering::Relaxed),
    )
}

struct Entry {
    page: Arc<Page>,
    stamp: u64,
    /// Probationary until re-referenced (scan resistance).
    protected: bool,
}

struct CacheInner {
    /// Evictable resident pages.
    pages: HashMap<PageId, Entry>,
    /// Pinned pages: resident for the cache's lifetime, never evicted,
    /// not counted against the budget.
    pinned: HashMap<PageId, Arc<Page>>,
    /// Access-frequency sketch for the admission policy, aged by halving.
    freq: HashMap<PageId, u32>,
    freq_ops: u64,
    /// Number of `pages` entries currently protected (kept ≤ the SLRU cap).
    protected: usize,
    clock: u64,
}

impl CacheInner {
    fn bump_freq(&mut self, id: PageId, budget: usize) {
        *self.freq.entry(id).or_insert(0) += 1;
        self.freq_ops += 1;
        // Age the sketch so stale popularity decays and its size stays
        // bounded relative to the budget.
        let cap = (budget.max(64) as u64) * 16;
        if self.freq_ops >= cap {
            self.freq_ops = 0;
            self.freq.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    fn freq_of(&self, id: PageId) -> u32 {
        self.freq.get(&id).copied().unwrap_or(0)
    }
}

/// A read-through page cache over one paged file (see the module docs for
/// the eviction, admission, and pinning semantics).
///
/// The cache only reads: a disk-resident index writes its file in full
/// before serving from it, so a cached page can never go stale.
pub struct PageCache {
    file: Arc<PagedFile>,
    budget_pages: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    admission_rejects: AtomicU64,
    pinned_count: AtomicU64,
}

impl PageCache {
    /// Wrap `file` with a cache holding at most `budget_pages` evictable
    /// pages. A budget of zero disables caching (every read hits the
    /// disk) except for explicitly pinned pages.
    pub fn new(file: Arc<PagedFile>, budget_pages: usize) -> Self {
        PageCache {
            file,
            budget_pages,
            inner: Mutex::new(CacheInner {
                pages: HashMap::new(),
                pinned: HashMap::new(),
                freq: HashMap::new(),
                freq_ops: 0,
                protected: 0,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
            pinned_count: AtomicU64::new(0),
        }
    }

    /// Cache budget in evictable pages (pinned pages live outside it).
    pub fn budget(&self) -> usize {
        self.budget_pages
    }

    /// SLRU cap on the protected segment: 4/5 of the budget, so at least
    /// a fifth of the cache always recycles as probationary space for
    /// new pages.
    fn protected_cap(&self) -> usize {
        (self.budget_pages * 4 / 5).max(1)
    }

    /// Evict the least-valuable resident page: LRU probationary first,
    /// then LRU protected. Returns the victim's frequency estimate.
    fn evict_one(&self, inner: &mut CacheInner) -> Option<u32> {
        let victim = inner
            .pages
            .iter()
            .min_by_key(|(_, e)| (e.protected, e.stamp))
            .map(|(&id, _)| id)?;
        if let Some(e) = inner.pages.remove(&victim) {
            if e.protected {
                inner.protected -= 1;
            }
        }
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Some(inner.freq_of(victim))
    }

    /// Install a freshly read page, subject to the admission filter.
    fn install(&self, inner: &mut CacheInner, id: PageId, page: &Arc<Page>) {
        if self.budget_pages == 0 || inner.pinned.contains_key(&id) {
            return;
        }
        if let Some(e) = inner.pages.get_mut(&id) {
            e.page = Arc::clone(page);
            return;
        }
        if inner.pages.len() >= self.budget_pages {
            // Admission: only displace the victim for a page at least as
            // frequently accessed; otherwise serve without caching.
            let victim = inner
                .pages
                .iter()
                .min_by_key(|(_, e)| (e.protected, e.stamp))
                .map(|(&vid, _)| vid);
            if let Some(vid) = victim {
                if inner.freq_of(id) < inner.freq_of(vid) {
                    self.admission_rejects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            while inner.pages.len() >= self.budget_pages {
                if self.evict_one(inner).is_none() {
                    break;
                }
            }
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.pages.insert(
            id,
            Entry {
                page: Arc::clone(page),
                stamp,
                protected: false,
            },
        );
    }

    /// Fetch a page, consulting the cache first. A miss reads the page
    /// from the file outside the lock, then installs it.
    pub fn read(&self, id: PageId) -> Result<Arc<Page>> {
        {
            let mut inner = self.inner.lock();
            if let Some(page) = inner.pinned.get(&id) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(page));
            }
            if inner.pages.contains_key(&id) {
                inner.clock += 1;
                let clock = inner.clock;
                let e = inner.pages.get_mut(&id).expect("resident");
                e.stamp = clock;
                let promoted = !e.protected;
                e.protected = true; // re-referenced: survives scans
                let page = Arc::clone(&e.page);
                if promoted {
                    inner.protected += 1;
                    if inner.protected > self.protected_cap() {
                        // SLRU: demote the LRU protected page to the MRU
                        // end of probationary (one more chance) so stale
                        // hot pages cannot fill the cache.
                        let lru = inner
                            .pages
                            .iter()
                            .filter(|(&pid, e)| e.protected && pid != id)
                            .min_by_key(|(_, e)| e.stamp)
                            .map(|(&pid, _)| pid);
                        if let Some(pid) = lru {
                            let d = inner.pages.get_mut(&pid).expect("resident");
                            d.protected = false;
                            d.stamp = clock;
                            inner.protected -= 1;
                        }
                    }
                }
                inner.bump_freq(id, self.budget_pages);
                self.hits.fetch_add(1, Ordering::Relaxed);
                GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
                return Ok(page);
            }
            inner.bump_freq(id, self.budget_pages);
            self.misses.fetch_add(1, Ordering::Relaxed);
            GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        }
        let page = Arc::new(self.file.read_page(id)?);
        let mut inner = self.inner.lock();
        self.install(&mut inner, id, &page);
        Ok(page)
    }

    /// Pin a set of pages: read them (from cache or disk) and hold them
    /// resident for the cache's lifetime, outside the eviction pool and
    /// budget. Used for the hot set — entry-region graph pages a query
    /// always touches. Pinning an already-pinned page is a no-op.
    /// Returns the number of pages newly pinned.
    pub fn pin<I: IntoIterator<Item = PageId>>(&self, ids: I) -> Result<usize> {
        let mut newly = 0usize;
        for id in ids {
            {
                let mut inner = self.inner.lock();
                if inner.pinned.contains_key(&id) {
                    continue;
                }
                if let Some(e) = inner.pages.remove(&id) {
                    if e.protected {
                        inner.protected -= 1;
                    }
                    inner.pinned.insert(id, e.page);
                    self.pinned_count.fetch_add(1, Ordering::Relaxed);
                    newly += 1;
                    continue;
                }
            }
            let page = Arc::new(self.file.read_page(id)?);
            let mut inner = self.inner.lock();
            if inner.pinned.insert(id, page).is_none() {
                self.pinned_count.fetch_add(1, Ordering::Relaxed);
                newly += 1;
            }
        }
        Ok(newly)
    }

    /// Number of currently pinned pages.
    pub fn pinned_pages(&self) -> usize {
        self.pinned_count.load(Ordering::Relaxed) as usize
    }

    /// Wait-free snapshot of the counters (no lock taken; counters are
    /// atomics, so concurrent searchers never contend with a stats poll).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
            pinned_pages: self.pinned_count.load(Ordering::Relaxed),
        }
    }

    /// Reset counters (e.g. after warmup, before a measured run). The
    /// `pinned_pages` gauge is preserved — the pages are still pinned.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.admission_rejects.store(0, Ordering::Relaxed);
    }

    /// Number of currently resident pages (evictable + pinned).
    pub fn resident(&self) -> usize {
        let inner = self.inner.lock();
        inner.pages.len() + inner.pinned.len()
    }
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PageCache(budget={} pages, {:?})",
            self.budget_pages,
            self.stats()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::TempDir;

    fn setup(pages: u64, budget: usize) -> (TempDir, PageCache) {
        let dir = TempDir::new("cache").unwrap();
        let file = Arc::new(PagedFile::create(dir.file("c.pages")).unwrap());
        file.allocate(pages).unwrap();
        for i in 0..pages {
            let mut p = Page::zeroed();
            p.write_u32(0, i as u32);
            file.write_page(PageId(i), &p).unwrap();
        }
        (dir, PageCache::new(file, budget))
    }

    #[test]
    fn hit_after_miss() {
        let (_dir, cache) = setup(4, 4);
        assert_eq!(cache.read(PageId(1)).unwrap().read_u32(0), 1);
        assert_eq!(cache.read(PageId(1)).unwrap().read_u32(0), 1);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (_dir, cache) = setup(3, 2);
        cache.read(PageId(0)).unwrap(); // miss
        cache.read(PageId(1)).unwrap(); // miss
        cache.read(PageId(0)).unwrap(); // hit (0 now protected)
        cache.read(PageId(2)).unwrap(); // miss, evicts probationary 1
        cache.read(PageId(0)).unwrap(); // hit
        cache.read(PageId(1)).unwrap(); // miss again
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 4);
        assert_eq!(s.evictions, 2);
        assert!(cache.resident() <= 2);
    }

    #[test]
    fn never_exceeds_budget() {
        let (_dir, cache) = setup(3, 2);
        for round in 0..5 {
            for i in 0..3 {
                cache.read(PageId(i)).unwrap();
                assert!(cache.resident() <= 2, "round {round}");
            }
        }
    }

    #[test]
    fn zero_budget_disables_caching() {
        let (_dir, cache) = setup(2, 0);
        cache.read(PageId(0)).unwrap();
        cache.read(PageId(0)).unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn reset_stats_zeroes_the_counters() {
        let (_dir, cache) = setup(2, 2);
        cache.read(PageId(0)).unwrap();
        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let (_dir, cache) = setup(8, 2);
        assert_eq!(cache.pin([PageId(0), PageId(1)]).unwrap(), 2);
        assert_eq!(cache.pinned_pages(), 2);
        cache.reset_stats();
        // A sweep much larger than the budget cannot displace the pins.
        for round in 0..4 {
            for i in 2..8u64 {
                cache.read(PageId(i)).unwrap();
            }
            assert_eq!(cache.read(PageId(0)).unwrap().read_u32(0), 0);
            assert_eq!(cache.read(PageId(1)).unwrap().read_u32(0), 1);
            let _ = round;
        }
        let s = cache.stats();
        assert_eq!(s.pinned_pages, 2);
        // Every pinned access was a hit: 8 pinned reads, zero pinned misses.
        assert_eq!(s.hits, 8);
        // Pinning twice is a no-op.
        assert_eq!(cache.pin([PageId(0)]).unwrap(), 0);
    }

    #[test]
    fn pins_resident_even_at_zero_budget() {
        let (_dir, cache) = setup(2, 0);
        cache.pin([PageId(1)]).unwrap();
        cache.reset_stats();
        assert_eq!(cache.read(PageId(1)).unwrap().read_u32(0), 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn scan_does_not_flush_protected_set() {
        let (_dir, cache) = setup(16, 4);
        // Build a protected working set: pages 0..2 referenced twice.
        for _ in 0..2 {
            for i in 0..3u64 {
                cache.read(PageId(i)).unwrap();
            }
        }
        // One sequential scan over everything else.
        for i in 3..16u64 {
            cache.read(PageId(i)).unwrap();
        }
        cache.reset_stats();
        for i in 0..3u64 {
            cache.read(PageId(i)).unwrap();
        }
        let s = cache.stats();
        assert!(
            s.hits >= 2,
            "protected pages should survive the scan: {s:?}"
        );
    }

    #[test]
    fn protected_segment_is_capped() {
        // Budget 5 → protected cap 4. Make all 5 resident pages protected
        // candidates by double-reading; the cap forces one (page 0, the
        // least recent) back to probationary, so a new page that passes
        // admission evicts the demoted page instead of a protected one,
        // and survives until its next read.
        let (_dir, cache) = setup(8, 5);
        for _ in 0..2 {
            for i in 0..5u64 {
                cache.read(PageId(i)).unwrap();
            }
        }
        assert_eq!(cache.inner.lock().protected, 4);
        // Page 6's first read is refused (seen once, the victim twice);
        // its second makes it as frequent as the victim, which admits it.
        cache.read(PageId(6)).unwrap();
        cache.read(PageId(6)).unwrap();
        cache.reset_stats();
        assert_eq!(cache.read(PageId(6)).unwrap().read_u32(0), 6);
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses),
            (1, 0),
            "the admitted page displaced the demoted page, not itself: {s:?}"
        );
        // Promoting the new page demotes another: still at the cap.
        assert_eq!(cache.inner.lock().protected, 4);
        // Every protected page survived; the demoted page 0 made room.
        for i in 1..5u64 {
            cache.read(PageId(i)).unwrap();
        }
        assert_eq!(cache.stats().hits, 5, "protected pages stayed resident");
    }

    #[test]
    fn admission_rejects_cold_pages_under_pressure() {
        let (_dir, cache) = setup(16, 2);
        // Make pages 0 and 1 hot.
        for _ in 0..6 {
            cache.read(PageId(0)).unwrap();
            cache.read(PageId(1)).unwrap();
        }
        // Cold single-touch sweep: rejected by admission, hot set intact.
        for i in 2..16u64 {
            cache.read(PageId(i)).unwrap();
        }
        let s = cache.stats();
        assert!(s.admission_rejects > 0, "expected rejects: {s:?}");
        cache.reset_stats();
        cache.read(PageId(0)).unwrap();
        cache.read(PageId(1)).unwrap();
        assert_eq!(cache.stats().hits, 2, "hot set survived the cold sweep");
    }

    #[test]
    fn stats_snapshot_is_lock_free_under_concurrency() {
        let (_dir, cache) = setup(8, 4);
        let cache = Arc::new(cache);
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        c.read(PageId((i + t) % 8)).unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..100 {
            let s = cache.stats();
            assert!(s.hits + s.misses <= 800 + 100);
        }
        for r in readers {
            r.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.accesses(), 800);
    }
}
