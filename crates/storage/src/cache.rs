//! Page cache over a fixed set of frames: SLRU replacement, TinyLFU
//! admission and pinning, with O(1) work per access.
//!
//! The cache sits between disk-resident indexes and their [`PagedFile`]s.
//! Its budget (in pages) models available memory; its counters let the
//! disk experiments (F7/D1) report page reads per query under different
//! budgets, reproducing the DiskANN/SPANN design tradeoff without real
//! NVMe timing.
//!
//! **Frames.** [`PageCache::new`] sets up `min(budget, file pages)`
//! page frames. Each frame allocates its page on its first fill, so a
//! cache created during an index build holds no page memory until it
//! serves; a miss into a filled frame allocates nothing. A page table
//! maps each [`PageId`] to its frame (or pinned copy) and carries the
//! page's frequency estimate, so a lookup is one hash probe. Resident
//! memory is at most those frames plus the pinned pages.
//!
//! **Policy.** Three mechanisms beyond plain LRU serve the §2.2
//! disk-serving story:
//!
//! - **Pinned hot set** ([`PageCache::pin`]): entry-region pages and other
//!   navigation state are held resident outside the frames and the
//!   budget, so a scan can never push the pages every query touches out
//!   of memory. Pinning a resident page frees its frame.
//! - **Scan-resistant eviction**: resident frames sit on one of two
//!   intrusive doubly linked LRU lists. A page enters the *probationary*
//!   list at its MRU end and moves to the *protected* list when
//!   re-referenced; the victim is the LRU probationary page, else the LRU
//!   protected one. One sequential sweep over a large posting file
//!   therefore recycles a single probationary slice instead of flushing
//!   the working set. The protected list is capped (SLRU) at 4/5 of the
//!   budget: promoting past the cap demotes the LRU protected page to the
//!   probationary MRU end, so stale once-hot pages cannot monopolize the
//!   cache and at least a fifth of it recycles for pages a scan has
//!   touched only once.
//! - **Frequency-based admission**: when the cache is full, a page whose
//!   access frequency is lower than the victim's is returned to the
//!   caller but *not cached* (counted in `admission_rejects`), the
//!   TinyLFU admission idea at page granularity. The frequency sketch
//!   halves every count after `16 × max(budget, 64)` accesses.
//!
//! Every step — lookup, promotion, demotion, victim choice — unlinks or
//! links a list node, so an access costs the same at any budget.
//! `tests/cache_policy.rs` holds the per-access hits and misses equal to
//! a stamp-and-scan reference model of the same rules.
//!
//! **Reads.** [`PageCache::read`] returns a [`PageGuard`] that borrows
//! the page where it lies. A miss picks its frame and runs admission
//! under the page-table lock, then `pread`s into the frame outside it.
//! A frame another reader is borrowing is never overwritten: a miss
//! whose victim is borrowed, and a miss refused by admission, is read
//! into the caller's scratch page and not installed. With one reader no
//! frame is ever borrowed at a miss, so the hits and misses are exactly
//! the policy's. A hit on a page whose frame is still being filled by
//! another reader reads it into the scratch page too.
//!
//! Counters are plain atomics outside the page-table lock, so
//! [`PageCache::stats`] is a cheap wait-free snapshot safe to poll from
//! serving threads.

use crate::file::PagedFile;
use crate::page::{Page, PageId};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
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

/// No list neighbour.
const NIL: u32 = u32::MAX;
/// [`Frame::id`] of a frame that holds no readable page.
const NO_PAGE: u64 = u64::MAX;

/// One page frame. `id` names the page the bytes belong to; it is set
/// only after a fill succeeds, so a reader can check what it borrowed.
/// The page buffer is allocated by the frame's first fill.
struct Frame {
    id: u64,
    page: Option<Page>,
}

impl Frame {
    /// The filled page; only called on a frame whose `id` names a page.
    fn page(&self) -> &Page {
        self.page.as_ref().expect("a filled frame holds its page")
    }
}

/// Where a page lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Absent,
    Frame(u32),
    Pinned(u32),
}

/// Page-table entry: the frequency estimate (kept for pages that are not
/// resident, too) and where the page lives.
struct Entry {
    freq: u32,
    slot: Slot,
}

impl Entry {
    const UNSEEN: Entry = Entry {
        freq: 0,
        slot: Slot::Absent,
    };
}

/// A frame's node in its LRU list.
#[derive(Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
    page: PageId,
    protected: bool,
}

/// An intrusive LRU list over frame indices: `head` is the LRU end.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: usize,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

struct CacheInner {
    table: HashMap<PageId, Entry>,
    /// Pinned pages: resident for the cache's lifetime, never evicted,
    /// not counted against the budget.
    pinned: Vec<Arc<Page>>,
    /// One list node per frame.
    links: Vec<Link>,
    probation: List,
    protected: List,
    /// Frames holding no page.
    free: Vec<u32>,
    freq_ops: u64,
}

impl CacheInner {
    fn list(&mut self, protected: bool) -> &mut List {
        if protected {
            &mut self.protected
        } else {
            &mut self.probation
        }
    }

    fn unlink(&mut self, f: u32) {
        let Link {
            prev,
            next,
            protected,
            ..
        } = self.links[f as usize];
        if prev == NIL {
            self.list(protected).head = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NIL {
            self.list(protected).tail = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
        self.list(protected).len -= 1;
    }

    /// Link frame `f` at the MRU end of one list.
    fn push_mru(&mut self, f: u32, protected: bool) {
        let tail = self.list(protected).tail;
        let link = &mut self.links[f as usize];
        link.prev = tail;
        link.next = NIL;
        link.protected = protected;
        if tail == NIL {
            self.list(protected).head = f;
        } else {
            self.links[tail as usize].next = f;
        }
        let list = self.list(protected);
        list.tail = f;
        list.len += 1;
    }

    /// Count one access of `id` in the frequency sketch (pinned pages are
    /// not counted) and return where the page lives.
    fn access(&mut self, id: PageId, budget: usize) -> Slot {
        let e = self.table.entry(id).or_insert(Entry::UNSEEN);
        let slot = e.slot;
        if let Slot::Pinned(_) = slot {
            return slot;
        }
        e.freq += 1;
        self.freq_ops += 1;
        // Age the sketch so stale popularity decays and its size stays
        // bounded relative to the budget.
        if self.freq_ops >= (budget.max(64) as u64) * 16 {
            self.freq_ops = 0;
            self.table.retain(|_, e| {
                e.freq /= 2;
                e.freq > 0 || e.slot != Slot::Absent
            });
        }
        slot
    }

    fn freq_of(&self, id: PageId) -> u32 {
        self.table.get(&id).map_or(0, |e| e.freq)
    }

    fn set_slot(&mut self, id: PageId, slot: Slot) {
        self.table.entry(id).or_insert(Entry::UNSEEN).slot = slot;
    }

    /// `id` is no longer resident; drop its entry if it has no frequency.
    fn forget(&mut self, id: PageId) {
        if let Some(e) = self.table.get_mut(&id) {
            if e.freq == 0 {
                self.table.remove(&id);
            } else {
                e.slot = Slot::Absent;
            }
        }
    }

    /// A hit on frame `f`: move it to the protected MRU end. A promotion
    /// past the cap demotes the LRU protected page to the probationary
    /// MRU end (one more chance).
    fn touch(&mut self, f: u32, cap: usize) {
        let promoted = !self.links[f as usize].protected;
        self.unlink(f);
        self.push_mru(f, true);
        if promoted && self.protected.len > cap {
            // `f` is the MRU end and the cap is at least 1, so the LRU
            // end is another page.
            let lru = self.protected.head;
            self.unlink(lru);
            self.push_mru(lru, false);
        }
    }

    /// The two lists hold exactly the frames that are not free, and the
    /// protected list respects its cap.
    fn debug_check(&self, cap: usize) {
        debug_assert_eq!(
            self.probation.len + self.protected.len,
            self.links.len() - self.free.len(),
            "list lengths sum to the resident frame count"
        );
        debug_assert!(self.protected.len <= cap, "protected list over its cap");
    }
}

/// A borrowed page: a frame held shared (or exclusively, right after
/// this reader filled it), a pinned page, or the caller's scratch page.
/// While it lives, no miss overwrites the frame.
pub struct PageGuard<'a>(Held<'a>);

enum Held<'a> {
    Frame(RwLockReadGuard<'a, Frame>),
    Filled(RwLockWriteGuard<'a, Frame>),
    Pinned(Arc<Page>),
    Scratch(&'a Page),
}

impl Deref for PageGuard<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        match &self.0 {
            Held::Frame(g) => g.page(),
            Held::Filled(g) => g.page(),
            Held::Pinned(p) => p,
            Held::Scratch(p) => p,
        }
    }
}

// A poisoned frame is still whole: a fill sets `id` only after its read
// succeeded, and a reader that panicked held the frame read-only or after
// its fill. So both helpers take the guard back from a poisoned lock.
fn try_read(frame: &RwLock<Frame>) -> Option<RwLockReadGuard<'_, Frame>> {
    match frame.try_read() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

fn try_write(frame: &RwLock<Frame>) -> Option<RwLockWriteGuard<'_, Frame>> {
    match frame.try_write() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A read-through page cache over one paged file (see the module docs for
/// the frames and the eviction, admission, and pinning semantics).
///
/// The cache only reads: a disk-resident index writes its file in full
/// before serving from it, so a cached page can never go stale, and pages
/// past the file's length at construction are never cached.
pub struct PageCache {
    file: Arc<PagedFile>,
    file_pages: u64,
    budget_pages: usize,
    frames: Box<[RwLock<Frame>]>,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    admission_rejects: AtomicU64,
    pinned_count: AtomicU64,
}

impl PageCache {
    /// Wrap `file` with a cache holding at most `budget_pages` evictable
    /// pages, in `min(budget_pages, file pages)` frames filled on demand. A
    /// budget of zero disables caching (every read hits the disk) except
    /// for explicitly pinned pages.
    pub fn new(file: Arc<PagedFile>, budget_pages: usize) -> Self {
        let file_pages = file.num_pages();
        let n = (budget_pages as u64).min(file_pages) as usize;
        let frames = (0..n)
            .map(|_| {
                RwLock::new(Frame {
                    id: NO_PAGE,
                    page: None,
                })
            })
            .collect();
        let blank = Link {
            prev: NIL,
            next: NIL,
            page: PageId(NO_PAGE),
            protected: false,
        };
        PageCache {
            file,
            file_pages,
            budget_pages,
            frames,
            inner: Mutex::new(CacheInner {
                table: HashMap::new(),
                pinned: Vec::new(),
                links: vec![blank; n],
                probation: List::EMPTY,
                protected: List::EMPTY,
                free: (0..n as u32).rev().collect(),
                freq_ops: 0,
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

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
    }

    /// Choose the frame a miss on `id` fills and install `id` there,
    /// returning the frame write-locked; `None` serves the miss from the
    /// caller's scratch page instead (no frames, admission refused, or
    /// the frame is borrowed).
    fn claim(
        &self,
        inner: &mut CacheInner,
        id: PageId,
    ) -> Option<(u32, RwLockWriteGuard<'_, Frame>)> {
        if self.frames.is_empty() || id.0 >= self.file_pages {
            return None;
        }
        let (f, guard) = match inner.free.last() {
            Some(&f) => {
                let guard = try_write(&self.frames[f as usize])?;
                inner.free.pop();
                (f, guard)
            }
            None => {
                // Full: the victim is the LRU probationary page, else the
                // LRU protected one.
                let v = if inner.probation.head != NIL {
                    inner.probation.head
                } else {
                    inner.protected.head
                };
                let victim = inner.links[v as usize].page;
                // Admission: only displace the victim for a page at least
                // as frequently accessed; otherwise serve without caching.
                if inner.freq_of(id) < inner.freq_of(victim) {
                    self.admission_rejects.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                let guard = try_write(&self.frames[v as usize])?;
                inner.unlink(v);
                inner.forget(victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                (v, guard)
            }
        };
        inner.links[f as usize].page = id;
        inner.push_mru(f, false);
        inner.set_slot(id, Slot::Frame(f));
        inner.debug_check(self.protected_cap());
        Some((f, guard))
    }

    /// Fetch a page, consulting the cache first, and borrow it. A miss
    /// reads the page outside the page-table lock, into a frame or into
    /// `scratch` (see the module docs); the guard may borrow either.
    pub fn read<'a>(&'a self, id: PageId, scratch: &'a mut Page) -> Result<PageGuard<'a>> {
        let mut inner = self.inner.lock();
        match inner.access(id, self.budget_pages) {
            Slot::Pinned(i) => {
                self.count_hit();
                return Ok(PageGuard(Held::Pinned(Arc::clone(
                    &inner.pinned[i as usize],
                ))));
            }
            Slot::Frame(f) => {
                inner.touch(f, self.protected_cap());
                inner.debug_check(self.protected_cap());
                self.count_hit();
                // Under the table lock no miss can claim the frame, so
                // the lock fails only while another reader is filling it
                // with this page, and the id check catches a failed fill.
                if let Some(g) = try_read(&self.frames[f as usize]) {
                    if g.id == id.0 {
                        return Ok(PageGuard(Held::Frame(g)));
                    }
                }
                drop(inner);
                self.file.read_page_into(id, scratch)?;
                return Ok(PageGuard(Held::Scratch(scratch)));
            }
            Slot::Absent => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        let claimed = self.claim(&mut inner, id);
        drop(inner);
        let Some((f, mut frame)) = claimed else {
            self.file.read_page_into(id, scratch)?;
            return Ok(PageGuard(Held::Scratch(scratch)));
        };
        let page = frame.page.get_or_insert_with(Page::zeroed);
        match self.file.read_page_into(id, page) {
            Ok(()) => {
                frame.id = id.0;
                Ok(PageGuard(Held::Filled(frame)))
            }
            Err(e) => {
                frame.id = NO_PAGE;
                drop(frame);
                let mut inner = self.inner.lock();
                if inner.table.get(&id).map(|e| e.slot) == Some(Slot::Frame(f)) {
                    inner.unlink(f);
                    inner.free.push(f);
                    inner.forget(id);
                }
                Err(e)
            }
        }
    }

    /// Pin a set of pages: read them from disk and hold them resident for
    /// the cache's lifetime, outside the frames and the budget (a page
    /// already in a frame gives its frame up). Used for the hot set —
    /// entry-region graph pages a query always touches. Pinning an
    /// already-pinned page is a no-op. Returns the number of pages newly
    /// pinned.
    pub fn pin<I: IntoIterator<Item = PageId>>(&self, ids: I) -> Result<usize> {
        let pinned = |inner: &CacheInner, id| {
            matches!(
                inner.table.get(&id),
                Some(Entry {
                    slot: Slot::Pinned(_),
                    ..
                })
            )
        };
        let mut newly = 0usize;
        for id in ids {
            if pinned(&self.inner.lock(), id) {
                continue;
            }
            let page = Arc::new(self.file.read_page(id)?);
            let mut inner = self.inner.lock();
            if pinned(&inner, id) {
                continue;
            }
            if let Some(&Entry {
                slot: Slot::Frame(f),
                ..
            }) = inner.table.get(&id)
            {
                inner.unlink(f);
                inner.free.push(f);
            }
            let i = inner.pinned.len() as u32;
            inner.pinned.push(page);
            inner.set_slot(id, Slot::Pinned(i));
            inner.debug_check(self.protected_cap());
            self.pinned_count.fetch_add(1, Ordering::Relaxed);
            newly += 1;
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

    /// Number of currently resident pages (in frames + pinned).
    pub fn resident(&self) -> usize {
        let inner = self.inner.lock();
        inner.links.len() - inner.free.len() + inner.pinned.len()
    }
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PageCache(budget={} pages, {} frames, {:?})",
            self.budget_pages,
            self.frames.len(),
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

    /// The first word of page `i`, read through the cache.
    fn word(cache: &PageCache, i: u64) -> u32 {
        let mut scratch = Page::zeroed();
        let page = cache.read(PageId(i), &mut scratch).unwrap();
        page.read_u32(0)
    }

    #[test]
    fn hit_after_miss() {
        let (_dir, cache) = setup(4, 4);
        assert_eq!(word(&cache, 1), 1);
        assert_eq!(word(&cache, 1), 1);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (_dir, cache) = setup(3, 2);
        word(&cache, 0); // miss
        word(&cache, 1); // miss
        word(&cache, 0); // hit (0 now protected)
        word(&cache, 2); // miss, evicts probationary 1
        word(&cache, 0); // hit
        word(&cache, 1); // miss again
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
                word(&cache, i);
                assert!(cache.resident() <= 2, "round {round}");
            }
        }
    }

    #[test]
    fn frames_are_capped_by_the_file() {
        let (_dir, cache) = setup(3, 1000);
        assert_eq!(cache.frames.len(), 3);
        for i in 0..3 {
            word(&cache, i);
        }
        assert_eq!(cache.resident(), 3);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let (_dir, cache) = setup(2, 0);
        word(&cache, 0);
        word(&cache, 0);
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn reset_stats_zeroes_the_counters() {
        let (_dir, cache) = setup(2, 2);
        word(&cache, 0);
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
        for _ in 0..4 {
            for i in 2..8u64 {
                word(&cache, i);
            }
            assert_eq!(word(&cache, 0), 0);
            assert_eq!(word(&cache, 1), 1);
        }
        let s = cache.stats();
        assert_eq!(s.pinned_pages, 2);
        // Every pinned access was a hit: 8 pinned reads, zero pinned misses.
        assert_eq!(s.hits, 8);
        // Pinning twice is a no-op.
        assert_eq!(cache.pin([PageId(0)]).unwrap(), 0);
    }

    #[test]
    fn pinning_a_resident_page_frees_its_frame() {
        let (_dir, cache) = setup(4, 2);
        word(&cache, 0);
        word(&cache, 1);
        cache.pin([PageId(0)]).unwrap();
        assert_eq!(cache.resident(), 2, "one frame page plus one pin");
        cache.reset_stats();
        // The freed frame takes page 2 without an eviction.
        word(&cache, 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.resident(), 3);
    }

    #[test]
    fn pins_resident_even_at_zero_budget() {
        let (_dir, cache) = setup(2, 0);
        cache.pin([PageId(1)]).unwrap();
        cache.reset_stats();
        assert_eq!(word(&cache, 1), 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn scan_does_not_flush_protected_set() {
        let (_dir, cache) = setup(16, 4);
        // Build a protected working set: pages 0..2 referenced twice.
        for _ in 0..2 {
            for i in 0..3u64 {
                word(&cache, i);
            }
        }
        // One sequential scan over everything else.
        for i in 3..16u64 {
            word(&cache, i);
        }
        cache.reset_stats();
        for i in 0..3u64 {
            word(&cache, i);
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
                word(&cache, i);
            }
        }
        assert_eq!(cache.inner.lock().protected.len, 4);
        // Page 6's first read is refused (seen once, the victim twice);
        // its second makes it as frequent as the victim, which admits it.
        word(&cache, 6);
        word(&cache, 6);
        cache.reset_stats();
        assert_eq!(word(&cache, 6), 6);
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses),
            (1, 0),
            "the admitted page displaced the demoted page, not itself: {s:?}"
        );
        // Promoting the new page demotes another: still at the cap.
        assert_eq!(cache.inner.lock().protected.len, 4);
        // Every protected page survived; the demoted page 0 made room.
        for i in 1..5u64 {
            word(&cache, i);
        }
        assert_eq!(cache.stats().hits, 5, "protected pages stayed resident");
    }

    #[test]
    fn admission_rejects_cold_pages_under_pressure() {
        let (_dir, cache) = setup(16, 2);
        // Make pages 0 and 1 hot.
        for _ in 0..6 {
            word(&cache, 0);
            word(&cache, 1);
        }
        // Cold single-touch sweep: rejected by admission, hot set intact.
        for i in 2..16u64 {
            word(&cache, i);
        }
        let s = cache.stats();
        assert!(s.admission_rejects > 0, "expected rejects: {s:?}");
        cache.reset_stats();
        word(&cache, 0);
        word(&cache, 1);
        assert_eq!(cache.stats().hits, 2, "hot set survived the cold sweep");
    }

    #[test]
    fn a_borrowed_victim_is_never_overwritten() {
        let (_dir, cache) = setup(4, 1);
        let mut held_scratch = Page::zeroed();
        let held = cache.read(PageId(0), &mut held_scratch).unwrap();
        // Page 1 is as frequent as the victim (page 0), so admission lets
        // it in, but page 0's frame is borrowed: page 1 is served from
        // the scratch page and not installed.
        assert_eq!(word(&cache, 1), 1);
        assert_eq!(held.read_u32(0), 0, "the borrowed frame kept its page");
        assert_eq!(cache.stats().evictions, 0);
        drop(held);
        assert_eq!(cache.resident(), 1);
        cache.reset_stats();
        assert_eq!(word(&cache, 0), 0);
        assert_eq!(cache.stats().hits, 1, "page 0 stayed resident");
        // With the frame released, the next admitted miss evicts it.
        word(&cache, 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn a_failed_fill_frees_its_frame() {
        let (dir, cache) = setup(4, 2);
        // Cut the file short behind the cache's back: page 3 gets a frame
        // but its read fails.
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.file("c.pages"))
            .unwrap()
            .set_len(2 * crate::page::PAGE_SIZE as u64)
            .unwrap();
        let mut scratch = Page::zeroed();
        assert!(cache.read(PageId(3), &mut scratch).is_err());
        assert_eq!(cache.resident(), 0, "the frame went back to the free list");
        assert_eq!(word(&cache, 1), 1);
        assert_eq!(word(&cache, 0), 0);
        assert_eq!(cache.resident(), 2);
    }

    #[test]
    fn concurrent_readers_see_their_own_pages() {
        let (_dir, cache) = setup(8, 4);
        let cache = Arc::new(cache);
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let mut scratch = Page::zeroed();
                    for i in 0..200u64 {
                        let id = (i * (t + 1) + t) % 8;
                        let page = c.read(PageId(id), &mut scratch).unwrap();
                        assert_eq!(page.read_u32(0), id as u32);
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
        assert!(cache.resident() <= 4);
    }
}
