//! Policy equivalence: the page cache against a reference model of its
//! replacement rules.
//!
//! `Model` is the stamp-and-scan form of the policy, kept deliberately
//! naive: every resident page carries a recency stamp and a protected
//! flag, and each victim or demotion candidate is found by scanning all
//! resident pages. Its rules are the cache's contract:
//!
//! - a miss bumps the page's frequency, then installs it at the MRU end
//!   of the probationary segment; when the cache is full the victim is
//!   the LRU probationary page, else the LRU protected page, and a page
//!   seen less often than the victim is served but not cached (TinyLFU
//!   admission);
//! - a hit promotes a probationary page to protected; past the protected
//!   cap (4/5 of the budget, at least 1) the LRU protected page is
//!   demoted to the MRU end of probationary (SLRU);
//! - the frequency sketch halves every count after `16 × max(budget, 64)`
//!   bumps and forgets zeros;
//! - pinned pages live outside the budget, are always hits and never
//!   touch recency or frequency; pinning a resident page frees its slot.
//!
//! Seeded traces of Zipf-skewed reads, sequential sweeps and pins replay
//! through the model and the real cache at budgets from 0 to more than
//! the file's pages. Every access must agree on hit or miss, every page
//! must come back with its own bytes, and the final counters and resident
//! counts must be equal.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use vdb_core::Rng;
use vdb_storage::{CacheStats, Page, PageCache, PageId, PagedFile, TempDir};

/// Pages in the test file.
const PAGES: u64 = 400;

#[derive(Default)]
struct Model {
    budget: usize,
    /// Resident evictable pages: id → (stamp, protected).
    pages: HashMap<u64, (u64, bool)>,
    pinned: HashSet<u64>,
    freq: HashMap<u64, u32>,
    freq_ops: u64,
    protected: usize,
    clock: u64,
    stats: CacheStats,
}

impl Model {
    fn new(budget: usize) -> Self {
        Model {
            budget,
            ..Model::default()
        }
    }

    fn protected_cap(&self) -> usize {
        (self.budget * 4 / 5).max(1)
    }

    fn bump_freq(&mut self, id: u64) {
        *self.freq.entry(id).or_insert(0) += 1;
        self.freq_ops += 1;
        if self.freq_ops >= (self.budget.max(64) as u64) * 16 {
            self.freq_ops = 0;
            self.freq.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    fn freq_of(&self, id: u64) -> u32 {
        self.freq.get(&id).copied().unwrap_or(0)
    }

    /// LRU probationary page, else LRU protected page.
    fn victim(&self) -> Option<u64> {
        self.pages
            .iter()
            .min_by_key(|(_, &(stamp, protected))| (protected, stamp))
            .map(|(&id, _)| id)
    }

    /// One read; returns whether it hit.
    fn read(&mut self, id: u64) -> bool {
        if self.pinned.contains(&id) {
            self.stats.hits += 1;
            return true;
        }
        if let Some(&(_, was_protected)) = self.pages.get(&id) {
            self.clock += 1;
            let clock = self.clock;
            self.pages.insert(id, (clock, true));
            if !was_protected {
                self.protected += 1;
                if self.protected > self.protected_cap() {
                    let lru = self
                        .pages
                        .iter()
                        .filter(|(&pid, &(_, p))| p && pid != id)
                        .min_by_key(|(_, &(stamp, _))| stamp)
                        .map(|(&pid, _)| pid);
                    if let Some(pid) = lru {
                        self.pages.insert(pid, (clock, false));
                        self.protected -= 1;
                    }
                }
            }
            self.bump_freq(id);
            self.stats.hits += 1;
            return true;
        }
        self.bump_freq(id);
        self.stats.misses += 1;
        if self.budget == 0 {
            return false;
        }
        if self.pages.len() >= self.budget {
            let victim = self.victim().expect("a full cache has a victim");
            if self.freq_of(id) < self.freq_of(victim) {
                self.stats.admission_rejects += 1;
                return false;
            }
            if self.pages.remove(&victim).expect("resident").1 {
                self.protected -= 1;
            }
            self.stats.evictions += 1;
        }
        self.clock += 1;
        self.pages.insert(id, (self.clock, false));
        false
    }

    fn pin(&mut self, ids: &[u64]) {
        for &id in ids {
            if !self.pinned.insert(id) {
                continue;
            }
            if let Some((_, protected)) = self.pages.remove(&id) {
                if protected {
                    self.protected -= 1;
                }
            }
            self.stats.pinned_pages += 1;
        }
    }

    fn resident(&self) -> usize {
        self.pages.len() + self.pinned.len()
    }
}

enum Op {
    Read(u64),
    Pin(Vec<u64>),
}

/// Zipf(s) sampler over `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// A seeded trace of at least `len` reads: Zipf bursts over a shuffled
/// popularity order that shifts between bursts, sequential sweeps, and
/// now and then a pin of a few pages (some hot, so resident ones move
/// out of the budget).
fn trace(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::seed_from_u64(seed);
    let zipf = Zipf::new(PAGES, 0.9);
    let mut rank: Vec<u64> = (0..PAGES).collect();
    rng.shuffle(&mut rank);
    let mut ops = Vec::with_capacity(len + len / 8);
    let mut reads = 0usize;
    let mut pins = 0usize;
    while reads < len {
        match rng.below(10) {
            0 => {
                let start = rng.below(PAGES as usize) as u64;
                let width = 20 + rng.below(200) as u64;
                for p in start..start + width {
                    ops.push(Op::Read(p % PAGES));
                }
                reads += width as usize;
            }
            1 if pins < 12 => {
                let ids = (0..1 + rng.below(3))
                    .map(|_| rank[zipf.sample(&mut rng) as usize])
                    .collect();
                ops.push(Op::Pin(ids));
                pins += 1;
            }
            2 => {
                // Popularity drift: a few ranks swap places.
                for _ in 0..8 {
                    let a = rng.below(PAGES as usize);
                    let b = rng.below(PAGES as usize);
                    rank.swap(a, b);
                }
            }
            _ => {
                let burst = 200 + rng.below(1800);
                for _ in 0..burst {
                    ops.push(Op::Read(rank[zipf.sample(&mut rng) as usize]));
                }
                reads += burst;
            }
        }
    }
    ops
}

fn file_of(dir: &TempDir) -> Arc<PagedFile> {
    let file = Arc::new(PagedFile::create(dir.file("policy.pages")).unwrap());
    file.allocate(PAGES).unwrap();
    for i in 0..PAGES {
        let mut p = Page::zeroed();
        p.write_u32(0, i as u32);
        p.write_u32(4092, !(i as u32));
        file.write_page(PageId(i), &p).unwrap();
    }
    file
}

/// Read page `id` through the cache and return its two marker words.
fn read_markers(cache: &PageCache, id: u64) -> (u32, u32) {
    let mut scratch = Page::zeroed();
    let page = cache.read(PageId(id), &mut scratch).unwrap();
    (page.read_u32(0), page.read_u32(4092))
}

fn replay(file: &Arc<PagedFile>, ops: &[Op], budget: usize) {
    let cache = PageCache::new(Arc::clone(file), budget);
    let mut model = Model::new(budget);
    let mut reads = 0usize;
    for op in ops {
        match op {
            Op::Read(id) => {
                let before = cache.stats().hits;
                let markers = read_markers(&cache, *id);
                assert_eq!(
                    markers,
                    (*id as u32, !(*id as u32)),
                    "budget {budget}: page {id} came back with another page's bytes"
                );
                let hit = cache.stats().hits > before;
                assert_eq!(
                    hit,
                    model.read(*id),
                    "budget {budget}: read {reads} of page {id} disagrees on hit"
                );
                reads += 1;
            }
            Op::Pin(ids) => {
                cache
                    .pin(ids.iter().map(|&id| PageId(id)))
                    .expect("pin reads the pages");
                model.pin(ids);
            }
        }
    }
    assert_eq!(
        cache.stats(),
        model.stats,
        "budget {budget}: final counters"
    );
    assert_eq!(
        cache.resident(),
        model.resident(),
        "budget {budget}: resident"
    );
}

const BUDGETS: [usize; 7] = [0, 1, 2, 5, 63, 315, 2 * PAGES as usize];

#[test]
fn cache_matches_the_reference_policy_on_mixed_traces() {
    let dir = TempDir::new("cache-policy").unwrap();
    let file = file_of(&dir);
    for (i, &budget) in BUDGETS.iter().enumerate() {
        let ops = trace(5700 + i as u64, 100_000);
        replay(&file, &ops, budget);
    }
}

#[test]
fn cache_matches_the_reference_policy_on_pure_sweeps() {
    // Only sequential sweeps and repeats: the scan-resistance path, where
    // admission turns away most of every sweep once the cache is full.
    let dir = TempDir::new("cache-policy-sweep").unwrap();
    let file = file_of(&dir);
    let mut ops = Vec::new();
    for round in 0..40u64 {
        for p in 0..PAGES {
            ops.push(Op::Read((p * (round % 3 + 1)) % PAGES));
        }
        for p in 0..(round % 7) * 10 {
            ops.push(Op::Read(p));
        }
    }
    for &budget in &BUDGETS {
        replay(&file, &ops, budget);
    }
}
