//! SPANN-lite: a disk-resident cluster index (Chen et al.; §2.2(2)).
//!
//! Centroids stay in memory; posting lists live on disk in page-aligned
//! runs read through the accounting page cache. Two SPANN ideas are
//! reproduced: (1) *balanced k-means bucketing* so each posting list is a
//! small bounded number of pages, and (2) *closure assignment* — a vector
//! near several cluster boundaries is replicated into every cluster whose
//! centroid is within `(1 + ε)` of its nearest, trading disk space for
//! fewer I/Os at a given recall.
//!
//! The probed posting lists are scanned page by page through the cache
//! (DESIGN.md §12): a miss reads the page inline and installs it, and the
//! cache's scan-resistant eviction keeps one query's sweep from flushing
//! the pages other queries share. Page-resident vectors are gathered into
//! context scratch and scored through one `distance_batch` kernel call
//! per page instead of per-float loops.

use std::path::Path;
use std::sync::Arc;
use vdb_core::context::SearchContext;
use vdb_core::error::{Error, Result};
use vdb_core::index::{check_query, IndexStats, RowFilter, SearchParams, VectorIndex};
use vdb_core::kernel;
use vdb_core::metric::Metric;
use vdb_core::parallel::{clamp_threads, parallel_map_chunks, BuildOptions};
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;
use vdb_quant::{KMeans, KMeansConfig};
use vdb_storage::{Page, PageCache, PageId, PagedFile, PAGE_SIZE};

const MAGIC: u32 = 0x5350_414E; // "SPAN"

/// Build-time configuration.
#[derive(Debug, Clone)]
pub struct SpannConfig {
    /// Number of posting lists.
    pub nlist: usize,
    /// Closure assignment threshold ε: a vector joins every cluster with
    /// `dist ≤ (1 + ε) · dist_nearest`. `0.0` disables replication.
    pub closure_epsilon: f32,
    /// k-means iterations.
    pub train_iters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Page-cache budget (pages) for searches.
    pub cache_pages: usize,
}

impl SpannConfig {
    /// Defaults for `nlist` posting lists.
    pub fn new(nlist: usize) -> Self {
        SpannConfig {
            nlist,
            closure_epsilon: 0.1,
            train_iters: 15,
            seed: 0x5AA5,
            cache_pages: 64,
        }
    }
}

/// Disk-resident SPANN-style index.
pub struct SpannIndex {
    dim: usize,
    n: usize,
    metric: Metric,
    centroids: Vectors,
    /// Per-list (first data page, record count).
    postings: Vec<(u64, u32)>,
    cache: Arc<PageCache>,
    records_per_page: usize,
    /// Total records including closure replicas.
    replicated: usize,
}

impl SpannIndex {
    /// Build the index into the file at `path` on one thread.
    pub fn build<P: AsRef<Path>>(
        path: P,
        vectors: &Vectors,
        metric: Metric,
        cfg: &SpannConfig,
    ) -> Result<Self> {
        SpannIndex::build_with(path, vectors, metric, cfg, &BuildOptions::serial())
    }

    /// [`SpannIndex::build`] with explicit [`BuildOptions`]: k-means
    /// training and closure assignment fan out over row chunks (closure
    /// membership is a pure per-row test; per-chunk partial lists merge in
    /// chunk order, so the on-disk layout is the same at any thread
    /// count). Page serialization stays serial.
    pub fn build_with<P: AsRef<Path>>(
        path: P,
        vectors: &Vectors,
        metric: Metric,
        cfg: &SpannConfig,
        opts: &BuildOptions,
    ) -> Result<Self> {
        if vectors.is_empty() {
            return Err(Error::EmptyCollection);
        }
        metric.validate(vectors.dim())?;
        if cfg.nlist == 0 {
            return Err(Error::InvalidParameter("nlist must be positive".into()));
        }
        if cfg.closure_epsilon < 0.0 {
            return Err(Error::InvalidParameter(
                "closure epsilon must be >= 0".into(),
            ));
        }
        let dim = vectors.dim();
        let record_bytes = 4 + dim * 4;
        if record_bytes > PAGE_SIZE {
            return Err(Error::Unsupported(format!(
                "SPANN record ({record_bytes} B) exceeds one page; dim must be <= {}",
                (PAGE_SIZE - 4) / 4
            )));
        }
        let km = KMeans::train_with(
            vectors,
            &KMeansConfig {
                k: cfg.nlist,
                max_iters: cfg.train_iters,
                tolerance: 1e-4,
                seed: cfg.seed,
            },
            opts,
        )?;
        let nlist = km.k();

        // Closure assignment: pure per-row membership test, fanned out
        // over chunks; partial lists merge in chunk order so every list
        // keeps ascending row order.
        let threads = clamp_threads(opts.threads, vectors.len() / 64);
        let parts = parallel_map_chunks(vectors.len(), threads, |_, range| {
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
            let mut replicated = 0usize;
            for row in range {
                let v = vectors.get(row);
                let (_, dmin) = km.assign(v);
                // Compare in squared space: (1+eps)^2 scaling with a small
                // relative slack so the nearest centroid always qualifies.
                let scale = (1.0 + cfg.closure_epsilon) * (1.0 + cfg.closure_epsilon);
                let bound_sq = dmin * scale * (1.0 + 1e-6) + 1e-12;
                for (c, cent) in km.centroids().iter().enumerate() {
                    if kernel::l2_sq(v, cent) <= bound_sq {
                        lists[c].push(row as u32);
                        replicated += 1;
                    }
                }
            }
            (lists, replicated)
        });
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        let mut replicated = 0usize;
        for (part, part_replicated) in parts {
            replicated += part_replicated;
            for (list, p) in lists.iter_mut().zip(part) {
                list.extend(p);
            }
        }

        // Serialize: header page, centroid pages, meta pages, data pages.
        let file = Arc::new(PagedFile::create(path)?);
        let records_per_page = PAGE_SIZE / record_bytes;

        let centroid_bytes = nlist * dim * 4;
        let centroid_pages = centroid_bytes.div_ceil(PAGE_SIZE).max(1) as u64;
        let meta_bytes = nlist * 12;
        let meta_pages = meta_bytes.div_ceil(PAGE_SIZE).max(1) as u64;
        let data_pages: u64 = lists
            .iter()
            .map(|l| (l.len() as u64).div_ceil(records_per_page as u64))
            .sum();
        file.allocate(1 + centroid_pages + meta_pages + data_pages.max(1))?;

        // Header.
        let mut header = Page::zeroed();
        header.write_u32(0, MAGIC);
        header.write_u32(4, dim as u32);
        header.write_u32(8, vectors.len() as u32);
        header.write_u32(12, nlist as u32);
        file.write_page(vdb_storage::PageId(0), &header)?;

        // Centroids.
        write_f32_run(&file, 1, km.centroids().as_flat())?;

        // Data pages + meta.
        let mut postings = Vec::with_capacity(nlist);
        let mut next_page = 1 + centroid_pages + meta_pages;
        for list in &lists {
            postings.push((next_page, list.len() as u32));
            let mut page = Page::zeroed();
            let mut slot = 0usize;
            let mut pid = next_page;
            for &row in list {
                let base = slot * record_bytes;
                page.write_u32(base, row);
                let v = vectors.get(row as usize);
                for (j, &x) in v.iter().enumerate() {
                    page.write_f32(base + 4 + j * 4, x);
                }
                slot += 1;
                if slot == records_per_page {
                    file.write_page(vdb_storage::PageId(pid), &page)?;
                    page = Page::zeroed();
                    slot = 0;
                    pid += 1;
                }
            }
            if slot > 0 {
                file.write_page(vdb_storage::PageId(pid), &page)?;
                pid += 1;
            }
            next_page = pid;
        }

        // Meta run: (start_page u64, count u32) per list.
        let mut meta_buf = Vec::with_capacity(meta_bytes);
        for &(start, count) in &postings {
            meta_buf.extend_from_slice(&start.to_le_bytes());
            meta_buf.extend_from_slice(&count.to_le_bytes());
        }
        write_byte_run(&file, 1 + centroid_pages, &meta_buf)?;
        file.sync()?;

        Ok(SpannIndex {
            dim,
            n: vectors.len(),
            metric,
            centroids: km.centroids().clone(),
            postings,
            cache: Arc::new(PageCache::new(file, cfg.cache_pages)),
            records_per_page,
            replicated,
        })
    }

    /// Reopen an index previously built at `path`. Every posting run must
    /// lie inside the file's data pages, so a damaged or truncated file is
    /// an error here rather than a panic or a failed read at query time.
    pub fn open<P: AsRef<Path>>(path: P, metric: Metric, cache_pages: usize) -> Result<Self> {
        let file = Arc::new(PagedFile::open(path)?);
        let header = file.read_page(vdb_storage::PageId(0))?;
        if header.read_u32(0) != MAGIC {
            return Err(Error::Corrupt("bad SPANN magic".into()));
        }
        let dim = header.read_u32(4) as usize;
        let n = header.read_u32(8) as usize;
        let nlist = header.read_u32(12) as usize;
        if dim == 0 || nlist == 0 {
            return Err(Error::Corrupt("bad SPANN header".into()));
        }
        let record_bytes = 4 + dim * 4;
        if record_bytes > PAGE_SIZE {
            return Err(Error::Corrupt("bad SPANN header".into()));
        }
        metric.validate(dim)?;
        let centroid_pages = (nlist * dim * 4).div_ceil(PAGE_SIZE).max(1) as u64;
        let meta_pages = (nlist * 12).div_ceil(PAGE_SIZE).max(1) as u64;
        let cents = read_f32_run(&file, 1, nlist * dim)?;
        let centroids = Vectors::from_flat(dim, cents)?;
        let meta_buf = read_byte_run(&file, 1 + centroid_pages, nlist * 12)?;
        let records_per_page = PAGE_SIZE / record_bytes;
        let data_start = 1 + centroid_pages + meta_pages;
        let mut postings = Vec::with_capacity(nlist);
        let mut replicated = 0usize;
        for i in 0..nlist {
            let b = &meta_buf[i * 12..(i + 1) * 12];
            let start = u64::from_le_bytes(b[0..8].try_into().expect("8 bytes"));
            let count = u32::from_le_bytes(b[8..12].try_into().expect("4 bytes"));
            let pages = (count as u64).div_ceil(records_per_page as u64);
            let in_file = start
                .checked_add(pages)
                .is_some_and(|end| start >= data_start && end <= file.num_pages());
            if !in_file {
                return Err(Error::Corrupt(format!(
                    "SPANN posting list {i} runs outside the file"
                )));
            }
            replicated += count as usize;
            postings.push((start, count));
        }
        Ok(SpannIndex {
            dim,
            n,
            metric,
            centroids,
            postings,
            cache: Arc::new(PageCache::new(file, cache_pages)),
            records_per_page,
            replicated,
        })
    }

    /// The page cache (I/O accounting for experiment F7).
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// Replication factor caused by closure assignment.
    pub fn replication_factor(&self) -> f64 {
        self.replicated as f64 / self.n as f64
    }

    fn scan(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&dyn RowFilter>,
    ) -> Result<Vec<Neighbor>> {
        // Rank centroids in memory: one batched kernel sweep over the
        // centroid matrix (identical results to per-row scoring), ordered
        // with an id tie-break so probe order is deterministic.
        ctx.begin(self.n);
        let nlist = self.centroids.len();
        ctx.dists.resize(nlist, 0.0);
        kernel::l2_sq_batch(
            query,
            self.centroids.as_flat(),
            self.dim,
            &mut ctx.dists[..nlist],
        );
        ctx.order.clear();
        ctx.order
            .extend(ctx.dists.iter().enumerate().map(|(c, &d)| (d, c as u32)));
        ctx.order
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let probes = params.nprobe.max(1).min(ctx.order.len());
        let record_bytes = 4 + self.dim * 4;
        ctx.pool.reset(k);
        // Where a page read that the cache does not keep lands; allocated
        // on the context's first search.
        let mut page_buf = std::mem::take(ctx.ext::<Option<Page>>()).unwrap_or_else(Page::zeroed);

        let SearchContext {
            visited: seen,
            pool: top,
            order,
            ids,
            dists,
            rows,
            ..
        } = ctx;
        // Each probed list is a run of full pages ending in a partial one;
        // `open` checked that every run lies inside the file.
        let pages = order.iter().take(probes).flat_map(|&(_, c)| {
            let (start, count) = self.postings[c as usize];
            let count = count as usize;
            (0..count.div_ceil(self.records_per_page)).map(move |p| {
                let in_page = (count - p * self.records_per_page).min(self.records_per_page);
                (PageId(start + p as u64), in_page)
            })
        });
        for (pid, in_page) in pages {
            // Gather the page's surviving records (dedup closure replicas,
            // apply the filter) into contiguous scratch, then score the
            // whole page in one kernel batch after the page is released.
            let page = self.cache.read(pid, &mut page_buf)?;
            ids.clear();
            rows.clear();
            for slot in 0..in_page {
                let base = slot * record_bytes;
                let row = page.read_u32(base) as usize;
                if !seen.visit(row) {
                    continue; // closure replica already scored
                }
                if let Some(f) = filter {
                    if !f.accept(row) {
                        continue;
                    }
                }
                ids.push(row as u32);
                rows.extend(
                    page.bytes()[base + 4..base + 4 + self.dim * 4]
                        .chunks_exact(4)
                        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))),
                );
            }
            drop(page);
            dists.resize(ids.len(), 0.0);
            self.metric
                .distance_batch(query, rows, self.dim, &mut dists[..ids.len()]);
            for (&row, &d) in ids.iter().zip(dists.iter()) {
                top.push(Neighbor::new(row as usize, d));
            }
        }
        let out = top.drain_sorted();
        *ctx.ext::<Option<Page>>() = Some(page_buf);
        Ok(out)
    }
}

impl VectorIndex for SpannIndex {
    fn name(&self) -> &'static str {
        "spann"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> &Metric {
        &self.metric
    }

    fn search_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim, query)?;
        if k == 0 || self.n == 0 {
            return Ok(Vec::new());
        }
        self.scan(ctx, query, k, params, None)
    }

    fn search_filtered_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim, query)?;
        if k == 0 || self.n == 0 {
            return Ok(Vec::new());
        }
        self.scan(ctx, query, k, params, Some(filter))
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            // Only centroids and posting metadata are memory-resident.
            memory_bytes: self.centroids.memory_bytes() + self.postings.len() * 12,
            structure_entries: self.replicated,
            detail: format!(
                "nlist={} replication={:.2}",
                self.postings.len(),
                self.replication_factor()
            ),
        }
    }
}

impl std::fmt::Debug for SpannIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpannIndex(n={}, nlist={})", self.n, self.postings.len())
    }
}

// --- small run (de)serializers over consecutive pages -----------------------

fn write_byte_run(file: &PagedFile, start_page: u64, bytes: &[u8]) -> Result<()> {
    for (i, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
        let mut page = Page::zeroed();
        page.bytes_mut()[..chunk.len()].copy_from_slice(chunk);
        file.write_page(vdb_storage::PageId(start_page + i as u64), &page)?;
    }
    Ok(())
}

fn read_byte_run(file: &PagedFile, start_page: u64, len: usize) -> Result<Vec<u8>> {
    // Lengths come from the header: bound them by the file before
    // allocating, so a damaged header is an error, not a huge allocation.
    let pages = len.div_ceil(PAGE_SIZE);
    if start_page.saturating_add(pages as u64) > file.num_pages() {
        return Err(Error::Corrupt("SPANN section runs past the file".into()));
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..pages {
        let page = file.read_page(vdb_storage::PageId(start_page + i as u64))?;
        let take = (len - out.len()).min(PAGE_SIZE);
        out.extend_from_slice(&page.bytes()[..take]);
    }
    Ok(out)
}

fn write_f32_run(file: &PagedFile, start_page: u64, data: &[f32]) -> Result<()> {
    let mut bytes = Vec::with_capacity(data.len() * 4);
    for &x in data {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    write_byte_run(file, start_page, &bytes)
}

fn read_f32_run(file: &PagedFile, start_page: u64, count: usize) -> Result<Vec<f32>> {
    let bytes = read_byte_run(file, start_page, count * 4)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::recall::GroundTruth;
    use vdb_core::rng::Rng;
    use vdb_storage::TempDir;

    fn setup(eps: f32, cache_pages: usize) -> (TempDir, SpannIndex, Vectors, GroundTruth) {
        let mut rng = Rng::seed_from_u64(20);
        let data = dataset::clustered(2000, 16, 16, 0.4, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 20, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let dir = TempDir::new("spann").unwrap();
        let mut cfg = SpannConfig::new(16);
        cfg.closure_epsilon = eps;
        cfg.cache_pages = cache_pages;
        let idx = SpannIndex::build(dir.file("s.idx"), &data, Metric::Euclidean, &cfg).unwrap();
        (dir, idx, queries, gt)
    }

    fn recall_at(idx: &SpannIndex, queries: &Vectors, gt: &GroundTruth, nprobe: usize) -> f64 {
        let params = SearchParams::default().with_nprobe(nprobe);
        let results: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        gt.recall_batch(&results)
    }

    #[test]
    fn full_probe_is_exact() {
        let (_d, idx, queries, gt) = setup(0.0, 64);
        let r = recall_at(&idx, &queries, &gt, 16);
        assert!((r - 1.0).abs() < 1e-12, "recall {r}");
    }

    #[test]
    fn closure_assignment_raises_low_probe_recall() {
        // Overlapping clusters so that boundary points actually exist
        // (with well-separated clusters closure replication is a no-op).
        let mut rng = Rng::seed_from_u64(22);
        let data = dataset::clustered(2000, 16, 16, 3.0, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 20, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let dir = TempDir::new("spann-closure").unwrap();
        let build = |eps: f32, name: &str| {
            let mut cfg = SpannConfig::new(16);
            cfg.closure_epsilon = eps;
            SpannIndex::build(dir.file(name), &data, Metric::Euclidean, &cfg).unwrap()
        };
        let plain = build(0.0, "plain.idx");
        let closed = build(0.5, "closed.idx");
        let rp = recall_at(&plain, &queries, &gt, 2);
        let rc = recall_at(&closed, &queries, &gt, 2);
        assert!(
            closed.replication_factor() > 1.05,
            "replication {} too low",
            closed.replication_factor()
        );
        assert!(rc >= rp, "closure {rc} vs plain {rp}");
    }

    #[test]
    fn io_counted_per_query() {
        let (_d, idx, queries, _) = setup(0.1, 0); // no cache: every read counted
        idx.cache().reset_stats();
        let params = SearchParams::default().with_nprobe(2);
        idx.search(queries.get(0), 10, &params).unwrap();
        let s = idx.cache().stats();
        assert!(s.misses > 0, "disk reads must be visible");
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn bigger_cache_fewer_misses() {
        let (_d, cold, queries, _) = setup(0.1, 2);
        let (_d2, warm, _, _) = setup(0.1, 4096);
        let params = SearchParams::default().with_nprobe(8);
        for q in queries.iter() {
            cold.search(q, 10, &params).unwrap();
            warm.search(q, 10, &params).unwrap();
        }
        cold.cache().reset_stats();
        warm.cache().reset_stats();
        for q in queries.iter() {
            cold.search(q, 10, &params).unwrap();
            warm.search(q, 10, &params).unwrap();
        }
        assert!(warm.cache().stats().hit_ratio() > cold.cache().stats().hit_ratio());
    }

    #[test]
    fn reopen_gives_same_results() {
        let mut rng = Rng::seed_from_u64(21);
        let data = dataset::clustered(500, 8, 8, 0.3, &mut rng).vectors;
        let dir = TempDir::new("spann-reopen").unwrap();
        let path = dir.file("r.idx");
        let cfg = SpannConfig::new(8);
        let built = SpannIndex::build(&path, &data, Metric::Euclidean, &cfg).unwrap();
        let q = data.get(3);
        let params = SearchParams::default().with_nprobe(8);
        let before = built.search(q, 5, &params).unwrap();
        drop(built);
        let reopened = SpannIndex::open(&path, Metric::Euclidean, 16).unwrap();
        assert_eq!(reopened.len(), 500);
        let after = reopened.search(q, 5, &params).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn open_rejects_posting_runs_outside_the_file() {
        let mut rng = Rng::seed_from_u64(23);
        let data = dataset::clustered(500, 8, 8, 0.3, &mut rng).vectors;
        let dir = TempDir::new("spann-corrupt").unwrap();
        let path = dir.file("c.idx");
        SpannIndex::build(&path, &data, Metric::Euclidean, &SpannConfig::new(8)).unwrap();
        let image = std::fs::read(&path).unwrap();
        let open = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            SpannIndex::open(&path, Metric::Euclidean, 16)
        };
        assert!(open(&image).is_ok());
        // Truncated: the last posting list's pages are gone.
        assert!(matches!(
            open(&image[..image.len() - PAGE_SIZE]),
            Err(Error::Corrupt(_))
        ));
        // One run's start page overflows `start + p` and `PageId::offset`.
        let meta = (1 + (8 * 8 * 4usize).div_ceil(PAGE_SIZE)) * PAGE_SIZE;
        let mut bad = image.clone();
        bad[meta..meta + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        assert!(matches!(open(&bad), Err(Error::Corrupt(_))));
    }

    #[test]
    fn filtered_scan_respects_predicate() {
        let (_d, idx, queries, _) = setup(0.1, 64);
        let filter = |id: usize| id < 100;
        let params = SearchParams::default().with_nprobe(16);
        let hits = idx
            .search_filtered(queries.get(0), 5, &params, &filter)
            .unwrap();
        assert!(hits.iter().all(|n| n.id < 100));
    }

    #[test]
    fn rejects_invalid_builds() {
        let dir = TempDir::new("spann-bad").unwrap();
        let data = dataset::gaussian(10, 4, &mut Rng::seed_from_u64(1));
        assert!(SpannIndex::build(
            dir.file("a"),
            &Vectors::new(4),
            Metric::Euclidean,
            &SpannConfig::new(4)
        )
        .is_err());
        let mut cfg = SpannConfig::new(0);
        assert!(SpannIndex::build(dir.file("b"), &data, Metric::Euclidean, &cfg).is_err());
        cfg = SpannConfig::new(4);
        cfg.closure_epsilon = -1.0;
        assert!(SpannIndex::build(dir.file("c"), &data, Metric::Euclidean, &cfg).is_err());
    }
}
