//! DiskANN (Subramanya et al.; §2.2(2) "disk-resident Vamana").
//!
//! The Vamana graph lives on disk: each node is a fixed-size record
//! `[degree, neighbors[R], vector[d]]` packed into pages, so expanding one
//! node during search costs exactly one page read. Navigation uses
//! in-memory PQ codes (ADC distances steer the frontier without I/O);
//! exact distances come free with each record read and form the result.
//!
//! The codes quantize each node's residual `r` to its coarse centroid
//! `c`, and IVFADC's precomputed terms (Jégou et al., TPAMI 2011) split
//! its distance to the query into three parts:
//! `‖q − c − r‖² = ‖q − c‖² + Σ_s (‖r_s‖² + 2⟨c_s, r_s⟩) − Σ_s 2⟨q_s, r_s⟩`.
//! The middle sum involves no query and is one float per node, computed
//! at build and at open; the first is one batched kernel call over the
//! centroids per query; the last is a plain ADC scan through one
//! `m × ksub` table per query. Scoring a node costs what plain PQ does,
//! plus two adds.
//!
//! Two disk-serving techniques keep that read stream short (DESIGN.md
//! §12, experiment D1):
//!
//! - **Cache-aware layout** (`packed_layout`, on-disk layout version 1):
//!   records are written in BFS order from the entry point, so the nodes
//!   a beam search expands consecutively tend to share 4 KiB pages and
//!   one page read serves several expansions. A node→slot map travels
//!   with the file; version-0 images (identity order, the original
//!   format) still load byte-for-byte.
//! - **Pinned hot set**: the first `hot_pages` data pages — the entry
//!   point's BFS neighborhood every query traverses — are pinned in the
//!   [`PageCache`] outside the eviction budget. (Navigation centroids and
//!   PQ codebooks are memory-resident fields by construction.)
//!
//! Every expansion reads its page synchronously through the cache: a miss
//! reads the page inline and installs it.

use crate::vamana::VamanaIndex;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use vdb_core::context::SearchContext;
use vdb_core::error::{Error, Result};
use vdb_core::index::{check_query, IndexStats, RowFilter, SearchParams, VectorIndex};
use vdb_core::kernel;
use vdb_core::metric::Metric;
use vdb_core::parallel::{clamp_threads, parallel_map_chunks, BuildOptions};
use vdb_core::topk::Neighbor;
use vdb_quant::{KMeans, KMeansConfig};
use vdb_quant::{PqConfig, ProductQuantizer};
use vdb_storage::{Page, PageCache, PageId, PagedFile, PAGE_SIZE};

const MAGIC: u32 = 0x4449_534B; // "DISK"
/// On-disk layout versions (header word 8). Version 0 is the original
/// identity-ordered record layout — pre-existing images read the zeroed
/// header word as exactly this. Version 1 packs records in BFS order and
/// stores a node→slot run between the code run and the data pages.
const LAYOUT_IDENTITY: u32 = 0;
const LAYOUT_PACKED: u32 = 1;

/// The query's half of navigation, computed once per query (see the
/// module docs). Buffers keep their capacity across queries.
#[derive(Debug, Default)]
struct NavQuery {
    /// `−2⟨q_s, r_s⟩`, `m × ksub`: the ADC table every code scans through.
    terms: Vec<f32>,
    /// `‖q − c‖²` per coarse centroid.
    centroid_dists: Vec<f32>,
    /// The gathered codes of the nodes being scored.
    codes: Vec<u8>,
}

impl NavQuery {
    /// Reset for a new query against `index`.
    fn begin(&mut self, index: &DiskAnnIndex, query: &[f32]) -> Result<()> {
        index.pq.query_terms_into(query, &mut self.terms)?;
        let centroids = &index.nav_centroids;
        self.centroid_dists.clear();
        self.centroid_dists.resize(centroids.len(), 0.0);
        kernel::l2_sq_batch(
            query,
            centroids.as_flat(),
            index.dim,
            &mut self.centroid_dists,
        );
        Ok(())
    }

    /// Approximate distances of `nodes` to the current query, into `out`:
    /// one `adc_scan` of their gathered codes, plus each node's centroid
    /// distance and node term.
    fn score(&mut self, index: &DiskAnnIndex, nodes: &[u32], out: &mut Vec<f32>) {
        let m = index.pq.code_len();
        self.codes.clear();
        for &v in nodes {
            let v = v as usize;
            self.codes
                .extend_from_slice(&index.codes[v * m..(v + 1) * m]);
        }
        out.clear();
        out.resize(nodes.len(), 0.0);
        kernel::adc_scan(&self.terms, index.pq.ksub(), &self.codes, m, out);
        for (d, &v) in out.iter_mut().zip(nodes) {
            let v = v as usize;
            *d += self.centroid_dists[index.nav_assign[v] as usize] + index.node_terms[v];
        }
    }
}

/// Per-query scratch kept in the [`SearchContext`] extension slot: the
/// query's navigation terms and the scratch page for reads the page
/// cache does not keep. Reusing these across queries keeps the hot path
/// free of per-query heap allocation.
#[derive(Debug, Default)]
struct DiskAnnScratch {
    nav: NavQuery,
    /// Where a page read that the cache does not keep lands; allocated on
    /// the context's first search.
    page: Option<Page>,
}

/// Build-time configuration.
#[derive(Debug, Clone)]
pub struct DiskAnnConfig {
    /// PQ subspaces for the in-memory navigation codes.
    pub pq_m: usize,
    /// Coarse clusters for *residual* navigation codes: quantizing
    /// `v - centroid` (the IVFADC trick) keeps the codes discriminative
    /// within clusters, where raw-vector PQ cells would be far wider than
    /// true neighbor distances.
    pub nav_nlist: usize,
    /// Page-cache budget in pages.
    pub cache_pages: usize,
    /// Write records in BFS order from the entry point (layout v1) so
    /// consecutively expanded nodes share pages. `false` reproduces the
    /// original identity layout (v0) byte-for-byte.
    pub packed_layout: bool,
    /// Entry-region data pages pinned in the cache (skipped when the
    /// cache budget is zero, which models "no memory at all").
    pub hot_pages: usize,
}

impl Default for DiskAnnConfig {
    fn default() -> Self {
        DiskAnnConfig {
            pq_m: 8,
            nav_nlist: 64,
            cache_pages: 128,
            packed_layout: true,
            hot_pages: 4,
        }
    }
}

/// The disk-resident index.
pub struct DiskAnnIndex {
    dim: usize,
    n: usize,
    r: usize,
    start: usize,
    metric: Metric,
    pq: ProductQuantizer,
    /// Coarse centroids of the residual navigation codes.
    nav_centroids: vdb_core::vector::Vectors,
    /// Coarse-cluster assignment per node.
    nav_assign: Vec<u32>,
    /// In-memory residual PQ codes, `n × m` bytes.
    codes: Vec<u8>,
    /// Query-independent residual ADC term per node
    /// ([`ProductQuantizer::residual_terms`]); never stored on disk.
    node_terms: Vec<f32>,
    /// Node → record slot for the packed layout; empty = identity (v0).
    slot_of: Vec<u32>,
    cache: Arc<PageCache>,
    records_per_page: usize,
    data_start: u64,
}

/// BFS order over the graph from `start`; unreachable nodes (if any)
/// append in id order. Returns `slot_of[node]`.
fn bfs_slots(vamana: &VamanaIndex, n: usize) -> Vec<u32> {
    let adj = vamana.adjacency();
    let mut slot_of = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    if n > 0 {
        let s = vamana.start().min(n - 1);
        slot_of[s] = next;
        next += 1;
        queue.push_back(s);
    }
    while let Some(u) = queue.pop_front() {
        for &v in adj.neighbors(u) {
            let v = v as usize;
            if v < n && slot_of[v] == u32::MAX {
                slot_of[v] = next;
                next += 1;
                queue.push_back(v);
            }
        }
    }
    for s in slot_of.iter_mut() {
        if *s == u32::MAX {
            *s = next;
            next += 1;
        }
    }
    slot_of
}

impl DiskAnnIndex {
    /// Serialize a built Vamana graph to `path` and open it (serial).
    pub fn build<P: AsRef<Path>>(
        path: P,
        vamana: &VamanaIndex,
        cfg: &DiskAnnConfig,
    ) -> Result<Self> {
        DiskAnnIndex::build_with(path, vamana, cfg, &BuildOptions::serial())
    }

    /// [`DiskAnnIndex::build`] with explicit [`BuildOptions`]: navigation
    /// k-means, coarse assignment, residual-PQ training, and residual
    /// encoding fan out over threads. Assignment and encoding are pure
    /// per row and PQ subspaces train independently, so the on-disk image
    /// is the same at any thread count.
    /// Page serialization stays serial.
    pub fn build_with<P: AsRef<Path>>(
        path: P,
        vamana: &VamanaIndex,
        cfg: &DiskAnnConfig,
        opts: &BuildOptions,
    ) -> Result<Self> {
        let vectors = vamana.vectors();
        let dim = vectors.dim();
        let n = vectors.len();
        // Size records by the *actual* maximum out-degree: connectivity
        // repair can push a few nodes past the configured R, and truncating
        // those edges would disconnect the on-disk graph.
        let r = (0..n)
            .map(|u| vamana.adjacency().neighbors(u).len())
            .max()
            .unwrap_or(0)
            .max(vamana.config().r);
        let record_bytes = 4 + r * 4 + dim * 4;
        if record_bytes > PAGE_SIZE {
            return Err(Error::Unsupported(format!(
                "node record ({record_bytes} B) exceeds a page; reduce R or dim"
            )));
        }
        if !dim.is_multiple_of(cfg.pq_m) {
            return Err(Error::InvalidParameter(format!(
                "pq_m={} must divide dim {dim}",
                cfg.pq_m
            )));
        }
        if cfg.nav_nlist == 0 {
            return Err(Error::InvalidParameter("nav_nlist must be positive".into()));
        }
        // Train the residual navigation codes: coarse k-means, then PQ on
        // the residuals (the IVFADC trick applied to graph navigation).
        let coarse = KMeans::train_with(
            vectors,
            &KMeansConfig {
                k: cfg.nav_nlist,
                max_iters: 12,
                tolerance: 1e-4,
                seed: 0xD15C,
            },
            opts,
        )?;
        let nav_centroids = coarse.centroids().clone();
        // Coarse assignment is a pure per-row argmin; fan it out.
        let threads = clamp_threads(opts.threads, n / 64);
        let nav_assign: Vec<u32> = parallel_map_chunks(n, threads, |_, range| {
            range
                .map(|row| coarse.assign(vectors.get(row)).0 as u32)
                .collect::<Vec<_>>()
        })
        .concat();
        let mut residuals = vdb_core::vector::Vectors::with_capacity(dim, n);
        let mut buf = vec![0.0f32; dim];
        for (row, &c) in vectors.iter().zip(&nav_assign) {
            let cent = nav_centroids.get(c as usize);
            for i in 0..dim {
                buf[i] = row[i] - cent[i];
            }
            residuals.push(&buf)?;
        }
        let pq = ProductQuantizer::train_with(&residuals, &PqConfig::new(cfg.pq_m), opts)?;
        let m = pq.code_len();
        let codes = pq.encode_all(&residuals, opts)?;
        let nlist = nav_centroids.len();

        // Record placement: BFS-packed (v1) or identity (v0, the original
        // format — written bit-for-bit when `packed_layout` is off).
        let layout = if cfg.packed_layout {
            LAYOUT_PACKED
        } else {
            LAYOUT_IDENTITY
        };
        let slot_of: Vec<u32> = if layout == LAYOUT_PACKED {
            bfs_slots(vamana, n)
        } else {
            Vec::new()
        };

        // Layout.
        let records_per_page = PAGE_SIZE / record_bytes;
        let ksub = pq.ksub();
        let dsub = dim / m;
        let codebook_pages = (m * ksub * dsub * 4).div_ceil(PAGE_SIZE) as u64;
        let centroid_pages = (nlist * dim * 4).div_ceil(PAGE_SIZE) as u64;
        let assign_pages = (n * 4).div_ceil(PAGE_SIZE) as u64;
        let code_pages = (n * m).div_ceil(PAGE_SIZE) as u64;
        let slot_pages = if layout == LAYOUT_PACKED {
            (n * 4).div_ceil(PAGE_SIZE) as u64
        } else {
            0
        };
        let data_pages = (n as u64).div_ceil(records_per_page as u64);
        let file = Arc::new(PagedFile::create(path)?);
        file.allocate(
            1 + codebook_pages
                + centroid_pages
                + assign_pages
                + code_pages
                + slot_pages
                + data_pages,
        )?;

        let mut header = Page::zeroed();
        header.write_u32(0, MAGIC);
        header.write_u32(4, dim as u32);
        header.write_u32(8, n as u32);
        header.write_u32(12, r as u32);
        header.write_u32(16, vamana.start() as u32);
        header.write_u32(20, m as u32);
        header.write_u32(24, ksub as u32);
        header.write_u32(28, nlist as u32);
        header.write_u32(32, layout);
        file.write_page(PageId(0), &header)?;

        // Codebooks.
        let mut cb_bytes = Vec::with_capacity(m * ksub * dsub * 4);
        for &x in pq.codebooks() {
            cb_bytes.extend_from_slice(&x.to_le_bytes());
        }
        write_run(&file, 1, &cb_bytes)?;
        // Coarse centroids + assignments + codes (+ slot map when packed).
        let mut cent_bytes = Vec::with_capacity(nlist * dim * 4);
        for &x in nav_centroids.as_flat() {
            cent_bytes.extend_from_slice(&x.to_le_bytes());
        }
        write_run(&file, 1 + codebook_pages, &cent_bytes)?;
        let mut assign_bytes = Vec::with_capacity(n * 4);
        for &a in &nav_assign {
            assign_bytes.extend_from_slice(&a.to_le_bytes());
        }
        write_run(&file, 1 + codebook_pages + centroid_pages, &assign_bytes)?;
        write_run(
            &file,
            1 + codebook_pages + centroid_pages + assign_pages,
            &codes,
        )?;
        if layout == LAYOUT_PACKED {
            let mut slot_bytes = Vec::with_capacity(n * 4);
            for &s in &slot_of {
                slot_bytes.extend_from_slice(&s.to_le_bytes());
            }
            write_run(
                &file,
                1 + codebook_pages + centroid_pages + assign_pages + code_pages,
                &slot_bytes,
            )?;
        }

        // Node records, written in slot order so BFS-adjacent nodes share
        // pages under the packed layout.
        let data_start =
            1 + codebook_pages + centroid_pages + assign_pages + code_pages + slot_pages;
        let adj = vamana.adjacency();
        let mut page = Page::zeroed();
        let mut current = u64::MAX;
        // node_at[slot] = node id.
        let node_at: Vec<usize> = if layout == LAYOUT_PACKED {
            let mut node_at = vec![0usize; n];
            for (node, &slot) in slot_of.iter().enumerate() {
                node_at[slot as usize] = node;
            }
            node_at
        } else {
            (0..n).collect()
        };
        for (slot, &u) in node_at.iter().enumerate() {
            let pid = data_start + (slot / records_per_page) as u64;
            if pid != current {
                if current != u64::MAX {
                    file.write_page(PageId(current), &page)?;
                }
                page = Page::zeroed();
                current = pid;
            }
            let base = (slot % records_per_page) * record_bytes;
            let nbrs = adj.neighbors(u);
            page.write_u32(base, nbrs.len().min(r) as u32);
            for (j, &v) in nbrs.iter().take(r).enumerate() {
                page.write_u32(base + 4 + j * 4, v);
            }
            let v = vectors.get(u);
            for (j, &x) in v.iter().enumerate() {
                page.write_f32(base + 4 + r * 4 + j * 4, x);
            }
        }
        if current != u64::MAX {
            file.write_page(PageId(current), &page)?;
        }
        file.sync()?;

        let cache = Arc::new(PageCache::new(file, cfg.cache_pages));
        let idx = DiskAnnIndex {
            dim,
            n,
            r,
            start: vamana.start(),
            metric: vamana.metric().clone(),
            node_terms: pq.residual_terms(&nav_centroids, &nav_assign, &codes)?,
            pq,
            nav_centroids,
            nav_assign,
            codes,
            slot_of,
            cache,
            records_per_page,
            data_start,
        };
        idx.pin_hot_set(cfg.hot_pages)?;
        Ok(idx)
    }

    /// Reopen a previously built index. Both layout versions load: v0
    /// (identity order, the original format) and v1 (BFS-packed). The
    /// header, entry point, and every in-memory array are range-checked,
    /// and searches skip stored neighbour ids `>= n`, so a damaged file
    /// is an error or a worse answer, never a panic.
    pub fn open<P: AsRef<Path>>(path: P, metric: Metric, cache_pages: usize) -> Result<Self> {
        let file = Arc::new(PagedFile::open(path)?);
        let header = file.read_page(PageId(0))?;
        if header.read_u32(0) != MAGIC {
            return Err(Error::Corrupt("bad DiskANN magic".into()));
        }
        let dim = header.read_u32(4) as usize;
        let n = header.read_u32(8) as usize;
        let r = header.read_u32(12) as usize;
        let start = header.read_u32(16) as usize;
        let m = header.read_u32(20) as usize;
        let ksub = header.read_u32(24) as usize;
        let nlist = header.read_u32(28) as usize;
        let layout = header.read_u32(32);
        if dim == 0 || m == 0 || !dim.is_multiple_of(m) || nlist == 0 {
            return Err(Error::Corrupt("bad DiskANN header".into()));
        }
        if layout > LAYOUT_PACKED {
            return Err(Error::Corrupt(format!(
                "unknown DiskANN layout version {layout}"
            )));
        }
        let record_bytes = 4 + r * 4 + dim * 4;
        if record_bytes > PAGE_SIZE || (n > 0 && start >= n) {
            return Err(Error::Corrupt("bad DiskANN header".into()));
        }
        metric.validate(dim)?;
        let dsub = dim / m;
        let codebook_pages = (m * ksub * dsub * 4).div_ceil(PAGE_SIZE) as u64;
        let centroid_pages = (nlist * dim * 4).div_ceil(PAGE_SIZE) as u64;
        let assign_pages = (n * 4).div_ceil(PAGE_SIZE) as u64;
        let code_pages = (n * m).div_ceil(PAGE_SIZE) as u64;
        let cb_bytes = read_run(&file, 1, m * ksub * dsub * 4)?;
        let codebooks: Vec<f32> = cb_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        let pq = ProductQuantizer::from_parts(dim, m, ksub, codebooks)?;
        let cent_bytes = read_run(&file, 1 + codebook_pages, nlist * dim * 4)?;
        let nav_centroids = vdb_core::vector::Vectors::from_flat(
            dim,
            cent_bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect(),
        )?;
        let assign_bytes = read_run(&file, 1 + codebook_pages + centroid_pages, n * 4)?;
        let nav_assign: Vec<u32> = assign_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        if nav_assign.iter().any(|&c| c as usize >= nlist) {
            return Err(Error::Corrupt(
                "DiskANN cluster assignment out of range".into(),
            ));
        }
        let codes = read_run(
            &file,
            1 + codebook_pages + centroid_pages + assign_pages,
            n * m,
        )?;
        let (slot_of, slot_pages) = if layout == LAYOUT_PACKED {
            let bytes = read_run(
                &file,
                1 + codebook_pages + centroid_pages + assign_pages + code_pages,
                n * 4,
            )?;
            let slots: Vec<u32> = bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            if slots.iter().any(|&s| s as usize >= n) {
                return Err(Error::Corrupt("DiskANN slot map out of range".into()));
            }
            (slots, (n * 4).div_ceil(PAGE_SIZE) as u64)
        } else {
            (Vec::new(), 0)
        };
        let records_per_page = PAGE_SIZE / record_bytes;
        let data_start =
            1 + codebook_pages + centroid_pages + assign_pages + code_pages + slot_pages;
        if file.num_pages() < data_start + (n as u64).div_ceil(records_per_page as u64) {
            return Err(Error::Corrupt("DiskANN file is missing data pages".into()));
        }
        let idx = DiskAnnIndex {
            dim,
            n,
            r,
            start,
            metric,
            node_terms: pq.residual_terms(&nav_centroids, &nav_assign, &codes)?,
            pq,
            nav_centroids,
            nav_assign,
            codes,
            slot_of,
            cache: Arc::new(PageCache::new(file, cache_pages)),
            records_per_page,
            data_start,
        };
        idx.pin_hot_set(DiskAnnConfig::default().hot_pages)?;
        Ok(idx)
    }

    /// Pin the entry-region pages: the page holding the start node plus
    /// the first `hot` data pages (under the packed layout these are the
    /// start's BFS neighborhood — the pages every query touches first).
    /// Skipped when the cache budget is zero (no memory modeled at all).
    fn pin_hot_set(&self, hot: usize) -> Result<()> {
        if self.cache.budget() == 0 || self.n == 0 || hot == 0 {
            return Ok(());
        }
        let data_pages = (self.n as u64).div_ceil(self.records_per_page as u64);
        let mut ids = vec![self.page_of(self.start)];
        ids.extend((0..(hot as u64).min(data_pages)).map(|p| PageId(self.data_start + p)));
        self.cache.pin(ids)?;
        Ok(())
    }

    /// The page cache (F7/D1 instrumentation).
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// On-disk layout version (0 = identity, 1 = BFS-packed).
    pub fn layout_version(&self) -> u32 {
        if self.slot_of.is_empty() {
            LAYOUT_IDENTITY
        } else {
            LAYOUT_PACKED
        }
    }

    /// Bytes of memory-resident navigation state per vector: the code,
    /// the node term and, under the packed layout, the slot.
    pub fn memory_bytes_per_vector(&self) -> usize {
        self.pq.code_len() + 4 + if self.slot_of.is_empty() { 0 } else { 4 }
    }

    /// Record slot of node `u` under the active layout.
    #[inline]
    fn slot(&self, u: usize) -> usize {
        if self.slot_of.is_empty() {
            u
        } else {
            self.slot_of[u] as usize
        }
    }

    /// Data page holding node `u`'s record.
    #[inline]
    fn page_of(&self, u: usize) -> PageId {
        PageId(self.data_start + (self.slot(u) / self.records_per_page) as u64)
    }

    /// Read node `u`'s record: neighbor ids into `nbrs`, the stored
    /// vector decoded *once* into `scratch`, and the exact distance to
    /// `query` computed through the dispatched kernel layer. The page is
    /// borrowed from the cache (or read into `page_buf`) only while the
    /// record is copied out.
    fn read_node_into(
        &self,
        u: usize,
        query: &[f32],
        page_buf: &mut Page,
        scratch: &mut Vec<f32>,
        nbrs: &mut Vec<u32>,
    ) -> Result<f32> {
        let record_bytes = 4 + self.r * 4 + self.dim * 4;
        {
            let page = self.cache.read(self.page_of(u), page_buf)?;
            let base = (self.slot(u) % self.records_per_page) * record_bytes;
            let degree = page.read_u32(base) as usize;
            nbrs.clear();
            for j in 0..degree.min(self.r) {
                nbrs.push(page.read_u32(base + 4 + j * 4));
            }
            // One contiguous decode into context scratch, then one kernel
            // call (`Metric::distance` dispatches to the SIMD backend) — no
            // per-float hand-rolled loop on the hot path.
            let voff = base + 4 + self.r * 4;
            scratch.clear();
            scratch.extend(
                page.bytes()[voff..voff + self.dim * 4]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
            );
        }
        Ok(self.metric.distance(query, scratch))
    }

    fn scan(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&dyn RowFilter>,
    ) -> Result<Vec<Neighbor>> {
        let beam = params.beam_width.max(k);
        // The query terms and the centroid distances are computed once
        // here; every node is then scored by `NavQuery::score`. They live
        // in the context's extension slot so a reused context allocates
        // nothing.
        ctx.begin(self.n);
        let DiskAnnScratch { mut nav, page } = std::mem::take(ctx.ext::<DiskAnnScratch>());
        let mut page = page.unwrap_or_else(Page::zeroed);
        nav.begin(self, query)?;

        // Best-first beam search over a bounded frontier: `frontier` is a
        // min-heap of unexpanded candidates ordered by ADC distance;
        // `bound_pool` retains the `beam` best ADC distances seen and its
        // threshold terminates the walk (the candidate-list rescan and
        // O(n) sorted inserts of the original loop are gone).
        ctx.frontier.clear();
        ctx.bound_pool.reset(beam);
        ctx.rerank.reset(k.max(params.rerank.min(beam)));
        ctx.visited.visit(self.start);
        nav.score(self, &[self.start as u32], &mut ctx.dists);
        let d0 = ctx.dists[0];
        ctx.frontier.push(Reverse(Neighbor::new(self.start, d0)));
        ctx.bound_pool.push(Neighbor::new(self.start, d0));

        while let Some(Reverse(cand)) = ctx.frontier.pop() {
            if ctx.bound_pool.is_full() && cand.dist > ctx.bound_pool.threshold() {
                break;
            }
            // Expand: one page read (often resident: the packed layout puts
            // consecutive expansions on shared pages) + exact rescoring via
            // the kernels.
            let dist =
                self.read_node_into(cand.id, query, &mut page, &mut ctx.scratch, &mut ctx.ids)?;
            if filter.is_none_or(|f| f.accept(cand.id)) {
                ctx.rerank.push(Neighbor::new(cand.id, dist));
            }
            // Score the unvisited neighbours in one ADC scan.
            let visited = &mut ctx.visited;
            ctx.ids
                .retain(|&v| (v as usize) < self.n && visited.visit(v as usize));
            nav.score(self, &ctx.ids, &mut ctx.dists);
            for (&v, &d) in ctx.ids.iter().zip(&ctx.dists) {
                if !ctx.bound_pool.is_full() || d < ctx.bound_pool.threshold() {
                    ctx.frontier.push(Reverse(Neighbor::new(v as usize, d)));
                    ctx.bound_pool.push(Neighbor::new(v as usize, d));
                }
            }
        }
        let mut out = ctx.rerank.drain_sorted();
        out.truncate(k);
        *ctx.ext::<DiskAnnScratch>() = DiskAnnScratch {
            nav,
            page: Some(page),
        };
        Ok(out)
    }
}

impl VectorIndex for DiskAnnIndex {
    fn name(&self) -> &'static str {
        "diskann"
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
            memory_bytes: self.codes.len()
                + self.pq.memory_bytes()
                + self.node_terms.len() * 4
                + self.slot_of.len() * 4,
            structure_entries: self.n,
            detail: format!(
                "r={} pq_m={} layout=v{}",
                self.r,
                self.pq.m(),
                self.layout_version()
            ),
        }
    }
}

impl std::fmt::Debug for DiskAnnIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DiskAnnIndex(n={}, r={})", self.n, self.r)
    }
}

fn write_run(file: &PagedFile, start_page: u64, bytes: &[u8]) -> Result<()> {
    for (i, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
        let mut page = Page::zeroed();
        page.bytes_mut()[..chunk.len()].copy_from_slice(chunk);
        file.write_page(PageId(start_page + i as u64), &page)?;
    }
    Ok(())
}

fn read_run(file: &PagedFile, start_page: u64, len: usize) -> Result<Vec<u8>> {
    // Lengths come from the header: bound them by the file before
    // allocating, so a damaged header is an error, not a huge allocation.
    if start_page.saturating_add(len.div_ceil(PAGE_SIZE) as u64) > file.num_pages() {
        return Err(Error::Corrupt("DiskANN section runs past the file".into()));
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len.div_ceil(PAGE_SIZE) {
        let page = file.read_page(PageId(start_page + i as u64))?;
        let take = (len - out.len()).min(PAGE_SIZE);
        out.extend_from_slice(&page.bytes()[..take]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vamana::{VamanaConfig, VamanaIndex};
    use vdb_core::dataset;
    use vdb_core::recall::GroundTruth;
    use vdb_core::rng::Rng;
    use vdb_core::vector::Vectors;
    use vdb_storage::TempDir;

    fn setup(cache_pages: usize) -> (TempDir, DiskAnnIndex, Vectors, GroundTruth) {
        let mut rng = Rng::seed_from_u64(70);
        let data = dataset::clustered(1500, 16, 10, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 20, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let vam =
            VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
        let dir = TempDir::new("diskann").unwrap();
        let idx = DiskAnnIndex::build(
            dir.file("d.idx"),
            &vam,
            &DiskAnnConfig {
                pq_m: 8,
                nav_nlist: 64,
                cache_pages,
                ..DiskAnnConfig::default()
            },
        )
        .unwrap();
        (dir, idx, queries, gt)
    }

    #[test]
    fn high_recall_from_disk() {
        let (_d, idx, queries, gt) = setup(256);
        let params = SearchParams::default().with_beam_width(64);
        let results: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        let r = gt.recall_batch(&results);
        assert!(r > 0.9, "recall {r}");
    }

    #[test]
    fn io_per_query_close_to_beam_width() {
        let (_d, idx, queries, _) = setup(0); // cache disabled: count raw reads
        let params = SearchParams::default().with_beam_width(32);
        idx.cache().reset_stats();
        let nq = queries.len() as u64;
        for q in queries.iter() {
            idx.search(q, 10, &params).unwrap();
        }
        let reads = idx.cache().stats().misses;
        let per_query = reads as f64 / nq as f64;
        assert!(
            per_query < 100.0,
            "page reads per query should be bounded near the beam width, got {per_query}"
        );
        assert!(
            per_query >= 16.0,
            "a real traversal reads many nodes, got {per_query}"
        );
    }

    #[test]
    fn warm_cache_eliminates_most_io() {
        let (_d, idx, queries, _) = setup(100_000);
        let params = SearchParams::default().with_beam_width(32);
        for q in queries.iter() {
            idx.search(q, 10, &params).unwrap();
        }
        idx.cache().reset_stats();
        for q in queries.iter() {
            idx.search(q, 10, &params).unwrap();
        }
        assert!(idx.cache().stats().hit_ratio() > 0.95);
    }

    #[test]
    fn packed_and_identity_layouts_return_identical_results() {
        let mut rng = Rng::seed_from_u64(73);
        let data = dataset::clustered(800, 16, 8, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 10, 0.05, &mut rng);
        let vam =
            VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
        let dir = TempDir::new("diskann-layout").unwrap();
        let mut cfg = DiskAnnConfig {
            packed_layout: true,
            ..DiskAnnConfig::default()
        };
        let packed = DiskAnnIndex::build(dir.file("p.idx"), &vam, &cfg).unwrap();
        cfg.packed_layout = false;
        let identity = DiskAnnIndex::build(dir.file("i.idx"), &vam, &cfg).unwrap();
        assert_eq!(packed.layout_version(), 1);
        assert_eq!(identity.layout_version(), 0);
        let params = SearchParams::default().with_beam_width(48);
        for q in queries.iter() {
            assert_eq!(
                packed.search(q, 10, &params).unwrap(),
                identity.search(q, 10, &params).unwrap()
            );
        }
    }

    #[test]
    fn entry_region_is_pinned() {
        let (_d, idx, _, _) = setup(64);
        assert!(idx.cache().pinned_pages() > 0);
        assert_eq!(
            idx.cache().stats().pinned_pages as usize,
            idx.cache().pinned_pages()
        );
    }

    #[test]
    fn reopen_matches_built() {
        let mut rng = Rng::seed_from_u64(71);
        let data = dataset::clustered(500, 8, 6, 0.4, &mut rng).vectors;
        let vam =
            VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap();
        let dir = TempDir::new("diskann-reopen").unwrap();
        let path = dir.file("r.idx");
        let built = DiskAnnIndex::build(&path, &vam, &DiskAnnConfig::default()).unwrap();
        let params = SearchParams::default().with_beam_width(32);
        let q = data.get(7);
        let before = built.search(q, 5, &params).unwrap();
        drop(built);
        let reopened = DiskAnnIndex::open(&path, Metric::Euclidean, 64).unwrap();
        assert_eq!(reopened.len(), 500);
        let after = reopened.search(q, 5, &params).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn memory_footprint_is_codes_not_vectors() {
        let (_d, idx, _, _) = setup(64);
        // 8 bytes of PQ code + 4 of slot map + 4 of node term per vector
        // vs 64 bytes of raw vector.
        assert_eq!(idx.memory_bytes_per_vector(), 16);
        // The only per-index state is the codebooks: no per-cluster table
        // of residual ADC terms.
        assert_eq!(
            idx.stats().memory_bytes,
            idx.len() * 16 + idx.pq.memory_bytes()
        );
    }

    #[test]
    fn precomputed_navigation_matches_residual_adc() {
        for (dim, pq_m) in [(8, 4), (12, 4), (64, 8)] {
            let mut rng = Rng::seed_from_u64(74 + dim as u64);
            let data = dataset::clustered(600, dim, 8, 0.5, &mut rng).vectors;
            let queries = dataset::split_queries(&data, 20, 0.05, &mut rng);
            let vam = VamanaIndex::build(data, Metric::Euclidean, VamanaConfig::default()).unwrap();
            let dir = TempDir::new("diskann-nav").unwrap();
            let cfg = DiskAnnConfig {
                pq_m,
                nav_nlist: 16,
                ..DiskAnnConfig::default()
            };
            let idx = DiskAnnIndex::build(dir.file("n.idx"), &vam, &cfg).unwrap();
            let m = idx.pq.code_len();
            let nodes: Vec<u32> = (0..idx.n as u32).collect();
            let mut nav = NavQuery::default();
            let mut got = Vec::new();
            let mut residual = vec![0.0f32; dim];
            for q in queries.iter() {
                nav.begin(&idx, q).unwrap();
                nav.score(&idx, &nodes, &mut got);
                for (u, &got) in got.iter().enumerate() {
                    let c = idx.nav_assign[u] as usize;
                    let code = &idx.codes[u * m..(u + 1) * m];
                    for ((r, &x), &y) in residual.iter_mut().zip(q).zip(idx.nav_centroids.get(c)) {
                        *r = x - y;
                    }
                    let want = idx.pq.adc_table(&residual).unwrap().distance(code);
                    assert!(
                        (got - want).abs() <= (1e-4 * want.abs()).max(1e-5),
                        "dim {dim}, node {u}: precomputed {got} vs direct {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn node_terms_at_open_equal_those_at_build() {
        let mut rng = Rng::seed_from_u64(75);
        let data = dataset::clustered(700, 32, 8, 0.5, &mut rng).vectors;
        let vam = VamanaIndex::build(data, Metric::Euclidean, VamanaConfig::default()).unwrap();
        let dir = TempDir::new("diskann-terms").unwrap();
        let path = dir.file("t.idx");
        let built = DiskAnnIndex::build(&path, &vam, &DiskAnnConfig::default()).unwrap();
        let at_build: Vec<u32> = built.node_terms.iter().map(|t| t.to_bits()).collect();
        drop(built);
        let reopened = DiskAnnIndex::open(&path, Metric::Euclidean, 64).unwrap();
        let at_open: Vec<u32> = reopened.node_terms.iter().map(|t| t.to_bits()).collect();
        assert_eq!(at_build.len(), 700);
        assert_eq!(at_build, at_open);
        // Each term is `Σ_s ‖r_s‖² + 2⟨c_s, r_s⟩` through `kernel::dot`,
        // summed in subspace order.
        let (m, ksub, pq) = (reopened.pq.code_len(), reopened.pq.ksub(), &reopened.pq);
        let dsub = 32 / m;
        for (u, &t) in reopened.node_terms.iter().enumerate() {
            let cent = reopened.nav_centroids.get(reopened.nav_assign[u] as usize);
            let code = &reopened.codes[u * m..(u + 1) * m];
            let want = code.iter().enumerate().fold(0.0f32, |acc, (s, &j)| {
                let w = s * ksub + j as usize;
                let r = &pq.codebooks()[w * dsub..(w + 1) * dsub];
                acc + (kernel::dot(r, r) + 2.0 * kernel::dot(&cent[s * dsub..(s + 1) * dsub], r))
            });
            assert_eq!(t.to_bits(), want.to_bits(), "node {u}");
        }
    }

    #[test]
    fn filtered_search_respects_predicate() {
        let (_d, idx, queries, _) = setup(256);
        let filter = |id: usize| id.is_multiple_of(2);
        let params = SearchParams::default().with_beam_width(64);
        let hits = idx
            .search_filtered(queries.get(0), 5, &params, &filter)
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|n| n.id % 2 == 0));
    }

    #[test]
    fn corrupt_file_detected() {
        let dir = TempDir::new("diskann-bad").unwrap();
        let path = dir.file("bad.idx");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(matches!(
            DiskAnnIndex::open(&path, Metric::Euclidean, 4),
            Err(Error::Corrupt(_))
        ));
    }
}
