//! Hierarchical navigable small world graphs (Malkov & Yashunin; §2.2(3)).
//!
//! Each node draws a maximum layer from an exponentially decaying
//! distribution; upper layers form progressively sparser graphs that act
//! as an express network. A query greedily descends from the top layer to
//! layer 1, then runs a beam search on the dense bottom layer. Neighbor
//! sets are chosen with the robust-prune heuristic (α = 1) to avoid the
//! degree explosion of a flat NSW. Rows join in the batches of
//! [`batch_schedule`] through [`insert_batch`], layer by layer; a single
//! online insert is a batch of one.

use crate::graph::{
    batch_schedule, beam_search, beam_search_filtered, insert_batch, prune_overfull, robust_prune,
    AdjacencyList,
};
use std::ops::Range;
use vdb_core::codec::{self, Reader};
use vdb_core::context::SearchContext;
use vdb_core::error::{Error, Result};
use vdb_core::index::{
    check_query, IndexStats, MutableIndex, RowFilter, SearchParams, VectorIndex,
};
use vdb_core::metric::Metric;
use vdb_core::parallel::BuildOptions;
use vdb_core::rng::Rng;
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;

/// Build-time configuration.
#[derive(Debug, Clone)]
pub struct HnswConfig {
    /// Target degree on upper layers (layer 0 allows `2m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Level multiplier; the canonical choice `1/ln(m)` is used when None.
    pub level_mult: Option<f64>,
    /// RNG seed for level draws.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 128,
            level_mult: None,
            seed: 0x9A75,
        }
    }
}

/// The HNSW index.
pub struct HnswIndex {
    vectors: Vectors,
    metric: Metric,
    cfg: HnswConfig,
    mult: f64,
    /// `layers[l]` holds the adjacency of layer `l` (same node id space).
    layers: Vec<AdjacencyList>,
    /// Maximum layer of each node.
    levels: Vec<usize>,
    /// Highest-layer node, the global entry point.
    entry: usize,
    rng: Rng,
    /// Tombstones: deleted nodes keep their out-edges (so stray in-edges
    /// still route through them) but never appear in results.
    deleted: Vec<bool>,
    removed: usize,
    removed_since_repair: usize,
}

/// Minimum tombstone count before a local re-prune pass fires.
const REPAIR_MIN: usize = 32;

/// Image ([`VectorIndex::image`]) magic, "HNSW" little-endian.
const IMAGE_MAGIC: u32 = u32::from_le_bytes(*b"HNSW");
/// Image format version. Layout, all little-endian:
///
/// ```text
/// magic u32, version u32, rows u64, dim u32, layers u32
/// per layer: offsets u32 × (rows + 1), then neighbours u32 × offsets[rows]
/// levels u32 × rows, entry u64, removed_since_repair u64
/// tombstone bitmap, ceil(rows / 8) bytes (bit i of byte i / 8 = row i)
/// ```
const IMAGE_VERSION: u32 = 1;

/// Live-rows-only view for tombstone traversal: the filtered beam still
/// *visits* deleted nodes (they route) but never admits them to the
/// result pool; an optional caller filter composes on top.
struct LiveFilter<'a> {
    deleted: &'a [bool],
    inner: Option<&'a dyn RowFilter>,
}

impl RowFilter for LiveFilter<'_> {
    fn accept(&self, id: usize) -> bool {
        !self.deleted[id] && self.inner.is_none_or(|f| f.accept(id))
    }
    fn selectivity_hint(&self) -> Option<f64> {
        self.inner.and_then(|f| f.selectivity_hint())
    }
}

impl HnswIndex {
    /// Create an empty index.
    pub fn new(dim: usize, metric: Metric, cfg: HnswConfig) -> Result<Self> {
        if cfg.m == 0 {
            return Err(Error::InvalidParameter("m must be positive".into()));
        }
        metric.validate(dim)?;
        let mult = cfg.level_mult.unwrap_or(1.0 / (cfg.m as f64).ln().max(0.1));
        let rng = Rng::seed_from_u64(cfg.seed);
        Ok(HnswIndex {
            vectors: Vectors::new(dim),
            metric,
            cfg,
            mult,
            layers: vec![AdjacencyList::default()],
            levels: Vec::new(),
            entry: 0,
            rng,
            deleted: Vec::new(),
            removed: 0,
            removed_since_repair: 0,
        })
    }

    /// Build on one thread.
    pub fn build(vectors: Vectors, metric: Metric, cfg: HnswConfig) -> Result<Self> {
        Self::build_with(vectors, metric, cfg, &BuildOptions::serial())
    }

    /// Build by inserting every row in the batches of [`batch_schedule`],
    /// each searched by `opts.threads` workers. Levels are drawn once per
    /// row in row order, as online inserts draw them, and the schedule
    /// depends on the row count alone, so the graph is the same at any
    /// thread count.
    pub fn build_with(
        vectors: Vectors,
        metric: Metric,
        cfg: HnswConfig,
        opts: &BuildOptions,
    ) -> Result<Self> {
        let mut idx = HnswIndex::new(vectors.dim(), metric, cfg)?;
        let n = vectors.len();
        idx.vectors = vectors;
        idx.add_nodes();
        for batch in batch_schedule(n) {
            idx.link(batch, opts.threads);
        }
        for layer in &mut idx.layers {
            layer.compact();
        }
        Ok(idx)
    }

    /// Reload an index from its [`VectorIndex::image`] over the same
    /// `vectors`, with no distance computations. The level generator is
    /// re-derived by replaying one draw per row from `cfg.seed`, so the
    /// stored levels are checked against it and later inserts draw
    /// exactly what they would have drawn in the process that built the
    /// graph. Any damage, version or shape mismatch is
    /// [`Error::Corrupt`]; nothing is trusted without a bounds check.
    pub fn from_image(
        image: &[u8],
        vectors: Vectors,
        metric: Metric,
        cfg: HnswConfig,
    ) -> Result<Self> {
        let corrupt = |what: &str| Error::Corrupt(format!("hnsw image {what}"));
        let mut r = Reader::new(image);
        if r.u32()? != IMAGE_MAGIC {
            return Err(corrupt("has bad magic"));
        }
        let version = r.u32()?;
        if version != IMAGE_VERSION {
            return Err(corrupt(&format!("version {version} is not supported")));
        }
        let n = r.u64()? as usize;
        let dim = r.u32()? as usize;
        if n != vectors.len() || dim != vectors.dim() {
            return Err(corrupt("does not describe these vectors"));
        }
        let n_layers = r.u32()? as usize;
        if n_layers == 0 {
            return Err(corrupt("has no layers"));
        }
        let mut idx = HnswIndex::new(dim, metric, cfg)?;
        let mut layers = Vec::new();
        for _ in 0..n_layers {
            let offsets = r.u32s(n + 1)?;
            if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(corrupt("has unordered offsets"));
            }
            let flat = r.u32s(offsets[n] as usize)?;
            if flat.iter().any(|&v| v as usize >= n) {
                return Err(corrupt("has a neighbour out of range"));
            }
            let lists = offsets
                .windows(2)
                .map(|w| flat[w[0] as usize..w[1] as usize].to_vec())
                .collect();
            layers.push(AdjacencyList::from_lists(lists));
        }
        let levels = r.u32s(n)?;
        let entry = r.u64()? as usize;
        let removed_since_repair = r.u64()? as usize;
        let bitmap = r.take(n.div_ceil(8))?;
        if !r.is_empty() {
            return Err(corrupt("has trailing bytes"));
        }
        if n > 0 && entry >= n {
            return Err(corrupt("has its entry out of range"));
        }
        idx.levels = Vec::with_capacity(n);
        for &level in &levels {
            let level = level as usize;
            if level >= n_layers || level != idx.rng.hnsw_level(idx.mult) {
                return Err(corrupt("levels differ from the seeded draws"));
            }
            idx.levels.push(level);
        }
        idx.deleted = (0..n).map(|i| bitmap[i / 8] >> (i % 8) & 1 == 1).collect();
        idx.removed = idx.deleted.iter().filter(|&&d| d).count();
        idx.removed_since_repair = removed_since_repair;
        idx.layers = layers;
        idx.entry = entry;
        idx.vectors = vectors;
        Ok(idx)
    }

    /// Number of layers currently in use.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer adjacency (diagnostics / ablations).
    pub fn layer(&self, l: usize) -> &AdjacencyList {
        &self.layers[l]
    }

    /// The bottom-layer entry for `query`: greedy descent from the entry
    /// point through every upper layer.
    fn bottom_entry(&self, query: &[f32]) -> usize {
        let top = self.levels[self.entry];
        descend(
            &self.layers,
            &self.vectors,
            &self.metric,
            self.entry,
            query,
            top,
            0,
        )
    }

    /// Re-prune every list of `nodes` on `layer` that is over its cap.
    fn shrink(&mut self, layer: usize, nodes: &[usize]) {
        let cap = max_degree(self.cfg.m, layer);
        let (vectors, metric) = (&self.vectors, &self.metric);
        prune_overfull(&mut self.layers[layer], vectors, metric, nodes, 1.0, cap, 1);
    }

    /// Give every row of `vectors` that has no node yet a level (one draw
    /// per row, in row order) and an empty node on every layer.
    fn add_nodes(&mut self) {
        let n = self.vectors.len();
        for _ in self.levels.len()..n {
            let level = self.rng.hnsw_level(self.mult);
            while self.layers.len() <= level {
                self.layers.push(AdjacencyList::default());
            }
            self.levels.push(level);
            self.deleted.push(false);
        }
        for layer in &mut self.layers {
            while layer.len() < n {
                layer.push_node();
            }
        }
    }

    /// Link the batch `rows` (nodes already added) through
    /// [`insert_batch`]: each row descends from the batch-start entry to
    /// its level, then beam-searches and robust-prunes to `m` on every
    /// layer from there down; then the entry moves to the first row of a
    /// new top level, or off a tombstone, exactly as one-by-one inserts
    /// would move it.
    fn link(&mut self, rows: Range<usize>, threads: usize) {
        let HnswIndex {
            vectors,
            metric,
            cfg,
            layers,
            levels,
            entry,
            deleted,
            removed,
            ..
        } = self;
        if rows.start > 0 {
            let (start, top, efc, m) = (*entry, levels[*entry], cfg.ef_construction, cfg.m);
            let (levels, deleted, removed) = (&*levels, &*deleted, *removed);
            let batch: Vec<usize> = rows.clone().collect();
            let search = |graph: &[AdjacencyList], row: usize, ctx: &mut SearchContext| {
                let q = vectors.get(row);
                let level = levels[row].min(top);
                let mut cur = descend(graph, vectors, metric, start, q, top, level);
                let mut out = vec![Vec::new(); level + 1];
                for l in (0..=level).rev() {
                    let mut found =
                        beam_search(&graph[l], vectors, metric, q, &[cur], efc, efc, ctx, None);
                    if let Some(best) = found.first() {
                        cur = best.id;
                    }
                    if removed > 0 {
                        // Connect only to live nodes; tombstones just route.
                        found.retain(|n| !deleted[n.id]);
                    }
                    out[l] = robust_prune(vectors, metric, row, found, 1.0, m);
                }
                out
            };
            let cap = |l| max_degree(m, l);
            insert_batch(layers, vectors, metric, &batch, 1.0, cap, threads, search);
        }
        for row in rows {
            if row == 0 || levels[row] > levels[*entry] || deleted[*entry] {
                *entry = row;
            }
        }
    }

    /// Number of tombstoned nodes.
    pub fn removed(&self) -> usize {
        self.removed
    }

    /// Re-point `entry` at the highest-level live node (after the old
    /// entry was tombstoned). Leaves `entry` untouched when no live
    /// node remains — searches bail out on `live() == 0` before use.
    fn promote_entry(&mut self) {
        let mut best: Option<(usize, usize)> = None;
        for (i, &lv) in self.levels.iter().enumerate() {
            if !self.deleted[i] && best.is_none_or(|(_, bl)| lv > bl) {
                best = Some((i, lv));
            }
        }
        if let Some((i, _)) = best {
            self.entry = i;
        }
    }

    /// Local re-pruning pass: rewrite every live node's list that still
    /// points at tombstones, contracting each dead edge through the dead
    /// node's live neighbors (2-hop), then robust-pruning back to the
    /// degree cap. Keeps the live subgraph connected as tombstones
    /// accumulate — the EXPERIMENTS.md §Vamana disconnection lesson.
    pub fn repair(&mut self) {
        for l in 0..self.layers.len() {
            let mut patched_nodes = Vec::new();
            for u in 0..self.layers[l].len() {
                if self.deleted[u] {
                    continue;
                }
                let list: Vec<u32> = self.layers[l].neighbors(u).to_vec();
                if !list.iter().any(|&v| self.deleted[v as usize]) {
                    continue;
                }
                let mut patched: Vec<u32> = Vec::with_capacity(list.len());
                for &v in &list {
                    if self.deleted[v as usize] {
                        for &w in self.layers[l].neighbors(v as usize) {
                            if w as usize != u && !self.deleted[w as usize] && !patched.contains(&w)
                            {
                                patched.push(w);
                            }
                        }
                    } else if !patched.contains(&v) {
                        patched.push(v);
                    }
                }
                self.layers[l].set_neighbors(u, patched);
                patched_nodes.push(u);
            }
            self.shrink(l, &patched_nodes);
        }
        self.removed_since_repair = 0;
    }
}

impl VectorIndex for HnswIndex {
    fn name(&self) -> &'static str {
        "hnsw"
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }

    fn dim(&self) -> usize {
        self.vectors.dim()
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
        check_query(self.dim(), query)?;
        if k == 0 || self.vectors.is_empty() || self.live() == 0 {
            return Ok(Vec::new());
        }
        let entry = self.bottom_entry(query);
        if self.removed > 0 {
            // Tombstone traversal: deleted nodes route, never surface.
            let live = LiveFilter {
                deleted: &self.deleted,
                inner: None,
            };
            return Ok(beam_search_filtered(
                &self.layers[0],
                &self.vectors,
                &self.metric,
                query,
                &[entry],
                k,
                params.beam_width,
                ctx,
                &live,
                params.beam_width * 16,
                None,
            ));
        }
        Ok(beam_search(
            &self.layers[0],
            &self.vectors,
            &self.metric,
            query,
            &[entry],
            k,
            params.beam_width,
            ctx,
            None,
        ))
    }

    /// Visit-first scan (§2.3(2)): the bottom-layer beam traverses blocked
    /// nodes but only accepts passing ones; the expansion cap bounds
    /// backtracking under highly selective predicates.
    fn search_filtered_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        if k == 0 || self.vectors.is_empty() || self.live() == 0 {
            return Ok(Vec::new());
        }
        let entry = self.bottom_entry(query);
        // Budget scales inversely with selectivity when known.
        let cap = match filter.selectivity_hint() {
            Some(s) if s > 0.0 => {
                ((params.beam_width as f64 * (1.0 / s).min(64.0)) as usize).max(params.beam_width)
            }
            _ => params.beam_width * 16,
        };
        let live = LiveFilter {
            deleted: &self.deleted,
            inner: Some(filter),
        };
        Ok(beam_search_filtered(
            &self.layers[0],
            &self.vectors,
            &self.metric,
            query,
            &[entry],
            k,
            params.beam_width,
            ctx,
            if self.removed > 0 { &live } else { filter },
            cap,
            None,
        ))
    }

    /// Block-first scan on the bottom layer: blocked nodes are masked from
    /// traversal entirely. Fast, but online blocking can disconnect the
    /// layer — recall degrades at low selectivity (the §2.3 trade-off).
    fn search_blocked_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        if k == 0 || self.vectors.is_empty() || self.live() == 0 {
            return Ok(Vec::new());
        }
        let entry = self.bottom_entry(query);
        let live = LiveFilter {
            deleted: &self.deleted,
            inner: Some(filter),
        };
        Ok(crate::graph::beam_search_blocked(
            &self.layers[0],
            &self.vectors,
            &self.metric,
            query,
            &[entry],
            k,
            params.beam_width,
            ctx,
            if self.removed > 0 { &live } else { filter },
            None,
        ))
    }

    fn stats(&self) -> IndexStats {
        let edges: usize = self.layers.iter().map(AdjacencyList::edge_count).sum();
        let bytes: usize = self.layers.iter().map(AdjacencyList::memory_bytes).sum();
        IndexStats {
            memory_bytes: bytes + self.levels.len() * 8,
            structure_entries: edges,
            detail: format!(
                "m={} layers={} mean_degree0={:.1} removed={}",
                self.cfg.m,
                self.layers.len(),
                self.layers[0].mean_degree(),
                self.removed
            ),
        }
    }

    /// The graph as a versioned image (see [`IMAGE_VERSION`]);
    /// [`HnswIndex::from_image`] reloads it. `None` only if a layer holds
    /// more than `u32::MAX` edges.
    fn image(&self) -> Option<Vec<u8>> {
        let n = self.len();
        let edges: usize = self.layers.iter().map(AdjacencyList::edge_count).sum();
        let mut out =
            Vec::with_capacity(32 + 4 * (self.layers.len() * (n + 1) + edges + n) + n / 8 + 1);
        codec::put_u32(&mut out, IMAGE_MAGIC);
        codec::put_u32(&mut out, IMAGE_VERSION);
        codec::put_u64(&mut out, n as u64);
        codec::put_u32(&mut out, self.dim() as u32);
        codec::put_u32(&mut out, self.layers.len() as u32);
        for layer in &self.layers {
            let mut offset = 0u32;
            codec::put_u32(&mut out, offset);
            for u in 0..n {
                offset = offset.checked_add(u32::try_from(layer.neighbors(u).len()).ok()?)?;
                codec::put_u32(&mut out, offset);
            }
            for u in 0..n {
                for &v in layer.neighbors(u) {
                    codec::put_u32(&mut out, v);
                }
            }
        }
        for &level in &self.levels {
            codec::put_u32(&mut out, level as u32);
        }
        codec::put_u64(&mut out, self.entry as u64);
        codec::put_u64(&mut out, self.removed_since_repair as u64);
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        for (i, _) in self.deleted.iter().enumerate().filter(|(_, &d)| d) {
            bitmap[i / 8] |= 1 << (i % 8);
        }
        out.extend_from_slice(&bitmap);
        Some(out)
    }

    fn as_mutable(&mut self) -> Option<&mut dyn MutableIndex> {
        Some(self)
    }
}

impl MutableIndex for HnswIndex {
    fn insert(&mut self, vector: &[f32]) -> Result<usize> {
        let row = self.vectors.push(vector)?;
        self.add_nodes();
        self.link(row..row + 1, 1);
        Ok(row)
    }

    fn remove(&mut self, id: usize) -> Result<bool> {
        if id >= self.vectors.len() {
            return Err(Error::NotFound(format!("hnsw row {id} out of range")));
        }
        if self.deleted[id] {
            return Ok(false);
        }
        self.deleted[id] = true;
        self.removed += 1;
        self.removed_since_repair += 1;
        // Patch: re-wire every symmetric in-neighbor of the tombstone to
        // the tombstone's remaining live neighbors (path contraction),
        // then re-prune it to the degree cap. The tombstone keeps its own
        // out-edges so asymmetric in-edges still route through it.
        for l in 0..=self.levels[id].min(self.layers.len() - 1) {
            let mut patched_nodes = Vec::new();
            let nbrs: Vec<u32> = self.layers[l].neighbors(id).to_vec();
            let live: Vec<u32> = nbrs
                .iter()
                .copied()
                .filter(|&v| !self.deleted[v as usize])
                .collect();
            for &u in &nbrs {
                let u = u as usize;
                if self.deleted[u] {
                    continue;
                }
                let list: Vec<u32> = self.layers[l].neighbors(u).to_vec();
                if !list.contains(&(id as u32)) {
                    continue;
                }
                let mut patched: Vec<u32> = list.into_iter().filter(|&v| v != id as u32).collect();
                for &w in &live {
                    if w as usize != u && !patched.contains(&w) {
                        patched.push(w);
                    }
                }
                self.layers[l].set_neighbors(u, patched);
                patched_nodes.push(u);
            }
            self.shrink(l, &patched_nodes);
        }
        if id == self.entry {
            self.promote_entry();
        }
        if self.removed_since_repair >= REPAIR_MIN.max(self.live() / 50) {
            self.repair();
        }
        Ok(true)
    }

    fn live(&self) -> usize {
        self.vectors.len() - self.removed
    }
}

/// Degree cap of `layer`: `2m` on the bottom layer, `m` above it.
fn max_degree(m: usize, layer: usize) -> usize {
    if layer == 0 {
        m * 2
    } else {
        m
    }
}

/// Greedy descent from `entry` through layers `from_layer` down to
/// `to_layer + 1`, returning the entry for `to_layer`.
fn descend(
    layers: &[AdjacencyList],
    vectors: &Vectors,
    metric: &Metric,
    entry: usize,
    query: &[f32],
    from_layer: usize,
    to_layer: usize,
) -> usize {
    let mut cur = entry;
    let mut cur_d = metric.distance(query, vectors.get(cur));
    for l in (to_layer + 1..=from_layer).rev() {
        loop {
            let mut improved = false;
            for &nb in layers[l].neighbors(cur) {
                let d = metric.distance(query, vectors.get(nb as usize));
                if d < cur_d {
                    cur_d = d;
                    cur = nb as usize;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    cur
}

impl std::fmt::Debug for HnswIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HnswIndex(n={}, m={}, layers={})",
            self.len(),
            self.cfg.m,
            self.layers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::recall::GroundTruth;

    fn setup(n: usize) -> (HnswIndex, Vectors, GroundTruth) {
        let mut rng = Rng::seed_from_u64(30);
        let data = dataset::clustered(n, 16, 10, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 25, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        let idx = HnswIndex::build(data, Metric::Euclidean, HnswConfig::default()).unwrap();
        (idx, queries, gt)
    }

    #[test]
    fn high_recall_on_clusters() {
        let (idx, queries, gt) = setup(3000);
        let params = SearchParams::default().with_beam_width(64);
        let results: Vec<_> = queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect();
        let r = gt.recall_batch(&results);
        assert!(r > 0.95, "recall {r}");
    }

    #[test]
    fn multiple_layers_form() {
        let (idx, _, _) = setup(3000);
        assert!(idx.num_layers() >= 2, "3000 nodes should produce >1 layer");
        // Upper layers are sparser.
        assert!(idx.layer(1).edge_count() < idx.layer(0).edge_count());
    }

    #[test]
    fn bottom_layer_connected() {
        let (idx, _, _) = setup(1500);
        assert_eq!(idx.layer(0).reachable_from(idx.entry), 1500);
    }

    #[test]
    fn degree_caps_respected() {
        let (idx, _, _) = setup(1500);
        for u in 0..idx.len() {
            assert!(idx.layer(0).neighbors(u).len() <= 32, "layer0 cap 2m");
            if idx.num_layers() > 1 {
                assert!(idx.layer(1).neighbors(u).len() <= 16, "upper cap m");
            }
        }
    }

    #[test]
    fn recall_improves_with_beam_width() {
        let (idx, queries, gt) = setup(2000);
        let r = |ef: usize| {
            let params = SearchParams::default().with_beam_width(ef);
            let results: Vec<_> = queries
                .iter()
                .map(|q| idx.search(q, 10, &params).unwrap())
                .collect();
            gt.recall_batch(&results)
        };
        let lo = r(10);
        let hi = r(128);
        assert!(hi >= lo);
        assert!(hi > 0.95);
    }

    #[test]
    fn filtered_search_visit_first() {
        let (idx, queries, _) = setup(2000);
        let filter = |id: usize| id.is_multiple_of(10); // 10% selectivity
        let params = SearchParams::default().with_beam_width(64);
        for q in queries.iter().take(10) {
            let hits = idx.search_filtered(q, 5, &params, &filter).unwrap();
            assert!(hits.iter().all(|n| n.id % 10 == 0));
            assert!(!hits.is_empty(), "visit-first should find matches");
        }
    }

    #[test]
    fn insert_after_build_is_searchable() {
        let (mut idx, _, _) = setup(500);
        let v = vec![99.0f32; 16];
        let row = MutableIndex::insert(&mut idx, &v).unwrap();
        let hits = idx.search(&v, 1, &SearchParams::default()).unwrap();
        assert_eq!(hits[0].id, row);
    }

    #[test]
    fn removed_nodes_route_but_never_surface() {
        let (mut idx, queries, _) = setup(1000);
        for id in (0..1000).step_by(3) {
            assert!(MutableIndex::remove(&mut idx, id).unwrap());
        }
        assert!(!MutableIndex::remove(&mut idx, 0).unwrap(), "idempotent");
        assert_eq!(idx.live(), 1000 - 334);
        let params = SearchParams::default().with_beam_width(64);
        for q in queries.iter() {
            let hits = idx.search(q, 10, &params).unwrap();
            assert_eq!(hits.len(), 10);
            assert!(hits.iter().all(|n| n.id % 3 != 0), "tombstone surfaced");
        }
        // Live self-queries still find themselves: the patched graph
        // stays navigable after repair passes.
        for id in (1..1000).step_by(97) {
            if id % 3 == 0 {
                continue;
            }
            let v = idx.vectors.get(id).to_vec();
            let hits = idx.search(&v, 1, &params).unwrap();
            assert_eq!(hits[0].id, id, "self-query lost node {id}");
        }
        // Filtered search composes the caller filter with liveness.
        let f = |id: usize| id.is_multiple_of(2);
        for q in queries.iter().take(5) {
            let hits = idx.search_filtered(q, 5, &params, &f).unwrap();
            assert!(hits.iter().all(|n| n.id % 2 == 0 && n.id % 3 != 0));
        }
    }

    #[test]
    fn removing_entry_promotes_live_node() {
        let (mut idx, _, _) = setup(300);
        let old_entry = idx.entry;
        assert!(MutableIndex::remove(&mut idx, old_entry).unwrap());
        assert_ne!(idx.entry, old_entry);
        assert!(!idx.deleted[idx.entry]);
        let v = idx.vectors.get(1).to_vec();
        let hits = idx.search(&v, 1, &SearchParams::default()).unwrap();
        assert!(hits[0].id != old_entry);
    }

    #[test]
    fn insert_after_remove_reconnects() {
        let (mut idx, _, _) = setup(400);
        for id in 0..100 {
            MutableIndex::remove(&mut idx, id).unwrap();
        }
        let v = vec![7.0f32; 16];
        let row = MutableIndex::insert(&mut idx, &v).unwrap();
        assert_eq!(row, 400);
        let hits = idx.search(&v, 1, &SearchParams::default()).unwrap();
        assert_eq!(hits[0].id, row);
        // New node connected only to live neighbors.
        for &nb in idx.layer(0).neighbors(row) {
            assert!(!idx.deleted[nb as usize]);
        }
    }

    #[test]
    fn deterministic_builds() {
        let mut rng = Rng::seed_from_u64(31);
        let data = dataset::gaussian(400, 8, &mut rng);
        let a = HnswIndex::build(data.clone(), Metric::Euclidean, HnswConfig::default()).unwrap();
        let b = HnswIndex::build(data, Metric::Euclidean, HnswConfig::default()).unwrap();
        assert_eq!(a.num_layers(), b.num_layers());
        for u in 0..a.len() {
            assert_eq!(a.layer(0).neighbors(u), b.layer(0).neighbors(u));
        }
    }

    fn reload(idx: &HnswIndex) -> HnswIndex {
        HnswIndex::from_image(
            &idx.image().expect("hnsw has an image"),
            idx.vectors.clone(),
            Metric::Euclidean,
            HnswConfig::default(),
        )
        .unwrap()
    }

    fn answers(idx: &HnswIndex, queries: &Vectors) -> Vec<Vec<Neighbor>> {
        let params = SearchParams::default().with_beam_width(16);
        queries
            .iter()
            .map(|q| idx.search(q, 10, &params).unwrap())
            .collect()
    }

    #[test]
    fn image_reloads_the_same_graph() {
        let (mut idx, queries, _) = setup(800);
        for id in (0..800).step_by(7) {
            MutableIndex::remove(&mut idx, id).unwrap();
        }
        let back = reload(&idx);
        assert_eq!(back.image(), idx.image(), "re-encoding is byte-identical");
        assert_eq!(back.entry, idx.entry);
        assert_eq!(back.removed, idx.removed);
        assert_eq!(back.deleted, idx.deleted);
        let bits = |r: Vec<Vec<Neighbor>>| -> Vec<Vec<(usize, u32)>> {
            r.into_iter()
                .map(|hits| hits.iter().map(|h| (h.id, h.dist.to_bits())).collect())
                .collect()
        };
        assert_eq!(
            bits(answers(&back, &queries)),
            bits(answers(&idx, &queries))
        );
    }

    #[test]
    fn inserts_after_reload_match_inserts_without_it() {
        let mut rng = Rng::seed_from_u64(32);
        let data = dataset::gaussian(600, 8, &mut rng);
        let extra = dataset::gaussian(60, 8, &mut rng);
        let mut live = HnswIndex::build(data, Metric::Euclidean, HnswConfig::default()).unwrap();
        let mut back = reload(&live);
        for v in extra.iter() {
            MutableIndex::insert(&mut live, v).unwrap();
            MutableIndex::insert(&mut back, v).unwrap();
        }
        assert_eq!(back.levels, live.levels, "level generator re-derived");
        assert_eq!(back.image(), live.image());
    }

    #[test]
    fn damaged_images_are_rejected() {
        let (idx, _, _) = setup(120);
        let image = idx.image().unwrap();
        let load = |bytes: &[u8], vectors: Vectors| {
            HnswIndex::from_image(bytes, vectors, Metric::Euclidean, HnswConfig::default())
        };
        let corrupt = |r: Result<HnswIndex>| matches!(r, Err(Error::Corrupt(_)));
        for cut in 0..image.len() {
            assert!(
                corrupt(load(&image[..cut], idx.vectors.clone())),
                "cut {cut}"
            );
        }
        let mut extra = image.clone();
        extra.push(0);
        assert!(corrupt(load(&extra, idx.vectors.clone())), "trailing byte");
        let mut version = image.clone();
        version[4] = 99;
        assert!(
            corrupt(load(&version, idx.vectors.clone())),
            "unknown version"
        );
        // First neighbour of layer 0 sits after the header and offsets.
        let first_edge = 24 + 4 * (idx.len() + 1);
        let mut out_of_range = image.clone();
        out_of_range[first_edge..first_edge + 4].copy_from_slice(&(idx.len() as u32).to_le_bytes());
        assert!(
            corrupt(load(&out_of_range, idx.vectors.clone())),
            "neighbour id"
        );
        let mut fewer = Vectors::new(16);
        for v in idx.vectors.iter().take(119) {
            fewer.push(v).unwrap();
        }
        assert!(corrupt(load(&image, fewer)), "row count");
        let other_seed = HnswConfig {
            seed: 7,
            ..HnswConfig::default()
        };
        assert!(corrupt(HnswIndex::from_image(
            &image,
            idx.vectors.clone(),
            Metric::Euclidean,
            other_seed
        )));
    }

    #[test]
    fn rejects_bad_config_and_queries() {
        assert!(HnswIndex::new(
            4,
            Metric::Euclidean,
            HnswConfig {
                m: 0,
                ..Default::default()
            }
        )
        .is_err());
        let (idx, _, _) = setup(100);
        assert!(idx.search(&[1.0], 5, &SearchParams::default()).is_err());
    }
}
