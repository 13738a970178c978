//! The IVF family: inverted-file indexes over a k-means coarse quantizer
//! (§2.2(2)–(3)).
//!
//! The collection is bucketed by a k-means coarse quantizer ("learning to
//! hash" via clustering); a query probes the `nprobe` nearest buckets and
//! scans their lists. What a list stores per row is the [`ListCodec`]:
//! raw vectors ([`IvfFlatIndex`]), scalar codes ([`IvfSqIndex`]) or PQ
//! residual codes ([`IvfPqIndex`]). Approximate codecs re-rank their best
//! `max(rerank, k)` candidates against the vectors the index keeps.
//!
//! IVF is also the workspace's reference *block-first* hybrid scanner:
//! filtered rows are skipped during the list scan, so blocked rows never
//! incur a distance computation.

use crate::coarse::{assign_rows, scatter_lists, train_coarse_with, REMOVED};
use crate::codec::{FlatCodec, ListCodec, PqCodec, SqCodec};
use crate::drift::DriftTracker;
use vdb_core::context::SearchContext;
use vdb_core::error::{Error, Result};
use vdb_core::index::{
    check_query, IndexStats, MutableIndex, RowFilter, SearchParams, VectorIndex,
};
use vdb_core::metric::Metric;
use vdb_core::parallel::{clamp_threads, parallel_map_chunks, BuildOptions};
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;
use vdb_quant::KMeans;

/// Build-time configuration of the coarse quantizer.
#[derive(Debug, Clone)]
pub struct IvfConfig {
    /// Number of inverted lists (k-means centroids).
    pub nlist: usize,
    /// k-means iterations for the coarse quantizer.
    pub train_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl IvfConfig {
    /// Default configuration with `nlist` lists.
    pub fn new(nlist: usize) -> Self {
        IvfConfig {
            nlist,
            train_iters: 15,
            seed: 0x1F1F,
        }
    }
}

/// IVF with full-precision vectors in the lists.
pub type IvfFlatIndex = Ivf<FlatCodec>;
/// IVF over scalar-quantized codes.
pub type IvfSqIndex = Ivf<SqCodec>;
/// IVFADC: IVF over product-quantized residuals.
pub type IvfPqIndex = Ivf<PqCodec>;

/// An inverted-file index whose lists store rows as `C` codes.
pub struct Ivf<C: ListCodec> {
    vectors: Vectors,
    metric: Metric,
    coarse: KMeans,
    codec: C,
    /// `lists[c]` = row ids assigned to centroid `c`.
    lists: Vec<Vec<u32>>,
    /// `codes[c]` = the concatenated codes of `lists[c]`, in list order.
    codes: Vec<Vec<u8>>,
    /// Row -> list id; `REMOVED` marks a removed row.
    assigns: Vec<u32>,
    removed: usize,
    drift: DriftTracker,
    reclusters: usize,
}

impl<C: ListCodec> Ivf<C> {
    /// Build over an owned collection (serial, bit-deterministic).
    pub fn build(
        vectors: Vectors,
        metric: Metric,
        cfg: &IvfConfig,
        params: &C::Params,
    ) -> Result<Self> {
        Self::build_with(vectors, metric, cfg, params, &BuildOptions::serial())
    }

    /// Build with explicit [`BuildOptions`]: coarse training, row
    /// assignment, codec training and encoding fan out over threads.
    /// Assignment and encoding are pure per row and the scatter walks rows
    /// in ascending order, so the lists and code blocks are the same at
    /// any thread count.
    pub fn build_with(
        vectors: Vectors,
        metric: Metric,
        cfg: &IvfConfig,
        params: &C::Params,
        opts: &BuildOptions,
    ) -> Result<Self> {
        metric.validate(vectors.dim())?;
        let coarse = train_coarse_with(&vectors, cfg.nlist, cfg.train_iters, cfg.seed, opts)?;
        let assigns = assign_rows(&coarse, &vectors, opts);
        let codec = C::train(&vectors, &coarse, &assigns, params, opts)?;
        // Row-major codes, then gathered into per-list blocks in list
        // order (== ascending row order within each list).
        let cl = codec.code_len();
        let threads = clamp_threads(opts.threads, vectors.len() / 64);
        let flat = parallel_map_chunks(vectors.len(), threads, |_, range| {
            let mut block = vec![0u8; range.len() * cl];
            let mut scratch = C::Scratch::default();
            for (slot, row) in range.enumerate() {
                let centroid = coarse.centroids().get(assigns[row]);
                let out = &mut block[slot * cl..(slot + 1) * cl];
                codec
                    .encode(vectors.get(row), centroid, &mut scratch, out)
                    .expect("row dim matches quantizer dim");
            }
            block
        })
        .concat();
        let lists = scatter_lists(&assigns, coarse.k());
        let codes = lists
            .iter()
            .map(|rows| {
                rows.iter()
                    .flat_map(|&row| &flat[row as usize * cl..(row as usize + 1) * cl])
                    .copied()
                    .collect()
            })
            .collect();
        let drift = DriftTracker::new(&coarse, &lists, vectors.dim());
        Ok(Ivf {
            assigns: assigns.iter().map(|&c| c as u32).collect(),
            vectors,
            metric,
            coarse,
            codec,
            lists,
            codes,
            removed: 0,
            drift,
            reclusters: 0,
        })
    }

    /// Bytes of list code per row (0 for IVF-Flat, which scans vectors).
    pub fn bytes_per_vector(&self) -> usize {
        self.codec.code_len()
    }

    /// Re-cluster list `c` if its appended mass has drifted: recompute
    /// the centroid as the mean of current members and re-home members
    /// that now sit closer to a sibling centroid (drifted lists only —
    /// the targeted alternative to retraining the coarse quantizer).
    /// Residual codes are re-encoded against their (new) home centroid;
    /// other codes move with their row.
    fn maybe_recluster(&mut self, c: usize) {
        if !self.drift.drifted(c, self.coarse.centroids().get(c)) {
            return;
        }
        let members = std::mem::take(&mut self.lists[c]);
        let blocks = std::mem::take(&mut self.codes[c]);
        if members.is_empty() {
            self.drift.reset(c, 0);
            return;
        }
        let mut mean = vec![0.0f32; self.vectors.dim()];
        for &row in &members {
            for (m, &x) in mean.iter_mut().zip(self.vectors.get(row as usize)) {
                *m += x;
            }
        }
        let inv = 1.0 / members.len() as f32;
        for m in &mut mean {
            *m *= inv;
        }
        self.coarse.set_centroid(c, &mean);
        let cl = self.codec.code_len();
        let mut code = vec![0u8; cl];
        let mut scratch = C::Scratch::default();
        let mut kept = 0;
        for (i, &row) in members.iter().enumerate() {
            let v = self.vectors.get(row as usize);
            let c2 = self.coarse.assign(v).0;
            if C::RESIDUAL {
                self.codec
                    .encode(v, self.coarse.centroids().get(c2), &mut scratch, &mut code)
                    .expect("row dim matches quantizer dim");
                self.codes[c2].extend_from_slice(&code);
            } else {
                self.codes[c2].extend_from_slice(&blocks[i * cl..(i + 1) * cl]);
            }
            self.lists[c2].push(row);
            self.assigns[row as usize] = c2 as u32;
            kept += usize::from(c2 == c);
        }
        self.drift.reset(c, kept);
        self.reclusters += 1;
    }

    /// Probe the `nprobe` nearest lists into the context's probe buffer,
    /// score them through the context's result pool, then re-rank the
    /// pool against the vectors unless the codec is exact — no per-query
    /// allocation once the context is warm.
    fn scan(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&dyn RowFilter>,
    ) -> Result<Vec<Neighbor>> {
        check_query(self.dim(), query)?;
        if k == 0 || self.vectors.is_empty() {
            return Ok(Vec::new());
        }
        self.coarse
            .assign_multi_into(query, params.nprobe.max(1), &mut ctx.order, &mut ctx.ids);
        let mut scratch = std::mem::take(ctx.ext::<C::Scratch>());
        let SearchContext {
            ids, dists, pool, ..
        } = ctx;
        pool.reset(if C::EXACT { k } else { params.rerank.max(k) });
        let (codec, metric, vectors) = (&self.codec, &self.metric, &self.vectors);
        let cl = codec.code_len();
        for &c in ids.iter() {
            let c = c as usize;
            codec.prepare(query, self.coarse.centroids().get(c), &mut scratch)?;
            let (rows, codes) = (&self.lists[c], &self.codes[c]);
            match filter {
                // Unfiltered probe: score the whole list in one batched
                // kernel call, then push.
                None => {
                    dists.resize(rows.len(), 0.0);
                    codec.scan(&scratch, metric, query, vectors, rows, codes, dists);
                    for (&row, &d) in rows.iter().zip(dists.iter()) {
                        pool.push(Neighbor::new(row as usize, d));
                    }
                }
                // Filtered probe: evaluate the predicate first so blocked
                // rows are never scored.
                Some(f) => {
                    for (i, &row) in rows.iter().enumerate() {
                        if f.accept(row as usize) {
                            let code = &codes[i * cl..(i + 1) * cl];
                            let d = codec.score(&scratch, metric, query, vectors, row, code);
                            pool.push(Neighbor::new(row as usize, d));
                        }
                    }
                }
            }
        }
        let approx = pool.drain_sorted();
        *ctx.ext::<C::Scratch>() = scratch;
        if C::EXACT {
            return Ok(approx);
        }
        ctx.rerank.reset(k);
        for n in approx {
            let d = metric.distance(query, vectors.get(n.id));
            ctx.rerank.push(Neighbor::new(n.id, d));
        }
        Ok(ctx.rerank.drain_sorted())
    }
}

impl<C: ListCodec> VectorIndex for Ivf<C> {
    fn name(&self) -> &'static str {
        C::NAME
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
        self.scan(ctx, query, k, params, None)
    }

    /// Block-first scan: the filter is consulted *inside* the list scan, so
    /// blocked rows are never scored.
    fn search_filtered_with(
        &self,
        ctx: &mut SearchContext,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &dyn RowFilter,
    ) -> Result<Vec<Neighbor>> {
        self.scan(ctx, query, k, params, Some(filter))
    }

    fn stats(&self) -> IndexStats {
        let code_bytes: usize = self.codes.iter().map(Vec::len).sum();
        let ids: usize = self.lists.iter().map(Vec::len).sum();
        IndexStats {
            memory_bytes: code_bytes
                + ids * 4
                + self.coarse.k() * self.dim() * 4
                + self.codec.memory_bytes(&self.vectors),
            structure_entries: ids,
            detail: format!(
                "nlist={}{} removed={} reclusters={}",
                self.lists.len(),
                self.codec.detail(),
                self.removed,
                self.reclusters
            ),
        }
    }

    fn as_mutable(&mut self) -> Option<&mut dyn MutableIndex> {
        Some(self)
    }
}

impl<C: ListCodec> MutableIndex for Ivf<C> {
    fn insert(&mut self, vector: &[f32]) -> Result<usize> {
        let row = self.vectors.push(vector)?;
        let c = self.coarse.assign(vector).0;
        let codes = &mut self.codes[c];
        let start = codes.len();
        codes.resize(start + self.codec.code_len(), 0);
        let centroid = self.coarse.centroids().get(c);
        let out = &mut codes[start..];
        self.codec
            .encode(vector, centroid, &mut C::Scratch::default(), out)?;
        self.lists[c].push(row as u32);
        self.assigns.push(c as u32);
        self.drift.record_append(c, vector);
        self.maybe_recluster(c);
        Ok(row)
    }

    fn remove(&mut self, id: usize) -> Result<bool> {
        if id >= self.assigns.len() {
            return Err(Error::NotFound(format!(
                "{} row {id} out of range",
                C::NAME
            )));
        }
        let c = self.assigns[id];
        if c == REMOVED {
            return Ok(false);
        }
        let c = c as usize;
        let pos = self.lists[c]
            .iter()
            .position(|&r| r == id as u32)
            .expect("assigned row is in its list");
        self.lists[c].swap_remove(pos);
        // Mirror the swap_remove on the aligned code block.
        let cl = self.codec.code_len();
        let codes = &mut self.codes[c];
        let last = codes.len() - cl;
        if pos * cl < last {
            let (head, tail) = codes.split_at_mut(last);
            head[pos * cl..(pos + 1) * cl].copy_from_slice(tail);
        }
        codes.truncate(last);
        self.assigns[id] = REMOVED;
        self.removed += 1;
        Ok(true)
    }

    fn live(&self) -> usize {
        self.vectors.len() - self.removed
    }
}

impl<C: ListCodec> std::fmt::Debug for Ivf<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, n, nlist) = (C::NAME, self.len(), self.lists.len());
        write!(f, "{name}(n={n}, nlist={nlist})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::recall::GroundTruth;
    use vdb_core::rng::Rng;
    use vdb_quant::{PqConfig, SqBits};

    /// Runs the generic check `$check::<C>(&params)` once per codec.
    macro_rules! for_each_codec {
        ($check:ident) => {
            $check::<FlatCodec>(&());
            $check::<SqCodec>(&SqBits::B8);
            $check::<PqCodec>(&PqConfig::new(4));
        };
    }

    const N: usize = 2000;
    const DIM: usize = 16;

    fn workload() -> (Vectors, Vectors, GroundTruth) {
        let mut rng = Rng::seed_from_u64(9);
        let data = dataset::clustered(N, DIM, 10, 0.4, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 25, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        (data, queries, gt)
    }

    fn setup<C: ListCodec>(params: &C::Params) -> (Ivf<C>, Vectors, GroundTruth) {
        let (data, queries, gt) = workload();
        let idx = Ivf::build(data, Metric::Euclidean, &IvfConfig::new(16), params).unwrap();
        (idx, queries, gt)
    }

    fn recall<C: ListCodec>(idx: &Ivf<C>, qs: &Vectors, gt: &GroundTruth, p: &SearchParams) -> f64 {
        let results: Vec<_> = qs.iter().map(|q| idx.search(q, 10, p).unwrap()).collect();
        gt.recall_batch(&results)
    }

    /// Every live row sits in exactly the list its assignment names, and
    /// every list's code block is aligned with its rows.
    fn assert_consistent<C: ListCodec>(idx: &Ivf<C>) {
        let cl = idx.codec.code_len();
        let mut seen = 0;
        for c in 0..idx.lists.len() {
            assert_eq!(
                idx.codes[c].len(),
                idx.lists[c].len() * cl,
                "codes track list {c}"
            );
            for &row in &idx.lists[c] {
                assert_eq!(idx.assigns[row as usize], c as u32);
                seen += 1;
            }
        }
        assert_eq!(seen, idx.live());
    }

    fn check_removes<C: ListCodec>(params: &C::Params) {
        let (mut idx, queries, _) = setup::<C>(params);
        for id in (0..N).step_by(4) {
            assert!(MutableIndex::remove(&mut idx, id).unwrap());
        }
        assert!(!MutableIndex::remove(&mut idx, 0).unwrap(), "idempotent");
        assert!(MutableIndex::remove(&mut idx, N).is_err(), "out of range");
        assert_eq!(idx.live(), N - N / 4);
        assert_consistent(&idx);
        let params = SearchParams::default().with_nprobe(16);
        for q in queries.iter() {
            let hits = idx.search(q, 10, &params).unwrap();
            assert!(
                hits.iter().all(|n| n.id % 4 != 0),
                "{}: tombstone surfaced",
                C::NAME
            );
        }
    }

    #[test]
    fn removed_rows_leave_their_list_and_never_surface() {
        for_each_codec!(check_removes);
    }

    fn check_drift<C: ListCodec>(params: &C::Params) {
        // Small uniform base, then a stream of appends far outside the
        // trained region: the receiving list's centroid must chase them.
        let data = dataset::gaussian(200, 8, &mut Rng::seed_from_u64(5));
        let mut idx = Ivf::<C>::build(data, Metric::Euclidean, &IvfConfig::new(4), params).unwrap();
        let far = vec![50.0f32; 8];
        let nearest = |idx: &Ivf<C>| {
            idx.coarse
                .centroids()
                .get(idx.coarse.assign(&far).0)
                .to_vec()
        };
        let before = nearest(&idx);
        for i in 0..120 {
            let v: Vec<f32> = (0..8).map(|j| 50.0 + ((i + j) % 7) as f32 * 0.1).collect();
            MutableIndex::insert(&mut idx, &v).unwrap();
        }
        assert!(idx.reclusters > 0, "{}: drift never fired", C::NAME);
        let d = |a: &[f32]| -> f32 { a.iter().zip(&far).map(|(x, y)| (x - y) * (x - y)).sum() };
        assert!(
            d(&nearest(&idx)) < d(&before),
            "{}: recluster should pull a centroid toward the appended mass",
            C::NAME
        );
        assert_consistent(&idx);
        // Moved rows keep searchable codes (re-encoded residuals for PQ):
        // a query at the appended mass must surface appended rows.
        let hits = idx
            .search(&far, 10, &SearchParams::default().with_nprobe(4))
            .unwrap();
        assert!(
            hits.iter().all(|n| n.id >= 200),
            "{}: appended rows should win",
            C::NAME
        );
    }

    #[test]
    fn drifted_list_recluster_moves_centroid_and_codes_follow() {
        for_each_codec!(check_drift);
    }

    fn check_filtered<C: ListCodec>(params: &C::Params) {
        let (idx, queries, _) = setup::<C>(params);
        let filter = |id: usize| id % 3 == 1;
        let params = SearchParams::default().with_nprobe(16);
        for q in queries.iter().take(5) {
            let hits = idx.search_filtered(q, 5, &params, &filter).unwrap();
            assert_eq!(hits.len(), 5, "{}", C::NAME);
            assert!(hits.iter().all(|n| n.id % 3 == 1), "{}", C::NAME);
        }
    }

    #[test]
    fn filtered_hits_respect_the_predicate() {
        for_each_codec!(check_filtered);
    }

    fn check_edges<C: ListCodec>(params: &C::Params) {
        let (idx, queries, _) = setup::<C>(params);
        let p = SearchParams::default();
        assert!(idx.search(queries.get(0), 0, &p).unwrap().is_empty());
        assert!(
            idx.search(&[0.0; 3], 5, &p).is_err(),
            "{}: wrong dim",
            C::NAME
        );
        assert!(idx
            .search_filtered(&[0.0; 3], 5, &p, &|_: usize| true)
            .is_err());
        let data = dataset::gaussian(10, 4, &mut Rng::seed_from_u64(1));
        assert!(Ivf::<C>::build(data, Metric::Euclidean, &IvfConfig::new(0), params).is_err());
    }

    #[test]
    fn k_zero_wrong_dim_and_zero_nlist_are_handled() {
        for_each_codec!(check_edges);
    }

    fn check_insert<C: ListCodec>(params: &C::Params) {
        let (mut idx, _, _) = setup::<C>(params);
        let v = vec![1.5f32; DIM];
        let row = MutableIndex::insert(&mut idx, &v).unwrap();
        assert_eq!(row, N);
        assert!(idx.lists[idx.coarse.assign(&v).0].contains(&(row as u32)));
        let hits = idx
            .search(&v, 1, &SearchParams::default().with_nprobe(16))
            .unwrap();
        assert_eq!(hits[0].id, row, "{}", C::NAME);
        assert_consistent(&idx);
    }

    #[test]
    fn insert_goes_to_nearest_list_and_is_found() {
        for_each_codec!(check_insert);
    }

    fn check_detail<C: ListCodec>(params: &C::Params) {
        let (idx, _, _) = setup::<C>(params);
        // The planner's cost model reads this token (falling back to a
        // guess without it).
        let nlist = idx.stats().detail.split_whitespace().find_map(|t| {
            t.strip_prefix("nlist=")
                .and_then(|v| v.parse::<usize>().ok())
        });
        assert_eq!(nlist, Some(16), "{}", C::NAME);
    }

    #[test]
    fn stats_detail_carries_the_built_nlist() {
        for_each_codec!(check_detail);
    }

    #[test]
    fn memory_counts_the_vectors_only_where_lists_scan_them() {
        let raw = N * DIM * 4;
        let (flat, _, _) = setup::<FlatCodec>(&());
        let (sq, _, _) = setup::<SqCodec>(&SqBits::B8);
        let (pq, _, _) = setup::<PqCodec>(&PqConfig::new(4));
        assert!(flat.stats().memory_bytes >= raw);
        assert!(sq.stats().memory_bytes < raw);
        assert!(pq.stats().memory_bytes < raw);
    }

    #[test]
    fn ivf_flat_half_the_lists_reach_high_recall_and_all_are_exact() {
        let (data, queries, gt) = workload();
        let idx = IvfFlatIndex::build(data, Metric::Euclidean, &IvfConfig::new(32), &()).unwrap();
        let at = |nprobe| {
            recall(
                &idx,
                &queries,
                &gt,
                &SearchParams::default().with_nprobe(nprobe),
            )
        };
        // Probing the nearest half of the lists finds almost every true
        // neighbor; probing the wrong lists first would not.
        let half = at(16);
        assert!(half > 0.95, "recall {half} at nprobe=16 of 32");
        let mut last = 0.0;
        for nprobe in [1, 4, 16, 32] {
            let r = at(nprobe);
            assert!(r >= last - 1e-9, "nprobe={nprobe}: {r} < {last}");
            last = r;
        }
        assert!((last - 1.0).abs() < 1e-12, "probing all lists is exact");
        // With all lists probed, block-first equals the exact filtered scan.
        let params = SearchParams::default().with_nprobe(32);
        let exact = vdb_core::FlatIndex::build(idx.vectors.clone(), Metric::Euclidean).unwrap();
        let filter = |id: usize| id.is_multiple_of(3);
        for q in queries.iter().take(5) {
            let hits = idx.search_filtered(q, 5, &params, &filter).unwrap();
            let oracle = exact.search_filtered(q, 5, &params, &filter).unwrap();
            let ids = |h: &[Neighbor]| h.iter().map(|n| n.id).collect::<Vec<_>>();
            assert_eq!(ids(&hits), ids(&oracle));
        }
    }

    #[test]
    fn sq4_is_smaller_than_sq8_and_rerank_recovers_sq_loss() {
        let (sq8, queries, gt) = setup::<SqCodec>(&SqBits::B8);
        let (sq4, _, _) = setup::<SqCodec>(&SqBits::B4);
        assert_eq!(sq8.bytes_per_vector(), 16);
        assert_eq!(sq4.bytes_per_vector(), 8);
        assert!(sq4.stats().memory_bytes < sq8.stats().memory_bytes);
        let p = SearchParams::default().with_nprobe(16);
        let r = recall(&sq8, &queries, &gt, &p);
        assert!(r > 0.95, "recall {r}");
        let rw = recall(&sq4, &queries, &gt, &p);
        let ro = recall(&sq4, &queries, &gt, &p.with_rerank(0));
        assert!(rw >= ro, "SQ4 rerank {rw} vs raw codes {ro}");
    }

    #[test]
    fn more_pq_subspaces_raise_raw_adc_recall() {
        let raw = SearchParams::default().with_nprobe(16).with_rerank(0);
        let (m2, queries, gt) = setup::<PqCodec>(&PqConfig::new(2));
        let (m16, _, _) = setup::<PqCodec>(&PqConfig::new(16));
        let (r2, r16) = (
            recall(&m2, &queries, &gt, &raw),
            recall(&m16, &queries, &gt, &raw),
        );
        assert!(r16 > r2, "m=16 ({r16}) vs m=2 ({r2})");
    }

    #[test]
    fn rerank_recovers_pq_loss() {
        let (idx, queries, gt) = setup::<PqCodec>(&PqConfig::new(4));
        assert_eq!(idx.bytes_per_vector(), 4);
        let p = SearchParams::default().with_nprobe(16);
        let rw = recall(&idx, &queries, &gt, &p.clone().with_rerank(100));
        let ro = recall(&idx, &queries, &gt, &p.with_rerank(0));
        assert!(rw > ro, "rerank {rw} should beat raw ADC {ro}");
        assert!(rw > 0.9, "recall {rw}");
    }
}
