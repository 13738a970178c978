//! Product quantization (Jégou et al.; the "PQ index" of §2.2(3)).
//!
//! The vector space is split into `m` contiguous subspaces; each subspace
//! gets its own k-means codebook with `2^nbits` centroids. A vector is
//! encoded as `m` centroid ids. Search uses *asymmetric distance
//! computation* (ADC): for a query, a `m × 2^nbits` table of partial
//! squared distances is computed once, after which each candidate's
//! approximate distance is `m` table lookups — the inner loop that
//! QuickADC-style SIMD work accelerates (§2.3).

use crate::kmeans::{KMeans, KMeansConfig};
use vdb_core::error::{Error, Result};
use vdb_core::kernel;
use vdb_core::parallel::{clamp_threads, parallel_map_chunks, BuildOptions};
use vdb_core::vector::Vectors;

/// Configuration for training a product quantizer.
#[derive(Debug, Clone)]
pub struct PqConfig {
    /// Number of subspaces (`dim` must be divisible by `m`).
    pub m: usize,
    /// Bits per sub-code (codebook size is `2^nbits`; 8 → 256 centroids).
    pub nbits: u8,
    /// k-means iterations per subspace.
    pub train_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl PqConfig {
    /// Default config with `m` subspaces and 8-bit codes.
    pub fn new(m: usize) -> Self {
        PqConfig {
            m,
            nbits: 8,
            train_iters: 15,
            seed: 0xC0DE,
        }
    }
}

/// A trained product quantizer.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    dim: usize,
    m: usize,
    dsub: usize,
    ksub: usize,
    /// Codebooks: `m` blocks, each `ksub × dsub`, flattened row-major.
    codebooks: Vec<f32>,
}

/// A per-query ADC lookup table.
#[derive(Debug, Clone, Default)]
pub struct AdcTable {
    m: usize,
    ksub: usize,
    /// `m × ksub` partial squared distances.
    table: Vec<f32>,
}

impl AdcTable {
    /// Approximate squared distance of the encoded vector to the query.
    #[inline]
    pub fn distance(&self, code: &[u8]) -> f32 {
        debug_assert_eq!(code.len(), self.m);
        let mut acc = 0.0f32;
        for (sub, &c) in code.iter().enumerate() {
            acc += self.table[sub * self.ksub + c as usize];
        }
        acc
    }

    /// Scan contiguous codes through the dispatched ADC kernel, writing one
    /// approximate squared distance per code into `out` (the
    /// register-friendly scan loop of §2.3 hardware acceleration; the AVX2
    /// backend evaluates eight subspaces per vector gather).
    pub fn scan(&self, codes: &[u8], out: &mut [f32]) {
        kernel::adc_scan(&self.table, self.ksub, codes, self.m, out);
    }

    /// Batched ADC over contiguous codes; alias of [`AdcTable::scan`].
    pub fn distance_batch(&self, codes: &[u8], out: &mut [f32]) {
        debug_assert_eq!(codes.len(), self.m * out.len());
        self.scan(codes, out);
    }
}

impl ProductQuantizer {
    /// Train codebooks on `data` serially.
    pub fn train(data: &Vectors, cfg: &PqConfig) -> Result<Self> {
        ProductQuantizer::train_with(data, cfg, &BuildOptions::serial())
    }

    /// Train codebooks on `data`. Subspace codebooks are independent
    /// k-means problems seeded `seed + sub`, so they fan out over threads
    /// and the result is the same at any thread count.
    pub fn train_with(data: &Vectors, cfg: &PqConfig, opts: &BuildOptions) -> Result<Self> {
        if data.is_empty() {
            return Err(Error::EmptyCollection);
        }
        let dim = data.dim();
        if cfg.m == 0 || !dim.is_multiple_of(cfg.m) {
            return Err(Error::InvalidParameter(format!(
                "m={} must divide dimension {dim}",
                cfg.m
            )));
        }
        if cfg.nbits == 0 || cfg.nbits > 8 {
            return Err(Error::InvalidParameter("nbits must be in 1..=8".into()));
        }
        let m = cfg.m;
        let dsub = dim / m;
        let ksub = 1usize << cfg.nbits;
        let threads = clamp_threads(opts.threads, m);
        let blocks = parallel_map_chunks(m, threads, |_, range| -> Result<Vec<f32>> {
            let mut block = vec![0.0f32; range.len() * ksub * dsub];
            for (slot, sub) in range.enumerate() {
                train_subspace(
                    data,
                    cfg,
                    sub,
                    dsub,
                    ksub,
                    &mut block[slot * ksub * dsub..(slot + 1) * ksub * dsub],
                )?;
            }
            Ok(block)
        });
        let mut codebooks = Vec::with_capacity(m * ksub * dsub);
        for block in blocks {
            codebooks.extend_from_slice(&block?);
        }
        Ok(ProductQuantizer {
            dim,
            m,
            dsub,
            ksub,
            codebooks,
        })
    }

    /// Encode every row of `data` into a flat `n * m` code buffer, fanning
    /// rows out over threads. Encoding is a pure per-row function, so the
    /// buffer is bit-identical for any thread count.
    pub fn encode_all(&self, data: &Vectors, opts: &BuildOptions) -> Result<Vec<u8>> {
        if data.dim() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: data.dim(),
            });
        }
        let m = self.m;
        let threads = clamp_threads(opts.threads, data.len() / 64);
        let chunks = parallel_map_chunks(data.len(), threads, |_, range| {
            let mut codes = vec![0u8; range.len() * m];
            for (slot, row) in range.enumerate() {
                self.encode_into(data.get(row), &mut codes[slot * m..(slot + 1) * m])
                    .expect("row dim checked against quantizer dim");
            }
            codes
        });
        Ok(chunks.concat())
    }

    /// Reassemble a quantizer from raw parts (deserialization of
    /// disk-resident indexes). `codebooks` must hold `m * ksub * (dim/m)`
    /// floats in the layout produced by [`ProductQuantizer::codebooks`].
    pub fn from_parts(dim: usize, m: usize, ksub: usize, codebooks: Vec<f32>) -> Result<Self> {
        if m == 0 || !dim.is_multiple_of(m) {
            return Err(Error::InvalidParameter(format!(
                "m={m} must divide dimension {dim}"
            )));
        }
        if ksub == 0 || !ksub.is_power_of_two() || ksub > 256 {
            return Err(Error::InvalidParameter(format!(
                "ksub={ksub} must be a power of two <= 256"
            )));
        }
        let dsub = dim / m;
        if codebooks.len() != m * ksub * dsub {
            return Err(Error::InvalidParameter(format!(
                "codebook buffer has {} floats, expected {}",
                codebooks.len(),
                m * ksub * dsub
            )));
        }
        Ok(ProductQuantizer {
            dim,
            m,
            dsub,
            ksub,
            codebooks,
        })
    }

    /// The raw codebook buffer (serialization of disk-resident indexes).
    pub fn codebooks(&self) -> &[f32] {
        &self.codebooks
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of subspaces (= bytes per code at nbits=8).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codebook size per subspace.
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Bytes per encoded vector.
    pub fn code_len(&self) -> usize {
        self.m
    }

    #[inline]
    fn centroid(&self, sub: usize, c: usize) -> &[f32] {
        let start = (sub * self.ksub + c) * self.dsub;
        &self.codebooks[start..start + self.dsub]
    }

    /// Encode a vector into `m` sub-codes.
    pub fn encode_into(&self, v: &[f32], out: &mut [u8]) -> Result<()> {
        if v.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: v.len(),
            });
        }
        debug_assert_eq!(out.len(), self.m);
        // The ksub centroids of one subspace are contiguous `ksub × dsub`
        // rows, so the per-subspace argmin is one batched kernel call into
        // a stack buffer (ksub <= 256). First-wins on ties (strict `<`).
        let mut dists = [0.0f32; 256];
        for sub in 0..self.m {
            let sv = &v[sub * self.dsub..(sub + 1) * self.dsub];
            let start = sub * self.ksub * self.dsub;
            let rows = &self.codebooks[start..start + self.ksub * self.dsub];
            kernel::l2_sq_batch(sv, rows, self.dsub, &mut dists[..self.ksub]);
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, &d) in dists[..self.ksub].iter().enumerate() {
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            out[sub] = best as u8;
        }
        Ok(())
    }

    /// Encode, allocating the code.
    pub fn encode(&self, v: &[f32]) -> Result<Vec<u8>> {
        let mut out = vec![0u8; self.m];
        self.encode_into(v, &mut out)?;
        Ok(out)
    }

    /// Decode a code into the concatenation of its centroids.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        debug_assert_eq!(code.len(), self.m);
        let mut out = vec![0.0f32; self.dim];
        for sub in 0..self.m {
            out[sub * self.dsub..(sub + 1) * self.dsub]
                .copy_from_slice(self.centroid(sub, code[sub] as usize));
        }
        out
    }

    /// Build the per-query ADC lookup table (squared L2).
    pub fn adc_table(&self, query: &[f32]) -> Result<AdcTable> {
        if query.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let mut table = vec![0.0f32; self.m * self.ksub];
        self.fill_adc_table(query, &mut table);
        Ok(AdcTable {
            m: self.m,
            ksub: self.ksub,
            table,
        })
    }

    /// Rebuild `out` in place as the ADC table for `query`, reusing its
    /// allocation. A warm caller (e.g. an IVFADC list scan driven by a
    /// reusable search context) builds tables with zero heap traffic.
    pub fn adc_table_into(&self, query: &[f32], out: &mut AdcTable) -> Result<()> {
        if query.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        out.m = self.m;
        out.ksub = self.ksub;
        out.table.clear();
        out.table.resize(self.m * self.ksub, 0.0);
        self.fill_adc_table(query, &mut out.table);
        Ok(())
    }

    /// Fill an `m × ksub` table with partial squared distances: each table
    /// row is one batched kernel call over the subspace's contiguous
    /// codebook block.
    fn fill_adc_table(&self, query: &[f32], table: &mut [f32]) {
        for sub in 0..self.m {
            let qv = &query[sub * self.dsub..(sub + 1) * self.dsub];
            let start = sub * self.ksub * self.dsub;
            let rows = &self.codebooks[start..start + self.ksub * self.dsub];
            kernel::l2_sq_batch(
                qv,
                rows,
                self.dsub,
                &mut table[sub * self.ksub..(sub + 1) * self.ksub],
            );
        }
    }

    /// The query-independent part of residual ADC (IVFADC's precomputed
    /// terms, Jégou et al., TPAMI 2011). A code `r` of the residual
    /// against coarse centroid `c` has
    /// `‖q − c − r‖² = ‖q − c‖² + Σ_s (‖r_s‖² + 2⟨c_s, r_s⟩) − Σ_s 2⟨q_s, r_s⟩`,
    /// and the middle sum involves no query. Returns it for each code of
    /// `codes` (`assign.len() × m` bytes) against the centroid `assign`
    /// names: one float per code, `‖r_s‖² + 2⟨c_s, r_s⟩` summed in
    /// subspace order (a `dot_batch` row equals `kernel::dot` bit for bit).
    pub fn residual_terms(
        &self,
        centroids: &Vectors,
        assign: &[u32],
        codes: &[u8],
    ) -> Result<Vec<f32>> {
        if centroids.dim() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: centroids.dim(),
            });
        }
        if codes.len() != assign.len() * self.m
            || assign.iter().any(|&c| c as usize >= centroids.len())
            || codes.iter().any(|&j| j as usize >= self.ksub)
        {
            return Err(Error::InvalidParameter(
                "codes or assignments do not fit the quantizer".into(),
            ));
        }
        let (m, ksub, dsub) = (self.m, self.ksub, self.dsub);
        // ‖r_s‖² of every codeword, shared by all codes.
        let norms: Vec<f32> = self
            .codebooks
            .chunks_exact(dsub)
            .map(|r| kernel::dot(r, r))
            .collect();
        // One centroid at a time: its `m × ksub` block of terms, one
        // `dot_batch` per subspace into a reused buffer, then `m` lookups
        // per code. Only one block is ever held. A counting sort buckets
        // the codes by centroid, so the pass costs what building every
        // block once does.
        let mut start = vec![0usize; centroids.len() + 1];
        for &c in assign {
            start[c as usize + 1] += 1;
        }
        for c in 0..centroids.len() {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut order = vec![0usize; assign.len()];
        for (v, &c) in assign.iter().enumerate() {
            order[next[c as usize]] = v;
            next[c as usize] += 1;
        }
        let mut block = vec![0.0f32; m * ksub];
        let mut terms = vec![0.0f32; assign.len()];
        for (c, cent) in centroids.iter().enumerate() {
            let group = &order[start[c]..start[c + 1]];
            if group.is_empty() {
                continue;
            }
            let subspaces = cent
                .chunks_exact(dsub)
                .zip(self.codebooks.chunks_exact(ksub * dsub));
            for ((row, norms), (cs, rows)) in block
                .chunks_exact_mut(ksub)
                .zip(norms.chunks_exact(ksub))
                .zip(subspaces)
            {
                kernel::dot_batch(cs, rows, dsub, row);
                for (t, &nrm) in row.iter_mut().zip(norms) {
                    *t = nrm + 2.0 * *t;
                }
            }
            for &v in group {
                terms[v] = codes[v * m..(v + 1) * m]
                    .iter()
                    .zip(block.chunks_exact(ksub))
                    .fold(0.0f32, |t, (&j, row)| t + row[j as usize]);
            }
        }
        Ok(terms)
    }

    /// Rebuild `out` as the query's part of residual ADC, `−2⟨q_s, r_s⟩`
    /// per subspace and codeword (`m × ksub`, reusing the allocation) —
    /// the cost of one plain ADC table, and an ADC table itself for the
    /// `Σ_s` part. See [`ProductQuantizer::residual_terms`].
    pub fn query_terms_into(&self, query: &[f32], out: &mut Vec<f32>) -> Result<()> {
        if query.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let (ksub, dsub) = (self.ksub, self.dsub);
        out.clear();
        out.resize(self.m * ksub, 0.0);
        let subspaces = query
            .chunks_exact(dsub)
            .zip(self.codebooks.chunks_exact(ksub * dsub));
        for (row, (qs, rows)) in out.chunks_exact_mut(ksub).zip(subspaces) {
            kernel::dot_batch(qs, rows, dsub, row);
            for t in row.iter_mut() {
                *t *= -2.0;
            }
        }
        Ok(())
    }

    /// Mean squared reconstruction error over a dataset (OPQ's objective).
    pub fn reconstruction_error(&self, data: &Vectors) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        let mut code = vec![0u8; self.m];
        for row in data.iter() {
            self.encode_into(row, &mut code).expect("dims agree");
            total += kernel::l2_sq(row, &self.decode(&code)) as f64;
        }
        total / data.len() as f64
    }

    /// Approximate heap size of the codebooks.
    pub fn memory_bytes(&self) -> usize {
        self.codebooks.len() * std::mem::size_of::<f32>()
    }
}

/// Train one subspace codebook into its `ksub * dsub` block: slice the
/// subspace out of every vector, run k-means seeded `seed + sub`, and fill
/// the block (duplicating the last centroid when fewer than `ksub` were
/// trainable on tiny data).
fn train_subspace(
    data: &Vectors,
    cfg: &PqConfig,
    sub: usize,
    dsub: usize,
    ksub: usize,
    block: &mut [f32],
) -> Result<()> {
    let mut subdata = Vectors::with_capacity(dsub, data.len());
    for row in data.iter() {
        subdata
            .push(&row[sub * dsub..(sub + 1) * dsub])
            .expect("subvector of valid vector is valid");
    }
    let km = KMeans::train(
        &subdata,
        &KMeansConfig {
            k: ksub,
            max_iters: cfg.train_iters,
            tolerance: 1e-4,
            seed: cfg.seed.wrapping_add(sub as u64),
        },
    )?;
    let trained = km.centroids();
    for c in 0..ksub {
        let src = trained.get(c.min(trained.len() - 1));
        block[c * dsub..(c + 1) * dsub].copy_from_slice(src);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::rng::Rng;

    fn train_pq(dim: usize, m: usize, n: usize, seed: u64) -> (ProductQuantizer, Vectors) {
        let mut rng = Rng::seed_from_u64(seed);
        let data = dataset::clustered(n, dim, 8, 0.3, &mut rng).vectors;
        let pq = ProductQuantizer::train(&data, &PqConfig::new(m)).unwrap();
        (pq, data)
    }

    #[test]
    fn encode_decode_reduces_error_vs_random_code() {
        let (pq, data) = train_pq(16, 4, 400, 1);
        let mut rng = Rng::seed_from_u64(2);
        let mut real_err = 0.0f64;
        let mut rand_err = 0.0f64;
        for row in data.iter().take(50) {
            let code = pq.encode(row).unwrap();
            real_err += kernel::l2_sq(row, &pq.decode(&code)) as f64;
            let rand_code: Vec<u8> = (0..4).map(|_| rng.below(256) as u8).collect();
            rand_err += kernel::l2_sq(row, &pq.decode(&rand_code)) as f64;
        }
        assert!(real_err < rand_err * 0.5, "{real_err} vs {rand_err}");
    }

    #[test]
    fn adc_matches_decode_distance() {
        let (pq, data) = train_pq(16, 4, 300, 3);
        let mut rng = Rng::seed_from_u64(4);
        let q: Vec<f32> = (0..16).map(|_| rng.f32() * 10.0).collect();
        let table = pq.adc_table(&q).unwrap();
        for row in data.iter().take(30) {
            let code = pq.encode(row).unwrap();
            let adc = table.distance(&code);
            let exact_to_decoded = kernel::l2_sq(&q, &pq.decode(&code));
            assert!((adc - exact_to_decoded).abs() < 1e-2 * exact_to_decoded.max(1.0));
        }
    }

    #[test]
    fn adc_batch_matches_single() {
        let (pq, data) = train_pq(8, 2, 200, 5);
        let q: Vec<f32> = vec![1.0; 8];
        let table = pq.adc_table(&q).unwrap();
        let codes: Vec<u8> = data
            .iter()
            .take(10)
            .flat_map(|row| pq.encode(row).unwrap())
            .collect();
        let mut out = vec![0.0f32; 10];
        table.distance_batch(&codes, &mut out);
        for i in 0..10 {
            assert_eq!(out[i], table.distance(&codes[i * 2..(i + 1) * 2]));
        }
    }

    #[test]
    fn more_subspaces_lower_error() {
        let (pq2, data) = train_pq(16, 2, 500, 6);
        let pq8 = ProductQuantizer::train(&data, &PqConfig::new(8)).unwrap();
        let e2 = pq2.reconstruction_error(&data);
        let e8 = pq8.reconstruction_error(&data);
        assert!(e8 < e2, "m=8 ({e8}) should beat m=2 ({e2})");
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut rng = Rng::seed_from_u64(7);
        let data = dataset::gaussian(50, 10, &mut rng);
        assert!(
            ProductQuantizer::train(&data, &PqConfig::new(3)).is_err(),
            "3 does not divide 10"
        );
        assert!(ProductQuantizer::train(&data, &PqConfig::new(0)).is_err());
        let mut cfg = PqConfig::new(2);
        cfg.nbits = 9;
        assert!(ProductQuantizer::train(&data, &cfg).is_err());
        assert!(ProductQuantizer::train(&Vectors::new(8), &PqConfig::new(2)).is_err());
    }

    #[test]
    fn small_nbits_codebooks() {
        let mut rng = Rng::seed_from_u64(8);
        let data = dataset::gaussian(200, 8, &mut rng);
        let mut cfg = PqConfig::new(4);
        cfg.nbits = 4;
        let pq = ProductQuantizer::train(&data, &cfg).unwrap();
        assert_eq!(pq.ksub(), 16);
        let code = pq.encode(data.get(0)).unwrap();
        assert!(code.iter().all(|&c| (c as usize) < 16));
    }

    #[test]
    fn parallel_train_and_encode_bit_identical() {
        let mut rng = Rng::seed_from_u64(11);
        let data = dataset::clustered(400, 16, 8, 0.3, &mut rng).vectors;
        let cfg = PqConfig::new(4);
        let serial = ProductQuantizer::train(&data, &cfg).unwrap();
        let par =
            ProductQuantizer::train_with(&data, &cfg, &BuildOptions::with_threads(4)).unwrap();
        assert_eq!(serial.codebooks(), par.codebooks());
        let serial_codes: Vec<u8> = data
            .iter()
            .flat_map(|row| serial.encode(row).unwrap())
            .collect();
        let par_codes = par
            .encode_all(&data, &BuildOptions::with_threads(4))
            .unwrap();
        assert_eq!(serial_codes, par_codes);
    }

    #[test]
    fn tiny_dataset_fills_codebook() {
        let mut rng = Rng::seed_from_u64(9);
        let data = dataset::gaussian(5, 8, &mut rng); // fewer points than ksub
        let pq = ProductQuantizer::train(&data, &PqConfig::new(2)).unwrap();
        let code = pq.encode(data.get(0)).unwrap();
        assert_eq!(code.len(), 2);
    }
}
