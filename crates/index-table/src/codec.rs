//! What an IVF list stores per row, and how one probe scores it.
//!
//! IVF-Flat, IVF-SQ and IVFADC (§2.2(2)–(3)) are one table-based index
//! whose lists differ only in their row encoding: raw vectors, scalar
//! codes, or PQ codes of the residual against the list centroid. A
//! [`ListCodec`] is that encoding; [`crate::ivf::Ivf`] is everything else.

use vdb_core::error::Result;
use vdb_core::metric::Metric;
use vdb_core::parallel::BuildOptions;
use vdb_core::vector::Vectors;
use vdb_quant::{AdcTable, KMeans, PqConfig, ProductQuantizer, ScalarQuantizer, SqBits};

/// The per-row encoding of an IVF list and its scoring kernels.
///
/// Each list keeps one contiguous block of `code_len()`-byte codes aligned
/// with its row ids. The index never asks which codec it serves; it
/// branches only on [`ListCodec::RESIDUAL`] and [`ListCodec::EXACT`].
pub trait ListCodec: Send + Sync + Sized {
    /// Build-time parameters of the codec.
    type Params;
    /// Reusable working state for encoding a row and scoring one probed
    /// list, kept in the search context's typed extension slot so a warm
    /// context reuses it.
    type Scratch: Default + Send + 'static;
    /// The index name ([`vdb_core::VectorIndex::name`]).
    const NAME: &'static str;
    /// Codes encode `row − centroid`: re-homing a row re-encodes it
    /// instead of moving its code.
    const RESIDUAL: bool;
    /// Scores are exact metric distances: no re-rank pass follows.
    const EXACT: bool;

    /// Train on `vectors`, whose rows sit in the lists `assigns` names.
    fn train(
        vectors: &Vectors,
        coarse: &KMeans,
        assigns: &[usize],
        params: &Self::Params,
        opts: &BuildOptions,
    ) -> Result<Self>;

    /// Bytes of code per row.
    fn code_len(&self) -> usize;

    /// Encode row vector `v`, homed in the list of `centroid`, into `out`.
    fn encode(
        &self,
        v: &[f32],
        centroid: &[f32],
        scratch: &mut Self::Scratch,
        out: &mut [u8],
    ) -> Result<()>;

    /// Prepare `scratch` to score the list of `centroid` against `query`;
    /// codecs that score the query itself need nothing.
    fn prepare(&self, _: &[f32], _: &[f32], _: &mut Self::Scratch) -> Result<()> {
        Ok(())
    }

    /// Score a whole list: `rows` and their concatenated `codes` into `out`.
    #[allow(clippy::too_many_arguments)]
    fn scan(
        &self,
        scratch: &Self::Scratch,
        metric: &Metric,
        query: &[f32],
        vectors: &Vectors,
        rows: &[u32],
        codes: &[u8],
        out: &mut [f32],
    );

    /// Score one `row` with its `code`.
    fn score(
        &self,
        scratch: &Self::Scratch,
        metric: &Metric,
        query: &[f32],
        vectors: &Vectors,
        row: u32,
        code: &[u8],
    ) -> f32;

    /// Heap bytes the codec adds beyond the list codes.
    fn memory_bytes(&self, vectors: &Vectors) -> usize;

    /// Extra `stats().detail` tokens, each with a leading space.
    fn detail(&self) -> String {
        String::new()
    }
}

/// IVF-Flat: lists store no code and score the vectors exactly.
#[derive(Debug, Clone)]
pub struct FlatCodec;

impl ListCodec for FlatCodec {
    type Params = ();
    type Scratch = ();
    const NAME: &'static str = "ivf_flat";
    const RESIDUAL: bool = false;
    const EXACT: bool = true;

    fn train(_: &Vectors, _: &KMeans, _: &[usize], _: &(), _: &BuildOptions) -> Result<Self> {
        Ok(FlatCodec)
    }

    fn code_len(&self) -> usize {
        0
    }

    fn encode(&self, _: &[f32], _: &[f32], _: &mut (), _: &mut [u8]) -> Result<()> {
        Ok(())
    }

    fn scan(
        &self,
        _: &(),
        metric: &Metric,
        query: &[f32],
        vectors: &Vectors,
        rows: &[u32],
        _: &[u8],
        out: &mut [f32],
    ) {
        metric.distance_gather(query, vectors, rows, out);
    }

    fn score(
        &self,
        _: &(),
        metric: &Metric,
        query: &[f32],
        vectors: &Vectors,
        row: u32,
        _: &[u8],
    ) -> f32 {
        metric.distance(query, vectors.get(row as usize))
    }

    /// IVF-Flat owns and scans its vectors, so they count.
    fn memory_bytes(&self, vectors: &Vectors) -> usize {
        vectors.memory_bytes()
    }
}

/// IVF-SQ: lists store SQ8/SQ4 codes of the vectors (4–8× smaller),
/// scored by asymmetric L2 and re-ranked against the vectors.
#[derive(Debug, Clone)]
pub struct SqCodec {
    sq: ScalarQuantizer,
}

impl ListCodec for SqCodec {
    type Params = SqBits;
    type Scratch = ();
    const NAME: &'static str = "ivf_sq";
    const RESIDUAL: bool = false;
    const EXACT: bool = false;

    fn train(v: &Vectors, _: &KMeans, _: &[usize], b: &SqBits, _: &BuildOptions) -> Result<Self> {
        Ok(SqCodec {
            sq: ScalarQuantizer::train(v, *b)?,
        })
    }

    fn code_len(&self) -> usize {
        self.sq.code_len()
    }

    fn encode(&self, v: &[f32], _: &[f32], _: &mut (), out: &mut [u8]) -> Result<()> {
        self.sq.encode_into(v, out)
    }

    fn scan(
        &self,
        _: &(),
        _: &Metric,
        query: &[f32],
        _: &Vectors,
        _: &[u32],
        codes: &[u8],
        out: &mut [f32],
    ) {
        self.sq.asymmetric_l2_sq_batch(query, codes, out);
    }

    fn score(&self, _: &(), _: &Metric, query: &[f32], _: &Vectors, _: u32, code: &[u8]) -> f32 {
        self.sq.asymmetric_l2_sq(query, code)
    }

    /// The vectors model disk-resident re-rank originals and do not count.
    fn memory_bytes(&self, _: &Vectors) -> usize {
        0
    }

    fn detail(&self) -> String {
        format!(" code_bytes/vec={}", self.sq.code_len())
    }
}

/// IVFADC (Jégou et al.): lists store PQ codes of each row's residual
/// against its list centroid. A probe builds one ADC table from the
/// query's residual, so scanning a list is `m` byte-indexed lookups per
/// code; the best candidates are re-ranked against the vectors.
#[derive(Debug, Clone)]
pub struct PqCodec {
    pq: ProductQuantizer,
}

impl ListCodec for PqCodec {
    type Params = PqConfig;
    /// The probed list's ADC table and a residual buffer.
    type Scratch = (AdcTable, Vec<f32>);
    const NAME: &'static str = "ivf_pq";
    const RESIDUAL: bool = true;
    const EXACT: bool = false;

    /// Trains the codebooks on the residuals `v − centroid` (per subspace,
    /// fanned out over threads).
    fn train(
        vectors: &Vectors,
        coarse: &KMeans,
        assigns: &[usize],
        cfg: &PqConfig,
        opts: &BuildOptions,
    ) -> Result<Self> {
        let mut residuals = Vectors::with_capacity(vectors.dim(), vectors.len());
        let mut buf = Vec::with_capacity(vectors.dim());
        for (v, &c) in vectors.iter().zip(assigns) {
            residual_into(v, coarse.centroids().get(c), &mut buf);
            residuals.push(&buf)?;
        }
        Ok(PqCodec {
            pq: ProductQuantizer::train_with(&residuals, cfg, opts)?,
        })
    }

    fn code_len(&self) -> usize {
        self.pq.code_len()
    }

    fn encode(
        &self,
        v: &[f32],
        centroid: &[f32],
        (_, buf): &mut Self::Scratch,
        out: &mut [u8],
    ) -> Result<()> {
        residual_into(v, centroid, buf);
        self.pq.encode_into(buf, out)
    }

    fn prepare(
        &self,
        query: &[f32],
        centroid: &[f32],
        (table, buf): &mut Self::Scratch,
    ) -> Result<()> {
        residual_into(query, centroid, buf);
        self.pq.adc_table_into(buf, table)
    }

    /// One dispatched ADC scan over the list's contiguous code block (the
    /// AVX2 backend gathers eight table entries per instruction).
    fn scan(
        &self,
        (table, _): &Self::Scratch,
        _: &Metric,
        _: &[f32],
        _: &Vectors,
        _: &[u32],
        codes: &[u8],
        out: &mut [f32],
    ) {
        table.scan(codes, out);
    }

    fn score(
        &self,
        (table, _): &Self::Scratch,
        _: &Metric,
        _: &[f32],
        _: &Vectors,
        _: u32,
        code: &[u8],
    ) -> f32 {
        table.distance(code)
    }

    /// The codebooks count; the re-rank originals do not.
    fn memory_bytes(&self, _: &Vectors) -> usize {
        self.pq.memory_bytes()
    }

    fn detail(&self) -> String {
        format!(" m={}", self.pq.m())
    }
}

/// `out = v − centroid`, reusing `out`'s allocation.
fn residual_into(v: &[f32], centroid: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(v.iter().zip(centroid).map(|(x, c)| x - c));
}
