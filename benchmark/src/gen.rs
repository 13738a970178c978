//! Seeded inputs: rows, queries, op streams and exact ground truth.
//!
//! Everything here is a pure function of `(shape, seed)`. The program
//! under test never sees the seed or a workload name, only these values.

use crate::rng::{Rng, Zipf};

/// Result size of every search.
pub const K: usize = 10;

/// `price` is uniform in `0..PRICE_RANGE`.
pub const PRICE_RANGE: i64 = 1000;

/// Upper bounds of the three predicate classes: `price < 5` keeps about
/// 0.5 % of the rows, `< 50` about 5 %, `< 500` about 50 %.
pub const PRICE_BOUNDS: [i64; 3] = [5, 50, 500];

const CLUSTERS: usize = 64;
/// Points spread around their cluster centre along `INTRINSIC` random
/// directions plus a little full-rank noise: like embeddings, the data
/// has far fewer degrees of freedom than coordinates.
const INTRINSIC: usize = 12;
const NOISE: f32 = 0.1;
const CENTER_SPREAD: f32 = 3.0;
const BRANDS: usize = 16;
const VOCABULARY: usize = 2000;
const WORDS_PER_DOC: usize = 12;

/// Rows of one collection, column-wise. `price` and `brand` are empty
/// for query vectors, `body` where the workload has no text column.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    pub dim: usize,
    pub vectors: Vec<f32>,
    pub price: Vec<i64>,
    pub brand: Vec<String>,
    pub body: Vec<String>,
}

impl Rows {
    pub fn len(&self) -> usize {
        self.vectors.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    pub fn vector(&self, i: usize) -> &[f32] {
        &self.vectors[i * self.dim..(i + 1) * self.dim]
    }
}

/// What a workload needs generated.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub n: usize,
    pub dim: usize,
    /// Zipf-vocabulary `body` text column beside `price` (int) and
    /// `brand` (Zipf category), which every collection has.
    pub text: bool,
    /// Distinct queries the search streams cycle through.
    pub queries: usize,
    /// Connections issuing the search stream.
    pub search_conns: usize,
    /// Warm-up searches, then measured searches, per connection.
    pub warm_searches: usize,
    pub searches: usize,
    /// The four hybrid classes instead of plain k-NN.
    pub hybrid_mix: bool,
    /// Connections of the ingest phase, and their warm-up and measured
    /// inserts per connection.
    pub ingest_conns: usize,
    pub warm_inserts: usize,
    pub inserts: usize,
    /// Length of the writer stream that runs beside the searches
    /// (90 % fresh inserts, 10 % deletes of its own earlier keys); 0 = no
    /// concurrent writer.
    pub rw_writes: usize,
    /// Searches of the recall probe sent after the final checkpoint.
    pub probe: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Knn,
    /// Index into [`PRICE_BOUNDS`].
    Filter(u8),
    Text,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Knn,
        Class::Filter(0),
        Class::Filter(1),
        Class::Filter(2),
        Class::Text,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Knn => "knn",
            Class::Filter(0) => "sel_lo",
            Class::Filter(1) => "sel_mid",
            Class::Filter(_) => "sel_hi",
            Class::Text => "text",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOp {
    pub class: Class,
    /// Index of the query vector (and, for `Text`, of the text query).
    pub query: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert row `i` of [`Inputs::fresh`] under key `n + i`.
    Insert(u32),
    /// Delete the key of fresh row `i`.
    Delete(u32),
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub shape: Shape,
    /// The preloaded rows; row `i` has key `i`.
    pub base: Rows,
    /// Rows inserted while the server runs; row `i` has key `n + i`.
    pub fresh: Rows,
    pub queries: Rows,
    pub text_queries: Vec<String>,
    /// Per search connection: warm-up ops, then measured ops.
    pub search_streams: Vec<Vec<SearchOp>>,
    /// Per ingest connection: warm-up inserts, then measured inserts.
    pub ingest_streams: Vec<Vec<WriteOp>>,
    pub rw_stream: Vec<WriteOp>,
    pub probe: Vec<SearchOp>,
    /// Exact unfiltered top-K of every query over `base`, by row.
    pub truth_knn: Vec<Vec<u32>>,
    /// Exact top-K under each price bound (empty without `hybrid_mix`).
    pub truth_filtered: [Vec<Vec<u32>>; 3],
    /// FNV-1a over every value above: equal seeds give equal hashes.
    pub hash: u64,
}

impl Inputs {
    pub fn key_of_fresh(&self, i: u32) -> u64 {
        (self.shape.n + i as usize) as u64
    }
}

/// `n` vectors around the cluster centres; `columns` adds the attribute
/// columns of `shape` (collection rows have them, query vectors do not).
fn gen_rows(
    rng: &mut Rng,
    centers: &[f32],
    basis: &[f32],
    shape: &Shape,
    n: usize,
    columns: bool,
) -> Rows {
    let dim = shape.dim;
    let brands = Zipf::new(BRANDS);
    let words = Zipf::new(VOCABULARY);
    let mut rows = Rows {
        dim,
        ..Rows::default()
    };
    rows.vectors.reserve(n * dim);
    let mut latent = [0f32; INTRINSIC];
    for _ in 0..n {
        let c = rng.below(CLUSTERS);
        latent.fill_with(|| rng.normal());
        for j in 0..dim {
            let spread: f32 = (0..INTRINSIC).map(|l| basis[l * dim + j] * latent[l]).sum();
            rows.vectors
                .push(centers[c * dim + j] + spread + NOISE * rng.normal());
        }
        if columns {
            rows.price.push(rng.below(PRICE_RANGE as usize) as i64);
            rows.brand.push(format!("b{}", brands.sample(rng)));
        }
        if columns && shape.text {
            let doc: Vec<String> = (0..WORDS_PER_DOC)
                .map(|_| format!("w{}", words.sample(rng)))
                .collect();
            rows.body.push(doc.join(" "));
        }
    }
    rows
}

/// A writer stream of `len` ops over fresh rows `first..`: with
/// `deletes`, nine inserts in ten and otherwise a delete of a key this
/// stream inserted earlier and has not deleted yet; without, inserts
/// only. Returns the stream and the fresh rows it used.
fn writer_stream(rng: &mut Rng, first: u32, len: usize, deletes: bool) -> (Vec<WriteOp>, u32) {
    let mut ops = Vec::with_capacity(len);
    let mut live: Vec<u32> = Vec::new();
    let mut next = first;
    for _ in 0..len {
        if deletes && !live.is_empty() && rng.below(10) == 0 {
            let victim = live.swap_remove(rng.below(live.len()));
            ops.push(WriteOp::Delete(victim));
        } else {
            ops.push(WriteOp::Insert(next));
            live.push(next);
            next += 1;
        }
    }
    (ops, next - first)
}

pub fn generate(shape: &Shape, seed: u64) -> Inputs {
    let dim = shape.dim;
    let mut rng = Rng::new(seed, 1);
    let centers: Vec<f32> = (0..CLUSTERS * dim)
        .map(|_| rng.normal() * CENTER_SPREAD)
        .collect();
    let basis: Vec<f32> = (0..INTRINSIC * dim).map(|_| rng.normal()).collect();
    let base = gen_rows(
        &mut Rng::new(seed, 2),
        &centers,
        &basis,
        shape,
        shape.n,
        true,
    );
    let queries = gen_rows(
        &mut Rng::new(seed, 3),
        &centers,
        &basis,
        shape,
        shape.queries,
        false,
    );
    // Two mid-frequency terms: frequent enough to match, rare enough that
    // the text side does not degenerate to "every document".
    let mut trng = Rng::new(seed, 4);
    let text_queries: Vec<String> = (0..if shape.text { shape.queries } else { 0 })
        .map(|_| format!("w{} w{}", 10 + trng.below(390), 10 + trng.below(390)))
        .collect();

    // Search streams: every connection cycles the distinct queries from
    // its own seeded offset; hybrid streams draw the four classes as
    // seeded permutations of blocks of four, so the mix is exactly
    // 25/25/25/25 and evenly spread over the phase.
    let mut srng = Rng::new(seed, 5);
    let hybrid = [
        Class::Filter(0),
        Class::Filter(1),
        Class::Filter(2),
        Class::Text,
    ];
    let search_streams: Vec<Vec<SearchOp>> = (0..shape.search_conns)
        .map(|_| {
            let offset = srng.below(shape.queries);
            let mut block = hybrid;
            (0..shape.warm_searches + shape.searches)
                .map(|i| {
                    let class = if shape.hybrid_mix {
                        if i % 4 == 0 {
                            for j in (1..4).rev() {
                                block.swap(j, srng.below(j + 1));
                            }
                        }
                        block[i % 4]
                    } else {
                        Class::Knn
                    };
                    SearchOp {
                        class,
                        query: ((offset + i) % shape.queries) as u32,
                    }
                })
                .collect()
        })
        .collect();
    let mut prng = Rng::new(seed, 6);
    let probe: Vec<SearchOp> = (0..shape.probe)
        .map(|_| SearchOp {
            class: Class::Knn,
            query: prng.below(shape.queries) as u32,
        })
        .collect();

    // Write streams, each over its own range of fresh rows.
    let mut wrng = Rng::new(seed, 7);
    let mut used = 0u32;
    let (rw_stream, took) = writer_stream(&mut wrng, used, shape.rw_writes, true);
    used += took;
    let ingest_streams: Vec<Vec<WriteOp>> = (0..shape.ingest_conns)
        .map(|_| {
            let (ops, took) =
                writer_stream(&mut wrng, used, shape.warm_inserts + shape.inserts, false);
            used += took;
            ops
        })
        .collect();
    let fresh = gen_rows(
        &mut Rng::new(seed, 8),
        &centers,
        &basis,
        shape,
        used as usize,
        true,
    );

    let truth_knn = exact_topk_all(&base, &queries, None);
    let truth_filtered = if shape.hybrid_mix {
        PRICE_BOUNDS.map(|bound| exact_topk_all(&base, &queries, Some(bound)))
    } else {
        Default::default()
    };

    let mut inputs = Inputs {
        shape: shape.clone(),
        base,
        fresh,
        queries,
        text_queries,
        search_streams,
        ingest_streams,
        rw_stream,
        probe,
        truth_knn,
        truth_filtered,
        hash: 0,
    };
    inputs.hash = hash_inputs(&inputs);
    inputs
}

/// Squared Euclidean distance, written so the compiler vectorises it.
/// The benchmark's own arithmetic: ground truth must not come from the
/// kernels under test.
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0f32; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail: f32 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    for (x, y) in ca.zip(cb) {
        for i in 0..8 {
            let d = x[i] - y[i];
            acc[i] += d * d;
        }
    }
    acc.iter().sum::<f32>() + tail
}

/// Exact top-`K` keys for `query` among `candidates`, nearest first, ties
/// by key.
pub fn exact_topk<'a>(
    candidates: impl Iterator<Item = (u32, &'a [f32])>,
    query: &[f32],
) -> Vec<u32> {
    let mut best: Vec<(f32, u32)> = Vec::with_capacity(K + 1);
    for (key, v) in candidates {
        let d = l2_sq(query, v);
        if best.len() == K && d >= best[K - 1].0 {
            continue;
        }
        let at = best.partition_point(|&(bd, bk)| (bd, bk) < (d, key));
        best.insert(at, (d, key));
        best.truncate(K);
    }
    best.into_iter().map(|(_, key)| key).collect()
}

/// `f(0..n)` in order, computed on every core.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let chunk = n.div_ceil(threads).max(1);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        for (t, slots) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(t * chunk + j));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("every slot filled"))
        .collect()
}

fn exact_topk_all(rows: &Rows, queries: &Rows, bound: Option<i64>) -> Vec<Vec<u32>> {
    par_map(queries.len(), |q| {
        let live = (0..rows.len())
            .filter(|&i| bound.is_none_or(|b| rows.price[i] < b))
            .map(|i| (i as u32, rows.vector(i)));
        exact_topk(live, queries.vector(q))
    })
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn rows(&mut self, rows: &Rows) {
        self.u64(rows.len() as u64);
        for v in &rows.vectors {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        for p in &rows.price {
            self.u64(*p as u64);
        }
        for s in rows.brand.iter().chain(&rows.body) {
            self.bytes(s.as_bytes());
            self.bytes(&[0xff]);
        }
    }

    fn searches(&mut self, ops: &[SearchOp]) {
        self.u64(ops.len() as u64);
        for op in ops {
            let class = Class::ALL
                .iter()
                .position(|c| *c == op.class)
                .expect("listed");
            self.u64((class as u64) << 32 | op.query as u64);
        }
    }

    fn writes(&mut self, ops: &[WriteOp]) {
        self.u64(ops.len() as u64);
        for op in ops {
            match *op {
                WriteOp::Insert(i) => self.u64(i as u64),
                WriteOp::Delete(i) => self.u64(1 << 63 | i as u64),
            }
        }
    }

    fn truth(&mut self, lists: &[Vec<u32>]) {
        for list in lists {
            self.u64(list.len() as u64);
            for &i in list {
                self.u64(i as u64);
            }
        }
    }
}

fn hash_inputs(inputs: &Inputs) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.rows(&inputs.base);
    h.rows(&inputs.fresh);
    h.rows(&inputs.queries);
    for t in &inputs.text_queries {
        h.bytes(t.as_bytes());
        h.bytes(&[0xff]);
    }
    for s in &inputs.search_streams {
        h.searches(s);
    }
    h.searches(&inputs.probe);
    for s in &inputs.ingest_streams {
        h.writes(s);
    }
    h.writes(&inputs.rw_stream);
    h.truth(&inputs.truth_knn);
    for t in &inputs.truth_filtered {
        h.truth(t);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            n: 400,
            dim: 16,
            text: true,
            queries: 20,
            search_conns: 2,
            warm_searches: 4,
            searches: 40,
            hybrid_mix: true,
            ingest_conns: 2,
            warm_inserts: 2,
            inserts: 10,
            rw_writes: 50,
            probe: 5,
        }
    }

    #[test]
    fn truth_is_the_exact_nearest_rows_under_the_bound() {
        let inputs = generate(&shape(), 11);
        let q = inputs.queries.vector(3);
        let mut all: Vec<(f32, u32)> = (0..inputs.base.len())
            .filter(|&i| inputs.base.price[i] < PRICE_BOUNDS[2])
            .map(|i| (l2_sq(q, inputs.base.vector(i)), i as u32))
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want: Vec<u32> = all.iter().take(K).map(|&(_, i)| i).collect();
        assert_eq!(inputs.truth_filtered[2][3], want);
        assert_eq!(inputs.truth_knn[3].len(), K);
    }

    #[test]
    fn hybrid_streams_hold_each_class_exactly_a_quarter() {
        let inputs = generate(&shape(), 5);
        for stream in &inputs.search_streams {
            for class in [
                Class::Filter(0),
                Class::Filter(1),
                Class::Filter(2),
                Class::Text,
            ] {
                let n = stream.iter().filter(|op| op.class == class).count();
                assert_eq!(n, stream.len() / 4);
            }
        }
    }

    #[test]
    fn writer_deletes_only_its_own_earlier_undeleted_keys() {
        let inputs = generate(&shape(), 9);
        let mut live = std::collections::HashSet::new();
        let mut deletes = 0;
        for op in &inputs.rw_stream {
            match *op {
                WriteOp::Insert(i) => assert!(live.insert(i)),
                WriteOp::Delete(i) => {
                    assert!(live.remove(&i), "delete of a key not live");
                    deletes += 1;
                }
            }
        }
        assert!(deletes > 0);
        // Ingest streams use rows no other stream uses.
        for stream in &inputs.ingest_streams {
            for op in stream {
                let WriteOp::Insert(i) = *op else {
                    panic!("ingest streams only insert");
                };
                assert!(live.insert(i), "fresh row used twice");
            }
        }
        assert_eq!(live.len() + deletes, inputs.fresh.len());
    }
}
