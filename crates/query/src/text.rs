//! Full-text retrieval: tokenizer, inverted index, and BM25 scoring
//! (the text half of hybrid text + vector search, §2.3).
//!
//! The index is append-only and dependency-free. Documents are assigned
//! dense ids in insertion order; each term holds a postings list stored
//! as delta-encoded varints (`doc gap, term frequency` pairs), cut into
//! fixed-size blocks. Every block records the metadata a block-max
//! WAND-style scan needs to skip it wholesale: its first/last doc id,
//! byte offset (so a cursor can jump there without decoding what came
//! before), the maximum term frequency and the minimum document length
//! inside the block. The per-block score upper bound is derived from
//! those two at query time (BM25's per-term contribution is increasing
//! in `tf` and decreasing in `dl`), which keeps the stored metadata
//! valid as corpus statistics drift under appends.
//!
//! [`TextIndex::search`] (block-max) and [`TextIndex::search_exhaustive`]
//! are **bit-identical**: both accumulate per-term contributions in query
//! term order, and the skipping scan only discards a block once the top-k
//! heap is full and the summed upper bounds cannot beat the current
//! threshold — equal scores lose to the earlier doc id, so a skipped
//! block can never have contributed.
//!
//! [`bm25_score`] is a pure function of integer inputs (term/document
//! frequencies, document lengths, corpus totals). Distributed fusion
//! ships those integers and re-scores globally, which is what makes
//! scatter/gather fusion equal single-node fusion bit for bit.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use vdb_core::codec::{put_varint, Reader};
use vdb_core::error::{Error, Result};

/// BM25 term-frequency saturation parameter.
pub const BM25_K1: f32 = 1.2;
/// BM25 length-normalization parameter.
pub const BM25_B: f32 = 0.75;

/// Postings per block (and the skip granularity of the block-max scan).
const BLOCK: usize = 64;

const TEXT_MAGIC: &[u8; 4] = b"VTXT";
const TEXT_VERSION: u8 = 1;

/// A small English stopword list for callers that want one. The index
/// itself is stopword-agnostic: pass any set to
/// [`TextIndex::with_stopwords`].
pub const DEFAULT_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "is", "it", "no",
    "not", "of", "on", "or", "such", "that", "the", "their", "then", "there", "these", "they",
    "this", "to", "was", "will", "with",
];

/// Lowercase and split on non-alphanumeric characters (Unicode-aware:
/// CJK ideographs, diacritics, and digits all count as word characters).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// One scored document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextHit {
    /// Document id (insertion order).
    pub doc: u32,
    /// BM25 score (higher is better).
    pub score: f32,
}

/// Skip metadata for one block of postings.
#[derive(Debug, Clone, PartialEq)]
struct Block {
    /// Absolute doc id of the block's first posting.
    first_doc: u32,
    /// Absolute doc id of the block's last posting.
    last_doc: u32,
    /// Byte offset of the block's first posting in the term's bytes.
    offset: u32,
    /// Number of postings in the block (≤ `BLOCK`).
    len: u32,
    /// Maximum term frequency inside the block.
    max_tf: u32,
    /// Minimum document length inside the block.
    min_dl: u32,
}

/// One term's delta-encoded postings plus its block directory.
#[derive(Debug, Clone, PartialEq, Default)]
struct Postings {
    /// Varint stream: per block, `tf` for the first posting (its doc id
    /// lives in the block header), then `(gap, tf)` pairs.
    bytes: Vec<u8>,
    blocks: Vec<Block>,
    /// Document frequency (number of postings).
    df: u64,
}

impl Postings {
    fn push(&mut self, doc: u32, tf: u32, dl: u32) {
        let start_block = !matches!(self.blocks.last(), Some(b) if (b.len as usize) < BLOCK);
        if start_block {
            self.blocks.push(Block {
                first_doc: doc,
                last_doc: doc,
                offset: self.bytes.len() as u32,
                len: 0,
                max_tf: 0,
                min_dl: u32::MAX,
            });
        } else {
            let prev = self.blocks.last().expect("open block").last_doc;
            debug_assert!(doc > prev, "doc ids must be appended in order");
            put_varint(&mut self.bytes, (doc - prev) as u64);
        }
        put_varint(&mut self.bytes, tf as u64);
        let b = self.blocks.last_mut().expect("open block");
        b.last_doc = doc;
        b.len += 1;
        b.max_tf = b.max_tf.max(tf);
        b.min_dl = b.min_dl.min(dl);
    }
}

/// Append-only inverted index with BM25 scoring.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TextIndex {
    terms: BTreeMap<String, Postings>,
    doc_lens: Vec<u32>,
    /// Sum of `doc_lens` (token count after stopword removal).
    total_len: u64,
    stopwords: Vec<String>,
}

impl TextIndex {
    /// Empty index, no stopwords.
    pub fn new() -> Self {
        TextIndex::default()
    }

    /// Empty index that drops the given stopwords at both index and
    /// query time.
    pub fn with_stopwords<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut stopwords: Vec<String> = words.into_iter().map(|w| w.into()).collect();
        stopwords.sort();
        stopwords.dedup();
        TextIndex {
            stopwords,
            ..TextIndex::default()
        }
    }

    fn is_stopword(&self, term: &str) -> bool {
        self.stopwords
            .binary_search_by(|w| w.as_str().cmp(term))
            .is_ok()
    }

    /// Tokenize, lowercase, and stopword-filter a document or query.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        tokenize(text)
            .into_iter()
            .filter(|t| !self.is_stopword(t))
            .collect()
    }

    /// Append a document; returns its id. An empty (or all-stopword)
    /// document still consumes an id so ids stay aligned with rows.
    pub fn push_doc(&mut self, text: &str) -> u32 {
        let doc = self.doc_lens.len() as u32;
        let tokens = self.analyze(text);
        let dl = tokens.len() as u32;
        let mut tfs: BTreeMap<String, u32> = BTreeMap::new();
        for t in tokens {
            *tfs.entry(t).or_insert(0) += 1;
        }
        for (term, tf) in tfs {
            let p = match self.terms.entry(term) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(Postings::default()),
            };
            p.push(doc, tf, dl);
            p.df += 1;
        }
        self.doc_lens.push(dl);
        self.total_len += dl as u64;
        doc
    }

    /// Number of documents (including empty ones).
    pub fn n_docs(&self) -> u64 {
        self.doc_lens.len() as u64
    }

    /// Total token count across all documents.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Length (token count) of one document.
    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_lens.get(doc as usize).copied().unwrap_or(0)
    }

    /// Document frequency of a term (0 when absent).
    pub fn df(&self, term: &str) -> u64 {
        self.terms.get(term).map(|p| p.df).unwrap_or(0)
    }

    /// Number of distinct terms.
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// Analyze a query into `(term, query tf)` pairs, first-appearance
    /// order, duplicates folded into the count.
    pub fn query_terms(&self, query: &str) -> Vec<(String, u32)> {
        let mut terms: Vec<(String, u32)> = Vec::new();
        for t in self.analyze(query) {
            match terms.iter_mut().find(|(s, _)| *s == t) {
                Some((_, c)) => *c += 1,
                None => terms.push((t, 1)),
            }
        }
        terms
    }

    /// Corpus statistics for a term list: `(n_docs, total_len, dfs)`.
    /// These are the integer inputs [`bm25_score`] needs; summing them
    /// across disjoint segments/shards yields global statistics.
    pub fn corpus_stats(&self, terms: &[(String, u32)]) -> CorpusStats {
        CorpusStats {
            n_docs: self.n_docs(),
            total_len: self.total_len(),
            dfs: terms.iter().map(|(t, _)| self.df(t)).collect(),
        }
    }

    /// Term frequencies of `doc` for each query term (0 when the doc
    /// does not contain the term).
    pub fn tf_vector(&self, doc: u32, terms: &[(String, u32)]) -> Vec<u32> {
        terms
            .iter()
            .map(|(t, _)| {
                let Some(p) = self.terms.get(t) else {
                    return 0;
                };
                // Binary-search the block directory, then decode one block.
                let bi = match p.blocks.partition_point(|b| b.last_doc < doc) {
                    i if i < p.blocks.len() => i,
                    _ => return 0,
                };
                let b = &p.blocks[bi];
                if doc < b.first_doc {
                    return 0;
                }
                let mut cur = BlockCursor::start(&p.bytes, b);
                loop {
                    match cur.doc.cmp(&doc) {
                        std::cmp::Ordering::Equal => return cur.tf,
                        std::cmp::Ordering::Greater => return 0,
                        std::cmp::Ordering::Less => {
                            if !cur.advance_in(&p.bytes, b) {
                                return 0;
                            }
                        }
                    }
                }
            })
            .collect()
    }

    /// Exhaustive BM25 top-k: decode every posting of every query term.
    /// The reference the block-max scan is tested against.
    pub fn search_exhaustive(&self, query: &str, k: usize) -> Vec<TextHit> {
        let terms = self.query_terms(query);
        self.search_terms(&terms, k, false)
    }

    /// Block-max BM25 top-k: skips posting blocks whose summed score
    /// upper bounds cannot enter the current top-k. Bit-identical to
    /// [`TextIndex::search_exhaustive`].
    pub fn search(&self, query: &str, k: usize) -> Vec<TextHit> {
        let terms = self.query_terms(query);
        self.search_terms(&terms, k, true)
    }

    /// Top-k over pre-analyzed terms.
    pub fn search_terms(&self, terms: &[(String, u32)], k: usize, skipping: bool) -> Vec<TextHit> {
        if k == 0 || terms.is_empty() || self.doc_lens.is_empty() {
            return Vec::new();
        }
        let stats = self.corpus_stats(terms);
        let weights = term_weights(terms, &stats);
        let mut cursors: Vec<TermCursor<'_>> = Vec::new();
        for ((term, _), &w) in terms.iter().zip(&weights) {
            if let Some(p) = self.terms.get(term) {
                if !p.blocks.is_empty() {
                    cursors.push(TermCursor::new(p, w));
                }
            }
        }
        let avgdl = stats.avgdl();
        // Worst-first top-k: worst = (lowest score, then *largest* doc).
        // DAAT visits docs in ascending id order, so an incoming doc
        // only displaces the worst entry on a strictly better score —
        // equal scores lose to the earlier doc.
        // Never more entries than documents, whatever `k` asks for.
        let mut heap: Vec<(f32, u32)> = Vec::with_capacity(k.min(self.doc_lens.len()));
        loop {
            cursors.retain(|c| !c.done);
            if cursors.is_empty() {
                break;
            }
            if skipping && heap.len() == k {
                let theta = heap[0].0;
                let ub: f32 = cursors.iter().map(|c| c.block_upper_bound(avgdl)).sum();
                if ub <= theta {
                    // Nothing before the earliest block boundary can
                    // beat the threshold; jump every cursor past it.
                    let skip_to = cursors
                        .iter()
                        .map(|c| c.block().last_doc)
                        .min()
                        .expect("non-empty cursors");
                    for c in &mut cursors {
                        c.skip_past(skip_to);
                    }
                    continue;
                }
            }
            let doc = cursors.iter().map(|c| c.cur.doc).min().expect("non-empty");
            let dl = self.doc_lens[doc as usize] as f32;
            let mut score = 0.0f32;
            for c in &mut cursors {
                if c.cur.doc == doc {
                    score += c.weight * tf_part(c.cur.tf, dl, avgdl);
                    c.next();
                }
            }
            if heap.len() < k {
                heap.push((score, doc));
                if heap.len() == k {
                    heap.sort_by(worst_first);
                }
            } else if score > heap[0].0 {
                heap[0] = (score, doc);
                let mut i = 0;
                while i + 1 < heap.len() && worst_first(&heap[i], &heap[i + 1]).is_gt() {
                    heap.swap(i, i + 1);
                    i += 1;
                }
            }
        }
        heap.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        heap.into_iter()
            .map(|(score, doc)| TextHit { doc, score })
            .collect()
    }

    /// Serialize (versioned; see [`TextIndex::decode`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(TEXT_MAGIC);
        out.push(TEXT_VERSION);
        put_varint(&mut out, self.stopwords.len() as u64);
        for w in &self.stopwords {
            put_term(&mut out, w);
        }
        put_varint(&mut out, self.doc_lens.len() as u64);
        for &dl in &self.doc_lens {
            put_varint(&mut out, dl as u64);
        }
        put_varint(&mut out, self.terms.len() as u64);
        for (term, p) in &self.terms {
            put_term(&mut out, term);
            put_varint(&mut out, p.df);
            put_varint(&mut out, p.bytes.len() as u64);
            out.extend_from_slice(&p.bytes);
            put_varint(&mut out, p.blocks.len() as u64);
            for b in &p.blocks {
                put_varint(&mut out, b.first_doc as u64);
                put_varint(&mut out, b.last_doc as u64);
                put_varint(&mut out, b.offset as u64);
                put_varint(&mut out, b.len as u64);
                put_varint(&mut out, b.max_tf as u64);
                put_varint(&mut out, b.min_dl as u64);
            }
        }
        out
    }

    /// Deserialize bytes produced by [`TextIndex::encode`]. Unknown
    /// versions are rejected (callers fall back to rebuilding from the
    /// source column), structural damage is [`Error::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<TextIndex> {
        let corrupt = |what: &str| Error::Corrupt(format!("text index {what}"));
        if bytes.len() < 5 || &bytes[..4] != TEXT_MAGIC {
            return Err(corrupt("has bad magic"));
        }
        if bytes[4] != TEXT_VERSION {
            return Err(Error::Unsupported(format!(
                "text index version {} (supported: {TEXT_VERSION})",
                bytes[4]
            )));
        }
        let mut r = Reader::new(&bytes[5..]);
        let n_stop = read_count(&mut r)?;
        let mut stopwords = Vec::with_capacity(n_stop);
        for _ in 0..n_stop {
            stopwords.push(read_term(&mut r)?);
        }
        let n_docs = read_count(&mut r)?;
        let mut doc_lens = Vec::with_capacity(n_docs);
        let mut total_len = 0u64;
        for _ in 0..n_docs {
            let dl = r.varint()? as u32;
            total_len += dl as u64;
            doc_lens.push(dl);
        }
        let n_terms = read_count(&mut r)?;
        let mut terms = BTreeMap::new();
        for _ in 0..n_terms {
            let term = read_term(&mut r)?;
            let df = r.varint()?;
            let blen = read_count(&mut r)?;
            let bytes = r.take(blen)?.to_vec();
            let n_blocks = read_count(&mut r)?;
            let mut blocks = Vec::with_capacity(n_blocks);
            for _ in 0..n_blocks {
                blocks.push(Block {
                    first_doc: r.varint()? as u32,
                    last_doc: r.varint()? as u32,
                    offset: r.varint()? as u32,
                    len: r.varint()? as u32,
                    max_tf: r.varint()? as u32,
                    min_dl: r.varint()? as u32,
                });
            }
            terms.insert(term, Postings { bytes, blocks, df });
        }
        if !r.is_empty() {
            return Err(corrupt("has trailing bytes"));
        }
        Ok(TextIndex {
            terms,
            doc_lens,
            total_len,
            stopwords,
        })
    }
}

fn worst_first(a: &(f32, u32), b: &(f32, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(b.1.cmp(&a.1))
}

/// Integer corpus statistics — the only cross-document inputs BM25
/// needs. Addable across disjoint segments or shards.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorpusStats {
    /// Total number of documents.
    pub n_docs: u64,
    /// Total token count.
    pub total_len: u64,
    /// Document frequency per query term (aligned with the term list).
    pub dfs: Vec<u64>,
}

impl CorpusStats {
    /// Average document length (1.0 for an empty corpus, to keep the
    /// scoring function total).
    pub fn avgdl(&self) -> f32 {
        if self.n_docs == 0 {
            1.0
        } else {
            self.total_len as f32 / self.n_docs as f32
        }
    }

    /// Sum element-wise (disjoint segments/shards ⇒ exact global stats).
    pub fn add(&mut self, other: &CorpusStats) {
        self.n_docs += other.n_docs;
        self.total_len += other.total_len;
        if self.dfs.is_empty() {
            self.dfs = other.dfs.clone();
        } else {
            debug_assert_eq!(self.dfs.len(), other.dfs.len());
            for (a, b) in self.dfs.iter_mut().zip(&other.dfs) {
                *a += b;
            }
        }
    }
}

/// Per-term query weight: `query tf × idf` (Robertson/Sparck-Jones idf
/// with the +1 floor, so weights stay positive).
fn term_weights(terms: &[(String, u32)], stats: &CorpusStats) -> Vec<f32> {
    terms
        .iter()
        .zip(&stats.dfs)
        .map(|((_, qtf), &df)| {
            let n = stats.n_docs as f32;
            let idf = (((n - df as f32 + 0.5) / (df as f32 + 0.5)) + 1.0).ln();
            *qtf as f32 * idf
        })
        .collect()
}

/// BM25 term-frequency component for one document.
#[inline]
fn tf_part(tf: u32, dl: f32, avgdl: f32) -> f32 {
    let tf = tf as f32;
    tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl))
}

/// BM25 score of one document from integer inputs only. Both the local
/// scans and distributed re-scoring go through this function, which is
/// what makes shard-side and coordinator-side scores bit-identical.
pub fn bm25_score(terms: &[(String, u32)], tfs: &[u32], doc_len: u32, stats: &CorpusStats) -> f32 {
    let weights = term_weights(terms, stats);
    let avgdl = stats.avgdl();
    let dl = doc_len as f32;
    let mut score = 0.0f32;
    for (&tf, &w) in tfs.iter().zip(&weights) {
        if tf > 0 {
            score += w * tf_part(tf, dl, avgdl);
        }
    }
    score
}

/// Decoding position inside one block.
#[derive(Debug, Clone, Copy)]
struct BlockCursor {
    /// Byte position in the term's postings stream.
    pos: usize,
    /// Postings consumed from this block.
    taken: u32,
    doc: u32,
    tf: u32,
}

impl BlockCursor {
    fn start(bytes: &[u8], b: &Block) -> BlockCursor {
        let mut pos = b.offset as usize;
        let tf = read_varint(bytes, &mut pos) as u32;
        BlockCursor {
            pos,
            taken: 1,
            doc: b.first_doc,
            tf,
        }
    }

    /// Advance within the block; `false` once the block is exhausted.
    fn advance_in(&mut self, bytes: &[u8], b: &Block) -> bool {
        if self.taken >= b.len {
            return false;
        }
        let gap = read_varint(bytes, &mut self.pos) as u32;
        self.doc += gap;
        self.tf = read_varint(bytes, &mut self.pos) as u32;
        self.taken += 1;
        true
    }
}

/// DAAT cursor over one term's postings with block skipping.
struct TermCursor<'a> {
    p: &'a Postings,
    weight: f32,
    block_idx: usize,
    cur: BlockCursor,
    done: bool,
}

impl<'a> TermCursor<'a> {
    fn new(p: &'a Postings, weight: f32) -> TermCursor<'a> {
        let cur = BlockCursor::start(&p.bytes, &p.blocks[0]);
        TermCursor {
            p,
            weight,
            block_idx: 0,
            cur,
            done: false,
        }
    }

    fn block(&self) -> &Block {
        &self.p.blocks[self.block_idx]
    }

    /// Upper bound of this term's contribution anywhere in its current
    /// block, under the current average document length.
    fn block_upper_bound(&self, avgdl: f32) -> f32 {
        let b = self.block();
        self.weight * tf_part(b.max_tf, b.min_dl as f32, avgdl)
    }

    fn next(&mut self) {
        let b: &'a Block = &self.p.blocks[self.block_idx];
        if self.cur.advance_in(&self.p.bytes, b) {
            return;
        }
        self.block_idx += 1;
        if self.block_idx >= self.p.blocks.len() {
            self.done = true;
            return;
        }
        self.cur = BlockCursor::start(&self.p.bytes, &self.p.blocks[self.block_idx]);
    }

    /// Jump to the first posting with `doc > target`, using the block
    /// directory to avoid decoding skipped blocks.
    fn skip_past(&mut self, target: u32) {
        if self.done || self.cur.doc > target {
            return;
        }
        if self.block().last_doc <= target {
            let bi = self.p.blocks.partition_point(|b| b.last_doc <= target);
            if bi >= self.p.blocks.len() {
                self.done = true;
                return;
            }
            self.block_idx = bi;
            self.cur = BlockCursor::start(&self.p.bytes, &self.p.blocks[bi]);
        }
        while self.cur.doc <= target {
            let b: &'a Block = &self.p.blocks[self.block_idx];
            if !self.cur.advance_in(&self.p.bytes, b) {
                self.block_idx += 1;
                if self.block_idx >= self.p.blocks.len() {
                    self.done = true;
                    return;
                }
                self.cur = BlockCursor::start(&self.p.bytes, &self.p.blocks[self.block_idx]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// serialized form: varint counts and varint-length-prefixed terms

/// A varint element count, checked by the count rule (every element takes
/// at least one byte).
fn read_count(r: &mut Reader<'_>) -> Result<usize> {
    let n = r.varint()?;
    r.count(n, 1)
}

fn put_term(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_term(r: &mut Reader<'_>) -> Result<String> {
    let len = read_count(r)?;
    r.utf8(len)
}

/// Decode a varint from a trusted in-memory postings stream.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::rng::Rng;

    fn corpus() -> Vec<String> {
        // Deterministic synthetic corpus: zipf-ish vocabulary.
        let mut rng = Rng::seed_from_u64(7);
        let vocab: Vec<String> = (0..60).map(|i| format!("w{i}")).collect();
        (0..500)
            .map(|_| {
                let len = 3 + (rng.next_u64() % 20) as usize;
                (0..len)
                    .map(|_| {
                        // Skewed: low ids are common, high ids rare.
                        let r = (rng.next_u64() % 100) as usize;
                        let id = if r < 60 {
                            r % 8
                        } else {
                            8 + (rng.next_u64() as usize % 52)
                        };
                        vocab[id].clone()
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }

    fn build(docs: &[String]) -> TextIndex {
        let mut ix = TextIndex::new();
        for d in docs {
            ix.push_doc(d);
        }
        ix
    }

    /// Naive reference: tokenize every doc, score with the formulas.
    fn naive_topk(docs: &[String], ix: &TextIndex, query: &str, k: usize) -> Vec<TextHit> {
        let terms = ix.query_terms(query);
        let stats = ix.corpus_stats(&terms);
        let mut hits: Vec<TextHit> = docs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| {
                let toks = ix.analyze(d);
                let tfs: Vec<u32> = terms
                    .iter()
                    .map(|(t, _)| toks.iter().filter(|x| *x == t).count() as u32)
                    .collect();
                if tfs.iter().all(|&t| t == 0) {
                    return None;
                }
                Some(TextHit {
                    doc: i as u32,
                    score: bm25_score(&terms, &tfs, toks.len() as u32, &stats),
                })
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        hits.truncate(k);
        hits
    }

    #[test]
    fn tokenizer_basics() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("  ...  "), Vec::<String>::new());
        assert_eq!(tokenize("a1-b2"), vec!["a1", "b2"]);
    }

    #[test]
    fn tokenizer_unicode() {
        assert_eq!(tokenize("Café au lait"), vec!["café", "au", "lait"]);
        assert_eq!(tokenize("ΣΟΦΙΑ"), vec!["σοφια"]);
        // CJK has no case and no spaces between clauses split by punctuation.
        assert_eq!(tokenize("向量数据库，很好"), vec!["向量数据库", "很好"]);
    }

    #[test]
    fn stopwords_filter_docs_and_queries() {
        let mut ix = TextIndex::with_stopwords(DEFAULT_STOPWORDS.iter().copied());
        ix.push_doc("the quick brown fox");
        assert_eq!(ix.df("the"), 0);
        assert_eq!(ix.df("quick"), 1);
        assert!(ix.query_terms("the of and").is_empty());
        assert!(ix.search("the of and", 5).is_empty());
    }

    #[test]
    fn duplicate_query_terms_fold_into_qtf() {
        let ix = build(&corpus());
        let once = ix.query_terms("w1");
        let thrice = ix.query_terms("w1 w1 w1");
        assert_eq!(once[0].1, 1);
        assert_eq!(thrice[0].1, 3);
        // Tripled weight scales scores but not the ranking.
        let a = ix.search("w1", 10);
        let b = ix.search("w1 w1 w1", 10);
        let ra: Vec<u32> = a.iter().map(|h| h.doc).collect();
        let rb: Vec<u32> = b.iter().map(|h| h.doc).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn single_document_corpus() {
        let mut ix = TextIndex::new();
        ix.push_doc("lone document about databases");
        let hits = ix.search("databases", 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 0);
        assert!(hits[0].score > 0.0);
        assert!(ix.search("missing", 3).is_empty());
    }

    #[test]
    fn empty_docs_keep_ids_aligned() {
        let mut ix = TextIndex::new();
        assert_eq!(ix.push_doc(""), 0);
        assert_eq!(ix.push_doc("real text"), 1);
        assert_eq!(ix.n_docs(), 2);
        assert_eq!(ix.doc_len(0), 0);
        let hits = ix.search("text", 2);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 1);
    }

    #[test]
    fn bm25_matches_naive_reference() {
        let docs = corpus();
        let ix = build(&docs);
        for q in ["w0", "w3 w9", "w20 w0 w55", "w59"] {
            for k in [1, 5, 20] {
                let fast = ix.search_exhaustive(q, k);
                let slow = naive_topk(&docs, &ix, q, k);
                assert_eq!(fast.len(), slow.len(), "query {q} k {k}");
                for (f, s) in fast.iter().zip(&slow) {
                    assert_eq!(f.doc, s.doc, "query {q} k {k}");
                    assert!(
                        (f.score - s.score).abs() < 1e-4,
                        "query {q}: {f:?} vs {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_max_bit_identical_to_exhaustive() {
        let docs = corpus();
        let ix = build(&docs);
        for q in ["w0", "w0 w1 w2", "w3 w9 w40", "w59 w58", "w7 w7 w12"] {
            for k in [1, 3, 10, 50, 1000] {
                let fast = ix.search(q, k);
                let slow = ix.search_exhaustive(q, k);
                assert_eq!(fast, slow, "query {q} k {k} diverged");
            }
        }
    }

    #[test]
    fn tf_vector_and_df_consistent_with_postings() {
        let docs = corpus();
        let ix = build(&docs);
        let terms = ix.query_terms("w0 w10 w59 nosuchterm");
        let mut dfs = vec![0u64; terms.len()];
        for (i, d) in docs.iter().enumerate() {
            let toks = ix.analyze(d);
            let tfs = ix.tf_vector(i as u32, &terms);
            for (j, (t, _)) in terms.iter().enumerate() {
                let want = toks.iter().filter(|x| *x == t).count() as u32;
                assert_eq!(tfs[j], want, "doc {i} term {t}");
                if want > 0 {
                    dfs[j] += 1;
                }
            }
        }
        let stats = ix.corpus_stats(&terms);
        assert_eq!(stats.dfs, dfs);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ix = build(&corpus());
        let bytes = ix.encode();
        let back = TextIndex::decode(&bytes).unwrap();
        assert_eq!(back, ix);
        // Decoded index answers queries identically.
        assert_eq!(back.search("w0 w5", 10), ix.search("w0 w5", 10));
    }

    #[test]
    fn decode_rejects_damage_and_future_versions() {
        let ix = build(&corpus()[..20]);
        let bytes = ix.encode();
        assert!(TextIndex::decode(&bytes[..3]).is_err());
        for cut in 5..bytes.len() {
            assert!(TextIndex::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut future = bytes.clone();
        future[4] = 99;
        assert!(matches!(
            TextIndex::decode(&future),
            Err(Error::Unsupported(_))
        ));
        // One stopword whose length varint is 2^64 - 3: the end offset
        // overflows instead of running past the buffer.
        let mut huge = TEXT_MAGIC.to_vec();
        huge.push(TEXT_VERSION);
        put_varint(&mut huge, 1);
        put_varint(&mut huge, u64::MAX - 2);
        huge.extend_from_slice(b"abc");
        assert_eq!(huge.len(), 19);
        assert!(matches!(TextIndex::decode(&huge), Err(Error::Corrupt(_))));
    }

    #[test]
    fn segment_stats_sum_to_global() {
        let docs = corpus();
        let (a, b) = docs.split_at(200);
        let (ia, ib, all) = (build(a), build(b), build(&docs));
        let terms = all.query_terms("w0 w30");
        let mut s = ia.corpus_stats(&terms);
        s.add(&ib.corpus_stats(&terms));
        assert_eq!(s, all.corpus_stats(&terms));
    }
}
