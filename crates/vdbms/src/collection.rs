//! Collections: schema-validated vectors + attributes + a main index +
//! an out-of-place update buffer (§2.3(3)), with **online maintenance**.
//!
//! Writes land in a WAL (durability) and the update buffer (searchable
//! immediately: one row per key holding its newest vector and
//! attributes, plus tombstones); the data-dependent main index is folded
//! in bulk when the buffer crosses a threshold — the "apply updates in
//! bulk at a more appropriate time" pattern of AnalyticDB-V/Vald. Reads
//! overlay the buffer on the main index — a buffered row or tombstone
//! hides the key's main row — so callers always observe their own writes.
//! A merge retires exactly the buffered writes it folded in, so a write
//! that lands during a background merge survives it.
//!
//! A published main part is never mutated: every merge builds its
//! replacement off to the side — searches keep running against the old
//! one — and swaps it in atomically via [`vdb_core::sync::Published`].
//! So every row of the main part backs exactly one key, and readers
//! trust any row an index returns. Two maintenance modes ([`MergeMode`]):
//!
//! - **Blocking** (default): the merge runs inline on the writing thread,
//!   exactly like the classic stop-the-world rebuild.
//! - **Background**: a maintenance thread runs the merge. Writers never
//!   block on a rebuild; a bounded buffer sheds load with [`Error::Busy`]
//!   instead of stalling.
//!
//! Durability: every insert/delete is WAL-logged (vector *and*
//! attributes) and fsynced before it is acknowledged. Each merge ends
//! with a checkpoint — an atomic snapshot of the merged state
//! ([`vdb_storage::snapshot`]) written durably *before* the new index is
//! published, then a WAL rewrite that retires exactly the merged prefix
//! (records buffered during the rebuild survive as the new tail). Replay
//! over a snapshot is idempotent (inserts overwrite, deletes tombstone),
//! so every crash point in the protocol recovers to a consistent state.
//! The snapshot carries the image of the index it describes
//! ([`VectorIndex::image`]) when the family has one, so recovery loads
//! the served graph instead of rebuilding it.

use crate::buffer::Buffer;
use crate::indexspec::IndexSpec;
use crate::schema::CollectionSchema;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Instant;
use vdb_core::attr::AttrValue;
use vdb_core::context::ContextPool;
use vdb_core::error::{Error, Result};
use vdb_core::index::{SearchParams, VectorIndex};
use vdb_core::parallel::BuildOptions;
use vdb_core::sync::{Mutex, Published};
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;
use vdb_query::{
    bm25_score, execute_with, fuse, text_selectivity, CompiledPredicate, CorpusStats, Fusion,
    HybridCandidate, HybridHit, HybridStrategy, Planner, PlannerMode, Predicate, QueryContext,
    Strategy, TextIndex, VectorQuery, DEFAULT_STOPWORDS,
};
use vdb_storage::{
    decode_shipped, ship_record, snapshot, AttributeStore, Checkpoint, Column, Snapshot,
    SnapshotColumn, Wal, WalRecord,
};

/// Primary-side replication hook: called under the write lock with each
/// acknowledged mutation's LSN and its shipped frame (one
/// [`vdb_storage::ship_record`] frame — LSN-stamped, CRC-framed WAL
/// encoding), *after* the mutation is locally durable and applied but
/// *before* the write is acknowledged. Returning an error fails the
/// write's acknowledgement (the local apply stands: at-least-once, which
/// is safe because keyed inserts/deletes are idempotent). The sink must
/// not call back into the collection (it runs under the write-side lock).
pub type ReplicationSink = Arc<dyn Fn(u64, &[u8]) -> Result<()> + Send + Sync>;

/// A search result at the facade level: external key plus distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Caller-assigned key.
    pub key: u64,
    /// Distance under the collection metric (lower = more similar).
    pub dist: f32,
}

/// Integer scoring inputs behind one hybrid hit — what a distributed
/// merger needs to re-score the hit under *global* corpus statistics
/// (term frequencies and lengths add across shards; floats do not).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HybridDetail {
    /// Token count of the hit's document.
    pub doc_len: u32,
    /// Term frequency per analyzed query term, in query-term order.
    pub tfs: Vec<u32>,
}

/// Result of a hybrid text + vector search over one node.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridResult {
    /// Fused top-k, best first.
    pub hits: Vec<HybridHit>,
    /// Scoring inputs aligned with `hits`.
    pub details: Vec<HybridDetail>,
    /// This node's corpus statistics for the analyzed query terms;
    /// element-wise addable across disjoint shards.
    pub stats: CorpusStats,
    /// Strategy actually executed (planned or caller-forced).
    pub strategy: HybridStrategy,
}

/// The text-column payload of an attribute value (NULL and non-string
/// values index as the empty document).
fn text_of(value: &AttrValue) -> &str {
    match value {
        AttrValue::Str(s) => s.as_str(),
        _ => "",
    }
}

/// Tokenize rows `0..n_rows` of the schema's text column into a fresh
/// inverted index (None when the schema registers no text column).
fn build_text_index(
    schema: &CollectionSchema,
    attrs: &AttributeStore,
    n_rows: usize,
) -> Result<Option<TextIndex>> {
    let Some(col) = &schema.text_column else {
        return Ok(None);
    };
    let column = attrs.column(col)?;
    let mut ix = TextIndex::with_stopwords(DEFAULT_STOPWORDS.iter().copied());
    for row in 0..n_rows {
        ix.push_doc(text_of(column.get(row)));
    }
    Ok(Some(ix))
}

/// How buffered updates are folded into the main index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeMode {
    /// Stop-the-world: the merge runs inline on the writing thread.
    #[default]
    Blocking,
    /// Rebuild on a maintenance thread and swap atomically; writers
    /// shed load with [`Error::Busy`] once the buffer hits its bound.
    Background,
}

impl MergeMode {
    /// Short stable name (wire/config surface).
    pub fn name(&self) -> &'static str {
        match self {
            MergeMode::Blocking => "blocking",
            MergeMode::Background => "background",
        }
    }
}

/// Collection tuning.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Main-index specification.
    pub index: IndexSpec,
    /// Buffer size (live keys) that triggers a merge/rebuild.
    pub merge_threshold: usize,
    /// Where merges run (inline on the writer, or on a background
    /// thread); either way the result is published atomically.
    pub merge_mode: MergeMode,
    /// Buffer bound for [`MergeMode::Background`]: inserts beyond this
    /// depth fail with [`Error::Busy`] until maintenance catches up.
    /// `0` = auto (4× `merge_threshold`). Ignored in
    /// [`MergeMode::Blocking`], where the writer merges inline instead of
    /// outrunning it.
    pub max_buffer: usize,
    /// Planner mode for hybrid queries.
    pub planner: PlannerMode,
    /// Directory for the write-ahead log (None = no durability).
    pub wal_dir: Option<PathBuf>,
    /// Build options for merge-time index rebuilds and replica installs.
    /// Defaults to serial so a rebuild never competes with searches for
    /// cores; `threads > 1` shortens rebuilds without changing the index
    /// they produce. [`Collection::recover`] ignores it and builds with
    /// every core, since nothing is served beside a recovery.
    pub build: BuildOptions,
}

impl Default for CollectionConfig {
    fn default() -> Self {
        CollectionConfig {
            index: IndexSpec::Hnsw(Default::default()),
            merge_threshold: 512,
            merge_mode: MergeMode::Blocking,
            max_buffer: 0,
            planner: PlannerMode::CostBased,
            wal_dir: None,
            build: BuildOptions::serial(),
        }
    }
}

/// Observable collection counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionStats {
    /// Live entities.
    pub live: usize,
    /// Rows covered by the main index.
    pub indexed: usize,
    /// Rows waiting in the update buffer.
    pub buffered: usize,
    /// Merges (index rebuilds) performed.
    pub merges: usize,
    /// Main index name ("none" before the first merge).
    pub index_name: &'static str,
    /// Buffer depth that triggers maintenance.
    pub merge_threshold: usize,
    /// Buffer bound for background-mode admission control.
    pub max_buffer: usize,
    /// Active [`MergeMode`] name.
    pub merge_mode: &'static str,
    /// Merges currently executing (0 or 1 per collection).
    pub rebuilds_in_flight: usize,
    /// Duration of the last atomic publication (the write-blocking
    /// window), in microseconds.
    pub last_swap_micros: u64,
    /// Background merges that failed (left for the next nudge/retry).
    pub failed_merges: usize,
    /// Whether the published index was loaded from a snapshot's index
    /// image rather than built (true after a recovery or replica install
    /// that took the image path, until the next rebuild).
    pub index_from_image: bool,
}

/// The published (indexed) part: an immutable snapshot that maintenance
/// replaces atomically. Row `i` of `vectors`, `attrs`, `row_keys`, the
/// index and the text index all describe the one key `row_keys[i]`.
struct Main {
    vectors: Vectors,
    attrs: AttributeStore,
    row_keys: Vec<u64>,
    key_to_row: HashMap<u64, usize>,
    index: Option<Box<dyn VectorIndex>>,
    /// `index` was loaded from a snapshot image, not built.
    index_from_image: bool,
    /// BM25 inverted index over the schema's text column, doc ids
    /// aligned with row indices (Some iff the schema registers one).
    text: Option<TextIndex>,
}

impl Main {
    /// Every row backs exactly one key and every key one row.
    fn is_aligned(&self) -> bool {
        self.row_keys.len() == self.key_to_row.len() && self.key_to_row.len() == self.vectors.len()
    }
}

/// The write-side state: update buffer, WAL handle, and the count of
/// main rows hidden by newer buffered versions. One mutex — every
/// acknowledged write holds it across WAL append + buffer insert.
struct Pending {
    buffer: Buffer,
    wal: Option<Wal>,
    /// Main-part rows hidden by the buffer (tombstoned or shadowed by a
    /// newer buffered version), maintained incrementally so `len()` and
    /// the search over-fetch never rescan `row_keys`.
    shadowed: usize,
    /// Logical mutation counter (replication LSN): incremented by every
    /// applied insert/delete, including replay. Gap-free within a
    /// process lifetime; a replica whose counter matches the primary's
    /// holds the same logical state.
    lsn: u64,
}

/// Lock-free maintenance counters (readable without any lock).
#[derive(Default)]
struct MaintStats {
    merges: AtomicUsize,
    rebuilds_in_flight: AtomicUsize,
    last_swap_micros: AtomicU64,
    failed_merges: AtomicUsize,
}

struct MaintFlags {
    shutdown: bool,
    nudges: u64,
}

/// Condvar-based doorbell for the maintenance thread.
struct MaintSignal {
    state: Mutex<MaintFlags>,
    cv: Condvar,
}

/// Shared collection state. Lock order everywhere: `merge_gate` →
/// `pending` → `main` (never the reverse).
struct Inner {
    schema: CollectionSchema,
    cfg: CollectionConfig,
    main: Published<Main>,
    pending: Mutex<Pending>,
    /// Serializes merges (maintenance thread vs explicit `merge()`).
    merge_gate: Mutex<()>,
    stats: MaintStats,
    maint: MaintSignal,
    /// Primary-side replication hook (None when not replicating).
    repl: Mutex<Option<ReplicationSink>>,
}

/// A vector collection with hybrid search, out-of-place updates, and
/// online index maintenance.
pub struct Collection {
    inner: Arc<Inner>,
    planner: Planner,
    // Warm search scratch shared by concurrent `&self` searchers.
    contexts: ContextPool,
    worker: Option<JoinHandle<()>>,
}

impl Collection {
    /// Shared constructor core: everything but durability + the worker.
    fn offline(schema: CollectionSchema, cfg: CollectionConfig) -> Result<Self> {
        schema.validate()?;
        let mut attrs = AttributeStore::new();
        for (name, ty) in &schema.columns {
            attrs.add_column(Column::new(name.clone(), *ty))?;
        }
        let buffer = Buffer::new(schema.dim);
        let planner = Planner::new(cfg.planner);
        let main = Main {
            vectors: Vectors::new(schema.dim),
            attrs,
            row_keys: Vec::new(),
            key_to_row: HashMap::new(),
            index: None,
            index_from_image: false,
            text: schema
                .text_column
                .as_ref()
                .map(|_| TextIndex::with_stopwords(DEFAULT_STOPWORDS.iter().copied())),
        };
        let inner = Arc::new(Inner {
            main: Published::new(main),
            pending: Mutex::new(Pending {
                buffer,
                wal: None,
                shadowed: 0,
                lsn: 0,
            }),
            repl: Mutex::new(None),
            merge_gate: Mutex::new(()),
            stats: MaintStats::default(),
            maint: MaintSignal {
                state: Mutex::new(MaintFlags {
                    shutdown: false,
                    nudges: 0,
                }),
                cv: Condvar::new(),
            },
            schema,
            cfg,
        });
        Ok(Collection {
            inner,
            planner,
            contexts: ContextPool::new(),
            worker: None,
        })
    }

    /// Create an empty collection.
    pub fn create(schema: CollectionSchema, cfg: CollectionConfig) -> Result<Self> {
        let mut c = Collection::offline(schema, cfg)?;
        if let Some(dir) = &c.inner.cfg.wal_dir {
            std::fs::create_dir_all(dir)?;
            let wal = Wal::open(dir.join(format!("{}.wal", c.inner.schema.name)))?;
            c.inner.pending.lock().wal = Some(wal);
        }
        c.start_maintenance();
        Ok(c)
    }

    /// Recover a collection from its durability directory: load the last
    /// checkpoint snapshot (if any), then replay the WAL tail on top of
    /// it. Replay is idempotent over the snapshot, so every crash point
    /// in the checkpoint protocol recovers to a consistent state. An index
    /// the snapshot holds no usable image of is built with
    /// [`BuildOptions::default`] (every core): nothing is served yet.
    pub fn recover(schema: CollectionSchema, cfg: CollectionConfig) -> Result<Self> {
        let Some(dir) = cfg.wal_dir.clone() else {
            return Err(Error::InvalidParameter(
                "recovery requires a wal_dir".into(),
            ));
        };
        let wal_path = dir.join(format!("{}.wal", schema.name));
        let snap_path = dir.join(format!("{}.snap", schema.name));
        std::fs::create_dir_all(&dir)?;
        let records = Wal::replay(&wal_path)?;
        let ckpt = snapshot::read(&snap_path)?;
        // Replay without a WAL handle (no re-logging, no checkpointing —
        // the WAL tail must survive until the next live checkpoint) and
        // without the worker (replay merges run inline).
        let mut c = Collection::offline(schema, cfg)?;
        if let Some(ckpt) = ckpt {
            c.install_snapshot(ckpt, &BuildOptions::default())?;
        }
        for rec in &records {
            c.apply(rec)?;
        }
        c.inner.pending.lock().wal = Some(Wal::open(&wal_path)?);
        c.start_maintenance();
        Ok(c)
    }

    /// Install a checkpoint snapshot as the main (indexed) part. The
    /// snapshot must match the schema exactly. The index is loaded from
    /// the checkpoint's image when one was written by this collection's
    /// index spec (same fingerprint) over exactly these rows and it
    /// decodes and validates; otherwise — legacy snapshot, changed spec,
    /// family without an image, damaged image — it is rebuilt from the
    /// snapshot vectors with `build`, so a changed spec is honored, not
    /// rejected.
    fn install_snapshot(&mut self, ckpt: Checkpoint, build: &BuildOptions) -> Result<()> {
        let Checkpoint {
            snapshot: snap,
            index: image,
        } = ckpt;
        let schema = &self.inner.schema;
        if snap.vectors.dim() != schema.dim {
            return Err(Error::Corrupt(format!(
                "snapshot dimension {} does not match schema dimension {}",
                snap.vectors.dim(),
                schema.dim
            )));
        }
        if snap.vectors.len() != snap.row_keys.len() {
            return Err(Error::Corrupt(
                "snapshot keys and vectors are misaligned".into(),
            ));
        }
        if snap.columns.len() != schema.columns.len() {
            return Err(Error::Corrupt(
                "snapshot column set does not match schema".into(),
            ));
        }
        let mut attrs = AttributeStore::new();
        for (col, (name, ty)) in snap.columns.into_iter().zip(&schema.columns) {
            if col.name != *name || col.ty != *ty {
                return Err(Error::Corrupt(format!(
                    "snapshot column `{}` does not match schema column `{name}`",
                    col.name
                )));
            }
            attrs.add_column(Column::from_values(col.name, col.ty, col.values)?)?;
        }
        let mut key_to_row = HashMap::with_capacity(snap.row_keys.len());
        for (row, &key) in snap.row_keys.iter().enumerate() {
            if key_to_row.insert(key, row).is_some() {
                return Err(Error::Corrupt(format!("duplicate key {key} in snapshot")));
            }
        }
        let spec = &self.inner.cfg.index;
        let loaded = image
            .filter(|_| !snap.vectors.is_empty() && snap.fingerprint == spec.fingerprint())
            .and_then(|bytes| {
                spec.load(&bytes, &snap.vectors, schema.metric.clone())
                    .ok()
                    .flatten()
            });
        let index_from_image = loaded.is_some();
        let index = match loaded {
            Some(index) => Some(index),
            None if snap.vectors.is_empty() => None,
            None => Some(spec.build_with(snap.vectors.clone(), schema.metric.clone(), build)?),
        };
        // Prefer the snapshot's serialized inverted index; fall back to a
        // rebuild from the text column for legacy images, damaged/alien
        // text sections, or doc-count misalignment. Either path yields
        // the same postings — the section only skips retokenization.
        let text = if schema.text_column.is_some() {
            let decoded = snap
                .text
                .as_ref()
                .and_then(|bytes| TextIndex::decode(bytes).ok())
                .filter(|ix| ix.n_docs() as usize == snap.row_keys.len());
            match decoded {
                Some(ix) => Some(ix),
                None => build_text_index(schema, &attrs, snap.row_keys.len())?,
            }
        } else {
            None
        };
        let main = Main {
            vectors: snap.vectors,
            attrs,
            row_keys: snap.row_keys,
            key_to_row,
            index,
            index_from_image,
            text,
        };
        debug_assert!(main.is_aligned(), "installed rows and keys disagree");
        self.inner.main.install(main);
        self.inner.pending.lock().shadowed = 0;
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &CollectionSchema {
        &self.inner.schema
    }

    /// Live entity count. O(1): the shadowed-row count is maintained
    /// incrementally by insert/delete/merge instead of rescanning
    /// `row_keys` per call.
    pub fn len(&self) -> usize {
        let p = self.inner.pending.lock();
        let m = self.inner.main.read();
        debug_assert_eq!(
            p.shadowed,
            m.row_keys.iter().filter(|&&k| p.buffer.hides(k)).count(),
            "the shadowed-row count diverged from a full rescan"
        );
        m.row_keys.len() - p.shadowed + p.buffer.len()
    }

    /// Whether the collection holds no live entities.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters.
    pub fn stats(&self) -> CollectionStats {
        let p = self.inner.pending.lock();
        let m = self.inner.main.read();
        let stats = &self.inner.stats;
        CollectionStats {
            live: m.row_keys.len() - p.shadowed + p.buffer.len(),
            indexed: m.vectors.len(),
            buffered: p.buffer.len(),
            merges: stats.merges.load(Ordering::Relaxed),
            index_name: m.index.as_ref().map(|i| i.name()).unwrap_or("none"),
            merge_threshold: self.inner.cfg.merge_threshold,
            max_buffer: self.inner.max_buffer(),
            merge_mode: self.inner.cfg.merge_mode.name(),
            rebuilds_in_flight: stats.rebuilds_in_flight.load(Ordering::Relaxed),
            last_swap_micros: stats.last_swap_micros.load(Ordering::Relaxed),
            failed_merges: stats.failed_merges.load(Ordering::Relaxed),
            index_from_image: m.index_from_image,
        }
    }

    /// Insert (or overwrite) `key`. Attributes not listed default to NULL.
    ///
    /// Takes `&self`, like every mutator: the collection's write-side lock
    /// orders WAL append + sync, LSN, buffer put and replication ship, so
    /// writers need no exclusion from searches or from each other.
    ///
    /// With a maintenance worker ([`MergeMode::Background`]) a full buffer
    /// fails fast with [`Error::Busy`] (admission control) instead of
    /// stalling the writer; without one (blocking mode, log replay) the
    /// buffer is merged inline.
    pub fn insert(&self, key: u64, vector: &[f32], attrs: &[(&str, AttrValue)]) -> Result<()> {
        let inner = &self.inner;
        if vector.len() != inner.schema.dim {
            return Err(Error::DimensionMismatch {
                expected: inner.schema.dim,
                actual: vector.len(),
            });
        }
        // Validate attribute names/types against the schema up front.
        for (name, value) in attrs {
            let ty = inner
                .schema
                .columns
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, t)| *t)
                .ok_or_else(|| Error::InvalidParameter(format!("unknown column `{name}`")))?;
            value.check_type(ty)?;
        }
        let owned_attrs: Vec<(String, AttrValue)> = attrs
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        // Replay runs with no worker, so it merges inline and backpressure
        // never rejects a logged write.
        let background = self.worker.is_some();
        let sink = inner.repl.lock().clone();
        let over = {
            let mut p = inner.pending.lock();
            if background && p.buffer.len() >= inner.max_buffer() {
                return Err(Error::Busy);
            }
            // One owned record: logged and encoded for shipping from a
            // borrow, then its vector and attributes move into the buffer.
            let record = WalRecord::Insert {
                key,
                vector: vector.to_vec(),
                attrs: owned_attrs,
            };
            if let Some(wal) = &mut p.wal {
                wal.append(&record)?;
                wal.sync()?;
            }
            let lsn = p.lsn + 1;
            let frame = sink.as_ref().map(|_| {
                let mut frame = Vec::new();
                ship_record(&mut frame, lsn, &record);
                frame
            });
            let WalRecord::Insert { vector, attrs, .. } = record else {
                unreachable!("built as an insert above")
            };
            if !p.buffer.hides(key) && inner.main.read().key_to_row.contains_key(&key) {
                p.shadowed += 1;
            }
            p.buffer.put(key, vector, attrs);
            p.lsn = lsn;
            if let (Some(sink), Some(frame)) = (sink, frame) {
                // Ship after the local apply, before the ack: an error
                // here fails the acknowledgement (the idempotent local
                // apply stands), so an acked write is always replicated.
                sink(lsn, &frame)?;
            }
            p.buffer.len() >= inner.cfg.merge_threshold
        };
        if over {
            if background {
                inner.nudge();
            } else {
                inner.merge_now(false)?;
            }
        }
        Ok(())
    }

    /// Delete `key` (tombstone; space reclaimed at the next merge). Takes
    /// `&self` under the same write-side lock as [`Collection::insert`].
    pub fn delete(&self, key: u64) -> Result<()> {
        let inner = &self.inner;
        let sink = inner.repl.lock().clone();
        let mut p = inner.pending.lock();
        if let Some(wal) = &mut p.wal {
            wal.append(&WalRecord::Delete { key })?;
            wal.sync()?;
        }
        if !p.buffer.hides(key) && inner.main.read().key_to_row.contains_key(&key) {
            p.shadowed += 1;
        }
        p.buffer.delete(key);
        p.lsn += 1;
        if let Some(sink) = sink {
            let mut frame = Vec::new();
            ship_record(&mut frame, p.lsn, &WalRecord::Delete { key });
            sink(p.lsn, &frame)?;
        }
        Ok(())
    }

    /// Fetch the newest live version of `key`'s attributes, in schema
    /// column order (columns never set are Null, matching query
    /// semantics).
    pub fn get_attrs(&self, key: u64) -> Option<Vec<(String, AttrValue)>> {
        let schema = &self.inner.schema;
        let p = self.inner.pending.lock();
        if p.buffer.is_deleted(key) {
            return None;
        }
        if let Some(row) = p.buffer.get(key) {
            return Some(
                schema
                    .columns
                    .iter()
                    .map(|(name, _)| {
                        let v = row.attr(name).cloned().unwrap_or(AttrValue::Null);
                        (name.clone(), v)
                    })
                    .collect(),
            );
        }
        let m = self.inner.main.read();
        let &row = m.key_to_row.get(&key)?;
        Some(
            schema
                .columns
                .iter()
                .map(|(name, _)| {
                    (
                        name.clone(),
                        m.attrs
                            .column(name)
                            .expect("schema column")
                            .get(row)
                            .clone(),
                    )
                })
                .collect(),
        )
    }

    /// Every live key, sorted (state enumeration for audits and the
    /// crash-recovery harness).
    pub fn keys(&self) -> Vec<u64> {
        let p = self.inner.pending.lock();
        let m = self.inner.main.read();
        let mut out: Vec<u64> = m
            .row_keys
            .iter()
            .copied()
            .filter(|&k| !p.buffer.hides(k))
            .collect();
        out.extend(p.buffer.keys());
        out.sort_unstable();
        out
    }

    /// Fetch the newest live version of `key`'s vector.
    pub fn get(&self, key: u64) -> Option<Vec<f32>> {
        let p = self.inner.pending.lock();
        if p.buffer.is_deleted(key) {
            return None;
        }
        if let Some(row) = p.buffer.get(key) {
            return Some(row.vector.clone());
        }
        let m = self.inner.main.read();
        m.key_to_row
            .get(&key)
            .map(|&row| m.vectors.get(row).to_vec())
    }

    /// Force a merge: fold the buffer into the main part (§2.3(3)
    /// "applying them in bulk at a more appropriate time") under the
    /// active [`MergeMode`], then checkpoint when durable. When this
    /// returns, every previously-acknowledged write is reflected by the
    /// published index. Takes `&self`: merges serialize on the merge gate
    /// and publish by swap, so searches and writes continue throughout.
    pub fn merge(&self) -> Result<()> {
        self.inner.merge_now(false).map(|_| ())
    }

    /// Durably checkpoint the collection: fold any buffered updates into
    /// the main part, write an atomic snapshot of the merged state, and
    /// retire the merged WAL prefix. Requires durability (`wal_dir`).
    /// Takes `&self`, like [`Collection::merge`].
    pub fn checkpoint(&self) -> Result<()> {
        if self.inner.pending.lock().wal.is_none() {
            return Err(Error::Unsupported(
                "checkpoint requires a collection with wal_dir".into(),
            ));
        }
        self.inner.merge_now(true).map(|_| ())
    }

    /// Path of the write-ahead log, when durability is enabled.
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.inner
            .cfg
            .wal_dir
            .as_ref()
            .map(|d| d.join(format!("{}.wal", self.inner.schema.name)))
    }

    /// Path of the checkpoint snapshot, when durability is enabled.
    pub fn snapshot_path(&self) -> Option<PathBuf> {
        self.inner.snapshot_path()
    }

    /// Current replication LSN: the number of mutations applied over the
    /// collection's lifetime in this process (see [`Pending::lsn`] rules:
    /// gap-free, strictly increasing, bumped by replay too).
    pub fn replication_lsn(&self) -> u64 {
        self.inner.pending.lock().lsn
    }

    /// Install (or clear) the primary-side replication sink. Once set,
    /// every subsequent acknowledged insert/delete invokes the sink with
    /// its LSN and shipped frame before the write returns. Setting the
    /// sink does not replay history — pair it with
    /// [`Collection::export_replica_state`] under the caller's write
    /// exclusion so no mutation falls between the export and the hook.
    pub fn set_replication_sink(&self, sink: Option<ReplicationSink>) {
        *self.inner.repl.lock() = sink;
    }

    /// Apply one replicated record with idempotent, gap-detecting LSN
    /// rules: `lsn <= current` is a re-shipped duplicate and is skipped
    /// (`Ok(false)`); `lsn == current + 1` applies (`Ok(true)`); anything
    /// further ahead is a gap — the replica missed records and must
    /// re-bootstrap ([`Error::Corrupt`]).
    pub fn apply_replicated(&mut self, lsn: u64, record: &WalRecord) -> Result<bool> {
        let applied = self.inner.pending.lock().lsn;
        if lsn <= applied {
            return Ok(false);
        }
        if lsn != applied + 1 {
            return Err(Error::Corrupt(format!(
                "replication gap: replica at LSN {applied}, received {lsn}"
            )));
        }
        self.apply(record)?;
        Ok(true)
    }

    /// Apply one logged mutation as a write: WAL replay, a replica's
    /// bootstrap tail and replicated records all go through here.
    fn apply(&self, record: &WalRecord) -> Result<()> {
        match record {
            WalRecord::Insert { key, vector, attrs } => {
                let attr_refs: Vec<(&str, AttrValue)> =
                    attrs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
                self.insert(*key, vector, &attr_refs)
            }
            WalRecord::Delete { key } => self.delete(*key),
        }
    }

    /// Apply a shipped replication stream ([`vdb_storage::ship_record`]
    /// frames). A torn tail — the stream was cut mid-frame — applies the
    /// complete record prefix and stops cleanly, exactly like WAL replay;
    /// duplicates are skipped per [`Collection::apply_replicated`].
    /// Returns the replica's LSN after the apply.
    pub fn apply_replication_stream(&mut self, stream: &[u8]) -> Result<u64> {
        for shipped in decode_shipped(stream)? {
            self.apply_replicated(shipped.lsn, &shipped.record)?;
        }
        Ok(self.replication_lsn())
    }

    /// Export a consistent replica-bootstrap state: the LSN, an encoded
    /// snapshot of the merged main part, and the buffered WAL tail as a
    /// shipped stream (positional LSNs — the installer trusts the
    /// returned LSN, not the tail stamps). Taken under the merge gate +
    /// write lock, so the three pieces are mutually consistent even with
    /// concurrent writers and background merges.
    pub fn export_replica_state(&self) -> Result<(u64, Vec<u8>, Vec<u8>)> {
        let _gate = self.inner.merge_gate.lock();
        let p = self.inner.pending.lock();
        let m = self.inner.main.read();
        let snap_bytes = snapshot::encode(&self.inner.checkpoint_of(&m)?)?;
        let tail = p.buffer.wal_tail();
        let mut tail_stream = Vec::new();
        for (i, rec) in tail.iter().enumerate() {
            ship_record(&mut tail_stream, i as u64 + 1, rec);
        }
        Ok((p.lsn, snap_bytes, tail_stream))
    }

    /// Install a bootstrap state exported by
    /// [`Collection::export_replica_state`]: replace the main part with
    /// the snapshot, reset the buffer, replay the tail, and set the LSN.
    /// On a durable collection the snapshot is persisted and the local
    /// WAL rewritten to the tail, so a replica restart recovers the
    /// installed state. After this returns, the collection's state is
    /// bit-identical to the primary's at `lsn`.
    pub fn install_replica_state(
        &mut self,
        lsn: u64,
        snapshot_bytes: &[u8],
        tail_stream: &[u8],
    ) -> Result<()> {
        let ckpt = snapshot::decode(snapshot_bytes)?;
        let tail: Vec<WalRecord> = decode_shipped(tail_stream)?
            .into_iter()
            .map(|s| s.record)
            .collect();
        let disk_ckpt = ckpt.clone();
        let build = self.inner.cfg.build.clone();
        self.install_snapshot(ckpt, &build)?;
        // Reset the write side and detach WAL, sink and worker handle for
        // the tail replay: it must neither re-log records the WAL rewrite
        // below installs wholesale nor ship them back out, and it merges
        // inline, never refused Busy (the merge gate orders the worker).
        let worker = self.worker.take();
        let (wal, sink) = {
            let mut p = self.inner.pending.lock();
            p.buffer = Buffer::new(self.inner.schema.dim);
            p.shadowed = 0;
            p.lsn = 0;
            (p.wal.take(), self.inner.repl.lock().take())
        };
        let replay_result = tail.iter().try_for_each(|rec| self.apply(rec));
        self.worker = worker;
        {
            let mut p = self.inner.pending.lock();
            p.wal = wal;
            *self.inner.repl.lock() = sink;
            replay_result?;
            if p.wal.is_some() {
                let path = self
                    .inner
                    .snapshot_path()
                    .expect("durable collection has a wal_dir");
                snapshot::write_checkpoint(&path, &disk_ckpt)?;
                p.wal.as_mut().expect("checked above").rewrite(&tail)?;
            }
            p.lsn = lsn;
        }
        Ok(())
    }

    /// Spawn the maintenance worker (background mode only).
    fn start_maintenance(&mut self) {
        if self.inner.cfg.merge_mode != MergeMode::Background {
            return;
        }
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name(format!("vdb-maint-{}", self.inner.schema.name))
            .spawn(move || maintenance_loop(inner))
            .expect("spawn maintenance thread");
        self.worker = Some(handle);
    }

    /// k-NN search returning external keys, merging the indexed part and
    /// the update buffer (read-your-writes).
    pub fn search(
        &self,
        vector: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<SearchHit>> {
        self.search_hybrid(vector, k, &Predicate::True, params, None)
    }

    /// Batched k-NN search: every query runs through one warm scratch
    /// context checked out of the collection's pool, so a coalesced batch
    /// (e.g. concurrently arriving server requests) pays the context
    /// setup once instead of per query. Results are identical to calling
    /// [`Collection::search`] per query, in order.
    pub fn search_batch(
        &self,
        queries: &[&[f32]],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Vec<SearchHit>>> {
        let mut ctx = self.contexts.acquire();
        queries
            .iter()
            .map(|q| self.search_hybrid_with(&mut ctx, q, k, &Predicate::True, params, None))
            .collect()
    }

    /// Hybrid search with a predicate; `strategy` overrides the planner.
    pub fn search_hybrid(
        &self,
        vector: &[f32],
        k: usize,
        predicate: &Predicate,
        params: &SearchParams,
        strategy: Option<Strategy>,
    ) -> Result<Vec<SearchHit>> {
        let mut ctx = self.contexts.acquire();
        self.search_hybrid_with(&mut ctx, vector, k, predicate, params, strategy)
    }

    /// [`Collection::search_hybrid`] over caller-provided scratch — the
    /// primitive both the per-query and the batched paths share.
    ///
    /// Consistency under concurrent maintenance: the buffer is scanned
    /// under the pending lock, and the main snapshot is pinned *before*
    /// that lock drops — an install needs both, so the two views always
    /// belong to one instant. A merge racing the query can only turn a
    /// buffered hit into an identical indexed hit (deduplicated), never
    /// hide a row.
    fn search_hybrid_with(
        &self,
        sctx: &mut vdb_core::context::SearchContext,
        vector: &[f32],
        k: usize,
        predicate: &Predicate,
        params: &SearchParams,
        strategy: Option<Strategy>,
    ) -> Result<Vec<SearchHit>> {
        if vector.len() != self.inner.schema.dim {
            return Err(Error::DimensionMismatch {
                expected: self.inner.schema.dim,
                actual: vector.len(),
            });
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        // Buffer part: brute force with the predicate over the buffered
        // attributes. Score every live buffered row (the buffer is
        // bounded) so a selective predicate cannot starve the result.
        let p = self.inner.pending.lock();
        let m = self.inner.main.read(); // pin before releasing `pending`
        let shadowed = p.shadowed;
        // No answer exceeds every row: the caller's `k` sizes nothing more.
        let k = k.min(p.buffer.len() + m.vectors.len());
        // Room for every buffered hit and every main hit fetched below.
        let mut hits = Vec::with_capacity(p.buffer.len() + k + shadowed);
        hits.extend(
            p.buffer
                .scan(vector, &self.inner.schema.metric, predicate)
                .map(|(key, dist, _)| SearchHit { key, dist }),
        );
        let hidden: HashSet<u64> = p.buffer.hidden().collect();
        drop(p);

        // Main part: over-fetch to survive shadowed rows. `shadowed` is
        // maintained incrementally — no O(n) rescan per query.
        if let Some(index) = &m.index {
            let fetch = (k + shadowed).min(m.vectors.len());
            if fetch > 0 {
                let ctx = QueryContext::new(&m.vectors, &m.attrs, index.as_ref())?;
                let q = VectorQuery::knn(vector.to_vec(), fetch)
                    .filtered(predicate.clone())
                    .with_params(params.clone());
                let main_hits: Vec<Neighbor> = match strategy {
                    Some(st) => execute_with(&ctx, sctx, &q, st)?,
                    None => self.planner.run_with(&ctx, sctx, &q)?.1,
                };
                for n in main_hits {
                    let key = m.row_keys[n.id];
                    if hidden.contains(&key) {
                        continue;
                    }
                    hits.push(SearchHit { key, dist: n.dist });
                }
            }
        }

        hits.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.key.cmp(&b.key)));
        hits.dedup_by_key(|h| h.key);
        hits.truncate(k);
        Ok(hits)
    }

    /// Hybrid text + vector search: BM25 over the schema's text column
    /// fused with k-NN under the collection metric.
    ///
    /// Candidates are gathered per `strategy` (planned from the query's
    /// text selectivity when `None`), every candidate is scored on BOTH
    /// axes — distances computed directly for text-only candidates, BM25
    /// re-derived from integer term frequencies under merged
    /// main + buffer corpus statistics for vector-only candidates — and
    /// the union is ranked by `fusion`. Scoring is a pure function of
    /// `(terms, tfs, doc_len, stats)`, so re-fusing shard results under
    /// summed statistics reproduces single-node fused scores bit for
    /// bit. A query that analyzes to no terms (empty, or all stopwords)
    /// degrades to vector-only candidates with zero text scores.
    #[allow(clippy::too_many_arguments)]
    pub fn hybrid_text_search(
        &self,
        vector: &[f32],
        query: &str,
        k: usize,
        predicate: &Predicate,
        fusion: Fusion,
        strategy: Option<HybridStrategy>,
        params: &SearchParams,
    ) -> Result<HybridResult> {
        if vector.len() != self.inner.schema.dim {
            return Err(Error::DimensionMismatch {
                expected: self.inner.schema.dim,
                actual: vector.len(),
            });
        }
        let Some(text_col) = self.inner.schema.text_column.as_deref() else {
            return Err(Error::Unsupported(format!(
                "collection `{}` has no text-indexed column",
                self.inner.schema.name
            )));
        };
        if k == 0 {
            return Ok(HybridResult {
                hits: Vec::new(),
                details: Vec::new(),
                stats: CorpusStats::default(),
                strategy: strategy.unwrap_or(HybridStrategy::Fused),
            });
        }
        let mut sctx = self.contexts.acquire();

        // --- one consistent view: buffer under the pending lock, main
        // pinned before that lock drops (same dance as vector search).
        struct BufCand {
            key: u64,
            dist: f32,
            text: String,
        }
        let p = self.inner.pending.lock();
        let buf: Vec<BufCand> = p
            .buffer
            .scan(vector, &self.inner.schema.metric, predicate)
            .map(|(key, dist, row)| BufCand {
                key,
                dist,
                text: row.attr(text_col).map(text_of).unwrap_or("").to_string(),
            })
            .collect();
        let hidden: HashSet<u64> = p.buffer.hidden().collect();
        let shadowed = p.shadowed;
        let m = self.inner.main.read(); // pin before releasing `pending`
        drop(p);
        // As in vector search: no answer holds more than every row.
        let k = k.min(buf.len() + m.row_keys.len());
        // Over-fetch per retriever: fusion ranks the union, so each side
        // contributes a candidate pool a few multiples of k deep.
        let m_over = (4 * k).max(32);

        let text_ix = m.text.as_ref().expect("text column implies text index");
        let terms = text_ix.query_terms(query);

        // Global corpus statistics: main segment + buffered docs. (Rows
        // shadowed by a newer buffered version are counted in both
        // segments until the next merge folds them — a bounded, transient
        // skew of the integer stats, never of the candidate set.)
        let mut stats = text_ix.corpus_stats(&terms);
        let buf_tok: Vec<(Vec<u32>, u32)> = buf
            .iter()
            .map(|c| {
                let toks = text_ix.analyze(&c.text);
                let tfs: Vec<u32> = terms
                    .iter()
                    .map(|(t, _)| toks.iter().filter(|w| *w == t).count() as u32)
                    .collect();
                (tfs, toks.len() as u32)
            })
            .collect();
        for (tfs, dl) in &buf_tok {
            stats.n_docs += 1;
            stats.total_len += u64::from(*dl);
            for (i, tf) in tfs.iter().enumerate() {
                if *tf > 0 {
                    stats.dfs[i] += 1;
                }
            }
        }

        let chosen = strategy.unwrap_or_else(|| {
            let n = m.row_keys.len() + buf.len();
            self.planner
                .plan_hybrid(n, k, text_selectivity(text_ix, query))
        });
        let effective = if terms.is_empty() {
            HybridStrategy::VectorFirst // nothing for the text side to rank
        } else {
            chosen
        };

        // --- candidate gathering. `dist: None` marks text-side main rows
        // whose distance is computed lazily below.
        enum Src {
            Main(usize),
            Buf(usize),
        }
        let mut cand: BTreeMap<u64, (Src, Option<f32>)> = BTreeMap::new();
        let want_text = effective != HybridStrategy::VectorFirst;
        let want_vector = effective != HybridStrategy::TextFirst;
        if want_text {
            let filter = CompiledPredicate::compile(predicate, &m.attrs)?;
            // Over-fetch past rows the filters will discard: hidden rows
            // plus (heuristically) predicate failures.
            let fetch_t = 2 * (m_over + shadowed) + hidden.len();
            let mut kept = 0usize;
            for hit in text_ix.search_terms(&terms, fetch_t, true) {
                if kept >= m_over {
                    break;
                }
                let row = hit.doc as usize;
                let key = m.row_keys[row];
                if hidden.contains(&key) || !filter.eval(row) {
                    continue;
                }
                cand.insert(key, (Src::Main(row), None));
                kept += 1;
            }
            for (i, c) in buf.iter().enumerate() {
                if buf_tok[i].0.iter().any(|&tf| tf > 0) {
                    cand.insert(c.key, (Src::Buf(i), Some(c.dist)));
                }
            }
        }
        if want_vector {
            if let Some(index) = &m.index {
                let fetch = (m_over + shadowed).min(m.vectors.len());
                if fetch > 0 {
                    let ctx = QueryContext::new(&m.vectors, &m.attrs, index.as_ref())?;
                    let q = VectorQuery::knn(vector.to_vec(), fetch)
                        .filtered(predicate.clone())
                        .with_params(params.clone());
                    for n in self.planner.run_with(&ctx, &mut sctx, &q)?.1 {
                        let key = m.row_keys[n.id];
                        if hidden.contains(&key) {
                            continue;
                        }
                        let entry = cand.entry(key).or_insert((Src::Main(n.id), None));
                        entry.1.get_or_insert(n.dist);
                    }
                }
            }
            for (i, c) in buf.iter().enumerate() {
                cand.entry(c.key).or_insert((Src::Buf(i), Some(c.dist)));
            }
        }

        // --- score both axes uniformly and fuse.
        let mut candidates = Vec::with_capacity(cand.len());
        let mut detail_of: HashMap<u64, HybridDetail> = HashMap::with_capacity(cand.len());
        for (key, (src, dist)) in cand {
            let (dist, doc_len, tfs) = match src {
                Src::Main(row) => {
                    let dist = dist.unwrap_or_else(|| {
                        self.inner
                            .schema
                            .metric
                            .distance(vector, m.vectors.get(row))
                    });
                    let doc = row as u32;
                    (dist, text_ix.doc_len(doc), text_ix.tf_vector(doc, &terms))
                }
                Src::Buf(i) => {
                    let (tfs, dl) = &buf_tok[i];
                    let dist = dist.expect("buffer candidates carry their scan distance");
                    (dist, *dl, tfs.clone())
                }
            };
            candidates.push(HybridCandidate {
                key,
                dist,
                text_score: bm25_score(&terms, &tfs, doc_len, &stats),
            });
            detail_of.insert(key, HybridDetail { doc_len, tfs });
        }
        let hits = fuse(&candidates, fusion, k);
        let details = hits
            .iter()
            .map(|h| detail_of.remove(&h.key).expect("hit came from a candidate"))
            .collect();
        Ok(HybridResult {
            hits,
            details,
            stats,
            strategy: effective,
        })
    }

    /// Estimated fraction of indexed documents matching at least one
    /// term of `query` (the planner's hybrid-strategy input).
    pub fn text_selectivity(&self, query: &str) -> Result<f64> {
        let m = self.inner.main.read();
        match &m.text {
            Some(ix) => Ok(text_selectivity(ix, query)),
            None => Err(Error::Unsupported(format!(
                "collection `{}` has no text-indexed column",
                self.inner.schema.name
            ))),
        }
    }

    /// Range query (§2.1): every live entity within `radius` of the query
    /// under the collection metric that passes `predicate`, sorted
    /// best-first. (Predicates on range results filter exactly — the range
    /// search already enumerates every in-radius row.)
    pub fn range_search(
        &self,
        vector: &[f32],
        radius: f32,
        predicate: &Predicate,
        params: &SearchParams,
    ) -> Result<Vec<SearchHit>> {
        if vector.len() != self.inner.schema.dim {
            return Err(Error::DimensionMismatch {
                expected: self.inner.schema.dim,
                actual: vector.len(),
            });
        }
        let p = self.inner.pending.lock();
        let mut hits: Vec<SearchHit> = p
            .buffer
            .scan(vector, &self.inner.schema.metric, predicate)
            .filter(|&(_, dist, _)| dist <= radius)
            .map(|(key, dist, _)| SearchHit { key, dist })
            .collect();
        let hidden: HashSet<u64> = p.buffer.hidden().collect();
        let m = self.inner.main.read(); // pin before releasing `pending`
        drop(p);
        if let Some(index) = &m.index {
            let filter = CompiledPredicate::compile(predicate, &m.attrs)?;
            for n in index.range_search(vector, radius, params)? {
                let key = m.row_keys[n.id];
                if hidden.contains(&key) || !filter.eval(n.id) {
                    continue;
                }
                hits.push(SearchHit { key, dist: n.dist });
            }
        }
        hits.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.key.cmp(&b.key)));
        hits.dedup_by_key(|h| h.key);
        Ok(hits)
    }

    /// Exact selectivity of a predicate over the indexed part
    /// (diagnostics). A numeric range costs two binary searches over the
    /// column's cached sorted run; anything else a compiled scan.
    pub fn selectivity(&self, predicate: &Predicate) -> Result<f64> {
        let m = self.inner.main.read();
        predicate.exact_selectivity(&m.attrs)
    }
}

impl Drop for Collection {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.inner.maint.state.lock().shutdown = true;
            self.inner.maint.cv.notify_all();
            let _ = worker.join();
        }
    }
}

impl Inner {
    /// Effective background-mode buffer bound (0 = auto).
    fn max_buffer(&self) -> usize {
        if self.cfg.max_buffer == 0 {
            self.cfg.merge_threshold.saturating_mul(4)
        } else {
            self.cfg.max_buffer
        }
    }

    fn snapshot_path(&self) -> Option<PathBuf> {
        self.cfg
            .wal_dir
            .as_ref()
            .map(|d| d.join(format!("{}.snap", self.schema.name)))
    }

    /// Ring the maintenance doorbell.
    fn nudge(&self) {
        self.maint.state.lock().nudges += 1;
        self.maint.cv.notify_one();
    }

    /// Run one merge under the gate (serialized against other merges,
    /// concurrent with searches and — in background mode — writes).
    /// Returns whether anything was folded in.
    fn merge_now(&self, force_checkpoint: bool) -> Result<bool> {
        let _gate = self.merge_gate.lock();
        self.stats
            .rebuilds_in_flight
            .fetch_add(1, Ordering::Relaxed);
        let out = self.rebuild_cycle(force_checkpoint);
        self.stats
            .rebuilds_in_flight
            .fetch_sub(1, Ordering::Relaxed);
        out
    }

    /// The out-of-place merge cycle: copy a consistent view of the
    /// buffer, rebuild the main part off to the side (searches keep
    /// running against the published snapshot), write the checkpoint
    /// snapshot durably, then atomically publish the new index and
    /// retire exactly the merged prefix of buffer + WAL. Writes that
    /// land during the rebuild stay buffered and survive as the WAL
    /// tail.
    fn rebuild_cycle(&self, force_checkpoint: bool) -> Result<bool> {
        // 1. Consistent, non-destructive copy of the buffer.
        let (snap, durable) = {
            let p = self.pending.lock();
            (p.buffer.snapshot(), p.wal.is_some())
        };
        if snap.keys.is_empty() && snap.tombstones.is_empty() {
            if force_checkpoint && durable {
                self.checkpoint_in_place()?;
            }
            return Ok(false);
        }
        // Main rows the copy deletes or replaces.
        let dropped: HashSet<u64> = snap.keys.iter().chain(&snap.tombstones).copied().collect();

        // 2. Copy surviving main rows under a shared read lock.
        let mut new_attrs = AttributeStore::new();
        for (name, ty) in &self.schema.columns {
            new_attrs.add_column(Column::new(name.clone(), *ty))?;
        }
        let mut new_keys = Vec::new();
        let mut new_map = HashMap::new();
        let mut new_vectors = {
            let m = self.main.read();
            let mut new_vectors =
                Vectors::with_capacity(self.schema.dim, m.vectors.len() + snap.keys.len());
            for (row, &key) in m.row_keys.iter().enumerate() {
                if dropped.contains(&key) {
                    continue;
                }
                let new_row = new_vectors.push(m.vectors.get(row))?;
                let row_values: Vec<(&str, AttrValue)> = self
                    .schema
                    .columns
                    .iter()
                    .map(|(name, _)| {
                        (
                            name.as_str(),
                            m.attrs
                                .column(name)
                                .expect("schema column")
                                .get(row)
                                .clone(),
                        )
                    })
                    .collect();
                new_attrs.push_row(&row_values)?;
                new_keys.push(key);
                new_map.insert(key, new_row);
            }
            new_vectors
        };

        // 3. Append the buffered rows (shadowing same-key main rows).
        for (i, &key) in snap.keys.iter().enumerate() {
            let new_row = new_vectors.push(snap.vectors.get(i))?;
            let row_values: Vec<(&str, AttrValue)> = snap.attrs[i]
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            new_attrs.push_row(&row_values)?;
            new_keys.push(key);
            new_map.insert(key, new_row);
        }

        // 4. Build the replacement indexes off to the side — the
        // expensive step, taken with no lock held. The inverted index is
        // rebuilt alongside the vector index.
        let index = if new_vectors.is_empty() {
            None
        } else {
            Some(self.cfg.index.build_with(
                new_vectors.clone(),
                self.schema.metric.clone(),
                &self.cfg.build,
            )?)
        };
        let text = build_text_index(&self.schema, &new_attrs, new_keys.len())?;
        let main = Main {
            vectors: new_vectors,
            attrs: new_attrs,
            row_keys: new_keys,
            key_to_row: new_map,
            index,
            index_from_image: false,
            text,
        };
        debug_assert!(main.is_aligned(), "merged rows and keys disagree");

        // 5. Checkpoint snapshot BEFORE publication. The snapshot holds
        // only acknowledged (WAL-logged) operations and replay over it is
        // idempotent, so a crash on either side of the install recovers
        // correctly from (old snapshot, full WAL) or (new snapshot, full
        // WAL) alike.
        if durable {
            self.write_checkpoint(&main)?;
        }

        // 6. Atomic publication + retirement of the copied rows, all under
        // the pending lock so no write interleaves. Rows written since the
        // copy stay buffered, and the WAL is rewritten to exactly them.
        let swap = Instant::now();
        {
            let mut p = self.pending.lock();
            p.buffer.retire(&snap);
            // What the buffer still hides of the fresh main: O(buffer).
            p.shadowed = p
                .buffer
                .hidden()
                .filter(|k| main.key_to_row.contains_key(k))
                .count();
            self.main.install(main);
            if durable {
                let tail = p.buffer.wal_tail();
                p.wal
                    .as_mut()
                    .expect("durable collection holds a WAL")
                    .rewrite(&tail)?;
            }
        }
        self.stats
            .last_swap_micros
            .store(swap.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Snapshot + WAL rewrite without folding anything (explicit
    /// checkpoint with an empty buffer).
    fn checkpoint_in_place(&self) -> Result<()> {
        let mut p = self.pending.lock();
        if p.wal.is_none() {
            return Ok(());
        }
        self.write_checkpoint(&self.main.read())?;
        let tail = p.buffer.wal_tail();
        p.wal.as_mut().expect("checked above").rewrite(&tail)
    }

    /// Durably replace the snapshot file with the checkpoint of `m`.
    fn write_checkpoint(&self, m: &Main) -> Result<()> {
        let path = self
            .snapshot_path()
            .expect("durable collection has a wal_dir");
        snapshot::write_checkpoint(&path, &self.checkpoint_of(m)?)
    }

    /// The checkpoint of a main part, the one builder behind both the
    /// snapshot file and the replica-bootstrap snapshot. A main part is
    /// never mutated, so its rows are exactly its index's and its text
    /// index's rows: columns are copied whole, and the serialized text
    /// index and the index image (when the family has one) ride along.
    fn checkpoint_of(&self, m: &Main) -> Result<Checkpoint> {
        let columns = self
            .schema
            .columns
            .iter()
            .map(|(name, ty)| {
                Ok(SnapshotColumn {
                    name: name.clone(),
                    ty: *ty,
                    values: m.attrs.column(name)?.values().to_vec(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Checkpoint {
            snapshot: Snapshot {
                fingerprint: self.cfg.index.fingerprint(),
                row_keys: m.row_keys.clone(),
                vectors: m.vectors.clone(),
                columns,
                text: m.text.as_ref().map(TextIndex::encode),
            },
            index: m.index.as_ref().and_then(|i| i.image()),
        })
    }
}

/// Maintenance worker: sleep on the doorbell, then merge until the
/// buffer is back under threshold. Failed merges are counted and left
/// for the next nudge rather than crashing the worker.
fn maintenance_loop(inner: Arc<Inner>) {
    let mut seen = 0u64;
    loop {
        {
            let mut st = inner.maint.state.lock();
            while !st.shutdown && st.nudges == seen {
                st = inner.maint.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.shutdown {
                return;
            }
            seen = st.nudges;
        }
        loop {
            let depth = inner.pending.lock().buffer.len();
            if depth < inner.cfg.merge_threshold {
                break;
            }
            match inner.merge_now(false) {
                Ok(true) => continue,
                Ok(false) => break,
                Err(_) => {
                    inner.stats.failed_merges.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Collection({}, dim={}, live={}, index={})",
            self.inner.schema.name,
            self.inner.schema.dim,
            self.len(),
            self.stats().index_name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::attr::AttrType;
    use vdb_core::metric::Metric;
    use vdb_core::rng::Rng;
    use vdb_storage::TempDir;

    fn schema() -> CollectionSchema {
        CollectionSchema::new("test", 4, Metric::Euclidean)
            .column("tag", AttrType::Str)
            .column("score", AttrType::Int)
    }

    fn small_cfg() -> CollectionConfig {
        CollectionConfig {
            index: IndexSpec::Flat,
            merge_threshold: 8,
            ..Default::default()
        }
    }

    fn vec_at(x: f32) -> Vec<f32> {
        vec![x, 0.0, 0.0, 0.0]
    }

    #[test]
    fn batched_search_matches_per_query() {
        let c = Collection::create(schema(), small_cfg()).unwrap();
        // 30 inserts with threshold 8: main part + live buffer both populated.
        for i in 0..30u64 {
            c.insert(i, &vec_at(i as f32), &[("score", AttrValue::Int(i as i64))])
                .unwrap();
        }
        let queries: Vec<Vec<f32>> = (0..10).map(|i| vec_at(i as f32 + 0.3)).collect();
        let refs: Vec<&[f32]> = queries.iter().map(|v| v.as_slice()).collect();
        let params = SearchParams::default();
        let batched = c.search_batch(&refs, 3, &params).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(&c.search(q, 3, &params).unwrap(), b);
        }
    }

    #[test]
    fn insert_search_before_any_merge() {
        let c = Collection::create(schema(), small_cfg()).unwrap();
        for i in 0..5u64 {
            c.insert(i, &vec_at(i as f32), &[]).unwrap();
        }
        assert_eq!(c.stats().merges, 0, "below threshold: no merge yet");
        let hits = c.search(&vec_at(2.1), 2, &SearchParams::default()).unwrap();
        assert_eq!(hits[0].key, 2);
        assert_eq!(hits[1].key, 3);
    }

    #[test]
    fn merge_triggers_and_results_stay_correct() {
        let c = Collection::create(schema(), small_cfg()).unwrap();
        for i in 0..20u64 {
            c.insert(i, &vec_at(i as f32), &[]).unwrap();
        }
        assert!(c.stats().merges >= 2);
        assert_eq!(c.len(), 20);
        let hits = c
            .search(&vec_at(10.2), 3, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].key, 10);
    }

    #[test]
    fn read_your_writes_and_overwrites() {
        let c = Collection::create(schema(), small_cfg()).unwrap();
        for i in 0..10u64 {
            c.insert(i, &vec_at(i as f32), &[]).unwrap();
        }
        // Overwrite key 3 far away; newest version must win immediately.
        c.insert(3, &vec_at(100.0), &[]).unwrap();
        let hits = c.search(&vec_at(3.0), 1, &SearchParams::default()).unwrap();
        assert_ne!(hits[0].key, 3, "old version must be shadowed");
        let hits = c
            .search(&vec_at(100.0), 1, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].key, 3);
        assert_eq!(c.get(3).unwrap(), vec_at(100.0));
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn delete_then_merge_reclaims() {
        let c = Collection::create(schema(), small_cfg()).unwrap();
        for i in 0..10u64 {
            c.insert(i, &vec_at(i as f32), &[]).unwrap();
        }
        c.delete(4).unwrap();
        assert_eq!(c.len(), 9);
        assert!(c.get(4).is_none());
        let hits = c.search(&vec_at(4.0), 1, &SearchParams::default()).unwrap();
        assert_ne!(hits[0].key, 4);
        c.merge().unwrap();
        assert_eq!(c.len(), 9);
        assert_eq!(c.stats().buffered, 0);
        let hits = c.search(&vec_at(4.0), 9, &SearchParams::default()).unwrap();
        assert!(hits.iter().all(|h| h.key != 4));
    }

    #[test]
    fn hybrid_search_with_attributes() {
        let c = Collection::create(schema(), small_cfg()).unwrap();
        for i in 0..30u64 {
            let tag = if i % 2 == 0 { "even" } else { "odd" };
            c.insert(
                i,
                &vec_at(i as f32),
                &[("tag", tag.into()), ("score", (i as i64).into())],
            )
            .unwrap();
        }
        let pred = Predicate::eq("tag", "even");
        let hits = c
            .search_hybrid(&vec_at(7.0), 3, &pred, &SearchParams::default(), None)
            .unwrap();
        assert!(hits.iter().all(|h| h.key % 2 == 0), "{hits:?}");
        assert_eq!(hits[0].key, 6);
        // Works for buffered rows too (31st row stays in buffer).
        c.insert(100, &vec_at(7.1), &[("tag", "even".into())])
            .unwrap();
        let hits = c
            .search_hybrid(&vec_at(7.1), 1, &pred, &SearchParams::default(), None)
            .unwrap();
        assert_eq!(hits[0].key, 100);
    }

    #[test]
    fn explicit_strategy_override() {
        let c = Collection::create(schema(), small_cfg()).unwrap();
        for i in 0..20u64 {
            c.insert(i, &vec_at(i as f32), &[("score", (i as i64).into())])
                .unwrap();
        }
        let pred = Predicate::lt("score", 10);
        for st in Strategy::ALL {
            let hits = c
                .search_hybrid(&vec_at(5.0), 3, &pred, &SearchParams::default(), Some(st))
                .unwrap();
            assert_eq!(hits[0].key, 5, "{}", st.name());
        }
    }

    #[test]
    fn schema_validation_on_insert() {
        let c = Collection::create(schema(), small_cfg()).unwrap();
        assert!(c.insert(0, &[1.0], &[]).is_err(), "wrong dim");
        assert!(
            c.insert(0, &vec_at(0.0), &[("ghost", 1i64.into())])
                .is_err(),
            "unknown column"
        );
        assert!(
            c.insert(0, &vec_at(0.0), &[("score", "text".into())])
                .is_err(),
            "wrong type"
        );
        assert!(c.is_empty(), "failed inserts must not leak state");
    }

    #[test]
    fn wal_recovery_reproduces_state() {
        let dir = TempDir::new("coll-wal").unwrap();
        let cfg = CollectionConfig {
            wal_dir: Some(dir.path().to_path_buf()),
            ..small_cfg()
        };
        {
            let c = Collection::create(schema(), cfg.clone()).unwrap();
            for i in 0..12u64 {
                c.insert(i, &vec_at(i as f32), &[]).unwrap();
            }
            c.delete(5).unwrap();
            c.insert(3, &vec_at(300.0), &[]).unwrap();
        }
        let recovered = Collection::recover(schema(), cfg).unwrap();
        assert_eq!(recovered.len(), 11);
        assert!(recovered.get(5).is_none());
        assert_eq!(recovered.get(3).unwrap(), vec_at(300.0));
        let hits = recovered
            .search(&vec_at(7.0), 1, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].key, 7);
    }

    #[test]
    fn recovery_restores_attributes() {
        let dir = TempDir::new("coll-wal-attrs").unwrap();
        let cfg = CollectionConfig {
            wal_dir: Some(dir.path().to_path_buf()),
            ..small_cfg()
        };
        {
            let c = Collection::create(schema(), cfg.clone()).unwrap();
            for i in 0..5u64 {
                let tag = if i % 2 == 0 { "even" } else { "odd" };
                c.insert(
                    i,
                    &vec_at(i as f32),
                    &[("tag", tag.into()), ("score", (i as i64).into())],
                )
                .unwrap();
            }
        } // crash before any merge: state lives only in the WAL
        let recovered = Collection::recover(schema(), cfg).unwrap();
        assert_eq!(
            recovered.get_attrs(3).unwrap(),
            vec![
                ("tag".to_string(), AttrValue::Str("odd".into())),
                ("score".to_string(), AttrValue::Int(3)),
            ],
            "recovery must not null out attributes"
        );
        let pred = Predicate::eq("tag", "even");
        let hits = recovered
            .search_hybrid(&vec_at(3.0), 2, &pred, &SearchParams::default(), None)
            .unwrap();
        assert!(hits.iter().all(|h| h.key % 2 == 0), "{hits:?}");
    }

    #[test]
    fn merge_checkpoints_and_truncates_wal() {
        let dir = TempDir::new("coll-ckpt").unwrap();
        let cfg = CollectionConfig {
            wal_dir: Some(dir.path().to_path_buf()),
            ..small_cfg()
        };
        let c = Collection::create(schema(), cfg.clone()).unwrap();
        for i in 0..8u64 {
            c.insert(i, &vec_at(i as f32), &[("score", (i as i64).into())])
                .unwrap();
        }
        assert_eq!(c.stats().merges, 1, "threshold crossed");
        let wal_path = c.wal_path().unwrap();
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            0,
            "merge must retire the whole log (empty tail)"
        );
        assert!(c.snapshot_path().unwrap().exists());
        // Post-merge tail: two more records, then recover from
        // snapshot + tail only.
        c.insert(100, &vec_at(100.0), &[("tag", "late".into())])
            .unwrap();
        c.delete(3).unwrap();
        assert!(std::fs::metadata(&wal_path).unwrap().len() > 0);
        drop(c);
        let r = Collection::recover(schema(), cfg).unwrap();
        assert_eq!(r.len(), 8); // 8 - deleted 3 + inserted 100
        assert!(r.get(3).is_none());
        assert_eq!(r.get(100).unwrap(), vec_at(100.0));
        assert_eq!(
            r.get_attrs(5).unwrap()[1],
            ("score".to_string(), AttrValue::Int(5)),
            "snapshotted attributes survive"
        );
        assert_eq!(
            r.get_attrs(100).unwrap()[0],
            ("tag".to_string(), AttrValue::Str("late".into())),
            "tail-replayed attributes survive"
        );
    }

    #[test]
    fn explicit_checkpoint_requires_and_uses_wal() {
        let c = Collection::create(schema(), small_cfg()).unwrap();
        assert!(matches!(c.checkpoint(), Err(Error::Unsupported(_))));

        let dir = TempDir::new("coll-ckpt2").unwrap();
        let cfg = CollectionConfig {
            wal_dir: Some(dir.path().to_path_buf()),
            ..small_cfg()
        };
        let c = Collection::create(schema(), cfg.clone()).unwrap();
        for i in 0..3u64 {
            c.insert(i, &vec_at(i as f32), &[]).unwrap();
        }
        c.checkpoint().unwrap();
        assert_eq!(std::fs::metadata(c.wal_path().unwrap()).unwrap().len(), 0);
        drop(c);
        let r = Collection::recover(schema(), cfg).unwrap();
        assert_eq!(r.len(), 3, "recovery from snapshot alone (empty tail)");
        assert_eq!(r.get(2).unwrap(), vec_at(2.0));
    }

    #[test]
    fn shadowed_count_stays_consistent() {
        // Exercises every transition the shadowed-row counter handles;
        // len()'s debug_assert cross-checks against a full rescan.
        let c = Collection::create(schema(), small_cfg()).unwrap();
        for i in 0..8u64 {
            c.insert(i, &vec_at(i as f32), &[]).unwrap(); // triggers merge at 8
        }
        assert_eq!(c.len(), 8);
        c.insert(3, &vec_at(30.0), &[]).unwrap(); // shadow a main row
        assert_eq!(c.len(), 8);
        c.insert(3, &vec_at(31.0), &[]).unwrap(); // re-shadow: no double count
        assert_eq!(c.len(), 8);
        c.delete(3).unwrap(); // delete the shadowing version
        assert_eq!(c.len(), 7);
        c.delete(3).unwrap(); // repeat delete: no double count
        assert_eq!(c.len(), 7);
        c.insert(3, &vec_at(32.0), &[]).unwrap(); // resurrect
        assert_eq!(c.len(), 8);
        c.delete(5).unwrap(); // tombstone a main-only row
        assert_eq!(c.len(), 7);
        c.delete(999).unwrap(); // delete of a key that never existed
        assert_eq!(c.len(), 7);
        c.merge().unwrap();
        assert_eq!(c.len(), 7);
        c.insert(100, &vec_at(100.0), &[]).unwrap(); // buffer-only insert
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn hnsw_backed_collection() {
        let mut rng = Rng::seed_from_u64(160);
        let c = Collection::create(
            CollectionSchema::new("vecs", 8, Metric::Euclidean),
            CollectionConfig {
                merge_threshold: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let data = vdb_core::dataset::gaussian(300, 8, &mut rng);
        for (i, row) in data.iter().enumerate() {
            c.insert(i as u64, row, &[]).unwrap();
        }
        assert_eq!(c.stats().index_name, "hnsw");
        let hits = c
            .search(
                data.get(17),
                1,
                &SearchParams::default().with_beam_width(64),
            )
            .unwrap();
        assert_eq!(hits[0].key, 17);
    }

    #[test]
    fn background_merge_drains_and_preserves_search() {
        let c = Collection::create(
            schema(),
            CollectionConfig {
                merge_mode: MergeMode::Background,
                ..small_cfg()
            },
        )
        .unwrap();
        for i in 0..100u64 {
            loop {
                match c.insert(i, &vec_at(i as f32), &[]) {
                    Ok(()) => break,
                    Err(Error::Busy) => std::thread::sleep(std::time::Duration::from_millis(2)),
                    Err(e) => panic!("unexpected insert error: {e}"),
                }
            }
        }
        // Wait for the worker to drain below threshold.
        for _ in 0..500 {
            let s = c.stats();
            if s.buffered < 8 && s.merges >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let s = c.stats();
        assert!(s.merges >= 1, "worker must have merged: {s:?}");
        assert!(s.buffered < 8, "buffer must drain below threshold: {s:?}");
        assert_eq!(c.len(), 100);
        // Exact index (Flat): every acknowledged write must be visible.
        for probe in [0u64, 37, 99] {
            let hits = c
                .search(&vec_at(probe as f32), 1, &SearchParams::default())
                .unwrap();
            assert_eq!(hits[0].key, probe);
        }
    }

    #[test]
    fn background_backpressure_returns_busy() {
        // Threshold high enough that the worker is never nudged: the
        // bounded buffer alone must shed load deterministically.
        let c = Collection::create(
            schema(),
            CollectionConfig {
                index: IndexSpec::Flat,
                merge_threshold: 1000,
                merge_mode: MergeMode::Background,
                max_buffer: 10,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..10u64 {
            c.insert(i, &vec_at(i as f32), &[]).unwrap();
        }
        assert!(
            matches!(c.insert(10, &vec_at(10.0), &[]), Err(Error::Busy)),
            "11th insert must be shed"
        );
        assert_eq!(c.len(), 10, "rejected write must not leak state");
        // An explicit merge runs inline under the gate and drains it.
        c.merge().unwrap();
        assert_eq!(c.stats().buffered, 0);
        c.insert(10, &vec_at(10.0), &[]).unwrap();
        assert_eq!(c.len(), 11);
    }
}
