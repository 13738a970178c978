//! The vdb wire protocol: typed request/response messages over the
//! CRC-framed transport of [`crate::wire`], encoded with
//! `vdb_core::codec`.
//!
//! A message is one frame; the first payload byte is the opcode, the
//! rest is the opcode's little-endian body. Every decode failure maps to
//! [`Error::Corrupt`], which the server answers with a
//! [`Response::Error`] of code [`ErrorCode::Protocol`] — a malformed
//! client gets a diagnosable reply, not a dropped connection mid-frame.
//!
//! | opcode | message | body |
//! |--------|---------|------|
//! | `0x01` | `Ping` | — |
//! | `0x02` | `Insert` | collection, key u64, vector, attrs |
//! | `0x03` | `Delete` | collection, key u64 |
//! | `0x04` | `Search` | collection, k u32, params, query |
//! | `0x05` | `SearchBatch` | collection, k u32, params, queries |
//! | `0x06` | `Vql` | statement |
//! | `0x07` | `Checkpoint` | collection ("" = all durable) |
//! | `0x08` | `Stats` | collection |
//! | `0x09` | `ServerStats` | — |
//! | `0x0A` | `Shutdown` | — |
//! | `0x0B` | `ReplApply` | collection, shipped WAL stream |
//! | `0x0C` | `ReplStatus` | collection |
//! | `0x0D` | `ReplSnapshot` | collection |
//! | `0x0E` | `ReplInstall` | collection, schema, lsn, snapshot, tail |
//! | `0x0F` | `ManifestGet` | collection |
//! | `0x10` | `ManifestPut` | encoded manifest |
//! | `0x11` | `HybridSearch` | collection, k u32, params, query, text, fusion, strategy |
//! | `0x81` | `Pong` | — |
//! | `0x82` | `Done` | — |
//! | `0x83` | `Hits` | (key u64, dist f32)* |
//! | `0x84` | `HitsBatch` | hits-list* |
//! | `0x85` | `Count` | u64 |
//! | `0x86` | `Stats` | live, indexed, buffered, merges, index name |
//! | `0x87` | `ServerStats` | serving counters |
//! | `0x88` | `ReplState` | lsn u64 |
//! | `0x89` | `ReplicaState` | schema, lsn, snapshot, tail |
//! | `0x8A` | `Manifest` | encoded manifest |
//! | `0x8B` | `Redirect` | primary address |
//! | `0x8C` | `Fused` | strategy, corpus stats, (key, dist, text, fused, doc_len, tfs)* |
//! | `0x8E` | `Busy` | — (admission control shed this request) |
//! | `0x8F` | `Error` | code u8, message (+ pos u32 when code = Parse) |

use vdb::{CorpusStats, Fusion, HybridStrategy, SearchHit};
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::codec::{self, Reader};
use vdb_core::error::{Error, Result};
use vdb_core::index::SearchParams;
use vdb_core::metric::Metric;

const OP_PING: u8 = 0x01;
const OP_INSERT: u8 = 0x02;
const OP_DELETE: u8 = 0x03;
const OP_SEARCH: u8 = 0x04;
const OP_SEARCH_BATCH: u8 = 0x05;
const OP_VQL: u8 = 0x06;
const OP_CHECKPOINT: u8 = 0x07;
const OP_STATS: u8 = 0x08;
const OP_SERVER_STATS: u8 = 0x09;
const OP_SHUTDOWN: u8 = 0x0A;
const OP_REPL_APPLY: u8 = 0x0B;
const OP_REPL_STATUS: u8 = 0x0C;
const OP_REPL_SNAPSHOT: u8 = 0x0D;
const OP_REPL_INSTALL: u8 = 0x0E;
const OP_MANIFEST_GET: u8 = 0x0F;
const OP_MANIFEST_PUT: u8 = 0x10;
const OP_HYBRID_SEARCH: u8 = 0x11;

const RE_PONG: u8 = 0x81;
const RE_DONE: u8 = 0x82;
const RE_HITS: u8 = 0x83;
const RE_HITS_BATCH: u8 = 0x84;
const RE_COUNT: u8 = 0x85;
const RE_STATS: u8 = 0x86;
const RE_SERVER_STATS: u8 = 0x87;
const RE_REPL_STATE: u8 = 0x88;
const RE_REPLICA_STATE: u8 = 0x89;
const RE_MANIFEST: u8 = 0x8A;
const RE_REDIRECT: u8 = 0x8B;
const RE_FUSED: u8 = 0x8C;
const RE_BUSY: u8 = 0x8E;
const RE_ERROR: u8 = 0x8F;

/// Machine-readable failure class carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed frame or message (CRC mismatch, bad opcode, torn body).
    Protocol = 1,
    /// Referenced collection/key does not exist.
    NotFound = 2,
    /// Invalid request (dimension mismatch, bad parameter, VQL parse).
    Invalid = 3,
    /// The request sat past its deadline before a worker picked it up.
    Deadline = 4,
    /// The server is shutting down and no longer accepts requests.
    Shutdown = 5,
    /// Everything else (I/O, internal invariants).
    Internal = 6,
    /// The collection's per-second request budget is exhausted. Distinct
    /// from the `Busy` response (`0x8E`), which remains the legacy alias
    /// covering every admission shed: older servers answered `Busy` for
    /// rate-limit sheds too, so clients must treat both as retryable —
    /// but only this code means "slow down" rather than "queue is full".
    RateLimited = 7,
    /// A textual statement failed to parse at a known character offset.
    /// The error response carries an extra `u32` position after the
    /// message so clients can point at the offending token. Statements
    /// rejected without position information still travel as `Invalid`.
    Parse = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::NotFound,
            3 => ErrorCode::Invalid,
            4 => ErrorCode::Deadline,
            5 => ErrorCode::Shutdown,
            6 => ErrorCode::Internal,
            7 => ErrorCode::RateLimited,
            8 => ErrorCode::Parse,
            other => return Err(Error::Corrupt(format!("unknown error code {other}"))),
        })
    }

    /// Classify a server-side [`Error`] for the wire.
    pub fn classify(e: &Error) -> ErrorCode {
        match e {
            Error::RateLimited => ErrorCode::RateLimited,
            Error::ParseAt { .. } => ErrorCode::Parse,
            Error::Corrupt(_) => ErrorCode::Protocol,
            Error::NotFound(_) => ErrorCode::NotFound,
            Error::DimensionMismatch { .. }
            | Error::NonFiniteVector { .. }
            | Error::InvalidParameter(_)
            | Error::InvalidQuery(_)
            | Error::Parse(_)
            | Error::AlreadyExists(_)
            | Error::EmptyCollection => ErrorCode::Invalid,
            _ => ErrorCode::Internal,
        }
    }
}

/// Collection counters as they travel over the wire (the in-process
/// [`vdb::CollectionStats`] holds a `&'static str` index name, which a
/// remote peer cannot reconstruct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCollectionStats {
    /// Live entities.
    pub live: u64,
    /// Rows covered by the main index.
    pub indexed: u64,
    /// Rows waiting in the update buffer.
    pub buffered: u64,
    /// Merges (index rebuilds or in-place folds) performed.
    pub merges: u64,
    /// Main index name ("none" before the first merge).
    pub index_name: String,
    /// Buffer depth that triggers maintenance.
    pub merge_threshold: u64,
    /// Buffer bound for background-mode admission control.
    pub max_buffer: u64,
    /// Active merge mode ("blocking" or "background").
    pub merge_mode: String,
    /// Merges currently executing.
    pub rebuilds_in_flight: u64,
    /// Duration of the last atomic index publication, in microseconds.
    pub last_swap_micros: u64,
    /// Background merges that failed and were left for retry.
    pub failed_merges: u64,
}

/// Serving counters reported by [`Request::ServerStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Requests answered (all kinds, including errors; excludes BUSY).
    pub served: u64,
    /// Executor batches that coalesced more than one search.
    pub batches: u64,
    /// Searches that rode along in someone else's batch.
    pub coalesced: u64,
    /// Requests shed with BUSY by admission control (queue full, bulk
    /// lane full, or rate limited).
    pub busy: u64,
    /// BUSY responses caused specifically by a per-collection token
    /// bucket running dry (also counted in `busy`).
    pub rate_limited: u64,
    /// Requests that waited in the queue past their deadline and were
    /// answered with a `DEADLINE` error instead of executed late.
    pub deadline_expired: u64,
    /// Frames/messages rejected as malformed.
    pub protocol_errors: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Connections currently open.
    pub open_connections: u64,
    /// Connections closed by the server for idling past the idle
    /// timeout or trickling a frame past the frame timeout.
    pub reaped: u64,
    /// Requests currently queued in the interactive lane.
    pub interactive_depth: u64,
    /// Requests currently queued in the bulk lane.
    pub bulk_depth: u64,
    /// Completed requests per second over the recent window.
    pub qps: u64,
    /// Median queue-admission-to-response latency, in microseconds
    /// (log2-bucketed histogram: values are upper-bound estimates with
    /// 2x resolution).
    pub p50_us: u64,
    /// 99th-percentile admission-to-response latency, in microseconds.
    pub p99_us: u64,
    /// Total merges (rebuilds or in-place folds) across collections.
    pub merges: u64,
    /// Total rows waiting in update buffers across collections.
    pub buffered: u64,
    /// Merges currently executing across collections.
    pub rebuilds_in_flight: u64,
    /// Slowest recent atomic index publication, in microseconds.
    pub last_swap_micros: u64,
    /// Background merges that failed and were left for retry.
    pub failed_merges: u64,
    /// Disk-page reads answered from the process-wide page cache.
    pub cache_hits: u64,
    /// Disk-page reads that missed the page cache and went to storage.
    pub cache_misses: u64,
    /// Per-link replication state for every collection this node is a
    /// primary of: how far each replica's acknowledged LSN trails the
    /// WAL the primary retains for it.
    pub repl_links: Vec<WireReplLink>,
}

/// One primary→replica shipping link as reported in
/// [`ServerStatsSnapshot::repl_links`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireReplLink {
    /// Replica address (`host:port`).
    pub addr: String,
    /// Retained-minus-acknowledged LSN gap: how many WAL records the
    /// primary still holds that this replica has not confirmed.
    pub lag: u64,
    /// Whether the link is currently healthy (recent ship succeeded).
    pub live: bool,
}

/// One fused hybrid hit as it travels over the wire: the fused ranking
/// plus the per-document text evidence (`doc_len`, per-term `tfs`) a
/// distributed merger needs to re-score BM25 under *global* corpus
/// statistics before re-fusing shard results.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedHit {
    /// Entity key.
    pub key: u64,
    /// Vector distance to the query.
    pub dist: f32,
    /// BM25 score under the answering node's corpus statistics.
    pub text_score: f32,
    /// Fused score the hit was ranked by.
    pub fused: f32,
    /// Token count of the document's indexed text.
    pub doc_len: u32,
    /// Term frequency per query term, in query-term order.
    pub tfs: Vec<u32>,
}

/// Everything a node needs to become a replica of a collection: the
/// schema (so it can create the collection), the bootstrap LSN, the
/// encoded main-part snapshot, and the buffered WAL tail as a shipped
/// stream. Travels in both directions — pushed by a primary
/// ([`Request::ReplInstall`]) or pulled by a joining replica
/// ([`Request::ReplSnapshot`] → [`Response::ReplicaState`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaPayload {
    /// Vector dimensionality of the collection.
    pub dim: u32,
    /// Distance metric (simple variants only; parameterized metrics
    /// other than Minkowski cannot travel and fail decode).
    pub metric: Metric,
    /// Attribute columns as `(name, type)`.
    pub columns: Vec<(String, AttrType)>,
    /// The primary's replication LSN at export time.
    pub lsn: u64,
    /// Encoded snapshot of the merged main part
    /// (`vdb_storage::snapshot::encode`).
    pub snapshot: Vec<u8>,
    /// The buffered tail as a shipped-record stream.
    pub tail: Vec<u8>,
}

/// Append a [`SearchParams`] (timeout encoded as whole milliseconds,
/// `0` = none).
fn put_search_params(out: &mut Vec<u8>, p: &SearchParams) {
    codec::put_u32(out, p.beam_width as u32);
    codec::put_u32(out, p.nprobe as u32);
    codec::put_u32(out, p.rerank as u32);
    codec::put_u32(out, p.max_leaf_points as u32);
    codec::put_f32(out, p.overfetch);
    codec::put_u64(out, p.timeout.map_or(0, |t| t.as_millis().max(1) as u64));
}

fn read_search_params(r: &mut Reader<'_>) -> Result<SearchParams> {
    let beam_width = r.u32()? as usize;
    let nprobe = r.u32()? as usize;
    let rerank = r.u32()? as usize;
    let max_leaf_points = r.u32()? as usize;
    let overfetch = r.f32()?;
    let timeout_ms = r.u64()?;
    Ok(SearchParams {
        beam_width,
        nprobe,
        rerank,
        max_leaf_points,
        overfetch,
        timeout: (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)),
    })
}

fn put_metric(out: &mut Vec<u8>, m: &Metric) {
    codec::put_str(out, m.name());
    if let Metric::Minkowski(p) = m {
        codec::put_f32(out, *p);
    }
}

fn read_metric(r: &mut Reader<'_>) -> Result<Metric> {
    let name = r.str()?;
    if name == "minkowski" {
        return Ok(Metric::Minkowski(r.f32()?));
    }
    Metric::parse(&name)
        .map_err(|_| Error::Corrupt(format!("metric `{name}` cannot travel over the wire")))
}

fn put_replica_payload(out: &mut Vec<u8>, s: &ReplicaPayload) {
    codec::put_u32(out, s.dim);
    put_metric(out, &s.metric);
    codec::put_u32(out, s.columns.len() as u32);
    for (name, ty) in &s.columns {
        codec::put_str(out, name);
        // The wire numbers column types from 1, snapshots from 0.
        codec::put_u8(out, codec::attr_type_tag(*ty) + 1);
    }
    codec::put_u64(out, s.lsn);
    codec::put_bytes(out, &s.snapshot);
    codec::put_bytes(out, &s.tail);
}

fn read_replica_payload(r: &mut Reader<'_>) -> Result<ReplicaPayload> {
    let dim = r.u32()?;
    let metric = read_metric(r)?;
    // A column is a name's length prefix and a type byte.
    let n = r.u32_count(5)?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let ty = codec::attr_type_from_tag(r.u8()?.wrapping_sub(1))?;
        columns.push((name, ty));
    }
    Ok(ReplicaPayload {
        dim,
        metric,
        columns,
        lsn: r.u64()?,
        snapshot: r.bytes()?,
        tail: r.bytes()?,
    })
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline by the connection thread.
    Ping,
    /// Insert one entity into a collection.
    Insert {
        /// Target collection.
        collection: String,
        /// Caller-assigned entity key.
        key: u64,
        /// The vector (must match the collection dimension).
        vector: Vec<f32>,
        /// Attribute values for hybrid predicates.
        attrs: Vec<(String, AttrValue)>,
    },
    /// Delete an entity by key.
    Delete {
        /// Target collection.
        collection: String,
        /// Entity key to tombstone.
        key: u64,
    },
    /// Single k-NN search.
    Search {
        /// Target collection.
        collection: String,
        /// Result size.
        k: u32,
        /// Search-time knobs (timeout travels too).
        params: SearchParams,
        /// The query vector.
        query: Vec<f32>,
    },
    /// Batched k-NN search (client-side batching).
    SearchBatch {
        /// Target collection.
        collection: String,
        /// Result size per query.
        k: u32,
        /// Search-time knobs shared by the whole batch.
        params: SearchParams,
        /// The query vectors.
        queries: Vec<Vec<f32>>,
    },
    /// Execute one VQL statement (INSERT/DELETE/SEARCH/COUNT over the
    /// wire).
    Vql {
        /// The statement text.
        statement: String,
    },
    /// Durably checkpoint one collection, or every durable collection
    /// when `collection` is empty.
    Checkpoint {
        /// Collection name, or "" for all.
        collection: String,
    },
    /// Collection counters.
    Stats {
        /// Target collection.
        collection: String,
    },
    /// Serving counters.
    ServerStats,
    /// Ask the server to shut down gracefully (drain, then stop).
    Shutdown,
    /// Primary → replica: apply a shipped WAL stream. Idempotent — the
    /// replica skips records at or below its LSN, so a re-shipped tail
    /// after a lost acknowledgement is harmless.
    ReplApply {
        /// Target collection.
        collection: String,
        /// Shipped-record frames (`vdb_storage::ship_record`).
        stream: Vec<u8>,
    },
    /// Ask a node for its replication LSN of a collection.
    ReplStatus {
        /// Target collection.
        collection: String,
    },
    /// Pull a consistent bootstrap state (schema + snapshot + WAL tail)
    /// from the node serving `collection`.
    ReplSnapshot {
        /// Target collection.
        collection: String,
    },
    /// Push a bootstrap state onto a node, creating the collection if it
    /// does not exist yet (an existing collection keeps its configuration
    /// and only has the state installed). Idempotent: re-installing the
    /// same state converges to the same bytes.
    ReplInstall {
        /// Target collection.
        collection: String,
        /// Schema + snapshot + tail + LSN.
        state: ReplicaPayload,
    },
    /// Fetch the node's current cluster manifest for a collection.
    ManifestGet {
        /// The routed collection.
        collection: String,
    },
    /// Publish a manifest; the node adopts it if strictly newer
    /// (idempotent re-publication) and answers with the copy it now
    /// holds, so a stale publisher learns the newer assignment.
    ManifestPut {
        /// Encoded [`vdb_distributed::ClusterManifest`].
        manifest: Vec<u8>,
    },
    /// Hybrid text + vector search: BM25 over the collection's inverted
    /// index fused with k-NN over its vectors. Answered with
    /// [`Response::Fused`]. Predicated hybrid search travels as VQL
    /// (`SEARCH … MATCH … WHERE …`) instead.
    HybridSearch {
        /// Target collection.
        collection: String,
        /// Result size.
        k: u32,
        /// Search-time knobs for the vector side.
        params: SearchParams,
        /// The query vector.
        query: Vec<f32>,
        /// The text query run through the collection's analyzer.
        text: String,
        /// How the two rankings are fused.
        fusion: Fusion,
        /// Retrieval order, or `None` to let the planner pick from the
        /// text predicate's estimated selectivity.
        strategy: Option<HybridStrategy>,
    },
}

impl Request {
    /// Whether the request cannot mutate server state. Read-only requests
    /// are safe for a client to retry automatically after a connection
    /// failure, even when the failure left the first attempt's outcome
    /// unknown. A VQL statement is read-only when [`vdb::vql::is_read`]
    /// says so.
    pub fn is_read_only(&self) -> bool {
        match self {
            Request::Ping
            | Request::Search { .. }
            | Request::SearchBatch { .. }
            | Request::HybridSearch { .. }
            | Request::Stats { .. }
            | Request::ServerStats
            | Request::ReplStatus { .. }
            | Request::ReplSnapshot { .. }
            | Request::ManifestGet { .. } => true,
            Request::Vql { statement } => vdb::vql::is_read(statement),
            _ => false,
        }
    }

    /// Whether a duplicate delivery of this request converges to the same
    /// state as a single delivery. Everything read-only qualifies, plus
    /// the replication/manifest writes, which carry LSNs or versions that
    /// make re-delivery a no-op. `Insert`/`Delete` and VQL writes do NOT:
    /// the server applies them unconditionally, so an unknowing retry can
    /// double-apply (see `Client::call`).
    pub fn is_idempotent(&self) -> bool {
        self.is_read_only()
            || matches!(
                self,
                Request::ReplApply { .. }
                    | Request::ReplInstall { .. }
                    | Request::ManifestPut { .. }
            )
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// DML acknowledged.
    Done,
    /// Search hits (key + distance).
    Hits(Vec<SearchHit>),
    /// One hits list per batched query, in order.
    HitsBatch(Vec<Vec<SearchHit>>),
    /// Row count.
    Count(u64),
    /// Collection counters.
    Stats(WireCollectionStats),
    /// Serving counters.
    ServerStats(ServerStatsSnapshot),
    /// Replication acknowledgement: the node's LSN after the operation.
    ReplState {
        /// The answering node's replication LSN for the collection.
        lsn: u64,
    },
    /// Bootstrap state answering [`Request::ReplSnapshot`].
    ReplicaState(ReplicaPayload),
    /// The node's current manifest (answers `ManifestGet`/`ManifestPut`).
    Manifest(Vec<u8>),
    /// Fused hybrid hits plus the answering node's corpus statistics, so
    /// a distributed merger can combine shard answers under exact global
    /// statistics (disjoint shards sum element-wise).
    Fused {
        /// Fused hits, best first.
        hits: Vec<FusedHit>,
        /// BM25 statistics of the answering node's corpus, in query-term
        /// order (matching each hit's `tfs`).
        stats: CorpusStats,
        /// Retrieval order the node actually executed (planner-chosen
        /// when the request said "auto").
        strategy: HybridStrategy,
    },
    /// This node is not the primary for the written key; retry at `addr`.
    Redirect {
        /// Address (`host:port`) of the shard's primary.
        addr: String,
    },
    /// Admission control shed this request; back off and retry.
    Busy,
    /// The request failed.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Character offset of the offending token for
        /// [`ErrorCode::Parse`]; `0` (and absent from the wire) for every
        /// other code.
        pos: u32,
    },
}

fn put_hits(out: &mut Vec<u8>, hits: &[SearchHit]) {
    codec::put_u32(out, hits.len() as u32);
    for h in hits {
        codec::put_u64(out, h.key);
        codec::put_f32(out, h.dist);
    }
}

fn read_hits(r: &mut Reader<'_>) -> Result<Vec<SearchHit>> {
    let n = r.u32_count(12)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.u64()?;
        let dist = r.f32()?;
        out.push(SearchHit { key, dist });
    }
    Ok(out)
}

const FUSE_RRF: u8 = 1;
const FUSE_CONVEX: u8 = 2;

fn put_fusion(out: &mut Vec<u8>, fusion: &Fusion) {
    match fusion {
        Fusion::Rrf { k0 } => {
            codec::put_u8(out, FUSE_RRF);
            codec::put_u32(out, *k0);
        }
        Fusion::Convex { alpha } => {
            codec::put_u8(out, FUSE_CONVEX);
            codec::put_f32(out, *alpha);
        }
    }
}

fn read_fusion(r: &mut Reader<'_>) -> Result<Fusion> {
    Ok(match r.u8()? {
        FUSE_RRF => Fusion::Rrf { k0: r.u32()? },
        FUSE_CONVEX => Fusion::Convex { alpha: r.f32()? },
        tag => return Err(Error::Corrupt(format!("unknown fusion tag {tag}"))),
    })
}

// Retrieval order on the wire: 0 = planner's choice.
fn put_strategy(out: &mut Vec<u8>, strategy: &Option<HybridStrategy>) {
    codec::put_u8(
        out,
        match strategy {
            None => 0,
            Some(HybridStrategy::TextFirst) => 1,
            Some(HybridStrategy::VectorFirst) => 2,
            Some(HybridStrategy::Fused) => 3,
        },
    );
}

fn read_strategy(r: &mut Reader<'_>) -> Result<Option<HybridStrategy>> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(HybridStrategy::TextFirst),
        2 => Some(HybridStrategy::VectorFirst),
        3 => Some(HybridStrategy::Fused),
        tag => return Err(Error::Corrupt(format!("unknown hybrid strategy tag {tag}"))),
    })
}

fn put_fused_hits(out: &mut Vec<u8>, hits: &[FusedHit]) {
    codec::put_u32(out, hits.len() as u32);
    for h in hits {
        codec::put_u64(out, h.key);
        codec::put_f32(out, h.dist);
        codec::put_f32(out, h.text_score);
        codec::put_f32(out, h.fused);
        codec::put_u32(out, h.doc_len);
        codec::put_u32(out, h.tfs.len() as u32);
        for tf in &h.tfs {
            codec::put_u32(out, *tf);
        }
    }
}

fn read_fused_hits(r: &mut Reader<'_>) -> Result<Vec<FusedHit>> {
    let n = r.u32_count(28)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.u64()?;
        let dist = r.f32()?;
        let text_score = r.f32()?;
        let fused = r.f32()?;
        let doc_len = r.u32()?;
        let n_tfs = r.u32()? as usize;
        let tfs = r.u32s(n_tfs)?;
        out.push(FusedHit {
            key,
            dist,
            text_score,
            fused,
            doc_len,
            tfs,
        });
    }
    Ok(out)
}

fn put_corpus_stats(out: &mut Vec<u8>, stats: &CorpusStats) {
    codec::put_u64(out, stats.n_docs);
    codec::put_u64(out, stats.total_len);
    codec::put_u32(out, stats.dfs.len() as u32);
    for df in &stats.dfs {
        codec::put_u64(out, *df);
    }
}

fn read_corpus_stats(r: &mut Reader<'_>) -> Result<CorpusStats> {
    let n_docs = r.u64()?;
    let total_len = r.u64()?;
    let n = r.u32()? as usize;
    let dfs = r.u64s(n)?;
    Ok(CorpusStats {
        n_docs,
        total_len,
        dfs,
    })
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => codec::put_u8(&mut out, OP_PING),
            Request::Insert {
                collection,
                key,
                vector,
                attrs,
            } => {
                codec::put_u8(&mut out, OP_INSERT);
                codec::put_str(&mut out, collection);
                codec::put_u64(&mut out, *key);
                codec::put_vec_f32(&mut out, vector);
                codec::put_u32(&mut out, attrs.len() as u32);
                for (name, value) in attrs {
                    codec::put_str(&mut out, name);
                    codec::put_attr(&mut out, value);
                }
            }
            Request::Delete { collection, key } => {
                codec::put_u8(&mut out, OP_DELETE);
                codec::put_str(&mut out, collection);
                codec::put_u64(&mut out, *key);
            }
            Request::Search {
                collection,
                k,
                params,
                query,
            } => {
                codec::put_u8(&mut out, OP_SEARCH);
                codec::put_str(&mut out, collection);
                codec::put_u32(&mut out, *k);
                put_search_params(&mut out, params);
                codec::put_vec_f32(&mut out, query);
            }
            Request::SearchBatch {
                collection,
                k,
                params,
                queries,
            } => {
                codec::put_u8(&mut out, OP_SEARCH_BATCH);
                codec::put_str(&mut out, collection);
                codec::put_u32(&mut out, *k);
                put_search_params(&mut out, params);
                codec::put_u32(&mut out, queries.len() as u32);
                for q in queries {
                    codec::put_vec_f32(&mut out, q);
                }
            }
            Request::Vql { statement } => {
                codec::put_u8(&mut out, OP_VQL);
                codec::put_str(&mut out, statement);
            }
            Request::Checkpoint { collection } => {
                codec::put_u8(&mut out, OP_CHECKPOINT);
                codec::put_str(&mut out, collection);
            }
            Request::Stats { collection } => {
                codec::put_u8(&mut out, OP_STATS);
                codec::put_str(&mut out, collection);
            }
            Request::ServerStats => codec::put_u8(&mut out, OP_SERVER_STATS),
            Request::Shutdown => codec::put_u8(&mut out, OP_SHUTDOWN),
            Request::ReplApply { collection, stream } => {
                codec::put_u8(&mut out, OP_REPL_APPLY);
                codec::put_str(&mut out, collection);
                codec::put_bytes(&mut out, stream);
            }
            Request::ReplStatus { collection } => {
                codec::put_u8(&mut out, OP_REPL_STATUS);
                codec::put_str(&mut out, collection);
            }
            Request::ReplSnapshot { collection } => {
                codec::put_u8(&mut out, OP_REPL_SNAPSHOT);
                codec::put_str(&mut out, collection);
            }
            Request::ReplInstall { collection, state } => {
                codec::put_u8(&mut out, OP_REPL_INSTALL);
                codec::put_str(&mut out, collection);
                put_replica_payload(&mut out, state);
            }
            Request::ManifestGet { collection } => {
                codec::put_u8(&mut out, OP_MANIFEST_GET);
                codec::put_str(&mut out, collection);
            }
            Request::ManifestPut { manifest } => {
                codec::put_u8(&mut out, OP_MANIFEST_PUT);
                codec::put_bytes(&mut out, manifest);
            }
            Request::HybridSearch {
                collection,
                k,
                params,
                query,
                text,
                fusion,
                strategy,
            } => {
                codec::put_u8(&mut out, OP_HYBRID_SEARCH);
                codec::put_str(&mut out, collection);
                codec::put_u32(&mut out, *k);
                put_search_params(&mut out, params);
                codec::put_vec_f32(&mut out, query);
                codec::put_str(&mut out, text);
                put_fusion(&mut out, fusion);
                put_strategy(&mut out, strategy);
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            OP_PING => Request::Ping,
            OP_INSERT => {
                let collection = r.str()?;
                let key = r.u64()?;
                let vector = r.vec_f32()?;
                // A name's length prefix and a value's tag.
                let n = r.u32_count(5)?;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?;
                    let value = r.attr()?;
                    attrs.push((name, value));
                }
                Request::Insert {
                    collection,
                    key,
                    vector,
                    attrs,
                }
            }
            OP_DELETE => Request::Delete {
                collection: r.str()?,
                key: r.u64()?,
            },
            OP_SEARCH => {
                let collection = r.str()?;
                let k = r.u32()?;
                let params = read_search_params(&mut r)?;
                let query = r.vec_f32()?;
                Request::Search {
                    collection,
                    k,
                    params,
                    query,
                }
            }
            OP_SEARCH_BATCH => {
                let collection = r.str()?;
                let k = r.u32()?;
                let params = read_search_params(&mut r)?;
                let n = r.u32_count(4)?;
                let mut queries = Vec::with_capacity(n);
                for _ in 0..n {
                    queries.push(r.vec_f32()?);
                }
                Request::SearchBatch {
                    collection,
                    k,
                    params,
                    queries,
                }
            }
            OP_VQL => Request::Vql {
                statement: r.str()?,
            },
            OP_CHECKPOINT => Request::Checkpoint {
                collection: r.str()?,
            },
            OP_STATS => Request::Stats {
                collection: r.str()?,
            },
            OP_SERVER_STATS => Request::ServerStats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_REPL_APPLY => Request::ReplApply {
                collection: r.str()?,
                stream: r.bytes()?,
            },
            OP_REPL_STATUS => Request::ReplStatus {
                collection: r.str()?,
            },
            OP_REPL_SNAPSHOT => Request::ReplSnapshot {
                collection: r.str()?,
            },
            OP_REPL_INSTALL => Request::ReplInstall {
                collection: r.str()?,
                state: read_replica_payload(&mut r)?,
            },
            OP_MANIFEST_GET => Request::ManifestGet {
                collection: r.str()?,
            },
            OP_MANIFEST_PUT => Request::ManifestPut {
                manifest: r.bytes()?,
            },
            OP_HYBRID_SEARCH => {
                let collection = r.str()?;
                let k = r.u32()?;
                let params = read_search_params(&mut r)?;
                let query = r.vec_f32()?;
                let text = r.str()?;
                let fusion = read_fusion(&mut r)?;
                let strategy = read_strategy(&mut r)?;
                Request::HybridSearch {
                    collection,
                    k,
                    params,
                    query,
                    text,
                    fusion,
                    strategy,
                }
            }
            op => return Err(Error::Corrupt(format!("unknown request opcode {op:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => codec::put_u8(&mut out, RE_PONG),
            Response::Done => codec::put_u8(&mut out, RE_DONE),
            Response::Hits(hits) => {
                codec::put_u8(&mut out, RE_HITS);
                put_hits(&mut out, hits);
            }
            Response::HitsBatch(lists) => {
                codec::put_u8(&mut out, RE_HITS_BATCH);
                codec::put_u32(&mut out, lists.len() as u32);
                for hits in lists {
                    put_hits(&mut out, hits);
                }
            }
            Response::Count(n) => {
                codec::put_u8(&mut out, RE_COUNT);
                codec::put_u64(&mut out, *n);
            }
            Response::Stats(s) => {
                codec::put_u8(&mut out, RE_STATS);
                codec::put_u64(&mut out, s.live);
                codec::put_u64(&mut out, s.indexed);
                codec::put_u64(&mut out, s.buffered);
                codec::put_u64(&mut out, s.merges);
                codec::put_str(&mut out, &s.index_name);
                codec::put_u64(&mut out, s.merge_threshold);
                codec::put_u64(&mut out, s.max_buffer);
                codec::put_str(&mut out, &s.merge_mode);
                codec::put_u64(&mut out, s.rebuilds_in_flight);
                codec::put_u64(&mut out, s.last_swap_micros);
                codec::put_u64(&mut out, s.failed_merges);
            }
            Response::ServerStats(s) => {
                codec::put_u8(&mut out, RE_SERVER_STATS);
                codec::put_u64(&mut out, s.served);
                codec::put_u64(&mut out, s.batches);
                codec::put_u64(&mut out, s.coalesced);
                codec::put_u64(&mut out, s.busy);
                codec::put_u64(&mut out, s.rate_limited);
                codec::put_u64(&mut out, s.deadline_expired);
                codec::put_u64(&mut out, s.protocol_errors);
                codec::put_u64(&mut out, s.connections);
                codec::put_u64(&mut out, s.open_connections);
                codec::put_u64(&mut out, s.reaped);
                codec::put_u64(&mut out, s.interactive_depth);
                codec::put_u64(&mut out, s.bulk_depth);
                codec::put_u64(&mut out, s.qps);
                codec::put_u64(&mut out, s.p50_us);
                codec::put_u64(&mut out, s.p99_us);
                // Retired "connection core" byte: always 1 (event loop).
                // The wire carries no version, so dropping the slot would
                // make older clients misparse every field after it.
                codec::put_u8(&mut out, 1);
                codec::put_u64(&mut out, s.merges);
                codec::put_u64(&mut out, s.buffered);
                codec::put_u64(&mut out, s.rebuilds_in_flight);
                codec::put_u64(&mut out, s.last_swap_micros);
                codec::put_u64(&mut out, s.failed_merges);
                codec::put_u64(&mut out, s.cache_hits);
                codec::put_u64(&mut out, s.cache_misses);
                codec::put_u32(&mut out, s.repl_links.len() as u32);
                for link in &s.repl_links {
                    codec::put_str(&mut out, &link.addr);
                    codec::put_u64(&mut out, link.lag);
                    codec::put_u8(&mut out, u8::from(link.live));
                }
            }
            Response::ReplState { lsn } => {
                codec::put_u8(&mut out, RE_REPL_STATE);
                codec::put_u64(&mut out, *lsn);
            }
            Response::ReplicaState(state) => {
                codec::put_u8(&mut out, RE_REPLICA_STATE);
                put_replica_payload(&mut out, state);
            }
            Response::Manifest(bytes) => {
                codec::put_u8(&mut out, RE_MANIFEST);
                codec::put_bytes(&mut out, bytes);
            }
            Response::Redirect { addr } => {
                codec::put_u8(&mut out, RE_REDIRECT);
                codec::put_str(&mut out, addr);
            }
            Response::Fused {
                hits,
                stats,
                strategy,
            } => {
                codec::put_u8(&mut out, RE_FUSED);
                put_strategy(&mut out, &Some(*strategy));
                put_corpus_stats(&mut out, stats);
                put_fused_hits(&mut out, hits);
            }
            Response::Busy => codec::put_u8(&mut out, RE_BUSY),
            Response::Error { code, message, pos } => {
                codec::put_u8(&mut out, RE_ERROR);
                codec::put_u8(&mut out, *code as u8);
                codec::put_str(&mut out, message);
                if *code == ErrorCode::Parse {
                    codec::put_u32(&mut out, *pos);
                }
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            RE_PONG => Response::Pong,
            RE_DONE => Response::Done,
            RE_HITS => Response::Hits(read_hits(&mut r)?),
            RE_HITS_BATCH => {
                let n = r.u32_count(4)?;
                let mut lists = Vec::with_capacity(n);
                for _ in 0..n {
                    lists.push(read_hits(&mut r)?);
                }
                Response::HitsBatch(lists)
            }
            RE_COUNT => Response::Count(r.u64()?),
            RE_STATS => Response::Stats(WireCollectionStats {
                live: r.u64()?,
                indexed: r.u64()?,
                buffered: r.u64()?,
                merges: r.u64()?,
                index_name: r.str()?,
                merge_threshold: r.u64()?,
                max_buffer: r.u64()?,
                merge_mode: r.str()?,
                rebuilds_in_flight: r.u64()?,
                last_swap_micros: r.u64()?,
                failed_merges: r.u64()?,
            }),
            RE_SERVER_STATS => Response::ServerStats(ServerStatsSnapshot {
                served: r.u64()?,
                batches: r.u64()?,
                coalesced: r.u64()?,
                busy: r.u64()?,
                rate_limited: r.u64()?,
                deadline_expired: r.u64()?,
                protocol_errors: r.u64()?,
                connections: r.u64()?,
                open_connections: r.u64()?,
                reaped: r.u64()?,
                interactive_depth: r.u64()?,
                bulk_depth: r.u64()?,
                qps: r.u64()?,
                p50_us: r.u64()?,
                p99_us: r.u64()?,
                merges: {
                    r.u8()?; // retired connection-core byte, see `encode`
                    r.u64()?
                },
                buffered: r.u64()?,
                rebuilds_in_flight: r.u64()?,
                last_swap_micros: r.u64()?,
                failed_merges: r.u64()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
                repl_links: {
                    // An address's length prefix, a lag and a flag.
                    let n = r.u32_count(13)?;
                    let mut links = Vec::with_capacity(n);
                    for _ in 0..n {
                        links.push(WireReplLink {
                            addr: r.str()?,
                            lag: r.u64()?,
                            live: r.u8()? != 0,
                        });
                    }
                    links
                },
            }),
            RE_REPL_STATE => Response::ReplState { lsn: r.u64()? },
            RE_REPLICA_STATE => Response::ReplicaState(read_replica_payload(&mut r)?),
            RE_MANIFEST => Response::Manifest(r.bytes()?),
            RE_REDIRECT => Response::Redirect { addr: r.str()? },
            RE_FUSED => {
                let strategy = read_strategy(&mut r)?.ok_or_else(|| {
                    Error::Corrupt("fused response must name its executed strategy".into())
                })?;
                let stats = read_corpus_stats(&mut r)?;
                let hits = read_fused_hits(&mut r)?;
                Response::Fused {
                    hits,
                    stats,
                    strategy,
                }
            }
            RE_BUSY => Response::Busy,
            RE_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)?;
                let message = r.str()?;
                let pos = if code == ErrorCode::Parse {
                    r.u32()?
                } else {
                    0
                };
                Response::Error { code, message, pos }
            }
            op => return Err(Error::Corrupt(format!("unknown response opcode {op:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Build the error response for a server-side failure.
    pub fn from_error(e: &Error) -> Response {
        match e {
            Error::Busy => Response::Busy,
            Error::ParseAt { msg, pos } => Response::Error {
                code: ErrorCode::Parse,
                message: msg.clone(),
                pos: *pos as u32,
            },
            other => Response::Error {
                code: ErrorCode::classify(other),
                message: other.to_string(),
                pos: 0,
            },
        }
    }

    /// Convert a response back into a [`Result`]-shaped outcome (client
    /// side): `Busy` and `Error` become [`Err`], everything else is `Ok`.
    pub fn into_result(self) -> Result<Response> {
        match self {
            Response::Busy => Err(Error::Busy),
            Response::Error { code, message, pos } => Err(match code {
                ErrorCode::NotFound => Error::NotFound(message),
                ErrorCode::Protocol => Error::Corrupt(message),
                ErrorCode::Invalid => Error::InvalidQuery(message),
                ErrorCode::RateLimited => Error::RateLimited,
                ErrorCode::Parse => Error::ParseAt {
                    msg: message,
                    pos: pos as usize,
                },
                _ => Error::Unsupported(format!("server error ({code:?}): {message}")),
            }),
            ok => Ok(ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    pub(crate) fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Insert {
                collection: "docs".into(),
                key: 42,
                vector: vec![1.0, -2.5, 3.25],
                attrs: vec![
                    ("brand".into(), AttrValue::Str("acme".into())),
                    ("price".into(), AttrValue::Int(-7)),
                    ("rating".into(), AttrValue::Float(4.5)),
                    ("in_stock".into(), AttrValue::Bool(true)),
                    ("note".into(), AttrValue::Null),
                ],
            },
            Request::Delete {
                collection: "docs".into(),
                key: 7,
            },
            Request::Search {
                collection: "docs".into(),
                k: 10,
                params: SearchParams::default().with_timeout(Duration::from_millis(250)),
                query: vec![0.0; 8],
            },
            Request::SearchBatch {
                collection: "docs".into(),
                k: 3,
                params: SearchParams::default().with_beam_width(128),
                queries: vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![]],
            },
            Request::Vql {
                statement: "SEARCH docs K 5 NEAR [1, 2, 3] WHERE brand = 'acme'".into(),
            },
            Request::Vql {
                statement: "DELETE FROM docs KEY 9".into(),
            },
            Request::Checkpoint {
                collection: String::new(),
            },
            Request::Stats {
                collection: "docs".into(),
            },
            Request::ServerStats,
            Request::Shutdown,
            Request::ReplApply {
                collection: "docs".into(),
                stream: vec![1, 2, 3, 4, 5],
            },
            Request::ReplStatus {
                collection: "docs".into(),
            },
            Request::ReplSnapshot {
                collection: "docs".into(),
            },
            Request::ReplInstall {
                collection: "docs".into(),
                state: sample_payload(),
            },
            Request::ManifestGet {
                collection: "docs".into(),
            },
            Request::ManifestPut {
                manifest: vec![9, 8, 7],
            },
            Request::HybridSearch {
                collection: "docs".into(),
                k: 5,
                params: SearchParams::default().with_timeout(Duration::from_millis(100)),
                query: vec![0.5, -1.5, 2.0],
                text: "rust systems programming".into(),
                fusion: Fusion::Convex { alpha: 0.75 },
                strategy: Some(HybridStrategy::TextFirst),
            },
            Request::HybridSearch {
                collection: "docs".into(),
                k: 3,
                params: SearchParams::default(),
                query: vec![1.0, 2.0],
                text: String::new(),
                fusion: Fusion::Rrf { k0: 60 },
                strategy: None,
            },
        ]
    }

    fn sample_payload() -> ReplicaPayload {
        ReplicaPayload {
            dim: 8,
            metric: Metric::Minkowski(1.5),
            columns: vec![
                ("brand".into(), AttrType::Str),
                ("price".into(), AttrType::Int),
                ("rating".into(), AttrType::Float),
                ("in_stock".into(), AttrType::Bool),
            ],
            lsn: 99,
            snapshot: vec![0xAB; 32],
            tail: vec![0xCD; 16],
        }
    }

    pub(crate) fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Done,
            Response::Hits(vec![
                SearchHit { key: 1, dist: 0.5 },
                SearchHit { key: 2, dist: 1.5 },
            ]),
            Response::HitsBatch(vec![vec![SearchHit { key: 9, dist: 0.0 }], vec![]]),
            Response::Count(12345),
            Response::Stats(WireCollectionStats {
                live: 10,
                indexed: 8,
                buffered: 2,
                merges: 1,
                index_name: "hnsw".into(),
                merge_threshold: 512,
                max_buffer: 2048,
                merge_mode: "background".into(),
                rebuilds_in_flight: 1,
                last_swap_micros: 42,
                failed_merges: 0,
            }),
            Response::ServerStats(ServerStatsSnapshot {
                served: 100,
                batches: 5,
                coalesced: 17,
                busy: 3,
                rate_limited: 2,
                deadline_expired: 1,
                protocol_errors: 1,
                connections: 9,
                open_connections: 4,
                reaped: 2,
                interactive_depth: 3,
                bulk_depth: 1,
                qps: 4200,
                p50_us: 512,
                p99_us: 8192,
                merges: 7,
                buffered: 130,
                rebuilds_in_flight: 1,
                last_swap_micros: 250,
                failed_merges: 0,
                cache_hits: 900,
                cache_misses: 100,
                repl_links: vec![
                    WireReplLink {
                        addr: "10.0.0.3:7071".into(),
                        lag: 12,
                        live: true,
                    },
                    WireReplLink {
                        addr: "10.0.0.4:7071".into(),
                        lag: 4096,
                        live: false,
                    },
                ],
            }),
            Response::ReplState { lsn: 123 },
            Response::ReplicaState(sample_payload()),
            Response::Manifest(vec![5, 4, 3, 2]),
            Response::Redirect {
                addr: "10.0.0.2:7070".into(),
            },
            Response::Fused {
                hits: vec![
                    FusedHit {
                        key: 3,
                        dist: 0.25,
                        text_score: 2.5,
                        fused: 0.031,
                        doc_len: 17,
                        tfs: vec![2, 0, 1],
                    },
                    FusedHit {
                        key: 9,
                        dist: 1.5,
                        text_score: 0.0,
                        fused: 0.015,
                        doc_len: 0,
                        tfs: vec![],
                    },
                ],
                stats: CorpusStats {
                    n_docs: 1000,
                    total_len: 23_456,
                    dfs: vec![40, 0, 7],
                },
                strategy: HybridStrategy::Fused,
            },
            Response::Busy,
            Response::Error {
                code: ErrorCode::NotFound,
                message: "collection `ghosts`".into(),
                pos: 0,
            },
            Response::Error {
                code: ErrorCode::RateLimited,
                message: "rate limited".into(),
                pos: 0,
            },
            Response::Error {
                code: ErrorCode::Parse,
                message: "expected a number".into(),
                pos: 23,
            },
        ]
    }

    /// Every sample message against its line in the workspace's format
    /// goldens (`tests/golden/formats.txt`, see `tests/format_goldens.rs`):
    /// encoding gives the recorded hex and decoding the hex gives the
    /// message. A mismatch prints the actual lines.
    #[test]
    fn sample_messages_match_the_format_goldens() {
        let file = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/formats.txt"
        );
        let text = std::fs::read_to_string(file).expect("format goldens are committed");
        let recorded: std::collections::HashMap<&str, &str> =
            text.lines().filter_map(|l| l.split_once(' ')).collect();
        let hex = |b: &[u8]| b.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let unhex = |h: &str| -> Vec<u8> {
            (0..h.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&h[i..i + 2], 16).expect("hex digit pair"))
                .collect()
        };
        let name = |kind: &str, i: usize, debug: String| {
            let variant: String = debug
                .chars()
                .take_while(char::is_ascii_alphanumeric)
                .collect();
            format!("{kind}.{i:02}.{variant}")
        };
        let mut wrong = Vec::new();
        for (i, req) in sample_requests().into_iter().enumerate() {
            let case = name("request", i, format!("{req:?}"));
            let actual = hex(&req.encode());
            match recorded.get(case.as_str()) {
                Some(&h) if h == actual => assert_eq!(Request::decode(&unhex(h)).unwrap(), req),
                _ => wrong.push(format!("{case} {actual}")),
            }
        }
        for (i, resp) in sample_responses().into_iter().enumerate() {
            let case = name("response", i, format!("{resp:?}"));
            let actual = hex(&resp.encode());
            match recorded.get(case.as_str()) {
                Some(&h) if h == actual => assert_eq!(Response::decode(&unhex(h)).unwrap(), resp),
                _ => wrong.push(format!("{case} {actual}")),
            }
        }
        assert!(
            wrong.is_empty(),
            "encodings differ from tests/golden/formats.txt; actual lines:\n{}",
            wrong.join("\n")
        );
    }

    #[test]
    fn unknown_opcodes_rejected() {
        assert!(Request::decode(&[0x77]).is_err());
        assert!(Response::decode(&[0x03]).is_err());
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn retry_classes_are_conservative() {
        for req in sample_requests() {
            let read_only = req.is_read_only();
            let idempotent = req.is_idempotent();
            assert!(!read_only || idempotent, "read-only implies idempotent");
            match &req {
                Request::Vql { statement } if statement.starts_with("SEARCH") => {
                    assert!(read_only, "a VQL read rides the retry: {req:?}")
                }
                Request::Insert { .. }
                | Request::Delete { .. }
                | Request::Vql { .. }
                | Request::Checkpoint { .. }
                | Request::Shutdown => {
                    assert!(!idempotent, "{req:?} must not be auto-retried")
                }
                Request::ReplApply { .. }
                | Request::ReplInstall { .. }
                | Request::ManifestPut { .. } => {
                    assert!(idempotent && !read_only, "{req:?}")
                }
                _ => assert!(read_only, "{req:?}"),
            }
        }
    }

    #[test]
    fn parse_errors_carry_position_over_the_wire() {
        let e = Error::ParseAt {
            msg: "expected `]`".into(),
            pos: 31,
        };
        let resp = Response::from_error(&e);
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(resp, decoded);
        match decoded.into_result().unwrap_err() {
            Error::ParseAt { msg, pos } => {
                assert_eq!(msg, "expected `]`");
                assert_eq!(pos, 31);
            }
            other => panic!("expected ParseAt, got {other:?}"),
        }
        // Non-parse errors stay byte-compatible: no position trailer.
        let invalid = Response::Error {
            code: ErrorCode::Invalid,
            message: "m".into(),
            pos: 0,
        };
        let parse = Response::Error {
            code: ErrorCode::Parse,
            message: "m".into(),
            pos: 0,
        };
        assert_eq!(parse.encode().len(), invalid.encode().len() + 4);
    }

    #[test]
    fn rate_limited_is_distinct_from_busy_on_the_wire() {
        let resp = Response::from_error(&Error::RateLimited);
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::RateLimited,
                    ..
                }
            ),
            "rate limiting must not hide behind the Busy opcode: {resp:?}"
        );
        assert_ne!(resp.encode()[0], Response::Busy.encode()[0]);
        assert!(matches!(
            resp.into_result().unwrap_err(),
            Error::RateLimited
        ));
    }

    #[test]
    fn error_mapping_roundtrips_busy() {
        assert_eq!(Response::from_error(&Error::Busy), Response::Busy);
        assert!(matches!(
            Response::Busy.into_result().unwrap_err(),
            Error::Busy
        ));
        let e = Error::NotFound("collection `x`".into());
        let resp = Response::from_error(&e);
        assert!(matches!(
            resp.into_result().unwrap_err(),
            Error::NotFound(_)
        ));
    }
}
