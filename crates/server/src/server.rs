//! The concurrent TCP server: an event-loop connection core feeds a
//! bounded, two-lane request queue drained by a worker pool.
//!
//! Threading model (DESIGN.md §13):
//!
//! - one **event-loop** thread owns the listener and every connection:
//!   it `poll(2)`s the whole fd set, incrementally decodes CRC-framed
//!   requests out of per-connection read buffers, and incrementally
//!   flushes per-connection write buffers — a connection costs O(bytes
//!   in flight), not a thread;
//! - `workers` **executor** threads pop requests from one shared bounded
//!   queue and run them against the database, posting completions back
//!   to the loop through a [`net::Waker`].
//!
//! Admission is explicit and priority-aware: the queue has an
//! **interactive** lane (search, stats) and a **bulk** lane (insert,
//! delete, checkpoint). Executors always drain interactive first, and
//! the bulk lane has its own smaller bound — under pressure bulk gets
//! `BUSY` first and interactive search never starves behind a backfill.
//! Per-collection token buckets ([`ServerConfig::rate_limits`]) shed
//! over-limit traffic with `BUSY` before it ever queues. A request that
//! waits past `request_deadline` is answered with a `DEADLINE` error
//! instead of being executed late.
//!
//! Batching: an executor that pops a single-query `Search` drains every
//! other compatible `Search` (same collection / k / params) currently
//! queued — or waits up to `batch_window` for one to arrive — and runs
//! them as one [`vdb::Collection::search_batch`] call.
//!
//! Observability: every completion is timed into a log2-bucketed
//! latency histogram and a sliding QPS window; `server-stats` reports
//! p50/p99, QPS, per-lane depths, open/reaped connections, and shed
//! counts alongside the maintenance counters.
//!
//! Graceful shutdown: accepting stops, admitted requests drain (each
//! gets its response), write buffers flush, and only then do sockets
//! close.

use crate::net;
use crate::protocol::{
    ErrorCode, FusedHit, ReplicaPayload, Request, Response, ServerStatsSnapshot,
    WireCollectionStats, WireReplLink,
};
use crate::replication::Replicator;
use crate::wire;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vdb::{CollectionSchema, HybridResult, IndexSpec, Predicate, Vdbms, VqlOutput};
use vdb_core::error::{Error, Result};
use vdb_core::index::SearchParams;
use vdb_distributed::ClusterManifest;

/// A per-collection token-bucket rate limit: sustained `per_sec`
/// requests per second with bursts up to `burst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained refill rate, tokens (requests) per second.
    pub per_sec: f64,
    /// Bucket capacity: how many requests may arrive back-to-back.
    pub burst: f64,
}

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads draining the request queue.
    pub workers: usize,
    /// Bound on queued (admitted but not yet executing) requests across
    /// both lanes; a request arriving at a full queue is answered `BUSY`.
    pub max_queue: usize,
    /// Bound on the bulk lane alone (insert/delete/checkpoint). Smaller
    /// than `max_queue` so bulk traffic sheds first and interactive
    /// search keeps headroom.
    pub bulk_queue: usize,
    /// Per-collection token-bucket limits; collections not listed are
    /// unlimited. Charged on insert/delete/search/search-batch.
    pub rate_limits: Vec<(String, RateLimit)>,
    /// Coalesce concurrently arriving single-query searches into one
    /// batched call.
    pub batching: bool,
    /// Maximum searches coalesced into one batch.
    pub batch_max: usize,
    /// How long an executor holding one search waits for a second one
    /// before running the batch. Zero (the default) coalesces only
    /// opportunistically — whatever is already queued rides along, and a
    /// lone search never stalls; a positive window buys deeper batches
    /// at the cost of idle-time latency.
    pub batch_window: Duration,
    /// Budget from admission to execution start; overdue requests are
    /// answered with a `DEADLINE` error, not executed late.
    pub request_deadline: Duration,
    /// Event-loop poll tick (shutdown latency bound).
    pub idle_tick: Duration,
    /// How long a peer may take to finish transmitting one started
    /// frame. A whole-frame budget: trickling one byte per tick does not
    /// reset it (slow-loris defense).
    pub frame_timeout: Duration,
    /// Close connections with no complete frame for this long.
    pub idle_timeout: Duration,
    /// Cap on concurrently open connections; excess accepts are closed
    /// immediately.
    pub max_connections: usize,
    /// Per-connection cap on admitted-but-unanswered pipelined requests;
    /// a connection at the cap stops being read until responses drain.
    pub max_pipeline: usize,
    /// Cap on a single frame payload.
    pub max_frame: u32,
    /// Set `TCP_NODELAY` on accepted sockets (request/response frames
    /// are small; Nagle delays hurt p50).
    pub nodelay: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_queue: 64,
            bulk_queue: 32,
            rate_limits: Vec::new(),
            batching: true,
            batch_max: 64,
            batch_window: Duration::ZERO,
            request_deadline: Duration::from_secs(5),
            idle_tick: Duration::from_millis(25),
            frame_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(300),
            max_connections: 10_240,
            max_pipeline: 32,
            max_frame: wire::MAX_FRAME,
            nodelay: true,
        }
    }
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    busy: AtomicU64,
    rate_limited: AtomicU64,
    deadline_expired: AtomicU64,
    protocol_errors: AtomicU64,
    connections: AtomicU64,
    open_connections: AtomicU64,
    reaped: AtomicU64,
}

/// Log2-bucketed microsecond latency histogram: bucket `i` holds
/// samples in `[2^(i-1), 2^i)` µs. Lock-free to record, 2x-resolution
/// percentile estimates to read — exactly what a metrics plane needs.
struct Histogram {
    buckets: [AtomicU64; 40],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, micros: u64) {
        let bits = 64 - micros.max(1).leading_zeros() as usize;
        self.buckets[bits.min(39)].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper bound of the bucket containing quantile `q` (0 if empty).
    fn percentile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, c) in counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return 1u64 << i;
            }
        }
        1u64 << 39
    }
}

const QPS_SLOTS: u64 = 8;

/// Completions-per-second ring: one slot per wall-clock second, read
/// back as the rate over the last few *completed* seconds so a partial
/// second does not drag the estimate down.
struct QpsWindow {
    start: Instant,
    slots: Mutex<[(u64, u64); QPS_SLOTS as usize]>,
}

impl QpsWindow {
    fn new() -> Self {
        QpsWindow {
            start: Instant::now(),
            slots: Mutex::new([(u64::MAX, 0); QPS_SLOTS as usize]),
        }
    }

    fn lock(&self) -> MutexGuard<'_, [(u64, u64); QPS_SLOTS as usize]> {
        match self.slots.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn record(&self) {
        let sec = self.start.elapsed().as_secs();
        let mut slots = self.lock();
        let slot = &mut slots[(sec % QPS_SLOTS) as usize];
        if slot.0 != sec {
            *slot = (sec, 0);
        }
        slot.1 += 1;
    }

    fn current(&self) -> u64 {
        let elapsed = self.start.elapsed();
        let sec = elapsed.as_secs();
        let slots = self.lock();
        let window = sec.min(4);
        let completed: u64 = slots
            .iter()
            .filter(|(s, _)| *s < sec && *s + window >= sec)
            .map(|(_, c)| c)
            .sum();
        if window > 0 && completed > 0 {
            return completed / window;
        }
        // Uptime under a second (or a silent window): extrapolate from
        // the current partial second instead of reporting zero.
        let partial = slots
            .iter()
            .find(|(s, _)| *s == sec)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        let frac = (elapsed.as_secs_f64() - sec as f64).max(0.05);
        (partial as f64 / frac) as u64
    }
}

/// Which queue lane a request rides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Interactive,
    Bulk,
}

/// Reads and point lookups are interactive; mutations and maintenance
/// are bulk. VQL is classified by [`vdb::vql::is_read`].
fn lane_of(request: &Request) -> Lane {
    match request {
        Request::Search { .. }
        | Request::SearchBatch { .. }
        | Request::HybridSearch { .. }
        | Request::Stats { .. }
        | Request::ServerStats
        | Request::Ping => Lane::Interactive,
        Request::Insert { .. } | Request::Delete { .. } | Request::Checkpoint { .. } => Lane::Bulk,
        Request::Vql { statement } => {
            if vdb::vql::is_read(statement) {
                Lane::Interactive
            } else {
                Lane::Bulk
            }
        }
        Request::Shutdown => Lane::Interactive,
        // Replication traffic moves bulk data and must not starve
        // interactive queries; manifest/status exchanges are tiny
        // control-plane messages.
        Request::ReplApply { .. } | Request::ReplSnapshot { .. } | Request::ReplInstall { .. } => {
            Lane::Bulk
        }
        Request::ReplStatus { .. } | Request::ManifestGet { .. } | Request::ManifestPut { .. } => {
            Lane::Interactive
        }
    }
}

/// The collection a request charges its rate-limit token against.
/// Control traffic and VQL are exempt (VQL cost varies too much for a
/// one-token charge to mean anything).
fn charged_collection(request: &Request) -> Option<&str> {
    match request {
        Request::Insert { collection, .. }
        | Request::Delete { collection, .. }
        | Request::Search { collection, .. }
        | Request::SearchBatch { collection, .. }
        | Request::HybridSearch { collection, .. } => Some(collection),
        _ => None,
    }
}

/// Where an executor delivers a finished response: `token` identifies
/// the connection generation, `seq` its place in the per-connection
/// response order.
struct Reply {
    token: u64,
    seq: u64,
}

struct Job {
    request: Request,
    reply: Reply,
    enqueued: Instant,
}

#[derive(Default)]
struct Lanes {
    interactive: VecDeque<Job>,
    bulk: VecDeque<Job>,
}

impl Lanes {
    fn depth(&self) -> usize {
        self.interactive.len() + self.bulk.len()
    }

    /// Strict priority: interactive drains before bulk. Bulk cannot
    /// starve — its lane is bounded and interactive bursts are finite.
    fn pop(&mut self) -> Option<Job> {
        self.interactive
            .pop_front()
            .or_else(|| self.bulk.pop_front())
    }
}

struct TokenBucket {
    tokens: f64,
    last: Instant,
    limit: RateLimit,
}

/// One node's view of the cluster it belongs to.
struct ClusterNode {
    /// The address peers and clients reach this node at (as it appears
    /// in the manifest).
    self_addr: String,
    /// The newest manifest this node has adopted.
    manifest: ClusterManifest,
}

struct Shared {
    /// Shared by every client request (collections order their writers);
    /// exclusive for replica applies and installs and `with_db_mut`.
    db: vdb_core::sync::RwLock<Vdbms>,
    cfg: ServerConfig,
    queue: Mutex<Lanes>,
    /// Signals executors on enqueue and on shutdown.
    wake: Condvar,
    /// No new connections/requests; drain and exit.
    stop: AtomicBool,
    /// A wire `Shutdown` request asked the owner to stop the server.
    shutdown_requested: AtomicBool,
    /// Admitted (queued or executing) requests whose response has not
    /// been posted yet; the event loop drains to zero before exiting.
    inflight: AtomicU64,
    stats: Counters,
    latency: Histogram,
    qps: QpsWindow,
    limiters: vdb_core::sync::Mutex<HashMap<String, TokenBucket>>,
    /// Cluster membership, `None` on a standalone server: the manifest
    /// this node routes by, and the address peers reach this node at
    /// (so it can tell "my shard" from "redirect elsewhere").
    cluster: vdb_core::sync::Mutex<Option<ClusterNode>>,
    /// Replicators this node primaries, registered by `attach_primary`
    /// so `ServerStats` can report per-link WAL lag. Weak: a replicator
    /// dies (and drops out of the stats) with its owner's `Arc`.
    replicators: vdb_core::sync::Mutex<Vec<std::sync::Weak<Replicator>>>,
    /// Responses posted by executors as `(token, seq, response)`, for the
    /// event loop to move into connection write buffers.
    completions: vdb_core::sync::Mutex<Vec<(u64, u64, Response)>>,
    /// Interrupts the event loop's poll: on every completion and on stop.
    waker: net::Waker,
}

// The workspace swallows mutex poisoning by policy (vdb_core::sync); the
// server uses std's Mutex directly because it needs the paired Condvar.
fn lock_queue(shared: &Shared) -> MutexGuard<'_, Lanes> {
    match shared.queue.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Shared {
    fn snapshot(&self) -> ServerStatsSnapshot {
        let maint = self.db.read().maintenance_stats();
        let (interactive_depth, bulk_depth) = {
            let lanes = lock_queue(self);
            (lanes.interactive.len() as u64, lanes.bulk.len() as u64)
        };
        let (cache_hits, cache_misses) = vdb::global_cache_stats();
        let repl_links = {
            let mut reg = self.replicators.lock();
            reg.retain(|w| w.strong_count() > 0);
            reg.iter()
                .filter_map(|w| w.upgrade())
                .flat_map(|r| {
                    r.link_lags()
                        .into_iter()
                        .map(|(addr, lag, live)| WireReplLink { addr, lag, live })
                })
                .collect()
        };
        ServerStatsSnapshot {
            served: self.stats.served.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            busy: self.stats.busy.load(Ordering::Relaxed),
            rate_limited: self.stats.rate_limited.load(Ordering::Relaxed),
            deadline_expired: self.stats.deadline_expired.load(Ordering::Relaxed),
            protocol_errors: self.stats.protocol_errors.load(Ordering::Relaxed),
            connections: self.stats.connections.load(Ordering::Relaxed),
            open_connections: self.stats.open_connections.load(Ordering::Relaxed),
            reaped: self.stats.reaped.load(Ordering::Relaxed),
            interactive_depth,
            bulk_depth,
            qps: self.qps.current(),
            p50_us: self.latency.percentile(0.50),
            p99_us: self.latency.percentile(0.99),
            merges: maint.merges,
            buffered: maint.buffered,
            rebuilds_in_flight: maint.rebuilds_in_flight,
            last_swap_micros: maint.last_swap_micros,
            failed_merges: maint.failed_merges,
            cache_hits,
            cache_misses,
            repl_links,
        }
    }

    /// Charge one token against `collection`'s bucket; `false` = shed.
    fn admit_rate(&self, collection: &str) -> bool {
        if self.cfg.rate_limits.is_empty() {
            return true;
        }
        let Some(limit) = self
            .cfg
            .rate_limits
            .iter()
            .find(|(name, _)| name == collection)
            .map(|(_, l)| *l)
        else {
            return true;
        };
        let now = Instant::now();
        let mut limiters = self.limiters.lock();
        let bucket = limiters
            .entry(collection.to_string())
            .or_insert_with(|| TokenBucket {
                tokens: limit.burst,
                last: now,
                limit,
            });
        let refill = now.duration_since(bucket.last).as_secs_f64() * bucket.limit.per_sec;
        bucket.tokens = (bucket.tokens + refill).min(bucket.limit.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Where a write for `key` must go instead of here: `Some(primary)`
    /// when this node is clustered for `collection` but does not own the
    /// key's shard. Standalone servers (and other collections on a
    /// clustered node) never redirect.
    fn redirect_for(&self, collection: &str, key: u64) -> Option<String> {
        let cluster = self.cluster.lock();
        let node = cluster.as_ref()?;
        if node.manifest.collection != collection {
            return None;
        }
        let primary = node.manifest.primary_of(key);
        if primary == node.self_addr {
            None
        } else {
            Some(primary.to_string())
        }
    }

    /// Deliver an executor-produced response: time it, count it, post it
    /// to the event loop and wake the loop.
    fn respond(&self, reply: Reply, enqueued: Instant, resp: Response) {
        self.latency
            .record(enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64);
        self.qps.record();
        if !matches!(resp, Response::Busy) {
            self.stats.served.fetch_add(1, Ordering::Relaxed);
        }
        self.completions.lock().push((reply.token, reply.seq, resp));
        self.waker.wake();
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Try to queue `request`. `None` = admitted (the response will be
/// posted to `reply`'s connection slot); `Some(resp)` = rejected, answer
/// the caller immediately.
fn admit(shared: &Shared, request: Request, reply: Reply) -> Option<Response> {
    if shared.stop.load(Ordering::SeqCst) {
        return Some(Response::Error {
            code: ErrorCode::Shutdown,
            message: "server is shutting down".into(),
            pos: 0,
        });
    }
    if let Some(collection) = charged_collection(&request) {
        if !shared.admit_rate(collection) {
            // Counted as busy too (rate-limit sheds are a kind of shed),
            // but answered with the dedicated RATE_LIMITED error code —
            // the plain Busy opcode is reserved for queue overload, so
            // clients can tell "slow down" from "server is drowning".
            shared.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
            shared.stats.busy.fetch_add(1, Ordering::Relaxed);
            return Some(Response::from_error(&Error::RateLimited));
        }
    }
    let lane = lane_of(&request);
    {
        let mut lanes = lock_queue(shared);
        let full = lanes.depth() >= shared.cfg.max_queue
            || (lane == Lane::Bulk && lanes.bulk.len() >= shared.cfg.bulk_queue);
        if full {
            drop(lanes);
            shared.stats.busy.fetch_add(1, Ordering::Relaxed);
            return Some(Response::Busy);
        }
        let job = Job {
            request,
            reply,
            enqueued: Instant::now(),
        };
        match lane {
            Lane::Interactive => lanes.interactive.push_back(job),
            Lane::Bulk => lanes.bulk.push_back(job),
        }
    }
    shared.inflight.fetch_add(1, Ordering::SeqCst);
    shared.wake.notify_one();
    None
}

/// A running server; dropping the handle shuts it down gracefully.
pub struct ServerHandle {
    addr: SocketAddr,
    /// `Some` while running; taken by [`ServerHandle::shutdown`] so the
    /// last `Arc` can be unwrapped to hand the database back.
    shared: Option<Arc<Shared>>,
    /// The event-loop thread.
    io_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    fn shared(&self) -> &Shared {
        self.shared.as_ref().expect("server handle still live")
    }

    /// The bound address (loopback + ephemeral port under tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared().snapshot()
    }

    /// Join a cluster: adopt `manifest` and declare the address peers
    /// reach this node at. From here on, clustered writes whose shard
    /// primary is another node answer `Redirect` instead of applying.
    pub fn set_cluster(&self, self_addr: impl Into<String>, manifest: ClusterManifest) {
        *self.shared().cluster.lock() = Some(ClusterNode {
            self_addr: self_addr.into(),
            manifest,
        });
    }

    /// The manifest this node currently routes by, if clustered.
    pub fn manifest(&self) -> Option<ClusterManifest> {
        self.shared()
            .cluster
            .lock()
            .as_ref()
            .map(|n| n.manifest.clone())
    }

    /// Run `f` against the served database under the exclusive lock,
    /// with every wire request excluded for the duration. This is the
    /// hook replication setup uses to export a bootstrap state and
    /// install the shipping sink *atomically*: a client write holds the
    /// shared lock for its whole call, so none can slip between the two
    /// and go unshipped.
    pub fn with_db_mut<R>(&self, f: impl FnOnce(&mut Vdbms) -> R) -> R {
        f(&mut self.shared().db.write())
    }

    /// Run `f` against the served database under the shared lock: wire
    /// reads and client writes (inserts, deletes, checkpoints, VQL)
    /// proceed alongside it; only replica applies and installs wait
    /// until it returns.
    pub fn with_db<R>(&self, f: impl FnOnce(&Vdbms) -> R) -> R {
        f(&self.shared().db.read())
    }

    /// Track a replicator for the stats plane (see `Shared::replicators`).
    pub(crate) fn register_replicator(&self, r: &Arc<Replicator>) {
        self.shared().replicators.lock().push(Arc::downgrade(r));
    }

    /// Whether a client sent a wire `Shutdown` request.
    pub fn shutdown_requested(&self) -> bool {
        self.shared().shutdown_requested.load(Ordering::SeqCst)
    }

    /// Block until a wire `Shutdown` request arrives (polling at the
    /// idle tick). Used by serve-style entrypoints.
    pub fn wait_for_wire_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(self.shared().cfg.idle_tick);
        }
    }

    /// Graceful shutdown: stop accepting, drain every admitted request
    /// (each gets its response), join all threads, and hand the database
    /// back to the caller (e.g. for a final checkpoint).
    pub fn shutdown(mut self) -> Vdbms {
        self.begin_stop();
        for w in self.workers.drain(..) {
            w.join().ok();
        }
        if let Some(t) = self.io_thread.take() {
            t.join().ok();
        }
        let shared = self.shared.take().expect("shutdown runs once");
        let shared = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("all server threads joined; no other owners"));
        shared.db.into_inner()
    }

    fn begin_stop(&self) {
        self.shared().stop.store(true, Ordering::SeqCst);
        self.shared().waker.wake();
        self.shared().wake.notify_all();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.io_thread.is_some() {
            self.begin_stop();
            for w in self.workers.drain(..) {
                w.join().ok();
            }
            if let Some(t) = self.io_thread.take() {
                t.join().ok();
            }
        }
    }
}

/// Serve `db` on `addr` (use `127.0.0.1:0` for an ephemeral loopback
/// port). Returns once the listener is bound and the worker pool is up.
pub fn serve(db: Vdbms, addr: impl ToSocketAddrs, cfg: ServerConfig) -> Result<ServerHandle> {
    let mut cfg = cfg;
    if cfg.workers == 0 {
        return Err(Error::InvalidParameter("server needs >= 1 worker".into()));
    }
    // The bulk lane is a sub-bound of the whole queue; a config that
    // shrinks `max_queue` without touching `bulk_queue` just means
    // "no extra bulk headroom".
    cfg.bulk_queue = cfg.bulk_queue.min(cfg.max_queue);
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let (waker, wake_rx) = net::Waker::pair()?;
    let shared = Arc::new(Shared {
        db: vdb_core::sync::RwLock::new(db),
        cfg: cfg.clone(),
        queue: Mutex::new(Lanes::default()),
        wake: Condvar::new(),
        stop: AtomicBool::new(false),
        shutdown_requested: AtomicBool::new(false),
        inflight: AtomicU64::new(0),
        stats: Counters::default(),
        latency: Histogram::new(),
        qps: QpsWindow::new(),
        limiters: vdb_core::sync::Mutex::new(HashMap::new()),
        cluster: vdb_core::sync::Mutex::new(None),
        replicators: vdb_core::sync::Mutex::new(Vec::new()),
        completions: vdb_core::sync::Mutex::new(Vec::new()),
        waker,
    });
    let mut workers = Vec::with_capacity(cfg.workers);
    for i in 0..cfg.workers {
        let shared = shared.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("vdb-worker-{i}"))
                .spawn(move || executor_loop(&shared))
                .expect("spawn executor"),
        );
    }
    let io_thread = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("vdb-event-loop".into())
            .spawn(move || event_loop::EventCore::new(shared, listener, wake_rx).run())
            .expect("spawn event loop")
    };
    Ok(ServerHandle {
        addr,
        shared: Some(shared),
        io_thread: Some(io_thread),
        workers,
    })
}

/// Executor loop: pop (interactive lane first), coalesce compatible
/// searches, run, post the reply.
fn executor_loop(shared: &Shared) {
    loop {
        let job = {
            let mut lanes = lock_queue(shared);
            loop {
                if let Some(job) = lanes.pop() {
                    break Some(job);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                lanes = match shared.wake.wait_timeout(lanes, shared.cfg.idle_tick) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        let Some(job) = job else { return };
        if job.enqueued.elapsed() > shared.cfg.request_deadline {
            shared
                .stats
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            let deadline = shared.cfg.request_deadline;
            shared.respond(
                job.reply,
                job.enqueued,
                Response::Error {
                    code: ErrorCode::Deadline,
                    message: format!("request waited past its {deadline:?} deadline"),
                    pos: 0,
                },
            );
            continue;
        }
        match job.request {
            Request::Search { .. } if shared.cfg.batching => run_coalesced(shared, job),
            other => {
                let resp = execute(shared, &other);
                shared.respond(job.reply, job.enqueued, resp);
            }
        }
    }
}

/// Whether a queued job is a single-query search batchable with the
/// given head-of-batch search.
fn compatible_search(job: &Job, collection: &str, k: u32, params: &SearchParams) -> bool {
    matches!(
        &job.request,
        Request::Search {
            collection: c,
            k: jk,
            params: p,
            ..
        } if c == collection && *jk == k && p == params
    )
}

/// Run one `Search` plus every compatible `Search` currently queued (or
/// arriving within `batch_window`) as a single batched call.
fn run_coalesced(shared: &Shared, head: Job) {
    let Request::Search {
        collection,
        k,
        params,
        query,
    } = &head.request
    else {
        unreachable!("run_coalesced is only called with Search jobs");
    };
    let (collection, k, params) = (collection.clone(), *k, params.clone());
    let mut batch: Vec<Job> = vec![];
    let mut queries: Vec<Vec<f32>> = vec![query.clone()];
    // Opportunistic drain of compatible searches queued right now (the
    // interactive lane only — that is where searches live). With no
    // batch window, take only a fair share of the queue — coalescing
    // runs the batch serially on this executor, so grabbing everything
    // would idle the rest of the pool exactly when it has work to do.
    let drain = |lanes: &mut Lanes, batch: &mut Vec<Job>, queries: &mut Vec<Vec<f32>>| {
        let queue = &mut lanes.interactive;
        let cap = if shared.cfg.batch_window.is_zero() {
            queue.len().div_ceil(shared.cfg.workers.max(1))
        } else {
            shared.cfg.batch_max
        };
        let mut kept = VecDeque::with_capacity(queue.len());
        while let Some(job) = queue.pop_front() {
            if batch.len() < cap
                && queries.len() < shared.cfg.batch_max
                && compatible_search(&job, &collection, k, &params)
            {
                if let Request::Search { query, .. } = &job.request {
                    queries.push(query.clone());
                }
                batch.push(job);
            } else {
                kept.push_back(job);
            }
        }
        *queue = kept;
    };
    {
        let mut lanes = lock_queue(shared);
        drain(&mut lanes, &mut batch, &mut queries);
    }
    // Nothing to coalesce yet: give concurrent arrivals one short window.
    if batch.is_empty() && !shared.cfg.batch_window.is_zero() {
        std::thread::sleep(shared.cfg.batch_window);
        let mut lanes = lock_queue(shared);
        drain(&mut lanes, &mut batch, &mut queries);
    }
    let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
    let result = shared
        .db
        .read()
        .collection(&collection)
        .and_then(|c| c.search_batch(&refs, k as usize, &params));
    match result {
        Ok(mut lists) => {
            debug_assert_eq!(lists.len(), 1 + batch.len());
            if !batch.is_empty() {
                shared.stats.batches.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .coalesced
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
            }
            let mut rest = lists.split_off(1);
            shared.respond(
                head.reply,
                head.enqueued,
                Response::Hits(lists.pop().unwrap_or_default()),
            );
            for (job, hits) in batch.into_iter().zip(rest.drain(..)) {
                shared.respond(job.reply, job.enqueued, Response::Hits(hits));
            }
        }
        Err(e) => {
            let resp = Response::from_error(&e);
            shared.respond(head.reply, head.enqueued, resp.clone());
            for job in batch {
                shared.respond(job.reply, job.enqueued, resp.clone());
            }
        }
    }
}

/// Flatten a collection's hybrid result into the wire shape: fused
/// ranking plus the per-document BM25 evidence a distributed merger
/// needs to re-score under global statistics.
fn fused_response(result: HybridResult) -> Response {
    let hits = result
        .hits
        .into_iter()
        .zip(result.details)
        .map(|(h, d)| FusedHit {
            key: h.key,
            dist: h.dist,
            text_score: h.text_score,
            fused: h.fused,
            doc_len: d.doc_len,
            tfs: d.tfs,
        })
        .collect();
    Response::Fused {
        hits,
        stats: result.stats,
        strategy: result.strategy,
    }
}

fn vql_response(output: VqlOutput) -> Response {
    match output {
        VqlOutput::Hits(hits) => Response::Hits(hits),
        VqlOutput::FusedHits(result) => fused_response(result),
        VqlOutput::Count(n) => Response::Count(n as u64),
        VqlOutput::Done => Response::Done,
    }
}

/// Execute one non-coalesced request against the database.
fn execute(shared: &Shared, request: &Request) -> Response {
    let db = || shared.db.read();
    let result: Result<Response> = (|| {
        Ok(match request {
            Request::Ping => Response::Pong,
            Request::ServerStats => Response::ServerStats(shared.snapshot()),
            Request::Shutdown => Response::Done,
            Request::Insert {
                collection,
                key,
                vector,
                attrs,
            } => {
                if let Some(addr) = shared.redirect_for(collection, *key) {
                    return Ok(Response::Redirect { addr });
                }
                let attr_refs: Vec<(&str, vdb_core::attr::AttrValue)> =
                    attrs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
                db().collection(collection)?
                    .insert(*key, vector, &attr_refs)?;
                Response::Done
            }
            Request::Delete { collection, key } => {
                if let Some(addr) = shared.redirect_for(collection, *key) {
                    return Ok(Response::Redirect { addr });
                }
                db().collection(collection)?.delete(*key)?;
                Response::Done
            }
            Request::Search {
                collection,
                k,
                params,
                query,
            } => {
                let hits = db()
                    .collection(collection)?
                    .search(query, *k as usize, params)?;
                Response::Hits(hits)
            }
            Request::SearchBatch {
                collection,
                k,
                params,
                queries,
            } => {
                let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
                let db = db();
                let c = db.collection(collection)?;
                Response::HitsBatch(c.search_batch(&refs, *k as usize, params)?)
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
                let result = db().collection(collection)?.hybrid_text_search(
                    query,
                    text,
                    *k as usize,
                    &Predicate::True,
                    *fusion,
                    *strategy,
                    params,
                )?;
                fused_response(result)
            }
            Request::Vql { statement } => {
                // Parsed before any lock: a malformed statement is
                // answered without waiting on the database.
                let statement = vdb::parse_vql(statement)?;
                vql_response(db().execute_statement(&statement)?)
            }
            Request::Checkpoint { collection } => {
                let db = db();
                if collection.is_empty() {
                    db.checkpoint_all()?;
                } else {
                    db.checkpoint(collection)?;
                }
                Response::Done
            }
            Request::Stats { collection } => {
                let db = db();
                let stats = db.collection(collection)?.stats();
                Response::Stats(WireCollectionStats {
                    live: stats.live as u64,
                    indexed: stats.indexed as u64,
                    buffered: stats.buffered as u64,
                    merges: stats.merges as u64,
                    index_name: stats.index_name.to_string(),
                    merge_threshold: stats.merge_threshold as u64,
                    max_buffer: stats.max_buffer as u64,
                    merge_mode: stats.merge_mode.to_string(),
                    rebuilds_in_flight: stats.rebuilds_in_flight as u64,
                    last_swap_micros: stats.last_swap_micros,
                    failed_merges: stats.failed_merges as u64,
                })
            }
            Request::ReplApply { collection, stream } => {
                // Exclusive: each record's LSN check and its apply must
                // not be split by another write.
                let lsn = shared
                    .db
                    .write()
                    .collection_mut(collection)?
                    .apply_replication_stream(stream)?;
                Response::ReplState { lsn }
            }
            Request::ReplStatus { collection } => {
                let lsn = db().collection(collection)?.replication_lsn();
                Response::ReplState { lsn }
            }
            Request::ReplSnapshot { collection } => {
                let db = db();
                let c = db.collection(collection)?;
                let schema = c.schema();
                let (lsn, snapshot, tail) = c.export_replica_state()?;
                Response::ReplicaState(ReplicaPayload {
                    dim: schema.dim as u32,
                    metric: schema.metric.clone(),
                    columns: schema.columns.clone(),
                    lsn,
                    snapshot,
                    tail,
                })
            }
            Request::ReplInstall { collection, state } => {
                // Exclusive: the install resets the buffer and detaches
                // the WAL under every other request.
                let mut db = shared.db.write();
                if db.collection(collection).is_err() {
                    // First contact: create the collection from the
                    // shipped schema. Replicas index with Flat — exact,
                    // always valid, and built from the snapshot rows (a
                    // primary's index image loads only under the same
                    // spec); an existing collection keeps its own index.
                    let mut schema = CollectionSchema::new(
                        collection.clone(),
                        state.dim as usize,
                        state.metric.clone(),
                    );
                    for (name, ty) in &state.columns {
                        schema = schema.column(name.clone(), *ty);
                    }
                    db.create_collection(schema, IndexSpec::Flat)?;
                }
                db.collection_mut(collection)?.install_replica_state(
                    state.lsn,
                    &state.snapshot,
                    &state.tail,
                )?;
                Response::ReplState { lsn: state.lsn }
            }
            Request::ManifestGet { collection } => {
                let cluster = shared.cluster.lock();
                match cluster
                    .as_ref()
                    .filter(|n| n.manifest.collection == *collection)
                {
                    Some(node) => Response::Manifest(node.manifest.encode()),
                    None => {
                        return Err(Error::NotFound(format!(
                            "node holds no manifest for collection `{collection}`"
                        )))
                    }
                }
            }
            Request::ManifestPut { manifest } => {
                let published = ClusterManifest::decode(manifest)?;
                let mut cluster = shared.cluster.lock();
                match cluster.as_mut() {
                    Some(node) => {
                        node.manifest.adopt(&published)?;
                        Response::Manifest(node.manifest.encode())
                    }
                    None => {
                        // A node that was never told its own address can
                        // still cache and serve the manifest; with no
                        // self identity every clustered write redirects.
                        let bytes = published.encode();
                        *cluster = Some(ClusterNode {
                            self_addr: String::new(),
                            manifest: published,
                        });
                        Response::Manifest(bytes)
                    }
                }
            }
        })
    })();
    result.unwrap_or_else(|e| Response::from_error(&e))
}

/// The readiness-polling connection core (DESIGN.md §13): one thread,
/// one `poll(2)` set, every connection a small state machine.
mod event_loop {
    use super::*;
    use std::io::{ErrorKind, Read, Write};
    use std::os::fd::AsRawFd;

    /// Stop reading a connection whose unflushed responses exceed this
    /// (a slow reader must not buffer the server into the ground).
    const WRITE_HIGH_WATER: usize = 1 << 20;

    /// One connection's state machine.
    struct Conn {
        stream: TcpStream,
        /// Bytes received but not yet parsed into complete frames.
        read_buf: Vec<u8>,
        /// Framed responses awaiting the socket; `write_pos` marks how
        /// much of it the kernel has taken.
        write_buf: Vec<u8>,
        write_pos: usize,
        /// Next sequence number to assign to an arriving request.
        next_seq: u64,
        /// Next sequence number to flush (responses go back in request
        /// order even when executors finish out of order).
        next_flush: u64,
        /// Out-of-order completions parked until their turn.
        parked: std::collections::BTreeMap<u64, Vec<u8>>,
        /// Requests admitted to the executors, response not yet posted.
        outstanding: usize,
        /// slot | generation<<32; stale completions for a recycled slot
        /// are dropped by generation mismatch.
        token: u64,
        last_activity: Instant,
        /// Set while a frame is partially received; an absolute budget —
        /// trickling bytes does not extend it.
        frame_deadline: Option<Instant>,
        /// Stop reading; close once buffered responses flush.
        closing: bool,
        /// Peer half-closed its side (EOF on read).
        read_closed: bool,
    }

    impl Conn {
        fn new(stream: TcpStream, token: u64) -> Self {
            Conn {
                stream,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                next_seq: 0,
                next_flush: 0,
                parked: std::collections::BTreeMap::new(),
                outstanding: 0,
                token,
                last_activity: Instant::now(),
                frame_deadline: None,
                closing: false,
                read_closed: false,
            }
        }

        /// Register `POLLIN`? Not while closing, half-closed, at the
        /// pipeline cap, or backpressured by an unflushed write buffer.
        fn wants_read(&self, cfg: &ServerConfig) -> bool {
            !self.closing
                && !self.read_closed
                && self.outstanding < cfg.max_pipeline
                && self.write_buf.len() - self.write_pos < WRITE_HIGH_WATER
        }

        fn write_done(&self) -> bool {
            self.write_pos >= self.write_buf.len()
        }

        /// Nothing left to do on this connection: close it.
        fn finished(&self) -> bool {
            (self.closing || self.read_closed)
                && self.outstanding == 0
                && self.parked.is_empty()
                && self.write_done()
        }

        /// Queue `resp` as the answer to request `seq`, releasing it —
        /// and any consecutively parked successors — into the write
        /// buffer in request order.
        fn deliver(&mut self, seq: u64, resp: &Response) {
            let mut framed = Vec::with_capacity(64);
            wire::write_frame(&mut framed, &resp.encode()).expect("vec write cannot fail");
            self.parked.insert(seq, framed);
            while let Some(bytes) = self.parked.remove(&self.next_flush) {
                self.write_buf.extend_from_slice(&bytes);
                self.next_flush += 1;
            }
        }

        /// Answer an inline (non-queued) response in order.
        fn deliver_next(&mut self, resp: &Response) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.deliver(seq, resp);
        }

        /// Push buffered bytes into the socket; `false` = connection is
        /// broken, close it.
        fn flush(&mut self) -> bool {
            while self.write_pos < self.write_buf.len() {
                match (&self.stream).write(&self.write_buf[self.write_pos..]) {
                    Ok(0) => return false,
                    Ok(n) => {
                        self.write_pos += n;
                        self.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            if self.write_done() && !self.write_buf.is_empty() {
                self.write_buf.clear();
                self.write_pos = 0;
            }
            true
        }
    }

    enum Slot {
        Listener,
        Waker,
        Conn(usize),
    }

    pub(super) struct EventCore {
        shared: Arc<Shared>,
        listener: TcpListener,
        wake_rx: net::WakeReceiver,
        conns: Vec<Option<Conn>>,
        gens: Vec<u32>,
        free: Vec<usize>,
        scratch: Vec<u8>,
        completions: Vec<(u64, u64, Response)>,
    }

    impl EventCore {
        /// `listener` must already be nonblocking.
        pub(super) fn new(
            shared: Arc<Shared>,
            listener: TcpListener,
            wake_rx: net::WakeReceiver,
        ) -> Self {
            EventCore {
                shared,
                listener,
                wake_rx,
                conns: Vec::new(),
                gens: Vec::new(),
                free: Vec::new(),
                scratch: vec![0u8; 64 * 1024],
                completions: Vec::new(),
            }
        }

        pub(super) fn run(mut self) {
            let mut fds: Vec<net::PollFd> = Vec::new();
            let mut slots: Vec<Slot> = Vec::new();
            let mut drain_deadline: Option<Instant> = None;
            loop {
                self.apply_completions();
                self.flush_all();
                let stopping = self.shared.stop.load(Ordering::SeqCst);
                if stopping {
                    let grace = (2 * self.shared.cfg.frame_timeout).max(Duration::from_millis(250));
                    let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + grace);
                    let drained = self.shared.inflight.load(Ordering::SeqCst) == 0
                        && self
                            .conns
                            .iter()
                            .flatten()
                            .all(|c| c.write_done() && c.parked.is_empty());
                    if drained || Instant::now() >= deadline {
                        break;
                    }
                }
                fds.clear();
                slots.clear();
                if !stopping {
                    fds.push(net::PollFd::new(self.listener.as_raw_fd(), net::POLLIN));
                    slots.push(Slot::Listener);
                }
                fds.push(net::PollFd::new(self.wake_rx.fd(), net::POLLIN));
                slots.push(Slot::Waker);
                for (slot, conn) in self.conns.iter().enumerate() {
                    let Some(c) = conn else { continue };
                    let mut events = 0i16;
                    if c.wants_read(&self.shared.cfg) {
                        events |= net::POLLIN;
                    }
                    if !c.write_done() {
                        events |= net::POLLOUT;
                    }
                    fds.push(net::PollFd::new(c.stream.as_raw_fd(), events));
                    slots.push(Slot::Conn(slot));
                }
                if net::poll(&mut fds, self.shared.cfg.idle_tick).is_err() {
                    // EBADF and friends self-heal: closed fds leave the
                    // set on the next rebuild. Don't spin.
                    std::thread::sleep(Duration::from_millis(1));
                }
                let now = Instant::now();
                let mut to_close: Vec<usize> = Vec::new();
                for (i, slot) in slots.iter().enumerate() {
                    match *slot {
                        Slot::Listener if fds[i].readable() => self.accept_ready(),
                        Slot::Waker if fds[i].readable() => self.wake_rx.drain(),
                        Slot::Conn(idx) => {
                            if fds[i].failed() {
                                to_close.push(idx);
                                continue;
                            }
                            if fds[i].readable() {
                                let keep = conn_read(
                                    &self.shared,
                                    self.conns[idx].as_mut().expect("slot live this tick"),
                                    &mut self.scratch,
                                );
                                if !keep {
                                    to_close.push(idx);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                // Flush everything with buffered output (new inline
                // responses, plus sockets that just reported POLLOUT),
                // then reap the dead and the overdue.
                for (idx, conn) in self.conns.iter_mut().enumerate() {
                    let Some(c) = conn else { continue };
                    if !c.flush() || c.finished() {
                        to_close.push(idx);
                        continue;
                    }
                    let frame_overdue = c.frame_deadline.is_some_and(|d| now >= d);
                    let idle_overdue = c.outstanding == 0
                        && c.write_done()
                        && now.duration_since(c.last_activity) >= self.shared.cfg.idle_timeout;
                    if frame_overdue || idle_overdue {
                        self.shared.stats.reaped.fetch_add(1, Ordering::Relaxed);
                        to_close.push(idx);
                    }
                }
                for idx in to_close {
                    self.close(idx);
                }
            }
            // Last-gasp flush so drained responses reach their sockets.
            for conn in self.conns.iter_mut().flatten() {
                conn.flush();
            }
        }

        /// Move executor completions into their connections' buffers.
        fn apply_completions(&mut self) {
            let mut completions = std::mem::take(&mut self.completions);
            std::mem::swap(&mut *self.shared.completions.lock(), &mut completions);
            for (token, seq, resp) in completions.drain(..) {
                let slot = (token >> 32) as usize;
                let gen = token as u32;
                match self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                    Some(c) if self.gens[slot] == gen => {
                        c.outstanding -= 1;
                        c.deliver(seq, &resp);
                    }
                    // The connection died before its response: drop it.
                    _ => {}
                }
            }
            self.completions = completions;
        }

        fn flush_all(&mut self) {
            let mut to_close: Vec<usize> = Vec::new();
            for (idx, conn) in self.conns.iter_mut().enumerate() {
                let Some(c) = conn else { continue };
                if !c.flush() || c.finished() {
                    to_close.push(idx);
                }
            }
            for idx in to_close {
                self.close(idx);
            }
        }

        fn accept_ready(&mut self) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let open = self.shared.stats.open_connections.load(Ordering::Relaxed);
                        if open >= self.shared.cfg.max_connections as u64 {
                            drop(stream);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        if self.shared.cfg.nodelay {
                            stream.set_nodelay(true).ok();
                        }
                        let slot = self.free.pop().unwrap_or_else(|| {
                            self.conns.push(None);
                            self.gens.push(0);
                            self.conns.len() - 1
                        });
                        let token = ((slot as u64) << 32) | self.gens[slot] as u64;
                        self.conns[slot] = Some(Conn::new(stream, token));
                        self.shared
                            .stats
                            .connections
                            .fetch_add(1, Ordering::Relaxed);
                        self.shared
                            .stats
                            .open_connections
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        fn close(&mut self, slot: usize) {
            if self.conns[slot].take().is_some() {
                self.gens[slot] = self.gens[slot].wrapping_add(1);
                self.free.push(slot);
                self.shared
                    .stats
                    .open_connections
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Drain the socket into the read buffer and parse every complete
    /// frame out of it. `false` = close the connection.
    fn conn_read(shared: &Shared, conn: &mut Conn, scratch: &mut [u8]) -> bool {
        loop {
            match (&conn.stream).read(scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = Instant::now();
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        parse_frames(shared, conn);
        true
    }

    /// Incremental frame decoder: consume complete `header | payload`
    /// frames from the read buffer, leave partial ones for the next
    /// readiness event (guarded by the frame deadline).
    fn parse_frames(shared: &Shared, conn: &mut Conn) {
        let mut consumed = 0usize;
        loop {
            let request = match wire::split_frame(&conn.read_buf[consumed..], shared.cfg.max_frame)
            {
                Ok(Some((payload, len))) => {
                    consumed += len;
                    Request::decode(payload)
                }
                Ok(None) => break, // partial frame; wait for more bytes
                Err(e) => {
                    frame_error(shared, conn, e.to_string());
                    break;
                }
            };
            match request {
                Ok(req) => handle_request(shared, conn, req),
                Err(e) => {
                    // Intact frame, malformed message: answer and keep
                    // the connection (framing sync is still good).
                    shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    conn.deliver_next(&Response::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                        pos: 0,
                    });
                }
            }
            if conn.closing {
                break;
            }
        }
        if conn.closing {
            conn.read_buf.clear();
        } else {
            conn.read_buf.drain(..consumed);
        }
        // An unfinished frame runs against an absolute deadline;
        // receiving yet another trickled byte must not extend it.
        if conn.read_buf.is_empty() {
            conn.frame_deadline = None;
        } else if conn.frame_deadline.is_none() {
            conn.frame_deadline = Some(Instant::now() + shared.cfg.frame_timeout);
        }
    }

    /// Framing is unrecoverable (bad magic / length / CRC): answer with
    /// a protocol error, then close once it flushes.
    fn frame_error(shared: &Shared, conn: &mut Conn, message: String) {
        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        conn.deliver_next(&Response::Error {
            code: ErrorCode::Protocol,
            message,
            pos: 0,
        });
        conn.closing = true;
    }

    /// Route one decoded request: pure control inline, everything else
    /// through the shared admission layer with an ordered reply slot.
    fn handle_request(shared: &Shared, conn: &mut Conn, request: Request) {
        match request {
            Request::Ping => {
                shared.stats.served.fetch_add(1, Ordering::Relaxed);
                conn.deliver_next(&Response::Pong);
            }
            Request::Shutdown => {
                shared.shutdown_requested.store(true, Ordering::SeqCst);
                shared.stats.served.fetch_add(1, Ordering::Relaxed);
                conn.deliver_next(&Response::Done);
            }
            // ServerStats goes through the queue: it reads the db lock
            // for maintenance stats, and the loop thread must never wait
            // on the database.
            request => {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let reply = Reply {
                    token: conn.token,
                    seq,
                };
                match admit(shared, request, reply) {
                    None => conn.outstanding += 1,
                    Some(resp) => conn.deliver(seq, &resp),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb::{CollectionSchema, IndexSpec, SystemProfile};
    use vdb_core::metric::Metric;

    fn fixture_db(n: usize) -> Vdbms {
        let mut db = Vdbms::new(SystemProfile::MostlyVector);
        db.create_collection(
            CollectionSchema::new("docs", 3, Metric::Euclidean),
            IndexSpec::Flat,
        )
        .unwrap();
        for i in 0..n as u64 {
            db.collection_mut("docs")
                .unwrap()
                .insert(i, &[i as f32, 0.0, 0.0], &[])
                .unwrap();
        }
        db
    }

    fn call(addr: SocketAddr, req: &Request) -> Response {
        let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        wire::write_frame(&mut conn, &req.encode()).unwrap();
        let payload = wire::read_frame(&mut conn, wire::MAX_FRAME)
            .unwrap()
            .unwrap();
        Response::decode(&payload).unwrap()
    }

    #[test]
    fn serve_search_vql_stats_roundtrip() {
        let handle = serve(fixture_db(32), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.addr();
        assert_eq!(call(addr, &Request::Ping), Response::Pong);
        let resp = call(
            addr,
            &Request::Search {
                collection: "docs".into(),
                k: 2,
                params: SearchParams::default(),
                query: vec![5.2, 0.0, 0.0],
            },
        );
        match resp {
            Response::Hits(hits) => {
                assert_eq!(hits[0].key, 5);
                assert_eq!(hits[1].key, 6);
            }
            other => panic!("expected hits, got {other:?}"),
        }
        let resp = call(
            addr,
            &Request::Vql {
                statement: "COUNT docs".into(),
            },
        );
        assert_eq!(resp, Response::Count(32));
        match call(
            addr,
            &Request::Stats {
                collection: "docs".into(),
            },
        ) {
            Response::Stats(s) => assert_eq!(s.live, 32),
            other => panic!("expected stats, got {other:?}"),
        }
        // Unknown collection surfaces as a typed NOT_FOUND error.
        match call(
            addr,
            &Request::Search {
                collection: "ghosts".into(),
                k: 1,
                params: SearchParams::default(),
                query: vec![0.0; 3],
            },
        ) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotFound),
            other => panic!("expected error, got {other:?}"),
        }
        let db = handle.shutdown();
        assert_eq!(db.collection("docs").unwrap().len(), 32);
    }

    #[test]
    fn insert_then_search_over_wire() {
        let handle = serve(fixture_db(0), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.addr();
        for i in 0..10u64 {
            let resp = call(
                addr,
                &Request::Insert {
                    collection: "docs".into(),
                    key: i,
                    vector: vec![i as f32, 0.0, 0.0],
                    attrs: vec![],
                },
            );
            assert_eq!(resp, Response::Done);
        }
        let resp = call(
            addr,
            &Request::Delete {
                collection: "docs".into(),
                key: 3,
            },
        );
        assert_eq!(resp, Response::Done);
        match call(
            addr,
            &Request::Search {
                collection: "docs".into(),
                k: 1,
                params: SearchParams::default(),
                query: vec![3.1, 0.0, 0.0],
            },
        ) {
            Response::Hits(hits) => assert_ne!(hits[0].key, 3, "deleted key must not surface"),
            other => panic!("expected hits, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn corrupt_frame_answered_with_protocol_error() {
        let handle = serve(fixture_db(4), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut conn = TcpStream::connect_timeout(&handle.addr(), Duration::from_secs(1)).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &Request::Ping.encode()).unwrap();
        *framed.last_mut().unwrap() ^= 0xFF; // flip a payload byte -> CRC mismatch
        use std::io::Write;
        conn.write_all(&framed).unwrap();
        let payload = wire::read_frame(&mut conn, wire::MAX_FRAME)
            .unwrap()
            .unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("expected protocol error, got {other:?}"),
        }
        assert_eq!(handle.stats().protocol_errors, 1);
        handle.shutdown();
    }

    #[test]
    fn wire_shutdown_request_sets_flag() {
        let handle = serve(fixture_db(1), "127.0.0.1:0", ServerConfig::default()).unwrap();
        assert!(!handle.shutdown_requested());
        assert_eq!(call(handle.addr(), &Request::Shutdown), Response::Done);
        handle.wait_for_wire_shutdown();
        assert!(handle.shutdown_requested());
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let handle = serve(fixture_db(32), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut conn = TcpStream::connect_timeout(&handle.addr(), Duration::from_secs(1)).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Write 8 searches back-to-back without reading a single
        // response; the server must answer them in request order.
        for i in 0..8u32 {
            let req = Request::Search {
                collection: "docs".into(),
                k: 1,
                params: SearchParams::default(),
                query: vec![i as f32 + 0.1, 0.0, 0.0],
            };
            wire::write_frame(&mut conn, &req.encode()).unwrap();
        }
        for i in 0..8u64 {
            let payload = wire::read_frame(&mut conn, wire::MAX_FRAME)
                .unwrap()
                .unwrap();
            match Response::decode(&payload).unwrap() {
                Response::Hits(hits) => {
                    assert_eq!(hits[0].key, i, "response {i} out of order")
                }
                other => panic!("expected hits, got {other:?}"),
            }
        }
        handle.shutdown();
    }

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket [64, 128)
        }
        h.record(1_000_000);
        let p50 = h.percentile(0.50);
        assert!((64..=128).contains(&p50), "p50 {p50} not near 100us");
        assert!(h.percentile(0.99) <= 128);
        assert!(h.percentile(1.0) >= 1_000_000);
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn lanes_classify_and_prioritize() {
        assert_eq!(
            lane_of(&Request::Search {
                collection: "c".into(),
                k: 1,
                params: SearchParams::default(),
                query: vec![],
            }),
            Lane::Interactive
        );
        assert_eq!(
            lane_of(&Request::Insert {
                collection: "c".into(),
                key: 0,
                vector: vec![],
                attrs: vec![],
            }),
            Lane::Bulk
        );
        assert_eq!(
            lane_of(&Request::Vql {
                statement: "SEARCH docs NEAR [1] LIMIT 1".into()
            }),
            Lane::Interactive
        );
        assert_eq!(
            lane_of(&Request::Vql {
                statement: "insert into docs".into()
            }),
            Lane::Bulk
        );
        let mut lanes = Lanes::default();
        lanes.bulk.push_back(Job {
            request: Request::Ping,
            reply: Reply { token: 0, seq: 0 },
            enqueued: Instant::now(),
        });
        lanes.interactive.push_back(Job {
            request: Request::Shutdown,
            reply: Reply { token: 0, seq: 1 },
            enqueued: Instant::now(),
        });
        let first = lanes.pop().unwrap();
        assert!(
            matches!(first.request, Request::Shutdown),
            "interactive lane must drain first"
        );
    }
}
