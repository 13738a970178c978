//! The blocking client: a connection-pooled, retrying counterpart to the
//! server, exposing typed methods that return the same `vdb` types an
//! in-process caller would get.
//!
//! One [`Client`] is safe to share across threads: concurrent callers
//! each check out (or dial) their own pooled connection, so requests
//! never serialize behind one socket. Checkout probes each pooled
//! connection with a zero-byte readiness read, so a half-closed socket
//! (server restart, idle reap) is discarded *before* a request is
//! written into it; the retry-once-on-fresh-dial fallback remains for
//! the race where the peer dies between the probe and the write.

use crate::protocol::{
    FusedHit, ReplicaPayload, Request, Response, ServerStatsSnapshot, WireCollectionStats,
};
use crate::wire;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use vdb::{
    CorpusStats, Fusion, HybridDetail, HybridHit, HybridResult, HybridStrategy, SearchHit,
    VqlOutput,
};
use vdb_core::attr::AttrValue;
use vdb_core::error::{Error, Result};
use vdb_core::index::SearchParams;
use vdb_core::sync::Mutex;
use vdb_distributed::ClusterManifest;

/// Client-side transport knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout per dial attempt.
    pub connect_timeout: Duration,
    /// Dial attempts before `connect` gives up.
    pub connect_retries: u32,
    /// Initial backoff between dial attempts (doubles each retry).
    pub connect_backoff: Duration,
    /// Socket read timeout while waiting for a response (a search's own
    /// [`SearchParams::timeout`] does not override this; it bounds the
    /// server side).
    pub read_timeout: Duration,
    /// Cap on an accepted response frame.
    pub max_frame: u32,
    /// Connections kept warm in the pool.
    pub pool_size: usize,
    /// Set `TCP_NODELAY` on dialed sockets (request frames are small;
    /// Nagle batching delays them behind unacked responses).
    pub nodelay: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            connect_retries: 3,
            connect_backoff: Duration::from_millis(10),
            read_timeout: Duration::from_secs(10),
            max_frame: wire::MAX_FRAME,
            pool_size: 8,
            nodelay: true,
        }
    }
}

/// Zero-byte readiness probe for a pooled connection. Between complete
/// request/response exchanges a healthy socket has nothing to read, so:
/// `WouldBlock` = healthy; `Ok(0)` = the peer half-closed (FIN) while
/// the socket sat in the pool; `Ok(n)` = stray unread bytes, the
/// framing is desynced — either way the socket must not be reused.
fn pooled_socket_is_live(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let live = match conn.peek(&mut probe) {
        Ok(0) => false,
        Ok(_) => false,
        Err(e) if e.kind() == ErrorKind::WouldBlock => true,
        Err(_) => false,
    };
    conn.set_nonblocking(false).is_ok() && live
}

fn dial(addr: &SocketAddr, cfg: &ClientConfig) -> Result<TcpStream> {
    let mut backoff = cfg.connect_backoff;
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..cfg.connect_retries.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff *= 2;
        }
        match TcpStream::connect_timeout(addr, cfg.connect_timeout) {
            Ok(s) => {
                if cfg.nodelay {
                    s.set_nodelay(true).ok();
                }
                s.set_read_timeout(Some(cfg.read_timeout)).ok();
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(Error::Io(last.unwrap_or_else(|| {
        std::io::Error::other("connect failed with no attempts")
    })))
}

/// Blocking client for a [`crate::serve`]d database.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    pool: Mutex<Vec<TcpStream>>,
}

impl Client {
    /// Connect with default configuration and verify liveness with a
    /// `Ping`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit configuration and verify liveness with a
    /// `Ping`.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| Error::InvalidParameter("server address resolves to nothing".into()))?;
        let client = Client {
            addr,
            cfg,
            pool: Mutex::new(Vec::new()),
        };
        client.ping()?;
        Ok(client)
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn checkout(&self) -> Result<TcpStream> {
        // Pop until a pooled connection passes the staleness probe;
        // half-closed or desynced sockets are dropped on the floor.
        loop {
            let Some(conn) = self.pool.lock().pop() else {
                break;
            };
            if pooled_socket_is_live(&conn) {
                return Ok(conn);
            }
        }
        dial(&self.addr, &self.cfg)
    }

    fn checkin(&self, conn: TcpStream) {
        let mut pool = self.pool.lock();
        if pool.len() < self.cfg.pool_size {
            pool.push(conn);
        }
    }

    fn call_once(&self, conn: &mut TcpStream, payload: &[u8]) -> Result<Response> {
        wire::write_frame(conn, payload)?;
        let reply = wire::read_frame(conn, self.cfg.max_frame)?
            .ok_or_else(|| Error::Io(std::io::Error::other("server closed the connection")))?;
        Response::decode(&reply)
    }

    /// Send one request and return the raw response (`Busy` and `Error`
    /// included). The typed methods below convert those to [`Err`].
    ///
    /// A failed exchange is retried exactly once on a fresh dial — but
    /// only for idempotent requests ([`Request::is_idempotent`]). For a
    /// mutation, a connection that dies mid-exchange leaves the first
    /// attempt's outcome unknown: the server may have applied it and
    /// lost only the acknowledgement, so a blind retry can double-apply.
    /// Those surface as [`Error::MaybeApplied`]; the caller decides
    /// whether re-issuing is safe for its keys.
    pub fn call(&self, request: &Request) -> Result<Response> {
        let payload = request.encode();
        let mut conn = self.checkout()?;
        match self.call_once(&mut conn, &payload) {
            Ok(resp) => {
                self.checkin(conn);
                Ok(resp)
            }
            Err(first) => {
                // The pooled connection may be stale. Retry exactly once
                // on a fresh dial; a second failure is the answer.
                drop(conn);
                if !request.is_idempotent() {
                    return Err(Error::MaybeApplied(first.to_string()));
                }
                let mut conn = dial(&self.addr, &self.cfg).map_err(|_| first)?;
                let resp = self.call_once(&mut conn, &payload)?;
                self.checkin(conn);
                Ok(resp)
            }
        }
    }

    fn expect(&self, request: &Request) -> Result<Response> {
        self.call(request)?.into_result()
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<()> {
        match self.expect(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Insert one entity.
    pub fn insert(
        &self,
        collection: &str,
        key: u64,
        vector: &[f32],
        attrs: &[(&str, AttrValue)],
    ) -> Result<()> {
        let req = Request::Insert {
            collection: collection.into(),
            key,
            vector: vector.to_vec(),
            attrs: attrs
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        };
        match self.expect(&req)? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Delete an entity by key.
    pub fn delete(&self, collection: &str, key: u64) -> Result<()> {
        let req = Request::Delete {
            collection: collection.into(),
            key,
        };
        match self.expect(&req)? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Single k-NN search.
    pub fn search(
        &self,
        collection: &str,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<SearchHit>> {
        let req = Request::Search {
            collection: collection.into(),
            k: k as u32,
            params: params.clone(),
            query: query.to_vec(),
        };
        match self.expect(&req)? {
            Response::Hits(hits) => Ok(hits),
            other => Err(unexpected("Hits", &other)),
        }
    }

    /// Batched k-NN search (one round trip, one warm context server-side).
    pub fn search_batch(
        &self,
        collection: &str,
        queries: &[&[f32]],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Vec<SearchHit>>> {
        let req = Request::SearchBatch {
            collection: collection.into(),
            k: k as u32,
            params: params.clone(),
            queries: queries.iter().map(|q| q.to_vec()).collect(),
        };
        match self.expect(&req)? {
            Response::HitsBatch(lists) => Ok(lists),
            other => Err(unexpected("HitsBatch", &other)),
        }
    }

    /// Hybrid text + vector search: BM25 over the collection's inverted
    /// index fused with k-NN, returning the same [`HybridResult`] an
    /// in-process caller would get. `strategy: None` lets the server's
    /// planner pick the retrieval order from the text predicate's
    /// estimated selectivity.
    #[allow(clippy::too_many_arguments)]
    pub fn hybrid_search(
        &self,
        collection: &str,
        query: &[f32],
        text: &str,
        k: usize,
        fusion: Fusion,
        strategy: Option<HybridStrategy>,
        params: &SearchParams,
    ) -> Result<HybridResult> {
        let req = Request::HybridSearch {
            collection: collection.into(),
            k: k as u32,
            params: params.clone(),
            query: query.to_vec(),
            text: text.into(),
            fusion,
            strategy,
        };
        match self.expect(&req)? {
            Response::Fused {
                hits,
                stats,
                strategy,
            } => Ok(assemble_hybrid(hits, stats, strategy)),
            other => Err(unexpected("Fused", &other)),
        }
    }

    /// Execute one VQL statement on the server.
    pub fn vql(&self, statement: &str) -> Result<VqlOutput> {
        let req = Request::Vql {
            statement: statement.into(),
        };
        Ok(match self.expect(&req)? {
            Response::Hits(hits) => VqlOutput::Hits(hits),
            Response::Fused {
                hits,
                stats,
                strategy,
            } => VqlOutput::FusedHits(assemble_hybrid(hits, stats, strategy)),
            Response::Count(n) => VqlOutput::Count(n as usize),
            Response::Done => VqlOutput::Done,
            other => return Err(unexpected("Hits/Fused/Count/Done", &other)),
        })
    }

    /// Durably checkpoint one collection, or every durable collection
    /// when `collection` is empty.
    pub fn checkpoint(&self, collection: &str) -> Result<()> {
        let req = Request::Checkpoint {
            collection: collection.into(),
        };
        match self.expect(&req)? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Collection counters.
    pub fn stats(&self, collection: &str) -> Result<WireCollectionStats> {
        let req = Request::Stats {
            collection: collection.into(),
        };
        match self.expect(&req)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Serving counters.
    pub fn server_stats(&self) -> Result<ServerStatsSnapshot> {
        match self.expect(&Request::ServerStats)? {
            Response::ServerStats(s) => Ok(s),
            other => Err(unexpected("ServerStats", &other)),
        }
    }

    /// Ask the server to shut down gracefully. The server acknowledges
    /// first and drains afterwards, so this returns once the request is
    /// accepted, not once the server exits.
    pub fn shutdown_server(&self) -> Result<()> {
        match self.expect(&Request::Shutdown)? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Ship a replication stream; returns the replica's LSN afterwards.
    pub fn repl_apply(&self, collection: &str, stream: &[u8]) -> Result<u64> {
        let req = Request::ReplApply {
            collection: collection.into(),
            stream: stream.to_vec(),
        };
        match self.expect(&req)? {
            Response::ReplState { lsn } => Ok(lsn),
            other => Err(unexpected("ReplState", &other)),
        }
    }

    /// The node's replication LSN for a collection.
    pub fn repl_status(&self, collection: &str) -> Result<u64> {
        let req = Request::ReplStatus {
            collection: collection.into(),
        };
        match self.expect(&req)? {
            Response::ReplState { lsn } => Ok(lsn),
            other => Err(unexpected("ReplState", &other)),
        }
    }

    /// Pull a consistent bootstrap state from the node.
    pub fn repl_snapshot(&self, collection: &str) -> Result<ReplicaPayload> {
        let req = Request::ReplSnapshot {
            collection: collection.into(),
        };
        match self.expect(&req)? {
            Response::ReplicaState(state) => Ok(state),
            other => Err(unexpected("ReplicaState", &other)),
        }
    }

    /// Push a bootstrap state onto the node (creating the collection if
    /// needed); returns the node's LSN afterwards.
    pub fn repl_install(&self, collection: &str, state: ReplicaPayload) -> Result<u64> {
        let req = Request::ReplInstall {
            collection: collection.into(),
            state,
        };
        match self.expect(&req)? {
            Response::ReplState { lsn } => Ok(lsn),
            other => Err(unexpected("ReplState", &other)),
        }
    }

    /// Fetch the node's cluster manifest for a collection.
    pub fn manifest_get(&self, collection: &str) -> Result<ClusterManifest> {
        let req = Request::ManifestGet {
            collection: collection.into(),
        };
        match self.expect(&req)? {
            Response::Manifest(bytes) => ClusterManifest::decode(&bytes),
            other => Err(unexpected("Manifest", &other)),
        }
    }

    /// Publish a manifest; returns the copy the node holds afterwards
    /// (which is newer than the published one if the publisher is stale).
    pub fn manifest_put(&self, manifest: &ClusterManifest) -> Result<ClusterManifest> {
        let req = Request::ManifestPut {
            manifest: manifest.encode(),
        };
        match self.expect(&req)? {
            Response::Manifest(bytes) => ClusterManifest::decode(&bytes),
            other => Err(unexpected("Manifest", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> Error {
    Error::Corrupt(format!("expected {wanted} response, got {got:?}"))
}

/// Reassemble a wire `Fused` response into the [`HybridResult`] shape
/// in-process callers get, splitting each hit back into ranking + BM25
/// evidence.
fn assemble_hybrid(
    hits: Vec<FusedHit>,
    stats: CorpusStats,
    strategy: HybridStrategy,
) -> HybridResult {
    let mut ranked = Vec::with_capacity(hits.len());
    let mut details = Vec::with_capacity(hits.len());
    for h in hits {
        ranked.push(HybridHit {
            key: h.key,
            dist: h.dist,
            text_score: h.text_score,
            fused: h.fused,
        });
        details.push(HybridDetail {
            doc_len: h.doc_len,
            tfs: h.tfs,
        });
    }
    HybridResult {
        hits: ranked,
        details,
        stats,
        strategy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServerConfig};
    use std::sync::Arc;
    use vdb::{CollectionSchema, IndexSpec, SystemProfile, Vdbms};
    use vdb_core::metric::Metric;

    fn fixture_db(n: usize) -> Vdbms {
        let mut db = Vdbms::new(SystemProfile::MostlyVector);
        db.create_collection(
            CollectionSchema::new("docs", 3, Metric::Euclidean)
                .column("tag", vdb_core::attr::AttrType::Int),
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

    #[test]
    fn typed_client_roundtrip() {
        let handle = serve(fixture_db(16), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        client
            .insert(
                "docs",
                100,
                &[50.0, 0.0, 0.0],
                &[("tag", AttrValue::Int(1))],
            )
            .unwrap();
        let hits = client
            .search("docs", &[50.1, 0.0, 0.0], 1, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].key, 100);
        client.delete("docs", 100).unwrap();
        let hits = client
            .search("docs", &[50.1, 0.0, 0.0], 1, &SearchParams::default())
            .unwrap();
        assert_ne!(hits[0].key, 100);
        let lists = client
            .search_batch(
                "docs",
                &[&[0.1, 0.0, 0.0], &[7.9, 0.0, 0.0]],
                2,
                &SearchParams::default(),
            )
            .unwrap();
        assert_eq!(lists.len(), 2);
        assert_eq!(lists[0][0].key, 0);
        assert_eq!(lists[1][0].key, 8);
        match client.vql("COUNT docs").unwrap() {
            VqlOutput::Count(n) => assert_eq!(n, 16),
            other => panic!("expected count, got {other:?}"),
        }
        let stats = client.stats("docs").unwrap();
        assert_eq!(stats.live, 16);
        let sstats = client.server_stats().unwrap();
        assert!(sstats.served >= 7);
        assert!(client
            .search("ghosts", &[0.0; 3], 1, &SearchParams::default())
            .is_err());
        handle.shutdown();
    }

    #[test]
    fn client_is_shareable_across_threads() {
        let handle = serve(fixture_db(64), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = Arc::new(Client::connect(handle.addr()).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let client = client.clone();
                s.spawn(move || {
                    for i in 0..20u64 {
                        let target = (t * 16 + i) % 64;
                        let hits = client
                            .search(
                                "docs",
                                &[target as f32 + 0.2, 0.0, 0.0],
                                1,
                                &SearchParams::default(),
                            )
                            .unwrap();
                        assert_eq!(hits[0].key, target);
                    }
                });
            }
        });
        handle.shutdown();
    }

    #[test]
    fn staleness_probe_classifies_sockets() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Healthy: connected, nothing pending.
        let healthy = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        assert!(pooled_socket_is_live(&healthy));
        // Desynced: the peer wrote bytes nobody consumed.
        use std::io::Write;
        (&server_side).write_all(b"stray").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(!pooled_socket_is_live(&healthy));
        // Half-closed: the peer dropped its side (FIN in flight).
        let stale = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        drop(server_side);
        std::thread::sleep(Duration::from_millis(50));
        assert!(!pooled_socket_is_live(&stale));
    }

    #[test]
    fn pooled_connection_reaped_by_server_is_replaced_on_checkout() {
        let handle = serve(
            fixture_db(8),
            "127.0.0.1:0",
            ServerConfig {
                idle_timeout: Duration::from_millis(150),
                idle_tick: Duration::from_millis(10),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let client = Client::connect(handle.addr()).unwrap();
        let hits = client
            .search("docs", &[2.1, 0.0, 0.0], 1, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].key, 2);
        // Outlive the server's idle timeout: the pooled socket gets
        // reaped server-side; checkout must detect the FIN and dial
        // fresh instead of writing into a dead socket.
        std::thread::sleep(Duration::from_millis(600));
        assert!(handle.stats().reaped >= 1, "server must reap idle conns");
        let hits = client
            .search("docs", &[5.1, 0.0, 0.0], 1, &SearchParams::default())
            .unwrap();
        assert_eq!(hits[0].key, 5);
        handle.shutdown();
    }

    /// Regression (replication PR): `call` used to retry EVERY failed
    /// exchange once on a fresh dial — including mutations. A server
    /// that applied an insert and died before acking would then apply
    /// it a second time through the retry. The fix restricts auto-retry
    /// to idempotent requests and surfaces `Error::MaybeApplied` for
    /// mutations, letting the caller decide. This fake server applies
    /// the insert, then kills the connection without responding: the
    /// fixed client must NOT re-send it (exactly one apply), while a
    /// read on the same flaky server must still ride the retry path.
    /// VQL is classified by statement: a `SEARCH` is a read and is
    /// retried, an `INSERT` is a mutation and is not.
    #[test]
    fn mutation_is_not_auto_retried_when_connection_dies_post_apply() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let inserts_applied = Arc::new(AtomicUsize::new(0));
        let searches_seen = Arc::new(AtomicUsize::new(0));
        let vql_inserts_applied = Arc::new(AtomicUsize::new(0));
        let vql_searches_seen = Arc::new(AtomicUsize::new(0));
        let server = {
            let inserts_applied = Arc::clone(&inserts_applied);
            let searches_seen = Arc::clone(&searches_seen);
            let vql_inserts_applied = Arc::clone(&vql_inserts_applied);
            let vql_searches_seen = Arc::clone(&vql_searches_seen);
            std::thread::spawn(move || {
                // Serve connections until the client is done (it closes
                // by dropping; accept errors end the loop via timeout).
                listener.set_nonblocking(false).expect("blocking listener");
                for _ in 0..12 {
                    let Ok((mut conn, _)) = listener.accept() else {
                        return;
                    };
                    conn.set_read_timeout(Some(Duration::from_secs(2))).ok();
                    while let Ok(Some(payload)) = wire::read_frame(&mut conn, wire::MAX_FRAME) {
                        match Request::decode(&payload).expect("well-formed request") {
                            Request::Ping => {
                                wire::write_frame(&mut conn, &Response::Pong.encode()).unwrap();
                            }
                            Request::Insert { .. } => {
                                // "Apply", then die before the ack.
                                inserts_applied.fetch_add(1, Ordering::SeqCst);
                                break;
                            }
                            Request::Search { .. } => {
                                // First attempt dies post-read; the
                                // retry gets a real answer.
                                if searches_seen.fetch_add(1, Ordering::SeqCst) == 0 {
                                    break;
                                }
                                wire::write_frame(
                                    &mut conn,
                                    &Response::Hits(vec![SearchHit { key: 7, dist: 0.0 }]).encode(),
                                )
                                .unwrap();
                            }
                            Request::Vql { statement } if statement.starts_with("INSERT") => {
                                vql_inserts_applied.fetch_add(1, Ordering::SeqCst);
                                break;
                            }
                            Request::Vql { .. } => {
                                if vql_searches_seen.fetch_add(1, Ordering::SeqCst) == 0 {
                                    break;
                                }
                                wire::write_frame(
                                    &mut conn,
                                    &Response::Hits(vec![SearchHit { key: 3, dist: 0.5 }]).encode(),
                                )
                                .unwrap();
                            }
                            other => panic!("unexpected request {other:?}"),
                        }
                    }
                }
            })
        };
        let client = Client::connect_with(
            addr,
            ClientConfig {
                read_timeout: Duration::from_millis(500),
                connect_retries: 1,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        // Mutation: the connection dies after the server applied it.
        let err = client
            .insert("docs", 1, &[1.0], &[])
            .expect_err("ack was lost; the client cannot claim success");
        assert!(
            matches!(err, Error::MaybeApplied(_)),
            "mutations must surface the typed unknown-outcome error, got {err:?}"
        );
        assert_eq!(
            inserts_applied.load(Ordering::SeqCst),
            1,
            "the insert must NOT be re-sent: a retry would double-apply"
        );
        // Read-only request on the same flaky server: auto-retry is
        // still allowed and succeeds on the fresh dial.
        let hits = client
            .search("docs", &[1.0], 1, &SearchParams::default())
            .expect("read-only requests ride the retry-once path");
        assert_eq!(hits[0].key, 7);
        assert_eq!(searches_seen.load(Ordering::SeqCst), 2);
        // The same split for VQL: the statement decides.
        let err = client
            .vql("INSERT INTO docs KEY 2 VALUES [1.0]")
            .expect_err("a VQL insert whose ack was lost cannot claim success");
        assert!(matches!(err, Error::MaybeApplied(_)), "{err:?}");
        assert_eq!(vql_inserts_applied.load(Ordering::SeqCst), 1);
        match client
            .vql("SEARCH docs K 1 NEAR [1.0] WHERE price < 5")
            .expect("a VQL search rides the retry-once path")
        {
            VqlOutput::Hits(hits) => assert_eq!(hits[0].key, 3),
            other => panic!("expected hits, got {other:?}"),
        }
        assert_eq!(vql_searches_seen.load(Ordering::SeqCst), 2);
        // The accept loop is still parked on the listener; detach it
        // rather than joining (the process teardown reaps it).
        drop(server);
    }

    #[test]
    fn dead_server_fails_fast() {
        let handle = serve(fixture_db(4), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = Client::connect_with(
            handle.addr(),
            ClientConfig {
                connect_timeout: Duration::from_millis(200),
                connect_retries: 2,
                connect_backoff: Duration::from_millis(5),
                read_timeout: Duration::from_millis(500),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();
        handle.shutdown();
        let start = std::time::Instant::now();
        let res = client.search("docs", &[0.0; 3], 1, &SearchParams::default());
        assert!(res.is_err(), "search against a dead server must fail");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "failure must be fast, took {:?}",
            start.elapsed()
        );
        let _ = addr;
    }
}
