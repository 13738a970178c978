//! Manifest-routed cluster client: send to any node, land on the right
//! one.
//!
//! A [`ClusterClient`] bootstraps from one seed address by fetching the
//! node's [`ClusterManifest`], then routes every write to the key's
//! shard primary (`key % n_shards`). Topology changes surface in two
//! ways and both are handled in the retry loop:
//!
//! - **Redirect** — the contacted node answers `Redirect { addr }`
//!   because the manifest moved the shard; the client follows it and
//!   refreshes its manifest from the node that knew better.
//! - **Connection failure** — the primary died; the client refreshes the
//!   manifest from any reachable node (a coordinator publishes the
//!   promoted assignment via `ManifestPut`) and retries against the new
//!   primary.
//!
//! Writes that fail with [`Error::MaybeApplied`] (connection lost after
//! the request was sent — outcome unknown) ARE re-issued here: the
//! cluster write path is keyed inserts/deletes shipped with LSNs, so a
//! duplicate apply converges to the same state. That is exactly the
//! idempotence contract `Client::call` refuses to assume on behalf of
//! arbitrary callers.
//!
//! Searches scatter to every shard and merge the per-shard top-k by
//! distance. A shard whose primary is unreachable is asked at its
//! replicas in manifest order, and a shard lost on every copy degrades
//! the result instead of failing the query (mirroring
//! `vdb_distributed`'s failover and partial-gather semantics).

use crate::client::{Client, ClientConfig};
use crate::protocol::{ErrorCode, Request, Response};
use std::collections::HashMap;
use std::sync::Arc;
use vdb::{
    bm25_score, fuse, CorpusStats, Fusion, HybridCandidate, HybridResult, HybridStrategy,
    SearchHit, TextIndex, DEFAULT_STOPWORDS,
};
use vdb_core::attr::AttrValue;
use vdb_core::error::{Error, Result};
use vdb_core::index::SearchParams;
use vdb_core::sync::Mutex;
use vdb_distributed::ClusterManifest;

/// Write attempts (across redirects and manifest refreshes) before a
/// cluster write gives up.
const MAX_ATTEMPTS: usize = 6;

/// A client that routes by cluster manifest. Cheap to share (`Arc`
/// inside); one instance serves every shard.
pub struct ClusterClient {
    collection: String,
    cfg: ClientConfig,
    manifest: Mutex<ClusterManifest>,
    clients: Mutex<HashMap<String, Arc<Client>>>,
}

impl ClusterClient {
    /// Bootstrap from a seed node: fetch its manifest for `collection`.
    pub fn connect(seed: &str, collection: &str) -> Result<Self> {
        Self::connect_with(seed, collection, ClientConfig::default())
    }

    /// Bootstrap with explicit transport configuration.
    pub fn connect_with(seed: &str, collection: &str, cfg: ClientConfig) -> Result<Self> {
        let seed_client = Client::connect_with(seed, cfg.clone())?;
        let manifest = seed_client.manifest_get(collection)?;
        let client = ClusterClient {
            collection: collection.to_string(),
            cfg,
            manifest: Mutex::new(manifest),
            clients: Mutex::new(HashMap::new()),
        };
        client
            .clients
            .lock()
            .insert(seed.to_string(), Arc::new(seed_client));
        Ok(client)
    }

    /// The manifest the client currently routes by.
    pub fn manifest(&self) -> ClusterManifest {
        self.manifest.lock().clone()
    }

    /// Every address the manifest mentions (primaries then replicas),
    /// deduplicated — the candidate set for manifest refresh.
    fn known_addrs(&self) -> Vec<String> {
        let m = self.manifest.lock();
        let mut out: Vec<String> = Vec::new();
        for route in &m.shards {
            for addr in std::iter::once(&route.primary).chain(route.replicas.iter()) {
                if !out.contains(addr) {
                    out.push(addr.clone());
                }
            }
        }
        out
    }

    fn client_for(&self, addr: &str) -> Result<Arc<Client>> {
        if let Some(c) = self.clients.lock().get(addr) {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(Client::connect_with(addr, self.cfg.clone())?);
        self.clients.lock().insert(addr.to_string(), Arc::clone(&c));
        Ok(c)
    }

    fn drop_client(&self, addr: &str) {
        self.clients.lock().remove(addr);
    }

    /// Adopt `m` if strictly newer than the routing copy.
    fn adopt(&self, m: &ClusterManifest) {
        self.manifest.lock().adopt(m).ok();
    }

    /// Ask every reachable known node for its manifest and adopt the
    /// newest. Returns whether any node answered.
    pub fn refresh_manifest(&self) -> bool {
        let mut heard = false;
        for addr in self.known_addrs() {
            if let Ok(client) = self.client_for(&addr) {
                if let Ok(m) = client.manifest_get(&self.collection) {
                    self.adopt(&m);
                    heard = true;
                } else {
                    self.drop_client(&addr);
                }
            }
        }
        heard
    }

    /// Publish `m` to every reachable known node (used by failover
    /// coordinators after a `promote`).
    pub fn publish_manifest(&self, m: &ClusterManifest) {
        self.adopt(m);
        for addr in self.known_addrs() {
            if let Ok(client) = self.client_for(&addr) {
                if let Ok(newer) = client.manifest_put(m) {
                    self.adopt(&newer);
                }
            }
        }
    }

    /// Routed insert: sent to the key's shard primary, redirects
    /// followed, manifest refreshed and the write retried on failover.
    pub fn insert(&self, key: u64, vector: &[f32], attrs: &[(&str, AttrValue)]) -> Result<()> {
        let request = Request::Insert {
            collection: self.collection.clone(),
            key,
            vector: vector.to_vec(),
            attrs: attrs
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        };
        self.routed_write(key, &request)
    }

    /// Routed delete (same failover semantics as [`ClusterClient::insert`]).
    pub fn delete(&self, key: u64) -> Result<()> {
        let request = Request::Delete {
            collection: self.collection.clone(),
            key,
        };
        self.routed_write(key, &request)
    }

    fn routed_write(&self, key: u64, request: &Request) -> Result<()> {
        let mut last = Error::Io(std::io::Error::other("cluster write made no attempts"));
        let mut target: Option<String> = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                // Give a failover (detect → promote → publish) time to
                // land before the next look at the routing table.
                std::thread::sleep(std::time::Duration::from_millis(10 << attempt));
            }
            let addr = target
                .take()
                .unwrap_or_else(|| self.manifest.lock().primary_of(key).to_string());
            let client = match self.client_for(&addr) {
                Ok(c) => c,
                Err(e) => {
                    last = e;
                    self.drop_client(&addr);
                    self.refresh_manifest();
                    continue;
                }
            };
            match client.call(request) {
                Ok(Response::Done) => return Ok(()),
                Ok(Response::Redirect { addr: to }) => {
                    // The node routes by a newer assignment than ours:
                    // learn it, then retry where it pointed.
                    if let Ok(owner) = self.client_for(&to) {
                        if let Ok(m) = owner.manifest_get(&self.collection) {
                            self.adopt(&m);
                        }
                    }
                    target = Some(to);
                    last = Error::NotFound(format!("write redirected to {addr}"));
                }
                Ok(Response::Busy)
                | Ok(Response::Error {
                    code: ErrorCode::RateLimited,
                    ..
                }) => {
                    // Transient shed; same target after the backoff.
                    target = Some(addr);
                    last = Error::Busy;
                }
                Ok(Response::Error {
                    code: ErrorCode::Shutdown,
                    ..
                }) => {
                    // The primary is draining (failover in progress).
                    self.drop_client(&addr);
                    self.refresh_manifest();
                    last = Error::Busy;
                }
                Ok(other) => return other.into_result().map(|_| ()),
                Err(Error::MaybeApplied(msg)) => {
                    // Keyed write + LSN-idempotent replication: a
                    // duplicate apply converges, so re-issuing is safe
                    // here even though `Client` refused to assume that.
                    self.drop_client(&addr);
                    self.refresh_manifest();
                    last = Error::MaybeApplied(msg);
                }
                Err(e) => {
                    self.drop_client(&addr);
                    self.refresh_manifest();
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// Scatter a search over the shards, merge per-shard top-k by
    /// distance. Shards lost on every copy degrade the result; only a
    /// cluster with zero reachable shards errors.
    pub fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<Vec<SearchHit>> {
        let collection = &self.collection;
        let lists = self.scatter(|client| client.search(collection, query, k, params))?;
        let mut merged: Vec<SearchHit> = lists.into_iter().flatten().collect();
        merged.sort_by(|a, b| {
            a.dist
                .partial_cmp(&b.dist)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.key.cmp(&b.key))
        });
        merged.truncate(k);
        Ok(merged)
    }

    /// Scatter a hybrid text + vector search over the shards and merge
    /// rank-aware: shard BM25 scores are computed under *local*
    /// statistics, so the coordinator re-scores every candidate from its
    /// shipped integer evidence (`doc_len`, per-term `tfs`) under the
    /// element-wise sum of the shard statistics — shards hold disjoint
    /// keys, so the sum is the exact global corpus — and re-fuses the
    /// union. Because scoring and fusion go through the same pure
    /// functions the shards use, the merged ranking is identical to what
    /// a single node holding the whole corpus would return (given the
    /// per-shard `k` covers the global top-k candidates).
    ///
    /// Shards fail over and degrade like [`ClusterClient::search`].
    /// The reported strategy is the caller's forced choice, or the first
    /// reachable shard's planner decision under "auto" (shards may
    /// legitimately differ when their local selectivities do).
    pub fn hybrid_search(
        &self,
        query: &[f32],
        text: &str,
        k: usize,
        fusion: Fusion,
        strategy: Option<HybridStrategy>,
        params: &SearchParams,
    ) -> Result<HybridResult> {
        let collection = &self.collection;
        let results = self.scatter(|client| {
            client.hybrid_search(collection, query, text, k, fusion, strategy, params)
        })?;
        let mut stats = CorpusStats::default();
        let mut pool = Vec::new();
        let mut executed: Option<HybridStrategy> = None;
        for shard in results {
            stats.add(&shard.stats);
            executed.get_or_insert(shard.strategy);
            pool.extend(shard.hits.into_iter().zip(shard.details));
        }
        // Every analyzer in the system runs the default stopword list, so
        // the client derives the same query terms — in the same order —
        // the shards aligned their `tfs`/`dfs` vectors to.
        let terms = TextIndex::with_stopwords(DEFAULT_STOPWORDS.iter().copied()).query_terms(text);
        let candidates: Vec<HybridCandidate> = pool
            .iter()
            .map(|(h, d)| HybridCandidate {
                key: h.key,
                dist: h.dist,
                text_score: bm25_score(&terms, &d.tfs, d.doc_len, &stats),
            })
            .collect();
        let hits = fuse(&candidates, fusion, k);
        let details = hits
            .iter()
            .map(|h| {
                pool.iter()
                    .find(|(p, _)| p.key == h.key)
                    .map(|(_, d)| d.clone())
                    .unwrap_or_default()
            })
            .collect();
        Ok(HybridResult {
            hits,
            details,
            stats,
            strategy: strategy.or(executed).unwrap_or(HybridStrategy::VectorFirst),
        })
    }

    /// Run `call` once per shard and return the answers. A shard is asked
    /// at its primary, then at its replicas in manifest order, and is lost
    /// only when every copy fails. A node answers for every shard it holds,
    /// so shards that share a primary (and so its replicas) are asked
    /// once. Errs only when every shard is lost.
    fn scatter<T: Send>(&self, call: impl Fn(&Client) -> Result<T> + Sync) -> Result<Vec<T>> {
        let mut copies: Vec<Vec<String>> = Vec::new();
        for route in &self.manifest.lock().shards {
            if !copies.iter().any(|c| c[0] == route.primary) {
                let all = std::iter::once(&route.primary).chain(&route.replicas);
                copies.push(all.cloned().collect());
            }
        }
        let call = &call;
        let answers: Vec<Option<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = copies
                .iter()
                .map(|addrs| {
                    s.spawn(move || {
                        addrs
                            .iter()
                            .find_map(|addr| call(&*self.client_for(addr).ok()?).ok())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(None))
                .collect()
        });
        let answers: Vec<T> = answers.into_iter().flatten().collect();
        if answers.is_empty() {
            return Err(Error::Io(std::io::Error::other("no shard reachable")));
        }
        Ok(answers)
    }
}
