//! Sharded, replicated, scatter-gather vector search (§2.3 "distributed
//! search").
//!
//! This is the in-process scatter-gather; the networked one is
//! `vdb-server`'s `ClusterClient`. Each shard owns its own index over
//! its slice of the collection; replicas are additional copies used for
//! load spreading and failover; queries scatter to the routed shards on
//! detached worker threads and gather through a global top-k merge —
//! bounded by [`SearchParams::timeout`] when set, degrading to an
//! explicit partial result instead of blocking on a slow or dead shard.

use crate::partition::{partition, PartitionPolicy, Partitioning};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;
use vdb_core::context::ContextPool;
use vdb_core::error::{Error, Result};
use vdb_core::index::{SearchParams, VectorIndex};
use vdb_core::metric::Metric;
use vdb_core::parallel::{clamp_threads, parallel_map_chunks, BuildOptions};
use vdb_core::topk::{merge_sorted_topk, Neighbor};
use vdb_core::vector::Vectors;

/// Factory that builds a shard-local index over a slice of the collection.
pub type IndexBuilder = dyn Fn(Vectors, Metric) -> Result<Box<dyn VectorIndex>> + Sync;

/// Configuration of a distributed deployment.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Number of shards.
    pub n_shards: usize,
    /// Replicas per shard (1 = no redundancy).
    pub replicas: usize,
    /// Partitioning policy.
    pub policy: PartitionPolicy,
    /// Shards probed per query: `None` = all (scatter-gather); `Some(p)`
    /// = routed search over the `p` nearest shards (index-guided only).
    pub probe_shards: Option<usize>,
    /// Seed for partitioning.
    pub seed: u64,
    /// Hedged probes: when set, a shard that has not answered within
    /// this delay gets a backup probe on its next live replica (tail
    /// latency insurance for a slow-but-alive primary replica). `None`
    /// disables hedging; replica failover on *error* always applies.
    pub hedge_delay: Option<std::time::Duration>,
}

impl DistributedConfig {
    /// Scatter-gather over `n_shards` uniform shards, no replication.
    pub fn uniform(n_shards: usize) -> Self {
        DistributedConfig {
            n_shards,
            replicas: 1,
            policy: PartitionPolicy::Uniform,
            probe_shards: None,
            seed: 0xD157,
            hedge_delay: None,
        }
    }

    /// Routed search over index-guided shards.
    pub fn index_guided(n_shards: usize, probe_shards: usize) -> Self {
        DistributedConfig {
            n_shards,
            replicas: 1,
            policy: PartitionPolicy::IndexGuided,
            probe_shards: Some(probe_shards),
            seed: 0xD157,
            hedge_delay: None,
        }
    }
}

struct Replica {
    index: Box<dyn VectorIndex>,
    /// Simulated availability (failover experiments).
    up: AtomicBool,
}

struct Shard {
    /// Local row -> global row.
    global_ids: Vec<usize>,
    replicas: Vec<Replica>,
    /// Round-robin cursor for replica selection.
    next_replica: AtomicU64,
    /// Persistent search scratch for this shard's scatter workers:
    /// contexts survive across queries, so a steady scatter-gather load
    /// performs no per-query visited-set/pool allocations on any shard.
    contexts: ContextPool,
}

impl Shard {
    /// Replica indices in round-robin try order, live ones only. The
    /// cursor advances per query so load spreads across replicas.
    fn live_order(&self) -> Vec<usize> {
        let n = self.replicas.len();
        let start = self.next_replica.fetch_add(1, Ordering::Relaxed) as usize;
        (0..n)
            .map(|i| (start + i) % n)
            .filter(|&r| self.replicas[r].up.load(Ordering::Relaxed))
            .collect()
    }

    /// Probe one replica; local row ids are translated to global ids.
    fn probe(
        &self,
        replica: usize,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Neighbor>> {
        let rep = &self.replicas[replica];
        if !rep.up.load(Ordering::Relaxed) {
            return Err(Error::Unsupported("replica is down".into()));
        }
        let mut ctx = self.contexts.acquire();
        let hits = rep.index.search_with(&mut ctx, query, k, params)?;
        Ok(hits
            .into_iter()
            .map(|nb| Neighbor::new(self.global_ids[nb.id], nb.dist))
            .collect())
    }
}

/// Outcome of a scatter-gather search, including degradation metadata:
/// when [`SearchParams::timeout`] is set, shards that fail or miss the
/// deadline are dropped instead of failing the whole query, and the
/// result is flagged `partial`.
#[derive(Debug, Clone)]
pub struct ScatterOutcome {
    /// Merged global-id top-k over the shards that answered.
    pub hits: Vec<Neighbor>,
    /// Whether any probed shard's contribution is missing.
    pub partial: bool,
    /// Shards (by id) that errored or missed the deadline.
    pub failed_shards: Vec<usize>,
}

/// A sharded, replicated collection with scatter-gather search.
pub struct DistributedIndex {
    shards: Vec<Arc<Shard>>,
    partitioning: Partitioning,
    cfg: DistributedConfig,
    /// Scatter/gather accounting: total shard probes issued.
    probes_issued: AtomicU64,
    /// Backup probes issued by the hedging policy.
    hedges_issued: AtomicU64,
    /// Late answers discarded because the shard's slot was already
    /// filled by an earlier arrival (first-arrival wins; a hedged shard
    /// can never contribute twice to a merge).
    late_dropped: AtomicU64,
}

impl DistributedIndex {
    /// Build: partition the collection, then build `replicas` indexes per
    /// shard with `builder` (serial, deterministic).
    pub fn build(
        vectors: &Vectors,
        metric: Metric,
        cfg: DistributedConfig,
        builder: &IndexBuilder,
    ) -> Result<Self> {
        Self::build_with(vectors, metric, cfg, builder, &BuildOptions::serial())
    }

    /// [`Self::build`] with explicit [`BuildOptions`]: the
    /// `n_shards x replicas` per-shard index builds fan out across
    /// threads, each job running `builder` over its shard's slice.
    /// Builds are issued in shard-major order, so with a deterministic
    /// `builder` the result is independent of the thread count.
    pub fn build_with(
        vectors: &Vectors,
        metric: Metric,
        cfg: DistributedConfig,
        builder: &IndexBuilder,
        opts: &BuildOptions,
    ) -> Result<Self> {
        if cfg.replicas == 0 {
            return Err(Error::InvalidParameter("need at least one replica".into()));
        }
        if let Some(p) = cfg.probe_shards {
            if p == 0 {
                return Err(Error::InvalidParameter("probe_shards must be >= 1".into()));
            }
        }
        let partitioning = partition(vectors, cfg.n_shards, cfg.policy, cfg.seed)?;
        let slices: Vec<Vectors> = (0..partitioning.n_shards)
            .map(|s| vectors.select(&partitioning.shard_rows(s)))
            .collect();
        let n_jobs = partitioning.n_shards * cfg.replicas;
        let threads = clamp_threads(opts.threads, n_jobs);
        let built = parallel_map_chunks(n_jobs, threads, |_, range| {
            range
                .map(|job| builder(slices[job / cfg.replicas].clone(), metric.clone()))
                .collect::<Vec<Result<Box<dyn VectorIndex>>>>()
        });
        let mut built = built.into_iter().flatten();
        let mut shards = Vec::with_capacity(partitioning.n_shards);
        for s in 0..partitioning.n_shards {
            let mut replicas = Vec::with_capacity(cfg.replicas);
            for _ in 0..cfg.replicas {
                replicas.push(Replica {
                    index: built.next().expect("one build result per job")?,
                    up: AtomicBool::new(true),
                });
            }
            shards.push(Arc::new(Shard {
                global_ids: partitioning.shard_rows(s),
                replicas,
                next_replica: AtomicU64::new(0),
                contexts: ContextPool::new(),
            }));
        }
        Ok(DistributedIndex {
            shards,
            partitioning,
            cfg,
            probes_issued: AtomicU64::new(0),
            hedges_issued: AtomicU64::new(0),
            late_dropped: AtomicU64::new(0),
        })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total vectors across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.global_ids.len()).sum()
    }

    /// Whether the deployment holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard sizes (balance diagnostics).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.global_ids.len()).collect()
    }

    /// Total shard probes issued since construction.
    pub fn probes_issued(&self) -> u64 {
        self.probes_issued.load(Ordering::Relaxed)
    }

    /// Backup probes issued by the hedging policy since construction.
    pub fn hedges_issued(&self) -> u64 {
        self.hedges_issued.load(Ordering::Relaxed)
    }

    /// Late answers dropped by the first-arrival-wins gather since
    /// construction (each one is a merge double-count avoided).
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped.load(Ordering::Relaxed)
    }

    /// Simulate a replica failure.
    pub fn set_replica_up(&self, shard: usize, replica: usize, up: bool) {
        self.shards[shard].replicas[replica]
            .up
            .store(up, Ordering::Relaxed);
    }

    /// Scatter-gather search with full degradation metadata.
    ///
    /// Scatter probes run detached, one per probed shard initially; a
    /// probe that *errors* fails over to the shard's next live replica,
    /// and when [`DistributedConfig::hedge_delay`] is set a shard that has
    /// not answered by then gets a *backup* probe on its sibling replica.
    /// The gather keeps the **first arrival per shard** — a primary
    /// replica answering late after its sibling was already hedged is
    /// dropped, never merged twice (each shard holds disjoint rows, but
    /// double-merging one shard's list would crowd out other shards'
    /// rows from the global top-k and double-count its contribution).
    ///
    /// The gather waits for every shard to resolve — or, when
    /// [`SearchParams::timeout`] is set, only until the deadline. A
    /// shard whose probes all error or that misses the deadline is
    /// recorded in `failed_shards` and the merged result is flagged
    /// `partial`; the call errors only when *no* shard answered.
    /// Stragglers finish in the background and their late answers are
    /// discarded, so a slow or dead shard can never block the query
    /// past its deadline.
    pub fn search_outcome(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<ScatterOutcome> {
        let empty = ScatterOutcome {
            hits: Vec::new(),
            partial: false,
            failed_shards: Vec::new(),
        };
        if k == 0 || self.is_empty() {
            return Ok(empty);
        }
        let order = self.partitioning.route(query);
        let probe = match (self.cfg.probe_shards, self.cfg.policy) {
            (Some(p), PartitionPolicy::IndexGuided) => p.min(order.len()),
            _ => order.len(),
        };
        let targets = &order[..probe];
        self.probes_issued
            .fetch_add(targets.len() as u64, Ordering::Relaxed);
        let start = Instant::now();
        let deadline = params.deadline_from(start);
        let mut hedge_at = self.cfg.hedge_delay.map(|d| start + d);

        // One message per probe attempt; the master sender stays alive so
        // failover/hedge attempts can be spawned mid-gather.
        let (tx, rx) = mpsc::channel::<(usize, Result<Vec<Neighbor>>)>();
        let spawn_probe = |slot: usize, shard_id: usize, replica: usize| {
            let shard = self.shards[shard_id].clone();
            let tx = tx.clone();
            let query = query.to_vec();
            let params = params.clone();
            std::thread::Builder::new()
                .name(format!("scatter-{shard_id}-r{replica}"))
                .spawn(move || {
                    let out = shard.probe(replica, &query, k, &params);
                    tx.send((slot, out)).ok();
                })
                .expect("spawn scatter worker");
        };

        struct SlotState {
            /// Replica try order fixed at scatter time (live ones only).
            tries: Vec<usize>,
            /// Next entry of `tries` to probe.
            next: usize,
            /// Probes in flight for this shard.
            outstanding: usize,
            /// First successful answer (first arrival wins).
            result: Option<Vec<Neighbor>>,
            /// First error seen (for diagnostics if the slot fails).
            err: Option<Error>,
            /// Whether the hedging policy already fired for this shard.
            hedged: bool,
        }
        let mut slots: Vec<SlotState> = Vec::with_capacity(targets.len());
        // Shards still unresolved (no answer yet, probes in flight or
        // replicas left to try).
        let mut pending = 0usize;
        for (slot, &shard_id) in targets.iter().enumerate() {
            let mut st = SlotState {
                tries: self.shards[shard_id].live_order(),
                next: 0,
                outstanding: 0,
                result: None,
                err: None,
                hedged: false,
            };
            if st.tries.is_empty() {
                st.err = Some(Error::Unsupported("shard has no live replica".into()));
            } else {
                let replica = st.tries[st.next];
                st.next += 1;
                st.outstanding += 1;
                pending += 1;
                spawn_probe(slot, shard_id, replica);
            }
            slots.push(st);
        }

        while pending > 0 {
            let now = Instant::now();
            if let Some(d) = deadline {
                if now >= d {
                    break;
                }
            }
            // Wake at the earlier of the query deadline and the hedge
            // trigger; block indefinitely when neither is armed.
            let wake = match (deadline, hedge_at) {
                (Some(d), Some(h)) => Some(d.min(h)),
                (Some(d), None) => Some(d),
                (None, h) => h,
            };
            let msg = match wake {
                None => rx.recv().ok(),
                Some(w) => match rx.recv_timeout(w.saturating_duration_since(now)) {
                    Ok(m) => Some(m),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                },
            };
            match msg {
                Some((slot, Ok(list))) => {
                    let st = &mut slots[slot];
                    st.outstanding -= 1;
                    if st.result.is_some() {
                        // A sibling already answered this shard: drop the
                        // late arrival instead of double-merging the
                        // shard's rows.
                        self.late_dropped.fetch_add(1, Ordering::Relaxed);
                    } else {
                        st.result = Some(list);
                        pending -= 1;
                    }
                }
                Some((slot, Err(e))) => {
                    let shard_id = targets[slot];
                    let st = &mut slots[slot];
                    st.outstanding -= 1;
                    if st.result.is_some() {
                        continue;
                    }
                    if st.err.is_none() {
                        st.err = Some(e);
                    }
                    if st.next < st.tries.len() {
                        // Error failover: try the next live replica.
                        let replica = st.tries[st.next];
                        st.next += 1;
                        st.outstanding += 1;
                        spawn_probe(slot, shard_id, replica);
                    } else if st.outstanding == 0 {
                        pending -= 1; // every replica tried and failed
                    }
                }
                None => {
                    // recv timed out: fire due hedges (once per shard).
                    if let Some(h) = hedge_at {
                        if Instant::now() >= h {
                            hedge_at = None;
                            for (slot, &shard_id) in targets.iter().enumerate() {
                                let st = &mut slots[slot];
                                if st.result.is_none() && !st.hedged && st.next < st.tries.len() {
                                    st.hedged = true;
                                    let replica = st.tries[st.next];
                                    st.next += 1;
                                    st.outstanding += 1;
                                    self.hedges_issued.fetch_add(1, Ordering::Relaxed);
                                    spawn_probe(slot, shard_id, replica);
                                }
                            }
                        }
                    }
                }
            }
        }

        let mut lists = Vec::with_capacity(targets.len());
        let mut failed_shards = Vec::new();
        let mut first_err: Option<Error> = None;
        for (slot, &shard_id) in targets.iter().enumerate() {
            let st = &mut slots[slot];
            match st.result.take() {
                Some(list) => lists.push(list),
                None => {
                    // Errored out or missed the deadline.
                    failed_shards.push(shard_id);
                    if first_err.is_none() {
                        first_err = st.err.take();
                    }
                }
            }
        }
        if lists.is_empty() {
            return Err(first_err.unwrap_or_else(|| {
                Error::Unsupported(format!(
                    "all {} probed shards missed the deadline {:?}",
                    targets.len(),
                    params.timeout
                ))
            }));
        }
        Ok(ScatterOutcome {
            hits: merge_sorted_topk(&lists, k),
            partial: !failed_shards.is_empty(),
            failed_shards,
        })
    }

    /// Scatter-gather search. Returns global-id neighbors.
    ///
    /// Without a [`SearchParams::timeout`], any failed shard (every
    /// replica down or erroring) fails the query — silent partial
    /// results must be opted into. With a timeout set, the search
    /// degrades to the partial merged result instead; use
    /// [`Self::search_outcome`] to observe the `partial` flag.
    pub fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<Vec<Neighbor>> {
        let outcome = self.search_outcome(query, k, params)?;
        if outcome.partial && params.timeout.is_none() {
            return Err(Error::Unsupported(format!(
                "shard(s) {:?} failed; set SearchParams::timeout to accept partial results",
                outcome.failed_shards
            )));
        }
        Ok(outcome.hits)
    }
}

impl std::fmt::Debug for DistributedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DistributedIndex(shards={}, replicas={}, n={})",
            self.shards.len(),
            self.cfg.replicas,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::dataset;
    use vdb_core::flat::FlatIndex;
    use vdb_core::recall::GroundTruth;
    use vdb_core::rng::Rng;
    use vdb_index_graph::{HnswConfig, HnswIndex};

    fn hnsw_builder() -> Box<IndexBuilder> {
        Box::new(|v: Vectors, m: Metric| {
            Ok(Box::new(HnswIndex::build(v, m, HnswConfig::default())?) as Box<dyn VectorIndex>)
        })
    }

    fn flat_builder() -> Box<IndexBuilder> {
        Box::new(|v: Vectors, m: Metric| {
            Ok(Box::new(FlatIndex::build(v, m)?) as Box<dyn VectorIndex>)
        })
    }

    fn setup() -> (Vectors, Vectors, GroundTruth) {
        let mut rng = Rng::seed_from_u64(140);
        let data = dataset::clustered(2000, 12, 8, 0.5, &mut rng).vectors;
        let queries = dataset::split_queries(&data, 20, 0.05, &mut rng);
        let gt = GroundTruth::compute(&data, &queries, Metric::Euclidean, 10).unwrap();
        (data, queries, gt)
    }

    #[test]
    fn full_fanout_with_exact_shards_is_exact() {
        let (data, queries, gt) = setup();
        let d = DistributedIndex::build(
            &data,
            Metric::Euclidean,
            DistributedConfig::uniform(4),
            &*flat_builder(),
        )
        .unwrap();
        let params = SearchParams::default();
        let results: Vec<_> = queries
            .iter()
            .map(|q| d.search(q, 10, &params).unwrap())
            .collect();
        assert!((gt.recall_batch(&results) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn global_ids_are_translated() {
        let (data, _, _) = setup();
        let d = DistributedIndex::build(
            &data,
            Metric::Euclidean,
            DistributedConfig::uniform(4),
            &*flat_builder(),
        )
        .unwrap();
        // Searching for an exact database vector returns its global row.
        for row in [0usize, 777, 1999] {
            let hits = d
                .search(data.get(row), 1, &SearchParams::default())
                .unwrap();
            assert_eq!(hits[0].id, row);
            assert_eq!(hits[0].dist, 0.0);
        }
    }

    #[test]
    fn routed_search_probes_fewer_shards() {
        let (data, queries, gt) = setup();
        let full = DistributedIndex::build(
            &data,
            Metric::Euclidean,
            DistributedConfig::index_guided(8, 8),
            &*flat_builder(),
        )
        .unwrap();
        let routed = DistributedIndex::build(
            &data,
            Metric::Euclidean,
            DistributedConfig::index_guided(8, 2),
            &*flat_builder(),
        )
        .unwrap();
        let params = SearchParams::default();
        let full_r: Vec<_> = queries
            .iter()
            .map(|q| full.search(q, 10, &params).unwrap())
            .collect();
        let routed_r: Vec<_> = queries
            .iter()
            .map(|q| routed.search(q, 10, &params).unwrap())
            .collect();
        assert_eq!(full.probes_issued(), 20 * 8);
        assert_eq!(routed.probes_issued(), 20 * 2);
        let rf = gt.recall_batch(&full_r);
        let rr = gt.recall_batch(&routed_r);
        assert!((rf - 1.0).abs() < 1e-12);
        assert!(
            rr > 0.8,
            "2-of-8 routed recall {rr} (clustered data co-locates neighbors)"
        );
    }

    #[test]
    fn hnsw_shards_reach_high_recall() {
        let (data, queries, gt) = setup();
        let d = DistributedIndex::build(
            &data,
            Metric::Euclidean,
            DistributedConfig::uniform(4),
            &*hnsw_builder(),
        )
        .unwrap();
        let params = SearchParams::default().with_beam_width(64);
        let results: Vec<_> = queries
            .iter()
            .map(|q| d.search(q, 10, &params).unwrap())
            .collect();
        let r = gt.recall_batch(&results);
        assert!(r > 0.9, "recall {r}");
    }

    #[test]
    fn failover_to_replica() {
        let (data, queries, _) = setup();
        let mut cfg = DistributedConfig::uniform(2);
        cfg.replicas = 2;
        let d = DistributedIndex::build(&data, Metric::Euclidean, cfg, &*flat_builder()).unwrap();
        d.set_replica_up(0, 0, false);
        // Still answers via replica 1.
        let hits = d
            .search(queries.get(0), 5, &SearchParams::default())
            .unwrap();
        assert_eq!(hits.len(), 5);
        // Whole shard down => error.
        d.set_replica_up(0, 1, false);
        assert!(d
            .search(queries.get(0), 5, &SearchParams::default())
            .is_err());
        // Recovery.
        d.set_replica_up(0, 0, true);
        assert!(d
            .search(queries.get(0), 5, &SearchParams::default())
            .is_ok());
    }

    #[test]
    fn results_deduped_and_sorted() {
        let (data, queries, _) = setup();
        let d = DistributedIndex::build(
            &data,
            Metric::Euclidean,
            DistributedConfig::uniform(4),
            &*flat_builder(),
        )
        .unwrap();
        let hits = d
            .search(queries.get(3), 20, &SearchParams::default())
            .unwrap();
        assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist));
        let ids: std::collections::HashSet<_> = hits.iter().map(|n| n.id).collect();
        assert_eq!(ids.len(), hits.len());
    }

    #[test]
    fn downed_shard_degrades_to_partial_under_timeout() {
        let (data, queries, _) = setup();
        let d = DistributedIndex::build(
            &data,
            Metric::Euclidean,
            DistributedConfig::uniform(2),
            &*flat_builder(),
        )
        .unwrap();
        d.set_replica_up(0, 0, false);
        // No timeout: a dead shard fails the query (no silent partials).
        let strict = SearchParams::default();
        assert!(d.search(queries.get(0), 5, &strict).is_err());
        // With a timeout: partial result, failed shard recorded.
        let lenient = SearchParams::default().with_timeout(std::time::Duration::from_millis(500));
        let outcome = d.search_outcome(queries.get(0), 5, &lenient).unwrap();
        assert!(outcome.partial);
        assert_eq!(outcome.failed_shards, vec![0]);
        assert_eq!(outcome.hits.len(), 5, "surviving shard still answers");
        let hits = d.search(queries.get(0), 5, &lenient).unwrap();
        assert_eq!(hits, outcome.hits);
        // Healthy deployment under a timeout is not partial.
        d.set_replica_up(0, 0, true);
        let outcome = d.search_outcome(queries.get(0), 5, &lenient).unwrap();
        assert!(!outcome.partial && outcome.failed_shards.is_empty());
    }

    /// A `VectorIndex` that answers correctly but slowly — the in-process
    /// stand-in for a hung remote shard.
    struct SlowIndex {
        inner: FlatIndex,
        delay: std::time::Duration,
    }

    impl VectorIndex for SlowIndex {
        fn name(&self) -> &'static str {
            "slow_flat"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn metric(&self) -> &Metric {
            self.inner.metric()
        }
        fn search_with(
            &self,
            ctx: &mut vdb_core::context::SearchContext,
            query: &[f32],
            k: usize,
            params: &SearchParams,
        ) -> Result<Vec<Neighbor>> {
            std::thread::sleep(self.delay);
            self.inner.search_with(ctx, query, k, params)
        }
    }

    #[test]
    fn slow_shard_misses_deadline_and_result_is_partial() {
        let (data, queries, _) = setup();
        let slow_shard = std::sync::atomic::AtomicUsize::new(0);
        let builder = move |v: Vectors, m: Metric| {
            let job = slow_shard.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let inner = FlatIndex::build(v, m)?;
            if job == 0 {
                Ok(Box::new(SlowIndex {
                    inner,
                    delay: std::time::Duration::from_millis(400),
                }) as Box<dyn VectorIndex>)
            } else {
                Ok(Box::new(inner) as Box<dyn VectorIndex>)
            }
        };
        let d = DistributedIndex::build(
            &data,
            Metric::Euclidean,
            DistributedConfig::uniform(2),
            &builder,
        )
        .unwrap();
        let params = SearchParams::default().with_timeout(std::time::Duration::from_millis(60));
        let start = std::time::Instant::now();
        let outcome = d.search_outcome(queries.get(1), 5, &params).unwrap();
        let elapsed = start.elapsed();
        assert!(outcome.partial, "slow shard should miss the deadline");
        assert_eq!(outcome.failed_shards.len(), 1);
        assert_eq!(outcome.hits.len(), 5);
        assert!(
            elapsed < std::time::Duration::from_millis(350),
            "gather must not wait for the straggler ({elapsed:?})"
        );
        // Without a deadline the same query waits and completes fully.
        let outcome = d
            .search_outcome(queries.get(1), 5, &SearchParams::default())
            .unwrap();
        assert!(!outcome.partial);
    }

    /// Regression (distributed-edge sweep): a hedged shard's primary
    /// replica answering *late* — after the backup probe on its sibling
    /// already filled the slot — must be dropped, not treated as another
    /// shard resolving. A gather that counts raw arrivals instead of
    /// first-arrivals-per-shard exits early here, wrongly marking the
    /// genuinely-slow shard 1 as failed (partial result) even though it
    /// answers well within the deadline.
    #[test]
    fn late_primary_after_hedge_is_dropped_not_double_counted() {
        let (data, queries, _) = setup();
        let job_no = std::sync::atomic::AtomicUsize::new(0);
        // Shard 0: replica 0 slow (400ms), replica 1 fast.
        // Shard 1: both replicas slow (800ms) — the shard is healthy but
        // genuinely slow, and must still be waited for.
        let builder = move |v: Vectors, m: Metric| {
            let job = job_no.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let inner = FlatIndex::build(v, m)?;
            let delay = match job {
                0 => std::time::Duration::from_millis(400),
                1 => std::time::Duration::ZERO,
                _ => std::time::Duration::from_millis(800),
            };
            if delay.is_zero() {
                Ok(Box::new(inner) as Box<dyn VectorIndex>)
            } else {
                Ok(Box::new(SlowIndex { inner, delay }) as Box<dyn VectorIndex>)
            }
        };
        let mut cfg = DistributedConfig::uniform(2);
        cfg.replicas = 2;
        cfg.hedge_delay = Some(std::time::Duration::from_millis(100));
        let d = DistributedIndex::build(&data, Metric::Euclidean, cfg, &builder).unwrap();
        let params = SearchParams::default().with_timeout(std::time::Duration::from_secs(10));
        let start = std::time::Instant::now();
        let outcome = d.search_outcome(queries.get(0), 10, &params).unwrap();
        let elapsed = start.elapsed();
        assert!(
            !outcome.partial,
            "slow-but-alive shard 1 must not be dropped (failed: {:?})",
            outcome.failed_shards
        );
        assert_eq!(outcome.hits.len(), 10);
        let ids: std::collections::HashSet<_> = outcome.hits.iter().map(|n| n.id).collect();
        assert_eq!(ids.len(), outcome.hits.len(), "no double-merged rows");
        assert!(
            elapsed >= std::time::Duration::from_millis(500),
            "gather exited at {elapsed:?}, before slow shard 1 answered: \
             the late hedged-primary arrival was miscounted as a resolution"
        );
        assert_eq!(
            d.hedges_issued(),
            2,
            "both unanswered shards hedge at 100ms"
        );
        assert_eq!(d.late_dropped(), 1, "shard 0's late primary answer dropped");
        // The merged result equals an un-hedged healthy deployment's.
        let healthy = DistributedIndex::build(
            &data,
            Metric::Euclidean,
            {
                let mut c = DistributedConfig::uniform(2);
                c.replicas = 2;
                c
            },
            &*flat_builder(),
        )
        .unwrap();
        let expect = healthy
            .search(queries.get(0), 10, &SearchParams::default())
            .unwrap();
        assert_eq!(outcome.hits, expect);
    }

    /// Hedging cuts tail latency: with a slow primary replica and a fast
    /// sibling, the hedged deployment answers at roughly the hedge delay
    /// instead of the slow replica's full latency.
    #[test]
    fn hedge_cuts_tail_latency_of_slow_replica() {
        let (data, queries, _) = setup();
        let job_no = std::sync::atomic::AtomicUsize::new(0);
        let builder = move |v: Vectors, m: Metric| {
            let job = job_no.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let inner = FlatIndex::build(v, m)?;
            if job == 0 {
                Ok(Box::new(SlowIndex {
                    inner,
                    delay: std::time::Duration::from_millis(1500),
                }) as Box<dyn VectorIndex>)
            } else {
                Ok(Box::new(inner) as Box<dyn VectorIndex>)
            }
        };
        let mut cfg = DistributedConfig::uniform(1);
        cfg.replicas = 2;
        cfg.hedge_delay = Some(std::time::Duration::from_millis(50));
        let d = DistributedIndex::build(&data, Metric::Euclidean, cfg, &builder).unwrap();
        let start = std::time::Instant::now();
        let hits = d
            .search(queries.get(0), 5, &SearchParams::default())
            .unwrap();
        let elapsed = start.elapsed();
        assert_eq!(hits.len(), 5);
        assert!(
            elapsed < std::time::Duration::from_millis(1000),
            "hedge should answer long before the 1500ms replica ({elapsed:?})"
        );
        assert_eq!(d.hedges_issued(), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let (data, _, _) = setup();
        let mut cfg = DistributedConfig::uniform(2);
        cfg.replicas = 0;
        assert!(DistributedIndex::build(&data, Metric::Euclidean, cfg, &*flat_builder()).is_err());
        let cfg = DistributedConfig::index_guided(4, 0);
        assert!(DistributedIndex::build(&data, Metric::Euclidean, cfg, &*flat_builder()).is_err());
    }
}
