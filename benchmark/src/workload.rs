//! The four workloads: what each loads, what traffic it sends, and why
//! it is in the benchmark. Sizes and op counts are frozen here: a run is
//! as long as its op counts and fixed rates make it, on every commit.

use crate::gen::Shape;
use vdb::IndexSpec;

/// Search and ingest connections of a closed-loop phase: `nproc` is 2 on
/// the reference host, and so is the server's worker count.
pub const CONNS: usize = 2;

/// The `run_seconds` of `BENCHMARK.json`: about how long the measured
/// phases of a run last on the reference host. The driver passes it as
/// `--seconds`; it scales nothing, any other value is refused.
pub const RUN_SECONDS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Index {
    Hnsw,
    /// DiskANN with a page cache of a tenth of the vector bytes.
    DiskAnn,
}

impl Index {
    pub fn spec(self) -> IndexSpec {
        match self {
            Index::Hnsw => IndexSpec::Hnsw(Default::default()),
            Index::DiskAnn => IndexSpec::DiskAnn {
                memory_fraction: 0.1,
            },
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Rows preloaded. Every row carries `price` and `brand` beside its
    /// vector, whether or not the workload's searches filter on them.
    pub n: usize,
    pub dim: usize,
    pub text: bool,
    pub hybrid_mix: bool,
    pub index: Index,
    pub beam: usize,
    pub queries: usize,
    /// `Some`: one open-loop searcher beside one open-loop writer, each
    /// at its fixed rate. `None`: [`CONNS`] closed-loop searchers.
    pub open_loop: Option<OpenLoop>,
    /// Measured and warm-up searches per search connection, then measured
    /// and warm-up inserts per connection of the closed-loop ingest phase.
    pub searches: usize,
    pub warm_searches: usize,
    pub inserts: usize,
    pub warm_inserts: usize,
    pub merge_threshold: usize,
    pub recall_floor: f64,
}

/// Fixed rates of the open-loop phase, in operations per second. The
/// phase lasts as long as the searcher's op count takes at its rate; the
/// writer sends `writes / searches` times as many ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    pub searches: f64,
    /// 90 % fresh inserts, 10 % deletes of the writer's own earlier keys.
    pub writes: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "knn_mem",
        why: "in-memory HNSW k-NN over the wire: kernel, graph traversal and protocol do the work; storage and planner are bypassed",
        n: 20_000,
        dim: 64,
        text: false,
        hybrid_mix: false,
        index: Index::Hnsw,
        beam: 64,
        queries: 1000,
        open_loop: None,
        searches: 42_000,
        warm_searches: 1000,
        inserts: 4000,
        warm_inserts: 200,
        merge_threshold: 20_000,
        recall_floor: 0.95,
    },
    Spec {
        name: "hybrid_mix",
        why: "VQL predicates at 0.5/5/50 % selectivity plus BM25 fusion: parser, selectivity, planner and executor dominate, the kernel matters little",
        n: 20_000,
        dim: 32,
        text: true,
        hybrid_mix: true,
        index: Index::Hnsw,
        beam: 64,
        queries: 500,
        open_loop: None,
        searches: 4000,
        warm_searches: 200,
        inserts: 4000,
        warm_inserts: 200,
        merge_threshold: 20_000,
        recall_floor: 0.90,
    },
    Spec {
        name: "knn_disk",
        why: "DiskANN with a page cache a tenth of the vectors: cache, prefetch and page layout carry the query; must leave knn_mem flat",
        n: 10_000,
        dim: 64,
        text: false,
        hybrid_mix: false,
        index: Index::DiskAnn,
        beam: 64,
        queries: 1000,
        open_loop: None,
        searches: 6000,
        warm_searches: 500,
        inserts: 4000,
        warm_inserts: 200,
        merge_threshold: 20_000,
        recall_floor: 0.90,
    },
    Spec {
        name: "mixed_rw",
        why: "open-loop searches beside a paced durable writer, then closed-loop ingest, with back-to-back rebuilds: WAL fsync, buffer overlay, publication and the global write lock on the path",
        n: 5_000,
        dim: 64,
        text: false,
        hybrid_mix: false,
        index: Index::Hnsw,
        beam: 64,
        queries: 1000,
        open_loop: Some(OpenLoop {
            searches: 400.0,
            writes: 500.0,
        }),
        searches: 5000,
        warm_searches: 1000,
        inserts: 5000,
        warm_inserts: 200,
        merge_threshold: 100,
        recall_floor: 0.95,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// How much of the frozen sizes a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// A twentieth of the rows and a fiftieth of the ops: what the tests run.
    Smoke,
}

impl Spec {
    pub fn shape(&self, scale: Scale) -> Shape {
        let (rows, ops) = match scale {
            Scale::Full => (1, 1),
            Scale::Smoke => (20, 50),
        };
        // At least a handful of ops at the smoke scale.
        let per = |count: usize| (count / ops).max(4);
        let n = (self.n / rows).max(400);
        let (search_conns, rw_writes, probe) = match self.open_loop {
            Some(rates) => {
                let writes = self.searches as f64 * rates.writes / rates.searches;
                (1, per(writes as usize), per(500))
            }
            None => (CONNS, 0, 0),
        };
        Shape {
            n,
            dim: self.dim,
            text: self.text,
            queries: self.queries.min(n / 2),
            search_conns,
            warm_searches: per(self.warm_searches),
            searches: per(self.searches),
            hybrid_mix: self.hybrid_mix,
            ingest_conns: CONNS,
            warm_inserts: per(self.warm_inserts),
            inserts: per(self.inserts),
            rw_writes,
            probe,
        }
    }
}
