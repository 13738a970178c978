//! One run of one workload: the served life cycle every workload goes
//! through (load, serve searches, ingest, checkpoint, shut down,
//! recover), the correctness checks, and the end-to-end metrics.

use crate::check::{score_probe, score_searches, Ledger, TextTruth};
use crate::gen::{self, Class, Inputs, Rows, SearchOp, WriteOp, K, PRICE_BOUNDS};
use crate::layers;
use crate::load::{closed_loop, open_loop, Clock, Timing, WallClock};
use crate::metrics::{Metric, MetricSet, FAIL_RATIO_FLOOR};
use crate::stats::{median, segmented_percentile, segmented_rate, tail_quantile, TAIL};
use crate::trace::Tracer;
use crate::workload::{OpenLoop, Scale, Spec};
use std::collections::hash_map::Entry;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use vdb::{
    CollectionConfig, CollectionSchema, Fusion, HybridStrategy, IndexSpec, MergeMode, Predicate,
    SystemProfile, Vdbms,
};
use vdb_core::{AttrType, AttrValue, Metric as Distance, SearchParams, Vectors};
use vdb_server::{
    serve, Client, ClientConfig, ServerConfig, ServerHandle, ServerStatsSnapshot,
    WireCollectionStats,
};
use vdb_storage::{snapshot, Snapshot, SnapshotColumn};

/// Name of the served collection. A constant: no workload name or seed
/// ever reaches the program under test.
pub const COLLECTION: &str = "bench";

/// Share of each measured stream a traced run sends through the
/// concurrent phases; the rest of its time goes to the layer replays.
const TRACED_FRACTION: f64 = 0.25;

/// Times the collection is recovered after shutdown; the median of the
/// durations is reported.
const RECOVERIES: usize = 3;

/// Wall-clock caps on the measured part of the search and the ingest
/// phase. Phases are as long as their op counts (about ten and two
/// seconds on the reference host); the caps only cut one short when the
/// host stalls for minutes, so that a run ends within the driver's 180 s.
const SEARCH_CAP_S: f64 = 40.0;
const INGEST_CAP_S: f64 = 20.0;

const RRF_K0: u32 = 60;
pub const FUSION: Fusion = Fusion::Rrf { k0: RRF_K0 };

/// The classes whose searches travel as VQL statements, in the order
/// their statements are stored.
const STATEMENT_CLASSES: [Class; 4] = [
    Class::Filter(0),
    Class::Filter(1),
    Class::Filter(2),
    Class::Text,
];

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub scale: Scale,
    pub trace: bool,
    /// Where traces and the run's temporary files go.
    pub out_dir: PathBuf,
}

#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub inputs_hash: u64,
    /// Hard checks that failed, in words.
    pub problems: Vec<String>,
    /// Context a reader needs beside the metrics (sample counts, phase
    /// lengths, counters behind the ratios).
    pub info: Vec<(&'static str, f64)>,
    /// Numbers outside `BENCHMARK.json`: the tails, and what only this
    /// workload has.
    pub detail: Vec<Metric>,
    /// The layer budget as text (traced runs only).
    pub budget: Vec<String>,
}

pub fn schema(shape: &gen::Shape) -> CollectionSchema {
    let mut s = CollectionSchema::new(COLLECTION, shape.dim, Distance::Euclidean)
        .column("price", AttrType::Int)
        .column("brand", AttrType::Str);
    if shape.text {
        s = s.column("body", AttrType::Str).text_index("body");
    }
    s
}

pub fn config(spec: &Spec, index: IndexSpec, dir: &Path) -> CollectionConfig {
    CollectionConfig {
        index,
        merge_threshold: spec.merge_threshold,
        merge_mode: MergeMode::Background,
        // Never shed a write with BUSY: the workloads are sized so that
        // maintenance keeps up, and a refused insert would be a failure.
        max_buffer: usize::MAX,
        wal_dir: Some(dir.to_path_buf()),
        ..CollectionConfig::default()
    }
}

pub fn attrs_of(rows: &Rows, i: usize) -> Vec<(&'static str, AttrValue)> {
    let mut attrs = Vec::new();
    if !rows.price.is_empty() {
        attrs.push(("price", AttrValue::Int(rows.price[i])));
        attrs.push(("brand", AttrValue::Str(rows.brand[i].clone())));
    }
    if !rows.body.is_empty() {
        attrs.push(("body", AttrValue::Str(rows.body[i].clone())));
    }
    attrs
}

/// Bulk load: write `rows` as a checkpoint snapshot into `dir` and
/// recover a collection from it, which builds the index. Row `i` gets
/// key `i`.
pub fn preload(
    dir: &Path,
    schema: CollectionSchema,
    cfg: CollectionConfig,
    rows: &Rows,
) -> Result<Vdbms, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let column = |name: &str, ty, values: Vec<AttrValue>| SnapshotColumn {
        name: name.to_string(),
        ty,
        values,
    };
    let mut columns = Vec::new();
    if !rows.price.is_empty() {
        let price = rows.price.iter().map(|&p| AttrValue::Int(p)).collect();
        let brand = rows.brand.iter().cloned().map(AttrValue::Str).collect();
        columns.push(column("price", AttrType::Int, price));
        columns.push(column("brand", AttrType::Str, brand));
    }
    if !rows.body.is_empty() {
        let body = rows.body.iter().cloned().map(AttrValue::Str).collect();
        columns.push(column("body", AttrType::Str, body));
    }
    let snap = Snapshot {
        fingerprint: cfg.index.fingerprint(),
        row_keys: (0..rows.len() as u64).collect(),
        vectors: Vectors::from_flat(rows.dim, rows.vectors.clone()).map_err(|e| e.to_string())?,
        columns,
        text: None,
    };
    let path = dir.join(format!("{}.snap", schema.name));
    snapshot::write(&path, &snap).map_err(|e| format!("write snapshot: {e}"))?;
    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.recover_collection(schema, cfg)
        .map_err(|e| format!("bulk load: {e}"))?;
    Ok(db)
}

/// The VQL statement of a search of `class`, as a client would type it:
/// `WHERE price < bound` for a predicate class, `MATCH '…' FUSE rrf 60`
/// for the text class.
pub fn statement(inputs: &Inputs, class: Class, query: usize, beam: usize) -> String {
    let vector: Vec<String> = inputs
        .queries
        .vector(query)
        .iter()
        .map(f32::to_string)
        .collect();
    let clause = match class {
        Class::Knn => String::new(),
        Class::Filter(c) => format!(" WHERE price < {}", PRICE_BOUNDS[c as usize]),
        Class::Text => format!(" MATCH '{}' FUSE rrf {RRF_K0}", inputs.text_queries[query]),
    };
    format!(
        "SEARCH {COLLECTION} K {K} NEAR [{}]{clause} BEAM {beam}",
        vector.join(", ")
    )
}

/// What came back for one search.
#[derive(Debug, Clone)]
pub struct Reply {
    pub keys: Vec<u64>,
    /// Strategy the planner executed (text class only).
    pub strategy: Option<HybridStrategy>,
}

/// One connection: a client of its own plus what it needs to turn an op
/// of the generated streams into a typed call.
pub struct Wire<'a> {
    pub client: Client,
    pub inputs: &'a Inputs,
    pub params: SearchParams,
    /// VQL text of every `(statement class, query)` pair, class-major.
    pub statements: &'a [String],
}

impl<'a> Wire<'a> {
    pub fn connect(
        handle: &ServerHandle,
        inputs: &'a Inputs,
        params: &SearchParams,
        statements: &'a [String],
    ) -> Result<Self, String> {
        let cfg = ClientConfig {
            // One socket per connection; a checkpoint rebuilds the index
            // and may answer after many seconds.
            pool_size: 1,
            read_timeout: Duration::from_secs(120),
            ..ClientConfig::default()
        };
        let client =
            Client::connect_with(handle.addr(), cfg).map_err(|e| format!("connect: {e}"))?;
        Ok(Wire {
            client,
            inputs,
            params: params.clone(),
            statements,
        })
    }

    pub fn statement_of(&self, op: SearchOp) -> &str {
        let block = STATEMENT_CLASSES
            .iter()
            .position(|&c| c == op.class)
            .expect("plain k-NN searches are not statements");
        &self.statements[block * self.inputs.queries.len() + op.query as usize]
    }

    pub fn search(&self, op: SearchOp) -> vdb_core::Result<Reply> {
        let query = self.inputs.queries.vector(op.query as usize);
        let from_hits = |hits: Vec<vdb::SearchHit>| Reply {
            keys: hits.into_iter().map(|h| h.key).collect(),
            strategy: None,
        };
        if op.class == Class::Knn {
            let hits = self.client.search(COLLECTION, query, K, &self.params)?;
            return Ok(from_hits(hits));
        }
        match self.client.vql(self.statement_of(op))? {
            vdb::VqlOutput::Hits(hits) => Ok(from_hits(hits)),
            vdb::VqlOutput::FusedHits(r) => Ok(Reply {
                keys: r.hits.iter().map(|h| h.key).collect(),
                strategy: Some(r.strategy),
            }),
            other => Err(vdb_core::Error::Corrupt(format!(
                "SEARCH answered {other:?}"
            ))),
        }
    }

    pub fn write(&self, op: WriteOp) -> vdb_core::Result<()> {
        match op {
            WriteOp::Insert(i) => {
                let rows = &self.inputs.fresh;
                let attrs = attrs_of(rows, i as usize);
                self.client.insert(
                    COLLECTION,
                    self.inputs.key_of_fresh(i),
                    rows.vector(i as usize),
                    &attrs,
                )
            }
            WriteOp::Delete(i) => self.client.delete(COLLECTION, self.inputs.key_of_fresh(i)),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Searched {
    pub op: SearchOp,
    pub timing: Timing,
    /// `None` when the call failed (error, BUSY, DEADLINE).
    pub reply: Option<Reply>,
}

#[derive(Debug, Clone, Copy)]
pub struct Written {
    pub op: WriteOp,
    pub timing: Timing,
    pub ok: bool,
}

/// How a connection sends its ops and when it gives up.
#[derive(Debug, Clone, Copy)]
struct Pace {
    /// `Some(rate)`: open loop at `rate` ops/s. `None`: closed loop.
    rate: Option<f64>,
    /// Wall-clock cap, from the first op. Run length is set by the op
    /// count; the cap only keeps a run finite when the host stalls for
    /// minutes.
    budget_ns: u64,
}

impl Pace {
    const UNCAPPED: Pace = Pace {
        rate: None,
        budget_ns: u64::MAX,
    };
}

/// Send `ops` over one connection at `pace`; returns every op that was
/// sent with its timing and what `call` made of it.
fn drive<O: Copy, R>(
    clock: &WallClock,
    ops: &[O],
    pace: Pace,
    mut call: impl FnMut(O) -> R,
) -> Vec<(O, Timing, R)> {
    let mut results = Vec::with_capacity(ops.len());
    let deadline_ns = clock.now_ns().saturating_add(pace.budget_ns);
    let mut op = |i: usize| {
        results.push(call(ops[i]));
        clock.now_ns() < deadline_ns
    };
    let timings = match pace.rate {
        None => closed_loop(clock, ops.len(), &mut op),
        Some(rate) => {
            let start_ns = clock.now_ns() + 1_000_000;
            open_loop(clock, ops.len(), start_ns, (1e9 / rate) as u64, &mut op)
        }
    };
    let sent = ops.iter().copied().zip(timings).zip(results);
    sent.map(|((op, timing), result)| (op, timing, result))
        .collect()
}

fn run_searches(wire: &Wire, clock: &WallClock, ops: &[SearchOp], pace: Pace) -> Vec<Searched> {
    drive(clock, ops, pace, |op| wire.search(op).ok())
        .into_iter()
        .map(|(op, timing, reply)| Searched { op, timing, reply })
        .collect()
}

fn run_writes(wire: &Wire, clock: &WallClock, ops: &[WriteOp], pace: Pace) -> Vec<Written> {
    drive(clock, ops, pace, |op| wire.write(op).is_ok())
        .into_iter()
        .map(|(op, timing, ok)| Written { op, timing, ok })
        .collect()
}

/// Outcome of the search phase.
pub struct SearchPhase {
    /// Measured searches per connection, in issue order.
    pub per_conn: Vec<Vec<Searched>>,
    /// Ops of the writer that ran beside the searches (open loop only).
    pub writes: Vec<Written>,
    pub warm_s: f64,
    pub wall_s: f64,
}

/// Outcome of the ingest phase.
pub struct IngestPhase {
    pub warm: Vec<Written>,
    pub per_conn: Vec<Vec<Written>>,
    pub warm_s: f64,
    pub wall_s: f64,
}

fn take(measured: usize, fraction: f64) -> usize {
    ((measured as f64 * fraction).ceil() as usize).clamp(1.min(measured), measured)
}

/// Warm up, then measure: [`crate::workload::CONNS`] closed-loop
/// connections, or one open-loop searcher beside one open-loop writer.
/// `budget_s` is the wall-clock cap on the measured part.
pub fn search_phase(
    wires: &[Wire],
    writer: Option<&Wire>,
    clock: &WallClock,
    open_loop: Option<OpenLoop>,
    fraction: f64,
    budget_s: f64,
) -> SearchPhase {
    let inputs = wires[0].inputs;
    let shape = &inputs.shape;
    let n = take(shape.searches, fraction);
    let n_writes = take(shape.rw_writes, fraction);
    let barrier = Barrier::new(wires.len() + 1 + usize::from(writer.is_some()));
    let pace = |rate: Option<f64>| Pace {
        rate,
        budget_ns: (budget_s * 1e9) as u64,
    };
    let t0 = clock.now_ns();
    let mut t1 = t0;
    let mut per_conn = Vec::new();
    let mut writes = Vec::new();
    std::thread::scope(|s| {
        let barrier = &barrier;
        let searchers: Vec<_> = wires
            .iter()
            .zip(&inputs.search_streams)
            .map(|(wire, stream)| {
                s.spawn(move || {
                    let (warm, measured) = stream.split_at(shape.warm_searches);
                    run_searches(wire, clock, warm, Pace::UNCAPPED);
                    barrier.wait();
                    let rate = open_loop.map(|rates| rates.searches);
                    run_searches(wire, clock, &measured[..n], pace(rate))
                })
            })
            .collect();
        let writer = writer.zip(open_loop).map(|(wire, rates)| {
            s.spawn(move || {
                barrier.wait();
                let ops = &inputs.rw_stream[..n_writes];
                run_writes(wire, clock, ops, pace(Some(rates.writes)))
            })
        });
        barrier.wait();
        t1 = clock.now_ns();
        per_conn = searchers
            .into_iter()
            .map(|h| h.join().expect("search connection panicked"))
            .collect();
        if let Some(w) = writer {
            writes = w.join().expect("writer connection panicked");
        }
    });
    SearchPhase {
        per_conn,
        writes,
        warm_s: (t1 - t0) as f64 / 1e9,
        wall_s: (clock.now_ns() - t1) as f64 / 1e9,
    }
}

/// Warm up, then measure [`crate::workload::CONNS`] closed-loop writers.
pub fn ingest_phase(
    wires: &[Wire],
    clock: &WallClock,
    fraction: f64,
    budget_s: f64,
) -> IngestPhase {
    let inputs = wires[0].inputs;
    let shape = &inputs.shape;
    let n = take(shape.inserts, fraction);
    let barrier = Barrier::new(wires.len() + 1);
    let t0 = clock.now_ns();
    let mut t1 = t0;
    let mut joined = Vec::new();
    std::thread::scope(|s| {
        let writers: Vec<_> = wires
            .iter()
            .zip(&inputs.ingest_streams)
            .map(|(wire, stream)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let (warm, measured) = stream.split_at(shape.warm_inserts);
                    let warm = run_writes(wire, clock, warm, Pace::UNCAPPED);
                    barrier.wait();
                    let pace = Pace {
                        rate: None,
                        budget_ns: (budget_s * 1e9) as u64,
                    };
                    (warm, run_writes(wire, clock, &measured[..n], pace))
                })
            })
            .collect();
        barrier.wait();
        t1 = clock.now_ns();
        joined = writers
            .into_iter()
            .map(|h| h.join().expect("ingest connection panicked"))
            .collect();
    });
    let (warm, per_conn): (Vec<_>, Vec<_>) = joined.into_iter().unzip();
    IngestPhase {
        warm: warm.into_iter().flatten().collect(),
        per_conn,
        warm_s: (t1 - t0) as f64 / 1e9,
        wall_s: (clock.now_ns() - t1) as f64 / 1e9,
    }
}

/// Removes the run's directory when the run ends, however it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Everything the served part of a run leaves behind.
pub struct Served {
    pub searched: SearchPhase,
    pub ingested: IngestPhase,
    /// Searches sent after the final checkpoint.
    pub probe: Vec<Searched>,
    /// Bulk load + index build + server start + every warm-up.
    pub setup_s: f64,
    pub checkpoint_s: f64,
    /// Bytes in the durability directory after the final checkpoint.
    pub disk_bytes: u64,
    /// Collection counters after the ingest phase, before the checkpoint.
    pub collection: WireCollectionStats,
    /// Duration of the final checkpoint's index publication.
    pub last_swap_us: u64,
    /// Server counters before the search phase, after it, and at the end.
    pub stats: [ServerStatsSnapshot; 3],
}

/// Load, serve, run the phases, checkpoint, probe, shut down.
fn serve_phases(
    spec: &Spec,
    opts: &RunOpts,
    inputs: &Inputs,
    wal_dir: &Path,
    clock: &WallClock,
    tracer: &mut Tracer,
    m: &mut MetricSet,
) -> Result<Served, String> {
    let shape = &inputs.shape;
    let fraction = if opts.trace { TRACED_FRACTION } else { 1.0 };
    let params = SearchParams::default().with_beam_width(spec.beam);
    let statements: Vec<String> = if shape.hybrid_mix {
        STATEMENT_CLASSES
            .iter()
            .flat_map(|&class| (0..inputs.queries.len()).map(move |q| (class, q)))
            .map(|(class, q)| statement(inputs, class, q, spec.beam))
            .collect()
    } else {
        Vec::new()
    };

    // Set-up: bulk load + index build + server start (+ the warm-ups,
    // added below). Data generation is excluded.
    let t = Instant::now();
    let db = preload(
        wal_dir,
        schema(shape),
        config(spec, spec.index.spec(), wal_dir),
        &inputs.base,
    )?;
    let server_cfg = ServerConfig {
        workers: crate::workload::CONNS,
        ..ServerConfig::default()
    };
    let handle = serve(db, "127.0.0.1:0", server_cfg).map_err(|e| format!("serve: {e}"))?;
    let connect = |_| Wire::connect(&handle, inputs, &params, &statements);
    let search_wires: Vec<Wire> = (0..shape.search_conns)
        .map(connect)
        .collect::<Result<_, _>>()?;
    let ingest_wires: Vec<Wire> = (0..shape.ingest_conns)
        .map(connect)
        .collect::<Result<_, _>>()?;
    let mut setup_s = t.elapsed().as_secs_f64();

    // Traced run only: replay a prefix of the measured stream through
    // each layer while the collection is still exactly as loaded.
    if opts.trace {
        layers::served(&handle, &search_wires[0], tracer, m)?;
    }
    let stats_before = handle.stats();

    let searched = search_phase(
        &search_wires,
        spec.open_loop.map(|_| &ingest_wires[0]),
        clock,
        spec.open_loop,
        fraction,
        SEARCH_CAP_S,
    );
    let stats_searched = handle.stats();
    let ingested = ingest_phase(&ingest_wires, clock, fraction, INGEST_CAP_S);
    setup_s += searched.warm_s + ingested.warm_s;

    let admin = &ingest_wires[0].client;
    let stats = || admin.stats(COLLECTION).map_err(|e| format!("stats: {e}"));
    // Let a rebuild that is still running finish first: whether one
    // overlaps the final checkpoint would otherwise decide the run's
    // peak memory (about 10 MB of 40 on the smallest collection).
    let mut collection = stats()?;
    let patience = Instant::now();
    while collection.rebuilds_in_flight > 0 && patience.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(5));
        collection = stats()?;
    }
    let t = Instant::now();
    admin
        .checkpoint(COLLECTION)
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    let disk_bytes = dir_bytes(wal_dir);
    let last_swap_us = stats()?.last_swap_micros;
    let probe = run_searches(&search_wires[0], clock, &inputs.probe, Pace::UNCAPPED);
    let stats_end = handle.stats();
    drop(search_wires);
    drop(ingest_wires);
    drop(handle.shutdown());
    Ok(Served {
        searched,
        ingested,
        probe,
        setup_s,
        checkpoint_s,
        disk_bytes,
        collection,
        last_swap_us,
        stats: [stats_before, stats_searched, stats_end],
    })
}

/// Of the successful ops of each connection: the latencies, and when
/// each was sent and answered.
type Series = (Vec<Vec<u64>>, Vec<Vec<(u64, u64)>>);

fn series<T>(per_conn: &[Vec<T>], timing_if_ok: impl Fn(&T) -> Option<Timing>) -> Series {
    per_conn
        .iter()
        .map(|conn| {
            let ok: Vec<Timing> = conn.iter().filter_map(&timing_if_ok).collect();
            let latencies = ok.iter().map(Timing::latency_ns).collect();
            let spans = ok.iter().map(|t| (t.sent_ns, t.end_ns)).collect();
            (latencies, spans)
        })
        .unzip()
}

pub fn run(spec: &'static Spec, opts: &RunOpts) -> Result<RunResult, String> {
    let clock = WallClock::start();
    let shape = spec.shape(opts.scale);
    let inputs = gen::generate(&shape, opts.seed);
    let host_probe_start_us = crate::host::speed_probe_us();
    let full_scale = opts.scale == Scale::Full;
    let rw = spec.open_loop.is_some();
    let run_dir = RunDir(
        opts.out_dir
            .join("tmp")
            .join(format!("run-{}", std::process::id())),
    );
    std::fs::create_dir_all(&run_dir.0).map_err(|e| format!("create run dir: {e}"))?;
    let wal_dir = run_dir.0.join("served");
    let mut m = MetricSet::default();
    let mut tracer = Tracer::new();

    let served = serve_phases(spec, opts, &inputs, &wal_dir, &clock, &mut tracer, &mut m)?;
    let Served {
        searched, ingested, ..
    } = &served;

    // Recovery from the directory alone, checked against what the
    // acknowledgements say must be there. Recovered more than once,
    // because one measurement of a few seconds follows the host's bursts;
    // a recovery does not change the directory, so each starts the same.
    let mut recover_times = Vec::with_capacity(RECOVERIES);
    let mut recovered = None;
    for _ in 0..RECOVERIES {
        drop(recovered.take()); // one copy in memory at a time
        let mut db = Vdbms::new(SystemProfile::MostlyMixed);
        let t = Instant::now();
        db.recover_collection(schema(&shape), config(spec, spec.index.spec(), &wal_dir))
            .map_err(|e| format!("recover: {e}"))?;
        recover_times.push(t.elapsed().as_secs_f64());
        recovered = Some(db);
    }
    let recovered = recovered.expect("recovered at least once");
    let recover_s = median(&recover_times);
    let all_writes = || {
        let ingest = ingested
            .warm
            .iter()
            .chain(ingested.per_conn.iter().flatten());
        searched.writes.iter().chain(ingest)
    };
    let ledger = Ledger::from_writes(all_writes());
    let coll = recovered
        .collection(COLLECTION)
        .map_err(|e| format!("recovered collection: {e}"))?;
    let (lost_acked, mut problems) = ledger.check_recovered(&inputs, coll);
    drop(recovered);

    // Searches: failures, live keys, recall.
    let measured_searches = || searched.per_conn.iter().flatten();
    let text_truth = if shape.hybrid_mix {
        text_truth(spec, &inputs, &run_dir.0, measured_searches())?
    } else {
        TextTruth::new()
    };
    let mut quality = score_searches(&inputs, &ledger, measured_searches(), &text_truth, !rw);
    let recall = if rw {
        let probed = score_probe(&inputs, &ledger, &served.probe);
        quality.failed += probed.failed;
        quality.not_live += probed.not_live;
        probed.recall()
    } else {
        quality.recall()
    };
    if quality.not_live != 0 {
        problems.push(format!("{} hit keys were not live", quality.not_live));
    }
    if recall < spec.recall_floor {
        problems.push(format!(
            "recall_at_10 {recall:.4} below the floor {}",
            spec.recall_floor
        ));
    }
    let failed = quality.failed + all_writes().filter(|w| !w.ok).count() as u64;
    let attempted = (measured_searches().count()
        + served.probe.len()
        + searched.writes.len()
        + ingested.per_conn.iter().map(Vec::len).sum::<usize>()) as u64;

    // End-to-end metrics.
    let (search_lat, search_spans) =
        series(&searched.per_conn, |s| s.reply.as_ref().map(|_| s.timing));
    let (insert_lat, insert_spans) = series(&ingested.per_conn, |w| w.ok.then_some(w.timing));
    let search_ok: usize = search_lat.iter().map(Vec::len).sum();
    let insert_ok: usize = insert_lat.iter().map(Vec::len).sum();
    if search_ok == 0 || insert_ok == 0 {
        return Err("no operation succeeded: nothing to report".into());
    }
    let search_tail = tail_quantile(search_ok);
    let insert_tail = tail_quantile(insert_ok);
    if full_scale && !opts.trace && (search_tail < TAIL || insert_tail < TAIL) {
        problems.push(format!(
            "too few samples for a p99 (search {search_ok}, insert {insert_ok})"
        ));
    }
    let us = |ns: f64| ns / 1e3;
    m.set("setup_s", served.setup_s);
    m.set("search_qps", segmented_rate(&search_spans));
    // The median per query class, averaged over the classes. Pooled over
    // classes as different as a predicate search and a text search, the
    // median sits in the gap between two of their modes (behind the
    // exclusive lock a statement waits for the other connection's whole
    // statement, so latencies cluster at the sums of two service times)
    // and jumps across it from run to run. One class: the plain median.
    let class_p50s: Vec<f64> = Class::ALL
        .iter()
        .filter_map(|&class| {
            let of_class =
                |s: &Searched| (s.op.class == class && s.reply.is_some()).then_some(s.timing);
            let (lat, _) = series(&searched.per_conn, of_class);
            let measured = lat.iter().any(|conn| !conn.is_empty());
            measured.then(|| segmented_percentile(&lat, 0.5))
        })
        .collect();
    m.set(
        "search_p50_us",
        us(class_p50s.iter().sum::<f64>() / class_p50s.len() as f64),
    );
    m.set(
        "search_p99_us",
        us(segmented_percentile(&search_lat, search_tail)),
    );
    m.set("insert_qps", segmented_rate(&insert_spans));
    m.set("insert_p50_us", us(segmented_percentile(&insert_lat, 0.5)));
    m.set(
        "insert_p99_us",
        us(segmented_percentile(&insert_lat, insert_tail)),
    );
    m.set("recall_at_10", recall);
    m.set(
        "fail_ratio",
        FAIL_RATIO_FLOOR + failed as f64 / attempted as f64,
    );
    m.set("recover_s", recover_s);
    m.set(
        "rss_mb",
        crate::host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    let info = vec![
        ("search_samples", search_ok as f64),
        ("search_tail_quantile", search_tail),
        ("search_phase_s", searched.wall_s),
        ("insert_samples", insert_ok as f64),
        ("insert_tail_quantile", insert_tail),
        ("ingest_phase_s", ingested.wall_s),
        ("checkpoint_s", served.checkpoint_s),
        ("lost_acked", lost_acked as f64),
        ("rw_write_ops", searched.writes.len() as f64),
        ("merges", served.collection.merges as f64),
        ("host_probe_start_us", host_probe_start_us),
        ("host_probe_end_us", crate::host::speed_probe_us()),
        ("run_total_s", clock.now_ns() as f64 / 1e9),
    ];

    // Traced run: counters of the concurrent phases, then the layers
    // that need no server.
    let mut budget = Vec::new();
    if opts.trace {
        let live_rows = shape.n + ledger.live_fresh.len();
        layers::counters(&mut m, &served, rw, live_rows, &inputs);
        layers::offline(spec, &inputs, &run_dir.0, &mut tracer, &mut m)?;
        layers::write_trace(&opts.out_dir, spec.name, &tracer, &m)?;
        budget = layers::budget_lines(&tracer, &m);
    }

    let metrics = if opts.trace {
        m.per_layer()
    } else {
        m.end_to_end()
    };
    for metric in metrics.iter().filter(|metric| !metric.value.is_finite()) {
        problems.push(format!("{} is not finite", metric.name));
    }
    Ok(RunResult {
        workload: spec.name,
        seed: opts.seed,
        trace: opts.trace,
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        inputs_hash: inputs.hash,
        problems,
        info,
        detail: m.detail(),
        budget,
    })
}

/// Reference results of the text class: the same fused query against an
/// exact (Flat) twin of the collection, under the strategy the planner
/// executed on the served one.
fn text_truth<'a>(
    spec: &Spec,
    inputs: &Inputs,
    run_dir: &Path,
    searches: impl Iterator<Item = &'a Searched>,
) -> Result<TextTruth, String> {
    let dir = run_dir.join("exact");
    let twin = preload(
        &dir,
        schema(&inputs.shape),
        config(spec, IndexSpec::Flat, &dir),
        &inputs.base,
    )?;
    let coll = twin.collection(COLLECTION).map_err(|e| e.to_string())?;
    let params = SearchParams::default().with_beam_width(spec.beam);
    let mut truth = TextTruth::new();
    for s in searches.filter(|s| s.op.class == Class::Text) {
        let Some(strategy) = s.reply.as_ref().and_then(|r| r.strategy) else {
            continue;
        };
        let Entry::Vacant(slot) = truth.entry((s.op.query, strategy.name())) else {
            continue;
        };
        let q = s.op.query as usize;
        let exact = coll
            .hybrid_text_search(
                inputs.queries.vector(q),
                &inputs.text_queries[q],
                K,
                &Predicate::True,
                FUSION,
                Some(strategy),
                &params,
            )
            .map_err(|e| format!("exact text reference: {e}"))?;
        slot.insert(exact.hits.iter().map(|h| h.key as u32).collect());
    }
    Ok(truth)
}
