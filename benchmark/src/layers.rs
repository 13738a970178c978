//! The traced run's per-layer numbers. A prefix of the measured search
//! stream is replayed single-threaded: over the wire, then the same op
//! directly against the served database, then against a twin index
//! built from the same `IndexSpec`; each call is a span recorded here,
//! from the benchmark's side of the layer's public functions.

use crate::gen::{Class, Inputs, SearchOp, K, PRICE_BOUNDS};
use crate::json::Json;
use crate::metrics::MetricSet;
use crate::run::{attrs_of, config, schema, Served, Wire, COLLECTION};
use crate::stats::{median, percentile, tail_quantile};
use crate::trace::{self_times, Span, Tracer};
use crate::workload::Spec;
use std::path::Path;
use std::time::Instant;
use vdb::{parse_vql, CollectionConfig, MergeMode, Predicate, Vdbms};
use vdb_core::{FlatIndex, Metric, SearchContext, SearchParams, VectorIndex, Vectors};
use vdb_server::{Request, Response, ServerHandle};
use vdb_storage::{Wal, WalRecord};

/// Ops of the measured stream the replays cover.
const REPLAY_OPS: usize = 2000;
/// Ops the exact-scan reference covers (it is the slowest replay).
const FLAT_OPS: usize = 300;
const PING_CALLS: usize = 500;
const KERNEL_ROWS: usize = 4096;
const KERNEL_CALLS: usize = 200;
const WAL_RECORDS: usize = 300;
const TWIN_INSERTS: usize = 300;

fn p50_us(sorted_ns: &[u64]) -> f64 {
    if sorted_ns.is_empty() {
        0.0
    } else {
        percentile(sorted_ns, 0.5) as f64 / 1e3
    }
}

/// The measured ops of connection 0 that the replays cover.
fn replay_ops(inputs: &Inputs) -> &[SearchOp] {
    let measured = &inputs.search_streams[0][inputs.shape.warm_searches..];
    &measured[..measured.len().min(REPLAY_OPS)]
}

/// The wire request equivalent to `op` (what the typed client sends).
fn request_of(wire: &Wire, op: SearchOp) -> Request {
    let query = wire.inputs.queries.vector(op.query as usize).to_vec();
    match op.class {
        Class::Knn => Request::Search {
            collection: COLLECTION.into(),
            k: K as u32,
            params: wire.params.clone(),
            query,
        },
        Class::Filter(_) | Class::Text => Request::Vql {
            statement: wire.statement_of(op).to_string(),
        },
    }
}

/// The call the server makes for `op`, made directly.
fn direct(db: &mut Vdbms, wire: &Wire, op: SearchOp) -> vdb_core::Result<()> {
    let query = wire.inputs.queries.vector(op.query as usize);
    match op.class {
        Class::Knn => db
            .collection(COLLECTION)?
            .search(query, K, &wire.params)
            .map(drop),
        Class::Filter(_) | Class::Text => db.execute(wire.statement_of(op)).map(drop),
    }
}

/// The four codec spans; each has a metric of the same name plus `_us`.
const CODEC: [&str; 4] = [
    "server.req_encode",
    "server.req_decode",
    "server.resp_encode",
    "server.resp_decode",
];

/// Set `metric` to the p50 of the spans called `span`, in microseconds.
fn set_p50(m: &mut MetricSet, metric: &str, tracer: &Tracer, span: &str) {
    m.set(metric, p50_us(&tracer.durations(span)));
}

/// Replays that need the live server, run while the collection is still
/// exactly as loaded (no buffered rows).
pub fn served(
    handle: &ServerHandle,
    wire: &Wire,
    tracer: &mut Tracer,
    m: &mut MetricSet,
) -> Result<(), String> {
    let ops = replay_ops(wire.inputs);
    let fail = |what: &str, e: vdb_core::Error| format!("{what}: {e}");

    // Framing + socket + event-loop floor.
    let mut ping = Vec::with_capacity(PING_CALLS);
    for _ in 0..PING_CALLS {
        let t = Instant::now();
        wire.client.ping().map_err(|e| fail("ping", e))?;
        ping.push(t.elapsed().as_nanos() as u64);
    }
    ping.sort_unstable();
    m.set("server.ping_rtt_us", p50_us(&ping));

    // Over the wire, twice: without spans, then with them. Same ops,
    // same single connection, so the ratio is what span recording costs.
    let mut untraced = Vec::with_capacity(ops.len());
    for &op in ops {
        let t = Instant::now();
        wire.search(op).map_err(|e| fail("wire replay", e))?;
        untraced.push(t.elapsed().as_nanos() as u64);
    }
    untraced.sort_unstable();
    let cache_before = vdb::global_cache_stats();
    for (i, &op) in ops.iter().enumerate() {
        tracer
            .span("e2e.rtt", "", i as u32, || wire.search(op))
            .map_err(|e| fail("wire replay", e))?;
    }
    let cache_after = vdb::global_cache_stats();
    // Counter deltas: both read 0 on an index that pages nothing.
    let per_query = |after: u64, before: u64| (after - before) as f64 / ops.len() as f64;
    m.set(
        "storage.cache_hits_per_query",
        per_query(cache_after.0, cache_before.0),
    );
    m.set(
        "storage.cache_misses_per_query",
        per_query(cache_after.1, cache_before.1),
    );
    let rtt = tracer.durations("e2e.rtt");
    m.set("e2e.rtt_us", p50_us(&rtt));
    m.set("trace.overhead_ratio", p50_us(&rtt) / p50_us(&untraced));
    // Spans called `name` whose op is of `class`, ascending.
    let of_class = |tracer: &Tracer, name: &str, class: Class| -> Vec<u64> {
        let mut d: Vec<u64> = tracer
            .spans
            .iter()
            .filter(|s| s.name == name && ops[s.op as usize].class == class)
            .map(Span::dur_ns)
            .collect();
        d.sort_unstable();
        d
    };
    for class in Class::ALL {
        let d = of_class(tracer, "e2e.rtt", class);
        if !d.is_empty() {
            m.set(&format!("client.rtt_p50_us.{}", class.name()), p50_us(&d));
        }
    }

    // The codec on the workload's own messages.
    for (i, &op) in ops.iter().enumerate() {
        let i = i as u32;
        let request = request_of(wire, op);
        let bytes = tracer.span("server.req_encode", "e2e.rtt", i, || request.encode());
        tracer
            .span("server.req_decode", "e2e.rtt", i, || {
                Request::decode(&bytes)
            })
            .map_err(|e| fail("request decode", e))?;
        let response = wire
            .client
            .call(&request)
            .map_err(|e| fail("codec replay", e))?;
        let bytes = tracer.span("server.resp_encode", "e2e.rtt", i, || response.encode());
        tracer
            .span("server.resp_decode", "e2e.rtt", i, || {
                Response::decode(&bytes)
            })
            .map_err(|e| fail("response decode", e))?;
    }
    for span in CODEC {
        set_p50(m, &format!("{span}_us"), tracer, span);
    }

    // The same ops directly against the served database, the wire and
    // the server's queue taken away. A statement is parsed, and a
    // predicate's selectivity estimated, inside the collection call; both
    // are replayed alone as its children.
    handle.with_db_mut(|db| -> Result<(), String> {
        for (i, &op) in ops.iter().enumerate() {
            let i = i as u32;
            tracer
                .span("vdbms.collection", "e2e.rtt", i, || direct(db, wire, op))
                .map_err(|e| fail("direct replay", e))?;
            if op.class == Class::Knn {
                continue;
            }
            tracer
                .span("query.vql_parse", "vdbms.collection", i, || {
                    parse_vql(wire.statement_of(op))
                })
                .map_err(|e| fail("parse", e))?;
            if let Class::Filter(c) = op.class {
                let coll = db
                    .collection(COLLECTION)
                    .map_err(|e| fail("collection", e))?;
                let predicate = Predicate::lt("price", PRICE_BOUNDS[c as usize]);
                tracer
                    .span("query.selectivity", "vdbms.collection", i, || {
                        coll.selectivity(&predicate)
                    })
                    .map_err(|e| fail("selectivity", e))?;
            }
        }
        Ok(())
    })?;
    set_p50(m, "vdbms.collection_op_us", tracer, "vdbms.collection");
    for class in [
        Class::Filter(0),
        Class::Filter(1),
        Class::Filter(2),
        Class::Text,
    ] {
        let d = of_class(tracer, "vdbms.collection", class);
        if d.is_empty() {
            continue;
        }
        let name = match class {
            Class::Text => "vdbms.hybrid_text_us".to_string(),
            _ => format!("vdbms.search_hybrid_us.{}", class.name()),
        };
        m.set(&name, p50_us(&d));
    }
    for (metric, span) in [
        ("query.vql_parse_us", "query.vql_parse"),
        ("query.selectivity_us", "query.selectivity"),
    ] {
        if !tracer.durations(span).is_empty() {
            set_p50(m, metric, tracer, span);
        }
    }
    let (_, residual_us) = budget(tracer)
        .into_iter()
        .find(|&(layer, _)| layer == "server.residual")
        .expect("the budget has a residual row");
    m.set("server.residual_us", residual_us);
    Ok(())
}

/// Counters the concurrent phases left behind. `live_rows` is what the
/// acknowledgements say the collection holds at the end.
pub fn counters(m: &mut MetricSet, c: &Served, open_loop: bool, live_rows: usize, inputs: &Inputs) {
    let [before, searched, end] = &c.stats;
    let served = searched.served - before.served;
    let coalesced = searched.coalesced - before.coalesced;
    m.set(
        "server.coalesced_ratio",
        if served == 0 {
            0.0
        } else {
            coalesced as f64 / served as f64
        },
    );
    m.set("server.hist_p50_us", end.p50_us as f64);
    m.set("server.hist_p99_us", end.p99_us as f64);
    m.set("server.busy", end.busy as f64);
    m.set("server.deadline_expired", end.deadline_expired as f64);
    m.set("vdbms.merges", c.collection.merges as f64);
    m.set("vdbms.last_swap_us", c.last_swap_us as f64);
    m.set("vdbms.buffered_at_end", c.collection.buffered as f64);
    if open_loop {
        // How late the generator sent each search.
        let mut late_ns: Vec<u64> = c
            .searched
            .per_conn
            .iter()
            .flatten()
            .map(|s| s.timing.late_ns())
            .collect();
        late_ns.sort_unstable();
        let q = tail_quantile(late_ns.len());
        m.set(
            "client.gen_late_p99_us",
            percentile(&late_ns, q) as f64 / 1e3,
        );
        m.set("client.rw_write_ops", c.searched.writes.len() as f64);
    }
    m.set("storage.checkpoint_s", c.checkpoint_s);
    m.set(
        "storage.disk_bytes_per_user_byte",
        c.disk_bytes as f64 / (live_rows * user_bytes_per_row(inputs)) as f64,
    );
}

/// Bytes of one row as the user supplied it: key, vector, attributes.
fn user_bytes_per_row(inputs: &Inputs) -> usize {
    let rows = &inputs.base;
    let attrs: usize = attrs_of(rows, 0)
        .iter()
        .map(|(_, v)| match v {
            vdb_core::AttrValue::Str(s) => s.len(),
            _ => 8,
        })
        .sum();
    8 + rows.dim * 4 + attrs
}

/// Layers measured without a server: the twin index, the exact scan,
/// the distance kernel, the WAL, and a durable twin collection.
pub fn offline(
    spec: &Spec,
    inputs: &Inputs,
    run_dir: &Path,
    tracer: &mut Tracer,
    m: &mut MetricSet,
) -> Result<(), String> {
    let ops = replay_ops(inputs);
    let params = SearchParams::default().with_beam_width(spec.beam);
    let fail = |what: &str, e: vdb_core::Error| format!("{what}: {e}");
    let vectors = || {
        Vectors::from_flat(inputs.base.dim, inputs.base.vectors.clone())
            .map_err(|e| fail("vectors", e))
    };

    // Twin index: same spec, same build options as the collection uses.
    let build = CollectionConfig::default().build;
    let t = Instant::now();
    let twin = spec
        .index
        .spec()
        .build_with(vectors()?, Metric::Euclidean, &build)
        .map_err(|e| fail("twin index build", e))?;
    m.set("index.build_s", t.elapsed().as_secs_f64());
    let mut ctx = SearchContext::for_index(twin.len());
    let mut recall = 0.0;
    for (i, &op) in ops.iter().enumerate() {
        let query = inputs.queries.vector(op.query as usize);
        let parent = if op.class == Class::Knn {
            "vdbms.collection"
        } else {
            ""
        };
        let hits = tracer
            .span("index.search", parent, i as u32, || {
                twin.search_with(&mut ctx, query, K, &params)
            })
            .map_err(|e| fail("twin index search", e))?;
        let truth = &inputs.truth_knn[op.query as usize];
        recall += hits
            .iter()
            .filter(|h| truth.contains(&(h.id as u32)))
            .count() as f64
            / K as f64;
    }
    drop(twin);
    let index_us = p50_us(&tracer.durations("index.search"));
    m.set("index.search_us", index_us);
    m.set("index.recall_at_10", recall / ops.len() as f64);
    // Where the ops are plain k-NN, what the collection adds to the bare
    // index search: the buffer overlay and the key lookup.
    if ops.iter().all(|op| op.class == Class::Knn) {
        let collection_us = m.get("vdbms.collection_op_us").unwrap_or(0.0);
        m.set("vdbms.merge_overhead_us", collection_us - index_us);
    }

    // Exact scan: the all-kernel reference for the same queries.
    let flat = FlatIndex::build(vectors()?, Metric::Euclidean).map_err(|e| fail("flat", e))?;
    for (i, &op) in ops.iter().take(FLAT_OPS).enumerate() {
        let query = inputs.queries.vector(op.query as usize);
        tracer
            .span("core.flat.search", "", i as u32, || {
                flat.search_with(&mut ctx, query, K, &params)
            })
            .map_err(|e| fail("flat search", e))?;
    }
    drop(flat);
    set_p50(m, "core.flat.search_us", tracer, "core.flat.search");

    // The distance kernel alone, on a block of the workload's own rows.
    let rows = &inputs.base.vectors[..KERNEL_ROWS.min(inputs.base.len()) * inputs.base.dim];
    let n_rows = rows.len() / inputs.base.dim;
    let mut out = vec![0f32; n_rows];
    let mut per_vec = Vec::with_capacity(KERNEL_CALLS);
    for i in 0..KERNEL_CALLS {
        let query = inputs.queries.vector(i % inputs.queries.len());
        let t = Instant::now();
        vdb_core::kernel::l2_sq_batch(
            std::hint::black_box(query),
            std::hint::black_box(rows),
            inputs.base.dim,
            &mut out,
        );
        std::hint::black_box(&out);
        per_vec.push(t.elapsed().as_nanos() as f64 / n_rows as f64);
    }
    m.set("core.kernel.l2_batch_ns_per_vec", median(&per_vec));

    // WAL append + sync of workload-shaped records.
    let record = |i: usize| WalRecord::Insert {
        key: inputs.key_of_fresh(i as u32),
        vector: inputs.fresh.vector(i).to_vec(),
        attrs: attrs_of(&inputs.fresh, i)
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
    };
    let wal_dir = run_dir.join("wal-probe");
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("create wal dir: {e}"))?;
    let mut wal = Wal::open(wal_dir.join("probe.wal")).map_err(|e| fail("wal open", e))?;
    let records = WAL_RECORDS.min(inputs.fresh.len());
    for i in 0..records {
        let rec = record(i);
        tracer
            .span("storage.wal_append_sync", "", i as u32, || {
                wal.append(&rec).and_then(|()| wal.sync())
            })
            .map_err(|e| fail("wal append", e))?;
    }
    set_p50(
        m,
        "storage.wal_append_sync_us",
        tracer,
        "storage.wal_append_sync",
    );
    m.set(
        "storage.wal_bytes_per_insert",
        wal.size_bytes().map_err(|e| fail("wal size", e))? as f64 / records as f64,
    );
    drop(wal);

    // A durable twin collection, not served: the insert path alone.
    let twin_dir = run_dir.join("durable-twin");
    let mut db = Vdbms::new(vdb::SystemProfile::MostlyMixed);
    let cfg = CollectionConfig {
        merge_mode: MergeMode::Blocking,
        merge_threshold: TWIN_INSERTS + 1,
        ..config(spec, spec.index.spec(), &twin_dir)
    };
    db.create_collection_with(schema(&inputs.shape), cfg)
        .map_err(|e| fail("durable twin", e))?;
    let coll = db
        .collection_mut(COLLECTION)
        .map_err(|e| fail("durable twin", e))?;
    for i in 0..TWIN_INSERTS.min(inputs.fresh.len()) {
        let attrs = attrs_of(&inputs.fresh, i);
        tracer
            .span("vdbms.collection_insert", "", i as u32, || {
                coll.insert(
                    inputs.key_of_fresh(i as u32),
                    inputs.fresh.vector(i),
                    &attrs,
                )
            })
            .map_err(|e| fail("durable twin insert", e))?;
    }
    set_p50(
        m,
        "vdbms.collection_insert_us",
        tracer,
        "vdbms.collection_insert",
    );
    Ok(())
}

/// Layers of the budget and the spans whose self times they add up.
const BUDGET: [(&str, &[&str]); 5] = [
    ("index", &["index.search"]),
    ("query", &["query.vql_parse", "query.selectivity"]),
    ("vdbms", &["vdbms.collection"]),
    ("server.codec", &CODEC),
    ("server.residual", &["e2e.rtt"]),
];

/// The layer budget of the wire replay, from the spans: for every
/// replayed op the self times of each layer's spans are added up, and a
/// layer's row is the median over the ops, in microseconds. The last row
/// is the round trip's own self time: what the wire round trip spent
/// outside the collection call and the codec (queue wait, wake-ups,
/// socket), made visible, not explained. Per op the rows add up to the
/// round trip exactly (unless a replayed child outlasts its parent, which
/// clamps at zero); their medians add up to about its p50.
pub fn budget(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let selfs = self_times(&tracer.spans);
    let ops = tracer.durations("e2e.rtt").len();
    BUDGET
        .iter()
        .map(|&(layer, names)| {
            let mut per_op = vec![0u64; ops];
            for (span, self_ns) in tracer.spans.iter().zip(&selfs) {
                if names.contains(&span.name) && (span.op as usize) < ops {
                    per_op[span.op as usize] += self_ns;
                }
            }
            per_op.sort_unstable();
            (layer, p50_us(&per_op))
        })
        .collect()
}

pub fn write_trace(
    out_dir: &Path,
    workload: &str,
    tracer: &Tracer,
    m: &MetricSet,
) -> Result<(), String> {
    let selfs = self_times(&tracer.spans);
    let spans: Vec<Json> = tracer
        .spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("parent", Json::str(s.parent)),
                ("op", Json::Num(s.op as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
            ])
        })
        .collect();
    let rows = budget(tracer);
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        (
            "e2e_rtt_p50_us",
            Json::Num(m.get("e2e.rtt_us").unwrap_or(0.0)),
        ),
        (
            "layer_budget_us",
            Json::obj(rows.iter().map(|&(k, v)| (k, Json::Num(v)))),
        ),
        ("spans", Json::Arr(spans)),
    ]);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, doc.encode()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The budget as text, for the human-readable report.
pub fn budget_lines(tracer: &Tracer, m: &MetricSet) -> Vec<String> {
    let total = m.get("e2e.rtt_us").unwrap_or(0.0);
    let rows = budget(tracer);
    let sum: f64 = rows.iter().map(|&(_, us)| us).sum();
    let line = |layer: &str, us: f64| {
        format!(
            "    {layer:<16} {us:>10.2} us  {:>5.1} %",
            if total > 0.0 { 100.0 * us / total } else { 0.0 }
        )
    };
    let mut lines: Vec<String> = rows.iter().map(|&(layer, us)| line(layer, us)).collect();
    lines.push(line("sum of the rows", sum));
    lines.push(format!("    {:<16} {total:>10.2} us", "e2e.rtt p50"));
    lines
}
