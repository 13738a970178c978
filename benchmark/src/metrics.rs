//! The metric and workload names this benchmark emits. `BENCHMARK.json`
//! lists the same names; `tests/contract.rs` holds the two together.

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["knn_mem", "hybrid_mix", "knn_disk", "mixed_rw"];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// What `fail_ratio` reads when nothing failed. An end-to-end metric may
/// never read 0 and its bound is a share of the parent's median, so the
/// ratio is reported above this floor: with the 0.10 bound a later change
/// may fail one more operation in a thousand, the `+0.001 absolute` the
/// benchmark's issue asked for.
pub const FAIL_RATIO_FLOOR: f64 = 0.01;

/// End-to-end metrics: what a user of the served system sees. Every
/// workload runs the whole life cycle (load, serve searches, ingest,
/// checkpoint, recover), so every metric exists on every workload.
///
/// The tail latencies are not in this list although every run measures
/// and prints them (see [`DETAIL`]): a metric here needs a bound of at
/// most 0.25 that its own run-to-run spread stays inside, and the p99s
/// do not.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("search_qps", "1/s", true, 0.25),
    e2e("search_p50_us", "us", false, 0.25),
    e2e("insert_qps", "1/s", true, 0.25),
    e2e("insert_p50_us", "us", false, 0.25),
    e2e("recall_at_10", "ratio", true, 0.01),
    e2e("fail_ratio", "ratio", false, 0.10),
    e2e("recover_s", "s", false, 0.25),
    e2e("rss_mb", "MB", false, 0.25),
];

/// Per-layer metrics of the traced run, `(name, unit)`; the prefix is the
/// crate the number belongs to. Only what every workload's own
/// operations produce is listed here (a run must emit every metric of
/// `BENCHMARK.json`); what only some workloads have is [`DETAIL`].
pub const PER_LAYER: [(&str, &str); 27] = [
    ("e2e.rtt_us", "us"),
    ("core.kernel.l2_batch_ns_per_vec", "ns"),
    ("core.flat.search_us", "us"),
    ("index.search_us", "us"),
    ("index.recall_at_10", "ratio"),
    ("index.build_s", "s"),
    ("storage.cache_hits_per_query", "count"),
    ("storage.cache_misses_per_query", "count"),
    ("storage.wal_append_sync_us", "us"),
    ("storage.wal_bytes_per_insert", "B"),
    ("storage.checkpoint_s", "s"),
    ("storage.disk_bytes_per_user_byte", "ratio"),
    ("vdbms.collection_op_us", "us"),
    ("vdbms.collection_insert_us", "us"),
    ("vdbms.merges", "count"),
    ("vdbms.last_swap_us", "us"),
    ("vdbms.buffered_at_end", "count"),
    ("server.req_encode_us", "us"),
    ("server.req_decode_us", "us"),
    ("server.resp_encode_us", "us"),
    ("server.resp_decode_us", "us"),
    ("server.ping_rtt_us", "us"),
    ("server.residual_us", "us"),
    ("server.coalesced_ratio", "ratio"),
    ("server.busy", "count"),
    ("server.deadline_expired", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Numbers a run prints and stores in its result record but that are not
/// metrics of `BENCHMARK.json`. The two tail latencies, which every run
/// has: over ten seeds the p99 beside back-to-back rebuilds spread 25 to
/// 41 % of its median for searches and 78 % and more for inserts. A
/// rebuild cycle slows between one and three percent of the operations
/// beside it by milliseconds, so the 99th percentile sits on the edge
/// between the stalled and the unstalled population and falls to one
/// side or the other from run to run. The rest, because only some
/// workloads' operations produce them: per query class, the parser and
/// the selectivity estimate (statements only), the buffer overlay (plain
/// k-NN only), the open-loop generator, and the server's own coarse
/// histogram (powers of two, the same on every run).
pub const DETAIL: [(&str, &str); 18] = [
    ("search_p99_us", "us"),
    ("insert_p99_us", "us"),
    ("client.rtt_p50_us.knn", "us"),
    ("client.rtt_p50_us.sel_lo", "us"),
    ("client.rtt_p50_us.sel_mid", "us"),
    ("client.rtt_p50_us.sel_hi", "us"),
    ("client.rtt_p50_us.text", "us"),
    ("query.vql_parse_us", "us"),
    ("query.selectivity_us", "us"),
    ("vdbms.search_hybrid_us.sel_lo", "us"),
    ("vdbms.search_hybrid_us.sel_mid", "us"),
    ("vdbms.search_hybrid_us.sel_hi", "us"),
    ("vdbms.hybrid_text_us", "us"),
    ("vdbms.merge_overhead_us", "us"),
    ("client.gen_late_p99_us", "us"),
    ("client.rw_write_ops", "count"),
    ("server.hist_p50_us", "us"),
    ("server.hist_p99_us", "us"),
];

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Name-keyed accumulator that refuses names outside the declared
/// lists, so a typo fails the run instead of dropping a metric.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: Vec<(String, f64)>,
}

impl MetricSet {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not declared in metrics.rs"
        );
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every end-to-end metric, in declaration order; a missing value is
    /// an error in the benchmark.
    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|m| self.metric(m.name, m.unit))
            .collect()
    }

    /// Every per-layer metric, in declaration order.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| self.metric(name, unit))
            .collect()
    }

    /// The detail numbers this run measured.
    pub fn detail(&self) -> Vec<Metric> {
        DETAIL
            .iter()
            .filter_map(|&(name, unit)| {
                self.get(name).map(|value| Metric {
                    name: name.to_string(),
                    value,
                    unit,
                })
            })
            .collect()
    }

    fn metric(&self, name: &str, unit: &'static str) -> Metric {
        let value = self
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            let mut listed = PER_LAYER.iter().chain(&DETAIL);
            listed.find(|(n, _)| *n == name).map(|(_, u)| *u)
        })
}
