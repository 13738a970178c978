//! F3 (hybrid strategies vs selectivity) and T3 (plan-selection quality)
//! — the §2.3 query-optimization experiments.

use crate::workload::{standard, GT_K};
use crate::{fmt, print_table, Scale};
use std::time::Instant;
use vdb_core::index::{SearchParams, VectorIndex};
use vdb_core::metric::Metric;
use vdb_core::Result;
use vdb_index_graph::{HnswConfig, HnswIndex};
use vdb_query::{execute, Planner, PlannerMode, Predicate, QueryContext, Strategy, VectorQuery};

/// Price cutoffs giving the selectivity sweep (prices are uniform 0..1000).
const CUTS: [(i64, &str); 6] = [
    (1, "0.1%"),
    (10, "1%"),
    (50, "5%"),
    (200, "20%"),
    (500, "50%"),
    (900, "90%"),
];

fn measure_strategy(
    ctx: &QueryContext<'_>,
    queries: &vdb_core::Vectors,
    pred: &Predicate,
    strategy: Strategy,
    params: &SearchParams,
    oracle: &[Vec<usize>],
) -> (f64, f64, f64) {
    let start = Instant::now();
    let mut hit = 0usize;
    let mut truth = 0usize;
    for (qi, qv) in queries.iter().enumerate() {
        let q = VectorQuery::knn(qv.to_vec(), GT_K)
            .filtered(pred.clone())
            .with_params(params.clone());
        let out = execute(ctx, &q, strategy).expect("strategy executes");
        let oset: std::collections::HashSet<usize> = oracle[qi].iter().copied().collect();
        hit += out.iter().filter(|n| oset.contains(&n.id)).count();
        truth += oset.len();
    }
    let total = start.elapsed().as_secs_f64();
    let nq = queries.len() as f64;
    let recall = if truth == 0 {
        1.0
    } else {
        hit as f64 / truth as f64
    };
    (total * 1e6 / nq, nq / total, recall)
}

fn filtered_oracle(
    ctx: &QueryContext<'_>,
    queries: &vdb_core::Vectors,
    pred: &Predicate,
    params: &SearchParams,
) -> Vec<Vec<usize>> {
    queries
        .iter()
        .map(|qv| {
            let q = VectorQuery::knn(qv.to_vec(), GT_K)
                .filtered(pred.clone())
                .with_params(params.clone());
            execute(ctx, &q, Strategy::BruteForce)
                .expect("oracle")
                .into_iter()
                .map(|n| n.id)
                .collect()
        })
        .collect()
}

/// F3: every strategy across the selectivity sweep on an HNSW index.
pub fn f3_strategies_vs_selectivity(scale: Scale) -> Result<()> {
    let w = standard(scale, 0xF3);
    let index = HnswIndex::build(w.data.clone(), Metric::Euclidean, HnswConfig::default())?;
    let ctx = QueryContext::new(&w.data, &w.attrs, &index)?;
    let params = SearchParams::default().with_beam_width(96);
    let mut rows = Vec::new();
    for (cut, label) in CUTS {
        let pred = Predicate::lt("price", cut);
        let exact_sel = pred.exact_selectivity(&w.attrs)?;
        let oracle = filtered_oracle(&ctx, &w.queries, &pred, &params);
        for strategy in Strategy::ALL {
            let (us, qps, recall) =
                measure_strategy(&ctx, &w.queries, &pred, strategy, &params, &oracle);
            rows.push(vec![
                label.to_string(),
                fmt(exact_sel, 4),
                strategy.name().to_string(),
                fmt(us, 0),
                fmt(qps, 0),
                fmt(recall, 3),
            ]);
        }
    }
    print_table(
        &format!(
            "F3: hybrid strategies vs predicate selectivity (HNSW, n={})",
            scale.n()
        ),
        &[
            "selectivity",
            "exact_sel",
            "strategy",
            "latency_us",
            "qps",
            "recall@10",
        ],
        &rows,
    );
    println!(
        "  Expected shape: pre_filter wins at the selective end (few rows to\n  \
         scan), post_filter at the unselective end (filter is nearly free),\n  \
         visit_first competitive between; block_first loses recall when\n  \
         blocking disconnects the graph at low selectivity."
    );

    f3b_online_vs_offline_blocking(scale)?;
    Ok(())
}

/// F3b (ablation, DESIGN.md §4.5): online bitmask blocking vs *offline*
/// blocking, where the collection is pre-partitioned along the attribute
/// (Milvus-style) so only the matching partition is searched at all.
fn f3b_online_vs_offline_blocking(scale: Scale) -> Result<()> {
    use vdb_core::topk::{Neighbor, TopK};
    use vdb_index_table::{IvfConfig, IvfFlatIndex};

    let w = standard(scale, 0x3B);
    // Attribute aligned with vector locality: the generator's cluster id.
    let labels = &w.cluster_of;
    let index = IvfFlatIndex::build(w.data.clone(), Metric::Euclidean, &IvfConfig::new(32), &())?;
    // Offline blocking: map each attribute value to the rows it owns.
    let n_labels = labels.iter().copied().max().unwrap_or(0) + 1;
    let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); n_labels];
    for (row, &l) in labels.iter().enumerate() {
        partitions[l].push(row as u32);
    }
    let params = SearchParams::default().with_nprobe(8);
    let mut rows = Vec::new();
    let nq = w.queries.len();

    // Online: bitmask pushed into the IVF scan.
    let start = Instant::now();
    let mut hits_online = Vec::with_capacity(nq);
    for (qi, qv) in w.queries.iter().enumerate() {
        let label = qi % n_labels;
        let labels_ref = labels;
        let filter = move |id: usize| labels_ref[id] == label;
        hits_online.push(index.search_blocked(qv, GT_K, &params, &filter)?);
    }
    let online_us = start.elapsed().as_micros() as f64 / nq as f64;

    // Offline: scan only the pre-partitioned rows (exact within partition).
    let start = Instant::now();
    let mut hits_offline = Vec::with_capacity(nq);
    let metric = Metric::Euclidean;
    for (qi, qv) in w.queries.iter().enumerate() {
        let label = qi % n_labels;
        let mut top = TopK::new(GT_K);
        for &row in &partitions[label] {
            top.push(Neighbor::new(
                row as usize,
                metric.distance(qv, w.data.get(row as usize)),
            ));
        }
        hits_offline.push(top.into_sorted());
    }
    let offline_us = start.elapsed().as_micros() as f64 / nq as f64;

    // Oracle recall per variant.
    let oracle: Vec<std::collections::HashSet<usize>> = w
        .queries
        .iter()
        .enumerate()
        .map(|(qi, qv)| {
            let label = qi % n_labels;
            let mut top = TopK::new(GT_K);
            for (row, v) in w.data.iter().enumerate() {
                if labels[row] == label {
                    top.push(Neighbor::new(row, metric.distance(qv, v)));
                }
            }
            top.into_sorted().into_iter().map(|h| h.id).collect()
        })
        .collect();
    let recall_of = |hits: &[Vec<Neighbor>]| {
        let mut hit = 0usize;
        let mut total = 0usize;
        for (h, o) in hits.iter().zip(&oracle) {
            hit += h.iter().filter(|n| o.contains(&n.id)).count();
            total += o.len();
        }
        hit as f64 / total.max(1) as f64
    };
    rows.push(vec![
        "online_bitmask".into(),
        fmt(online_us, 0),
        fmt(recall_of(&hits_online), 3),
    ]);
    rows.push(vec![
        "offline_partition".into(),
        fmt(offline_us, 0),
        fmt(recall_of(&hits_offline), 3),
    ]);
    print_table(
        "F3b (ablation): online bitmask vs offline partition blocking (IVF, cluster-aligned attribute)",
        &["blocking", "latency_us", "recall@10"],
        &rows,
    );
    println!(
        "  Expected shape: the predicate names a partition that may lie far\n  \
         from the query, so online blocking strands (the probed lists hold no\n  \
         matching rows) while offline partition routing goes straight to the\n  \
         matching rows and stays exact (§2.3(1) offline blocking)."
    );
    Ok(())
}

/// T3: planner pick vs oracle-best strategy across the sweep.
pub fn t3_plan_selection(scale: Scale) -> Result<()> {
    let w = standard(scale, 0x73);
    let index = HnswIndex::build(w.data.clone(), Metric::Euclidean, HnswConfig::default())?;
    let ctx = QueryContext::new(&w.data, &w.attrs, &index)?;
    let params = SearchParams::default().with_beam_width(96);
    let mut rows = Vec::new();
    for (cut, label) in CUTS {
        let pred = Predicate::lt("price", cut);
        let oracle = filtered_oracle(&ctx, &w.queries, &pred, &params);
        // Measure every strategy; the oracle pick is the fastest one that
        // keeps recall >= 0.9 (a latency-only oracle would reward wrong
        // answers).
        let mut best: Option<(Strategy, f64)> = None;
        let mut measured = std::collections::HashMap::new();
        for strategy in Strategy::ALL {
            let (us, _, recall) =
                measure_strategy(&ctx, &w.queries, &pred, strategy, &params, &oracle);
            measured.insert(strategy, (us, recall));
            if recall >= 0.9 && best.is_none_or(|(_, b)| us < b) {
                best = Some((strategy, us));
            }
        }
        let (oracle_strategy, oracle_us) = best.expect("some strategy reaches 0.9 recall");
        for mode in [PlannerMode::RuleBased, PlannerMode::CostBased] {
            let planner = Planner::new(mode);
            let q = VectorQuery::knn(w.queries.get(0).to_vec(), GT_K)
                .filtered(pred.clone())
                .with_params(params.clone());
            let plan = planner.plan(&ctx, &q);
            let (us, recall) = measured[&plan.strategy];
            rows.push(vec![
                label.to_string(),
                format!("{mode:?}")
                    .split('(')
                    .next()
                    .unwrap_or("?")
                    .to_string(),
                plan.strategy.name().to_string(),
                fmt(us, 0),
                oracle_strategy.name().to_string(),
                fmt(oracle_us, 0),
                fmt(us / oracle_us, 2),
                fmt(recall, 3),
            ]);
        }
    }
    print_table(
        "T3: plan selection quality (chosen vs oracle-best at recall >= 0.9)",
        &[
            "selectivity",
            "planner",
            "chosen",
            "chosen_us",
            "oracle",
            "oracle_us",
            "ratio",
            "recall",
        ],
        &rows,
    );
    println!("  Expected shape: cost-based stays within a small factor of the oracle\n  across the sweep; rule-based degrades near its fixed thresholds.");
    Ok(())
}

// ---------------------------------------------------------------- H1

/// Topic keywords, one per vector cluster. None is a stopword; each
/// appears in roughly 45% of its home cluster (~5.6% of the corpus), so
/// text evidence is sparse but strongly correlated with the geometry.
const KEYWORDS: [&str; 8] = [
    "quantum", "volcano", "saffron", "glacier", "orchid", "falcon", "granite", "monsoon",
];

/// Filler vocabulary shared by every document (a mix of stopwords and
/// generic content words) so BM25 has realistic document lengths and
/// term-frequency noise to contend with.
const FILLER: [&str; 16] = [
    "the", "report", "covers", "annual", "data", "from", "field", "survey", "notes", "on",
    "regional", "samples", "with", "summary", "tables", "appendix",
];

/// H1: hybrid text+vector fusion vs vector-only search on a
/// keyword-skewed workload.
///
/// Relevance is *keyword-restricted*: the ground truth for a query is
/// the exact top-k by distance **among documents mentioning the query
/// keyword**. Vector-only search cannot see the keyword, so it spends
/// its k on geometrically-near documents that never mention it; any
/// fusion strategy that consults the inverted index should recover
/// recall at comparable latency. This is the end-to-end acceptance
/// experiment for the hybrid subsystem (DESIGN.md §15).
pub fn h1_text_fusion(scale: Scale) -> Result<()> {
    use vdb::{CollectionSchema, Fusion, HybridStrategy, IndexSpec, SystemProfile, Vdbms};
    use vdb_core::attr::{AttrType, AttrValue};
    use vdb_core::dataset;
    use vdb_core::rng::Rng;

    let n = scale.n();
    let dim = scale.dim();
    let mut rng = Rng::seed_from_u64(0xB25);
    let data = dataset::clustered(n, dim, KEYWORDS.len(), 0.8, &mut rng);

    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection(
        CollectionSchema::new("docs", dim, Metric::Euclidean)
            .column("text", AttrType::Str)
            .text_index("text"),
        IndexSpec::parse("hnsw")?,
    )?;

    // Synthesise the corpus: every document gets ~10 filler words; 45%
    // of each cluster's documents also mention the cluster's keyword.
    let mut has_kw: Vec<Option<usize>> = Vec::with_capacity(n);
    {
        let col = db.collection_mut("docs")?;
        for (i, v) in data.vectors.iter().enumerate() {
            let cluster = data.assignments[i];
            let mut words: Vec<&str> = (0..10).map(|_| FILLER[rng.below(FILLER.len())]).collect();
            let tagged = rng.f64() < 0.45;
            if tagged {
                let at = rng.below(words.len() + 1);
                words.insert(at, KEYWORDS[cluster]);
            }
            has_kw.push(tagged.then_some(cluster));
            let text = words.join(" ");
            col.insert(i as u64, v, &[("text", AttrValue::Str(text))])?;
        }
        // Fold the tail of the update buffer into the main segment so the
        // measurement sees steady-state (indexed) serving, not the
        // brute-force buffer scan.
        col.merge()?;
    }

    // Queries: a perturbed cluster member plus that cluster's keyword.
    let nq = scale.queries();
    let mut queries: Vec<(Vec<f32>, usize)> = Vec::with_capacity(nq);
    for qi in 0..nq {
        let cluster = qi % KEYWORDS.len();
        let member = loop {
            let i = rng.below(n);
            if data.assignments[i] == cluster {
                break i;
            }
        };
        let qv: Vec<f32> = data
            .vectors
            .get(member)
            .iter()
            .map(|x| x + 0.05 * rng.f32_range(-1.0, 1.0))
            .collect();
        queries.push((qv, cluster));
    }

    // Exact keyword-restricted oracle.
    let oracle: Vec<Vec<u64>> = queries
        .iter()
        .map(|(qv, cluster)| {
            let mut scored: Vec<(f32, u64)> = (0..n)
                .filter(|&i| has_kw[i] == Some(*cluster))
                .map(|i| {
                    let d: f32 = data
                        .vectors
                        .get(i)
                        .iter()
                        .zip(qv)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    (d, i as u64)
                })
                .collect();
            scored.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            scored.into_iter().take(GT_K).map(|(_, k)| k).collect()
        })
        .collect();

    let col = db.collection("docs")?;
    let params = SearchParams::default().with_beam_width(96);
    let fusion = Fusion::Rrf { k0: 60 };
    let recall_of = |got: &[u64], truth: &[u64]| -> (usize, usize) {
        let oset: std::collections::HashSet<u64> = truth.iter().copied().collect();
        (got.iter().filter(|k| oset.contains(k)).count(), oset.len())
    };

    let mut rows = Vec::new();

    // Baseline: vector-only, blind to the keyword.
    {
        let start = Instant::now();
        let (mut hit, mut truth) = (0usize, 0usize);
        for (qi, (qv, _)) in queries.iter().enumerate() {
            let hits = col.search(qv, GT_K, &params)?;
            let got: Vec<u64> = hits.iter().map(|h| h.key).collect();
            let (h, t) = recall_of(&got, &oracle[qi]);
            hit += h;
            truth += t;
        }
        let total = start.elapsed().as_secs_f64();
        rows.push(vec![
            "vector_only".to_string(),
            fmt(total * 1e6 / nq as f64, 0),
            fmt(nq as f64 / total, 0),
            fmt(hit as f64 / truth.max(1) as f64, 3),
        ]);
    }

    // Every forced fusion strategy, then the planner's own choice.
    let modes: [(&str, Option<HybridStrategy>); 4] = [
        ("text_first", Some(HybridStrategy::TextFirst)),
        ("vector_first", Some(HybridStrategy::VectorFirst)),
        ("fused", Some(HybridStrategy::Fused)),
        ("auto", None),
    ];
    for (label, strategy) in modes {
        let start = Instant::now();
        let (mut hit, mut truth) = (0usize, 0usize);
        for (qi, (qv, cluster)) in queries.iter().enumerate() {
            let result = col.hybrid_text_search(
                qv,
                KEYWORDS[*cluster],
                GT_K,
                &Predicate::True,
                fusion,
                strategy,
                &params,
            )?;
            let got: Vec<u64> = result.hits.iter().map(|h| h.key).collect();
            let (h, t) = recall_of(&got, &oracle[qi]);
            hit += h;
            truth += t;
        }
        let total = start.elapsed().as_secs_f64();
        rows.push(vec![
            label.to_string(),
            fmt(total * 1e6 / nq as f64, 0),
            fmt(nq as f64 / total, 0),
            fmt(hit as f64 / truth.max(1) as f64, 3),
        ]);
    }

    print_table(
        &format!("H1: hybrid fusion vs vector-only on keyword-skewed relevance (RRF k0=60, n={n})"),
        &["mode", "latency_us", "qps", "recall@10"],
        &rows,
    );
    println!(
        "  Relevance is keyword-restricted: vector-only wastes its k on near\n  \
         documents without the keyword. vector_first recovers recall by\n  \
         re-ranking its ANN pool with BM25 evidence; text_first suffers when\n  \
         tf=1 ties make its BM25 candidate pool arbitrary at this selectivity\n  \
         (auto follows the cost model, which prices scans, not tie quality)."
    );
    Ok(())
}
