//! Physical operators for (hybrid) vector queries (§2.3).

use crate::compiled::CompiledPredicate;
use crate::plan::{Strategy, VectorQuery};
use crate::selectivity;
use vdb_core::context::{self, SearchContext};
use vdb_core::error::{Error, Result};
use vdb_core::index::VectorIndex;
use vdb_core::metric::Metric;
use vdb_core::topk::Neighbor;
use vdb_core::vector::Vectors;
use vdb_storage::AttributeStore;

/// Everything an operator needs to run: raw vectors (for exact scans),
/// attributes (for predicates), and the search index.
pub struct QueryContext<'a> {
    /// The raw vector collection (row ids align with the index).
    pub vectors: &'a Vectors,
    /// The attribute store (row-aligned with `vectors`).
    pub attrs: &'a AttributeStore,
    /// The vector index.
    pub index: &'a dyn VectorIndex,
}

impl<'a> QueryContext<'a> {
    /// Construct, validating row alignment.
    pub fn new(
        vectors: &'a Vectors,
        attrs: &'a AttributeStore,
        index: &'a dyn VectorIndex,
    ) -> Result<Self> {
        if attrs.rows() != 0 && attrs.rows() != vectors.len() {
            return Err(Error::InvalidParameter(format!(
                "attribute store has {} rows, vectors {}",
                attrs.rows(),
                vectors.len()
            )));
        }
        if index.len() != vectors.len() {
            return Err(Error::InvalidParameter(format!(
                "index covers {} rows, vectors {}",
                index.len(),
                vectors.len()
            )));
        }
        Ok(QueryContext {
            vectors,
            attrs,
            index,
        })
    }

    fn metric(&self) -> &Metric {
        self.index.metric()
    }
}

/// Execute `query` under an explicitly chosen strategy, using a
/// thread-local scratch context.
pub fn execute(
    ctx: &QueryContext<'_>,
    query: &VectorQuery,
    strategy: Strategy,
) -> Result<Vec<Neighbor>> {
    context::with_local(|sctx| execute_with(ctx, sctx, query, strategy))
}

/// Execute `query` under an explicitly chosen strategy against a
/// caller-managed [`SearchContext`]. Every physical operator — exact scans
/// included — draws its visited set, candidate pools, and buffers from
/// `sctx`, so a reused context runs the whole plan allocation-free.
pub fn execute_with(
    ctx: &QueryContext<'_>,
    sctx: &mut SearchContext,
    query: &VectorQuery,
    strategy: Strategy,
) -> Result<Vec<Neighbor>> {
    let selectivity = if query.is_hybrid() {
        selectivity::estimate(&query.predicate, ctx.attrs)
    } else {
        1.0
    };
    execute_estimated(ctx, sctx, query, strategy, selectivity)
}

/// [`execute_with`] for a predicate whose selectivity is already
/// estimated — the planner hands over the number it planned with.
pub(crate) fn execute_estimated(
    ctx: &QueryContext<'_>,
    sctx: &mut SearchContext,
    query: &VectorQuery,
    strategy: Strategy,
    selectivity: f64,
) -> Result<Vec<Neighbor>> {
    let compiled = if query.is_hybrid() {
        Some(CompiledPredicate::compile(&query.predicate, ctx.attrs)?.with_hint(selectivity))
    } else {
        None
    };
    match (strategy, compiled.as_ref()) {
        (Strategy::BruteForce, filter) => brute_force(ctx, sctx, query, filter),
        (Strategy::PreFilter, filter) => pre_filter(ctx, sctx, query, filter),
        (Strategy::PostFilter, filter) => post_filter(ctx, sctx, query, filter),
        (Strategy::BlockFirst, Some(cp)) => ctx.index.search_blocked_with(
            sctx,
            &query.vector,
            query.k,
            &query.params,
            &cp.bitmask(),
        ),
        (Strategy::VisitFirst, Some(cp)) => {
            ctx.index
                .search_filtered_with(sctx, &query.vector, query.k, &query.params, cp)
        }
        // Without a predicate both are a plain index search.
        (Strategy::BlockFirst | Strategy::VisitFirst, None) => {
            ctx.index
                .search_with(sctx, &query.vector, query.k, &query.params)
        }
    }
}

/// Single-stage exact scan: evaluate the predicate inline, score survivors.
fn brute_force(
    ctx: &QueryContext<'_>,
    sctx: &mut SearchContext,
    query: &VectorQuery,
    filter: Option<&CompiledPredicate<'_>>,
) -> Result<Vec<Neighbor>> {
    check_dims(ctx, query)?;
    let metric = ctx.metric();
    sctx.pool.reset(query.k.max(1));
    for (row, v) in ctx.vectors.iter().enumerate() {
        if filter.is_none_or(|cp| cp.eval(row)) {
            sctx.pool
                .push(Neighbor::new(row, metric.distance(&query.vector, v)));
        }
    }
    let mut out = sctx.pool.drain_sorted();
    out.truncate(query.k);
    Ok(out)
}

/// Pre-filtering: enumerate the match set, then score only those rows.
/// The pool orders by (distance, row), so the result does not depend on
/// the order the matches arrive in.
fn pre_filter(
    ctx: &QueryContext<'_>,
    sctx: &mut SearchContext,
    query: &VectorQuery,
    filter: Option<&CompiledPredicate<'_>>,
) -> Result<Vec<Neighbor>> {
    let Some(cp) = filter else {
        return brute_force(ctx, sctx, query, None);
    };
    check_dims(ctx, query)?;
    let metric = ctx.metric();
    let pool = &mut sctx.pool;
    pool.reset(query.k.max(1));
    cp.for_each_match(|row| {
        pool.push(Neighbor::new(
            row,
            metric.distance(&query.vector, ctx.vectors.get(row)),
        ));
    });
    let mut out = pool.drain_sorted();
    out.truncate(query.k);
    Ok(out)
}

/// Post-filtering: unconstrained ANN search over-fetching `α·k`, filter,
/// and double the fetch if the result set came up short (§2.6(3)).
fn post_filter(
    ctx: &QueryContext<'_>,
    sctx: &mut SearchContext,
    query: &VectorQuery,
    filter: Option<&CompiledPredicate<'_>>,
) -> Result<Vec<Neighbor>> {
    let n = ctx.vectors.len();
    if n == 0 || query.k == 0 {
        return Ok(Vec::new());
    }
    let mut fetch = ((query.k as f32 * query.params.overfetch).ceil() as usize).clamp(query.k, n);
    loop {
        let cands = ctx
            .index
            .search_with(sctx, &query.vector, fetch, &query.params)?;
        let got = cands.len();
        let mut out: Vec<Neighbor> = cands
            .into_iter()
            .filter(|c| filter.is_none_or(|cp| cp.eval(c.id)))
            .collect();
        if out.len() >= query.k || fetch >= n || got < fetch {
            out.truncate(query.k);
            return Ok(out);
        }
        fetch = (fetch * 2).min(n);
    }
}

// ---------------------------------------------------------------------
// Hybrid text + vector fusion operators (§2.3).

/// How BM25 and similarity scores combine into one ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fusion {
    /// Reciprocal rank fusion: `Σ 1/(k0 + rank)` over the two rankings.
    /// Rank-only, so it needs no score normalization.
    Rrf {
        /// Rank damping constant (60 in the original RRF paper).
        k0: u32,
    },
    /// Convex score combination `α·sim + (1-α)·bm25`, both min-max
    /// normalized within the candidate list.
    Convex {
        /// Weight of the vector similarity (`1.0` = vector only).
        alpha: f32,
    },
}

impl Default for Fusion {
    fn default() -> Self {
        Fusion::Rrf { k0: 60 }
    }
}

/// Physical strategy for a hybrid text + vector query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridStrategy {
    /// Run the text index first; compute exact distances only for its
    /// top candidates. Wins when the text predicate is selective.
    TextFirst,
    /// Run the vector index first; BM25-score only its top candidates.
    /// Wins when the text predicate matches most of the corpus.
    VectorFirst,
    /// Run both retrievers to top-M and fuse their union.
    Fused,
}

impl HybridStrategy {
    /// Every strategy, for sweeps.
    pub const ALL: [HybridStrategy; 3] = [
        HybridStrategy::TextFirst,
        HybridStrategy::VectorFirst,
        HybridStrategy::Fused,
    ];

    /// Stable lowercase name (wire format, VQL, harness tables).
    pub fn name(&self) -> &'static str {
        match self {
            HybridStrategy::TextFirst => "text_first",
            HybridStrategy::VectorFirst => "vector_first",
            HybridStrategy::Fused => "fused",
        }
    }

    /// Inverse of [`HybridStrategy::name`].
    pub fn parse(name: &str) -> Option<HybridStrategy> {
        HybridStrategy::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One candidate entering fusion: both component scores attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridCandidate {
    /// External entity key.
    pub key: u64,
    /// Vector distance (lower is better).
    pub dist: f32,
    /// BM25 score (higher is better; 0 when no query term matches).
    pub text_score: f32,
}

/// One fused result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridHit {
    /// External entity key.
    pub key: u64,
    /// Vector distance of the entity.
    pub dist: f32,
    /// BM25 score of the entity.
    pub text_score: f32,
    /// The fused score (higher is better) the ranking is by.
    pub fused: f32,
}

/// Fuse a candidate list into a ranked top-`k`.
///
/// Pure function of the candidate *set*: ranks and normalization bounds
/// are derived internally with total tie-breaks (distance then key, and
/// score then key), so coordinators that re-score the same candidates
/// reproduce single-node fusion exactly.
pub fn fuse(candidates: &[HybridCandidate], fusion: Fusion, k: usize) -> Vec<HybridHit> {
    let mut hits: Vec<HybridHit> = match fusion {
        Fusion::Rrf { k0 } => {
            let mut by_vec: Vec<usize> = (0..candidates.len()).collect();
            by_vec.sort_by(|&a, &b| {
                candidates[a]
                    .dist
                    .total_cmp(&candidates[b].dist)
                    .then(candidates[a].key.cmp(&candidates[b].key))
            });
            let mut by_text: Vec<usize> = (0..candidates.len()).collect();
            by_text.sort_by(|&a, &b| {
                candidates[b]
                    .text_score
                    .total_cmp(&candidates[a].text_score)
                    .then(candidates[a].key.cmp(&candidates[b].key))
            });
            let mut fused = vec![0.0f32; candidates.len()];
            for (rank, &i) in by_vec.iter().enumerate() {
                fused[i] += 1.0 / (k0 as f32 + rank as f32 + 1.0);
            }
            for (rank, &i) in by_text.iter().enumerate() {
                fused[i] += 1.0 / (k0 as f32 + rank as f32 + 1.0);
            }
            candidates
                .iter()
                .zip(fused)
                .map(|(c, f)| HybridHit {
                    key: c.key,
                    dist: c.dist,
                    text_score: c.text_score,
                    fused: f,
                })
                .collect()
        }
        Fusion::Convex { alpha } => {
            let (mut dlo, mut dhi) = (f32::INFINITY, f32::NEG_INFINITY);
            let (mut tlo, mut thi) = (f32::INFINITY, f32::NEG_INFINITY);
            for c in candidates {
                dlo = dlo.min(c.dist);
                dhi = dhi.max(c.dist);
                tlo = tlo.min(c.text_score);
                thi = thi.max(c.text_score);
            }
            candidates
                .iter()
                .map(|c| {
                    // Distances invert (lower = more similar); a
                    // degenerate span means every candidate ties.
                    let sim = if dhi > dlo {
                        (dhi - c.dist) / (dhi - dlo)
                    } else {
                        1.0
                    };
                    let txt = if thi > tlo {
                        (c.text_score - tlo) / (thi - tlo)
                    } else if thi > 0.0 {
                        1.0
                    } else {
                        0.0
                    };
                    HybridHit {
                        key: c.key,
                        dist: c.dist,
                        text_score: c.text_score,
                        fused: alpha * sim + (1.0 - alpha) * txt,
                    }
                })
                .collect()
        }
    };
    hits.sort_by(|a, b| {
        b.fused
            .total_cmp(&a.fused)
            .then(a.dist.total_cmp(&b.dist))
            .then(a.key.cmp(&b.key))
    });
    hits.truncate(k);
    hits
}

fn check_dims(ctx: &QueryContext<'_>, query: &VectorQuery) -> Result<()> {
    if query.vector.len() != ctx.vectors.dim() {
        return Err(Error::DimensionMismatch {
            expected: ctx.vectors.dim(),
            actual: query.vector.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Predicate;
    use vdb_core::attr::AttrType;
    use vdb_core::dataset;
    use vdb_core::index::SearchParams;
    use vdb_core::rng::Rng;
    use vdb_index_graph::{HnswConfig, HnswIndex};
    use vdb_storage::Column;

    struct Fixture {
        vectors: Vectors,
        attrs: AttributeStore,
        index: HnswIndex,
    }

    fn fixture() -> Fixture {
        let mut rng = Rng::seed_from_u64(90);
        let data = dataset::clustered(1200, 12, 8, 0.5, &mut rng).vectors;
        let mut attrs = AttributeStore::new();
        attrs
            .add_column(
                Column::from_values(
                    "price",
                    AttrType::Int,
                    dataset::int_column(1200, 0, 100, &mut rng),
                )
                .unwrap(),
            )
            .unwrap();
        let index =
            HnswIndex::build(data.clone(), Metric::Euclidean, HnswConfig::default()).unwrap();
        Fixture {
            vectors: data,
            attrs,
            index,
        }
    }

    fn hybrid_query(_f: &Fixture, qv: Vec<f32>, cutoff: i64) -> VectorQuery {
        VectorQuery::knn(qv, 10)
            .filtered(Predicate::lt("price", cutoff))
            .with_params(SearchParams::default().with_beam_width(96))
    }

    #[test]
    fn all_strategies_return_only_matching_rows() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let q = hybrid_query(&f, f.vectors.get(3).to_vec(), 50);
        for strategy in Strategy::ALL {
            let out = execute(&ctx, &q, strategy).unwrap();
            assert!(!out.is_empty(), "{} returned nothing", strategy.name());
            for n in &out {
                assert!(
                    q.predicate.eval(&f.attrs, n.id),
                    "{}: row {} violates predicate",
                    strategy.name(),
                    n.id
                );
            }
        }
    }

    #[test]
    fn exact_strategies_agree_and_bound_approximate_ones() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let q = hybrid_query(&f, f.vectors.get(11).to_vec(), 40);
        let brute = execute(&ctx, &q, Strategy::BruteForce).unwrap();
        let pre = execute(&ctx, &q, Strategy::PreFilter).unwrap();
        assert_eq!(brute, pre, "both exact strategies must agree");
        // Approximate strategies achieve decent recall vs the oracle.
        let oracle: std::collections::HashSet<_> = brute.iter().map(|n| n.id).collect();
        for strategy in [
            Strategy::PostFilter,
            Strategy::VisitFirst,
            Strategy::BlockFirst,
        ] {
            let out = execute(&ctx, &q, strategy).unwrap();
            let hits = out.iter().filter(|n| oracle.contains(&n.id)).count();
            assert!(
                hits as f64 / oracle.len() as f64 > 0.5,
                "{}: recall {hits}/{}",
                strategy.name(),
                oracle.len()
            );
        }
    }

    #[test]
    fn unpredicated_queries_work_through_every_strategy() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let q = VectorQuery::knn(f.vectors.get(0).to_vec(), 5)
            .with_params(SearchParams::default().with_beam_width(64));
        for strategy in Strategy::ALL {
            let out = execute(&ctx, &q, strategy).unwrap();
            assert_eq!(
                out[0].id,
                0,
                "{} must find the query point",
                strategy.name()
            );
        }
    }

    #[test]
    fn post_filter_retries_until_k_found() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        // ~5% selectivity with small initial overfetch forces doubling.
        let q = VectorQuery::knn(f.vectors.get(7).to_vec(), 10)
            .filtered(Predicate::lt("price", 5))
            .with_params(
                SearchParams::default()
                    .with_beam_width(256)
                    .with_overfetch(1.0),
            );
        let out = execute(&ctx, &q, Strategy::PostFilter).unwrap();
        assert!(
            out.len() >= 5,
            "doubling should eventually fill most of k, got {}",
            out.len()
        );
    }

    #[test]
    fn selective_predicate_may_return_fewer_than_k() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let q = VectorQuery::knn(f.vectors.get(0).to_vec(), 50).filtered(Predicate::lt("price", 1)); // ~1% of rows
        let out = execute(&ctx, &q, Strategy::BruteForce).unwrap();
        assert!(out.len() < 50);
        assert!(out.iter().all(|n| q.predicate.eval(&f.attrs, n.id)));
    }

    fn fusion_candidates() -> Vec<HybridCandidate> {
        vec![
            HybridCandidate {
                key: 1,
                dist: 0.1,
                text_score: 0.0,
            },
            HybridCandidate {
                key: 2,
                dist: 0.5,
                text_score: 3.0,
            },
            HybridCandidate {
                key: 3,
                dist: 0.9,
                text_score: 5.0,
            },
            HybridCandidate {
                key: 4,
                dist: 0.2,
                text_score: 1.0,
            },
        ]
    }

    #[test]
    fn rrf_fuses_by_rank_and_is_order_independent() {
        let cands = fusion_candidates();
        let fused = fuse(&cands, Fusion::Rrf { k0: 60 }, 4);
        assert_eq!(fused.len(), 4);
        // key 4: vector rank 2, text rank 3 — beats key 1 (ranks 1, 4)?
        // 1/62+1/63 vs 1/61+1/64: compare explicitly instead of guessing.
        let score = |v: u32, t: u32| 1.0 / (60.0 + v as f32) + 1.0 / (60.0 + t as f32);
        let by_key = |k: u64| fused.iter().find(|h| h.key == k).unwrap().fused;
        assert_eq!(by_key(1), score(1, 4));
        assert_eq!(by_key(2), score(3, 2));
        assert_eq!(by_key(3), score(4, 1));
        assert_eq!(by_key(4), score(2, 3));
        // Fusion is a function of the candidate *set*.
        let mut rev = cands.clone();
        rev.reverse();
        assert_eq!(fuse(&rev, Fusion::Rrf { k0: 60 }, 4), fused);
    }

    #[test]
    fn convex_interpolates_between_pure_rankings() {
        let cands = fusion_candidates();
        let vector_only = fuse(&cands, Fusion::Convex { alpha: 1.0 }, 4);
        let keys: Vec<u64> = vector_only.iter().map(|h| h.key).collect();
        assert_eq!(keys, vec![1, 4, 2, 3], "α=1 ranks by distance");
        let text_only = fuse(&cands, Fusion::Convex { alpha: 0.0 }, 4);
        let keys: Vec<u64> = text_only.iter().map(|h| h.key).collect();
        assert_eq!(keys, vec![3, 2, 4, 1], "α=0 ranks by BM25");
        let mixed = fuse(&cands, Fusion::Convex { alpha: 0.5 }, 2);
        assert_eq!(mixed.len(), 2);
        assert!(mixed[0].fused >= mixed[1].fused);
    }

    #[test]
    fn fusion_handles_degenerate_candidate_sets() {
        assert!(fuse(&[], Fusion::default(), 5).is_empty());
        let one = [HybridCandidate {
            key: 9,
            dist: 0.3,
            text_score: 0.0,
        }];
        for f in [Fusion::Rrf { k0: 60 }, Fusion::Convex { alpha: 0.7 }] {
            let out = fuse(&one, f, 5);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].key, 9);
            assert!(out[0].fused.is_finite());
        }
    }

    #[test]
    fn context_validates_alignment() {
        let f = fixture();
        let mut short = AttributeStore::new();
        short
            .add_column(
                Column::from_values("x", AttrType::Int, vec![vdb_core::attr::AttrValue::Int(1)])
                    .unwrap(),
            )
            .unwrap();
        assert!(QueryContext::new(&f.vectors, &short, &f.index).is_err());
    }

    #[test]
    fn unknown_column_rejected_at_execute() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let q = VectorQuery::knn(f.vectors.get(0).to_vec(), 5).filtered(Predicate::eq("nope", 1));
        assert!(execute(&ctx, &q, Strategy::BruteForce).is_err());
    }
}
