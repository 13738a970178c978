//! Plan enumeration and selection (§2.3).
//!
//! Three planner modes mirror the systems the paper surveys:
//!
//! - **Fixed** — one predefined plan per query type (Vearch post-filters,
//!   Weaviate pre-filters),
//! - **Rule-based** — selectivity thresholds decide pre/post/single-stage
//!   (Qdrant, Vespa),
//! - **Cost-based** — a linear model aggregates per-operator CPU cost in
//!   distance-evaluation units and picks the cheapest plan (AnalyticDB-V,
//!   Milvus).

use crate::exec::{HybridStrategy, QueryContext};
use crate::plan::{PhysicalPlan, Strategy, VectorQuery};
use crate::selectivity;

/// Planner mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannerMode {
    /// Always run the given strategy (predefined-plan systems).
    Fixed(Strategy),
    /// Threshold rules on estimated selectivity.
    RuleBased,
    /// Linear cost model over the enumerated strategies.
    CostBased,
}

/// Tunable constants of the cost model, in units of one distance
/// evaluation.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cost of evaluating the attribute predicate on one row.
    pub predicate_eval: f64,
    /// Effective out-degree assumed for graph traversal.
    pub graph_degree: f64,
    /// Fixed per-query overhead of an index probe (entry descent, table
    /// hashing, centroid ranking).
    pub probe_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            predicate_eval: 0.1,
            graph_degree: 16.0,
            probe_overhead: 32.0,
        }
    }
}

impl CostModel {
    /// Estimated cost of one unconstrained index search returning `k`.
    fn index_search_cost(&self, ctx: &QueryContext<'_>, q: &VectorQuery, k: usize) -> f64 {
        let n = ctx.vectors.len() as f64;
        match ctx.index.name() {
            "flat" => n,
            name if name.starts_with("ivf") || name == "spann" => {
                // nprobe lists of ~n/nlist rows each, plus centroid ranking.
                let stats = ctx.index.stats();
                let nlist = stats
                    .detail
                    .split_whitespace()
                    .find_map(|t| t.strip_prefix("nlist=").and_then(|v| v.parse::<f64>().ok()))
                    .unwrap_or(64.0);
                let rows_per_list = n / nlist.max(1.0);
                q.params.nprobe as f64 * rows_per_list + nlist
            }
            "lsh" => {
                // Collisions across tables; approximate by n / 2^min(k,12)
                // per table, bounded below by k.
                let per_table = (n / 1024.0).max(k as f64);
                8.0 * per_table
            }
            name if name.contains("tree")
                || name == "annoy"
                || name == "flann"
                || name == "rp_forest" =>
            {
                q.params.max_leaf_points as f64 + self.probe_overhead
            }
            // Graph indexes: beam * degree neighbor evaluations.
            _ => q.params.beam_width.max(k) as f64 * self.graph_degree + self.probe_overhead,
        }
    }

    /// Estimated cost of running `strategy` for `q` given selectivity `s`.
    pub fn strategy_cost(
        &self,
        ctx: &QueryContext<'_>,
        q: &VectorQuery,
        strategy: Strategy,
        s: f64,
    ) -> f64 {
        let n = ctx.vectors.len() as f64;
        let s = s.clamp(1e-6, 1.0);
        match strategy {
            // Predicate on every row, distance on every row.
            Strategy::BruteForce => n * self.predicate_eval + n,
            // Predicate on every row, distance only on survivors.
            Strategy::PreFilter => n * self.predicate_eval + s * n,
            // Over-fetch k/s results through the index, then filter them.
            Strategy::PostFilter => {
                let fetch = ((q.k as f64 / s) * 1.3).min(n).max(q.k as f64);
                self.index_search_cost(ctx, q, fetch as usize) + fetch * self.predicate_eval
            }
            // Bitmask on every row + an (unchanged-shape) index scan.
            Strategy::BlockFirst => n * self.predicate_eval + self.index_search_cost(ctx, q, q.k),
            // No bitmask; traversal inflates as selectivity drops.
            Strategy::VisitFirst => {
                let inflation = (1.0 / s).min(16.0);
                self.index_search_cost(ctx, q, q.k) * inflation
                    + q.params.beam_width as f64 * self.predicate_eval * inflation
            }
        }
    }
}

/// The planner.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Selection mode.
    pub mode: PlannerMode,
    /// Cost model used in [`PlannerMode::CostBased`].
    pub cost_model: CostModel,
    /// Rule-based threshold: below this selectivity, pre-filter.
    pub pre_filter_below: f64,
    /// Rule-based threshold: above this selectivity, post-filter.
    pub post_filter_above: f64,
    /// Hybrid rule threshold: below this *text* selectivity, run the
    /// inverted index first and rescore its matches by distance.
    pub text_first_below: f64,
    /// Hybrid rule threshold: above this text selectivity, run the
    /// vector index first and BM25-rescore its matches.
    pub vector_first_above: f64,
}

impl Planner {
    /// A planner in the given mode with default tuning.
    pub fn new(mode: PlannerMode) -> Self {
        Planner {
            mode,
            cost_model: CostModel::default(),
            pre_filter_below: 0.01,
            post_filter_above: 0.30,
            text_first_below: 0.05,
            vector_first_above: 0.50,
        }
    }

    /// Choose a hybrid text + vector strategy from the estimated text
    /// selectivity (fraction of documents matching any query term; see
    /// [`selectivity::text_selectivity`]).
    ///
    /// - **Fixed** mode always runs both retrievers ([`HybridStrategy::Fused`]).
    /// - **Rule-based** applies the `text_first_below` /
    ///   `vector_first_above` thresholds.
    /// - **Cost-based** compares a postings-scan cost (`s·n` + M exact
    ///   distances) against an index-probe cost (M neighbor expansions +
    ///   M term lookups) and hedges with `Fused` when neither wins by 2×.
    pub fn plan_hybrid(&self, n: usize, k: usize, text_selectivity: f64) -> HybridStrategy {
        let s = text_selectivity.clamp(0.0, 1.0);
        match self.mode {
            PlannerMode::Fixed(_) => HybridStrategy::Fused,
            PlannerMode::RuleBased => {
                if s < self.text_first_below {
                    HybridStrategy::TextFirst
                } else if s > self.vector_first_above {
                    HybridStrategy::VectorFirst
                } else {
                    HybridStrategy::Fused
                }
            }
            PlannerMode::CostBased => {
                let m = (4 * k.max(1)).max(32).min(n.max(1)) as f64;
                let text_cost = s * n as f64 + m;
                let vector_cost = self.cost_model.probe_overhead
                    + m * self.cost_model.graph_degree
                    + m * self.cost_model.predicate_eval;
                if text_cost * 2.0 < vector_cost {
                    HybridStrategy::TextFirst
                } else if vector_cost * 2.0 < text_cost {
                    HybridStrategy::VectorFirst
                } else {
                    HybridStrategy::Fused
                }
            }
        }
    }

    /// Enumerate candidate strategies for `q` (§2.3 plan enumeration).
    /// Unpredicated queries have a single sensible plan family.
    pub fn enumerate(&self, q: &VectorQuery) -> Vec<Strategy> {
        if !q.is_hybrid() {
            vec![Strategy::PostFilter] // plain index search
        } else {
            Strategy::ALL.to_vec()
        }
    }

    /// Select a plan for `q` over `ctx`.
    pub fn plan(&self, ctx: &QueryContext<'_>, q: &VectorQuery) -> PhysicalPlan {
        let s = if q.is_hybrid() {
            selectivity::estimate(&q.predicate, ctx.attrs)
        } else {
            1.0
        };
        match self.mode {
            PlannerMode::Fixed(strategy) => PhysicalPlan {
                strategy,
                est_selectivity: s,
                est_cost: self.cost_model.strategy_cost(ctx, q, strategy, s),
            },
            PlannerMode::RuleBased => {
                let strategy = if !q.is_hybrid() {
                    Strategy::PostFilter
                } else if s < self.pre_filter_below {
                    Strategy::PreFilter
                } else if s > self.post_filter_above {
                    Strategy::PostFilter
                } else {
                    Strategy::VisitFirst
                };
                PhysicalPlan {
                    strategy,
                    est_selectivity: s,
                    est_cost: self.cost_model.strategy_cost(ctx, q, strategy, s),
                }
            }
            PlannerMode::CostBased => {
                let (strategy, est_cost) = self
                    .enumerate(q)
                    .into_iter()
                    .map(|st| (st, self.cost_model.strategy_cost(ctx, q, st, s)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("enumeration is non-empty");
                PhysicalPlan {
                    strategy,
                    est_selectivity: s,
                    est_cost,
                }
            }
        }
    }

    /// Plan and execute in one step.
    pub fn run(
        &self,
        ctx: &QueryContext<'_>,
        q: &VectorQuery,
    ) -> vdb_core::error::Result<(PhysicalPlan, Vec<vdb_core::topk::Neighbor>)> {
        vdb_core::context::with_local(|sctx| self.run_with(ctx, sctx, q))
    }

    /// Plan and execute against a caller-managed scratch context.
    pub fn run_with(
        &self,
        ctx: &QueryContext<'_>,
        sctx: &mut vdb_core::context::SearchContext,
        q: &VectorQuery,
    ) -> vdb_core::error::Result<(PhysicalPlan, Vec<vdb_core::topk::Neighbor>)> {
        let plan = self.plan(ctx, q);
        // The estimate the plan was chosen by doubles as the executor's
        // selectivity hint: one estimate per query.
        let out =
            crate::exec::execute_estimated(ctx, sctx, q, plan.strategy, plan.est_selectivity)?;
        Ok((plan, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Predicate;
    use vdb_core::attr::AttrType;
    use vdb_core::dataset;
    use vdb_core::metric::Metric;
    use vdb_core::rng::Rng;
    use vdb_core::vector::Vectors;
    use vdb_index_graph::{HnswConfig, HnswIndex};
    use vdb_storage::{AttributeStore, Column};

    struct Fixture {
        vectors: Vectors,
        attrs: AttributeStore,
        index: HnswIndex,
    }

    fn fixture() -> Fixture {
        // Large enough that index plans genuinely beat linear scans
        // (at a few hundred rows a brute scan really is optimal, and the
        // cost model would rightly pick it).
        let mut rng = Rng::seed_from_u64(101);
        let data = dataset::clustered(4000, 12, 6, 0.5, &mut rng).vectors;
        let mut attrs = AttributeStore::new();
        attrs
            .add_column(
                Column::from_values(
                    "x",
                    AttrType::Int,
                    dataset::int_column(4000, 0, 1000, &mut rng),
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

    #[test]
    fn rule_based_thresholds() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let planner = Planner::new(PlannerMode::RuleBased);
        let q = |cut: i64| {
            VectorQuery::knn(f.vectors.get(0).to_vec(), 10).filtered(Predicate::lt("x", cut))
        };
        assert_eq!(
            planner.plan(&ctx, &q(5)).strategy,
            Strategy::PreFilter,
            "ultra selective"
        );
        assert_eq!(
            planner.plan(&ctx, &q(900)).strategy,
            Strategy::PostFilter,
            "non selective"
        );
        assert_eq!(
            planner.plan(&ctx, &q(100)).strategy,
            Strategy::VisitFirst,
            "mid range"
        );
    }

    #[test]
    fn fixed_mode_never_deviates() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let planner = Planner::new(PlannerMode::Fixed(Strategy::PostFilter));
        for cut in [5i64, 100, 900] {
            let q =
                VectorQuery::knn(f.vectors.get(0).to_vec(), 10).filtered(Predicate::lt("x", cut));
            assert_eq!(planner.plan(&ctx, &q).strategy, Strategy::PostFilter);
        }
    }

    #[test]
    fn cost_based_prefers_prefilter_when_ultra_selective() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let planner = Planner::new(PlannerMode::CostBased);
        let q = VectorQuery::knn(f.vectors.get(0).to_vec(), 10).filtered(Predicate::lt("x", 2));
        let plan = planner.plan(&ctx, &q);
        // With s ~ 0.2%, scanning ~2 rows beats any index plan.
        assert!(
            matches!(plan.strategy, Strategy::PreFilter | Strategy::BruteForce),
            "{:?}",
            plan.strategy
        );
    }

    #[test]
    fn cost_based_avoids_full_scans_when_not_selective() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let planner = Planner::new(PlannerMode::CostBased);
        let q = VectorQuery::knn(f.vectors.get(0).to_vec(), 10).filtered(Predicate::lt("x", 950));
        let plan = planner.plan(&ctx, &q);
        assert!(
            !matches!(plan.strategy, Strategy::PreFilter | Strategy::BruteForce),
            "nearly unselective predicate should use the index, got {:?}",
            plan.strategy
        );
    }

    #[test]
    fn unpredicated_queries_get_index_plan() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        for mode in [PlannerMode::RuleBased, PlannerMode::CostBased] {
            let planner = Planner::new(mode);
            let q = VectorQuery::knn(f.vectors.get(0).to_vec(), 10);
            assert_eq!(planner.plan(&ctx, &q).strategy, Strategy::PostFilter);
        }
    }

    #[test]
    fn run_returns_plan_and_results() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let planner = Planner::new(PlannerMode::CostBased);
        let q = VectorQuery::knn(f.vectors.get(42).to_vec(), 5).filtered(Predicate::lt("x", 500));
        let (plan, out) = planner.run(&ctx, &q).unwrap();
        assert!(plan.est_cost > 0.0);
        assert!(!out.is_empty());
        assert!(out.iter().all(|n| q.predicate.eval(&f.attrs, n.id)));
    }

    #[test]
    fn hybrid_strategy_tracks_text_selectivity() {
        let rule = Planner::new(PlannerMode::RuleBased);
        assert_eq!(
            rule.plan_hybrid(10_000, 10, 0.001),
            HybridStrategy::TextFirst
        );
        assert_eq!(
            rule.plan_hybrid(10_000, 10, 0.9),
            HybridStrategy::VectorFirst
        );
        assert_eq!(rule.plan_hybrid(10_000, 10, 0.2), HybridStrategy::Fused);
        let fixed = Planner::new(PlannerMode::Fixed(Strategy::PostFilter));
        assert_eq!(fixed.plan_hybrid(10_000, 10, 0.001), HybridStrategy::Fused);
        let cost = Planner::new(PlannerMode::CostBased);
        // Rare terms: postings scan is far cheaper than index probes.
        assert_eq!(
            cost.plan_hybrid(100_000, 10, 0.0001),
            HybridStrategy::TextFirst
        );
        // Ubiquitous terms: the postings union is ~the whole corpus.
        assert_eq!(
            cost.plan_hybrid(100_000, 10, 0.95),
            HybridStrategy::VectorFirst
        );
    }

    #[test]
    fn costs_are_positive_and_ordered_sanely() {
        let f = fixture();
        let ctx = QueryContext::new(&f.vectors, &f.attrs, &f.index).unwrap();
        let cm = CostModel::default();
        let q = VectorQuery::knn(f.vectors.get(0).to_vec(), 10).filtered(Predicate::lt("x", 500));
        for st in Strategy::ALL {
            assert!(cm.strategy_cost(&ctx, &q, st, 0.5) > 0.0);
        }
        // Visit-first inflates as selectivity drops.
        assert!(
            cm.strategy_cost(&ctx, &q, Strategy::VisitFirst, 0.01)
                > cm.strategy_cost(&ctx, &q, Strategy::VisitFirst, 0.5)
        );
        // Pre-filter gets cheaper as selectivity drops.
        assert!(
            cm.strategy_cost(&ctx, &q, Strategy::PreFilter, 0.01)
                < cm.strategy_cost(&ctx, &q, Strategy::PreFilter, 0.9)
        );
    }
}
