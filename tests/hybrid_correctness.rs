//! Cross-crate hybrid-query correctness: every strategy on every
//! hybrid-capable index family, validated against the brute-force oracle
//! across predicate selectivities.

use vdb_core::{dataset, AttrType, Metric, Rng, SearchParams, VectorIndex, Vectors};
use vdb_index_graph::{HnswConfig, HnswIndex, VamanaConfig, VamanaIndex};
use vdb_index_table::{IvfConfig, IvfFlatIndex};
use vdb_query::{execute, Predicate, QueryContext, Strategy, VectorQuery};
use vdb_storage::{AttributeStore, Column};

struct Fixture {
    data: Vectors,
    attrs: AttributeStore,
    queries: Vectors,
}

fn fixture() -> Fixture {
    let mut rng = Rng::seed_from_u64(2000);
    let data = dataset::clustered(3000, 16, 12, 0.5, &mut rng).vectors;
    let queries = dataset::split_queries(&data, 15, 0.05, &mut rng);
    let mut attrs = AttributeStore::new();
    attrs
        .add_column(
            Column::from_values(
                "v",
                AttrType::Int,
                dataset::int_column(3000, 0, 1000, &mut rng),
            )
            .unwrap(),
        )
        .unwrap();
    Fixture {
        data,
        attrs,
        queries,
    }
}

fn indexes(data: &Vectors) -> Vec<Box<dyn VectorIndex>> {
    vec![
        Box::new(
            IvfFlatIndex::build(data.clone(), Metric::Euclidean, &IvfConfig::new(24), &()).unwrap(),
        ),
        Box::new(HnswIndex::build(data.clone(), Metric::Euclidean, HnswConfig::default()).unwrap()),
        Box::new(
            VamanaIndex::build(data.clone(), Metric::Euclidean, VamanaConfig::default()).unwrap(),
        ),
    ]
}

#[test]
fn strategies_never_violate_predicates_and_recall_holds_mid_selectivity() {
    let f = fixture();
    let params = SearchParams::default().with_beam_width(128).with_nprobe(24);
    // Mid selectivity (~30%): every strategy should work well here.
    let pred = Predicate::lt("v", 300);
    for index in indexes(&f.data) {
        let ctx = QueryContext::new(&f.data, &f.attrs, index.as_ref()).unwrap();
        for qv in f.queries.iter() {
            let q = VectorQuery::knn(qv.to_vec(), 10)
                .filtered(pred.clone())
                .with_params(params.clone());
            let oracle = execute(&ctx, &q, Strategy::BruteForce).unwrap();
            let oset: std::collections::HashSet<usize> = oracle.iter().map(|n| n.id).collect();
            for strategy in Strategy::ALL {
                let out = execute(&ctx, &q, strategy).unwrap();
                assert!(
                    out.iter().all(|n| pred.eval(&f.attrs, n.id)),
                    "{}/{}: predicate violated",
                    index.name(),
                    strategy.name()
                );
                let hits = out.iter().filter(|n| oset.contains(&n.id)).count();
                assert!(
                    hits as f64 / oset.len() as f64 >= 0.6,
                    "{}/{}: recall {hits}/{}",
                    index.name(),
                    strategy.name(),
                    oset.len()
                );
            }
        }
    }
}

#[test]
fn extreme_selectivities_are_safe() {
    let f = fixture();
    let params = SearchParams::default().with_beam_width(128).with_nprobe(24);
    for index in indexes(&f.data) {
        let ctx = QueryContext::new(&f.data, &f.attrs, index.as_ref()).unwrap();
        // ~0.5% selectivity: results may be scarce but never wrong, and
        // exact strategies must find whatever exists.
        let narrow = Predicate::lt("v", 5);
        let q = VectorQuery::knn(f.queries.get(0).to_vec(), 10)
            .filtered(narrow.clone())
            .with_params(params.clone());
        let oracle = execute(&ctx, &q, Strategy::BruteForce).unwrap();
        for strategy in Strategy::ALL {
            let out = execute(&ctx, &q, strategy).unwrap();
            assert!(out.iter().all(|n| narrow.eval(&f.attrs, n.id)));
            assert!(out.len() <= oracle.len());
        }
        // Predicate matching nothing.
        let none = Predicate::lt("v", -1);
        let q = VectorQuery::knn(f.queries.get(0).to_vec(), 5).filtered(none);
        for strategy in Strategy::ALL {
            assert!(
                execute(&ctx, &q, strategy).unwrap().is_empty(),
                "{}",
                strategy.name()
            );
        }
        // Predicate matching everything equals the unpredicated search for
        // the exact strategies.
        let all = Predicate::lt("v", 10_000);
        let q_all = VectorQuery::knn(f.queries.get(1).to_vec(), 10)
            .filtered(all)
            .with_params(params.clone());
        let q_plain = VectorQuery::knn(f.queries.get(1).to_vec(), 10).with_params(params.clone());
        let a = execute(&ctx, &q_all, Strategy::BruteForce).unwrap();
        let b = execute(&ctx, &q_plain, Strategy::BruteForce).unwrap();
        assert_eq!(a, b);
    }
}

#[test]
fn planner_choices_execute_correctly_across_the_sweep() {
    let f = fixture();
    let params = SearchParams::default().with_beam_width(96).with_nprobe(16);
    let index = HnswIndex::build(f.data.clone(), Metric::Euclidean, HnswConfig::default()).unwrap();
    let ctx = QueryContext::new(&f.data, &f.attrs, &index).unwrap();
    for mode in [
        vdb_query::PlannerMode::RuleBased,
        vdb_query::PlannerMode::CostBased,
        vdb_query::PlannerMode::Fixed(Strategy::PostFilter),
    ] {
        let planner = vdb_query::Planner::new(mode);
        for cut in [5i64, 50, 300, 900] {
            let pred = Predicate::lt("v", cut);
            let q = VectorQuery::knn(f.queries.get(2).to_vec(), 10)
                .filtered(pred.clone())
                .with_params(params.clone());
            let (plan, out) = planner.run(&ctx, &q).unwrap();
            assert!(plan.est_cost.is_finite() && plan.est_cost > 0.0);
            assert!(out.iter().all(|n| pred.eval(&f.attrs, n.id)));
        }
    }
}

// ---------------------------------------------------------------------
// The compiled filter path against the interpreted `Predicate::eval`.

const BIG: i64 = 1 << 53;

/// Values that stress the comparison rules: duplicates, nulls, NaN,
/// signed zeros, infinities, and integers past 2^53 where `i64 as f64`
/// rounds.
fn awkward_store(n: usize) -> AttributeStore {
    use vdb_core::AttrValue::{Float, Int, Null};
    let mut rng = Rng::seed_from_u64(53);
    let ints = [
        Null,
        Int(0),
        Int(-1),
        Int(7),
        Int(7),
        Int(BIG - 1),
        Int(BIG),
        Int(BIG + 1),
        Int(BIG + 2),
        Int(-BIG - 1),
        Int(i64::MAX),
        Int(i64::MIN),
    ];
    let floats = [
        Null,
        Float(f64::NAN),
        Float(0.0),
        Float(-0.0),
        Float(0.5),
        Float(7.0),
        Float(-2.25),
        Float(BIG as f64),
        Float(f64::INFINITY),
        Float(f64::NEG_INFINITY),
    ];
    let mut int_col = Vec::with_capacity(n);
    let mut float_col = Vec::with_capacity(n);
    let mut tag_col = Vec::with_capacity(n);
    for _ in 0..n {
        int_col.push(if rng.chance(0.5) {
            rng.choose(&ints).clone()
        } else {
            Int(rng.range(0, 40) as i64 - 20)
        });
        float_col.push(if rng.chance(0.5) {
            rng.choose(&floats).clone()
        } else {
            Float(rng.f64() * 40.0 - 20.0)
        });
        tag_col.push(vdb_core::AttrValue::Str(format!("t{}", rng.below(4))));
    }
    let mut s = AttributeStore::new();
    for (name, ty, values) in [
        ("i", AttrType::Int, int_col),
        ("f", AttrType::Float, float_col),
        ("tag", AttrType::Str, tag_col),
    ] {
        s.add_column(Column::from_values(name, ty, values).unwrap())
            .unwrap();
    }
    s
}

fn literals() -> Vec<vdb_core::AttrValue> {
    use vdb_core::AttrValue::{Float, Int, Null, Str};
    vec![
        Int(0),
        Int(7),
        Int(-20),
        Int(BIG),
        Int(BIG + 1),
        Int(i64::MAX),
        Int(i64::MIN),
        Float(0.0),
        Float(-0.0),
        Float(0.5),
        Float(7.0),
        Float(BIG as f64),
        Float(9_007_199_254_740_993.0), // rounds to 2^53
        Float(f64::NAN),
        Float(f64::INFINITY),
        Float(f64::NEG_INFINITY),
        Null,
        Str("7".into()),
    ]
}

fn interpreted_matches(p: &Predicate, s: &AttributeStore) -> Vec<usize> {
    (0..s.rows()).filter(|&r| p.eval(s, r)).collect()
}

fn compiled_matches(p: &Predicate, s: &AttributeStore) -> Vec<usize> {
    let mut rows = Vec::new();
    vdb_query::CompiledPredicate::compile(p, s)
        .unwrap()
        .for_each_match(|r| rows.push(r));
    rows.sort_unstable();
    rows
}

#[test]
fn sorted_run_range_filters_match_the_interpreted_predicate() {
    use vdb_query::CmpOp;
    let s = awkward_store(600);
    let lits = literals();
    let mut preds = Vec::new();
    for column in ["i", "f"] {
        for value in &lits {
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                preds.push(Predicate::Cmp {
                    column: column.into(),
                    op,
                    value: value.clone(),
                });
            }
            for hi in &lits {
                preds.push(Predicate::Between {
                    column: column.into(),
                    lo: value.clone(),
                    hi: hi.clone(),
                });
            }
        }
    }
    // Shapes that stay compiled scans.
    preds.push(Predicate::lt("i", 5).and(Predicate::eq("tag", "t1")));
    preds.push(Predicate::gt("f", -3.0).and(Predicate::lt("i", BIG + 1)));
    preds.push(Predicate::lt("f", 0.5).or(Predicate::IsNull { column: "i".into() }));
    preds.push(Predicate::Not(Box::new(Predicate::gt("i", 0))));
    for p in &preds {
        let want = interpreted_matches(p, &s);
        assert_eq!(compiled_matches(p, &s), want, "{p}");
        let bits = p.bitmask(&s).unwrap();
        assert_eq!(bits.iter().collect::<Vec<_>>(), want, "{p}");
        let exact = p.exact_selectivity(&s).unwrap();
        assert_eq!(exact, want.len() as f64 / s.rows() as f64, "{p}");
    }
}

/// The old operators, evaluating the predicate row by row through
/// `Predicate::eval`: what every strategy returned before the compiled
/// path, kept here as the reference.
fn interpreted_strategy(
    index: &dyn VectorIndex,
    data: &Vectors,
    attrs: &AttributeStore,
    q: &VectorQuery,
    strategy: Strategy,
) -> Vec<vdb_core::Neighbor> {
    use vdb_core::topk::TopK;
    struct Interpreted<'a> {
        p: &'a Predicate,
        attrs: &'a AttributeStore,
        hint: f64,
    }
    impl vdb_core::RowFilter for Interpreted<'_> {
        fn accept(&self, id: usize) -> bool {
            self.p.eval(self.attrs, id)
        }
        fn selectivity_hint(&self) -> Option<f64> {
            Some(self.hint)
        }
    }
    let p = &q.predicate;
    let filter = Interpreted {
        p,
        attrs,
        hint: vdb_query::selectivity::estimate(p, attrs),
    };
    let metric = index.metric();
    vdb_core::context::with_local(|sctx| match strategy {
        Strategy::BruteForce | Strategy::PreFilter => {
            let mut pool = TopK::new(q.k);
            for (row, v) in data.iter().enumerate() {
                if p.eval(attrs, row) {
                    pool.push(vdb_core::Neighbor::new(row, metric.distance(&q.vector, v)));
                }
            }
            pool.into_sorted()
        }
        Strategy::BlockFirst => {
            let mut bits = vdb_core::bitset::BitSet::new(attrs.rows());
            for row in interpreted_matches(p, attrs) {
                bits.insert(row);
            }
            index
                .search_blocked_with(sctx, &q.vector, q.k, &q.params, &bits)
                .unwrap()
        }
        Strategy::VisitFirst => index
            .search_filtered_with(sctx, &q.vector, q.k, &q.params, &filter)
            .unwrap(),
        Strategy::PostFilter => {
            let n = data.len();
            let mut fetch = ((q.k as f32 * q.params.overfetch).ceil() as usize).clamp(q.k, n);
            loop {
                let cands = index
                    .search_with(sctx, &q.vector, fetch, &q.params)
                    .unwrap();
                let got = cands.len();
                let mut out: Vec<_> = cands.into_iter().filter(|c| p.eval(attrs, c.id)).collect();
                if out.len() >= q.k || fetch >= n || got < fetch {
                    out.truncate(q.k);
                    return out;
                }
                fetch = (fetch * 2).min(n);
            }
        }
    })
}

fn bits_of(hits: &[vdb_core::Neighbor]) -> Vec<(usize, u32)> {
    hits.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

#[test]
fn every_strategy_is_bit_identical_to_its_interpreted_reference() {
    let mut rng = Rng::seed_from_u64(77);
    let n = 1500;
    let data = dataset::clustered(n, 12, 8, 0.5, &mut rng).vectors;
    let attrs = awkward_store(n);
    let queries = dataset::split_queries(&data, 6, 0.05, &mut rng);
    let preds = [
        Predicate::lt("i", 0),
        Predicate::Cmp {
            column: "i".into(),
            op: vdb_query::CmpOp::Ge,
            value: vdb_core::AttrValue::Int(BIG),
        },
        Predicate::Between {
            column: "f".into(),
            lo: vdb_core::AttrValue::Float(-5.0),
            hi: vdb_core::AttrValue::Int(15),
        },
        Predicate::eq("f", 0.0),
        Predicate::gt("f", f64::NAN),
        Predicate::lt("i", 10).and(Predicate::eq("tag", "t2")),
        Predicate::eq("tag", "t0").or(Predicate::IsNull { column: "f".into() }),
        // Rare enough that the visit-first budget, sized by the
        // planner's estimate, decides how far the graph search goes.
        Predicate::eq("i", BIG + 1),
        Predicate::lt("f", -19.5),
    ];
    let exact = vdb_core::FlatIndex::build(data.clone(), Metric::Euclidean).unwrap();
    let graph = HnswIndex::build(data.clone(), Metric::Euclidean, HnswConfig::default()).unwrap();
    let params = SearchParams::default().with_beam_width(12);
    for index in [&exact as &dyn VectorIndex, &graph] {
        let ctx = QueryContext::new(&data, &attrs, index).unwrap();
        for qv in queries.iter() {
            for p in &preds {
                let q = VectorQuery::knn(qv.to_vec(), 10)
                    .filtered(p.clone())
                    .with_params(params.clone());
                for strategy in Strategy::ALL {
                    let got = execute(&ctx, &q, strategy).unwrap();
                    let want = interpreted_strategy(index, &data, &attrs, &q, strategy);
                    assert_eq!(
                        bits_of(&got),
                        bits_of(&want),
                        "{}/{}: {p}",
                        index.name(),
                        strategy.name()
                    );
                }
                // The planner's own estimate reaches the executor.
                let (plan, got) = vdb_query::Planner::new(vdb_query::PlannerMode::CostBased)
                    .run(&ctx, &q)
                    .unwrap();
                let want = interpreted_strategy(index, &data, &attrs, &q, plan.strategy);
                assert_eq!(bits_of(&got), bits_of(&want), "{}: {p}", index.name());
            }
        }
    }
}
