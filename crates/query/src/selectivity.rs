//! Selectivity estimation from column statistics.
//!
//! The optimizer's rule-based thresholds (Qdrant/Vespa style) and the
//! cost model (AnalyticDB-V/Milvus style) both consume an estimated
//! predicate selectivity. Estimates use textbook heuristics: `1/distinct`
//! for equality, range fraction under a uniformity assumption for
//! inequalities, and independence for conjunction/disjunction. §2.6(3) of
//! the paper notes hybrid cost estimation is an open problem — the
//! estimator's error against exact selectivity is itself measured in
//! experiment T3. The statistics are each column's cached summary, so an
//! estimate costs O(predicate), not a pass over the rows.

use crate::expr::{CmpOp, Predicate};
use crate::text::TextIndex;
use vdb_core::attr::AttrValue;
use vdb_storage::{AttributeStore, ColumnStats};

/// Default selectivity for predicates we cannot reason about.
const DEFAULT_SEL: f64 = 0.33;

/// Estimate the selectivity of `pred` over `store` in `[0, 1]`.
pub fn estimate(pred: &Predicate, store: &AttributeStore) -> f64 {
    let s = match pred {
        Predicate::True => 1.0,
        Predicate::Cmp { column, op, value } => store
            .column(column)
            .map(|c| estimate_cmp(c.stats(), *op, value, store.rows()))
            .unwrap_or(DEFAULT_SEL),
        Predicate::In { column, values } => store
            .column(column)
            .map(|c| {
                let eq = eq_selectivity(c.stats(), store.rows());
                (eq * values.len() as f64).min(1.0)
            })
            .unwrap_or(DEFAULT_SEL),
        Predicate::Between { column, lo, hi } => store
            .column(column)
            .map(|c| range_fraction(c.stats(), lo, hi).unwrap_or(DEFAULT_SEL))
            .unwrap_or(DEFAULT_SEL),
        Predicate::IsNull { column } => store
            .column(column)
            .map(|c| {
                let st = c.stats();
                let total = st.non_null + st.nulls;
                if total == 0 {
                    0.0
                } else {
                    st.nulls as f64 / total as f64
                }
            })
            .unwrap_or(DEFAULT_SEL),
        Predicate::And(ps) => ps.iter().map(|p| estimate(p, store)).product(),
        Predicate::Or(ps) => {
            // Independence: 1 - prod(1 - s_i).
            1.0 - ps.iter().map(|p| 1.0 - estimate(p, store)).product::<f64>()
        }
        Predicate::Not(p) => 1.0 - estimate(p, store),
    };
    s.clamp(0.0, 1.0)
}

/// Estimate the fraction of documents matching *any* term of a text
/// query, from the inverted index's document frequencies under an
/// independence assumption (`1 - Π(1 - df_i/N)`). This grounds the
/// planner's hybrid strategy choice: a query of rare terms touches a
/// short postings union (text-first wins), a query of ubiquitous terms
/// matches nearly everything (vector-first wins).
pub fn text_selectivity(index: &TextIndex, query: &str) -> f64 {
    let n = index.n_docs();
    if n == 0 {
        return 0.0;
    }
    let terms = index.query_terms(query);
    if terms.is_empty() {
        return 0.0;
    }
    let miss: f64 = terms
        .iter()
        .map(|(t, _)| 1.0 - index.df(t) as f64 / n as f64)
        .product();
    (1.0 - miss).clamp(0.0, 1.0)
}

fn eq_selectivity(stats: &ColumnStats, rows: usize) -> f64 {
    if rows == 0 || stats.distinct == 0 {
        0.0
    } else {
        (stats.non_null as f64 / rows as f64) / stats.distinct as f64
    }
}

fn estimate_cmp(stats: &ColumnStats, op: CmpOp, value: &AttrValue, rows: usize) -> f64 {
    let non_null_frac = if rows == 0 {
        0.0
    } else {
        stats.non_null as f64 / rows as f64
    };
    match op {
        CmpOp::Eq => eq_selectivity(stats, rows),
        CmpOp::Ne => (non_null_frac - eq_selectivity(stats, rows)).max(0.0),
        CmpOp::Lt | CmpOp::Le => below_fraction(stats, op, value)
            .map(|f| f * non_null_frac)
            .unwrap_or(DEFAULT_SEL),
        // `x > v` is the complement of `x <= v`, `x >= v` of `x < v`.
        CmpOp::Gt => below_fraction(stats, CmpOp::Le, value)
            .map(|f| (1.0 - f) * non_null_frac)
            .unwrap_or(DEFAULT_SEL),
        CmpOp::Ge => below_fraction(stats, CmpOp::Lt, value)
            .map(|f| (1.0 - f) * non_null_frac)
            .unwrap_or(DEFAULT_SEL),
    }
}

/// Fraction of the non-null values `x` with `x op value`, `op` being `<`
/// or `<=`, assuming a uniform distribution over [min, max]. Strictness
/// only matters on a single-valued column, where the answer is exactly 0
/// or 1. `None` when the column is non-numeric or empty.
fn below_fraction(stats: &ColumnStats, op: CmpOp, value: &AttrValue) -> Option<f64> {
    debug_assert!(matches!(op, CmpOp::Lt | CmpOp::Le), "{op}");
    let lo = as_f64(stats.min.as_ref()?)?;
    let hi = as_f64(stats.max.as_ref()?)?;
    let v = as_f64(value)?;
    if hi <= lo {
        let below = if op == CmpOp::Lt { hi < v } else { hi <= v };
        return Some(if below { 1.0 } else { 0.0 });
    }
    Some(((v - lo) / (hi - lo)).clamp(0.0, 1.0))
}

/// `lo <= x <= hi`: everything `<= hi` minus everything `< lo`.
fn range_fraction(stats: &ColumnStats, lo: &AttrValue, hi: &AttrValue) -> Option<f64> {
    let below_hi = below_fraction(stats, CmpOp::Le, hi)?;
    let below_lo = below_fraction(stats, CmpOp::Lt, lo)?;
    Some((below_hi - below_lo).max(0.0))
}

fn as_f64(v: &AttrValue) -> Option<f64> {
    match v {
        AttrValue::Int(i) => Some(*i as f64),
        AttrValue::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::attr::AttrType;
    use vdb_core::dataset;
    use vdb_core::rng::Rng;
    use vdb_storage::Column;

    fn uniform_store(n: usize) -> AttributeStore {
        let mut rng = Rng::seed_from_u64(1);
        let mut s = AttributeStore::new();
        s.add_column(
            Column::from_values("x", AttrType::Int, dataset::int_column(n, 0, 100, &mut rng))
                .unwrap(),
        )
        .unwrap();
        s.add_column(
            Column::from_values(
                "cat",
                AttrType::Str,
                dataset::zipf_category_column(n, 10, 0.0, &mut rng), // uniform categories
            )
            .unwrap(),
        )
        .unwrap();
        s
    }

    #[test]
    fn range_estimates_close_to_exact_on_uniform_data() {
        let s = uniform_store(5000);
        for v in [10i64, 50, 90] {
            let p = Predicate::lt("x", v);
            let est = estimate(&p, &s);
            let exact = p.exact_selectivity(&s).unwrap();
            assert!(
                (est - exact).abs() < 0.05,
                "x < {v}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn equality_uses_distinct_count() {
        let s = uniform_store(5000);
        let p = Predicate::eq("cat", "cat_3");
        let est = estimate(&p, &s);
        let exact = p.exact_selectivity(&s).unwrap();
        assert!((est - exact).abs() < 0.05, "est {est} vs exact {exact}");
    }

    #[test]
    fn conjunction_multiplies() {
        let s = uniform_store(5000);
        let p = Predicate::lt("x", 50).and(Predicate::eq("cat", "cat_0"));
        let est = estimate(&p, &s);
        let expected =
            estimate(&Predicate::lt("x", 50), &s) * estimate(&Predicate::eq("cat", "cat_0"), &s);
        assert!((est - expected).abs() < 1e-12);
    }

    #[test]
    fn negation_and_disjunction() {
        let s = uniform_store(2000);
        let p = Predicate::lt("x", 30);
        let not_p = Predicate::Not(Box::new(p.clone()));
        assert!((estimate(&p, &s) + estimate(&not_p, &s) - 1.0).abs() < 1e-9);
        let or = p.clone().or(Predicate::gt("x", 70));
        let est = estimate(&or, &s);
        assert!(est > estimate(&p, &s), "OR must not shrink selectivity");
        assert!(est < 1.0);
    }

    #[test]
    fn estimates_always_in_unit_interval() {
        let s = uniform_store(100);
        let preds = [
            Predicate::True,
            Predicate::eq("x", 5),
            Predicate::lt("x", -100),
            Predicate::gt("x", 10_000),
            Predicate::IsNull { column: "x".into() },
            Predicate::eq("missing_column", 1),
            Predicate::In {
                column: "cat".into(),
                values: (0..50)
                    .map(|i| AttrValue::Str(format!("cat_{i}")))
                    .collect(),
            },
        ];
        for p in preds {
            let e = estimate(&p, &s);
            assert!((0.0..=1.0).contains(&e), "{p}: {e}");
        }
    }

    #[test]
    fn text_selectivity_matches_exact_document_frequency() {
        let mut ix = TextIndex::new();
        for i in 0..100 {
            // "common" in every doc, "rare" in 5%, "unique" in one.
            let mut d = String::from("common filler words");
            if i % 20 == 0 {
                d.push_str(" rare");
            }
            if i == 42 {
                d.push_str(" unique");
            }
            ix.push_doc(&d);
        }
        assert_eq!(text_selectivity(&ix, "common"), 1.0);
        assert!((text_selectivity(&ix, "rare") - 0.05).abs() < 1e-9);
        assert!((text_selectivity(&ix, "unique") - 0.01).abs() < 1e-9);
        assert_eq!(text_selectivity(&ix, "absent"), 0.0);
        assert_eq!(text_selectivity(&ix, ""), 0.0);
        // Union of independent terms ≥ each alone, ≤ their sum.
        let both = text_selectivity(&ix, "rare unique");
        assert!((0.05..=0.06 + 1e-9).contains(&both), "{both}");
        assert_eq!(text_selectivity(&TextIndex::new(), "anything"), 0.0);
    }

    #[test]
    fn single_valued_column_respects_strictness() {
        let mut s = AttributeStore::new();
        s.add_column(Column::from_values("x", AttrType::Int, vec![AttrValue::Int(7); 50]).unwrap())
            .unwrap();
        let cmp = |op, v: i64| Predicate::Cmp {
            column: "x".into(),
            op,
            value: AttrValue::Int(v),
        };
        let between = |lo: i64, hi: i64| Predicate::Between {
            column: "x".into(),
            lo: AttrValue::Int(lo),
            hi: AttrValue::Int(hi),
        };
        for p in [
            cmp(CmpOp::Lt, 7),
            cmp(CmpOp::Le, 7),
            cmp(CmpOp::Gt, 7),
            cmp(CmpOp::Ge, 7),
            cmp(CmpOp::Lt, 8),
            cmp(CmpOp::Ge, 8),
            cmp(CmpOp::Gt, 6),
            cmp(CmpOp::Le, 6),
            between(7, 7),
            between(0, 6),
            between(8, 9),
        ] {
            let exact = p.exact_selectivity(&s).unwrap();
            assert!(exact == 0.0 || exact == 1.0);
            assert_eq!(estimate(&p, &s), exact, "{p}");
        }
    }

    #[test]
    fn out_of_range_constants_saturate() {
        let s = uniform_store(1000);
        assert_eq!(estimate(&Predicate::lt("x", -5), &s), 0.0);
        let all = estimate(&Predicate::lt("x", 1000), &s);
        assert!(all > 0.95);
    }
}
