//! Compiled predicates: the one way every operator evaluates a predicate.
//!
//! [`Predicate::eval`](crate::expr::Predicate::eval) resolves column names
//! on every row — fine as a test oracle, but visit-first scans call the
//! filter on every *visited* vector, making name resolution the inner
//! loop. [`CompiledPredicate`] binds each column reference to its column
//! up front, so per-row evaluation is pointer-chasing only.
//!
//! It also knows where its matches are. A numeric range leaf
//! (`< <= > >= =`, `BETWEEN`) is answered by two `partition_point`s over
//! the column's sorted run (see [`Column::sorted_rows`]): O(log n) to
//! find, O(matches) to visit. Anything else is a compiled scan.

use crate::expr::{CmpOp, Predicate};
use vdb_core::attr::AttrValue;
use vdb_core::bitset::BitSet;
use vdb_core::error::Result;
use vdb_core::index::RowFilter;
use vdb_storage::{AttributeStore, Column};

enum Node<'a> {
    True,
    Cmp {
        col: &'a Column,
        op: CmpOp,
        value: AttrValue,
    },
    In {
        col: &'a Column,
        values: Vec<AttrValue>,
    },
    Between {
        col: &'a Column,
        lo: AttrValue,
        hi: AttrValue,
    },
    IsNull {
        col: &'a Column,
    },
    And(Vec<Node<'a>>),
    Or(Vec<Node<'a>>),
    Not(Box<Node<'a>>),
}

impl<'a> Node<'a> {
    fn eval(&self, row: usize) -> bool {
        match self {
            Node::True => true,
            Node::Cmp { col, op, value } => op.test(col.get(row).compare(value)),
            Node::In { col, values } => {
                let v = col.get(row);
                values.iter().any(|x| v.loosely_equals(x))
            }
            Node::Between { col, lo, hi } => {
                let v = col.get(row);
                CmpOp::Ge.test(v.compare(lo)) && CmpOp::Le.test(v.compare(hi))
            }
            Node::IsNull { col } => col.get(row).is_null(),
            Node::And(ns) => ns.iter().all(|n| n.eval(row)),
            Node::Or(ns) => ns.iter().any(|n| n.eval(row)),
            Node::Not(n) => !n.eval(row),
        }
    }

    /// The rows this leaf accepts, as a slice of its column's sorted run,
    /// or `None` when it is not a range leaf over a column keeping one.
    ///
    /// Each bound is a `partition_point` whose test is the leaf's own
    /// comparison, so the slice holds exactly the rows [`Node::eval`]
    /// accepts: nulls and NaN are outside the run and never compare, and
    /// along the run `compare` against a fixed value is monotone — across
    /// Int/Float too, since `i64 as f64` preserves order. A literal that
    /// compares with nothing (NaN, a string) yields an empty slice.
    fn range(&self) -> Option<&'a [u32]> {
        type Bound<'v> = Option<(CmpOp, &'v AttrValue)>;
        let (col, lower, upper): (&'a Column, Bound, Bound) = match self {
            Node::Cmp { col, op, value } => match op {
                CmpOp::Eq => (*col, Some((CmpOp::Ge, value)), Some((CmpOp::Le, value))),
                CmpOp::Lt | CmpOp::Le => (*col, None, Some((*op, value))),
                CmpOp::Gt | CmpOp::Ge => (*col, Some((*op, value)), None),
                CmpOp::Ne => return None,
            },
            Node::Between { col, lo, hi } => (*col, Some((CmpOp::Ge, lo)), Some((CmpOp::Le, hi))),
            _ => return None,
        };
        let run = col.sorted_rows()?;
        let passes = |row: &u32, (op, value): (CmpOp, &AttrValue)| {
            op.test(col.get(*row as usize).compare(value))
        };
        // The lower bound fails on a prefix, the upper bound holds on one.
        let start = lower.map_or(0, |b| run.partition_point(|r| !passes(r, b)));
        let end = upper.map_or(run.len(), |b| run.partition_point(|r| passes(r, b)));
        Some(&run[start..end.max(start)])
    }
}

/// A predicate with all column references pre-resolved against one store.
pub struct CompiledPredicate<'a> {
    root: Node<'a>,
    /// The matches, when the predicate is one range leaf over a sorted
    /// run; otherwise every row is tested.
    run: Option<&'a [u32]>,
    rows: usize,
    /// Selectivity the planner estimated, passed on to visit-first
    /// indexes to size their traversal budget.
    hint: Option<f64>,
}

impl<'a> CompiledPredicate<'a> {
    /// Compile `pred` against `store`, validating column references.
    pub fn compile(pred: &Predicate, store: &'a AttributeStore) -> Result<Self> {
        pred.validate(store)?;
        let root = lower(pred, store)?;
        Ok(CompiledPredicate {
            run: root.range(),
            root,
            rows: store.rows(),
            hint: None,
        })
    }

    /// Attach a selectivity estimate as the [`RowFilter`] hint.
    pub(crate) fn with_hint(mut self, selectivity: f64) -> Self {
        self.hint = Some(selectivity);
        self
    }

    /// Evaluate on one row.
    #[inline]
    pub fn eval(&self, row: usize) -> bool {
        self.root.eval(row)
    }

    /// Call `f` on every matching row, each once: a range leaf's rows in
    /// value order, any other predicate's in row order.
    pub fn for_each_match(&self, mut f: impl FnMut(usize)) {
        match self.run {
            Some(rows) => rows.iter().for_each(|&r| f(r as usize)),
            None => (0..self.rows).filter(|&r| self.eval(r)).for_each(f),
        }
    }

    /// Number of matching rows (O(log n) for a range leaf).
    pub(crate) fn count(&self) -> usize {
        match self.run {
            Some(rows) => rows.len(),
            None => (0..self.rows).filter(|&r| self.eval(r)).count(),
        }
    }

    /// The match set as a bitmask over every row of the store (the
    /// blocking bitmask of §2.3(1)).
    pub(crate) fn bitmask(&self) -> BitSet {
        let mut bits = BitSet::new(self.rows);
        self.for_each_match(|r| {
            bits.insert(r);
        });
        bits
    }
}

impl RowFilter for CompiledPredicate<'_> {
    fn accept(&self, id: usize) -> bool {
        self.eval(id)
    }
    fn selectivity_hint(&self) -> Option<f64> {
        self.hint
    }
}

fn lower<'a>(pred: &Predicate, store: &'a AttributeStore) -> Result<Node<'a>> {
    Ok(match pred {
        Predicate::True => Node::True,
        Predicate::Cmp { column, op, value } => Node::Cmp {
            col: store.column(column)?,
            op: *op,
            value: value.clone(),
        },
        Predicate::In { column, values } => Node::In {
            col: store.column(column)?,
            values: values.clone(),
        },
        Predicate::Between { column, lo, hi } => Node::Between {
            col: store.column(column)?,
            lo: lo.clone(),
            hi: hi.clone(),
        },
        Predicate::IsNull { column } => Node::IsNull {
            col: store.column(column)?,
        },
        Predicate::And(ps) => Node::And(ps.iter().map(|p| lower(p, store)).collect::<Result<_>>()?),
        Predicate::Or(ps) => Node::Or(ps.iter().map(|p| lower(p, store)).collect::<Result<_>>()?),
        Predicate::Not(p) => Node::Not(Box::new(lower(p, store)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::attr::AttrType;
    use vdb_core::dataset;
    use vdb_core::rng::Rng;

    fn store(n: usize) -> AttributeStore {
        let mut rng = Rng::seed_from_u64(1);
        let mut s = AttributeStore::new();
        s.add_column(
            Column::from_values("x", AttrType::Int, dataset::int_column(n, 0, 100, &mut rng))
                .unwrap(),
        )
        .unwrap();
        s.add_column(
            Column::from_values(
                "c",
                AttrType::Str,
                dataset::zipf_category_column(n, 5, 1.0, &mut rng),
            )
            .unwrap(),
        )
        .unwrap();
        s
    }

    fn interpreted(p: &Predicate, s: &AttributeStore) -> Vec<usize> {
        (0..s.rows()).filter(|&r| p.eval(s, r)).collect()
    }

    #[test]
    fn compiled_matches_interpreted_on_every_row() {
        let s = store(500);
        let preds = [
            Predicate::True,
            Predicate::lt("x", 50),
            Predicate::eq("c", "cat_0").and(Predicate::gt("x", 20)),
            Predicate::Not(Box::new(Predicate::eq("c", "cat_1"))).or(Predicate::Between {
                column: "x".into(),
                lo: AttrValue::Int(10),
                hi: AttrValue::Int(30),
            }),
            Predicate::In {
                column: "c".into(),
                values: vec!["cat_0".into(), "cat_2".into()],
            },
            Predicate::IsNull { column: "x".into() },
        ];
        for p in preds {
            let cp = CompiledPredicate::compile(&p, &s).unwrap();
            for row in 0..500 {
                assert_eq!(cp.eval(row), p.eval(&s, row), "{p} row {row}");
            }
            let mut matched = Vec::new();
            cp.for_each_match(|r| matched.push(r));
            matched.sort_unstable();
            assert_eq!(matched, interpreted(&p, &s), "{p}");
            assert_eq!(cp.count(), matched.len(), "{p}");
            assert_eq!(cp.bitmask().iter().collect::<Vec<_>>(), matched, "{p}");
        }
    }

    #[test]
    fn only_range_leaves_use_the_sorted_run() {
        let s = store(200);
        let cp = CompiledPredicate::compile(&Predicate::lt("x", 50), &s).unwrap();
        assert_eq!(cp.run.map(<[u32]>::len), Some(cp.count()));
        for p in [
            Predicate::eq("c", "cat_0"),
            Predicate::Cmp {
                column: "x".into(),
                op: CmpOp::Ne,
                value: AttrValue::Int(3),
            },
            Predicate::lt("x", 5).and(Predicate::eq("c", "cat_1")),
        ] {
            let cp = CompiledPredicate::compile(&p, &s).unwrap();
            assert!(cp.run.is_none(), "{p}");
        }
    }

    #[test]
    fn compile_validates_columns() {
        let s = store(10);
        assert!(CompiledPredicate::compile(&Predicate::eq("ghost", 1), &s).is_err());
    }

    #[test]
    fn hint_is_what_the_caller_attached() {
        let s = store(1000);
        let cp = CompiledPredicate::compile(&Predicate::lt("x", 50), &s).unwrap();
        assert_eq!(cp.selectivity_hint(), None);
        let cp = cp.with_hint(0.5);
        assert_eq!(cp.selectivity_hint(), Some(0.5));
        assert_eq!(cp.accept(0), Predicate::lt("x", 50).eval(&s, 0));
    }
}
