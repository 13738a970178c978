//! Boolean predicates over structured attributes (§2.1 "hybrid queries").
//!
//! A [`Predicate`] is compiled against an
//! [`AttributeStore`](vdb_storage::AttributeStore) into a
//! [`CompiledPredicate`] that evaluates rows, enumerates matches, or
//! materializes a blocking bitmask for block-first scans (§2.3(1)).
//! Comparisons involving NULL are false, mirroring SQL semantics
//! collapsed at the boolean layer.

use crate::compiled::CompiledPredicate;
use std::cmp::Ordering;
use std::fmt;
use vdb_core::attr::AttrValue;
use vdb_core::bitset::BitSet;
use vdb_core::error::{Error, Result};
use vdb_storage::AttributeStore;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

impl CmpOp {
    /// Whether an ordering of `value` against the constant satisfies the
    /// operator (`None` — a NULL or mismatched type — never does).
    pub(crate) fn test(self, ord: Option<Ordering>) -> bool {
        match (self, ord) {
            (CmpOp::Eq, Some(Ordering::Equal)) => true,
            (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
            (CmpOp::Lt, Some(Ordering::Less)) => true,
            (CmpOp::Le, Some(Ordering::Less | Ordering::Equal)) => true,
            (CmpOp::Gt, Some(Ordering::Greater)) => true,
            (CmpOp::Ge, Some(Ordering::Greater | Ordering::Equal)) => true,
            _ => false,
        }
    }
}

/// A boolean predicate tree over attribute columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (the unpredicated query).
    True,
    /// `column <op> value`.
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Comparison constant.
        value: AttrValue,
    },
    /// `column IN (values)`.
    In {
        /// Column name.
        column: String,
        /// Accepted values.
        values: Vec<AttrValue>,
    },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column name.
        column: String,
        /// Lower bound.
        lo: AttrValue,
        /// Upper bound.
        hi: AttrValue,
    },
    /// `column IS NULL`.
    IsNull {
        /// Column name.
        column: String,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience: `column = value`.
    pub fn eq(column: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience: `column < value`.
    pub fn lt(column: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Lt,
            value: value.into(),
        }
    }

    /// Convenience: `column > value`.
    pub fn gt(column: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Gt,
            value: value.into(),
        }
    }

    /// Convenience: conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Self {
        match self {
            Predicate::And(mut v) => {
                v.push(other);
                Predicate::And(v)
            }
            p => Predicate::And(vec![p, other]),
        }
    }

    /// Convenience: disjunction of two predicates.
    pub fn or(self, other: Predicate) -> Self {
        match self {
            Predicate::Or(mut v) => {
                v.push(other);
                Predicate::Or(v)
            }
            p => Predicate::Or(vec![p, other]),
        }
    }

    /// Column names referenced by this predicate.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True => {}
            Predicate::Cmp { column, .. }
            | Predicate::In { column, .. }
            | Predicate::Between { column, .. }
            | Predicate::IsNull { column } => out.push(column),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// Validate that referenced columns exist (type errors surface as
    /// non-matches at evaluation, like SQL's NULL semantics).
    pub fn validate(&self, store: &AttributeStore) -> Result<()> {
        for c in self.columns() {
            store
                .column(c)
                .map_err(|_| Error::InvalidQuery(format!("unknown column `{c}`")))?;
        }
        match self {
            Predicate::And(ps) | Predicate::Or(ps) if ps.is_empty() => {
                Err(Error::InvalidQuery("empty AND/OR".into()))
            }
            _ => Ok(()),
        }
    }

    /// Evaluate on one row, resolving column names as it goes. Operators
    /// use [`CompiledPredicate`]; this is the reference it is tested
    /// against.
    pub fn eval(&self, store: &AttributeStore, row: usize) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { column, op, value } => store
                .column(column)
                .map(|c| op.test(c.get(row).compare(value)))
                .unwrap_or(false),
            Predicate::In { column, values } => store
                .column(column)
                .map(|c| values.iter().any(|v| c.get(row).loosely_equals(v)))
                .unwrap_or(false),
            Predicate::Between { column, lo, hi } => store
                .column(column)
                .map(|c| {
                    let v = c.get(row);
                    CmpOp::Ge.test(v.compare(lo)) && CmpOp::Le.test(v.compare(hi))
                })
                .unwrap_or(false),
            Predicate::IsNull { column } => store
                .column(column)
                .map(|c| c.get(row).is_null())
                .unwrap_or(false),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(store, row)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(store, row)),
            Predicate::Not(p) => !p.eval(store, row),
        }
    }

    /// Evaluate against a value lookup instead of a column store — used
    /// for rows that live in the out-of-place update buffer and have not
    /// been merged into columns yet. Missing attributes read as NULL.
    pub fn eval_values(&self, get: &dyn Fn(&str) -> Option<AttrValue>) -> bool {
        let null = AttrValue::Null;
        let fetch = |c: &str| get(c).unwrap_or(null.clone());
        match self {
            Predicate::True => true,
            Predicate::Cmp { column, op, value } => op.test(fetch(column).compare(value)),
            Predicate::In { column, values } => {
                let v = fetch(column);
                values.iter().any(|x| v.loosely_equals(x))
            }
            Predicate::Between { column, lo, hi } => {
                let v = fetch(column);
                CmpOp::Ge.test(v.compare(lo)) && CmpOp::Le.test(v.compare(hi))
            }
            Predicate::IsNull { column } => fetch(column).is_null(),
            Predicate::And(ps) => ps.iter().all(|p| p.eval_values(get)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval_values(get)),
            Predicate::Not(p) => !p.eval_values(get),
        }
    }

    /// Materialize the blocking bitmask over every row (§2.3(1) online
    /// blocking via attribute filtering), through the compiled predicate.
    pub fn bitmask(&self, store: &AttributeStore) -> Result<BitSet> {
        Ok(CompiledPredicate::compile(self, store)?.bitmask())
    }

    /// Exact selectivity by counting matching rows.
    pub fn exact_selectivity(&self, store: &AttributeStore) -> Result<f64> {
        let n = store.rows();
        if n == 0 {
            return Ok(0.0);
        }
        Ok(CompiledPredicate::compile(self, store)?.count() as f64 / n as f64)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "TRUE"),
            Predicate::Cmp { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::In { column, values } => {
                write!(f, "{column} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::Between { column, lo, hi } => {
                write!(f, "{column} BETWEEN {lo} AND {hi}")
            }
            Predicate::IsNull { column } => write!(f, "{column} IS NULL"),
            Predicate::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Predicate::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Predicate::Not(p) => write!(f, "NOT {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::attr::AttrType;
    use vdb_storage::Column;

    fn store() -> AttributeStore {
        let mut s = AttributeStore::new();
        s.add_column(
            Column::from_values(
                "price",
                AttrType::Int,
                vec![
                    AttrValue::Int(5),
                    AttrValue::Int(15),
                    AttrValue::Int(25),
                    AttrValue::Null,
                ],
            )
            .unwrap(),
        )
        .unwrap();
        s.add_column(
            Column::from_values(
                "brand",
                AttrType::Str,
                vec!["acme".into(), "zen".into(), "acme".into(), "zen".into()],
            )
            .unwrap(),
        )
        .unwrap();
        s
    }

    #[test]
    fn comparison_operators() {
        let s = store();
        assert!(Predicate::eq("price", 5).eval(&s, 0));
        assert!(!Predicate::eq("price", 5).eval(&s, 1));
        assert!(Predicate::lt("price", 20).eval(&s, 1));
        assert!(Predicate::gt("price", 20).eval(&s, 2));
        let ge = Predicate::Cmp {
            column: "price".into(),
            op: CmpOp::Ge,
            value: AttrValue::Int(15),
        };
        assert!(ge.eval(&s, 1) && ge.eval(&s, 2) && !ge.eval(&s, 0));
    }

    #[test]
    fn null_never_matches_comparisons() {
        let s = store();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let p = Predicate::Cmp {
                column: "price".into(),
                op,
                value: AttrValue::Int(5),
            };
            assert!(!p.eval(&s, 3), "{op} against NULL must be false");
        }
        assert!(Predicate::IsNull {
            column: "price".into()
        }
        .eval(&s, 3));
        assert!(!Predicate::IsNull {
            column: "price".into()
        }
        .eval(&s, 0));
    }

    #[test]
    fn boolean_composition() {
        let s = store();
        let p = Predicate::eq("brand", "acme").and(Predicate::lt("price", 10));
        assert!(p.eval(&s, 0));
        assert!(!p.eval(&s, 2), "acme but price 25");
        let q = Predicate::eq("brand", "zen").or(Predicate::eq("price", 5));
        assert!(q.eval(&s, 0) && q.eval(&s, 1) && q.eval(&s, 3));
        assert!(!q.eval(&s, 2));
        let n = Predicate::Not(Box::new(Predicate::eq("brand", "zen")));
        assert!(n.eval(&s, 0) && !n.eval(&s, 1));
    }

    #[test]
    fn in_and_between() {
        let s = store();
        let p = Predicate::In {
            column: "price".into(),
            values: vec![AttrValue::Int(5), AttrValue::Int(25)],
        };
        assert!(p.eval(&s, 0) && p.eval(&s, 2) && !p.eval(&s, 1) && !p.eval(&s, 3));
        let b = Predicate::Between {
            column: "price".into(),
            lo: AttrValue::Int(10),
            hi: AttrValue::Int(25),
        };
        assert!(!b.eval(&s, 0) && b.eval(&s, 1) && b.eval(&s, 2) && !b.eval(&s, 3));
    }

    #[test]
    fn bitmask_and_selectivity() {
        let s = store();
        let p = Predicate::eq("brand", "acme");
        let bits = p.bitmask(&s).unwrap();
        assert_eq!(bits.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(p.exact_selectivity(&s).unwrap(), 0.5);
        assert_eq!(Predicate::True.exact_selectivity(&s).unwrap(), 1.0);
    }

    #[test]
    fn validation_catches_unknown_columns_and_empty_groups() {
        let s = store();
        assert!(Predicate::eq("nope", 1).validate(&s).is_err());
        assert!(Predicate::And(vec![]).validate(&s).is_err());
        assert!(Predicate::eq("price", 1).validate(&s).is_ok());
    }

    #[test]
    fn display_roundtrips_shape() {
        let p = Predicate::eq("brand", "acme").and(Predicate::lt("price", 10));
        assert_eq!(p.to_string(), "(brand = 'acme' AND price < 10)");
    }

    #[test]
    fn eval_values_matches_store_eval() {
        let s = store();
        let p = Predicate::eq("brand", "acme").and(Predicate::lt("price", 10));
        for row in 0..4 {
            let via_values =
                p.eval_values(&|c: &str| s.column(c).ok().map(|col| col.get(row).clone()));
            assert_eq!(via_values, p.eval(&s, row), "row {row}");
        }
        // Missing attributes read as NULL (never match).
        assert!(!Predicate::eq("ghost", 1).eval_values(&|_| None));
        assert!(Predicate::IsNull {
            column: "ghost".into()
        }
        .eval_values(&|_| None));
    }

    #[test]
    fn columns_deduped() {
        let p = Predicate::eq("a", 1)
            .and(Predicate::lt("a", 9))
            .and(Predicate::eq("b", 2));
        assert_eq!(p.columns(), vec!["a", "b"]);
    }
}
