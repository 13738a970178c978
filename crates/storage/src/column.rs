//! Attribute columns for hybrid queries.
//!
//! The storage-manager side of "vectors are associated to structured
//! attributes" (§2.1(3)). Columns are typed, nullable, and keep a
//! summary — exact statistics for selectivity estimation plus, for
//! numeric columns, the rows in value order so range predicates are
//! answered by binary search instead of a scan (§2.3). The summary is
//! built on first use and dropped by every mutation, so a column that is
//! only read (a published main segment) computes it exactly once.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::OnceLock;
use vdb_core::attr::{AttrType, AttrValue};
use vdb_core::error::{Error, Result};

/// Summary statistics maintained per column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of non-null values.
    pub non_null: usize,
    /// Number of nulls.
    pub nulls: usize,
    /// Minimum non-null value (by [`AttrValue::compare`]).
    pub min: Option<AttrValue>,
    /// Maximum non-null value.
    pub max: Option<AttrValue>,
    /// Exact distinct count (collections here are laptop-scale; a sketch
    /// would replace this at billion scale).
    pub distinct: usize,
}

impl ColumnStats {
    /// Compute statistics by one pass over `values`.
    fn of(values: &[AttrValue]) -> Self {
        let mut non_null = 0;
        let mut nulls = 0;
        let mut min: Option<AttrValue> = None;
        let mut max: Option<AttrValue> = None;
        let mut distinct: HashMap<String, ()> = HashMap::new();
        for v in values {
            if v.is_null() {
                nulls += 1;
                continue;
            }
            non_null += 1;
            distinct.entry(v.to_string()).or_insert(());
            if min
                .as_ref()
                .is_none_or(|m| v.compare(m) == Some(Ordering::Less))
            {
                min = Some(v.clone());
            }
            if max
                .as_ref()
                .is_none_or(|m| v.compare(m) == Some(Ordering::Greater))
            {
                max = Some(v.clone());
            }
        }
        ColumnStats {
            non_null,
            nulls,
            min,
            max,
            distinct: distinct.len(),
        }
    }
}

/// Everything a query reads about a column without scanning it.
#[derive(Debug, Clone, PartialEq)]
struct ColumnSummary {
    stats: ColumnStats,
    /// Int and Float columns: every row whose value compares (not null,
    /// not NaN), ordered by [`AttrValue::compare`], ties by row. `None`
    /// for other column types.
    sorted_rows: Option<Vec<u32>>,
}

impl ColumnSummary {
    fn of(ty: AttrType, values: &[AttrValue]) -> Self {
        let numeric = matches!(ty, AttrType::Int | AttrType::Float);
        let sorted_rows = (numeric && u32::try_from(values.len()).is_ok()).then(|| {
            let mut rows: Vec<u32> = (0..values.len() as u32)
                .filter(|&r| {
                    let v = &values[r as usize];
                    v.compare(v).is_some()
                })
                .collect();
            // Stable: equal values keep row order. Every kept value
            // compares, so the fallback never fires.
            rows.sort_by(|&a, &b| {
                values[a as usize]
                    .compare(&values[b as usize])
                    .unwrap_or(Ordering::Equal)
            });
            rows
        });
        ColumnSummary {
            stats: ColumnStats::of(values),
            sorted_rows,
        }
    }
}

/// A typed, nullable attribute column.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    ty: AttrType,
    values: Vec<AttrValue>,
    /// Built on first read, dropped by every `&mut` method.
    summary: OnceLock<ColumnSummary>,
}

impl Column {
    /// New empty column.
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        Column {
            name: name.into(),
            ty,
            values: Vec::new(),
            summary: OnceLock::new(),
        }
    }

    /// Build from values, type-checking each.
    pub fn from_values(
        name: impl Into<String>,
        ty: AttrType,
        values: Vec<AttrValue>,
    ) -> Result<Self> {
        for v in &values {
            v.check_type(ty)?;
        }
        Ok(Column {
            name: name.into(),
            ty,
            values,
            summary: OnceLock::new(),
        })
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column type.
    pub fn ty(&self) -> AttrType {
        self.ty
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append a value (type-checked).
    pub fn push(&mut self, v: AttrValue) -> Result<()> {
        v.check_type(self.ty)?;
        self.values.push(v);
        self.summary.take();
        Ok(())
    }

    /// Value at `row`.
    pub fn get(&self, row: usize) -> &AttrValue {
        &self.values[row]
    }

    /// All values.
    pub fn values(&self) -> &[AttrValue] {
        &self.values
    }

    /// Overwrite the value at `row` (type-checked).
    pub fn set(&mut self, row: usize, v: AttrValue) -> Result<()> {
        v.check_type(self.ty)?;
        if row >= self.values.len() {
            return Err(Error::NotFound(format!("row {row}")));
        }
        self.values[row] = v;
        self.summary.take();
        Ok(())
    }

    /// The column's summary, computed on the first call after a mutation.
    fn summary(&self) -> &ColumnSummary {
        self.summary
            .get_or_init(|| ColumnSummary::of(self.ty, &self.values))
    }

    /// Exact statistics (from the cached summary).
    pub fn stats(&self) -> &ColumnStats {
        &self.summary().stats
    }

    /// Int and Float columns: every row whose value compares (not null,
    /// not NaN), ordered by [`AttrValue::compare`], ties by row, so a
    /// range predicate's matches are one contiguous slice. `None` for
    /// other column types. Cached like [`Column::stats`].
    pub fn sorted_rows(&self) -> Option<&[u32]> {
        self.summary().sorted_rows.as_deref()
    }
}

/// A set of aligned columns: the attribute side of a vector collection.
#[derive(Debug, Clone, Default)]
pub struct AttributeStore {
    columns: Vec<Column>,
    rows: usize,
}

impl AttributeStore {
    /// New empty store.
    pub fn new() -> Self {
        AttributeStore::default()
    }

    /// Add a column. Must match the current row count.
    pub fn add_column(&mut self, col: Column) -> Result<()> {
        if self.columns.iter().any(|c| c.name() == col.name()) {
            return Err(Error::AlreadyExists(format!("column `{}`", col.name())));
        }
        if !self.columns.is_empty() && col.len() != self.rows {
            return Err(Error::InvalidParameter(format!(
                "column `{}` has {} rows, store has {}",
                col.name(),
                col.len(),
                self.rows
            )));
        }
        if self.columns.is_empty() {
            self.rows = col.len();
        }
        self.columns.push(col);
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name()).collect()
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| Error::NotFound(format!("column `{name}`")))
    }

    /// Append a row given `(name, value)` pairs; missing columns get Null.
    pub fn push_row(&mut self, row: &[(&str, AttrValue)]) -> Result<()> {
        for (name, _) in row {
            // Validate all names before mutating anything.
            self.column(name)?;
        }
        for col in &mut self.columns {
            let v = row
                .iter()
                .find(|(n, _)| *n == col.name())
                .map(|(_, v)| v.clone())
                .unwrap_or(AttrValue::Null);
            col.push(v)?;
        }
        self.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> AttributeStore {
        let mut s = AttributeStore::new();
        s.add_column(
            Column::from_values(
                "price",
                AttrType::Int,
                vec![
                    AttrValue::Int(10),
                    AttrValue::Int(25),
                    AttrValue::Null,
                    AttrValue::Int(10),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        s.add_column(
            Column::from_values(
                "brand",
                AttrType::Str,
                vec!["acme".into(), "zen".into(), "acme".into(), AttrValue::Null],
            )
            .unwrap(),
        )
        .unwrap();
        s
    }

    #[test]
    fn column_type_enforced() {
        let mut c = Column::new("x", AttrType::Int);
        assert!(c.push(AttrValue::Int(1)).is_ok());
        assert!(c.push(AttrValue::Null).is_ok());
        assert!(c.push(AttrValue::Str("no".into())).is_err());
        assert!(Column::from_values("y", AttrType::Bool, vec![AttrValue::Int(0)]).is_err());
    }

    #[test]
    fn stats_reflect_contents() {
        let s = sample_store();
        let st = s.column("price").unwrap().stats();
        assert_eq!(st.non_null, 3);
        assert_eq!(st.nulls, 1);
        assert_eq!(st.min, Some(AttrValue::Int(10)));
        assert_eq!(st.max, Some(AttrValue::Int(25)));
        assert_eq!(st.distinct, 2);
    }

    #[test]
    fn store_alignment_enforced() {
        let mut s = sample_store();
        let short =
            Column::from_values("extra", AttrType::Bool, vec![AttrValue::Bool(true)]).unwrap();
        assert!(s.add_column(short).is_err());
        let dup = Column::new("price", AttrType::Int);
        assert!(s.add_column(dup).is_err());
    }

    #[test]
    fn push_row_fills_missing_with_null() {
        let mut s = sample_store();
        s.push_row(&[("price", AttrValue::Int(7))]).unwrap();
        assert_eq!(s.rows(), 5);
        assert_eq!(s.column("brand").unwrap().get(4), &AttrValue::Null);
        assert!(s.push_row(&[("nope", AttrValue::Int(1))]).is_err());
        assert_eq!(s.rows(), 5, "failed push must not change row count");
    }

    #[test]
    fn sorted_rows_order_comparable_values_only() {
        let f = Column::from_values(
            "f",
            AttrType::Float,
            vec![
                AttrValue::Float(2.5),
                AttrValue::Null,
                AttrValue::Float(f64::NAN),
                AttrValue::Float(-1.0),
                AttrValue::Float(2.5),
                AttrValue::Float(0.0),
            ],
        )
        .unwrap();
        // Nulls and NaN never compare, so they are left out; ties keep
        // row order.
        assert_eq!(f.sorted_rows(), Some(&[3, 5, 0, 4][..]));
        let s = sample_store();
        assert_eq!(
            s.column("price").unwrap().sorted_rows(),
            Some(&[0, 3, 1][..])
        );
        assert_eq!(s.column("brand").unwrap().sorted_rows(), None);
    }

    #[test]
    fn summary_after_push_and_set_equals_a_fresh_recompute() {
        let mut s = sample_store();
        let fresh = |c: &Column| {
            Column::from_values(c.name(), c.ty(), c.values().to_vec())
                .unwrap()
                .summary()
                .clone()
        };
        // Read the summary first so a stale cache would show.
        for c in &s.columns {
            assert_eq!(c.summary(), &fresh(c));
        }
        s.push_row(&[("price", AttrValue::Int(-4)), ("brand", "zen".into())])
            .unwrap();
        for c in &s.columns {
            assert_eq!(c.summary(), &fresh(c), "after push: {}", c.name());
        }
        let col = s.columns.iter_mut().find(|c| c.name() == "price").unwrap();
        col.set(1, AttrValue::Null).unwrap();
        col.set(2, AttrValue::Int(40)).unwrap();
        assert_eq!(col.summary(), &fresh(col), "after set");
        assert_eq!(col.stats().max, Some(AttrValue::Int(40)));
        assert_eq!(col.sorted_rows(), Some(&[4, 0, 3, 2][..]));
    }

    #[test]
    fn set_updates_in_place() {
        let mut s = sample_store();
        let col = s.columns.iter_mut().find(|c| c.name() == "price").unwrap();
        col.set(0, AttrValue::Int(99)).unwrap();
        assert_eq!(col.get(0), &AttrValue::Int(99));
        assert!(col.set(100, AttrValue::Int(1)).is_err());
    }
}
