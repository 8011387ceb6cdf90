//! Multi-key stable sort.

use crate::bitmap::Bitmap;
use crate::column::{Column, RowId};
use crate::error::Result;
use crate::table::Table;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortOrder {
    /// Ascending (default).
    #[default]
    Asc,
    /// Descending.
    Desc,
}

impl SortOrder {
    /// Parse `ASC` / `DESC` (case-insensitive).
    pub fn parse(s: &str) -> Option<SortOrder> {
        match s.to_ascii_lowercase().as_str() {
            "asc" | "ascending" => Some(SortOrder::Asc),
            "desc" | "descending" => Some(SortOrder::Desc),
            _ => None,
        }
    }
}

/// One sort key: column plus direction. The flow-file spelling is
/// `orderby_column: [count DESC]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    /// Column name.
    pub column: String,
    /// Direction.
    pub order: SortOrder,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            order: SortOrder::Asc,
        }
    }

    /// Descending key.
    pub fn desc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            order: SortOrder::Desc,
        }
    }

    /// Parse `"count DESC"` / `"count"` flow-file forms.
    pub fn parse(s: &str) -> Option<SortKey> {
        let mut parts = s.split_whitespace();
        let column = parts.next()?.to_string();
        let order = match parts.next() {
            Some(tok) => SortOrder::parse(tok)?,
            None => SortOrder::Asc,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(SortKey { column, order })
    }
}

/// One resolved sort key: the column's typed slice, its validity and the
/// direction.
struct ResolvedKey<'a> {
    column: &'a Column,
    /// `None` when the column has no null cells (the per-row check is
    /// skipped).
    validity: Option<&'a Bitmap>,
    descending: bool,
}

/// The one row comparator behind [`sort`], [`sort_limit`] and
/// [`crate::ops::topn()`]: key columns are resolved once per call into typed
/// slices, so a comparison reads two slots of a `&[i64]`/`&[f64]`/
/// `&[String]` instead of boxing two [`Value`]s.
///
/// Ordering contract, per key (identical to `Value`'s total order over one
/// homogeneous column): nulls before every value; `false < true`; integers
/// and dates numerically; floats in IEEE total order (`-NaN < -inf < … <
/// -0.0 < +0.0 < … < +inf < +NaN`); strings bytewise. `DESC` reverses the
/// whole key order, nulls included (nulls last). Keys apply left to right.
/// A full tie is `Equal`: callers break it by row id — a stable sort does
/// so implicitly, the bounded selection explicitly — which is what makes
/// every kernel's output a pure function of the input order.
pub struct KeyComparator<'a> {
    keys: Vec<ResolvedKey<'a>>,
}

impl<'a> KeyComparator<'a> {
    /// Resolve `keys` against `table`; a missing column is the error.
    pub fn new(table: &'a Table, keys: &[SortKey]) -> Result<Self> {
        let keys = keys
            .iter()
            .map(|k| {
                let column: &Column = table.column(&k.column)?;
                // An all-null column ties everywhere, like a null-free one.
                let validity = column.validity_ref().filter(|v| !v.all_set());
                Ok(ResolvedKey {
                    column,
                    validity,
                    descending: k.order == SortOrder::Desc,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(KeyComparator { keys })
    }

    /// Compare rows `a` and `b` under the keys; `Equal` on a full tie.
    pub fn compare(&self, a: usize, b: usize) -> Ordering {
        for key in &self.keys {
            let ord = match key.validity.map(|v| (v.get(a), v.get(b))) {
                Some((false, false)) => Ordering::Equal,
                Some((false, true)) => Ordering::Less,
                Some((true, false)) => Ordering::Greater,
                Some((true, true)) | None => match key.column {
                    Column::Bool { data, .. } => data[a].cmp(&data[b]),
                    Column::Int64 { data, .. } => data[a].cmp(&data[b]),
                    Column::Float64 { data, .. } => {
                        Value::float_key(data[a]).cmp(&Value::float_key(data[b]))
                    }
                    Column::Utf8 { data, .. } => data[a].cmp(&data[b]),
                    Column::Date { data, .. } => data[a].cmp(&data[b]),
                    Column::Null { .. } => Ordering::Equal,
                },
            };
            if ord != Ordering::Equal {
                return if key.descending { ord.reverse() } else { ord };
            }
        }
        Ordering::Equal
    }
}

impl KeyComparator<'_> {
    /// The first `n` of `rows` (ascending row ids) under the keys, in key
    /// order with ties by row id — what a stable sort of `rows` followed
    /// by `truncate(n)` gives, byte for byte. With `n` below the row count
    /// this is a bounded selection: a max-heap holds the best `n` rows
    /// seen, most rows lose against its root in one comparison, and no
    /// input order costs more than `O(rows log n)`.
    pub fn first_rows<I: RowId + Ord>(
        &self,
        rows: impl ExactSizeIterator<Item = I>,
        n: usize,
    ) -> Vec<I> {
        if n >= rows.len() {
            let mut all: Vec<I> = rows.collect();
            all.sort_by(|&a, &b| self.compare(a.row(), b.row()));
            return all;
        }
        let mut best: BinaryHeap<Ranked<'_, '_, I>> = BinaryHeap::with_capacity(n);
        for row in rows {
            let row = Ranked(row, self);
            if best.len() < n {
                best.push(row);
            } else if let Some(mut worst) = best.peek_mut() {
                if row < *worst {
                    *worst = row;
                }
            }
        }
        best.into_sorted_vec().iter().map(|r| r.0).collect()
    }
}

/// Stable multi-key sort; equal keys keep input order.
pub fn sort(table: &Table, keys: &[SortKey]) -> Result<Table> {
    let cmp = KeyComparator::new(table, keys)?;
    let mut indices: Vec<usize> = (0..table.num_rows()).collect();
    indices.sort_by(|&a, &b| cmp.compare(a, b));
    Ok(table.take(&indices))
}

/// A row under the total order (keys, then row id) that
/// [`KeyComparator::first_rows`]'s heap ranks by.
struct Ranked<'c, 'a, I>(I, &'c KeyComparator<'a>);

impl<I: RowId + Ord> Ord for Ranked<'_, '_, I> {
    fn cmp(&self, other: &Self) -> Ordering {
        let keys = self.1.compare(self.0.row(), other.0.row());
        keys.then(self.0.cmp(&other.0))
    }
}
impl<I: RowId + Ord> PartialOrd for Ranked<'_, '_, I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<I: RowId + Ord> PartialEq for Ranked<'_, '_, I> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<I: RowId + Ord> Eq for Ranked<'_, '_, I> {}

/// The first `n` rows of [`sort`] without materialising the full order:
/// see [`KeyComparator::first_rows`]. Only the `n` winners are gathered.
pub fn sort_limit(table: &Table, keys: &[SortKey], n: usize) -> Result<Table> {
    if n >= table.num_rows() {
        return sort(table, keys);
    }
    let cmp = KeyComparator::new(table, keys)?;
    Ok(table.take(&cmp.first_rows(0..table.num_rows(), n)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn t() -> Table {
        Table::from_rows(
            &["team", "pts"],
            &[
                row!["MI", 3i64],
                row!["CSK", 5i64],
                row!["MI", 1i64],
                row!["CSK", 5i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_key_desc() {
        let out = sort(&t(), &[SortKey::desc("pts")]).unwrap();
        let pts: Vec<i64> = (0..4)
            .map(|i| out.value(i, "pts").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(pts, vec![5, 5, 3, 1]);
    }

    #[test]
    fn multi_key_and_stability() {
        let out = sort(&t(), &[SortKey::asc("team"), SortKey::desc("pts")]).unwrap();
        let rows: Vec<(String, i64)> = (0..4)
            .map(|i| {
                (
                    out.value(i, "team").unwrap().to_string(),
                    out.value(i, "pts").unwrap().as_int().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                ("CSK".into(), 5),
                ("CSK".into(), 5),
                ("MI".into(), 3),
                ("MI".into(), 1)
            ]
        );
    }

    #[test]
    fn nulls_sort_first_ascending() {
        let t = Table::from_rows(&["x"], &[row![2i64], row![Value::Null], row![1i64]]).unwrap();
        let out = sort(&t, &[SortKey::asc("x")]).unwrap();
        assert!(out.value(0, "x").unwrap().is_null());
    }

    #[test]
    fn comparator_agrees_with_the_value_order_on_every_type() {
        // Nulls, signed zeros, NaN of both signs, ties: the typed slices
        // must rank rows exactly as boxed `Value`s do.
        let floats = [f64::NAN, -0.0, 0.0, 1.5, -f64::NAN, f64::INFINITY, 1.5];
        let rows: Vec<crate::row::Row> = (0..floats.len())
            .map(|i| {
                let null = i == 3;
                row![
                    if null {
                        Value::Null
                    } else {
                        Value::Float(floats[i])
                    },
                    if i == 5 {
                        Value::Null
                    } else {
                        Value::Bool(i % 2 == 0)
                    },
                    if i == 1 {
                        Value::Null
                    } else {
                        Value::Date(3 - i as i32)
                    },
                    if null {
                        Value::Null
                    } else {
                        Value::Str(format!("s{}", i % 3))
                    }
                ]
            })
            .collect();
        let table = Table::from_rows(&["f", "b", "d", "s"], &rows).unwrap();
        for column in ["f", "b", "d", "s"] {
            for key in [SortKey::asc(column), SortKey::desc(column)] {
                let cmp = KeyComparator::new(&table, std::slice::from_ref(&key)).unwrap();
                let col = table.column(column).unwrap();
                for a in 0..rows.len() {
                    for b in 0..rows.len() {
                        let boxed = col.value(a).cmp(&col.value(b));
                        let want = if key.order == SortOrder::Desc {
                            boxed.reverse()
                        } else {
                            boxed
                        };
                        assert_eq!(cmp.compare(a, b), want, "{key:?} rows {a},{b}");
                    }
                }
            }
        }
    }

    #[test]
    fn parse_key_forms() {
        assert_eq!(SortKey::parse("count DESC"), Some(SortKey::desc("count")));
        assert_eq!(SortKey::parse("count desc"), Some(SortKey::desc("count")));
        assert_eq!(SortKey::parse("name"), Some(SortKey::asc("name")));
        assert_eq!(SortKey::parse("a b c"), None);
        assert_eq!(SortKey::parse("a sideways"), None);
    }

    #[test]
    fn missing_column_errors() {
        assert!(sort(&t(), &[SortKey::asc("nope")]).is_err());
        assert!(sort_limit(&t(), &[SortKey::asc("nope")], 2).is_err());
    }

    #[test]
    fn sort_limit_matches_sort_then_limit() {
        // Heavy ties + nulls: the bounded selection must reproduce the
        // stable sort's head exactly, for every n and direction.
        let rows: Vec<crate::row::Row> = (0..200)
            .map(|i| {
                let v = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(((i * 7) % 13) as i64)
                };
                row![v, format!("t{}", i % 5)]
            })
            .collect();
        let table = Table::from_rows(&["x", "tag"], &rows).unwrap();
        let key_sets = [
            vec![SortKey::asc("x")],
            vec![SortKey::desc("x")],
            vec![SortKey::asc("tag"), SortKey::desc("x")],
        ];
        for keys in &key_sets {
            let full = sort(&table, keys).unwrap();
            for n in [0, 1, 7, 50, 200, 500] {
                let bounded = sort_limit(&table, keys, n).unwrap();
                assert_eq!(bounded, full.limit(n), "keys={keys:?} n={n}");
            }
        }
    }
}
