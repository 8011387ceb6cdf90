//! Distinct rows (deduplication), optionally on a key subset.

use crate::error::Result;
use crate::ops::keys::{group_ids, KeyColumn, RowSel};
use crate::table::Table;

/// Keep the first occurrence of each distinct key. With an empty `columns`
/// list the whole row is the key. Output preserves all columns and input
/// order of first occurrences: the rows kept are the groups'
/// representatives.
pub fn distinct(table: &Table, columns: &[impl AsRef<str>]) -> Result<Table> {
    let keys: Vec<KeyColumn<'_>> = if columns.is_empty() {
        table
            .columns()
            .iter()
            .map(|c| KeyColumn::Cells(c))
            .collect()
    } else {
        columns
            .iter()
            .map(|c| Ok(KeyColumn::Cells(table.column(c.as_ref())?)))
            .collect::<Result<_>>()?
    };
    let groups = group_ids(&keys, &RowSel::new(table.num_rows(), None));
    Ok(table.take(&groups.reps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::Value;

    fn t() -> Table {
        Table::from_rows(
            &["team", "city"],
            &[
                row!["CSK", "Chennai"],
                row!["MI", "Mumbai"],
                row!["CSK", "Chennai"],
                row!["CSK", "Pune"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn whole_row_distinct() {
        let out = distinct(&t(), &[] as &[&str]).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn key_subset_distinct_keeps_first() {
        let out = distinct(&t(), &["team"]).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "city").unwrap(), Value::Str("Chennai".into()));
    }

    #[test]
    fn nulls_are_one_key() {
        let t =
            Table::from_rows(&["x"], &[row![Value::Null], row![Value::Null], row![1i64]]).unwrap();
        assert_eq!(distinct(&t, &[] as &[&str]).unwrap().num_rows(), 2);
    }

    #[test]
    fn missing_column_errors() {
        assert!(distinct(&t(), &["nope"]).is_err());
    }
}
