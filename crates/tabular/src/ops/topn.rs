//! Group-wise top-N (the paper's `topn` task: appendix A.1 `topwords` keeps
//! the 20 most frequent words per date).

use crate::error::Result;
use crate::ops::keys::{group_ids, Buckets, KeyColumn, RowSel};
use crate::ops::sort::{KeyComparator, SortKey};
use crate::table::Table;

/// `topn` task configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopN {
    /// Partition key columns (`groupby: [date]`). Empty = whole table.
    pub groupby: Vec<String>,
    /// Ordering inside each partition (`orderby_column: [count DESC]`).
    pub order_by: Vec<SortKey>,
    /// Rows kept per partition (`limit: 20`).
    pub limit: usize,
}

/// Keep the first `limit` rows of each partition under the given ordering.
/// Output preserves all columns; partitions appear in first-seen order and
/// rows within a partition in the requested order (ties stable).
pub fn topn(table: &Table, cfg: &TopN) -> Result<Table> {
    topn_counted(table, cfg).map(|(out, _)| out)
}

/// [`topn`], also returning how many partitions the input had. Each
/// partition's rows are selected by the bounded heap behind
/// [`sort_limit`](crate::ops::sort_limit), never fully sorted.
pub fn topn_counted(table: &Table, cfg: &TopN) -> Result<(Table, usize)> {
    let keys = cfg
        .groupby
        .iter()
        .map(|k| Ok(KeyColumn::Cells(table.column(k)?)))
        .collect::<Result<Vec<_>>>()?;
    let cmp = KeyComparator::new(table, &cfg.order_by)?;
    let rows = RowSel::new(table.num_rows(), None);
    let groups = group_ids(&keys, &rows);
    let partitions = Buckets::new(&groups.ids, &rows, groups.reps.len());
    let mut out_indices: Vec<u32> = Vec::new();
    for p in 0..groups.reps.len() {
        out_indices.extend(cmp.first_rows(partitions.rows_of(p).iter().copied(), cfg.limit));
    }
    Ok((table.take(&out_indices), groups.reps.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn word_counts() -> Table {
        Table::from_rows(
            &["date", "word", "count"],
            &[
                row!["d1", "dhoni", 50i64],
                row!["d1", "six", 30i64],
                row!["d1", "csk", 70i64],
                row!["d2", "kohli", 20i64],
                row!["d2", "rcb", 60i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_topwords_shape() {
        // appendix A.1 topwords: groupby [date], orderby [count DESC], limit N.
        let cfg = TopN {
            groupby: vec!["date".into()],
            order_by: vec![SortKey::desc("count")],
            limit: 2,
        };
        let out = topn(&word_counts(), &cfg).unwrap();
        assert_eq!(out.num_rows(), 4);
        let words: Vec<String> = (0..4)
            .map(|i| out.value(i, "word").unwrap().to_string())
            .collect();
        assert_eq!(words, vec!["csk", "dhoni", "rcb", "kohli"]);
    }

    #[test]
    fn limit_larger_than_partition_keeps_all() {
        let cfg = TopN {
            groupby: vec!["date".into()],
            order_by: vec![SortKey::desc("count")],
            limit: 100,
        };
        assert_eq!(topn(&word_counts(), &cfg).unwrap().num_rows(), 5);
    }

    #[test]
    fn empty_groupby_is_global_topn() {
        let cfg = TopN {
            groupby: vec![],
            order_by: vec![SortKey::desc("count")],
            limit: 1,
        };
        let out = topn(&word_counts(), &cfg).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "word").unwrap().to_string(), "csk");
    }

    #[test]
    fn limit_zero_empties() {
        let cfg = TopN {
            groupby: vec![],
            order_by: vec![SortKey::asc("count")],
            limit: 0,
        };
        assert_eq!(topn(&word_counts(), &cfg).unwrap().num_rows(), 0);
    }

    #[test]
    fn preserves_all_columns() {
        let cfg = TopN {
            groupby: vec!["date".into()],
            order_by: vec![SortKey::desc("count")],
            limit: 1,
        };
        let out = topn(&word_counts(), &cfg).unwrap();
        assert_eq!(out.schema().names(), vec!["date", "word", "count"]);
    }

    #[test]
    fn missing_columns_error() {
        let cfg = TopN {
            groupby: vec!["nope".into()],
            order_by: vec![],
            limit: 1,
        };
        assert!(topn(&word_counts(), &cfg).is_err());
    }
}
