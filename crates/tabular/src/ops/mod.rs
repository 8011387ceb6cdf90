//! Operator kernels.
//!
//! Each kernel is a pure function `&Table -> Table` (or `(&Table, &Table) ->
//! Table` for joins) with a config struct mirroring the corresponding task
//! type in the flow-file language. Task transformations "can add columns
//! (e.g. join), reduce columns (e.g. group) or preserve columns (e.g.
//! filter)" (§3.3) — the kernel signatures encode exactly those shapes.

pub mod distinct;
pub mod filter;
pub mod groupby;
pub mod join;
pub mod keys;
pub mod map;
pub mod sort;
pub mod topn;
pub mod union;

pub use distinct::distinct;
pub use filter::filter_by_expr;
pub use groupby::{
    groupby, groupby_partial, groupby_selected, AggregateSpec, GroupBy, GroupByPartial,
};
pub use join::{join, key_members, JoinCondition, JoinSpec, ProjectSpec};
pub use keys::{group_ids, Buckets, GroupIds, KeyColumn, KeyTable, RowSel};
pub use map::{
    map_date, map_date_counted, map_extract, map_extract_location, map_extract_location_counted,
    map_extract_words, DateMap, ExtractMap, LocationMap, WordsMap,
};
pub use sort::{sort, sort_limit, KeyComparator, SortKey, SortOrder};
pub use topn::{topn, topn_counted, TopN};
pub use union::union_all;
