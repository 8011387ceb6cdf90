//! Aggregate functions for `groupby` tasks.
//!
//! The paper's groupby task configures a list of aggregates
//! (`operator: sum / apply_on: noOfCheckins / out_field: total_checkins`,
//! figure 8) and defaults to a bare row count when none is given
//! (figure 23). User-defined aggregates are one of the four extension task
//! categories (§4.2); [`AggregateFunction`] is that extension point.
//!
//! This module names the built-in operators and their result types. What
//! each one computes is written down once, as the group-by kernel's
//! per-aggregate lanes (`ops::groupby`); the row engine's baseline keeps
//! an independent model of the same rules to check them against.

use crate::datatype::DataType;
use crate::error::Result;
use crate::value::Value;
use std::fmt;

/// Built-in aggregate operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Sum of numeric values (nulls skipped).
    Sum,
    /// Count of non-null values.
    Count,
    /// Count of all rows including nulls (`count_all` / bare groupby).
    CountAll,
    /// Arithmetic mean of numeric values.
    Avg,
    /// Minimum by value ordering.
    Min,
    /// Maximum by value ordering.
    Max,
    /// First non-null value encountered.
    First,
    /// Last non-null value encountered.
    Last,
    /// Count of distinct non-null values.
    CountDistinct,
    /// Concatenate string representations with `,`.
    Collect,
}

impl AggKind {
    /// Parse the flow-file operator name.
    pub fn parse(name: &str) -> Option<AggKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "sum" => AggKind::Sum,
            "count" => AggKind::Count,
            "count_all" | "countall" => AggKind::CountAll,
            "avg" | "mean" | "average" => AggKind::Avg,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            "first" => AggKind::First,
            "last" => AggKind::Last,
            "count_distinct" | "countdistinct" | "distinct" => AggKind::CountDistinct,
            "collect" | "concat" => AggKind::Collect,
            _ => return None,
        })
    }

    /// Canonical flow-file name.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Sum => "sum",
            AggKind::Count => "count",
            AggKind::CountAll => "count_all",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::First => "first",
            AggKind::Last => "last",
            AggKind::CountDistinct => "count_distinct",
            AggKind::Collect => "collect",
        }
    }

    /// Result type given the input column type.
    pub fn output_type(self, input: DataType) -> DataType {
        match self {
            AggKind::Sum => {
                if input == DataType::Float64 {
                    DataType::Float64
                } else {
                    DataType::Int64
                }
            }
            AggKind::Count | AggKind::CountAll | AggKind::CountDistinct => DataType::Int64,
            AggKind::Avg => DataType::Float64,
            AggKind::Min | AggKind::Max | AggKind::First | AggKind::Last => input,
            AggKind::Collect => DataType::Utf8,
        }
    }
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Extension point for user-defined aggregates (§4.2, category 2:
/// "transforming a bag of values into a point value").
pub trait AggregateFunction: Send + Sync {
    /// Registered name, referenced from flow files as `operator: <name>`.
    fn name(&self) -> &str;
    /// Result type for a given input type.
    fn output_type(&self, input: DataType) -> DataType;
    /// Reduce a bag of values to a point value.
    fn aggregate(&self, values: &[Value]) -> Result<Value>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_names() {
        assert_eq!(AggKind::parse("sum"), Some(AggKind::Sum));
        assert_eq!(AggKind::parse("SUM"), Some(AggKind::Sum));
        assert_eq!(AggKind::parse("mean"), Some(AggKind::Avg));
        assert_eq!(AggKind::parse("bogus"), None);
        for k in [
            AggKind::Sum,
            AggKind::Count,
            AggKind::CountAll,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
            AggKind::First,
            AggKind::Last,
            AggKind::CountDistinct,
            AggKind::Collect,
        ] {
            assert_eq!(AggKind::parse(k.name()), Some(k), "roundtrip {k}");
        }
    }

    #[test]
    fn output_types() {
        assert_eq!(AggKind::Sum.output_type(DataType::Int64), DataType::Int64);
        assert_eq!(
            AggKind::Sum.output_type(DataType::Float64),
            DataType::Float64
        );
        assert_eq!(AggKind::Avg.output_type(DataType::Int64), DataType::Float64);
        assert_eq!(AggKind::Min.output_type(DataType::Utf8), DataType::Utf8);
        assert_eq!(
            AggKind::Collect.output_type(DataType::Int64),
            DataType::Utf8
        );
    }
}
