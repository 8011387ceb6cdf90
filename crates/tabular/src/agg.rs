//! Aggregate functions for `groupby` tasks.
//!
//! The paper's groupby task configures a list of aggregates
//! (`operator: sum / apply_on: noOfCheckins / out_field: total_checkins`,
//! figure 8) and defaults to a bare row count when none is given
//! (figure 23). User-defined aggregates are one of the four extension task
//! categories (§4.2); [`AggregateFunction`] is that extension point.

use crate::datatype::DataType;
use crate::error::{Result, TabularError};
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

    /// Create a fresh accumulator for this aggregate.
    pub fn accumulator(self) -> Accumulator {
        Accumulator::new(self)
    }
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Running state for one aggregate over one group, boxed: a variant per
/// shape of state, each holding only what its kinds need. The group-by
/// kernel keeps typed per-group lanes and falls back to these only where a
/// lane cannot be typed (string measures, `count_distinct`, `collect`, and
/// a lane that meets a second input type); [`Accumulator::update`] folds a
/// boxed [`Value`] with the lanes' outcome.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// `sum` and `avg`: integer inputs are summed exactly; from the first
    /// float input on, a float sum starts from that exact sum rounded once
    /// and folds every later input in call order.
    Numeric {
        /// `Sum` or `Avg`.
        kind: AggKind,
        /// Non-null inputs folded.
        count: i64,
        /// Sum of the integer inputs, wrapped to `i64`.
        sum_i: i64,
        /// Net times `sum_i` wrapped, upward positive: the exact sum is
        /// `sum_i + wraps·2^64`, whatever the fold order or partial split,
        /// and [`finish`] reports it when it leaves `i64`.
        ///
        /// [`finish`]: Accumulator::finish
        wraps: i64,
        /// The float sum; meaningful once `saw_float` is set.
        sum_f: f64,
        /// A float or numeric string was folded: the result is a float.
        saw_float: bool,
    },
    /// `count` (non-null cells) and `count_all` (rows).
    Count {
        /// `Count` or `CountAll`.
        kind: AggKind,
        /// Cells or rows counted.
        n: i64,
    },
    /// `min` and `max` under the total [`Value`] order; the first of equal
    /// values is kept.
    Extreme {
        /// `Min` or `Max`.
        kind: AggKind,
        /// Best value so far.
        best: Option<Value>,
    },
    /// `first` and `last` non-null value.
    Edge {
        /// `First` or `Last`.
        kind: AggKind,
        /// The value held.
        value: Option<Value>,
    },
    /// `count_distinct`: the distinct non-null values.
    Distinct(std::collections::HashSet<Value>),
    /// `collect`: the rendered non-null values in call order.
    Collected(Vec<String>),
}

impl Accumulator {
    fn new(kind: AggKind) -> Self {
        match kind {
            AggKind::Sum | AggKind::Avg => Accumulator::Numeric {
                kind,
                count: 0,
                sum_i: 0,
                wraps: 0,
                sum_f: 0.0,
                saw_float: false,
            },
            AggKind::Count | AggKind::CountAll => Accumulator::Count { kind, n: 0 },
            AggKind::Min | AggKind::Max => Accumulator::Extreme { kind, best: None },
            AggKind::First | AggKind::Last => Accumulator::Edge { kind, value: None },
            AggKind::CountDistinct => Accumulator::Distinct(Default::default()),
            AggKind::Collect => Accumulator::Collected(Vec::new()),
        }
    }

    /// The aggregate this state belongs to.
    pub fn kind(&self) -> AggKind {
        match self {
            Accumulator::Numeric { kind, .. }
            | Accumulator::Count { kind, .. }
            | Accumulator::Extreme { kind, .. }
            | Accumulator::Edge { kind, .. } => *kind,
            Accumulator::Distinct(_) => AggKind::CountDistinct,
            Accumulator::Collected(_) => AggKind::Collect,
        }
    }

    /// Feed one value into the accumulator.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        match (&mut *self, v) {
            (
                Accumulator::Count {
                    kind: AggKind::CountAll,
                    n,
                },
                _,
            ) => *n += 1,
            (_, Value::Null) => {}
            (Accumulator::Count { n, .. }, _) => *n += 1,
            (_, Value::Str(s)) => return self.see_str(s),
            (
                Accumulator::Numeric {
                    count,
                    sum_i,
                    wraps,
                    sum_f,
                    saw_float,
                    ..
                },
                Value::Int(x),
            ) => {
                *count += 1;
                add_exact(sum_i, wraps, *x);
                if *saw_float {
                    *sum_f += *x as f64;
                }
            }
            (Accumulator::Numeric { .. }, Value::Float(x)) => self.add_float(*x),
            (Accumulator::Numeric { kind, .. }, other) => {
                return Err(not_numeric(*kind, other.data_type()))
            }
            (Accumulator::Extreme { kind, best }, v) => {
                let wins = best.as_ref().is_none_or(|b| match kind {
                    AggKind::Min => v < b,
                    _ => v > b,
                });
                if wins {
                    *best = Some(v.clone());
                }
            }
            (
                Accumulator::Edge {
                    kind: AggKind::First,
                    value,
                },
                v,
            ) => {
                if value.is_none() {
                    *value = Some(v.clone());
                }
            }
            (Accumulator::Edge { value, .. }, v) => *value = Some(v.clone()),
            (Accumulator::Distinct(seen), v) => {
                seen.insert(v.clone());
            }
            (Accumulator::Collected(items), v) => items.push(v.to_string()),
        }
        Ok(())
    }

    /// Fold a float input into a `sum`/`avg` state.
    fn add_float(&mut self, x: f64) {
        if let Accumulator::Numeric {
            count,
            sum_i,
            wraps,
            sum_f,
            saw_float,
            ..
        } = self
        {
            *count += 1;
            if !*saw_float {
                *saw_float = true;
                *sum_f = exact(*sum_i, *wraps) as f64;
            }
            *sum_f += x;
        }
    }

    /// [`update`](Accumulator::update) of a string cell, allocating only
    /// when the state has to keep the string. `sum`/`avg` parse it —
    /// schema-light CSV columns are often `Utf8` but numeric in content —
    /// and always yield a float.
    pub(crate) fn see_str(&mut self, s: &str) -> Result<()> {
        match self {
            Accumulator::Numeric { kind, .. } => {
                let f = s
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| not_numeric(*kind, DataType::Utf8))?;
                self.add_float(f);
            }
            Accumulator::Count { n, .. } => *n += 1,
            Accumulator::Extreme { kind, best } => {
                let ord = match best {
                    None => None,
                    Some(Value::Str(b)) => Some(s.cmp(b.as_str())),
                    // Strings rank above every other type.
                    Some(_) => Some(std::cmp::Ordering::Greater),
                };
                let wins = match (ord, *kind) {
                    (None, _) => true,
                    (Some(ord), AggKind::Min) => ord.is_lt(),
                    (Some(ord), _) => ord.is_gt(),
                };
                if wins {
                    *best = Some(Value::Str(s.to_string()));
                }
            }
            Accumulator::Edge {
                kind: AggKind::First,
                value,
            } => {
                if value.is_none() {
                    *value = Some(Value::Str(s.to_string()));
                }
            }
            Accumulator::Edge { value, .. } => match value {
                Some(Value::Str(held)) => {
                    held.clear();
                    held.push_str(s);
                }
                _ => *value = Some(Value::Str(s.to_string())),
            },
            Accumulator::Distinct(seen) => {
                seen.insert(Value::Str(s.to_string()));
            }
            Accumulator::Collected(items) => items.push(s.to_string()),
        }
        Ok(())
    }

    /// Fold another accumulator's partial state into this one. `other`
    /// must cover rows that come *after* this accumulator's rows in the
    /// original input — order-sensitive aggregates (`first`, `last`,
    /// `collect`) concatenate in call order, which is what makes
    /// partition-ordered scatter/gather byte-identical to a single pass.
    /// Integer sums merge exactly; a float sum merged is a sum of sums.
    pub fn merge(&mut self, other: Accumulator) -> Result<()> {
        let kind = self.kind();
        if kind != other.kind() {
            return Err(TabularError::TypeMismatch {
                expected: kind.to_string(),
                actual: other.kind().to_string(),
                context: "accumulator merge".into(),
            });
        }
        use Accumulator::*;
        match (self, other) {
            (
                Numeric {
                    count,
                    sum_i,
                    wraps,
                    sum_f,
                    saw_float,
                    ..
                },
                Numeric {
                    count: c,
                    sum_i: i,
                    wraps: w,
                    sum_f: f,
                    saw_float: s,
                    ..
                },
            ) => {
                *count += c;
                let later = if s { f } else { exact(i, w) as f64 };
                if !*saw_float && s {
                    *sum_f = exact(*sum_i, *wraps) as f64;
                }
                if *saw_float || s {
                    *sum_f += later;
                }
                add_exact(sum_i, wraps, i);
                *wraps += w;
                *saw_float |= s;
            }
            (Count { n, .. }, Count { n: m, .. }) => *n += m,
            (Extreme { best, .. }, Extreme { best: Some(v), .. }) => {
                let wins = best.as_ref().is_none_or(|b| match kind {
                    AggKind::Min => &v < b,
                    _ => &v > b,
                });
                if wins {
                    *best = Some(v);
                }
            }
            (Edge { value, .. }, Edge { value: v, .. }) => {
                let takes = match kind {
                    AggKind::First => value.is_none(),
                    _ => v.is_some(),
                };
                if takes {
                    *value = v;
                }
            }
            (Distinct(seen), Distinct(more)) => seen.extend(more),
            (Collected(items), Collected(more)) => items.extend(more),
            // The same kind with nothing to fold in.
            _ => {}
        }
        Ok(())
    }

    /// Produce the final aggregate value of input `column`. An integer
    /// `sum` whose exact total leaves `i64` is a
    /// [`TabularError::Overflow`]. An `avg` over integers only is their
    /// exact sum, rounded once, over the count — the same bits whatever
    /// the fold order or partial split — and has no such limit.
    pub fn finish(self, column: &str) -> Result<Value> {
        Ok(match self {
            Accumulator::Numeric { count: 0, .. } => Value::Null,
            Accumulator::Numeric {
                kind,
                count,
                sum_i,
                wraps,
                sum_f,
                saw_float,
            } => match (kind, saw_float) {
                (AggKind::Avg, true) => Value::Float(sum_f / count as f64),
                (AggKind::Avg, false) => Value::Float(exact(sum_i, wraps) as f64 / count as f64),
                (_, true) => Value::Float(sum_f),
                (_, false) if wraps == 0 => Value::Int(sum_i),
                (_, false) => {
                    return Err(TabularError::Overflow {
                        aggregate: kind.name(),
                        column: column.to_string(),
                    })
                }
            },
            Accumulator::Count { n, .. } => Value::Int(n),
            Accumulator::Extreme { best: held, .. } | Accumulator::Edge { value: held, .. } => {
                held.unwrap_or(Value::Null)
            }
            Accumulator::Distinct(seen) => Value::Int(seen.len() as i64),
            Accumulator::Collected(items) => Value::Str(items.join(",")),
        })
    }
}

/// The integer `sum + wraps·2^64`.
#[inline]
pub(crate) fn exact(sum: i64, wraps: i64) -> i128 {
    i128::from(sum) + (i128::from(wraps) << 64)
}

/// `sum += x` on the exact integer `sum + wraps·2^64`. The wrap branch is
/// never taken while sums stay in range.
#[inline]
pub(crate) fn add_exact(sum: &mut i64, wraps: &mut i64, x: i64) {
    let (wrapped, over) = sum.overflowing_add(x);
    *sum = wrapped;
    if over {
        *wraps += if x < 0 { -1 } else { 1 };
    }
}

fn not_numeric(kind: AggKind, actual: DataType) -> TabularError {
    TabularError::TypeMismatch {
        expected: "numeric".into(),
        actual: actual.to_string(),
        context: format!("{kind} aggregate"),
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

    fn run(kind: AggKind, vals: &[Value]) -> Value {
        let mut acc = kind.accumulator();
        for v in vals {
            acc.update(v).unwrap();
        }
        acc.finish("v").unwrap()
    }

    #[test]
    fn sum_stays_integer_for_ints() {
        let v = run(AggKind::Sum, &[Value::Int(1), Value::Int(2), Value::Null]);
        assert_eq!(v, Value::Int(3));
        let v = run(AggKind::Sum, &[Value::Int(1), Value::Float(0.5)]);
        assert_eq!(v, Value::Float(1.5));
    }

    #[test]
    fn sum_parses_numeric_strings() {
        let v = run(
            AggKind::Sum,
            &[Value::Str("10".into()), Value::Str("2.5".into())],
        );
        assert_eq!(v, Value::Float(12.5));
    }

    #[test]
    fn sum_rejects_non_numeric() {
        let mut acc = AggKind::Sum.accumulator();
        assert!(acc.update(&Value::Str("abc".into())).is_err());
    }

    #[test]
    fn count_vs_count_all() {
        let vals = [Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggKind::Count, &vals), Value::Int(2));
        assert_eq!(run(AggKind::CountAll, &vals), Value::Int(3));
    }

    #[test]
    fn avg_min_max() {
        let vals = [Value::Int(2), Value::Int(4), Value::Null];
        assert_eq!(run(AggKind::Avg, &vals), Value::Float(3.0));
        assert_eq!(run(AggKind::Min, &vals), Value::Int(2));
        assert_eq!(run(AggKind::Max, &vals), Value::Int(4));
    }

    #[test]
    fn empty_group_yields_null_or_zero() {
        assert_eq!(run(AggKind::Sum, &[]), Value::Null);
        assert_eq!(run(AggKind::Avg, &[]), Value::Null);
        assert_eq!(run(AggKind::Count, &[]), Value::Int(0));
        assert_eq!(run(AggKind::Min, &[]), Value::Null);
    }

    #[test]
    fn first_last_collect_distinct() {
        let vals = [
            Value::Str("a".into()),
            Value::Null,
            Value::Str("b".into()),
            Value::Str("a".into()),
        ];
        assert_eq!(run(AggKind::First, &vals), Value::Str("a".into()));
        assert_eq!(run(AggKind::Last, &vals), Value::Str("a".into()));
        assert_eq!(run(AggKind::CountDistinct, &vals), Value::Int(2));
        assert_eq!(run(AggKind::Collect, &vals), Value::Str("a,b,a".into()));
    }

    #[test]
    fn merged_partials_match_single_pass() {
        // Every split point of every aggregate kind must agree with the
        // single-accumulator result — the scatter/gather invariant.
        let vals = [
            Value::Int(3),
            Value::Null,
            Value::Str("b".into()),
            Value::Str("a".into()),
            Value::Float(1.5),
            Value::Int(3),
        ];
        for kind in [
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
            // Sum/Avg reject the non-numeric strings; use numeric data.
            let data: Vec<Value> = if matches!(kind, AggKind::Sum | AggKind::Avg) {
                vec![Value::Int(3), Value::Null, Value::Float(1.5), Value::Int(3)]
            } else {
                vals.to_vec()
            };
            let mut whole = kind.accumulator();
            for v in &data {
                whole.update(v).unwrap();
            }
            let expect = whole.finish("v").unwrap();
            for split in 0..=data.len() {
                let mut left = kind.accumulator();
                for v in &data[..split] {
                    left.update(v).unwrap();
                }
                let mut right = kind.accumulator();
                for v in &data[split..] {
                    right.update(v).unwrap();
                }
                left.merge(right).unwrap();
                assert_eq!(left.finish("v").unwrap(), expect, "{kind} split at {split}");
            }
        }
    }

    #[test]
    fn an_integer_sum_past_i64_is_an_error_whatever_the_split() {
        let over = [Value::Int(i64::MAX), Value::Int(1)];
        let err = TabularError::Overflow {
            aggregate: "sum",
            column: "v".into(),
        };
        let mut acc = AggKind::Sum.accumulator();
        over.iter().for_each(|v| acc.update(v).unwrap());
        assert_eq!(acc.finish("v"), Err(err.clone()));
        // A partial that leaves the range and comes back is exact.
        let back = [Value::Int(i64::MAX), Value::Int(1), Value::Int(-2)];
        assert_eq!(run(AggKind::Sum, &back), Value::Int(i64::MAX - 1));
        // The same verdict from merged partials, at every split.
        for (vals, want) in [
            (&over[..], Err(err)),
            (&back[..], Ok(Value::Int(i64::MAX - 1))),
        ] {
            for split in 0..=vals.len() {
                let mut left = AggKind::Sum.accumulator();
                vals[..split].iter().for_each(|v| left.update(v).unwrap());
                let mut right = AggKind::Sum.accumulator();
                vals[split..].iter().for_each(|v| right.update(v).unwrap());
                left.merge(right).unwrap();
                assert_eq!(left.finish("v"), want, "split at {split}");
            }
        }
        // `avg` rounds the exact sum once; a float input makes `sum` a float.
        assert_eq!(
            run(AggKind::Avg, &over),
            Value::Float((i64::MAX as f64 + 1.0) / 2.0)
        );
        let mixed = [Value::Int(i64::MAX), Value::Int(1), Value::Float(0.5)];
        assert!(matches!(run(AggKind::Sum, &mixed), Value::Float(_)));
    }

    #[test]
    fn an_integer_avg_rounds_the_exact_sum_once_whatever_the_split() {
        let big = Value::Int(1 << 53);
        let one = Value::Int(1);
        let vals = [big, one.clone(), one.clone(), one];
        // 2^53 + 3 rounds to 2^53 + 4; a running float sum stays at 2^53.
        let want = Value::Float(2251799813685249.0);
        assert_eq!(run(AggKind::Avg, &vals), want);
        for split in 0..=vals.len() {
            let mut left = AggKind::Avg.accumulator();
            vals[..split].iter().for_each(|v| left.update(v).unwrap());
            let mut right = AggKind::Avg.accumulator();
            vals[split..].iter().for_each(|v| right.update(v).unwrap());
            left.merge(right).unwrap();
            assert_eq!(left.finish("v").unwrap(), want, "split at {split}");
        }
        // A float sum starts from the exact integer sum so far, rounded once.
        let mixed = [
            Value::Int(1 << 53),
            Value::Int(1),
            Value::Int(1),
            Value::Float(0.0),
        ];
        assert_eq!(run(AggKind::Sum, &mixed), Value::Float(9007199254740994.0));
    }

    #[test]
    fn merge_rejects_kind_mismatch() {
        let mut a = AggKind::Sum.accumulator();
        assert!(a.merge(AggKind::Count.accumulator()).is_err());
    }

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
