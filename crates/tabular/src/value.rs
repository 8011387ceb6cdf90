//! Scalar [`Value`] type: the dynamically typed cell used at row boundaries
//! (payload decoding, expression literals, group keys, the server API).

use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single dynamically typed cell value.
///
/// `Value` implements total ordering and hashing (floats are ordered via
/// their IEEE total order and NaN hashes to a fixed bucket) so values can be
/// used directly as group-by and join keys.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style null / missing value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Calendar date as days since the Unix epoch.
    Date(i32),
}

impl Value {
    /// The logical type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int64,
            Value::Float(_) => DataType::Float64,
            Value::Str(_) => DataType::Utf8,
            Value::Date(_) => DataType::Date,
        }
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a boolean, if the value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interpret as an `i64` without loss: a float must be whole and in
    /// range, where `as` would saturate.
    pub fn as_int(&self) -> Option<i64> {
        const TWO_63: f64 = 9_223_372_036_854_775_808.0;
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && (-TWO_63..TWO_63).contains(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Interpret as an `f64`, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Borrow the string payload, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Interpret as a date (days since epoch).
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Parse a raw textual token into the most specific value type: the
    /// owned form of [`Inferred::of`], which holds the rule.
    pub fn infer(token: &str) -> Value {
        Inferred::of(token).to_value()
    }

    /// Coerce this value to the target type, or error when lossy in a way
    /// that matters (non-numeric string to number, etc.).
    pub fn coerce(&self, target: DataType) -> Result<Value> {
        let fail = || TabularError::ValueConversion {
            value: self.to_string(),
            target: target.name(),
        };
        if self.is_null() {
            return Ok(Value::Null);
        }
        Ok(match (self, target) {
            (v, t) if v.data_type() == t => v.clone(),
            (Value::Int(i), DataType::Float64) => Value::Float(*i as f64),
            (Value::Float(_), DataType::Int64) => Value::Int(self.as_int().ok_or_else(fail)?),
            (Value::Str(s), DataType::Int64) => {
                Value::Int(s.trim().parse::<i64>().map_err(|_| fail())?)
            }
            (Value::Str(s), DataType::Float64) => {
                Value::Float(s.trim().parse::<f64>().map_err(|_| fail())?)
            }
            (Value::Str(s), DataType::Bool) => match s.trim() {
                "true" | "TRUE" | "True" | "1" => Value::Bool(true),
                "false" | "FALSE" | "False" | "0" => Value::Bool(false),
                _ => return Err(fail()),
            },
            (v, DataType::Utf8) => Value::Str(v.to_string()),
            _ => return Err(fail()),
        })
    }

    /// Total-order comparison key for floats (IEEE totalOrder via bit
    /// manipulation).
    pub(crate) fn float_key(f: f64) -> i64 {
        let bits = f.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }

    /// Rank of the value's type for cross-type ordering: nulls first, then
    /// bools, numbers, dates, strings.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Date(_) => 3,
            Value::Str(_) => 4,
        }
    }
}

fn looks_numeric(t: &str) -> bool {
    let mut chars = t.chars();
    let first = chars.next().unwrap_or(' ');
    (first.is_ascii_digit() || first == '-' || first == '+' || first == '.')
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => Value::float_key(*a).cmp(&Value::float_key(*b)),
            (Int(a), Float(b)) => Value::float_key(*a as f64).cmp(&Value::float_key(*b)),
            (Float(a), Int(b)) => Value::float_key(*a).cmp(&Value::float_key(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and whole floats must hash identically because they
            // compare equal (`Int(2) == Float(2.0)` via numeric ordering).
            Value::Int(i) => {
                2u8.hash(state);
                Value::float_key(*i as f64).hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                Value::float_key(*f).hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

/// What a payload reader (CSV, XML attribute text) infers from one raw
/// token, borrowing the text: [`Value::infer`] without the allocation, so
/// a reader can settle a column's type before it copies any cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inferred<'a> {
    /// Empty or all-blank token.
    Null,
    /// `true`/`false` in one of the accepted spellings.
    Bool(bool),
    /// A token that parses as an `i64`.
    Int(i64),
    /// A numeric-looking token that parses as an `f64`.
    Float(f64),
    /// Anything else, trimmed.
    Str(&'a str),
}

impl<'a> Inferred<'a> {
    /// The inference rule applied per cell: empty string ⇒ null, then
    /// bool, then int, then float, falling back to string. ISO dates
    /// (`yyyy-MM-dd`) stay strings here — the paper's pipelines normalise
    /// dates explicitly with the `date` map operator, and implicit date
    /// coercion would fight that model.
    pub fn of(token: &'a str) -> Inferred<'a> {
        let t = token.trim();
        if t.is_empty() {
            return Inferred::Null;
        }
        match t {
            "true" | "TRUE" | "True" => return Inferred::Bool(true),
            "false" | "FALSE" | "False" => return Inferred::Bool(false),
            _ => {}
        }
        if let Ok(i) = t.parse::<i64>() {
            return Inferred::Int(i);
        }
        if looks_numeric(t) {
            if let Ok(f) = t.parse::<f64>() {
                return Inferred::Float(f);
            }
        }
        Inferred::Str(t)
    }

    /// The logical type of the cell.
    pub fn data_type(&self) -> DataType {
        match self {
            Inferred::Null => DataType::Null,
            Inferred::Bool(_) => DataType::Bool,
            Inferred::Int(_) => DataType::Int64,
            Inferred::Float(_) => DataType::Float64,
            Inferred::Str(_) => DataType::Utf8,
        }
    }

    /// The owned value.
    pub fn to_value(self) -> Value {
        match self {
            Inferred::Null => Value::Null,
            Inferred::Bool(b) => Value::Bool(b),
            Inferred::Int(i) => Value::Int(i),
            Inferred::Float(f) => Value::Float(f),
            Inferred::Str(s) => Value::Str(s.to_string()),
        }
    }
}

/// Renders as the equivalent [`Value`] does.
impl fmt::Display for Inferred<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inferred::Null => Ok(()),
            Inferred::Bool(b) => write!(f, "{b}"),
            Inferred::Int(i) => write!(f, "{i}"),
            Inferred::Float(v) => fmt_float(*v, f),
            Inferred::Str(s) => f.write_str(s),
        }
    }
}

/// A float as cells render it: whole values keep one decimal place.
fn fmt_float(v: f64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
        write!(f, "{v:.1}")
    } else {
        write!(f, "{v}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str(""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => fmt_float(*v, f),
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => {
                let (y, m, day) = crate::datefmt::civil_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn infer_rules() {
        assert_eq!(Value::infer(""), Value::Null);
        assert_eq!(Value::infer("  "), Value::Null);
        assert_eq!(Value::infer("true"), Value::Bool(true));
        assert_eq!(Value::infer("42"), Value::Int(42));
        assert_eq!(Value::infer("-3"), Value::Int(-3));
        assert_eq!(Value::infer("2.5"), Value::Float(2.5));
        assert_eq!(Value::infer("1e3"), Value::Float(1000.0));
        assert_eq!(Value::infer("pig"), Value::Str("pig".into()));
        // Date-looking strings stay strings: normalisation is explicit.
        assert_eq!(Value::infer("2013-05-02"), Value::Str("2013-05-02".into()));
        // Things that look vaguely numeric but are not.
        assert_eq!(Value::infer("1.2.3"), Value::Str("1.2.3".into()));
    }

    #[test]
    fn int_float_numeric_equality_and_hash_agree() {
        let a = Value::Int(2);
        let b = Value::Float(2.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_is_self_equal_and_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan);
        assert_eq!(hash_of(&nan), hash_of(&nan));
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn cross_type_ordering_is_total() {
        let mut vals = [
            Value::Str("a".into()),
            Value::Null,
            Value::Int(1),
            Value::Bool(true),
            Value::Date(0),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[4], Value::Str("a".into()));
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Str("12".into()).coerce(DataType::Int64).unwrap(),
            Value::Int(12)
        );
        assert_eq!(
            Value::Int(3).coerce(DataType::Float64).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Float(3.0).coerce(DataType::Int64).unwrap(),
            Value::Int(3)
        );
        assert!(Value::Float(3.5).coerce(DataType::Int64).is_err());
        // Whole floats outside `i64` do not saturate to its ends.
        let two_63 = 2f64.powi(63);
        assert!(Value::Float(two_63).coerce(DataType::Int64).is_err());
        assert!(Value::Float(-2.0 * two_63).coerce(DataType::Int64).is_err());
        assert_eq!(
            Value::Float(-two_63).coerce(DataType::Int64).unwrap(),
            Value::Int(i64::MIN)
        );
        assert!(Value::Str("x".into()).coerce(DataType::Int64).is_err());
        assert_eq!(
            Value::Int(7).coerce(DataType::Utf8).unwrap(),
            Value::Str("7".into())
        );
        assert_eq!(Value::Null.coerce(DataType::Int64).unwrap(), Value::Null);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Date(0).to_string(), "1970-01-01");
    }
}
