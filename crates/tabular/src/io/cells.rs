//! Table cells to text: the one writer behind every JSON body and CSV file.
//!
//! A [`CellWriter`] resolves each column of a table once — its typed buffer
//! and, only when the column holds a null, its validity bitmap — and then
//! writes rows of cells straight from those buffers. Each cell type has its
//! own rule, and each rule spells a cell byte for byte as the `Display` it
//! replaces:
//!
//! * `Int64`: digits from a stack buffer, two at a time from a table of
//!   the 100 digit pairs (`i64::MIN` through `unsigned_abs`).
//! * `Date`: `civil_from_days` and a fixed-width `yyyy-mm-dd` from the
//!   same pairs for the years 0–9999; any other year goes through
//!   [`Value`]'s `Display`.
//! * `Float64`: a shortest-decimal fast path for finite `0 < |x| < 1e9`
//!   with at most six fractional digits (`write_short_decimal` below);
//!   zero, non-finite values and everything else go through `Display`.
//! * `Utf8`: JSON escaping, or CSV's quote-when-needed rule. The column's
//!   bytes are scanned once up front; when no cell needs either, cells are
//!   copied straight through.
//!
//! The two [`Dialect`]s differ in four places only: a null cell (`null`
//! against nothing), a non-finite float (`null` against `NaN`/`inf`), a
//! whole float (JSON's `3` against CSV's `3.0`, the `.0` that
//! [`Value`]'s `Display` keeps below 1e15) and how a string is quoted.

use crate::bitmap::Bitmap;
use crate::column::{Column, StrBuf};
use crate::datefmt::civil_from_days;
use crate::io::json::write_json_quoted;
use crate::table::Table;
use crate::value::Value;
use std::fmt::Write;

/// How cells are spelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// The data API's JSON rows: `null` for a null or non-finite cell,
    /// quoted strings and dates, a float as `f64`'s `Display` writes it.
    Json,
    /// CSV with this separator: nothing for a null, a float as [`Value`]'s
    /// `Display` writes it, a cell quoted when it holds the separator, a
    /// quote or a line break.
    Csv(char),
}

/// One column's typed buffer, resolved once per table.
enum Cells<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a StrBuf),
    Date(&'a [i32]),
    Null,
}

struct Resolved<'a> {
    cells: Cells<'a>,
    /// The validity bitmap, kept only when some cell is null.
    nulls: Option<&'a Bitmap>,
    /// A string column none of whose cells the dialect escapes or quotes.
    clean: bool,
}

/// Writes a table's rows of cells in one [`Dialect`].
pub struct CellWriter<'a> {
    columns: Vec<Resolved<'a>>,
    dialect: Dialect,
    /// CSV only: the separator can occur in a number, a date or a bool
    /// (`.`, `-`, a digit or a letter), so those cells take the string
    /// quoting rule too.
    quote_typed: bool,
    /// Rough bytes per row, for [`CellWriter::size_hint`].
    row_bytes: usize,
}

impl<'a> CellWriter<'a> {
    /// Resolve every column of `table` for writing in `dialect`, scanning
    /// each `Utf8` column once for cells the dialect escapes or quotes.
    pub fn new(table: &'a Table, dialect: Dialect) -> CellWriter<'a> {
        let clean: Vec<bool> = table
            .columns()
            .iter()
            .map(|col| match (col.as_ref(), dialect) {
                (Column::Utf8 { data, .. }, Dialect::Json) => !data
                    .joined()
                    .bytes()
                    .any(|b| b < 0x20 || b == b'"' || b == b'\\'),
                (Column::Utf8 { data, .. }, Dialect::Csv(sep)) => {
                    !needs_quoting(data.joined(), sep)
                }
                _ => false,
            })
            .collect();
        CellWriter::with_clean(table, dialect, &clean)
    }

    /// Per column, whether this writer copies its cells straight through:
    /// what [`CellWriter::with_clean`] takes to resolve the same table
    /// again without scanning it.
    pub fn clean(&self) -> Vec<bool> {
        self.columns.iter().map(|col| col.clean).collect()
    }

    /// [`CellWriter::new`] with the per-column verdicts a writer of the
    /// same table and dialect reported ([`CellWriter::clean`]), so no
    /// column is scanned twice — what each morsel of a partitioned body
    /// resolves its columns with.
    pub fn with_clean(table: &'a Table, dialect: Dialect, clean: &[bool]) -> CellWriter<'a> {
        assert_eq!(clean.len(), table.num_columns(), "one verdict a column");
        let rows = table.num_rows().max(1);
        let mut row_bytes = 2;
        let columns = table
            .columns()
            .iter()
            .zip(clean)
            .map(|(col, &clean)| {
                let (cells, width) = match col.as_ref() {
                    Column::Bool { data, .. } => (Cells::Bool(data), 6),
                    Column::Int64 { data, .. } => (Cells::Int(data), 8),
                    Column::Float64 { data, .. } => (Cells::Float(data), 10),
                    Column::Utf8 { data, .. } => (Cells::Str(data), data.byte_len() / rows + 4),
                    Column::Date { data, .. } => (Cells::Date(data), 14),
                    Column::Null { .. } => (Cells::Null, 6),
                };
                row_bytes += width;
                Resolved {
                    cells,
                    nulls: col.validity_ref().filter(|v| !v.all_set()),
                    clean,
                }
            })
            .collect();
        let quote_typed = match dialect {
            Dialect::Csv(sep) => sep.is_ascii_alphanumeric() || sep == '.' || sep == '-',
            Dialect::Json => false,
        };
        CellWriter {
            columns,
            dialect,
            quote_typed,
            row_bytes,
        }
    }

    /// A capacity for `rows` rows of output: rows × the columns' typical
    /// cell widths.
    pub fn size_hint(&self, rows: usize) -> usize {
        rows * self.row_bytes
    }

    /// Append row `r`'s cells to `out`, `delimiter` between two cells.
    pub fn write_row(&self, out: &mut String, r: usize, delimiter: &str) {
        for (c, col) in self.columns.iter().enumerate() {
            if c > 0 {
                out.push_str(delimiter);
            }
            if col.nulls.is_some_and(|v| !v.get(r)) {
                self.write_null(out);
                continue;
            }
            match (&col.cells, self.dialect) {
                (Cells::Null, _) => self.write_null(out),
                (Cells::Str(data), Dialect::Json) if col.clean => {
                    out.push('"');
                    out.push_str(&data[r]);
                    out.push('"');
                }
                (Cells::Str(data), Dialect::Csv(_)) if col.clean => out.push_str(&data[r]),
                (Cells::Str(data), Dialect::Json) => write_json_quoted(out, &data[r]),
                (Cells::Str(data), Dialect::Csv(sep)) => write_csv_field(out, &data[r], sep),
                (Cells::Date(data), Dialect::Json) => {
                    out.push('"');
                    write_date(out, data[r]);
                    out.push('"');
                }
                (cells, Dialect::Csv(sep)) if self.quote_typed => {
                    let mut cell = String::new();
                    self.write_typed(&mut cell, cells, r);
                    write_csv_field(out, &cell, sep);
                }
                (cells, _) => self.write_typed(out, cells, r),
            }
        }
    }

    fn write_null(&self, out: &mut String) {
        if self.dialect == Dialect::Json {
            out.push_str("null");
        }
    }

    /// A non-null bool, number or date, unquoted.
    fn write_typed(&self, out: &mut String, cells: &Cells<'_>, r: usize) {
        match cells {
            Cells::Bool(data) => out.push_str(if data[r] { "true" } else { "false" }),
            Cells::Int(data) => write_int(out, data[r]),
            Cells::Float(data) => write_float(out, data[r], self.dialect),
            Cells::Date(data) => write_date(out, data[r]),
            Cells::Str(_) | Cells::Null => unreachable!("written by write_row"),
        }
    }
}

/// Does a CSV field need quoting under separator `sep`?
fn needs_quoting(s: &str, sep: char) -> bool {
    s.contains(sep) || s.contains('"') || s.contains('\n') || s.contains('\r')
}

/// Append `s` as one CSV field: as is, or quoted with its quotes doubled.
pub(crate) fn write_csv_field(out: &mut String, s: &str, sep: char) {
    if needs_quoting(s, sep) {
        out.push('"');
        out.push_str(&s.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// The decimal digit pairs `00` to `99`, end to end.
const PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// The two digits of `n` < 100.
fn pair(n: u64) -> [u8; 2] {
    let at = 2 * n as usize;
    [PAIRS[at], PAIRS[at + 1]]
}

/// Up to 24 ASCII bytes — a sign and twenty digits, or a sign, nine
/// digits, a point and six — filled from the back.
struct Digits {
    bytes: [u8; 24],
    start: usize,
}

impl Digits {
    fn new() -> Digits {
        Digits {
            bytes: [0; 24],
            start: 24,
        }
    }

    fn push_front(&mut self, b: u8) {
        self.start -= 1;
        self.bytes[self.start] = b;
    }

    fn push_pair(&mut self, n: u64) {
        self.start -= 2;
        self.bytes[self.start..self.start + 2].copy_from_slice(&pair(n));
    }

    /// The last `k` decimal digits of `n`, zero-padded; returns what is
    /// left of `n`.
    fn low_digits(&mut self, mut n: u64, mut k: usize) -> u64 {
        while k >= 2 {
            self.push_pair(n % 100);
            n /= 100;
            k -= 2;
        }
        if k == 1 {
            self.push_front(b'0' + (n % 10) as u8);
            n /= 10;
        }
        n
    }

    /// `n` in decimal.
    fn number(&mut self, mut n: u64) {
        while n >= 100 {
            self.push_pair(n % 100);
            n /= 100;
        }
        if n >= 10 {
            self.push_pair(n);
        } else {
            self.push_front(b'0' + n as u8);
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[self.start..]).expect("ASCII digits")
    }
}

/// An integer cell, as `i64`'s `Display` writes it.
fn write_int(out: &mut String, x: i64) {
    let mut d = Digits::new();
    d.number(x.unsigned_abs());
    if x < 0 {
        d.push_front(b'-');
    }
    out.push_str(d.as_str());
}

/// A date cell, as [`Value::Date`]'s `Display` writes it: `yyyy-mm-dd`,
/// with `{y:04}` for the year.
fn write_date(out: &mut String, days: i32) {
    let (y, m, d) = civil_from_days(days);
    if !(0..=9999).contains(&y) {
        write!(out, "{}", Value::Date(days)).expect("writing to a String cannot fail");
        return;
    }
    let y = y as u64;
    let ([y0, y1], [y2, y3]) = (pair(y / 100), pair(y % 100));
    let ([m0, m1], [d0, d1]) = (pair(u64::from(m)), pair(u64::from(d)));
    let text = [y0, y1, y2, y3, b'-', m0, m1, b'-', d0, d1];
    out.push_str(std::str::from_utf8(&text).expect("ASCII digits"));
}

/// A float cell. JSON writes `f64`'s `Display` and `null` for a non-finite
/// value; CSV writes [`Value::Float`]'s `Display`, which keeps one decimal
/// place on a whole value below 1e15.
fn write_float(out: &mut String, x: f64, dialect: Dialect) {
    let whole_suffix = match dialect {
        Dialect::Json if !x.is_finite() => return out.push_str("null"),
        Dialect::Json => "",
        Dialect::Csv(_) => ".0",
    };
    if !write_short_decimal(out, x, whole_suffix) {
        let written = match dialect {
            Dialect::Json => write!(out, "{x}"),
            Dialect::Csv(_) => write!(out, "{}", Value::Float(x)),
        };
        written.expect("writing to a String cannot fail");
    }
}

/// The fast path's range: below it every float is within 1.2e-7 of its
/// neighbours, so a decimal with six fractional digits is unique.
const FAST_RANGE: f64 = 1e9;

/// Append `f64`'s `Display` of `x` for finite `0 < |x| < 1e9` that some
/// decimal with at most six fractional digits parses back to (with
/// `whole_suffix` after a whole value); `false`, with nothing written, for
/// any other `x`.
///
/// With `m = round(|x|·10^6)`, the test is `m / 10^6 == |x|`, and the
/// string is `m·10^-6` with its trailing zeros dropped. This is `Display`'s
/// shortest round-trip string:
///
/// * `m < 1e15` and `10^6` are exact `f64`s and IEEE division rounds
///   correctly, so the test says exactly "the decimal `m·10^-6` parses back
///   to `x`".
/// * Below 1e9 the gap between neighbouring floats is under 1.2e-7, so at
///   most one decimal with six fractional digits parses back to `x`; when
///   one does, `|x|·10^6` is within 0.2 of it and `round` finds it.
/// * A decimal with `k` ≤ 6 fractional digits that parses back to `x` is
///   also one with six, so it is `m·10^-6`: the shortest one is `m·10^-6`
///   without its trailing zeros. (This is the first hit of trying `k =
///   0..=6` in turn, found with one division.) Fewer fractional digits
///   means fewer significant digits, so it is `Display`'s string.
fn write_short_decimal(out: &mut String, x: f64, whole_suffix: &str) -> bool {
    let ax = x.abs();
    if !(ax > 0.0 && ax < FAST_RANGE) {
        return false;
    }
    let m = (ax * 1e6).round();
    if m / 1e6 != ax {
        return false;
    }
    let (mut m, mut k) = (m as u64, 6);
    while k > 0 && m % 10 == 0 {
        m /= 10;
        k -= 1;
    }
    let mut d = Digits::new();
    if k > 0 {
        m = d.low_digits(m, k);
        d.push_front(b'.');
    }
    d.number(m);
    if x < 0.0 {
        d.push_front(b'-');
    }
    out.push_str(d.as_str());
    if k == 0 {
        out.push_str(whole_suffix);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// SplitMix64: a seeded stream with no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Each cell of a one-column table as the writer spells it.
    fn written(col: Column, dialect: Dialect) -> Vec<String> {
        let n = col.len();
        let ty = col.data_type();
        let t = Table::new(Schema::of(&[("c", ty)]), vec![col]).unwrap();
        let w = CellWriter::new(&t, dialect);
        (0..n)
            .map(|r| {
                let mut out = String::new();
                w.write_row(&mut out, r, ",");
                out
            })
            .collect()
    }

    #[test]
    fn digits_match_display_across_seeded_edges() {
        let mut rng = Rng(0x5eed);
        let mut ints = vec![
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            -1,
            0,
            9,
            10,
            99,
            100,
            -100,
        ];
        ints.extend((0..2000).map(|i| (rng.next() as i64) >> (i % 63)));
        let cells = written(Column::int(ints.iter().copied()), Dialect::Json);
        for (x, cell) in ints.iter().zip(&cells) {
            assert_eq!(*cell, Value::Int(*x).to_string());
        }

        // Years 0 and 9999 and their neighbours, and far outside 0–9999.
        let mut days = vec![-719_528, -719_529, 2_932_896, 2_932_897, 0, -1];
        days.extend((0..2000).map(|_| (rng.next() % 8_000_000) as i32 - 4_000_000));
        let col = Column::Date {
            validity: Bitmap::new_set(days.len()),
            data: days.clone(),
        };
        for (d, cell) in days.iter().zip(written(col, Dialect::Csv(','))) {
            assert_eq!(cell, Value::Date(*d).to_string(), "day {d}");
        }

        // The fast path's edges: just under and at 1e9, six fractional
        // digits and one more, the smallest six-digit fractions, and
        // random values on a 1e-6 grid.
        let mut floats = vec![
            999_999_999.999_999,
            999_999_999.0,
            1e9,
            1e9 - 1e-7,
            0.000_001,
            0.000_000_5,
            0.123_456_7,
            -0.000_001,
            123_456.5,
            1e15,
            1e21,
            f64::MIN_POSITIVE,
        ];
        floats.extend((0..2000).map(|_| {
            let m = (rng.next() % 2_000_000_000_000_000) as f64 - 1e15;
            m / 1e6
        }));
        floats.extend((0..500).map(|_| f64::from_bits(rng.next() >> 2)));
        let json = written(Column::float(floats.iter().copied()), Dialect::Json);
        let csv = written(Column::float(floats.iter().copied()), Dialect::Csv(','));
        for ((x, j), c) in floats.iter().zip(&json).zip(&csv) {
            assert_eq!(*j, format!("{x}"), "json {x:e}");
            assert_eq!(*c, Value::Float(*x).to_string(), "csv {x:e}");
        }
    }

    #[test]
    fn a_clean_column_is_copied_and_a_dirty_one_escaped() {
        let clean = written(Column::utf8(["a", "b c", ""]), Dialect::Json);
        assert_eq!(clean, ["\"a\"", "\"b c\"", "\"\""]);
        let dirty = written(Column::utf8(["a", "q\"", "t\tb"]), Dialect::Json);
        assert_eq!(dirty, ["\"a\"", "\"q\\\"\"", "\"t\\tb\""]);
        let csv = written(Column::utf8(["a", "x,y"]), Dialect::Csv(','));
        assert_eq!(csv, ["a", "\"x,y\""]);
    }
}
