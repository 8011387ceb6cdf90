//! Map operators: per-row column transformations (§4.2 task category 1,
//! "transforming a column value into another value").
//!
//! Four built-in operators cover the paper's pipelines:
//!
//! * [`map_date`] — parse+reformat dates (`operator: date`, figure 21);
//! * [`map_extract`] — dictionary extraction of canonical names
//!   (`operator: extract` with `dict: players.txt`);
//! * [`map_extract_location`] — gazetteer state extraction
//!   (`operator: extract_location`, `country: IND`);
//! * [`map_extract_words`] — word extraction for tag clouds
//!   (`operator: extract_words`). This one is row-expanding: one input row
//!   produces one output row per extracted word.
//!
//! All operators *add* an output column (or replace an existing one), never
//! mutate the input column — matching the paper's examples where `postedTime`
//! remains alongside the normalised `date`.

use crate::column::{Column, ColumnBuilder, StrBuf};
use crate::datatype::DataType;
use crate::datefmt::{civil_from_days, DatePattern, DateTime};
use crate::error::{Result, TabularError};
use crate::ops::keys::{group_ids, KeyColumn, RowSel};
use crate::table::Table;
use crate::text::{extract_words, ExtractDict, Gazetteer};

/// Configuration of a `date` map operator.
#[derive(Debug, Clone)]
pub struct DateMap {
    /// Column holding the raw date text (`transform:`).
    pub input_column: String,
    /// Java-style input pattern (`input_format:`).
    pub input_format: String,
    /// Java-style output pattern (`output_format:`).
    pub output_format: String,
    /// Output column name (`output:`).
    pub output_column: String,
    /// When true, unparseable inputs become null instead of failing the
    /// whole flow. Dirty real-world data (§5.2.2 observation 4) makes this
    /// the default.
    pub lenient: bool,
}

/// One output cell per *distinct* input cell, gathered back to the rows:
/// code `input`, call `cell(rep, out)` once per distinct non-null input —
/// `rep` is its first row; it appends the output cell to `out` and returns
/// true, or returns false for a null — and copy each row's cell by its
/// code. Null inputs give null outputs without a call. Returns the output
/// column and how many distinct inputs were mapped.
fn map_distinct(
    input: &Column,
    mut cell: impl FnMut(usize, &mut StrBuf) -> Result<bool>,
) -> Result<(Column, usize)> {
    let rows = RowSel::new(input.len(), None);
    let groups = group_ids(&[KeyColumn::Cells(input)], &rows);
    let is_null = |row: usize| input.validity_ref().is_none_or(|v| !v.get(row));
    let mut mapped = StrBuf::with_capacity(groups.reps.len(), 0);
    let mut present = Vec::with_capacity(groups.reps.len());
    for &rep in &groups.reps {
        let some = !is_null(rep as usize) && cell(rep as usize, &mut mapped)?;
        if !some {
            mapped.push("");
        }
        present.push(some);
    }
    let mut b = ColumnBuilder::with_capacity(DataType::Utf8, input.len());
    for &g in &groups.ids {
        if present[g as usize] {
            b.push_str(&mapped[g as usize]);
        } else {
            b.push_null();
        }
    }
    let distinct = present.len() - usize::from(input.null_count() > 0);
    Ok((b.finish(), distinct))
}

/// Apply a [`DateMap`].
pub fn map_date(table: &Table, cfg: &DateMap) -> Result<Table> {
    map_date_counted(table, cfg).map(|(out, _)| out)
}

/// [`map_date`], also returning how many distinct inputs were converted:
/// a column of 18k rows holds a few hundred dates, and each is parsed and
/// formatted once. `Utf8` cells are parsed with the input pattern; `Date`
/// cells are dates already and are formatted directly. Cells of any other
/// type cannot be dates: null in lenient mode, an error otherwise.
pub fn map_date_counted(table: &Table, cfg: &DateMap) -> Result<(Table, usize)> {
    let input = table.column(&cfg.input_column)?;
    let in_pat = DatePattern::compile(&cfg.input_format)?;
    let out_pat = DatePattern::compile(&cfg.output_format)?;
    let (column, distinct) = map_distinct(input, |rep, out| match input.as_ref() {
        Column::Utf8 { data, .. } => match in_pat.parse(&data[rep]) {
            Ok(dt) => {
                out.push_display(&out_pat.display(&dt.to_utc()));
                Ok(true)
            }
            Err(_) if cfg.lenient => Ok(false),
            Err(e) => Err(e),
        },
        Column::Date { data, .. } => {
            let (y, m, d) = civil_from_days(data[rep]);
            out.push_display(&out_pat.display(&DateTime::from_ymd(y, m, d)));
            Ok(true)
        }
        _ if cfg.lenient => Ok(false),
        other => Err(TabularError::TypeMismatch {
            expected: "utf8 date text".into(),
            actual: other.data_type().to_string(),
            context: format!("date map on '{}'", cfg.input_column),
        }),
    })?;
    Ok((table.with_column(&cfg.output_column, column)?, distinct))
}

/// Configuration of an `extract` map operator.
#[derive(Debug, Clone)]
pub struct ExtractMap {
    /// Column holding the text to scan (`transform:`).
    pub input_column: String,
    /// Dictionary of surface forms to canonical names (`dict:`).
    pub dict: ExtractDict,
    /// Output column (`output:`).
    pub output_column: String,
    /// When true, emit one row per extracted entity (a tweet mentioning two
    /// players counts for both); when false, keep the first match only.
    pub explode: bool,
}

/// Apply an [`ExtractMap`]. With `explode` the kernel is row-expanding and
/// drops rows with no matches; without it rows are preserved and misses are
/// null.
pub fn map_extract(table: &Table, cfg: &ExtractMap) -> Result<Table> {
    let input = table.column(&cfg.input_column)?;
    if cfg.explode {
        let mut indices: Vec<usize> = Vec::new();
        let mut values: Vec<String> = Vec::new();
        for i in 0..table.num_rows() {
            if let Some(text) = input.str_at(i) {
                for name in cfg.dict.extract_all(text) {
                    indices.push(i);
                    values.push(name.to_string());
                }
            }
        }
        let base = table.take(&indices);
        let mut b = ColumnBuilder::with_capacity(DataType::Utf8, values.len());
        for v in values {
            b.push_str(v);
        }
        base.with_column(&cfg.output_column, b.finish())
    } else {
        let mut b = ColumnBuilder::with_capacity(DataType::Utf8, table.num_rows());
        for i in 0..table.num_rows() {
            match input.str_at(i).and_then(|t| cfg.dict.extract_first(t)) {
                Some(name) => b.push_str(name),
                None => b.push_null(),
            }
        }
        table.with_column(&cfg.output_column, b.finish())
    }
}

/// Configuration of an `extract_location` map operator.
#[derive(Debug, Clone)]
pub struct LocationMap {
    /// Column holding the free-form location (`transform:`).
    pub input_column: String,
    /// Gazetteer to match against.
    pub gazetteer: Gazetteer,
    /// Country filter (`country: IND`).
    pub country: String,
    /// Output column (`output: state`).
    pub output_column: String,
}

/// Apply a [`LocationMap`]; unresolvable locations become null.
pub fn map_extract_location(table: &Table, cfg: &LocationMap) -> Result<Table> {
    map_extract_location_counted(table, cfg).map(|(out, _)| out)
}

/// [`map_extract_location`], also returning how many distinct inputs were
/// looked up: profile locations repeat, and each distinct one is matched
/// against the gazetteer once.
pub fn map_extract_location_counted(table: &Table, cfg: &LocationMap) -> Result<(Table, usize)> {
    let input = table.column(&cfg.input_column)?;
    let (column, distinct) = map_distinct(input, |rep, out| {
        let state = input
            .str_at(rep)
            .and_then(|loc| cfg.gazetteer.extract_state(loc, &cfg.country));
        Ok(state.map(|s| out.push(s)).is_some())
    })?;
    Ok((table.with_column(&cfg.output_column, column)?, distinct))
}

/// Configuration of an `extract_words` map operator.
#[derive(Debug, Clone)]
pub struct WordsMap {
    /// Column holding the text (`transform: body`).
    pub input_column: String,
    /// Output column (`output: word`).
    pub output_column: String,
    /// Minimum word length kept (default 3).
    pub min_len: usize,
}

/// Apply a [`WordsMap`]: row-expanding, one output row per content word.
pub fn map_extract_words(table: &Table, cfg: &WordsMap) -> Result<Table> {
    let input = table.column(&cfg.input_column)?;
    let mut indices: Vec<usize> = Vec::new();
    let mut words: Vec<String> = Vec::new();
    for i in 0..table.num_rows() {
        if let Some(text) = input.str_at(i) {
            for w in extract_words(text, cfg.min_len) {
                indices.push(i);
                words.push(w);
            }
        }
    }
    let base = table.take(&indices);
    let mut b = ColumnBuilder::with_capacity(DataType::Utf8, words.len());
    for w in words {
        b.push_str(w);
    }
    base.with_column(&cfg.output_column, b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::Value;

    fn tweets() -> Table {
        Table::from_rows(
            &["postedTime", "body", "displayName"],
            &[
                row![
                    "Thu May 02 19:30:05 +0530 2013",
                    "What a six by dhoni! csk all the way",
                    "Chennai, India"
                ],
                row![
                    "Fri May 03 10:00:00 +0530 2013",
                    "kohli and dhoni both brilliant tonight",
                    "Bangalore"
                ],
                row![
                    "Fri May 03 12:00:00 +0530 2013",
                    "weather is nice",
                    "London"
                ],
            ],
        )
        .unwrap()
    }

    fn players() -> ExtractDict {
        ExtractDict::parse("dhoni => MS Dhoni\nkohli => Virat Kohli")
    }

    #[test]
    fn date_map_normalises() {
        let out = map_date(
            &tweets(),
            &DateMap {
                input_column: "postedTime".into(),
                input_format: "E MMM dd HH:mm:ss Z yyyy".into(),
                output_format: "yyyy-MM-dd".into(),
                output_column: "date".into(),
                lenient: false,
            },
        )
        .unwrap();
        assert_eq!(
            out.value(0, "date").unwrap(),
            Value::Str("2013-05-02".into())
        );
        assert_eq!(
            out.value(1, "date").unwrap(),
            Value::Str("2013-05-03".into())
        );
        // Input column is preserved alongside.
        assert!(out.schema().contains("postedTime"));
    }

    #[test]
    fn date_map_lenient_nulls_bad_rows() {
        let t = Table::from_rows(&["d"], &[row!["2013-05-02"], row!["garbage"]]).unwrap();
        let cfg = DateMap {
            input_column: "d".into(),
            input_format: "yyyy-MM-dd".into(),
            output_format: "yyyy/MM/dd".into(),
            output_column: "out".into(),
            lenient: true,
        };
        let out = map_date(&t, &cfg).unwrap();
        assert_eq!(
            out.value(0, "out").unwrap(),
            Value::Str("2013/05/02".into())
        );
        assert!(out.value(1, "out").unwrap().is_null());
        // Strict mode errors instead.
        let strict = DateMap {
            lenient: false,
            ..cfg
        };
        assert!(map_date(&t, &strict).is_err());
    }

    #[test]
    fn date_map_formats_date_columns_directly() {
        // A `Date`-typed column (SQL, JSON or a cast produced it) holds
        // dates already; it used to come out all-null in lenient mode.
        let days = [16_000, 16_000, 16_031];
        let date = Column::Date {
            data: days.to_vec(),
            validity: Bitmap::from_bools(&[true, false, true]),
        };
        let t = Table::new(Schema::of(&[("d", DataType::Date)]), vec![date]).unwrap();
        for lenient in [true, false] {
            let cfg = DateMap {
                input_column: "d".into(),
                input_format: "yyyy-MM-dd".into(),
                output_format: "yyyy/MM".into(),
                output_column: "month".into(),
                lenient,
            };
            let (out, distinct) = map_date_counted(&t, &cfg).unwrap();
            let months: Vec<Value> = out.column("month").unwrap().iter().collect();
            assert_eq!(months, ["2013/10".into(), Value::Null, "2013/11".into()]);
            assert_eq!(distinct, 2);
        }
        // Types that cannot be dates: null when lenient, an error when not.
        let ints = Table::from_rows(&["d"], &[row![20130502i64], row![Value::Null]]).unwrap();
        let cfg = |lenient| DateMap {
            input_column: "d".into(),
            input_format: "yyyyMMdd".into(),
            output_format: "yyyy".into(),
            output_column: "y".into(),
            lenient,
        };
        assert_eq!(
            map_date(&ints, &cfg(true))
                .unwrap()
                .column("y")
                .unwrap()
                .null_count(),
            2
        );
        assert!(map_date(&ints, &cfg(false)).is_err());
    }

    #[test]
    fn repeated_inputs_are_mapped_once() {
        let rows: Vec<crate::row::Row> = (0..50)
            .map(|i| match i % 5 {
                0 => row![Value::Null],
                1 => row!["garbage"],
                k => row![format!("2013-05-0{k}")],
            })
            .collect();
        let t = Table::from_rows(&["d"], &rows).unwrap();
        let cfg = DateMap {
            input_column: "d".into(),
            input_format: "yyyy-MM-dd".into(),
            output_format: "dd.MM".into(),
            output_column: "out".into(),
            lenient: true,
        };
        let (out, distinct) = map_date_counted(&t, &cfg).unwrap();
        assert_eq!(distinct, 4, "three dates and the garbage cell");
        for (i, cell) in out.column("out").unwrap().iter().enumerate() {
            let want = match i % 5 {
                0 | 1 => Value::Null,
                k => Value::Str(format!("0{k}.05")),
            };
            assert_eq!(cell, want, "row {i}");
        }
    }

    #[test]
    fn extract_explode_multiplies_rows() {
        let out = map_extract(
            &tweets(),
            &ExtractMap {
                input_column: "body".into(),
                dict: players(),
                output_column: "player".into(),
                explode: true,
            },
        )
        .unwrap();
        // tweet0: dhoni; tweet1: kohli + dhoni; tweet2: none
        assert_eq!(out.num_rows(), 3);
        let players: Vec<String> = (0..3)
            .map(|i| out.value(i, "player").unwrap().to_string())
            .collect();
        assert_eq!(players, vec!["MS Dhoni", "Virat Kohli", "MS Dhoni"]);
    }

    #[test]
    fn extract_first_preserves_rows() {
        let out = map_extract(
            &tweets(),
            &ExtractMap {
                input_column: "body".into(),
                dict: players(),
                output_column: "player".into(),
                explode: false,
            },
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert!(out.value(2, "player").unwrap().is_null());
    }

    #[test]
    fn location_extraction() {
        let out = map_extract_location(
            &tweets(),
            &LocationMap {
                input_column: "displayName".into(),
                gazetteer: Gazetteer::india_default(),
                country: "IND".into(),
                output_column: "state".into(),
            },
        )
        .unwrap();
        assert_eq!(
            out.value(0, "state").unwrap(),
            Value::Str("Tamil Nadu".into())
        );
        assert_eq!(
            out.value(1, "state").unwrap(),
            Value::Str("Karnataka".into())
        );
        assert!(out.value(2, "state").unwrap().is_null());
    }

    #[test]
    fn words_extraction_expands_and_filters() {
        let t = Table::from_rows(&["body"], &[row!["The csk won the game"]]).unwrap();
        let out = map_extract_words(
            &t,
            &WordsMap {
                input_column: "body".into(),
                output_column: "word".into(),
                min_len: 3,
            },
        )
        .unwrap();
        let words: Vec<String> = (0..out.num_rows())
            .map(|i| out.value(i, "word").unwrap().to_string())
            .collect();
        assert_eq!(words, vec!["csk", "won", "game"]);
    }

    #[test]
    fn output_column_can_replace_existing() {
        let t = Table::from_rows(&["d"], &[row!["2013-05-02"]]).unwrap();
        let out = map_date(
            &t,
            &DateMap {
                input_column: "d".into(),
                input_format: "yyyy-MM-dd".into(),
                output_format: "dd/MM/yyyy".into(),
                output_column: "d".into(),
                lenient: false,
            },
        )
        .unwrap();
        assert_eq!(out.schema().len(), 1);
        assert_eq!(out.value(0, "d").unwrap(), Value::Str("02/05/2013".into()));
    }

    #[test]
    fn missing_input_column_errors() {
        let cfg = WordsMap {
            input_column: "nope".into(),
            output_column: "w".into(),
            min_len: 3,
        };
        assert!(map_extract_words(&tweets(), &cfg).is_err());
    }
}
