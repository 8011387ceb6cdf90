//! Hash joins (the paper's `join` task, appendix A.1).
//!
//! A flow-file join names its inputs and keys (`left: players_tweets by
//! player`, `right: team_players by player`), a condition (`join_condition:
//! left outer`) and a projection that both selects and renames output
//! columns (`players_tweets_date: date`).

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnRef};
use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use crate::ops::keys::{Buckets, KeyTable, RowSel, NONE};
use crate::schema::{Field, Schema};
use crate::table::Table;
use std::sync::Arc;

/// Join condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinCondition {
    /// Inner join: matched pairs only.
    #[default]
    Inner,
    /// All left rows; unmatched right side nulls.
    LeftOuter,
    /// All right rows; unmatched left side nulls.
    RightOuter,
    /// All rows from both sides.
    FullOuter,
}

impl JoinCondition {
    /// Parse the (case-insensitive) flow-file spelling: `inner`,
    /// `left outer` / `LEFT_OUTER`, etc.
    pub fn parse(s: &str) -> Option<JoinCondition> {
        let norm: String = s
            .to_ascii_lowercase()
            .replace(['_', '-'], " ")
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        Some(match norm.as_str() {
            "inner" => JoinCondition::Inner,
            "left outer" | "left" => JoinCondition::LeftOuter,
            "right outer" | "right" => JoinCondition::RightOuter,
            "full outer" | "full" | "outer" => JoinCondition::FullOuter,
            _ => return None,
        })
    }

    /// Canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            JoinCondition::Inner => "inner",
            JoinCondition::LeftOuter => "left outer",
            JoinCondition::RightOuter => "right outer",
            JoinCondition::FullOuter => "full outer",
        }
    }
}

/// One projected output column: which side, source column, output name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectSpec {
    /// `true` = from the left input, `false` = right.
    pub from_left: bool,
    /// Column name on that side.
    pub column: String,
    /// Output column name.
    pub rename: String,
}

impl ProjectSpec {
    /// Project a left column.
    pub fn left(column: impl Into<String>, rename: impl Into<String>) -> Self {
        ProjectSpec {
            from_left: true,
            column: column.into(),
            rename: rename.into(),
        }
    }

    /// Project a right column.
    pub fn right(column: impl Into<String>, rename: impl Into<String>) -> Self {
        ProjectSpec {
            from_left: false,
            column: column.into(),
            rename: rename.into(),
        }
    }
}

/// Full join task configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// Left key columns.
    pub left_keys: Vec<String>,
    /// Right key columns (same arity as left).
    pub right_keys: Vec<String>,
    /// Join condition.
    pub condition: JoinCondition,
    /// Output projection. Empty = all left columns then all right columns
    /// (right columns suffixed `_right` on name clashes).
    pub projection: Vec<ProjectSpec>,
}

/// Resolve a projected column name, falling back to a unique
/// case-insensitive match. The paper's own appendix A.1 listing writes
/// `dim_teams_Team: team` against a `team` column — the platform the paper
/// describes evidently tolerated case slips in projections, so this
/// reproduction does too (exact matches always win).
fn resolve_column<'s>(schema: &'s Schema, name: &str) -> Result<&'s str> {
    if schema.contains(name) {
        return Ok(schema.field(name)?.name());
    }
    let mut matches = schema
        .fields()
        .iter()
        .filter(|f| f.name().eq_ignore_ascii_case(name));
    match (matches.next(), matches.next()) {
        (Some(f), None) => Ok(f.name()),
        _ => Err(TabularError::column_not_found(name, &schema.names())),
    }
}

impl JoinSpec {
    /// Equi-join on identically named keys with default projection.
    pub fn on(keys: &[impl AsRef<str>], condition: JoinCondition) -> Self {
        let keys: Vec<String> = keys.iter().map(|k| k.as_ref().to_string()).collect();
        JoinSpec {
            left_keys: keys.clone(),
            right_keys: keys,
            condition,
            projection: Vec::new(),
        }
    }

    /// Output schema given the input schemas.
    pub fn output_schema(&self, left: &Schema, right: &Schema) -> Result<Schema> {
        if self.left_keys.len() != self.right_keys.len() {
            return Err(TabularError::InvalidOperation(format!(
                "join key arity mismatch: {} vs {}",
                self.left_keys.len(),
                self.right_keys.len()
            )));
        }
        left.require(&self.left_keys)?;
        right.require(&self.right_keys)?;
        let mut fields = Vec::new();
        if self.projection.is_empty() {
            for f in left.fields() {
                fields.push(f.clone());
            }
            for f in right.fields() {
                if left.contains(f.name()) {
                    fields.push(f.renamed(format!("{}_right", f.name())));
                } else {
                    fields.push(f.clone());
                }
            }
        } else {
            for p in &self.projection {
                let side = if p.from_left { left } else { right };
                let resolved = resolve_column(side, &p.column)?.to_string();
                fields.push(side.field(&resolved)?.renamed(&p.rename));
            }
        }
        Schema::new(fields)
    }
}

/// Two key columns of one type: an `Int64` column facing a `Float64` one
/// is cast to `Float64`, which is how `Value` compares the two (`Int(a) ==
/// Float(b)` iff `a as f64` is `b`). Any other pair of differing types is
/// left alone — no two of their cells are equal, and [`KeyTable::probe`]
/// matches nothing across types.
fn unified(l: &ColumnRef, r: &ColumnRef) -> Result<[ColumnRef; 2]> {
    let mixed = matches!(
        (l.data_type(), r.data_type()),
        (DataType::Int64, DataType::Float64) | (DataType::Float64, DataType::Int64)
    );
    if mixed {
        return Ok([l.cast(DataType::Float64)?, r.cast(DataType::Float64)?]);
    }
    Ok([l.clone(), r.clone()])
}

/// The key columns of both sides, pairwise [`unified`].
fn unified_keys(left: &Table, right: &Table, spec: &JoinSpec) -> Result<[Vec<ColumnRef>; 2]> {
    let (mut lkeys, mut rkeys) = (Vec::new(), Vec::new());
    for (l, r) in spec.left_keys.iter().zip(&spec.right_keys) {
        let [l, r] = unified(left.column(l)?, right.column(r)?)?;
        lkeys.push(l);
        rkeys.push(r);
    }
    Ok([lkeys, rkeys])
}

/// The semijoin on one key: the rows of `probe` whose cell equals some
/// cell of `build` under the join's key equality — a [`KeyTable`] built
/// over `build` and probed, so `Int64` meets `Float64` by value, any other
/// pair of types never, and a null on either side matches nothing.
pub fn key_members(probe: &ColumnRef, build: &ColumnRef) -> Result<Bitmap> {
    let [probe, build] = unified(probe, build)?;
    let (keys, _) = KeyTable::build(&[build.as_ref()], &RowSel::new(build.len(), None));
    let ids = keys.probe(&[probe.as_ref()], &RowSel::new(probe.len(), None));
    Ok(Bitmap::from_fn(ids.len(), |row| ids[row] != NONE))
}

/// Execute a hash join. The build side is the right input, keyed through
/// a [`KeyTable`]; the left input probes it. Output order is left-row
/// order (then unmatched right rows for right/full outer), deterministic
/// for testing. Null keys never match (SQL semantics).
///
/// When every left row comes out exactly once and in order — the lookup
/// join: each row finds one match, or the join is left outer and finds at
/// most one — the projected left columns are the input's own, shared, and
/// only right columns are gathered.
pub fn join(left: &Table, right: &Table, spec: &JoinSpec) -> Result<Table> {
    let schema = spec.output_schema(left.schema(), right.schema())?;
    let [lkeys, rkeys] = unified_keys(left, right, spec)?;
    fn columns_of(keys: &[ColumnRef]) -> Vec<&Column> {
        keys.iter().map(|c| c.as_ref()).collect()
    }

    let right_rows = RowSel::new(right.num_rows(), None);
    let (table, build_ids) = KeyTable::build(&columns_of(&rkeys), &right_rows);
    let matches = Buckets::new(&build_ids, &right_rows, table.groups());
    let probe_ids = table.probe(&columns_of(&lkeys), &RowSel::new(left.num_rows(), None));

    let keep_left = matches!(
        spec.condition,
        JoinCondition::LeftOuter | JoinCondition::FullOuter
    );
    let mut left_idx: Vec<u32> = Vec::with_capacity(left.num_rows());
    let mut right_idx: Vec<u32> = Vec::with_capacity(left.num_rows());
    let mut right_matched = Bitmap::new_cleared(right.num_rows());
    for (i, &id) in probe_ids.iter().enumerate() {
        if id != NONE {
            for &m in matches.rows_of(id as usize) {
                left_idx.push(i as u32);
                right_idx.push(m);
                right_matched.set(m as usize);
            }
        } else if keep_left {
            left_idx.push(i as u32);
            right_idx.push(NONE);
        }
    }
    if matches!(
        spec.condition,
        JoinCondition::RightOuter | JoinCondition::FullOuter
    ) {
        for m in right_matched.not().iter_ones() {
            left_idx.push(NONE);
            right_idx.push(m as u32);
        }
    }
    let left_in_place = left_idx.len() == left.num_rows()
        && left_idx.iter().enumerate().all(|(i, &l)| l as usize == i);

    // Materialise the projected columns.
    let projections: Vec<(bool, &str)> = if spec.projection.is_empty() {
        let names = |t| Table::schema(t).names().into_iter();
        names(left)
            .map(|n| (true, n))
            .chain(names(right).map(|n| (false, n)))
            .collect()
    } else {
        spec.projection
            .iter()
            .map(|p| {
                let side = if p.from_left { left } else { right };
                Ok((p.from_left, resolve_column(side.schema(), &p.column)?))
            })
            .collect::<Result<Vec<_>>>()?
    };
    let columns = projections
        .into_iter()
        .map(|(from_left, name)| {
            Ok(match from_left {
                true if left_in_place => left.column(name)?.clone(),
                true => Arc::new(left.column(name)?.take_opt(&left_idx)),
                false => Arc::new(right.column(name)?.take_opt(&right_idx)),
            })
        })
        .collect::<Result<Vec<ColumnRef>>>()?;
    // Outer joins introduce nulls; the schema's types still hold, but a
    // column that came out all-null degrades to Null type — retype fields
    // from the actual columns to keep the table constructor's invariant.
    let fields: Vec<Field> = schema
        .fields()
        .iter()
        .zip(&columns)
        .map(|(f, c)| {
            if c.data_type() == DataType::Null {
                f.clone()
            } else {
                f.retyped(c.data_type())
            }
        })
        .collect();
    Table::from_refs(Arc::new(Schema::new(fields)?), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::Value;

    fn players_tweets() -> Table {
        Table::from_rows(
            &["date", "player", "count"],
            &[
                row!["d1", "dhoni", 10i64],
                row!["d1", "kohli", 7i64],
                row!["d2", "dhoni", 4i64],
                row!["d2", "unknown", 1i64],
            ],
        )
        .unwrap()
    }

    fn team_players() -> Table {
        Table::from_rows(
            &["player", "team", "team_fullName"],
            &[
                row!["dhoni", "CSK", "Chennai Super Kings"],
                row!["kohli", "RCB", "Royal Challengers Bangalore"],
                row!["rohit", "MI", "Mumbai Indians"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_join_player_team_left_outer() {
        // appendix A.1 join_player_team: left outer with rename projection.
        let spec = JoinSpec {
            left_keys: vec!["player".into()],
            right_keys: vec!["player".into()],
            condition: JoinCondition::LeftOuter,
            projection: vec![
                ProjectSpec::left("date", "date"),
                ProjectSpec::left("player", "player"),
                ProjectSpec::left("count", "noOfTweets"),
                ProjectSpec::right("team", "team"),
                ProjectSpec::right("team_fullName", "team_fullName"),
            ],
        };
        let out = join(&players_tweets(), &team_players(), &spec).unwrap();
        assert_eq!(
            out.schema().names(),
            vec!["date", "player", "noOfTweets", "team", "team_fullName"]
        );
        assert_eq!(out.num_rows(), 4, "all left rows survive");
        assert_eq!(out.value(0, "team").unwrap(), Value::Str("CSK".into()));
        assert!(
            out.value(3, "team").unwrap().is_null(),
            "unmatched left row"
        );
    }

    #[test]
    fn inner_join_drops_unmatched() {
        let spec = JoinSpec::on(&["player"], JoinCondition::Inner);
        let out = join(&players_tweets(), &team_players(), &spec).unwrap();
        assert_eq!(out.num_rows(), 3);
        // Default projection suffixes the clashing right key.
        assert!(out.schema().contains("player_right"));
    }

    #[test]
    fn right_and_full_outer() {
        let spec = JoinSpec::on(&["player"], JoinCondition::RightOuter);
        let out = join(&players_tweets(), &team_players(), &spec).unwrap();
        // matched: dhoni×2, kohli×1 = 3 rows; unmatched right: rohit = 1.
        assert_eq!(out.num_rows(), 4);

        let spec = JoinSpec::on(&["player"], JoinCondition::FullOuter);
        let out = join(&players_tweets(), &team_players(), &spec).unwrap();
        // 3 matched + 1 unmatched left + 1 unmatched right.
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn one_to_many_fanout() {
        let left = Table::from_rows(&["k"], &[row!["a"]]).unwrap();
        let right = Table::from_rows(
            &["k", "v"],
            &[row!["a", 1i64], row!["a", 2i64], row!["a", 3i64]],
        )
        .unwrap();
        let out = join(&left, &right, &JoinSpec::on(&["k"], JoinCondition::Inner)).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn null_keys_never_match() {
        let left = Table::from_rows(&["k"], &[row![Value::Null], row!["a"]]).unwrap();
        let right = Table::from_rows(&["k"], &[row![Value::Null], row!["a"]]).unwrap();
        let out = join(&left, &right, &JoinSpec::on(&["k"], JoinCondition::Inner)).unwrap();
        assert_eq!(out.num_rows(), 1);
        let out = join(
            &left,
            &right,
            &JoinSpec::on(&["k"], JoinCondition::FullOuter),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3, "null rows preserved on both sides");
    }

    #[test]
    fn composite_keys() {
        let left = Table::from_rows(
            &["a", "b", "x"],
            &[row!["1", "1", 10i64], row!["1", "2", 20i64]],
        )
        .unwrap();
        let right = Table::from_rows(&["a", "b", "y"], &[row!["1", "2", 99i64]]).unwrap();
        let mut spec = JoinSpec::on(&["a", "b"], JoinCondition::Inner);
        spec.projection = vec![ProjectSpec::left("x", "x"), ProjectSpec::right("y", "y")];
        let out = join(&left, &right, &spec).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "x").unwrap(), Value::Int(20));
    }

    #[test]
    fn condition_parsing() {
        assert_eq!(
            JoinCondition::parse("left outer"),
            Some(JoinCondition::LeftOuter)
        );
        assert_eq!(
            JoinCondition::parse("LEFT_OUTER"),
            Some(JoinCondition::LeftOuter)
        );
        assert_eq!(
            JoinCondition::parse("LEFT OUTER"),
            Some(JoinCondition::LeftOuter)
        );
        assert_eq!(JoinCondition::parse("inner"), Some(JoinCondition::Inner));
        assert_eq!(JoinCondition::parse("full"), Some(JoinCondition::FullOuter));
        assert_eq!(JoinCondition::parse("sideways"), None);
    }

    #[test]
    fn bad_config_errors() {
        let spec = JoinSpec {
            left_keys: vec!["a".into(), "b".into()],
            right_keys: vec!["a".into()],
            condition: JoinCondition::Inner,
            projection: vec![],
        };
        assert!(join(&players_tweets(), &team_players(), &spec).is_err());
        let spec = JoinSpec::on(&["missing"], JoinCondition::Inner);
        assert!(join(&players_tweets(), &team_players(), &spec).is_err());
    }

    #[test]
    fn adds_columns() {
        // §3.3: join operations add columns.
        let spec = JoinSpec::on(&["player"], JoinCondition::Inner);
        let out = join(&players_tweets(), &team_players(), &spec).unwrap();
        assert!(out.schema().len() > players_tweets().schema().len());
    }
}
