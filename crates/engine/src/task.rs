//! Task interpretation: from a flow file's `T.` section entries to typed,
//! executable [`TaskKind`]s with schema propagation.
//!
//! Tasks are *context-typed* (§3.3): a definition names the columns it
//! consumes and is validated against the schema of whatever data object it
//! is piped after. [`TaskKind::output_schema`] is that validation;
//! [`TaskKind::execute`] is the batch kernel.

use crate::error::{EngineError, Result};
use crate::exec::TaskRunStat;
use crate::ext::TaskRegistry;
use crate::memo::{Key128, Uncached};
use crate::selection::SelectionProvider;
use shareinsights_flowfile::ast::{DataRef, TaskDef};
use shareinsights_flowfile::config::{ConfigMap, ConfigValue};
use shareinsights_tabular::agg::{AggKind, AggregateFunction};
use shareinsights_tabular::expr::{parse_expr, Expr};
use shareinsights_tabular::ops::{
    self, group_ids, AggregateSpec, Buckets, DateMap, ExtractMap, GroupBy, GroupIds, JoinCondition,
    JoinSpec, KeyColumn, LocationMap, ProjectSpec, RowSel, SortKey, TopN, WordsMap,
};
use shareinsights_tabular::text::{ExtractDict, Gazetteer};
use shareinsights_tabular::{Bitmap, DataType, Field, Schema, Table, Value};
use std::sync::Arc;
use std::time::Instant;

/// Where an interactive filter's allowed values come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterSource {
    /// A widget's current selection (`filter_source: W.teams`).
    Widget(String),
    /// Another data object's column values (semijoin).
    Data(String),
}

/// A custom aggregate reference inside a groupby.
#[derive(Clone)]
pub struct CustomAgg {
    /// The registered aggregate.
    pub func: Arc<dyn AggregateFunction>,
    /// Input column.
    pub apply_on: String,
    /// Output column.
    pub out_field: String,
}

impl std::fmt::Debug for CustomAgg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CustomAgg({} on {})", self.func.name(), self.apply_on)
    }
}

/// A join task with its input-object bindings.
#[derive(Debug, Clone)]
pub struct JoinTask {
    /// Left input data-object name (`left: players_tweets by player`).
    pub left_name: String,
    /// Right input data-object name.
    pub right_name: String,
    /// The kernel spec.
    pub spec: JoinSpec,
}

/// A compiled task: its flow-file name plus the typed kind.
#[derive(Debug, Clone)]
pub struct NamedTask {
    /// Flow-file task name.
    pub name: String,
    /// Interpreted kind.
    pub kind: TaskKind,
    /// What the task computes, as a 128-bit hash of its definition — type
    /// and parameters as written, plus the bytes of any file it loaded at
    /// compile time — or of what it carries, for tasks the optimizer and
    /// the SQL lowering build. `None` when its output can depend on more
    /// than its inputs ([`TaskKind::uncached_reason`]); the flow memo keys
    /// on it.
    pub fingerprint: Option<u128>,
}

impl NamedTask {
    /// The optimizer's pruning projection, fingerprinted from the columns
    /// it keeps.
    pub(crate) fn project(name: String, columns: Vec<String>) -> NamedTask {
        let mut h = Key128::new(b"project");
        for c in &columns {
            h.str(c);
        }
        NamedTask {
            name,
            kind: TaskKind::Project(columns),
            fingerprint: Some(h.finish()),
        }
    }
}

/// Every executable task shape.
#[derive(Clone)]
pub enum TaskKind {
    /// `filter_by` with a `filter_expression`.
    FilterExpr(Expr),
    /// `filter_by` with `filter_source` (interaction / semijoin filter).
    FilterBySource {
        /// Columns of the *input* being filtered.
        columns: Vec<String>,
        /// Where allowed values come from.
        source: FilterSource,
        /// Columns on the source side (`filter_val`), aligned with
        /// `columns`; defaults to the same names.
        source_columns: Vec<String>,
    },
    /// `groupby`.
    GroupBy {
        /// Built-in portion (may be empty when all aggregates are custom).
        builtin: GroupBy,
        /// Custom aggregates resolved from the registry.
        custom: Vec<CustomAgg>,
    },
    /// `join`.
    Join(JoinTask),
    /// `map` / `operator: date`.
    MapDate(DateMap),
    /// `map` / `operator: extract`.
    MapExtract(ExtractMap),
    /// `map` / `operator: extract_location`.
    MapLocation(LocationMap),
    /// `map` / `operator: extract_words`.
    MapWords(WordsMap),
    /// `map` with a custom scalar operator from the registry.
    MapCustom {
        /// The operator.
        op: Arc<dyn crate::ext::ScalarOperator>,
        /// Input column.
        input: String,
        /// Output column.
        output: String,
    },
    /// `topn`.
    TopN(TopN),
    /// `sort` / `orderby`.
    Sort(Vec<SortKey>),
    /// `distinct`.
    Distinct(Vec<String>),
    /// `limit`.
    Limit(usize),
    /// `union` — combines all fan-in inputs.
    Union,
    /// `project` — keep/reorder columns (used by the optimizer too).
    Project(Vec<String>),
    /// `parallel` composite (figure 20).
    Parallel(Vec<NamedTask>),
    /// Registered extension task (§4.2 categories 3/4).
    Custom(Arc<dyn crate::ext::CustomTask>),
}

impl std::fmt::Debug for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskKind::FilterExpr(e) => write!(f, "FilterExpr({e})"),
            TaskKind::FilterBySource { columns, .. } => write!(f, "FilterBySource({columns:?})"),
            TaskKind::GroupBy { builtin, .. } => write!(f, "GroupBy({:?})", builtin.keys),
            TaskKind::Join(j) => write!(f, "Join({} x {})", j.left_name, j.right_name),
            TaskKind::MapDate(m) => write!(f, "MapDate({})", m.input_column),
            TaskKind::MapExtract(m) => write!(f, "MapExtract({})", m.input_column),
            TaskKind::MapLocation(m) => write!(f, "MapLocation({})", m.input_column),
            TaskKind::MapWords(m) => write!(f, "MapWords({})", m.input_column),
            TaskKind::MapCustom { input, output, .. } => {
                write!(f, "MapCustom({input} -> {output})")
            }
            TaskKind::TopN(t) => write!(f, "TopN(limit {})", t.limit),
            TaskKind::Sort(keys) => write!(f, "Sort({} keys)", keys.len()),
            TaskKind::Distinct(c) => write!(f, "Distinct({c:?})"),
            TaskKind::Limit(n) => write!(f, "Limit({n})"),
            TaskKind::Union => write!(f, "Union"),
            TaskKind::Project(c) => write!(f, "Project({c:?})"),
            TaskKind::Parallel(ts) => write!(f, "Parallel({} tasks)", ts.len()),
            TaskKind::Custom(c) => write!(f, "Custom({})", c.name()),
        }
    }
}

/// What a task needs from its surroundings at interpretation time.
pub struct InterpretEnv<'a> {
    /// Extension registry.
    pub registry: &'a TaskRegistry,
    /// Loader for dictionary files (`dict: players.txt`) from the dashboard
    /// data folder.
    pub load_text: &'a dyn Fn(&str) -> Option<String>,
    /// All task definitions (for `parallel` composites).
    pub all_tasks: &'a [TaskDef],
}

fn cfg_err(task: &str, message: impl Into<String>) -> EngineError {
    EngineError::TaskConfig {
        task: task.to_string(),
        message: message.into(),
    }
}

fn scalar_param<'m>(params: &'m ConfigMap, key: &str) -> Option<&'m str> {
    params.get_scalar(key)
}

fn list_param(params: &ConfigMap, key: &str) -> Vec<String> {
    match params.get(key) {
        Some(v) => v.scalar_items().into_iter().map(str::to_string).collect(),
        None => Vec::new(),
    }
}

/// Interpret one task definition.
pub fn interpret_task(def: &TaskDef, env: &InterpretEnv<'_>) -> Result<NamedTask> {
    interpret_task_inner(def, env, 0)
}

fn interpret_task_inner(def: &TaskDef, env: &InterpretEnv<'_>, depth: usize) -> Result<NamedTask> {
    if depth > 8 {
        return Err(cfg_err(
            &def.name,
            "parallel tasks nested too deeply (cycle?)",
        ));
    }
    let name = def.name.as_str();
    let mut fingerprint = Key128::task_def(def);
    let kind = match def.task_type.as_str() {
        "filter_by" | "filterby" | "filter" => interpret_filter(def)?,
        "groupby" | "group_by" | "group" => interpret_groupby(def, env)?,
        "join" => interpret_join(def)?,
        "map" => interpret_map(def, env, &mut fingerprint)?,
        "topn" | "top_n" => interpret_topn(def)?,
        "sort" | "orderby" | "order_by" => {
            let keys = parse_sort_keys(def, "orderby_column")
                .or_else(|_| parse_sort_keys(def, "orderby"))?;
            TaskKind::Sort(keys)
        }
        "distinct" | "dedup" => TaskKind::Distinct(list_param(&def.params, "columns")),
        "limit" => {
            let n = scalar_param(&def.params, "limit")
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| cfg_err(name, "limit needs 'limit: <count>'"))?;
            TaskKind::Limit(n)
        }
        "union" => TaskKind::Union,
        "sql" => {
            let query = scalar_param(&def.params, "query")
                .ok_or_else(|| cfg_err(name, "sql needs 'query: \"SELECT ...\"'"))?;
            let stages = crate::sql::tasks_for_flow(name, query)
                .map_err(|e| cfg_err(name, format!("invalid SQL: {e}")))?;
            TaskKind::Parallel(stages)
        }
        "project" | "select" => {
            let cols = list_param(&def.params, "columns");
            if cols.is_empty() {
                return Err(cfg_err(name, "project needs 'columns: [..]'"));
            }
            TaskKind::Project(cols)
        }
        "parallel" => {
            let subs = list_param(&def.params, "parallel");
            if subs.is_empty() {
                return Err(cfg_err(
                    name,
                    "parallel needs a 'parallel: [T.a, T.b]' list",
                ));
            }
            let mut tasks = Vec::with_capacity(subs.len());
            for s in subs {
                let sub_name = match DataRef::parse(&s) {
                    Some(DataRef::Task(t)) => t,
                    _ => {
                        return Err(cfg_err(
                            name,
                            format!("parallel items must be T.*, got '{s}'"),
                        ))
                    }
                };
                let sub_def = env
                    .all_tasks
                    .iter()
                    .find(|t| t.name == sub_name)
                    .ok_or_else(|| {
                        cfg_err(
                            name,
                            format!("parallel references unknown task 'T.{sub_name}'"),
                        )
                    })?;
                let sub = interpret_task_inner(sub_def, env, depth + 1)?;
                // A member without a fingerprint leaves the composite
                // without one (`uncached_reason` looks inside).
                if let Some(member) = sub.fingerprint {
                    fingerprint.u128(member);
                }
                tasks.push(sub);
            }
            TaskKind::Parallel(tasks)
        }
        custom => match env.registry.task(custom) {
            Some(t) => TaskKind::Custom(t),
            None => {
                return Err(cfg_err(
                    name,
                    format!(
                        "unknown task type '{custom}' (not built-in, not a registered extension)"
                    ),
                ))
            }
        },
    };
    let fingerprint = kind
        .uncached_reason()
        .is_none()
        .then(|| fingerprint.finish());
    Ok(NamedTask {
        name: name.to_string(),
        kind,
        fingerprint,
    })
}

fn interpret_filter(def: &TaskDef) -> Result<TaskKind> {
    let name = def.name.as_str();
    if let Some(expr_text) = scalar_param(&def.params, "filter_expression") {
        let expr = parse_expr(expr_text).map_err(|e| cfg_err(name, e.to_string()))?;
        return Ok(TaskKind::FilterExpr(expr));
    }
    let columns = list_param(&def.params, "filter_by");
    if columns.is_empty() {
        return Err(cfg_err(
            name,
            "filter_by needs 'filter_expression:' or a 'filter_by: [columns]' list",
        ));
    }
    let source = match scalar_param(&def.params, "filter_source") {
        Some(s) => match DataRef::parse(s) {
            Some(DataRef::Widget(w)) => FilterSource::Widget(w),
            Some(DataRef::Data(d)) => FilterSource::Data(d),
            _ => {
                return Err(cfg_err(
                    name,
                    format!("filter_source must be W.* or D.*, got '{s}'"),
                ))
            }
        },
        None => {
            return Err(cfg_err(
                name,
                "filter_by with columns needs a 'filter_source:' (widget or data object)",
            ))
        }
    };
    let mut source_columns = list_param(&def.params, "filter_val");
    if source_columns.is_empty() {
        source_columns = columns.clone();
    }
    Ok(TaskKind::FilterBySource {
        columns,
        source,
        source_columns,
    })
}

fn interpret_groupby(def: &TaskDef, env: &InterpretEnv<'_>) -> Result<TaskKind> {
    let name = def.name.as_str();
    let keys = list_param(&def.params, "groupby");
    if keys.is_empty() {
        return Err(cfg_err(name, "groupby needs a 'groupby: [columns]' list"));
    }
    let mut builtin_aggs = Vec::new();
    let mut custom = Vec::new();
    if let Some(ConfigValue::List(items)) = def.params.get("aggregates") {
        for item in items {
            let Some(m) = item.as_map() else {
                return Err(cfg_err(
                    name,
                    "each aggregate must be an 'operator/apply_on/out_field' block",
                ));
            };
            let op = m
                .get_scalar("operator")
                .ok_or_else(|| cfg_err(name, "aggregate missing 'operator:'"))?;
            let apply_on = m
                .get_scalar("apply_on")
                .ok_or_else(|| cfg_err(name, "aggregate missing 'apply_on:'"))?
                .to_string();
            let out_field = m
                .get_scalar("out_field")
                .ok_or_else(|| cfg_err(name, "aggregate missing 'out_field:'"))?
                .to_string();
            match AggKind::parse(op) {
                Some(kind) => builtin_aggs.push(AggregateSpec::new(kind, apply_on, out_field)),
                None => match env.registry.aggregate(op) {
                    Some(func) => custom.push(CustomAgg {
                        func,
                        apply_on,
                        out_field,
                    }),
                    None => {
                        return Err(cfg_err(
                            name,
                            format!(
                                "unknown aggregate operator '{op}' (not built-in, not registered)"
                            ),
                        ))
                    }
                },
            }
        }
    }
    let mut builtin = GroupBy::with_aggregates(&keys, builtin_aggs);
    builtin.orderby_aggregates = def.params.get_bool("orderby_aggregates").unwrap_or(false);
    Ok(TaskKind::GroupBy { builtin, custom })
}

/// Parse `left: players_tweets by player` / `right: team_players by player,team`.
fn parse_join_side(name: &str, text: &str) -> Result<(String, Vec<String>)> {
    let lower = text.to_ascii_lowercase();
    let by = lower.find(" by ").ok_or_else(|| {
        cfg_err(
            name,
            format!("join side must be '<object> by <keys>', got '{text}'"),
        )
    })?;
    let obj = text[..by].trim().to_string();
    let keys: Vec<String> = text[by + 4..]
        .split(',')
        .map(|k| k.trim().to_string())
        .filter(|k| !k.is_empty())
        .collect();
    if obj.is_empty() || keys.is_empty() {
        return Err(cfg_err(name, format!("join side malformed: '{text}'")));
    }
    Ok((obj, keys))
}

fn interpret_join(def: &TaskDef) -> Result<TaskKind> {
    let name = def.name.as_str();
    let left_text = scalar_param(&def.params, "left")
        .ok_or_else(|| cfg_err(name, "join needs 'left: <object> by <keys>'"))?;
    let right_text = scalar_param(&def.params, "right")
        .ok_or_else(|| cfg_err(name, "join needs 'right: <object> by <keys>'"))?;
    let (left_name, left_keys) = parse_join_side(name, left_text)?;
    let (right_name, right_keys) = parse_join_side(name, right_text)?;
    let condition = match scalar_param(&def.params, "join_condition") {
        Some(c) => JoinCondition::parse(c)
            .ok_or_else(|| cfg_err(name, format!("unknown join_condition '{c}'")))?,
        None => JoinCondition::Inner,
    };
    // Projection: keys are `<object>_<column>`, values the output names.
    let mut projection = Vec::new();
    if let Some(ConfigValue::Map(proj)) = def.params.get("project") {
        for (key, v, _) in proj.entries() {
            let out = v.as_scalar().ok_or_else(|| {
                cfg_err(
                    name,
                    format!("projection '{key}' must map to a column name"),
                )
            })?;
            let (from_left, column) = if let Some(rest) = strip_prefix_ci(key, &left_name) {
                (true, rest)
            } else if let Some(rest) = strip_prefix_ci(key, &right_name) {
                (false, rest)
            } else {
                return Err(cfg_err(
                    name,
                    format!(
                        "projection key '{key}' must start with '{left_name}_' or '{right_name}_'"
                    ),
                ));
            };
            projection.push(ProjectSpec {
                from_left,
                column,
                rename: out.to_string(),
            });
        }
    }
    Ok(TaskKind::Join(JoinTask {
        left_name,
        right_name,
        spec: JoinSpec {
            left_keys,
            right_keys,
            condition,
            projection,
        },
    }))
}

/// Case-insensitive `<object>_` prefix strip (paper listings mix cases:
/// `dim_teams_Team`).
fn strip_prefix_ci(key: &str, object: &str) -> Option<String> {
    let prefix = format!("{object}_");
    if key.len() > prefix.len() && key[..prefix.len()].eq_ignore_ascii_case(&prefix) {
        Some(key[prefix.len()..].to_string())
    } else {
        None
    }
}

/// `fingerprint` also takes the bytes of a dictionary the map loads.
fn interpret_map(
    def: &TaskDef,
    env: &InterpretEnv<'_>,
    fingerprint: &mut Key128,
) -> Result<TaskKind> {
    let name = def.name.as_str();
    let operator = scalar_param(&def.params, "operator")
        .ok_or_else(|| cfg_err(name, "map needs 'operator:'"))?;
    let transform = scalar_param(&def.params, "transform")
        .ok_or_else(|| cfg_err(name, "map needs 'transform: <column>'"))?
        .to_string();
    let output = scalar_param(&def.params, "output")
        .ok_or_else(|| cfg_err(name, "map needs 'output: <column>'"))?
        .to_string();
    Ok(match operator {
        "date" => {
            let input_format = scalar_param(&def.params, "input_format")
                .ok_or_else(|| cfg_err(name, "date map needs 'input_format:'"))?;
            let output_format = scalar_param(&def.params, "output_format")
                .ok_or_else(|| cfg_err(name, "date map needs 'output_format:'"))?;
            // Validate patterns at compile time so bad formats fail the
            // compile, not row 1_000_000 of the run.
            shareinsights_tabular::datefmt::DatePattern::compile(input_format)
                .map_err(|e| cfg_err(name, e.to_string()))?;
            shareinsights_tabular::datefmt::DatePattern::compile(output_format)
                .map_err(|e| cfg_err(name, e.to_string()))?;
            TaskKind::MapDate(DateMap {
                input_column: transform,
                input_format: input_format.to_string(),
                output_format: output_format.to_string(),
                output_column: output,
                lenient: def.params.get_bool("lenient").unwrap_or(true),
            })
        }
        "extract" => {
            let dict_file = scalar_param(&def.params, "dict")
                .ok_or_else(|| cfg_err(name, "extract map needs 'dict: <file>'"))?;
            let content = (env.load_text)(dict_file).ok_or_else(|| {
                cfg_err(
                    name,
                    format!("dictionary file '{dict_file}' not found in the data folder"),
                )
            })?;
            fingerprint.str(&content);
            let dict = ExtractDict::parse(&content);
            if dict.is_empty() {
                return Err(cfg_err(
                    name,
                    format!("dictionary '{dict_file}' has no entries"),
                ));
            }
            TaskKind::MapExtract(ExtractMap {
                input_column: transform,
                dict,
                output_column: output,
                explode: def.params.get_bool("explode").unwrap_or(true),
            })
        }
        "extract_location" => {
            let country = scalar_param(&def.params, "country")
                .unwrap_or("IND")
                .to_string();
            TaskKind::MapLocation(LocationMap {
                input_column: transform,
                gazetteer: Gazetteer::india_default(),
                country,
                output_column: output,
            })
        }
        "extract_words" => TaskKind::MapWords(WordsMap {
            input_column: transform,
            output_column: output,
            min_len: scalar_param(&def.params, "min_len")
                .and_then(|s| s.parse().ok())
                .unwrap_or(3),
        }),
        custom => match env.registry.operator(custom) {
            Some(op) => TaskKind::MapCustom {
                op,
                input: transform,
                output,
            },
            None => {
                return Err(cfg_err(
                    name,
                    format!("unknown map operator '{custom}' (not built-in, not registered)"),
                ))
            }
        },
    })
}

fn interpret_topn(def: &TaskDef) -> Result<TaskKind> {
    let name = def.name.as_str();
    let groupby = list_param(&def.params, "groupby");
    let order_by = parse_sort_keys(def, "orderby_column")?;
    let limit = scalar_param(&def.params, "limit")
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(|| cfg_err(name, "topn needs 'limit: <count>'"))?;
    Ok(TaskKind::TopN(TopN {
        groupby,
        order_by,
        limit,
    }))
}

fn parse_sort_keys(def: &TaskDef, param: &str) -> Result<Vec<SortKey>> {
    let items = list_param(&def.params, param);
    if items.is_empty() {
        return Err(cfg_err(
            &def.name,
            format!("needs '{param}: [column ASC|DESC, ...]'"),
        ));
    }
    items
        .iter()
        .map(|s| {
            SortKey::parse(s)
                .ok_or_else(|| cfg_err(&def.name, format!("bad sort key '{s}' in '{param}'")))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Schema propagation
// ---------------------------------------------------------------------------

impl TaskKind {
    /// True when the task consumes its single input row by row: it can run
    /// on any run of rows alone (a stream's micro-batch) and commutes with
    /// a projection that keeps the columns it reads.
    pub fn is_row_local(&self) -> bool {
        matches!(self, TaskKind::FilterExpr(_)) || self.map_columns().is_some()
    }

    /// A column map's `(input, output)` columns; `None` for every task that
    /// is not one of the five maps.
    pub(crate) fn map_columns(&self) -> Option<(&str, &str)> {
        match self {
            TaskKind::MapDate(m) => Some((&m.input_column, &m.output_column)),
            TaskKind::MapExtract(m) => Some((&m.input_column, &m.output_column)),
            TaskKind::MapLocation(m) => Some((&m.input_column, &m.output_column)),
            TaskKind::MapWords(m) => Some((&m.input_column, &m.output_column)),
            TaskKind::MapCustom { input, output, .. } => Some((input, output)),
            _ => None,
        }
    }

    /// A widget filter's widget and its `(column, widget column)` pairs:
    /// input column `i` is constrained by the selection on `filter_val[i]`,
    /// else on the first `filter_val`, else on `value`. `None` for every
    /// other task.
    pub fn widget_filter(&self) -> Option<(&str, impl Iterator<Item = (&str, &str)>)> {
        let TaskKind::FilterBySource {
            columns,
            source: FilterSource::Widget(widget),
            source_columns,
        } = self
        else {
            return None;
        };
        let pairs = columns.iter().enumerate().map(move |(i, column)| {
            let from = source_columns.get(i).or(source_columns.first());
            (column.as_str(), from.map_or("value", String::as_str))
        });
        Some((widget.as_str(), pairs))
    }

    /// Why this task's output can depend on more than its inputs, if it
    /// can: it is a registry extension (custom task, custom map operator,
    /// custom aggregate), whose purity nobody declared, or it filters by a
    /// widget selection. Such a task has no fingerprint.
    pub fn uncached_reason(&self) -> Option<Uncached> {
        match self {
            TaskKind::Custom(_) | TaskKind::MapCustom { .. } => Some(Uncached::ExtensionTask),
            TaskKind::GroupBy { custom, .. } if !custom.is_empty() => Some(Uncached::ExtensionTask),
            TaskKind::FilterBySource {
                source: FilterSource::Widget(_),
                ..
            } => Some(Uncached::WidgetSelection),
            TaskKind::Parallel(tasks) => tasks.iter().find_map(|t| t.kind.uncached_reason()),
            _ => None,
        }
    }

    /// Data objects the task reads by name rather than as an input — a
    /// `filter_by` whose `filter_source` is `D.<name>` — appended to `out`.
    pub fn data_lookups<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            TaskKind::FilterBySource {
                source: FilterSource::Data(object),
                ..
            } => out.push(object),
            TaskKind::Parallel(tasks) => {
                for t in tasks {
                    t.kind.data_lookups(out);
                }
            }
            _ => {}
        }
    }

    /// The operator type name in flow-file vocabulary (`groupby`,
    /// `filter_by`, `map`, …) — the key engine telemetry aggregates
    /// per-operator stats under. Custom tasks report their registered name.
    pub fn type_name(&self) -> &str {
        match self {
            TaskKind::FilterExpr(_) | TaskKind::FilterBySource { .. } => "filter_by",
            TaskKind::GroupBy { .. } => "groupby",
            TaskKind::Join(_) => "join",
            TaskKind::MapDate(_)
            | TaskKind::MapExtract(_)
            | TaskKind::MapLocation(_)
            | TaskKind::MapWords(_)
            | TaskKind::MapCustom { .. } => "map",
            TaskKind::TopN(_) => "topn",
            TaskKind::Sort(_) => "sort",
            TaskKind::Distinct(_) => "distinct",
            TaskKind::Limit(_) => "limit",
            TaskKind::Union => "union",
            TaskKind::Project(_) => "project",
            TaskKind::Parallel(_) => "parallel",
            TaskKind::Custom(c) => c.name(),
        }
    }

    /// Whether the task takes `inputs` inputs: a join two, a union one or
    /// more, every other task exactly one. The message is the error.
    fn check_arity(&self, inputs: usize) -> std::result::Result<(), String> {
        match self {
            TaskKind::Union if inputs > 0 => Ok(()),
            TaskKind::Join(_) if inputs == 2 => Ok(()),
            TaskKind::Join(_) => Err(format!(
                "join needs exactly 2 inputs at this point in the flow, found {inputs}"
            )),
            _ if inputs == 1 => Ok(()),
            _ => Err(format!(
                "task consumes one input but the flow provides {inputs} here; combine them with a join or union first"
            )),
        }
    }

    /// Put a flow's named inputs in the order the task takes them: a
    /// join's side named like its `left_name` first, whatever the order
    /// the flow lists them in. Other tasks leave the order alone.
    pub(crate) fn bind_inputs<T>(&self, inputs: &mut [(Option<&str>, T)]) {
        let TaskKind::Join(j) = self else { return };
        if let Some(left) = inputs
            .iter()
            .position(|(name, _)| *name == Some(j.left_name.as_str()))
        {
            inputs.swap(0, left);
        }
    }

    /// Columns this task reads from its input(s) — drives projection
    /// pruning. `None` = reads everything (custom tasks).
    pub fn input_columns(&self) -> Option<Vec<String>> {
        match self {
            TaskKind::FilterExpr(e) => Some(e.referenced_columns()),
            TaskKind::FilterBySource { columns, .. } => Some(columns.clone()),
            TaskKind::GroupBy { builtin, custom } => {
                let mut cols = builtin.keys.clone();
                for a in &builtin.aggregates {
                    cols.push(a.apply_on.clone());
                }
                for c in custom {
                    cols.push(c.apply_on.clone());
                }
                Some(cols)
            }
            TaskKind::Join(j) => {
                let mut cols = j.spec.left_keys.clone();
                cols.extend(j.spec.right_keys.clone());
                for p in &j.spec.projection {
                    cols.push(p.column.clone());
                }
                if j.spec.projection.is_empty() {
                    None // default projection keeps everything
                } else {
                    Some(cols)
                }
            }
            TaskKind::TopN(t) => {
                let mut cols = t.groupby.clone();
                cols.extend(t.order_by.iter().map(|k| k.column.clone()));
                Some(cols)
            }
            TaskKind::Sort(keys) => Some(keys.iter().map(|k| k.column.clone()).collect()),
            TaskKind::Distinct(cols) => {
                if cols.is_empty() {
                    None
                } else {
                    Some(cols.clone())
                }
            }
            TaskKind::Limit(_) | TaskKind::Union => None,
            TaskKind::Project(cols) => Some(cols.clone()),
            TaskKind::Parallel(tasks) => {
                let mut all = Vec::new();
                for t in tasks {
                    match t.kind.input_columns() {
                        Some(cols) => all.extend(cols),
                        None => return None,
                    }
                }
                Some(all)
            }
            TaskKind::Custom(_) => None,
            map => map.map_columns().map(|(input, _)| vec![input.to_string()]),
        }
    }

    /// Output schema given the input schema(s); validates use-site columns.
    pub fn output_schema(&self, task_name: &str, inputs: &[Schema]) -> Result<Schema> {
        let sch_err = |message: String| EngineError::SchemaMismatch {
            task: task_name.to_string(),
            flow: String::new(),
            message,
        };
        self.check_arity(inputs.len()).map_err(sch_err)?;
        let sch_err = |e: shareinsights_tabular::TabularError| sch_err(e.to_string());
        let single = &inputs[0];
        match self {
            TaskKind::FilterExpr(e) => {
                single.require(&e.referenced_columns()).map_err(sch_err)?;
                Ok(single.clone())
            }
            TaskKind::FilterBySource { columns, .. } => {
                single.require(columns).map_err(sch_err)?;
                Ok(single.clone())
            }
            TaskKind::GroupBy { builtin, custom } => {
                let mut out = builtin.output_schema(single).map_err(sch_err)?;
                for c in custom {
                    let in_ty = single.field(&c.apply_on).map_err(sch_err)?.data_type();
                    out = out.upsert_field(Field::new(&c.out_field, c.func.output_type(in_ty)));
                }
                Ok(out)
            }
            TaskKind::Join(j) => j
                .spec
                .output_schema(&inputs[0], &inputs[1])
                .map_err(sch_err),
            TaskKind::TopN(t) => {
                single.require(&t.groupby).map_err(sch_err)?;
                single
                    .require(&sort_columns(&t.order_by))
                    .map_err(sch_err)?;
                Ok(single.clone())
            }
            TaskKind::Sort(keys) => {
                single.require(&sort_columns(keys)).map_err(sch_err)?;
                Ok(single.clone())
            }
            TaskKind::Distinct(cols) => {
                single.require(cols).map_err(sch_err)?;
                Ok(single.clone())
            }
            TaskKind::Limit(_) => Ok(single.clone()),
            TaskKind::Union => {
                let mut acc = single.clone();
                for s in &inputs[1..] {
                    acc = acc.unify(s).map_err(sch_err)?;
                }
                Ok(acc)
            }
            TaskKind::Project(cols) => single.project(cols).map_err(sch_err),
            TaskKind::Parallel(tasks) => {
                let mut schema = single.clone();
                for t in tasks {
                    schema = t.kind.output_schema(&t.name, &[schema])?;
                }
                Ok(schema)
            }
            TaskKind::Custom(c) => c.output_schema(single),
            map => {
                let (input, output) = map.map_columns().expect("every other kind has an arm");
                single.require(&[input.to_string()]).map_err(sch_err)?;
                // A custom scalar operator's result type is unknown until it
                // runs; declare Utf8-compatible Null (unifies later).
                let ty = match map {
                    TaskKind::MapCustom { .. } => DataType::Null,
                    _ => DataType::Utf8,
                };
                Ok(single.upsert_field(Field::new(output, ty)))
            }
        }
    }
}

fn sort_columns(keys: &[SortKey]) -> Vec<String> {
    keys.iter().map(|k| k.column.clone()).collect()
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Runtime context a task may need: widget selections and shared tables for
/// semijoin filters.
pub struct TaskRuntime<'a> {
    /// Selection provider (None = no selections; filters become no-ops).
    pub selections: Option<&'a dyn SelectionProvider>,
    /// Lookup of already-materialised data objects by name.
    pub lookup_table: &'a dyn Fn(&str) -> Option<Table>,
}

impl<'a> TaskRuntime<'a> {
    /// A runtime with no selections and no shared tables.
    pub fn empty() -> TaskRuntime<'static> {
        TaskRuntime {
            selections: None,
            lookup_table: &|_| None,
        }
    }
}

fn exec_err(task: &str, e: impl std::fmt::Display) -> EngineError {
    EngineError::Execution {
        task: task.to_string(),
        message: e.to_string(),
    }
}

/// What a kernel reports about a run beyond the rows it consumed and
/// emitted, as `(name, value)` pairs: `groups` (group-by, top-n, distinct),
/// `build_rows` and `shared_left` (join), `distinct_inputs` (the coded
/// maps). They become attributes of the operator's trace span.
pub type TaskNotes = Vec<(&'static str, u64)>;

impl TaskKind {
    /// Execute the task on its inputs (columnar kernels).
    pub fn execute(
        &self,
        task_name: &str,
        inputs: &[Table],
        rt: &TaskRuntime<'_>,
    ) -> Result<Table> {
        self.execute_noted(task_name, inputs, rt, &mut TaskNotes::new())
    }

    /// [`TaskKind::execute`], appending what the kernel has to say about
    /// the run to `notes`. The one place a task binds its inputs: a join
    /// takes `[left, right]`, a union all of them, every other task exactly
    /// one; any other count is an error.
    pub fn execute_noted(
        &self,
        task_name: &str,
        inputs: &[Table],
        rt: &TaskRuntime<'_>,
        notes: &mut TaskNotes,
    ) -> Result<Table> {
        self.check_arity(inputs.len())
            .map_err(|e| exec_err(task_name, e))?;
        let err = |e: shareinsights_tabular::TabularError| exec_err(task_name, e);
        let single = &inputs[0];
        match self {
            TaskKind::FilterExpr(e) => ops::filter_by_expr(single, e).map_err(err),
            TaskKind::FilterBySource {
                columns,
                source: FilterSource::Data(object),
                source_columns,
            } => filter_by_data(task_name, single, columns, object, source_columns, rt),
            TaskKind::FilterBySource { .. } => match self.widget_predicate(rt) {
                Some(e) => ops::filter_by_expr(single, &e).map_err(err),
                None => Ok(single.clone()),
            },
            TaskKind::GroupBy { builtin, custom } => {
                let out = execute_groupby(task_name, single, builtin, custom)?;
                notes.push(("groups", out.num_rows() as u64));
                Ok(out)
            }
            TaskKind::Join(j) => {
                let (left, right) = (&inputs[0], &inputs[1]);
                let out = ops::join(left, right, &j.spec).map_err(err)?;
                let shared = |c| left.columns().iter().any(|l| Arc::ptr_eq(l, c));
                notes.push(("build_rows", right.num_rows() as u64));
                notes.push(("shared_left", u64::from(out.columns().iter().any(shared))));
                Ok(out)
            }
            TaskKind::MapDate(m) => {
                let (out, distinct) = ops::map_date_counted(single, m).map_err(err)?;
                notes.push(("distinct_inputs", distinct as u64));
                Ok(out)
            }
            TaskKind::MapExtract(m) => ops::map_extract(single, m).map_err(err),
            TaskKind::MapLocation(m) => {
                let (out, distinct) = ops::map_extract_location_counted(single, m).map_err(err)?;
                notes.push(("distinct_inputs", distinct as u64));
                Ok(out)
            }
            TaskKind::MapWords(m) => ops::map_extract_words(single, m).map_err(err),
            TaskKind::MapCustom { op, input, output } => {
                let col = single.column(input).map_err(err)?;
                let values: Vec<Value> = (0..single.num_rows())
                    .map(|i| op.apply(&col.value(i)))
                    .collect();
                single
                    .with_column(output, shareinsights_tabular::Column::from_values(&values))
                    .map_err(err)
            }
            TaskKind::TopN(t) => {
                let (out, partitions) = ops::topn_counted(single, t).map_err(err)?;
                notes.push(("groups", partitions as u64));
                Ok(out)
            }
            TaskKind::Sort(keys) => ops::sort(single, keys).map_err(err),
            TaskKind::Distinct(cols) => {
                let out = ops::distinct(single, cols).map_err(err)?;
                notes.push(("groups", out.num_rows() as u64));
                Ok(out)
            }
            TaskKind::Limit(n) => Ok(single.limit(*n)),
            TaskKind::Union => ops::union_all(inputs).map_err(err),
            TaskKind::Project(cols) => single.project(cols).map_err(err),
            TaskKind::Parallel(tasks) => {
                // The members run as a chain of their own; their stats stay
                // inside this task's.
                let input = vec![(None, single.clone())];
                run_chain(task_name, tasks, input, rt, Instant::now(), &mut Vec::new())
            }
            TaskKind::Custom(c) => c.execute(single),
        }
    }

    /// The row filter the current widget selections put on a widget
    /// `filter_by`: each [`TaskKind::widget_filter`] pair's
    /// [`crate::Selection::predicate`], AND-ed. `None` when no pair constrains
    /// anything, or there is no interaction context at all. The data cube
    /// lowers a widget filter to it.
    pub fn widget_predicate(&self, rt: &TaskRuntime<'_>) -> Option<Expr> {
        let (widget, pairs) = self.widget_filter()?;
        let provider = rt.selections?;
        pairs
            .filter_map(|(column, widget_column)| {
                provider.selection(widget, widget_column)?.predicate(column)
            })
            .reduce(Expr::and)
    }
}

/// Fold `tasks` over a flow's named inputs: the one chain loop every
/// execution context runs. Before each task the current tables are put in
/// the order it takes them — a join's side named like its
/// [`JoinTask::left_name`] first — and the task leaves one table behind.
/// Appends one [`TaskRunStat`] per task to `runs`, offsets counted from
/// `since`. The chain must end in exactly one table.
pub fn run_chain(
    flow: &str,
    tasks: &[NamedTask],
    mut current: Vec<(Option<&str>, Table)>,
    rt: &TaskRuntime<'_>,
    since: Instant,
    runs: &mut Vec<TaskRunStat>,
) -> Result<Table> {
    for task in tasks {
        let t0 = Instant::now();
        task.kind.bind_inputs(&mut current);
        let inputs: Vec<Table> = current.drain(..).map(|(_, t)| t).collect();
        let mut notes = TaskNotes::new();
        let out = task
            .kind
            .execute_noted(&task.name, &inputs, rt, &mut notes)?;
        runs.push(TaskRunStat {
            task: task.name.clone(),
            task_type: task.kind.type_name().to_string(),
            flow: flow.to_string(),
            rows_in: inputs.iter().map(Table::num_rows).sum(),
            rows_out: out.num_rows(),
            start_us: t0.duration_since(since).as_micros() as u64,
            elapsed_us: t0.elapsed().as_micros() as u64,
            notes,
        });
        current.push((None, out));
    }
    match <[_; 1]>::try_from(current) {
        Ok([(_, table)]) => Ok(table),
        Err(current) => Err(EngineError::Execution {
            task: format!("flow D.{flow}"),
            message: format!(
                "flow ends with {} unmerged inputs; add a join or union task",
                current.len()
            ),
        }),
    }
}

/// The semijoin filter: keep the rows whose `columns` values appear in the
/// aligned `source_columns` (default: the same names) of data object
/// `object`, each pair through [`ops::key_members`] and the pairs AND-ed.
/// A source column with no non-null key constrains nothing, as an empty
/// widget selection does.
fn filter_by_data(
    task_name: &str,
    input: &Table,
    columns: &[String],
    object: &str,
    source_columns: &[String],
    rt: &TaskRuntime<'_>,
) -> Result<Table> {
    let err = |e: shareinsights_tabular::TabularError| exec_err(task_name, e);
    let Some(source_table) = (rt.lookup_table)(object) else {
        return Err(exec_err(
            task_name,
            format!("filter_source 'D.{object}' is not materialised"),
        ));
    };
    let mut mask = Bitmap::new_set(input.num_rows());
    for (i, col) in columns.iter().enumerate() {
        let src_col = source_columns
            .get(i)
            .or_else(|| source_columns.first())
            .unwrap_or(col);
        let src = source_table.column(src_col).map_err(err)?;
        if src.null_count() == src.len() {
            continue;
        }
        let members = ops::key_members(input.column(col).map_err(err)?, src).map_err(err)?;
        mask = mask.and(&members);
    }
    Ok(input.filter(&mask))
}

fn execute_groupby(
    task_name: &str,
    input: &Table,
    builtin: &GroupBy,
    custom: &[CustomAgg],
) -> Result<Table> {
    let err = |e: shareinsights_tabular::TabularError| exec_err(task_name, e);
    if custom.is_empty() {
        return ops::groupby(input, builtin).map_err(err);
    }
    // Mixed path: fold the builtin part (or bare keys) unordered, so that
    // row `g` of its table is group `g`, then attach each custom aggregate
    // computed over the rows the fold put in that group.
    let keys_only = builtin.aggregates.is_empty();
    let mut cfg = builtin.clone();
    cfg.orderby_aggregates = false;
    if keys_only {
        // Avoid the spurious default count when only custom aggs exist.
        cfg.aggregates = vec![AggregateSpec::new(AggKind::CountAll, "", "__count_tmp")];
    }
    let keys = builtin
        .keys
        .iter()
        .map(|k| Ok(KeyColumn::Cells(input.column(k)?)))
        .collect::<shareinsights_tabular::Result<Vec<_>>>()
        .map_err(err)?;
    // The fold's groups are the key coding's, in first-seen order.
    let rows = RowSel::new(input.num_rows(), None);
    let GroupIds { ids, reps } = group_ids(&keys, &rows);
    let groups = reps.len();
    let mut base = ops::groupby(input, &cfg).map_err(err)?;
    if keys_only {
        base = base.project(&builtin.keys).map_err(err)?;
    }
    let buckets = Buckets::new(&ids, &rows, groups);

    let mut out = base.clone();
    for cagg in custom {
        let src = input.column(&cagg.apply_on).map_err(err)?;
        let vals = (0..groups)
            .map(|g| {
                let rows = buckets.rows_of(g).iter();
                let bag: Vec<Value> = rows.map(|&i| src.value(i as usize)).collect();
                cagg.func.aggregate(&bag)
            })
            .collect::<shareinsights_tabular::Result<Vec<Value>>>()
            .map_err(err)?;
        out = out
            .with_column(
                &cagg.out_field,
                shareinsights_tabular::Column::from_values(&vals),
            )
            .map_err(err)?;
    }
    if let (true, Some(first)) = (builtin.orderby_aggregates, builtin.aggregates.first()) {
        let by = [SortKey::desc(&first.out_field)];
        let cmp = ops::KeyComparator::new(&base, &by).map_err(err)?;
        let mut order: Vec<usize> = (0..groups).collect();
        order.sort_by(|&a, &b| cmp.compare(a, b));
        out = out.take(&order);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::Selection;
    use shareinsights_flowfile::parse_flow_file;
    use shareinsights_tabular::{row, Column, Row};

    fn env_with<'a>(
        registry: &'a TaskRegistry,
        all_tasks: &'a [TaskDef],
        load: &'a dyn Fn(&str) -> Option<String>,
    ) -> InterpretEnv<'a> {
        InterpretEnv {
            registry,
            load_text: load,
            all_tasks,
        }
    }

    fn interpret_src(src: &str, task: &str) -> Result<NamedTask> {
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let loader = |name: &str| -> Option<String> {
            (name == "players.txt").then(|| "dhoni => MS Dhoni\nkohli => Virat Kohli".to_string())
        };
        let def = ff.task(task).expect("task exists").clone();
        let env = env_with(&reg, &ff.tasks, &loader);
        interpret_task(&def, &env)
    }

    #[test]
    fn interprets_paper_figure7_filter() {
        let t = interpret_src(
            "T:\n  classification:\n    type: filter_by\n    filter_expression: rating < 3\n",
            "classification",
        )
        .unwrap();
        assert!(matches!(t.kind, TaskKind::FilterExpr(_)));
    }

    #[test]
    fn interprets_paper_figure8_groupby() {
        let src = "T:\n  get_svn_jira_count:\n    type: groupby\n    groupby: [project, year]\n    aggregates:\n    - operator: sum\n      apply_on: noOfCheckins\n      out_field: total_checkins\n    - operator: sum\n      apply_on: noOfBugs\n      out_field: total_jira\n";
        let t = interpret_src(src, "get_svn_jira_count").unwrap();
        let TaskKind::GroupBy { builtin, custom } = &t.kind else {
            panic!("expected groupby")
        };
        assert_eq!(builtin.keys, vec!["project", "year"]);
        assert_eq!(builtin.aggregates.len(), 2);
        assert!(custom.is_empty());
        // Schema propagation on the paper's svn_jira_summary shape.
        let input = Schema::of(&[
            ("project", DataType::Utf8),
            ("year", DataType::Int64),
            ("noOfBugs", DataType::Int64),
            ("noOfCheckins", DataType::Int64),
        ]);
        let out = t.kind.output_schema(&t.name, &[input]).unwrap();
        assert_eq!(
            out.names(),
            vec!["project", "year", "total_checkins", "total_jira"]
        );
    }

    #[test]
    fn interprets_paper_join_with_projection() {
        let src = "T:\n  join_player_team:\n    type: join\n    left: players_tweets by player\n    right: team_players by player\n    join_condition: left outer\n    project:\n      players_tweets_date: date\n      players_tweets_count: noOfTweets\n      team_players_team: team\n";
        let t = interpret_src(src, "join_player_team").unwrap();
        let TaskKind::Join(j) = &t.kind else { panic!() };
        assert_eq!(j.left_name, "players_tweets");
        assert_eq!(j.spec.condition, JoinCondition::LeftOuter);
        assert_eq!(j.spec.projection.len(), 3);
        assert!(j.spec.projection[2].rename == "team" && !j.spec.projection[2].from_left);
    }

    #[test]
    fn interprets_map_date_and_validates_pattern() {
        let src = "T:\n  norm_ipldate:\n    type: map\n    operator: date\n    transform: postedTime\n    input_format: 'E MMM dd HH:mm:ss Z yyyy'\n    output_format: yyyy-MM-dd\n    output: date\n";
        let t = interpret_src(src, "norm_ipldate").unwrap();
        assert!(matches!(t.kind, TaskKind::MapDate(_)));

        let bad = "T:\n  bad:\n    type: map\n    operator: date\n    transform: x\n    input_format: 'QQQQ'\n    output_format: yyyy\n    output: y\n";
        let err = interpret_src(bad, "bad").unwrap_err();
        assert!(err.to_string().contains("T.bad"));
    }

    #[test]
    fn interprets_extract_with_dict_loading() {
        let src = "T:\n  extract_players:\n    type: map\n    operator: extract\n    transform: body\n    dict: players.txt\n    output: player\n";
        let t = interpret_src(src, "extract_players").unwrap();
        let TaskKind::MapExtract(m) = &t.kind else {
            panic!()
        };
        assert_eq!(m.dict.len(), 2);
        assert!(m.explode);

        let missing = "T:\n  e:\n    type: map\n    operator: extract\n    transform: body\n    dict: nope.txt\n    output: p\n";
        let err = interpret_src(missing, "e").unwrap_err();
        assert!(err.to_string().contains("nope.txt"));
    }

    #[test]
    fn interprets_parallel_composite() {
        let src = "T:\n  pipeline:\n    parallel: [T.a, T.b]\n  a:\n    type: map\n    operator: extract_words\n    transform: body\n    output: word\n  b:\n    type: limit\n    limit: 5\n";
        let t = interpret_src(src, "pipeline").unwrap();
        let TaskKind::Parallel(subs) = &t.kind else {
            panic!()
        };
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].name, "a");
    }

    #[test]
    fn interprets_topn() {
        let src = "T:\n  topwords:\n    type: topn\n    groupby: [date]\n    orderby_column: [count DESC]\n    limit: 20\n";
        let t = interpret_src(src, "topwords").unwrap();
        let TaskKind::TopN(tn) = &t.kind else {
            panic!()
        };
        assert_eq!(tn.limit, 20);
        assert_eq!(tn.order_by[0].column, "count");
    }

    #[test]
    fn unknown_type_suggests_extensions() {
        let err = interpret_src("T:\n  x:\n    type: frobnicate\n", "x").unwrap_err();
        assert!(err.to_string().contains("registered extension"));
    }

    #[test]
    fn filter_by_source_executes_with_selection() {
        // The figure-15 interaction filter.
        let src = "T:\n  filter_projects:\n    type: filter_by\n    filter_by: [project]\n    filter_source: W.project_category_bubble\n    filter_val: [text]\n";
        let t = interpret_src(src, "filter_projects").unwrap();
        let table =
            Table::from_rows(&["project", "n"], &[row!["pig", 1i64], row!["hive", 2i64]]).unwrap();

        // No provider -> pass-through.
        let out = t
            .kind
            .execute(&t.name, std::slice::from_ref(&table), &TaskRuntime::empty())
            .unwrap();
        assert_eq!(out.num_rows(), 2);

        // With a selection -> filters.
        let sel = crate::selection::StaticSelections::new();
        sel.set(
            "project_category_bubble",
            "text",
            Selection::Values(vec!["pig".into()]),
        );
        let rt = TaskRuntime {
            selections: Some(&sel),
            lookup_table: &|_| None,
        };
        let out = t
            .kind
            .execute(&t.name, std::slice::from_ref(&table), &rt)
            .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "project").unwrap().to_string(), "pig");
    }

    #[test]
    fn filter_by_range_selection() {
        let src = "T:\n  filter_by_date:\n    type: filter_by\n    filter_by: [date]\n    filter_source: W.ipl_duration\n";
        let t = interpret_src(src, "filter_by_date").unwrap();
        let table = Table::from_rows(
            &["date"],
            &[row!["2013-05-01"], row!["2013-05-05"], row!["2013-05-20"]],
        )
        .unwrap();
        let sel = crate::selection::StaticSelections::new();
        sel.set(
            "ipl_duration",
            "date",
            Selection::Range("2013-05-02".into(), "2013-05-10".into()),
        );
        let rt = TaskRuntime {
            selections: Some(&sel),
            lookup_table: &|_| None,
        };
        let out = t
            .kind
            .execute(&t.name, std::slice::from_ref(&table), &rt)
            .unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn semijoin_filter_from_data_object() {
        let src = "T:\n  keep_known:\n    type: filter_by\n    filter_by: [team]\n    filter_source: D.dim_teams\n    filter_val: [team]\n";
        let t = interpret_src(src, "keep_known").unwrap();
        let table = Table::from_rows(&["team"], &[row!["CSK"], row!["XXX"]]).unwrap();
        let dim = Table::from_rows(&["team"], &[row!["CSK"], row!["MI"]]).unwrap();
        let rt = TaskRuntime {
            selections: None,
            lookup_table: &move |name| (name == "dim_teams").then(|| dim.clone()),
        };
        let out = t
            .kind
            .execute(&t.name, std::slice::from_ref(&table), &rt)
            .unwrap();
        assert_eq!(out.num_rows(), 1);

        // Two pairs: each input column against its source column, the
        // pairs AND-ed (not a tuple match).
        let src = "T:\n  keep:\n    type: filter_by\n    filter_by: [k, v]\n    filter_source: D.dim\n    filter_val: [k, v]\n";
        let t = interpret_src(src, "keep").unwrap();
        let kept = |input: Table, dim: Table| -> Vec<usize> {
            let rt = TaskRuntime {
                selections: None,
                lookup_table: &move |name| (name == "dim").then(|| dim.clone()),
            };
            let input = input.with_column("row", Column::int(0..input.num_rows() as i64));
            let out = t.kind.execute(&t.name, &[input.unwrap()], &rt).unwrap();
            (0..out.num_rows())
                .map(|i| out.value(i, "row").unwrap().as_int().unwrap() as usize)
                .collect()
        };
        let input = Table::from_rows(
            &["k", "v"],
            &[
                row![1i64, "x"],
                row![2i64, "y"],
                row![1i64, "y"],
                row![Value::Null, "x"],
                row![3i64, "z"],
            ],
        )
        .unwrap();
        let dim = |rows: &[Row]| Table::from_rows(&["k", "v"], rows).unwrap();
        // (1, x) and (2, y) are not source tuples, but each cell is a key.
        let pairs = dim(&[row![1i64, "y"], row![2i64, "x"], row![Value::Null, "z"]]);
        assert_eq!(kept(input.clone(), pairs), [0, 1, 2]);
        // Int64 keys meet Float64 keys by value; a null key never matches.
        let floats = dim(&[row![1.0f64, "x"], row![2.5f64, "y"]]);
        assert_eq!(kept(input.clone(), floats), [0, 2]);
        // Int64 keys facing Utf8 keys match nothing.
        let text = dim(&[row!["1", "x"], row!["2", "y"]]);
        assert_eq!(kept(input.clone(), text), Vec::<usize>::new());
        // A source column with no non-null key constrains nothing.
        let no_keys = dim(&[row![Value::Null, "x"]]);
        assert_eq!(kept(input, no_keys), [0, 3]);
    }

    #[test]
    fn custom_aggregate_in_groupby() {
        struct Range01;
        impl AggregateFunction for Range01 {
            fn name(&self) -> &str {
                "spread"
            }
            fn output_type(&self, _input: DataType) -> DataType {
                DataType::Float64
            }
            fn aggregate(&self, values: &[Value]) -> shareinsights_tabular::Result<Value> {
                let nums: Vec<f64> = values.iter().filter_map(|v| v.as_float()).collect();
                if nums.is_empty() {
                    return Ok(Value::Null);
                }
                let max = nums.iter().cloned().fold(f64::MIN, f64::max);
                let min = nums.iter().cloned().fold(f64::MAX, f64::min);
                Ok(Value::Float(max - min))
            }
        }
        let ff = parse_flow_file(
            "t",
            "T:\n  g:\n    type: groupby\n    groupby: [k]\n    aggregates:\n    - operator: spread\n      apply_on: v\n      out_field: v_spread\n",
        )
        .unwrap();
        let reg = TaskRegistry::new();
        reg.register_aggregate(Arc::new(Range01));
        let loader = |_: &str| None;
        let env = env_with(&reg, &ff.tasks, &loader);
        let t = interpret_task(ff.task("g").unwrap(), &env).unwrap();

        let table = Table::from_rows(
            &["k", "v"],
            &[row!["a", 1i64], row!["a", 5i64], row!["b", 2i64]],
        )
        .unwrap();
        let out = t
            .kind
            .execute(&t.name, std::slice::from_ref(&table), &TaskRuntime::empty())
            .unwrap();
        assert_eq!(out.schema().names(), vec!["k", "v_spread"]);
        assert_eq!(out.value(0, "v_spread").unwrap(), Value::Float(4.0));
        assert_eq!(out.value(1, "v_spread").unwrap(), Value::Float(0.0));

        // Beside a builtin aggregate that orders the output, the custom
        // column follows its group: null keys are a group, ties keep
        // first-seen order.
        let ff = parse_flow_file(
            "t",
            "T:\n  g:\n    type: groupby\n    groupby: [k]\n    orderby_aggregates: true\n    aggregates:\n    - operator: sum\n      apply_on: v\n      out_field: total\n    - operator: spread\n      apply_on: v\n      out_field: v_spread\n",
        )
        .unwrap();
        let env = env_with(&reg, &ff.tasks, &loader);
        let t = interpret_task(ff.task("g").unwrap(), &env).unwrap();
        let table = Table::from_rows(
            &["k", "v"],
            &[
                row!["a", 1i64],
                row![Value::Null, 7i64],
                row!["b", 6i64],
                row!["a", 5i64],
                row![Value::Null, 9i64],
            ],
        )
        .unwrap();
        let out = t
            .kind
            .execute(&t.name, std::slice::from_ref(&table), &TaskRuntime::empty())
            .unwrap();
        assert_eq!(
            out.to_rows(),
            vec![
                row![Value::Null, 16i64, 2.0],
                row!["a", 6i64, 4.0],
                row!["b", 6i64, 0.0],
            ]
        );
    }

    #[test]
    fn parallel_composes_schemas_and_rows() {
        let src = "T:\n  pipe:\n    parallel: [T.d, T.w]\n  d:\n    type: map\n    operator: date\n    transform: posted\n    input_format: yyyy-MM-dd\n    output_format: 'yyyy/MM/dd'\n    output: date\n  w:\n    type: map\n    operator: extract_words\n    transform: body\n    output: word\n";
        let t = interpret_src(src, "pipe").unwrap();
        let table = Table::from_rows(
            &["posted", "body"],
            &[row!["2013-05-02", "great match today"]],
        )
        .unwrap();
        let schema = t
            .kind
            .output_schema(&t.name, &[table.schema().clone()])
            .unwrap();
        assert_eq!(schema.names(), vec!["posted", "body", "date", "word"]);
        let out = t
            .kind
            .execute(&t.name, std::slice::from_ref(&table), &TaskRuntime::empty())
            .unwrap();
        assert_eq!(out.num_rows(), 3, "one row per word");
        assert_eq!(out.value(0, "date").unwrap().to_string(), "2013/05/02");
    }

    #[test]
    fn input_columns_for_pruning() {
        let t = interpret_src(
            "T:\n  f:\n    type: filter_by\n    filter_expression: a < 3 and b == 'x'\n",
            "f",
        )
        .unwrap();
        assert_eq!(
            t.kind.input_columns(),
            Some(vec!["a".to_string(), "b".to_string()])
        );
    }
}
