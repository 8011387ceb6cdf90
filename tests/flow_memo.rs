//! The flow memo against the oracle it must be invisible to.
//!
//! Seeded edit scripts — change a parameter, toggle back to an earlier
//! variant, re-upload a source, republish a shared input, register and use
//! a custom task, upload a new dictionary — run through the platform (memo
//! attached) over the retail author flow and the paper's appendix A.1.
//! After every step the run must agree with `Executor::sequential()` on a
//! fresh context (no memo) cell for cell, float bits included, and the
//! flows that executed must be exactly those a naive model of "what has
//! been computed since the memo was last emptied" says changed. The
//! pipeline the run executed, which the platform keeps compiled in the
//! memo's pipeline entries, must equal a fresh compile of the saved text
//! in the platform's environment at that step.

#[path = "common/author.rs"]
mod author;

use shareinsights::core::telemetry::RunKind;
use shareinsights::core::Platform;
use shareinsights::datagen::{ipl, SeededRng};
use shareinsights::engine::ext::{exec_err, FnTask};
use shareinsights::engine::task::{interpret_task, InterpretEnv, NamedTask};
use shareinsights::engine::{
    compile, CompileEnv, CompiledPipeline, EngineError, ExecContext, Executor, FlowMemo,
    MemoVerdict, Stamp, TaskRegistry, Uncached,
};
use shareinsights::flowfile::ast::{FlowFile, TaskDef};
use shareinsights::flowfile::config::{ConfigMap, ConfigValue};
use shareinsights::flowfile::parse_flow_file;
use shareinsights::server::{Method, Request, Server};
use shareinsights::tabular::io::csv::{read_csv, write_csv, CsvOptions};
use shareinsights::tabular::{row, Column, DataType, Field, Schema, Table, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// One task of every type `interpret_task` accepts, every parameter set.
const EVERY_TASK: &str = r#"
T:
  f_expr:
    type: filter_by
    filter_expression: units >= 3
  f_data:
    type: filter_by
    filter_by: [brand]
    filter_source: D.brands
    filter_val: [name]
  g:
    type: groupby
    groupby: [brand, region]
    orderby_aggregates: true
    aggregates:
    - operator: sum
      apply_on: revenue
      out_field: revenue
  j:
    type: join
    left: sales by brand
    right: products by brand
    join_condition: inner
    project:
      sales_brand: brand
      products_category: category
  m_date:
    type: map
    operator: date
    transform: date
    input_format: yyyy-MM-dd
    output_format: yyyy-MM
    output: month
    lenient: true
  m_extract:
    type: map
    operator: extract
    transform: body
    dict: players.txt
    output: player
    explode: true
  m_location:
    type: map
    operator: extract_location
    transform: place
    country: IND
    output: state
  m_words:
    type: map
    operator: extract_words
    transform: body
    output: word
    min_len: 3
  top:
    type: topn
    groupby: [region]
    orderby_column: [revenue DESC]
    limit: 3
  s:
    type: sort
    orderby_column: [revenue DESC, brand ASC]
  d:
    type: distinct
    columns: [brand]
  l:
    type: limit
    limit: 10
  u:
    type: union
  q:
    type: sql
    query: "select region, sum(revenue) from sales group by region order by sum_revenue desc limit 3"
  p:
    type: project
    columns: [brand, region]
  par:
    parallel: [T.m_date, T.m_words]
"#;

/// Rewrites that keep a parameter valid: tried after "the last number
/// plus one" and before "append a 2".
const SWAPS: &[(&str, &str)] = &[
    ("DESC", "ASC"),
    ("ASC", "DESC"),
    ("inner", "left outer"),
    ("sum", "max"),
    ("true", "false"),
    ("yyyy-MM-dd", "dd-MM-yyyy"),
    ("yyyy-MM", "MM-yyyy"),
    ("players.txt", "teams.txt"),
    ("extract_location", "extract_words"),
    ("extract_words", "extract_location"),
    ("extract", "extract_words"),
    ("date", "extract_words"),
    ("T.m_date", "T.s"),
    ("T.m_words", "T.l"),
];

fn candidates(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(end) = s.rfind(|c: char| c.is_ascii_digit()) {
        let start = s[..=end]
            .rfind(|c: char| !c.is_ascii_digit())
            .map_or(0, |i| i + 1);
        let n: u64 = s[start..=end].parse().unwrap();
        out.push(format!("{}{}{}", &s[..start], n + 1, &s[end + 1..]));
    }
    for (from, to) in SWAPS {
        if s.contains(from) {
            out.push(s.replacen(from, to, 1));
        }
    }
    out.push(format!("{s}2"));
    out
}

/// A place in a parameter tree: entry or item indices, and whether the
/// last step names a map key rather than its value.
type Path = (Vec<usize>, bool);

fn leaves(value: &ConfigValue, at: &mut Vec<usize>, out: &mut Vec<(Path, String)>) {
    match value {
        ConfigValue::Scalar(s) => out.push(((at.clone(), false), s.clone())),
        ConfigValue::List(items) => {
            for (i, item) in items.iter().enumerate() {
                at.push(i);
                leaves(item, at, out);
                at.pop();
            }
        }
        ConfigValue::Map(map) => {
            for (i, (key, value, _)) in map.entries().enumerate() {
                at.push(i);
                out.push(((at.clone(), true), key.to_string()));
                leaves(value, at, out);
                at.pop();
            }
        }
    }
}

fn replaced(value: &ConfigValue, (at, key): &Path, new: &str) -> ConfigValue {
    match (value, at.split_first()) {
        (_, None) => ConfigValue::Scalar(new.to_string()),
        (ConfigValue::List(items), Some((&i, rest))) => {
            let mut items = items.clone();
            items[i] = replaced(&items[i], &(rest.to_vec(), *key), new);
            ConfigValue::List(items)
        }
        (ConfigValue::Map(map), Some((&i, rest))) => {
            let mut out = ConfigMap::new();
            for (j, (k, v, line)) in map.entries().enumerate() {
                if j != i {
                    out.push(k, v.clone(), line);
                } else if rest.is_empty() && *key {
                    out.push(new, v.clone(), line);
                } else {
                    out.push(k, replaced(v, &(rest.to_vec(), *key), new), line);
                }
            }
            ConfigValue::Map(out)
        }
        (ConfigValue::Scalar(_), Some(_)) => unreachable!("a path never descends into a scalar"),
    }
}

fn dict(name: &str) -> Option<String> {
    match name {
        "players.txt" => Some("dhoni => MS Dhoni\nkohli => Virat Kohli\n".into()),
        "teams.txt" => Some("csk => CSK\nrcb => RCB\n".into()),
        _ => None,
    }
}

fn interpret(
    def: &TaskDef,
    all: &[TaskDef],
    load: &dyn Fn(&str) -> Option<String>,
) -> Option<NamedTask> {
    let registry = TaskRegistry::new();
    let env = InterpretEnv {
        registry: &registry,
        load_text: load,
        all_tasks: all,
    };
    interpret_task(def, &env).ok()
}

#[test]
fn changing_any_parameter_of_any_task_type_changes_its_fingerprint() {
    let ff = parse_flow_file("t", EVERY_TASK).unwrap();
    let mut checked = 0;
    for (at, def) in ff.tasks.iter().enumerate() {
        let base = interpret(def, &ff.tasks, &dict).unwrap_or_else(|| panic!("T.{}", def.name));
        let fingerprint = base
            .fingerprint
            .unwrap_or_else(|| panic!("T.{} is pure", def.name));
        let mut paths = Vec::new();
        leaves(
            &ConfigValue::Map(def.params.clone()),
            &mut Vec::new(),
            &mut paths,
        );
        for (path, text) in paths {
            let mut interpreted = 0;
            for candidate in candidates(&text) {
                let ConfigValue::Map(params) =
                    replaced(&ConfigValue::Map(def.params.clone()), &path, &candidate)
                else {
                    unreachable!()
                };
                let edited = TaskDef {
                    params,
                    ..def.clone()
                };
                let mut all = ff.tasks.clone();
                all[at] = edited.clone();
                let Some(task) = interpret(&edited, &all, &dict) else {
                    continue;
                };
                interpreted += 1;
                assert_ne!(
                    task.fingerprint,
                    Some(fingerprint),
                    "T.{}: '{text}' -> '{candidate}' kept the fingerprint",
                    def.name
                );
            }
            // Every value has a valid edit; a renamed key may not.
            assert!(
                interpreted > 0 || path.1,
                "T.{}: no valid edit of '{text}'",
                def.name
            );
            checked += interpreted;
        }
    }
    assert!(checked > 40, "{checked} edits checked");

    let fingerprint_of = |name: &str, all: &[TaskDef], load: &dyn Fn(&str) -> Option<String>| {
        let def = all.iter().find(|d| d.name == name).unwrap();
        interpret(def, all, load).unwrap().fingerprint
    };
    // A dictionary's bytes are part of the task that loaded it.
    let other = |name: &str| dict(name).map(|d| d.replace("kohli", "rohit"));
    assert_ne!(
        fingerprint_of("m_extract", &ff.tasks, &dict),
        fingerprint_of("m_extract", &ff.tasks, &other)
    );
    // A parallel composite changes with its members' definitions.
    let mut all = ff.tasks.clone();
    let m_date = all.iter_mut().find(|d| d.name == "m_date").unwrap();
    let ConfigValue::Map(params) = replaced(
        &ConfigValue::Map(m_date.params.clone()),
        &(vec![3], false),
        "yyyy",
    ) else {
        unreachable!()
    };
    m_date.params = params;
    assert_ne!(
        fingerprint_of("par", &ff.tasks, &dict),
        fingerprint_of("par", &all, &dict)
    );
    // The name is not part of it.
    let mut renamed = ff.task("top").unwrap().clone();
    renamed.name = "best".into();
    assert_eq!(
        interpret(&renamed, &ff.tasks, &dict).unwrap().fingerprint,
        fingerprint_of("top", &ff.tasks, &dict)
    );
}

#[test]
fn tasks_that_read_past_their_inputs_have_no_fingerprint() {
    let src = r#"
T:
  custom:
    type: stamp_rows
  custom_map:
    type: map
    operator: shout
    transform: brand
    output: loud
  custom_agg:
    type: groupby
    groupby: [brand]
    aggregates:
    - operator: spread
      apply_on: revenue
      out_field: spread
  by_widget:
    type: filter_by
    filter_by: [brand]
    filter_source: W.brands
  wrapped:
    parallel: [T.custom_map, T.l]
  l:
    type: limit
    limit: 3
"#;
    struct Shout;
    impl shareinsights::engine::ext::ScalarOperator for Shout {
        fn name(&self) -> &str {
            "shout"
        }
        fn apply(&self, value: &Value) -> Value {
            Value::Str(value.to_string().to_uppercase())
        }
    }
    struct Spread;
    impl shareinsights::tabular::agg::AggregateFunction for Spread {
        fn name(&self) -> &str {
            "spread"
        }
        fn output_type(&self, _: DataType) -> DataType {
            DataType::Float64
        }
        fn aggregate(&self, values: &[Value]) -> shareinsights::tabular::Result<Value> {
            Ok(Value::Float(values.len() as f64))
        }
    }
    let registry = TaskRegistry::new();
    registry.register_task(stamp_rows());
    registry.register_operator(Arc::new(Shout));
    registry.register_aggregate(Arc::new(Spread));
    let ff = parse_flow_file("t", src).unwrap();
    let env = InterpretEnv {
        registry: &registry,
        load_text: &|_| None,
        all_tasks: &ff.tasks,
    };
    for (name, reason) in [
        ("custom", Some(Uncached::ExtensionTask)),
        ("custom_map", Some(Uncached::ExtensionTask)),
        ("custom_agg", Some(Uncached::ExtensionTask)),
        ("by_widget", Some(Uncached::WidgetSelection)),
        ("wrapped", Some(Uncached::ExtensionTask)),
        ("l", None),
    ] {
        let task = interpret_task(ff.task(name).unwrap(), &env).unwrap();
        assert_eq!(task.kind.uncached_reason(), reason, "T.{name}");
        assert_eq!(task.fingerprint.is_none(), reason.is_some(), "T.{name}");
    }
}

// ---------------------------------------------------------------------------
// The executor with a memo attached
// ---------------------------------------------------------------------------

#[test]
fn every_flow_says_why_it_was_not_memoised() {
    let src = r#"
D:
  api_rows: [brand, revenue]
  injected: [brand, revenue]
  stamped: [brand, revenue]
D.api_rows:
  source: 'https://api.example.com/rows'
  format: csv
T:
  stamp:
    type: stamp_rows
  keep:
    type: filter_by
    filter_by: [brand]
    filter_source: W.brands
  l:
    type: limit
    limit: 2
F:
  +D.live: D.api_rows | T.l
  +D.live_child: D.live | T.l
  +D.custom: D.stamped | T.stamp
  +D.widget: D.stamped | T.keep
  +D.unstamped: D.injected | T.l
  +D.pure: D.stamped | T.l
"#;
    let registry = TaskRegistry::new();
    registry.register_task(stamp_rows());
    let ff = parse_flow_file("t", src).unwrap();
    let env = shareinsights::engine::CompileEnv::bare(&registry);
    let pipeline = shareinsights::engine::compile(&ff, &env).unwrap();
    let catalog = shareinsights::connectors::Catalog::new();
    catalog.http().route(
        "https://api.example.com/rows",
        "brand,revenue\na,1\nb,2\n",
        Some("csv"),
    );
    let rows = Table::from_rows(
        &["brand", "revenue"],
        &[row!["a", 1i64], row!["b", 2i64], row!["c", 3i64]],
    )
    .unwrap();
    let memo = FlowMemo::new();
    let ctx = ExecContext::new(catalog)
        .with_table("injected", rows.clone())
        .with_stamped_table("stamped", rows, Stamp::Published(7))
        .with_memo(memo.clone(), 1);
    let verdicts = |result: &shareinsights::engine::ExecResult| -> BTreeMap<String, MemoVerdict> {
        let stats = &result.stats;
        stats
            .flows
            .iter()
            .map(|f| (f.flow.clone(), f.memo))
            .collect()
    };
    let first = Executor::default().execute(&pipeline, &ctx).unwrap();
    let uncached = |reason| MemoVerdict::Uncached(reason);
    let mut expected: BTreeMap<String, MemoVerdict> = [
        ("live", uncached(Uncached::LiveSource)),
        ("live_child", uncached(Uncached::LiveSource)),
        ("custom", uncached(Uncached::ExtensionTask)),
        ("widget", uncached(Uncached::WidgetSelection)),
        ("unstamped", uncached(Uncached::UnstampedInput)),
        ("pure", MemoVerdict::Miss),
    ]
    .into_iter()
    .map(|(f, v)| (f.to_string(), v))
    .collect();
    assert_eq!(verdicts(&first), expected);
    assert_eq!((first.stats.memo_hits, first.stats.memo_misses), (0, 1));

    let again = Executor::sequential().execute(&pipeline, &ctx).unwrap();
    expected.insert("pure".into(), MemoVerdict::Hit);
    assert_eq!(verdicts(&again), expected);
    assert_eq!((again.stats.memo_hits, again.stats.memo_misses), (1, 0));
    assert!(again.stats.task_runs.iter().all(|t| t.flow != "pure"));
    assert_same_result(&first, &again, "identical re-run");

    // A new stamp is new data; a newer registration epoch empties the memo.
    let restamped = ctx.clone().with_stamped_table(
        "stamped",
        first.tables["pure"].clone(),
        Stamp::Published(8),
    );
    let third = Executor::default().execute(&pipeline, &restamped).unwrap();
    assert_eq!(third.stats.memo_misses, 1);
    assert_eq!(third.table("pure").unwrap().num_rows(), 2);
    let newer = ExecContext::new(ctx.catalog.clone())
        .with_table("injected", first.tables["injected"].clone())
        .with_stamped_table(
            "stamped",
            first.tables["stamped"].clone(),
            Stamp::Published(7),
        )
        .with_memo(memo.clone(), 2);
    let fourth = Executor::default().execute(&pipeline, &newer).unwrap();
    assert_eq!((fourth.stats.memo_hits, fourth.stats.memo_misses), (0, 1));
    assert_eq!(memo.stats().entries, 1);

    // No memo attached: everything runs and no verdict is recorded.
    let plain = ExecContext::new(ctx.catalog.clone())
        .with_table("injected", first.tables["injected"].clone())
        .with_table("stamped", first.tables["stamped"].clone());
    let oracle = Executor::sequential().execute(&pipeline, &plain).unwrap();
    assert!(oracle.stats.flows.is_empty() && oracle.stats.memo_hits == 0);
    assert_same_result(&oracle, &again, "memo-less oracle");
}

#[test]
fn inputs_are_keyed_by_name_because_a_join_binds_them_by_name() {
    // Two flows over equally stamped inputs in the same order; only the
    // names differ, and the join's `left:` picks its side by name.
    let flow = |inputs: &str| {
        format!(
            "D:\n  a: [k, v]\n  b: [k, v]\nT:\n  j:\n    type: join\n    left: a by k\n    \
             right: b by k\n    join_condition: left outer\nF:\n  +D.x: ({inputs}) | T.j\n"
        )
    };
    let registry = TaskRegistry::new();
    let env = shareinsights::engine::CompileEnv::bare(&registry);
    let compiled = |text: &str| {
        let ff = parse_flow_file("t", text).unwrap();
        shareinsights::engine::compile(&ff, &env).unwrap()
    };
    let one = Table::from_rows(&["k", "v"], &[row!["p", 1i64], row!["q", 2i64]]).unwrap();
    let two = Table::from_rows(&["k", "v"], &[row!["p", 3i64]]).unwrap();
    let catalog = shareinsights::connectors::Catalog::new();
    let memo = FlowMemo::new();
    let context = |first: &str, second: &str| {
        ExecContext::new(catalog.clone())
            .with_stamped_table(first, one.clone(), Stamp::Published(1))
            .with_stamped_table(second, two.clone(), Stamp::Published(2))
    };
    for (inputs, first, second) in [("D.a, D.b", "a", "b"), ("D.b, D.a", "b", "a")] {
        let pipeline = compiled(&flow(inputs));
        let ctx = context(first, second);
        let memoised = ctx.clone().with_memo(memo.clone(), 1);
        let got = Executor::default().execute(&pipeline, &memoised).unwrap();
        let want = Executor::sequential().execute(&pipeline, &ctx).unwrap();
        assert_eq!(got.stats.memo_hits, 0, "({inputs})");
        assert_same_result(&want, &got, inputs);
    }
}

// ---------------------------------------------------------------------------
// Seeded edit scripts through the platform
// ---------------------------------------------------------------------------

/// A custom task that numbers its rows; registered, it empties the memo.
fn stamp_rows() -> Arc<FnTask> {
    Arc::new(FnTask::new(
        "stamp_rows",
        |s: &Schema| {
            s.with_field(Field::new("stamp", DataType::Int64))
                .map_err(|e| EngineError::Internal(e.to_string()))
        },
        |t: &Table| {
            let stamps = Column::int((0..t.num_rows()).map(|i| i as i64));
            t.with_column("stamp", stamps)
                .map_err(|e| exec_err("stamp_rows", e))
        },
    ))
}

/// Every cell, floats as their bits.
fn cells(t: &Table) -> Vec<Vec<String>> {
    (0..t.num_rows())
        .map(|i| {
            t.columns()
                .iter()
                .map(|c| match c.value(i) {
                    Value::Float(f) => format!("f{:016x}", f.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect()
        })
        .collect()
}

fn assert_same_table(want: Option<&Table>, got: Option<&Table>, what: &str) {
    let (want, got) = (want.expect(what), got.expect(what));
    assert_eq!(want.schema().fields(), got.schema().fields(), "{what}");
    assert_eq!(cells(want), cells(got), "{what}");
}

/// Two results agree in everything but what ran.
fn assert_same_result(
    want: &shareinsights::engine::ExecResult,
    got: &shareinsights::engine::ExecResult,
    what: &str,
) {
    assert_eq!(want.endpoints, got.endpoints, "{what}");
    assert_eq!(
        want.tables.keys().collect::<Vec<_>>(),
        got.tables.keys().collect::<Vec<_>>(),
        "{what}"
    );
    for (name, table) in &want.tables {
        assert_same_table(Some(table), got.table(name), &format!("{what}: D.{name}"));
    }
    let (w, g) = (&want.stats, &got.stats);
    assert_eq!(
        (w.source_rows, &w.rows_out, w.endpoint_bytes),
        (g.source_rows, &g.rows_out, g.endpoint_bytes),
        "{what}"
    );
}

fn config_text(value: &ConfigValue) -> String {
    match value {
        ConfigValue::Scalar(s) => format!("{s:?}"),
        ConfigValue::List(items) => {
            let items: Vec<String> = items.iter().map(config_text).collect();
            format!("[{}]", items.join(","))
        }
        ConfigValue::Map(map) => {
            let entries: Vec<String> = map
                .entries()
                .map(|(k, v, _)| format!("{k:?}:{}", config_text(v)))
                .collect();
            format!("{{{}}}", entries.join(","))
        }
    }
}

/// A dashboard's saved text parsed and compiled afresh in the platform's
/// current environment — its task registry, its data folder (dictionaries,
/// the dashboard's namespaced sources) and every shared object's schema —
/// with no memo: what the platform's compile did before it kept pipelines.
fn fresh_compile(platform: &Platform, dashboard: &str) -> CompiledPipeline {
    let text = platform.dashboard(dashboard).unwrap().text;
    let ast = parse_flow_file(dashboard, &text).unwrap();
    let folder = platform.catalog().data_folder();
    let load = |path: &str| {
        let bytes = folder
            .get(&format!("{dashboard}/{path}"))
            .or_else(|| folder.get(path))?;
        String::from_utf8(bytes.to_vec()).ok()
    };
    let shared = platform.publish_registry();
    let env = CompileEnv {
        registry: platform.tasks(),
        load_text: &load,
        shared_schemas: shared
            .names()
            .into_iter()
            .filter_map(|name| Some((name.clone(), shared.get(&name)?.schema)))
            .collect(),
    };
    let mut pipeline = compile(&ast, &env).unwrap();
    for cfg in pipeline.sources.values_mut() {
        let namespaced = format!("{dashboard}/{}", cfg.source.as_deref().unwrap());
        if folder.get(&namespaced).is_some() {
            cfg.source = Some(namespaced);
        }
    }
    pipeline
}

/// The pipeline a run of `dashboard` executes equals a fresh compile: its
/// flows with every task's fingerprint, graph, sources, endpoints and
/// published names as written out, its schemas by value (a schema's
/// column index is a hash map, so its `Debug` text has no fixed order).
fn assert_fresh_pipeline(platform: &Platform, dashboard: &str, what: &str) -> CompiledPipeline {
    let (got, want) = (
        platform.compile_dashboard(dashboard).unwrap(),
        fresh_compile(platform, dashboard),
    );
    let text = |p: &CompiledPipeline| {
        let CompiledPipeline {
            name,
            flows,
            graph,
            sources,
            schemas: _,
            endpoints,
            published,
        } = p;
        format!("{name} {flows:?} {graph:?} {sources:?} {endpoints:?} {published:?}")
    };
    let what = format!("{what}: the pipeline the platform runs");
    assert_eq!(text(&got), text(&want), "{what}");
    assert_eq!(got.schemas, want.schemas, "{what}");
    got
}

/// One author's session, and the naive model of what the memo holds.
struct Session {
    platform: Platform,
    dashboard: &'static str,
    /// Uploads per data-folder path: the model's source versions.
    uploads: BTreeMap<String, u64>,
    /// Publishes per shared object.
    publishes: BTreeMap<String, u64>,
    /// The model keys of every flow output computed since the memo was
    /// last emptied.
    seen: BTreeSet<String>,
    /// The endpoints' model keys at the last run.
    installed: Option<BTreeMap<String, Option<String>>>,
    registered: bool,
}

impl Session {
    fn new(dashboard: &'static str) -> Session {
        Session {
            platform: Platform::new(),
            dashboard,
            uploads: BTreeMap::new(),
            publishes: BTreeMap::new(),
            seen: BTreeSet::new(),
            installed: None,
            registered: false,
        }
    }

    fn upload(&mut self, path: &str, content: &str) {
        self.platform.upload_data(self.dashboard, path, content);
        *self.uploads.entry(path.to_string()).or_default() += 1;
    }

    fn publish(&mut self, name: &str, table: &Table) {
        let schema = table.schema().clone();
        self.platform
            .publish_registry()
            .publish(name, "catalog", name, schema, Some(table.clone()))
            .unwrap();
        *self.publishes.entry(name.to_string()).or_default() += 1;
    }

    fn register_stamp_rows(&mut self) {
        self.platform.tasks().register_task(stamp_rows());
        self.registered = true;
        self.seen.clear();
    }

    /// A task as the model sees it: type and parameters as written, the
    /// members of a composite, the dictionary it loads; `None` for the
    /// custom task.
    fn task_text(&self, ast: &FlowFile, name: &str) -> Option<String> {
        let def = ast.task(name).unwrap();
        if def.task_type == "stamp_rows" {
            return None;
        }
        let mut text = format!(
            "{}{}",
            def.task_type,
            config_text(&ConfigValue::Map(def.params.clone()))
        );
        if let Some(file) = def.params.get_scalar("dict") {
            let path = format!("{}/{file}", self.dashboard);
            let bytes = self.platform.catalog().data_folder().get(&path).unwrap();
            text.push_str(&String::from_utf8_lossy(&bytes));
        }
        if let Some(members) = def.params.get("parallel") {
            for member in members.scalar_items() {
                text.push_str(&self.task_text(ast, member.trim_start_matches("T."))?);
            }
        }
        Some(text)
    }

    /// What a data object was computed from, as the model sees it;
    /// `None` when it is recomputed on every run.
    fn model_key(&self, ast: &FlowFile, object: &str) -> Option<String> {
        if let Some(flow) = ast.flows.iter().find(|f| f.output == object) {
            let mut key = String::from("flow(");
            for task in &flow.tasks {
                key.push_str(&self.task_text(ast, task)?);
            }
            for input in &flow.inputs {
                key.push_str(&format!(";{input}={}", self.model_key(ast, input)?));
            }
            return Some(key + ")");
        }
        match ast
            .data_object(object)
            .and_then(|d| d.props.get_scalar("source"))
        {
            Some(path) => Some(format!("file({path}#{})", self.uploads[path])),
            None => Some(format!("shared({object}#{})", self.publishes[object])),
        }
    }

    /// Run the dashboard; check it against the oracle and the model.
    fn run(&mut self, step: &str) {
        let ast = self.platform.dashboard(self.dashboard).unwrap().ast;
        let pipeline = assert_fresh_pipeline(&self.platform, self.dashboard, step);
        let mut expected = BTreeSet::new();
        let mut computed = Vec::new();
        for flow in &pipeline.flows {
            match self.model_key(&ast, &flow.output) {
                Some(key) if self.seen.contains(&key) => {}
                Some(key) => {
                    expected.insert(flow.output.clone());
                    computed.push(key);
                }
                None => {
                    expected.insert(flow.output.clone());
                }
            }
        }

        let generation = self.platform.data_generation(self.dashboard);
        let report = self.platform.run_dashboard(self.dashboard).unwrap();
        let stats = &report.result.stats;
        let ran: BTreeSet<String> = stats.task_runs.iter().map(|t| t.flow.clone()).collect();
        assert_eq!(ran, expected, "{step}: the flows that executed");
        let hits: BTreeSet<String> = stats
            .flows
            .iter()
            .filter(|f| f.memo == MemoVerdict::Hit)
            .map(|f| f.flow.clone())
            .collect();
        assert!(hits.is_disjoint(&ran), "{step}");
        assert_eq!(hits.len() + ran.len(), pipeline.flows.len(), "{step}");
        assert_eq!(stats.memo_hits, hits.len(), "{step}");
        self.seen.extend(computed);
        // The generation moves exactly when the served tables change: an
        // endpoint computed from something else, or recomputed.
        let endpoints: BTreeMap<String, Option<String>> = report
            .result
            .endpoints
            .iter()
            .map(|e| (e.clone(), self.model_key(&ast, e)))
            .collect();
        let changed =
            self.installed.as_ref() != Some(&endpoints) || endpoints.values().any(Option::is_none);
        let moved = self.platform.data_generation(self.dashboard) != generation;
        assert_eq!(moved, changed, "{step}: generation");
        self.installed = Some(endpoints);

        // The oracle: sequential, on a fresh context, no memo.
        let mut ctx = ExecContext::new(self.platform.catalog().clone());
        for input in pipeline.flows.iter().flat_map(|f| &f.inputs) {
            if !pipeline.sources.contains_key(input) && !pipeline.graph.is_produced(input) {
                let shared = self.platform.publish_registry().get(input).unwrap();
                ctx = ctx.with_table(input, shared.snapshot.unwrap());
            }
        }
        let oracle = Executor::sequential().execute(&pipeline, &ctx).unwrap();
        assert_same_result(&oracle, &report.result, step);
        let served = self
            .platform
            .dashboard(self.dashboard)
            .unwrap()
            .endpoint_tables;
        for endpoint in &oracle.endpoints {
            let what = format!("{step}: served D.{endpoint}");
            assert_same_table(oracle.table(endpoint), served.get(endpoint), &what);
        }
    }

    fn finish(&self) {
        let memo = self.platform.flow_memo().stats();
        assert_eq!(memo.evictions, 0, "the model assumes no eviction: {memo:?}");
        assert!(memo.hits > 0, "{memo:?}");
    }
}

/// The retail author flow's editable parameters.
#[derive(Clone, Debug)]
struct Retail {
    min_units: usize,
    month_format: &'static str,
    limit: usize,
    join: &'static str,
    custom: bool,
}

impl Retail {
    fn render(&self, shared_products: bool) -> String {
        let mut text = author::flow(self.min_units)
            .replace(
                "output_format: yyyy-MM\n",
                &format!("output_format: {}\n", self.month_format),
            )
            .replace("limit: 3\n", &format!("limit: {}\n", self.limit))
            .replace(
                "join_condition: inner",
                &format!("join_condition: {}", self.join),
            );
        if self.custom {
            text = text
                .replace("| T.top_brands\n", "| T.top_brands | T.stamped\n")
                .replace("T:\n", "T:\n  stamped:\n    type: stamp_rows\n");
        }
        if shared_products {
            text = text.replace("D.products:\n  source: 'products.csv'\n  format: csv\n", "");
        }
        text
    }
}

fn retail_script(seed: u64, shared_products: bool) {
    const STEPS: usize = 10;
    let mut rng = SeededRng::new(seed);
    let mut s = Session::new("retail");
    let (sales, products_csv) = author::sources(seed, 600);
    s.upload("sales.csv", &sales);
    let products = read_csv(&products_csv, &CsvOptions::default()).unwrap();
    if shared_products {
        s.publish("products", &products);
    } else {
        s.upload("products.csv", &products_csv);
    }
    let mut now = Retail {
        min_units: 3,
        month_format: "yyyy-MM",
        limit: 3,
        join: "inner",
        custom: false,
    };
    let mut before = now.clone();
    let save = |s: &Session, r: &Retail| {
        s.platform
            .save_flow(s.dashboard, &r.render(shared_products))
            .unwrap();
    };
    save(&s, &now);
    s.run(&format!("seed {seed}: first run"));
    for (step, kind) in schedule(&mut rng, STEPS).into_iter().enumerate() {
        let what = match kind {
            0 => {
                before = now.clone();
                match rng.index(4) {
                    0 => now.min_units = rng.index(6),
                    1 => now.month_format = *rng.pick(&["yyyy-MM", "yyyy"]),
                    2 => now.limit = 1 + rng.index(4),
                    _ => now.join = *rng.pick(&["inner", "left outer"]),
                }
                format!("edit {now:?}")
            }
            1 => {
                std::mem::swap(&mut now, &mut before);
                format!("toggle to {now:?}")
            }
            2 => {
                let same = rng.chance(0.5);
                let bytes = if same {
                    sales.clone()
                } else {
                    author::sources(seed + 100 + step as u64, 600).0
                };
                s.upload("sales.csv", &bytes);
                format!("re-upload sales.csv (same bytes: {same})")
            }
            3 => {
                let same = rng.chance(0.5);
                let rows = products.num_rows() - usize::from(!same);
                if shared_products {
                    s.publish("products", &products.slice(0, rows));
                    format!("republish products (same table: {same})")
                } else {
                    s.upload("products.csv", &write_csv(&products.slice(0, rows), ','));
                    format!("re-upload products.csv (same bytes: {same})")
                }
            }
            4 if !s.registered => {
                s.register_stamp_rows();
                now.custom = true;
                "register stamp_rows and use it".to_string()
            }
            4 => {
                now.custom = !now.custom;
                format!("use stamp_rows: {}", now.custom)
            }
            _ => "run unedited".to_string(),
        };
        save(&s, &now);
        s.run(&format!("seed {seed} step {step}: {what}"));
    }
    s.finish();
}

#[test]
fn retail_edit_scripts_agree_with_the_oracle() {
    for seed in [1, 5, 7, 11] {
        retail_script(seed, false);
    }
}

#[test]
fn retail_edit_scripts_over_a_shared_input_agree_with_the_oracle() {
    for seed in [2, 3, 13] {
        retail_script(seed, true);
    }
}

/// Appendix A.1's editable parameters.
#[derive(Clone, Debug)]
struct AppendixA1 {
    date_format: &'static str,
    limit: usize,
    player_join: &'static str,
    custom: bool,
}

impl AppendixA1 {
    fn render(&self) -> String {
        let mut text = include_str!("common/appendix_a1.flow")
            .replace(
                "output_format: yyyy-MM-dd\n",
                &format!("output_format: {}\n", self.date_format),
            )
            .replace("limit: 20\n", &format!("limit: {}\n", self.limit))
            .replace(
                "right: team_players by player\n    join_condition: left outer",
                &format!(
                    "right: team_players by player\n    join_condition: {}",
                    self.player_join
                ),
            );
        if self.custom {
            text = text
                .replace("    T.topwords\n", "    T.topwords | T.stamped\n")
                .replace("T:\n", "T:\n  stamped:\n    type: stamp_rows\n");
        }
        text + "
D.ipl_tweets:
  source: 'tweets.json'
  format: json
D.team_players:
  source: 'team_players.csv'
  format: csv
D.dim_teams:
  source: 'dim_teams.csv'
  format: csv
D.lat_long:
  source: 'lat_long.csv'
  format: csv
D.player_tweets:
  endpoint: true
D.team_tweets:
  endpoint: true
D.team_region_tweets:
  endpoint: true
D.tagcloud_tweets:
  endpoint: true
"
    }
}

/// The step kinds of a script: each of the six once, in a seeded order,
/// then seeded picks.
fn schedule(rng: &mut SeededRng, steps: usize) -> Vec<usize> {
    let mut kinds: Vec<usize> = (0..6).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.index(i + 1));
    }
    kinds.extend((6..steps).map(|_| rng.index(6)));
    kinds
}

/// `text` without its last line.
fn shortened(text: &str) -> String {
    let body = text.trim_end_matches('\n');
    body[..body.rfind('\n').unwrap_or(0)].to_string() + "\n"
}

fn appendix_script(seed: u64) {
    const STEPS: usize = 8;
    let mut rng = SeededRng::new(seed);
    let corpus = |seed| {
        ipl::generate(&ipl::IplConfig {
            seed,
            tweets: 300,
            ..Default::default()
        })
    };
    let c = corpus(seed);
    let mut s = Session::new("ipl_processing");
    let files: Vec<(&str, String)> = vec![
        ("tweets.json", c.tweets_ndjson.clone()),
        ("team_players.csv", write_csv(&c.team_players, ',')),
        ("dim_teams.csv", write_csv(&c.dim_teams, ',')),
        ("lat_long.csv", write_csv(&c.lat_long, ',')),
    ];
    for (path, content) in &files {
        s.upload(path, content);
    }
    let dicts = [
        ("players.txt", c.players_dict.clone()),
        ("teams.csv", c.teams_dict.clone()),
    ];
    for (path, content) in &dicts {
        s.upload(path, content);
    }
    let mut now = AppendixA1 {
        date_format: "yyyy-MM-dd",
        limit: 20,
        player_join: "left outer",
        custom: false,
    };
    let mut before = now.clone();
    let save = |s: &Session, a: &AppendixA1| {
        s.platform.save_flow(s.dashboard, &a.render()).unwrap();
    };
    save(&s, &now);
    s.run(&format!("A.1 seed {seed}: first run"));
    for (step, kind) in schedule(&mut rng, STEPS).into_iter().enumerate() {
        let what = match kind {
            0 => {
                before = now.clone();
                match rng.index(3) {
                    0 => now.date_format = *rng.pick(&["yyyy-MM-dd", "yyyy/MM/dd"]),
                    1 => now.limit = 1 + rng.index(30),
                    _ => now.player_join = *rng.pick(&["left outer", "inner"]),
                }
                format!("edit {now:?}")
            }
            1 => {
                std::mem::swap(&mut now, &mut before);
                format!("toggle to {now:?}")
            }
            2 => {
                let (path, content) = rng.pick(&files).clone();
                let same = rng.chance(0.5);
                let bytes = match (same, path) {
                    (true, _) => content,
                    (false, "tweets.json") => corpus(seed + 50 + step as u64).tweets_ndjson,
                    (false, _) => shortened(&content),
                };
                s.upload(path, &bytes);
                format!("re-upload {path} (same bytes: {same})")
            }
            3 => {
                let (path, content) = rng.pick(&dicts).clone();
                let same = rng.chance(0.5);
                let bytes = if same { content } else { shortened(&content) };
                s.upload(path, &bytes);
                format!("upload dictionary {path} (same bytes: {same})")
            }
            4 if !s.registered => {
                s.register_stamp_rows();
                now.custom = true;
                "register stamp_rows and use it".to_string()
            }
            4 => {
                now.custom = !now.custom;
                format!("use stamp_rows: {}", now.custom)
            }
            _ => "run unedited".to_string(),
        };
        save(&s, &now);
        s.run(&format!("A.1 seed {seed} step {step}: {what}"));
    }
    s.finish();
}

#[test]
fn appendix_a1_edit_scripts_agree_with_the_oracle() {
    for seed in [1, 5, 7, 42] {
        appendix_script(seed);
    }
}

#[test]
fn a_republish_with_an_unchanged_schema_keeps_the_compiled_pipeline() {
    let mut s = Session::new("retail");
    let (sales, products_csv) = author::sources(17, 600);
    s.upload("sales.csv", &sales);
    let products = read_csv(&products_csv, &CsvOptions::default()).unwrap();
    s.publish("products", &products);
    let text = Retail {
        min_units: 3,
        month_format: "yyyy-MM",
        limit: 3,
        join: "inner",
        custom: false,
    }
    .render(true);
    s.platform.save_flow(s.dashboard, &text).unwrap();
    s.run("first run");
    let memo = s.platform.flow_memo().clone();
    let pipelines = || memo.pipeline_stats();
    // Fewer rows, the same schema: the compile `run` checks and the run's
    // own are both hits.
    let before = pipelines();
    s.publish("products", &products.slice(0, products.num_rows() - 1));
    s.run("republish with the same schema");
    let after = pipelines();
    assert_eq!(
        (after.hits - before.hits, after.misses),
        (2, before.misses),
        "{after:?}"
    );
    // A column more: the first lookup compiles again.
    let ids = Column::int((0..products.num_rows()).map(|i| i as i64));
    s.publish("products", &products.with_column("id", ids).unwrap());
    s.run("republish with a new column");
    let last = pipelines();
    assert_eq!(
        (last.hits - after.hits, last.misses - after.misses),
        (1, 1),
        "{last:?}"
    );
    // A hit records its events as a compile did: one save, and a compile
    // per lookup (two per step) beside each run.
    let log = s.platform.log();
    let count = |kind| log.count(s.dashboard, kind);
    assert_eq!(
        (
            count(RunKind::Save),
            count(RunKind::Compile),
            count(RunKind::Run)
        ),
        (1, 6, 3)
    );
    s.finish();
}

#[test]
fn a_fork_compiles_its_text_again_under_its_own_name() {
    let mut s = Session::new("retail");
    let (sales, products) = author::sources(19, 600);
    s.upload("sales.csv", &sales);
    s.upload("products.csv", &products);
    let text = author::flow(3);
    s.platform.save_flow(s.dashboard, &text).unwrap();
    s.run("first run");
    let original = s.platform.run_dashboard(s.dashboard).unwrap();
    s.platform
        .fork_dashboard("retail", "retail_fork", "team")
        .unwrap();
    // One text, two names: the fork's sources are its own copies of the
    // files, so its pipeline is its own.
    let before = s.platform.flow_memo().pipeline_stats();
    let pipeline = assert_fresh_pipeline(&s.platform, "retail_fork", "fork");
    assert_eq!(
        s.platform.flow_memo().pipeline_stats().misses,
        before.misses + 1
    );
    for cfg in pipeline.sources.values() {
        let source = cfg.source.as_deref().unwrap();
        assert!(source.starts_with("retail_fork/"), "{source}");
    }
    let forked = s.platform.run_dashboard("retail_fork").unwrap();
    assert_same_result(&original.result, &forked.result, "fork");
    let after = s.platform.flow_memo().pipeline_stats();
    assert_eq!(
        (after.hits, after.misses),
        (before.hits + 1, before.misses + 1)
    );
    // The source dashboard's entry is untouched by the fork's.
    assert_fresh_pipeline(&s.platform, s.dashboard, "source after the fork");
    let log = s.platform.log();
    let count = |kind| log.count("retail_fork", kind);
    assert_eq!(
        (
            count(RunKind::Fork),
            count(RunKind::Compile),
            count(RunKind::Run)
        ),
        (1, 2, 1)
    );
}

// ---------------------------------------------------------------------------
// Caches stay warm across a run that changes nothing
// ---------------------------------------------------------------------------

#[test]
fn an_unedited_rerun_keeps_pages_cached_and_an_edit_or_append_moves_them() {
    let server = Server::new(Platform::new());
    let platform = server.platform();
    let (sales, products) = author::sources(5, 400);
    platform.upload_data("b", "sales.csv", sales);
    platform.upload_data("b", "products.csv", products);
    let save = |min: usize| {
        let r = server
            .handle(&Request::new(Method::Put, "/dashboards/b/flow").with_body(author::flow(min)));
        assert!(r.is_ok(), "{}", r.body);
    };
    let run = || {
        assert!(server
            .handle(&Request::new(Method::Post, "/dashboards/b/run"))
            .is_ok())
    };
    let month_category = author::ENDPOINTS[0];
    let page = || {
        let url = format!("/b/ds/{month_category}?limit=50");
        server.handle(&Request::get(&url)).body
    };

    save(3);
    run();
    let (body, generation) = (page(), platform.data_generation("b"));
    let hits = server.cache().stats().hits;
    run();
    assert_eq!(platform.data_generation("b"), generation, "unedited re-run");
    assert_eq!(page(), body);
    assert_eq!(server.cache().stats().hits, hits + 1, "page-cache hit");

    // An edit installs new tables: a new generation and new bytes.
    save(4);
    run();
    assert!(platform.data_generation("b") > generation);
    let edited = page();
    assert_ne!(edited, body);

    // An append between two runs of the same flow: the run puts the
    // computed table back, and that is a change too.
    let ingest = format!("/dashboards/b/ds/{month_category}/ingest");
    let append = Request::new(Method::Post, &ingest)
        .with_body("month,category,revenue,units\n2099-01,zz,1.5,1\n");
    assert!(server.handle(&append).is_ok());
    let appended = platform.data_generation("b");
    assert!(page().contains("2099-01"));
    run();
    assert!(platform.data_generation("b") > appended);
    assert_eq!(page(), edited);
}

// ---------------------------------------------------------------------------
// Live sources are keyed apart from every other table
// ---------------------------------------------------------------------------

/// A dashboard that totals `D.sales` — a live source while it streams, a
/// shared object otherwise.
const TOTALS: &str = r#"
D:
  sales: [brand, revenue]
T:
  by_brand:
    type: groupby
    groupby: [brand]
    aggregates:
    - operator: sum
      apply_on: revenue
      out_field: total
F:
  +D.totals: D.sales | T.by_brand
"#;

/// `TOTALS` run without a memo over `sales`.
fn totals_over(sales: Table) -> Table {
    let registry = TaskRegistry::new();
    let env = shareinsights::engine::CompileEnv::bare(&registry);
    let pipeline =
        shareinsights::engine::compile(&parse_flow_file("t", TOTALS).unwrap(), &env).unwrap();
    let ctx =
        ExecContext::new(shareinsights::connectors::Catalog::new()).with_table("sales", sales);
    let result = Executor::sequential().execute(&pipeline, &ctx).unwrap();
    result.tables["totals"].clone()
}

fn sales(rows: &str) -> Table {
    let opts = CsvOptions {
        has_header: false,
        column_names: Some(vec!["brand".into(), "revenue".into()]),
        ..CsvOptions::default()
    };
    read_csv(rows, &opts).unwrap()
}

#[test]
fn two_streaming_dashboards_with_one_flow_never_share_a_memo_entry() {
    // Each dashboard starts its source at an empty table and pushes once:
    // if each counted its own versions, both pushes would be version 2.
    let platform = Platform::new();
    let dashboards = [("east", "acme,1\n"), ("west", "zest,2\n")];
    for (dashboard, _) in dashboards {
        platform.save_flow(dashboard, TOTALS).unwrap();
        platform.stream_start(dashboard).unwrap();
    }
    for (dashboard, rows) in dashboards {
        platform
            .stream_push(dashboard, "sales", rows, None)
            .unwrap();
        let installed = platform.dashboard(dashboard).unwrap().endpoint_tables;
        assert_eq!(installed["totals"], totals_over(sales(rows)), "{dashboard}");
    }
}

#[test]
fn a_live_version_and_a_publish_generation_never_share_a_memo_entry() {
    let platform = Platform::new();
    // A streaming dashboard pushes once: its source's versions are 1
    // (empty, at start) and 2.
    platform.save_flow("live", TOTALS).unwrap();
    platform.stream_start("live").unwrap();
    platform
        .stream_push("live", "sales", "acme,1\n", None)
        .unwrap();

    // Another dashboard publishes `sales` twice: generation 2.
    let producer = "D:\n  raw: [brand, revenue]\nD.raw:\n  source: 'raw.csv'\n  format: csv\n\
                    T:\n  keep:\n    type: filter_by\n    filter_expression: revenue > 0\n\
                    F:\n  +D.sales: D.raw | T.keep\n  D.sales:\n    publish: sales\n";
    platform.save_flow("shop", producer).unwrap();
    for rows in ["brand,revenue\nzest,5\n", "brand,revenue\nzest,7\n"] {
        platform.upload_data("shop", "raw.csv", rows);
        platform.run_dashboard("shop").unwrap();
    }
    assert_eq!(platform.publish_registry().generation("sales"), 2);

    // The same flow text over the shared `sales` is keyed on generation
    // 2, the live one on version 2: the reader must see the shared rows.
    platform.save_flow("reader", TOTALS).unwrap();
    let run = platform.run_dashboard("reader").unwrap();
    assert_eq!(run.result.stats.memo_hits, 0);
    assert_eq!(run.result.tables["totals"], totals_over(sales("zest,7\n")));
}
