//! Flow-file compilation: tasks → [`TaskKind`](crate::task::TaskKind), flows → DAG, schemas
//! propagated and validated (§4.1's "flow file compilation services").

use crate::error::{EngineError, Result};
use crate::ext::TaskRegistry;
use crate::graph::FlowGraph;
use crate::task::{interpret_task, InterpretEnv, NamedTask};
use shareinsights_connectors::catalog::DataObjectConfig;
use shareinsights_flowfile::ast::{DataObject, FlowFile};
use shareinsights_flowfile::config::ConfigValue;
use shareinsights_tabular::Schema;
use std::collections::BTreeMap;

/// A compiled flow: output, named inputs, interpreted task chain.
#[derive(Debug, Clone)]
pub struct CompiledFlow {
    /// Output data-object name.
    pub output: String,
    /// Input data-object names in declaration order.
    pub inputs: Vec<String>,
    /// Interpreted tasks in pipe order.
    pub tasks: Vec<NamedTask>,
    /// Whether the output is an endpoint (props or `+` alias).
    pub endpoint: bool,
    /// Publish name, when shared.
    pub publish: Option<String>,
}

/// Alias re-export so callers can name the compiled task type.
pub type CompiledTask = NamedTask;

/// The compiled pipeline handed to the executors.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// Dashboard name.
    pub name: String,
    /// Flows in executable (topological) order.
    pub flows: Vec<CompiledFlow>,
    /// The dependency graph.
    pub graph: FlowGraph,
    /// Source data-object configurations (connector layer), by name.
    pub sources: BTreeMap<String, DataObjectConfig>,
    /// Schema per data object where statically known.
    pub schemas: BTreeMap<String, Schema>,
    /// Endpoint object names.
    pub endpoints: Vec<String>,
    /// Published objects: local name → publish name.
    pub published: BTreeMap<String, String>,
}

/// Compilation environment.
pub struct CompileEnv<'a> {
    /// Extension registry (custom tasks/operators/aggregates).
    pub registry: &'a TaskRegistry,
    /// Loader for dictionary files referenced by `dict:` params.
    pub load_text: &'a dyn Fn(&str) -> Option<String>,
    /// Schemas of shared (published) objects resolvable by name.
    pub shared_schemas: BTreeMap<String, Schema>,
}

impl<'a> CompileEnv<'a> {
    /// Environment with no dictionaries and no shared objects.
    pub fn bare(registry: &'a TaskRegistry) -> CompileEnv<'a> {
        static NO_LOAD: fn(&str) -> Option<String> = |_| None;
        CompileEnv {
            registry,
            load_text: &NO_LOAD,
            shared_schemas: BTreeMap::new(),
        }
    }
}

/// Convert a flow-file data object to the connector layer's config.
pub fn to_source_config(obj: &DataObject) -> DataObjectConfig {
    let mut cfg = DataObjectConfig {
        columns: obj.columns.iter().map(|c| c.name.clone()).collect(),
        paths: obj.columns.iter().map(|c| c.path.clone()).collect(),
        source: obj.props.get_scalar("source").map(str::to_string),
        protocol: obj.props.get_scalar("protocol").map(str::to_string),
        format: obj.props.get_scalar("format").map(str::to_string),
        separator: obj
            .props
            .get_scalar("separator")
            .and_then(|s| s.chars().next()),
        record_element: obj.props.get_scalar("record_element").map(str::to_string),
        request_type: obj.props.get_scalar("request_type").map(str::to_string),
        ..Default::default()
    };
    if let Some(ConfigValue::Map(headers)) = obj.props.get("http_headers") {
        for (k, v, _) in headers.entries() {
            if let Some(val) = v.as_scalar() {
                cfg.headers.insert(k.to_string(), val.to_string());
            }
        }
    }
    if let Some(q) = obj.props.get_scalar("query") {
        cfg.params.insert("query".into(), q.to_string());
    }
    cfg
}

/// The declared schema of a data object (bare column lists type as Utf8 —
/// §3.2's schema-light declarations).
pub fn declared_schema(obj: &DataObject) -> Option<Schema> {
    if obj.columns.is_empty() {
        None
    } else {
        Schema::all_utf8(&obj.column_names()).ok()
    }
}

/// Compile a flow file into an executable pipeline.
///
/// Order of operations: interpret tasks, build the DAG (cycle check),
/// resolve source schemas, propagate schemas through every flow in
/// topological order (validating each task at its use site), then run the
/// optimizer.
pub fn compile(ff: &FlowFile, env: &CompileEnv<'_>) -> Result<CompiledPipeline> {
    let graph = FlowGraph::build(&ff.flows)?;

    let ienv = InterpretEnv {
        registry: env.registry,
        load_text: env.load_text,
        all_tasks: &ff.tasks,
    };

    // Interpret flows' task chains.
    let mut flows_by_output: BTreeMap<String, CompiledFlow> = BTreeMap::new();
    for f in &ff.flows {
        let mut tasks = Vec::with_capacity(f.tasks.len());
        for tname in &f.tasks {
            let def = ff.task(tname).ok_or_else(|| EngineError::TaskConfig {
                task: tname.clone(),
                message: format!("not defined (used in flow 'D.{}')", f.output),
            })?;
            tasks.push(interpret_task(def, &ienv)?);
        }
        let obj = ff.data_object(&f.output);
        flows_by_output.insert(
            f.output.clone(),
            CompiledFlow {
                output: f.output.clone(),
                inputs: f.inputs.clone(),
                tasks,
                endpoint: f.endpoint_alias || obj.is_some_and(|o| o.endpoint),
                publish: obj.and_then(|o| o.publish.clone()),
            },
        );
    }

    // Source configurations and initial schemas.
    let mut sources = BTreeMap::new();
    let mut schemas: BTreeMap<String, Schema> = BTreeMap::new();
    for obj in &ff.data {
        let produced = graph.is_produced(&obj.name);
        if !produced && obj.props.get_scalar("source").is_some() {
            sources.insert(obj.name.clone(), to_source_config(obj));
        }
        if let Some(s) = declared_schema(obj) {
            schemas.insert(obj.name.clone(), s);
        }
    }
    for (name, schema) in &env.shared_schemas {
        schemas
            .entry(name.clone())
            .or_insert_with(|| schema.clone());
    }

    // Any referenced object that is not produced, has no source and no
    // shared schema is unresolved *unless* it at least declares columns
    // (a schema-only declaration can still be fed at execution time).
    for f in &ff.flows {
        for input in &f.inputs {
            let known = graph.is_produced(input)
                || sources.contains_key(input)
                || schemas.contains_key(input)
                || env.shared_schemas.contains_key(input);
            if !known {
                return Err(EngineError::UnresolvedData {
                    object: input.clone(),
                    context: format!("flow 'D.{}'", f.output),
                });
            }
        }
    }

    // Schema propagation in topological order.
    let topo = graph.topo_order();
    for output in &topo {
        let flow = flows_by_output
            .get(output)
            .expect("topo yields produced outputs");
        let Some(mut current) = flow
            .inputs
            .iter()
            .map(|i| schemas.get(i).map(|s| (Some(i.as_str()), s.clone())))
            .collect::<Option<Vec<_>>>()
        else {
            // An input schema is unknown (e.g. source without declared
            // columns) — defer validation to execution.
            continue;
        };
        for task in &flow.tasks {
            task.kind.bind_inputs(&mut current);
            let inputs: Vec<Schema> = current.drain(..).map(|(_, s)| s).collect();
            let out = task
                .kind
                .output_schema(&task.name, &inputs)
                .map_err(|e| match e {
                    EngineError::SchemaMismatch { task, message, .. } => {
                        EngineError::SchemaMismatch {
                            task,
                            flow: output.clone(),
                            message,
                        }
                    }
                    other => other,
                })?;
            current.push((None, out));
        }
        if current.len() != 1 {
            return Err(EngineError::SchemaMismatch {
                task: flow
                    .tasks
                    .last()
                    .map(|t| t.name.clone())
                    .unwrap_or_default(),
                flow: output.clone(),
                message: format!(
                    "flow ends with {} unmerged inputs; add a join or union task",
                    current.len()
                ),
            });
        }
        schemas.insert(output.clone(), current.remove(0).1);
    }

    // Order flows topologically for the executors, moving each out of the
    // map (topo names each produced output once).
    let ordered: Vec<CompiledFlow> = topo
        .iter()
        .map(|o| flows_by_output.remove(o).expect("present"))
        .collect();

    let endpoints: Vec<String> = {
        let mut v: Vec<String> = ff
            .endpoint_objects()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for f in &ordered {
            if f.endpoint && !v.contains(&f.output) {
                v.push(f.output.clone());
            }
        }
        v
    };
    let published: BTreeMap<String, String> = ff
        .data
        .iter()
        .filter_map(|d| d.publish.clone().map(|p| (d.name.clone(), p)))
        .collect();

    let mut pipeline = CompiledPipeline {
        name: ff.name.clone(),
        flows: ordered,
        graph,
        sources,
        schemas,
        endpoints,
        published,
    };
    crate::optimizer::optimize(&mut pipeline);
    Ok(pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_flowfile::parse_flow_file;

    const APACHE_MINI: &str = r#"
D:
  svn_jira_summary: [project, year, noOfBugs, noOfCheckins, noOfEmailsTotal]
  checkin_jira_emails: [project, year, total_checkins, total_jira, total_emails]

D.svn_jira_summary:
  source: 'svn_jira.csv'
  format: csv

T:
  get_svn_jira_count:
    type: groupby
    groupby: [project, year]
    aggregates:
    - operator: sum
      apply_on: noOfCheckins
      out_field: total_checkins
    - operator: sum
      apply_on: noOfBugs
      out_field: total_jira
    - operator: sum
      apply_on: noOfEmailsTotal
      out_field: total_emails

F:
  +D.checkin_jira_emails: D.svn_jira_summary | T.get_svn_jira_count
"#;

    #[test]
    fn compiles_figure8_flow() {
        let ff = parse_flow_file("apache", APACHE_MINI).unwrap();
        let reg = TaskRegistry::new();
        let env = CompileEnv::bare(&reg);
        let p = compile(&ff, &env).unwrap();
        assert_eq!(p.flows.len(), 1);
        assert!(p.flows[0].endpoint);
        assert!(p.sources.contains_key("svn_jira_summary"));
        let schema = p.schemas.get("checkin_jira_emails").unwrap();
        assert_eq!(
            schema.names(),
            vec![
                "project",
                "year",
                "total_checkins",
                "total_jira",
                "total_emails"
            ]
        );
        assert_eq!(p.endpoints, vec!["checkin_jira_emails"]);
    }

    #[test]
    fn schema_mismatch_names_task_and_flow() {
        let src = "D:\n  a: [x, y]\nT:\n  f:\n    type: filter_by\n    filter_expression: missing_col < 3\nF:\n  D.b: D.a | T.f\n";
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let err = compile(&ff, &CompileEnv::bare(&reg)).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("T.f") && msg.contains("D.b") && msg.contains("missing_col"),
            "{msg}"
        );
    }

    #[test]
    fn unresolved_input_is_an_error() {
        let src = "T:\n  f:\n    type: limit\n    limit: 5\nF:\n  D.b: D.ghost | T.f\n";
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let err = compile(&ff, &CompileEnv::bare(&reg)).unwrap_err();
        assert!(matches!(err, EngineError::UnresolvedData { .. }));
    }

    #[test]
    fn shared_schema_resolves_input() {
        let src = "T:\n  f:\n    type: limit\n    limit: 5\nF:\n  D.b: D.shared_obj | T.f\n";
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let mut env = CompileEnv::bare(&reg);
        env.shared_schemas
            .insert("shared_obj".into(), Schema::all_utf8(&["a", "b"]).unwrap());
        let p = compile(&ff, &env).unwrap();
        assert_eq!(p.schemas.get("b").unwrap().names(), vec!["a", "b"]);
    }

    #[test]
    fn fan_in_without_combiner_rejected() {
        let src = "D:\n  a: [x]\n  b: [x]\nT:\n  f:\n    type: limit\n    limit: 5\nF:\n  D.c: (D.a, D.b) | T.f\n";
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let err = compile(&ff, &CompileEnv::bare(&reg)).unwrap_err();
        assert!(err.to_string().contains("join or union"), "{err}");
    }

    #[test]
    fn sql_task_compiles_to_a_pipeline_with_propagated_schema() {
        let src = "D:\n  sales: [region, brand, revenue]\nT:\n  top:\n    type: sql\n    \
                   query: \"select region, sum(revenue) from sales group by region \
                   order by sum_revenue desc limit 3\"\nF:\n  D.best: D.sales | T.top\n";
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let p = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        assert_eq!(
            p.schemas.get("best").unwrap().names(),
            vec!["region", "sum_revenue"]
        );
    }

    #[test]
    fn sql_task_with_bad_query_reports_the_diagnostic() {
        let src = "D:\n  sales: [region]\nT:\n  bad:\n    type: sql\n    \
                   query: \"select from sales\"\nF:\n  D.out: D.sales | T.bad\n";
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let err = compile(&ff, &CompileEnv::bare(&reg)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("invalid SQL"), "{msg}");
        assert!(msg.contains("line 1"), "spanned: {msg}");
    }

    #[test]
    fn fan_in_with_union_compiles() {
        let src =
            "D:\n  a: [x]\n  b: [x]\nT:\n  u:\n    type: union\nF:\n  D.c: (D.a, D.b) | T.u\n";
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let p = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        assert_eq!(p.schemas.get("c").unwrap().names(), vec!["x"]);
    }

    #[test]
    fn join_binds_sides_by_input_name() {
        let src = r#"
D:
  small: [k, v1]
  big: [k, v2]
T:
  j:
    type: join
    left: big by k
    right: small by k
    project:
      big_v2: value_big
      small_v1: value_small
F:
  D.out: (D.small, D.big) | T.j
"#;
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let p = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        // Despite (small, big) order in the flow, left binds to 'big'.
        assert_eq!(
            p.schemas.get("out").unwrap().names(),
            vec!["value_big", "value_small"]
        );
    }

    #[test]
    fn cycle_caught_at_compile() {
        let src =
            "T:\n  f:\n    type: limit\n    limit: 1\nF:\n  D.a: D.b | T.f\n  D.b: D.a | T.f\n";
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let err = compile(&ff, &CompileEnv::bare(&reg)).unwrap_err();
        assert!(matches!(err, EngineError::Cycle { .. }));
    }

    #[test]
    fn source_config_conversion() {
        let src = "D:\n  api: [q => title, tags => tags]\nD.api:\n  source: 'https://api.example.com/questions'\n  protocol: http\n  format: json\n  request_type: get\n  http_headers:\n    X-Access-Key: XXX\n";
        let ff = parse_flow_file("t", src).unwrap();
        let cfg = to_source_config(ff.data_object("api").unwrap());
        assert_eq!(cfg.protocol.as_deref(), Some("http"));
        assert_eq!(cfg.columns, vec!["q", "tags"]);
        assert_eq!(cfg.paths[0].as_deref(), Some("title"));
        assert_eq!(
            cfg.headers.get("X-Access-Key").map(String::as_str),
            Some("XXX")
        );
    }
}
