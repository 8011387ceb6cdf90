//! AST/plan optimization (§4.1: "The AST provides opportunities to
//! optimize the complete flow"; §6 names minimizing data transfers to the
//! client as the headline example).
//!
//! Three passes, individually toggleable so the PERF-OPT ablation bench can
//! measure each:
//!
//! * **Dead-sink elimination** — flows whose outputs feed no endpoint, no
//!   published object and no downstream flow are dropped entirely.
//! * **Filter reordering** — within a flow chain, expression filters are
//!   hoisted ahead of row-expanding or column-adding tasks when every
//!   column they reference already exists upstream (filters shrink data
//!   before the expensive work).
//! * **Projection pruning** — when the tail of a chain only reads a subset
//!   of columns (e.g. a groupby), a `Project` task is inserted as early as
//!   possible so unused columns are dropped before wide operators.

use crate::compile::CompiledPipeline;
use crate::task::{NamedTask, TaskKind};
use std::collections::BTreeSet;

/// Pass toggles.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Drop flows that feed nothing observable.
    pub dead_sink_elimination: bool,
    /// Hoist filters toward the head of chains.
    pub filter_reorder: bool,
    /// Insert early projections.
    pub projection_pruning: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            dead_sink_elimination: true,
            filter_reorder: true,
            projection_pruning: true,
        }
    }
}

impl OptimizerConfig {
    /// Everything off — the ablation baseline.
    pub fn disabled() -> Self {
        OptimizerConfig {
            dead_sink_elimination: false,
            filter_reorder: false,
            projection_pruning: false,
        }
    }
}

/// Statistics of what the optimizer did (surfaced in compile reports).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizerReport {
    /// Flows removed by dead-sink elimination.
    pub flows_removed: usize,
    /// Filter hoists performed.
    pub filters_hoisted: usize,
    /// Projections inserted.
    pub projections_inserted: usize,
}

/// Run the configured passes in place.
pub fn optimize(pipeline: &mut CompiledPipeline, cfg: &OptimizerConfig) -> OptimizerReport {
    let mut report = OptimizerReport::default();
    if cfg.dead_sink_elimination {
        report.flows_removed = eliminate_dead_sinks(pipeline);
    }
    if cfg.filter_reorder {
        for flow in &mut pipeline.flows {
            report.filters_hoisted += hoist_filters(&mut flow.tasks, &flow.inputs.len().clone());
        }
    }
    if cfg.projection_pruning {
        for flow in &mut pipeline.flows {
            report.projections_inserted += insert_projection(flow);
        }
    }
    report
}

/// Drop flows not needed for endpoints, published objects, or any object a
/// widget could read (endpoints cover that: widgets read endpoint data).
fn eliminate_dead_sinks(pipeline: &mut CompiledPipeline) -> usize {
    let mut targets: Vec<String> = pipeline.endpoints.clone();
    targets.extend(pipeline.published.keys().cloned());
    if targets.is_empty() {
        // Nothing observable declared: keep everything (data-processing
        // files under construction).
        return 0;
    }
    let live = pipeline.graph.needed_for(&targets);
    let before = pipeline.flows.len();
    pipeline.flows.retain(|f| live.contains(&f.output));
    before - pipeline.flows.len()
}

/// Hoist `FilterExpr` tasks leftwards past tasks that (a) don't remove the
/// columns the filter reads and (b) don't change row identity in a way the
/// filter depends on. Safe swaps: past `MapDate`/`MapLocation`/
/// `MapExtract`/`MapWords`/`MapCustom` when the filter doesn't read the map
/// output column, and past `Sort`.
fn hoist_filters(tasks: &mut [NamedTask], _n_inputs: &usize) -> usize {
    let mut hoists = 0;
    // Bubble-sort-style single pass repeated until fixpoint (chains are
    // short — the paper's longest is 3 tasks).
    loop {
        let mut moved = false;
        for i in 1..tasks.len() {
            let can_swap = {
                let (prev, cur) = (&tasks[i - 1], &tasks[i]);
                let TaskKind::FilterExpr(expr) = &cur.kind else {
                    continue;
                };
                let reads: BTreeSet<String> = expr.referenced_columns().into_iter().collect();
                match &prev.kind {
                    TaskKind::MapDate(m) => !reads.contains(&m.output_column),
                    TaskKind::MapLocation(m) => !reads.contains(&m.output_column),
                    TaskKind::MapExtract(m) => !m.explode && !reads.contains(&m.output_column),
                    TaskKind::MapCustom { output, .. } => !reads.contains(output),
                    TaskKind::Sort(_) => true,
                    _ => false,
                }
            };
            if can_swap {
                tasks.swap(i - 1, i);
                hoists += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    hoists
}

/// When a chain contains a `GroupBy` — the one genuinely column-reducing
/// task: its output holds only keys and aggregates — insert a `Project`
/// at the head of the flow keeping just the columns the prefix and the
/// group-by read. Only applied to single-input flows whose head tasks are
/// row-local (so the projection commutes with everything in between).
/// `TopN`/`Distinct` are column-*preserving*, so pruning before them would
/// drop columns the flow's output still carries.
fn insert_projection(flow: &mut crate::compile::CompiledFlow) -> usize {
    if flow.inputs.len() != 1 {
        return 0;
    }
    let Some(reduce_idx) = flow
        .tasks
        .iter()
        .position(|t| matches!(t.kind, TaskKind::GroupBy { .. }))
    else {
        return 0;
    };
    if !flow.tasks[..reduce_idx]
        .iter()
        .all(|t| t.kind.is_row_local())
    {
        return 0;
    }
    // Columns the group-by itself reads. Tasks after it consume its output
    // (keys + aggregate fields), which a source projection cannot affect.
    let mut needed: BTreeSet<String> = BTreeSet::new();
    match flow.tasks[reduce_idx].kind.input_columns() {
        Some(cols) => needed.extend(cols),
        None => return 0,
    }
    // Columns needed by the row-local prefix (their inputs), plus the
    // outputs they produce that the suffix needs are created anyway.
    for t in &flow.tasks[..reduce_idx] {
        if let Some(cols) = t.kind.input_columns() {
            needed.extend(cols);
        }
        // Outputs produced upstream don't need to come from the source.
        match &t.kind {
            TaskKind::MapDate(m) => {
                needed.remove(&m.output_column);
                needed.insert(m.input_column.clone());
            }
            TaskKind::MapExtract(m) => {
                needed.remove(&m.output_column);
                needed.insert(m.input_column.clone());
            }
            TaskKind::MapLocation(m) => {
                needed.remove(&m.output_column);
                needed.insert(m.input_column.clone());
            }
            TaskKind::MapWords(m) => {
                needed.remove(&m.output_column);
                needed.insert(m.input_column.clone());
            }
            TaskKind::MapCustom { input, output, .. } => {
                needed.remove(output);
                needed.insert(input.clone());
            }
            _ => {}
        }
    }
    if needed.is_empty() {
        return 0;
    }
    // Only worthwhile when it actually prunes: compare against the input
    // schema when known. Without a schema we still insert — Project of the
    // full set is a no-op at runtime but we avoid the task when we can
    // prove it useless.
    let cols: Vec<String> = needed.into_iter().collect();
    flow.tasks.insert(
        0,
        NamedTask::project(format!("__prune_{}", flow.output), cols),
    );
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileEnv};
    use crate::ext::TaskRegistry;
    use shareinsights_flowfile::parse_flow_file;

    fn compile_with(src: &str, cfg: OptimizerConfig) -> CompiledPipeline {
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let mut env = CompileEnv::bare(&reg);
        env.optimizer = cfg;
        compile(&ff, &env).unwrap()
    }

    const DEAD_SINK: &str = r#"
D:
  src: [a, b]
T:
  f:
    type: filter_by
    filter_expression: a < 3
F:
  +D.live: D.src | T.f
  D.dead: D.src | T.f
"#;

    #[test]
    fn dead_sinks_removed_when_enabled() {
        let p = compile_with(DEAD_SINK, OptimizerConfig::default());
        assert_eq!(p.flows.len(), 1);
        assert_eq!(p.flows[0].output, "live");

        let p = compile_with(DEAD_SINK, OptimizerConfig::disabled());
        assert_eq!(p.flows.len(), 2);
    }

    #[test]
    fn published_objects_are_live() {
        let src = r#"
D:
  src: [a]
T:
  f:
    type: filter_by
    filter_expression: a < 3
F:
  D.shared: D.src | T.f
  D.shared:
    publish: shared_name
"#;
        let p = compile_with(src, OptimizerConfig::default());
        assert_eq!(p.flows.len(), 1, "published flow survives");
    }

    const FILTER_AFTER_MAP: &str = r#"
D:
  src: [posted, body, rating]
T:
  norm:
    type: map
    operator: date
    transform: posted
    input_format: yyyy-MM-dd
    output_format: 'yyyy/MM/dd'
    output: nice_date
  keep:
    type: filter_by
    filter_expression: rating < 3
F:
  +D.out: D.src | T.norm | T.keep
"#;

    #[test]
    fn filter_hoisted_before_map() {
        let p = compile_with(FILTER_AFTER_MAP, OptimizerConfig::default());
        let names: Vec<&str> = p.flows[0].tasks.iter().map(|t| t.name.as_str()).collect();
        let keep_pos = names.iter().position(|n| *n == "keep").unwrap();
        let norm_pos = names.iter().position(|n| *n == "norm").unwrap();
        assert!(keep_pos < norm_pos, "filter hoisted: {names:?}");

        let p = compile_with(FILTER_AFTER_MAP, OptimizerConfig::disabled());
        let names: Vec<&str> = p.flows[0].tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["norm", "keep"]);
    }

    #[test]
    fn filter_not_hoisted_past_producing_map() {
        // The filter reads the map's output column: must stay after it.
        let src = r#"
D:
  src: [posted]
T:
  norm:
    type: map
    operator: date
    transform: posted
    input_format: yyyy-MM-dd
    output_format: 'yyyy/MM/dd'
    output: date
  keep:
    type: filter_by
    filter_expression: date contains '2013'
F:
  +D.out: D.src | T.norm | T.keep
"#;
        let p = compile_with(src, OptimizerConfig::default());
        let names: Vec<&str> = p.flows[0].tasks.iter().map(|t| t.name.as_str()).collect();
        let keep_pos = names.iter().position(|n| *n == "keep").unwrap();
        let norm_pos = names.iter().position(|n| *n == "norm").unwrap();
        assert!(norm_pos < keep_pos, "{names:?}");
    }

    const WIDE_GROUPBY: &str = r#"
D:
  src: [a, b, c, d, e, f, wanted]
T:
  g:
    type: groupby
    groupby: [a]
    aggregates:
    - operator: sum
      apply_on: wanted
      out_field: total
F:
  +D.out: D.src | T.g
"#;

    #[test]
    fn projection_inserted_before_groupby() {
        let p = compile_with(WIDE_GROUPBY, OptimizerConfig::default());
        let first = &p.flows[0].tasks[0];
        let TaskKind::Project(cols) = &first.kind else {
            panic!("expected projection first, got {:?}", first.kind)
        };
        assert!(cols.contains(&"a".to_string()) && cols.contains(&"wanted".to_string()));
        assert_eq!(cols.len(), 2, "{cols:?}");

        let p = compile_with(WIDE_GROUPBY, OptimizerConfig::disabled());
        assert_eq!(p.flows[0].tasks.len(), 1);
    }

    #[test]
    fn optimized_schema_unchanged() {
        // The observable schema must be identical with and without passes.
        for src in [FILTER_AFTER_MAP, WIDE_GROUPBY] {
            let a = compile_with(src, OptimizerConfig::default());
            let b = compile_with(src, OptimizerConfig::disabled());
            assert_eq!(a.schemas.get("out"), b.schemas.get("out"), "{src}");
        }
    }
}
