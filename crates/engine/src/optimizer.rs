//! AST/plan optimization (§4.1: "The AST provides opportunities to
//! optimize the complete flow"; §6 names minimizing data transfers to the
//! client as the headline example).
//!
//! Three passes, always run, in this order:
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
use shareinsights_tabular::ops::ExtractMap;
use std::collections::BTreeSet;

/// Run the three passes in place.
pub fn optimize(pipeline: &mut CompiledPipeline) {
    eliminate_dead_sinks(pipeline);
    for flow in &mut pipeline.flows {
        hoist_filters(&mut flow.tasks);
        insert_projection(flow);
    }
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
/// filter depends on. Safe swaps: past a column map whose output the
/// filter doesn't read, unless the map expands rows (`MapWords`, an
/// exploding `MapExtract`), and past `Sort`.
fn hoist_filters(tasks: &mut [NamedTask]) -> usize {
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
                let row_expanding = matches!(
                    prev.kind,
                    TaskKind::MapWords(_) | TaskKind::MapExtract(ExtractMap { explode: true, .. })
                );
                match prev.kind.map_columns() {
                    Some((_, output)) => {
                        !row_expanding && !expr.referenced_columns().iter().any(|c| c == output)
                    }
                    None => matches!(prev.kind, TaskKind::Sort(_)),
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
        if let Some((input, output)) = t.kind.map_columns() {
            needed.remove(output);
            needed.insert(input.to_string());
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

    fn compile_src(src: &str) -> CompiledPipeline {
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        compile(&ff, &CompileEnv::bare(&reg)).unwrap()
    }

    fn names(tasks: &[NamedTask]) -> Vec<&str> {
        tasks.iter().map(|t| t.name.as_str()).collect()
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
    fn dead_sinks_removed() {
        let mut p = compile_src(DEAD_SINK);
        assert_eq!(p.flows.len(), 1);
        assert_eq!(p.flows[0].output, "live");

        // The pass alone, on the flow compile dropped.
        let mut dead = p.flows[0].clone();
        dead.output = "dead".into();
        p.flows.push(dead);
        assert_eq!(eliminate_dead_sinks(&mut p), 1);
        assert_eq!(p.flows.len(), 1);
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
        let p = compile_src(src);
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
        let p = compile_src(FILTER_AFTER_MAP);
        assert_eq!(names(&p.flows[0].tasks), vec!["keep", "norm"]);

        // The pass alone, on the chain as written.
        let mut tasks = p.flows[0].tasks.clone();
        tasks.reverse();
        assert_eq!(hoist_filters(&mut tasks), 1);
        assert_eq!(names(&tasks), vec!["keep", "norm"]);
        assert_eq!(hoist_filters(&mut tasks), 0, "a fixpoint");
    }

    #[test]
    fn filter_not_hoisted_past_producing_or_expanding_map() {
        // The filter reads the map's output column: must stay after it.
        let src = r#"
D:
  src: [posted, body]
T:
  norm:
    type: map
    operator: date
    transform: posted
    input_format: yyyy-MM-dd
    output_format: 'yyyy/MM/dd'
    output: date
  words:
    type: map
    operator: extract_words
    transform: body
    output: word
  keep:
    type: filter_by
    filter_expression: date contains '2013'
F:
  +D.out: D.src | T.norm | T.keep
  +D.per_word: D.src | T.norm | T.words | T.keep
"#;
        let p = compile_src(src);
        assert_eq!(names(&p.flows[0].tasks), vec!["norm", "keep"]);
        // Nor past a map that expands rows, whatever it reads.
        assert_eq!(names(&p.flows[1].tasks), vec!["norm", "words", "keep"]);
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
        let mut p = compile_src(WIDE_GROUPBY);
        let flow = &mut p.flows[0];
        let TaskKind::Project(cols) = &flow.tasks[0].kind else {
            panic!("expected projection first, got {:?}", flow.tasks[0].kind)
        };
        assert_eq!(cols, &["a", "wanted"]);

        // The pass alone, on the chain as written.
        let projection = flow.tasks.remove(0);
        assert_eq!(insert_projection(flow), 1);
        assert_eq!(flow.tasks[0].fingerprint, projection.fingerprint);
        assert_eq!(flow.tasks.len(), 2);
    }

    #[test]
    fn optimized_chain_keeps_the_declared_schema() {
        // Compile propagates schemas before optimizing: the rewritten chain
        // must produce exactly what the flow as written declared.
        for src in [FILTER_AFTER_MAP, WIDE_GROUPBY] {
            let p = compile_src(src);
            let mut schema = p.schemas["src"].clone();
            for t in &p.flows[0].tasks {
                schema = t.kind.output_schema(&t.name, &[schema]).unwrap();
            }
            assert_eq!(Some(&schema), p.schemas.get("out"), "{src}");
        }
    }
}
