//! Continuous (streaming) execution: the third execution context beside
//! batch runs and ad-hoc queries.
//!
//! A [`StreamExec`] wraps a [`CompiledPipeline`] and accepts micro-batches
//! pushed into its sources ([`StreamExec::push_batch`]). Each push is one
//! *tick*: the batch propagates through the DAG and every affected
//! produced object advances to a fresh snapshot. Operators fall into three
//! strategies, chosen per flow at stream start:
//!
//! * **passthrough** — every task in the chain is row-local (filters,
//!   maps, projections): the delta flows straight through the batch
//!   kernels and the output *appends*, bounded by the state cap;
//! * **incremental group-by** — `stateless* | groupby | stateless*`
//!   chains keep one merge-able [`GroupByPartial`] per flow — exactly
//!   the partial the sharded data plane scatters — and emit a full
//!   snapshot per tick by finishing *clones* of the accumulators;
//! * **re-exec** — joins, sorts, unions and custom tasks keep bounded
//!   input buffers (the join's build side) with FIFO eviction and re-run
//!   the chain's batch kernels over them per tick.
//!
//! Snapshots *replace*; appends *accumulate*. Either way the caller swaps
//! the resulting endpoint tables copy-on-write and bumps the dashboard's
//! data generation, so batch readers and generation-stamped caches keep
//! working unchanged.

use crate::compile::CompiledPipeline;
use crate::error::{EngineError, Result};
use crate::task::{run_chain, NamedTask, TaskKind, TaskRuntime};
use shareinsights_tabular::ops::{union_all, GroupByPartial};
use shareinsights_tabular::Table;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Cap on rows retained per bounded stream state (source buffers, appended
/// endpoints, join build sides).
const DEFAULT_STATE_CAP_ROWS: usize = 100_000;

/// Per-flow execution strategy, fixed at stream start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Row-local chain: deltas pass through, output appends (bounded).
    Passthrough,
    /// `stateless* | groupby | stateless*`: incremental accumulators.
    Incremental {
        /// Index of the group-by task within the flow's chain.
        groupby_at: usize,
    },
    /// Bounded input buffers re-executed through the batch kernels.
    Reexec,
}

// Incremental group-by state is one [`GroupByPartial`] per flow — the
// same merge-able partial the partitioned batch engine scatters, so a
// tick's snapshot and a sharded gather finish through one code path.

/// Outcome of one micro-batch push.
#[derive(Debug, Clone)]
pub struct StreamTick {
    /// Source the batch was pushed into.
    pub source: String,
    /// Rows in the pushed batch.
    pub rows_in: usize,
    /// Rows evicted from bounded state to absorb the batch.
    pub evicted_rows: usize,
    /// Produced objects that advanced this tick, with their new snapshots.
    pub updated: BTreeMap<String, Table>,
}

/// A live streaming context over one compiled pipeline.
pub struct StreamExec {
    pipeline: CompiledPipeline,
    /// Rows retained per bounded object before FIFO eviction.
    state_cap_rows: usize,
    strategies: BTreeMap<String, Strategy>,
    current: BTreeMap<String, Table>,
    group_states: BTreeMap<String, GroupByPartial>,
}

fn exec_err(task: &str, e: impl std::fmt::Display) -> EngineError {
    EngineError::Execution {
        task: task.to_string(),
        message: e.to_string(),
    }
}

/// True for tasks that transform rows independently (safe to run on a
/// delta without any cross-batch state).
fn is_stateless(kind: &TaskKind) -> bool {
    kind.is_row_local() || matches!(kind, TaskKind::Project(_))
}

impl StreamExec {
    /// Build a streaming context; flow strategies are classified up front
    /// from the DAG shape. State starts empty: the first pushes seed it.
    pub fn new(pipeline: CompiledPipeline) -> StreamExec {
        let mut strategies = BTreeMap::new();
        // Objects whose updates arrive as appendable deltas (sources, and
        // outputs of passthrough flows).
        let mut delta_kind: BTreeSet<String> = pipeline
            .graph
            .sources()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for flow in &pipeline.flows {
            let inputs_are_deltas = flow.inputs.iter().all(|i| delta_kind.contains(i));
            let strategy = if flow.inputs.len() == 1 && inputs_are_deltas {
                if flow.tasks.iter().all(|t| is_stateless(&t.kind)) {
                    Strategy::Passthrough
                } else {
                    classify_incremental(&flow.tasks).unwrap_or(Strategy::Reexec)
                }
            } else {
                Strategy::Reexec
            };
            if strategy == Strategy::Passthrough {
                delta_kind.insert(flow.output.clone());
            }
            strategies.insert(flow.output.clone(), strategy);
        }
        StreamExec {
            pipeline,
            state_cap_rows: DEFAULT_STATE_CAP_ROWS,
            strategies,
            current: BTreeMap::new(),
            group_states: BTreeMap::new(),
        }
    }

    /// The wrapped pipeline (sources, endpoints, schemas).
    pub fn pipeline(&self) -> &CompiledPipeline {
        &self.pipeline
    }

    /// The execution strategy chosen for a produced object, as a stable
    /// name (`passthrough` / `incremental` / `reexec`) — for telemetry
    /// and span attributes.
    pub fn strategy_name(&self, output: &str) -> Option<&'static str> {
        self.strategies.get(output).map(|s| match s {
            Strategy::Passthrough => "passthrough",
            Strategy::Incremental { .. } => "incremental",
            Strategy::Reexec => "reexec",
        })
    }

    /// Current snapshot of a data object, when it has materialised.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.current.get(name)
    }

    /// Push one micro-batch into a source and propagate it through every
    /// affected flow. Returns the tick outcome with fresh snapshots for
    /// each updated produced object.
    pub fn push_batch(&mut self, source: &str, batch: Table) -> Result<StreamTick> {
        let Self {
            pipeline,
            state_cap_rows,
            strategies,
            current,
            group_states,
        } = self;
        let cap = *state_cap_rows;
        if pipeline.graph.is_produced(source) || !pipeline.graph.nodes().any(|n| n == source) {
            return Err(EngineError::UnresolvedData {
                object: source.to_string(),
                context: "stream push target must be a source data object".into(),
            });
        }

        let rows_in = batch.num_rows();
        let mut evicted_rows = 0usize;
        let mut deltas: BTreeMap<String, Table> = BTreeMap::new();
        let mut touched: BTreeSet<String> = BTreeSet::new();
        let mut updated: BTreeMap<String, Table> = BTreeMap::new();

        // Buffer the source (bounded) for re-exec consumers, and record
        // the delta for passthrough/incremental consumers.
        let (buffered, ev) = append_bounded(current.get(source), &batch, cap)?;
        evicted_rows += ev;
        current.insert(source.to_string(), buffered);
        deltas.insert(source.to_string(), batch);
        touched.insert(source.to_string());

        // `pipeline.flows` is already topologically ordered.
        let since = Instant::now();
        for flow in &pipeline.flows {
            if !flow.inputs.iter().any(|i| touched.contains(i)) {
                continue;
            }
            let strategy = strategies
                .get(&flow.output)
                .copied()
                .unwrap_or(Strategy::Reexec);
            let lookup = |name: &str| -> Option<Table> { current.get(name).cloned() };
            let rt = TaskRuntime {
                selections: None,
                lookup_table: &lookup,
            };
            let run = |tasks: &[NamedTask], inputs| {
                run_chain(&flow.output, tasks, inputs, &rt, since, &mut Vec::new())
            };
            let (input, tasks) = (flow.inputs[0].as_str(), flow.tasks.as_slice());
            let out = match strategy {
                Strategy::Passthrough => {
                    let Some(delta) = deltas.get(input) else {
                        continue;
                    };
                    let out = run(tasks, vec![(Some(input), delta.clone())])?;
                    deltas.insert(flow.output.clone(), out.clone());
                    let (acc, ev) = append_bounded(current.get(&flow.output), &out, cap)?;
                    evicted_rows += ev;
                    acc
                }
                Strategy::Incremental { groupby_at } => {
                    let Some(delta) = deltas.get(input) else {
                        continue;
                    };
                    let pre = run(&tasks[..groupby_at], vec![(Some(input), delta.clone())])?;
                    let gtask = &tasks[groupby_at];
                    let TaskKind::GroupBy { builtin, .. } = &gtask.kind else {
                        return Err(exec_err(&gtask.name, "expected groupby task"));
                    };
                    let st = group_states
                        .entry(flow.output.clone())
                        .or_insert_with(|| GroupByPartial::new(builtin.clone()));
                    st.update(&pre).map_err(|e| exec_err(&gtask.name, e))?;
                    let snap = st.snapshot().map_err(|e| exec_err(&gtask.name, e))?;
                    run(&tasks[groupby_at + 1..], vec![(None, snap)])?
                }
                Strategy::Reexec => {
                    // An input with neither data nor a known schema yet
                    // leaves the flow to catch up once that side is pushed.
                    let inputs = flow.inputs.iter().map(|i| {
                        let t = current
                            .get(i)
                            .cloned()
                            .or_else(|| pipeline.schemas.get(i).map(|s| Table::empty(s.clone())));
                        t.map(|t| (Some(i.as_str()), t))
                    });
                    let Some(inputs) = inputs.collect::<Option<Vec<_>>>() else {
                        continue;
                    };
                    run(tasks, inputs)?
                }
            };
            current.insert(flow.output.clone(), out.clone());
            touched.insert(flow.output.clone());
            updated.insert(flow.output.clone(), out);
        }

        Ok(StreamTick {
            source: source.to_string(),
            rows_in,
            evicted_rows,
            updated,
        })
    }
}

/// `stateless* | groupby(builtin only) | stateless*` chains qualify for
/// incremental accumulation; anything else falls back to re-exec.
fn classify_incremental(tasks: &[NamedTask]) -> Option<Strategy> {
    let mut groupby_at = None;
    for (i, t) in tasks.iter().enumerate() {
        match &t.kind {
            TaskKind::GroupBy { custom, .. } if custom.is_empty() => {
                if groupby_at.is_some() {
                    return None;
                }
                groupby_at = Some(i);
            }
            kind if is_stateless(kind) => {}
            _ => return None,
        }
    }
    groupby_at.map(|groupby_at| Strategy::Incremental { groupby_at })
}

/// Append a delta to an accumulated table, evicting the oldest rows past
/// the cap (the bounded build side / bounded endpoint accumulation).
fn append_bounded(existing: Option<&Table>, delta: &Table, cap: usize) -> Result<(Table, usize)> {
    let merged = match existing {
        Some(t) if t.num_rows() > 0 => union_all(&[t.clone(), delta.clone()])
            .map_err(|e| EngineError::Internal(format!("stream append: {e}")))?,
        _ => delta.clone(),
    };
    let n = merged.num_rows();
    if n > cap {
        Ok((merged.slice(n - cap, cap), n - cap))
    } else {
        Ok((merged, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileEnv};
    use crate::exec::{ExecContext, Executor};
    use crate::ext::TaskRegistry;
    use shareinsights_connectors::Catalog;
    use shareinsights_flowfile::parse_flow_file;
    use shareinsights_tabular::{row, Value};

    fn pipeline_of(src: &str) -> CompiledPipeline {
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        compile(&ff, &CompileEnv::bare(&reg)).unwrap()
    }

    fn sales(rows: &[(&str, i64)]) -> Table {
        let rows: Vec<shareinsights_tabular::Row> =
            rows.iter().map(|(b, r)| row![b.to_string(), *r]).collect();
        Table::from_rows(&["brand", "revenue"], &rows).unwrap()
    }

    const GROUP_FLOW: &str = r#"
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
  +D.brand_sales: D.sales | T.by_brand
"#;

    #[test]
    fn incremental_groupby_matches_batch_reexecution() {
        let mut stream = StreamExec::new(pipeline_of(GROUP_FLOW));
        assert_eq!(
            stream.strategies.get("brand_sales"),
            Some(&Strategy::Incremental { groupby_at: 1 }),
            "optimizer projection + groupby classifies incrementally: {:?}",
            stream.strategies
        );
        let t1 = stream
            .push_batch("sales", sales(&[("acme", 10), ("zeta", 5)]))
            .unwrap();
        assert_eq!(t1.rows_in, 2);
        let t2 = stream
            .push_batch("sales", sales(&[("acme", 7), ("nova", 1)]))
            .unwrap();
        let snap = t2.updated.get("brand_sales").unwrap();

        // The same rows through the batch executor agree exactly.
        let pipeline = pipeline_of(GROUP_FLOW);
        let ctx = ExecContext::new(Catalog::new()).with_table(
            "sales",
            sales(&[("acme", 10), ("zeta", 5), ("acme", 7), ("nova", 1)]),
        );
        let batch = Executor::sequential().execute(&pipeline, &ctx).unwrap();
        assert_eq!(snap, batch.table("brand_sales").unwrap());
        assert_eq!(snap.value(0, "total").unwrap(), Value::Int(17));
    }

    #[test]
    fn passthrough_appends_and_evicts_at_cap() {
        const FLOW: &str = r#"
D:
  events: [kind, n]
T:
  keep:
    type: filter_by
    filter_expression: n > 0
F:
  +D.live_events: D.events | T.keep
"#;
        let mut stream = StreamExec::new(pipeline_of(FLOW));
        assert_eq!(
            stream.strategies.get("live_events"),
            Some(&Strategy::Passthrough)
        );
        stream.state_cap_rows = 3;
        let mk = |vals: &[i64]| {
            let rows: Vec<shareinsights_tabular::Row> =
                vals.iter().map(|v| row!["e".to_string(), *v]).collect();
            Table::from_rows(&["kind", "n"], &rows).unwrap()
        };
        let t1 = stream.push_batch("events", mk(&[1, -1, 2])).unwrap();
        assert_eq!(t1.updated["live_events"].num_rows(), 2);
        assert_eq!(t1.evicted_rows, 0);
        let t2 = stream.push_batch("events", mk(&[3, 4])).unwrap();
        let out = &t2.updated["live_events"];
        assert_eq!(out.num_rows(), 3, "bounded at the cap");
        // Oldest row (n=1) evicted; source buffer (5 rows > 3) evicted too.
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(2));
        assert!(t2.evicted_rows >= 2, "{}", t2.evicted_rows);
    }

    #[test]
    fn join_reexecutes_with_bounded_build_side() {
        const FLOW: &str = r#"
D:
  orders: [sku, qty]
  products: [sku, label]
T:
  enrich:
    type: join
    left: orders by sku
    right: products by sku
    join_condition: inner
F:
  +D.labeled: (D.orders, D.products) | T.enrich
"#;
        let mut stream = StreamExec::new(pipeline_of(FLOW));
        assert_eq!(stream.strategies.get("labeled"), Some(&Strategy::Reexec));
        stream.state_cap_rows = 2;
        let orders = |rows: &[(&str, i64)]| {
            let rows: Vec<shareinsights_tabular::Row> =
                rows.iter().map(|(s, q)| row![s.to_string(), *q]).collect();
            Table::from_rows(&["sku", "qty"], &rows).unwrap()
        };
        let products =
            Table::from_rows(&["sku", "label"], &[row!["a", "Alpha"], row!["b", "Beta"]]).unwrap();
        // Push the probe side first: the build side resolves to an empty
        // table from its declared schema, so the join emits nothing yet.
        let t0 = stream.push_batch("orders", orders(&[("a", 1)])).unwrap();
        assert_eq!(t0.updated["labeled"].num_rows(), 0);
        stream.push_batch("products", products).unwrap();
        let t1 = stream.push_batch("orders", orders(&[("b", 2)])).unwrap();
        assert_eq!(t1.updated["labeled"].num_rows(), 2);
        // A third order evicts the oldest buffered order (cap 2).
        let t2 = stream.push_batch("orders", orders(&[("a", 9)])).unwrap();
        assert_eq!(t2.evicted_rows, 1);
        assert_eq!(t2.updated["labeled"].num_rows(), 2);
    }

    #[test]
    fn push_to_unknown_or_produced_object_rejected() {
        let mut stream = StreamExec::new(pipeline_of(GROUP_FLOW));
        assert!(stream.push_batch("ghost", sales(&[])).is_err());
        assert!(stream.push_batch("brand_sales", sales(&[])).is_err());
    }
}
