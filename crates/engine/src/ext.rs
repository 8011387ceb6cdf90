//! Task extension services — the §4.2 "Tasks API".
//!
//! The paper groups extension tasks into four categories; each maps to a
//! trait here:
//!
//! 1. column-value → column-value transforms ⇒ [`ScalarOperator`]
//!    (usable as `type: map / operator: <name>`);
//! 2. bag-of-values → point-value transforms ⇒
//!    [`shareinsights_tabular::agg::AggregateFunction`]
//!    (usable inside `groupby` aggregates);
//! 3. data-object transforms via engine APIs and
//! 4. native whole-table jobs ⇒ [`CustomTask`].
//!
//! "User defined tasks are treated on par with system provided tasks and
//! are represented in the flow file in an identical fashion" — the
//! registry is consulted whenever a task type (or operator/aggregate name)
//! is not a built-in, so the flow-file author cannot tell the difference.

use crate::error::{EngineError, Result};
use parking_lot::RwLock;
use shareinsights_tabular::agg::AggregateFunction;
use shareinsights_tabular::{Schema, Table, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A custom whole-table task (extension categories 3 and 4).
pub trait CustomTask: Send + Sync {
    /// Task type name used in `type:`.
    fn name(&self) -> &str;

    /// Output schema for a given input schema (context-dependent, like all
    /// tasks — §3.3).
    fn output_schema(&self, input: &Schema) -> Result<Schema>;

    /// Execute on a table.
    fn execute(&self, input: &Table) -> Result<Table>;
}

/// A custom scalar map operator (extension category 1).
pub trait ScalarOperator: Send + Sync {
    /// Operator name used in `operator:`.
    fn name(&self) -> &str;

    /// Transform one value.
    fn apply(&self, value: &Value) -> Value;
}

/// Registry of extension tasks, operators and aggregates.
#[derive(Clone, Default)]
pub struct TaskRegistry {
    tasks: Arc<RwLock<BTreeMap<String, Arc<dyn CustomTask>>>>,
    operators: Arc<RwLock<BTreeMap<String, Arc<dyn ScalarOperator>>>>,
    aggregates: Arc<RwLock<BTreeMap<String, Arc<dyn AggregateFunction>>>>,
    /// Registrations so far (see [`TaskRegistry::registrations`]).
    registrations: Arc<AtomicU64>,
}

impl TaskRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a whole-table task.
    pub fn register_task(&self, task: Arc<dyn CustomTask>) {
        self.tasks.write().insert(task.name().to_string(), task);
        self.registrations.fetch_add(1, Ordering::SeqCst);
    }

    /// Register a scalar operator.
    pub fn register_operator(&self, op: Arc<dyn ScalarOperator>) {
        self.operators.write().insert(op.name().to_string(), op);
        self.registrations.fetch_add(1, Ordering::SeqCst);
    }

    /// Register an aggregate function.
    pub fn register_aggregate(&self, agg: Arc<dyn AggregateFunction>) {
        self.aggregates.write().insert(agg.name().to_string(), agg);
        self.registrations.fetch_add(1, Ordering::SeqCst);
    }

    /// How many tasks, operators and aggregates have been registered: the
    /// platform's flow memo forgets everything when this moves.
    pub fn registrations(&self) -> u64 {
        self.registrations.load(Ordering::SeqCst)
    }

    /// Look up a whole-table task.
    pub fn task(&self, name: &str) -> Option<Arc<dyn CustomTask>> {
        self.tasks.read().get(name).cloned()
    }

    /// Look up a scalar operator.
    pub fn operator(&self, name: &str) -> Option<Arc<dyn ScalarOperator>> {
        self.operators.read().get(name).cloned()
    }

    /// Look up an aggregate.
    pub fn aggregate(&self, name: &str) -> Option<Arc<dyn AggregateFunction>> {
        self.aggregates.read().get(name).cloned()
    }

    /// All registered custom task type names (for validation).
    pub fn task_names(&self) -> Vec<String> {
        self.tasks.read().keys().cloned().collect()
    }
}

/// Convenience: build a custom task from closures (used heavily in tests
/// and the hackathon simulator's "teams wrote custom tasks" model).
#[allow(clippy::type_complexity)]
pub struct FnTask {
    name: String,
    schema_fn: Box<dyn Fn(&Schema) -> Result<Schema> + Send + Sync>,
    exec_fn: Box<dyn Fn(&Table) -> Result<Table> + Send + Sync>,
}

impl FnTask {
    /// Build from closures.
    pub fn new(
        name: impl Into<String>,
        schema_fn: impl Fn(&Schema) -> Result<Schema> + Send + Sync + 'static,
        exec_fn: impl Fn(&Table) -> Result<Table> + Send + Sync + 'static,
    ) -> Self {
        FnTask {
            name: name.into(),
            schema_fn: Box::new(schema_fn),
            exec_fn: Box::new(exec_fn),
        }
    }
}

impl CustomTask for FnTask {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self, input: &Schema) -> Result<Schema> {
        (self.schema_fn)(input)
    }

    fn execute(&self, input: &Table) -> Result<Table> {
        (self.exec_fn)(input)
    }
}

/// Helper for custom tasks: wrap a tabular error into an engine execution
/// error with the task name attached.
pub fn exec_err(task: &str, e: impl std::fmt::Display) -> EngineError {
    EngineError::Execution {
        task: task.to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::row;
    use shareinsights_tabular::{DataType, Field};

    #[test]
    fn register_and_lookup_task() {
        let reg = TaskRegistry::new();
        assert!(reg.task("double").is_none());
        reg.register_task(Arc::new(FnTask::new(
            "double",
            |s: &Schema| Ok(s.clone()),
            |t: &Table| t.concat(t).map_err(|e| exec_err("double", e)),
        )));
        assert!(reg.task("double").is_some());
        assert_eq!(reg.task_names(), vec!["double"]);

        let t = Table::from_rows(&["x"], &[row![1i64]]).unwrap();
        let out = reg.task("double").unwrap().execute(&t).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn register_operator_and_aggregate() {
        struct Upper;
        impl ScalarOperator for Upper {
            fn name(&self) -> &str {
                "upper"
            }
            fn apply(&self, v: &Value) -> Value {
                match v.as_str() {
                    Some(s) => Value::Str(s.to_uppercase()),
                    None => v.clone(),
                }
            }
        }
        struct Median;
        impl AggregateFunction for Median {
            fn name(&self) -> &str {
                "median"
            }
            fn output_type(&self, input: DataType) -> DataType {
                input
            }
            fn aggregate(&self, values: &[Value]) -> shareinsights_tabular::Result<Value> {
                let mut v: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
                v.sort();
                Ok(v.get(v.len() / 2)
                    .map(|v| (*v).clone())
                    .unwrap_or(Value::Null))
            }
        }
        let reg = TaskRegistry::new();
        reg.register_operator(Arc::new(Upper));
        reg.register_aggregate(Arc::new(Median));
        assert_eq!(
            reg.operator("upper").unwrap().apply(&"abc".into()),
            Value::Str("ABC".into())
        );
        let med = reg.aggregate("median").unwrap();
        assert_eq!(
            med.aggregate(&[Value::Int(3), Value::Int(1), Value::Int(2)])
                .unwrap(),
            Value::Int(2)
        );
        let _ = Field::new("x", med.output_type(DataType::Int64));
    }
}
