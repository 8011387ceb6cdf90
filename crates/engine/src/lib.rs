//! # shareinsights-engine
//!
//! Flow-file compilation services (§4.1 of the paper) and the batch
//! execution substrate.
//!
//! The paper compiles the flow/widget sections into an AST and emits either
//! a Pig/Spark job (data processing) or a JavaScript data cube (widget
//! interaction). This reproduction keeps the same pipeline shape with a
//! from-scratch backend:
//!
//! ```text
//! FlowFile ──task interpretation──▶ TaskKind
//!          ──DAG construction────▶ FlowGraph (cycle detection, topo order)
//!          ──schema propagation──▶ per-object schemas, use-site validation
//!          ──optimizer──────────▶ rewritten pipeline (dead-sink elim,
//!                                  filter reorder, projection pruning)
//!          ──execution──────────▶ columnar parallel executor, or the
//!                                  naive row-at-a-time baseline
//! ```
//!
//! The [`ext`] module is the §4.2 Tasks extension API: custom whole-table
//! tasks, custom scalar map operators, and custom aggregates all register
//! there and are *indistinguishable from platform tasks in the flow file* —
//! the property §5.2.2 observation 2 highlights.

pub mod baseline;
pub mod compile;
pub mod error;
pub mod exec;
pub mod ext;
pub mod graph;
pub mod memo;
pub mod optimizer;
pub mod query;
pub mod selection;
pub mod sql;
pub mod task;

pub use compile::{compile, CompileEnv, CompiledFlow, CompiledPipeline, CompiledTask};
pub use error::{EngineError, Result};
pub use exec::{ExecContext, ExecResult, ExecStats, Executor, FlowRunStat, MemoVerdict};
pub use ext::TaskRegistry;
pub use graph::FlowGraph;
pub use memo::{CompileStamp, FlowMemo, PipelineKey, PipelineMiss, Stamp, Uncached};
pub use selection::{Selection, SelectionProvider, StaticSelections};
pub use task::TaskKind;
