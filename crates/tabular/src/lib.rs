//! # shareinsights-tabular
//!
//! Columnar table engine underpinning the ShareInsights platform
//! (SIGMOD 2015). This crate is the batch/interactive *data substrate*: the
//! paper compiles flow files down to Pig/Spark jobs and a JavaScript data
//! cube; this reproduction compiles them down to the operator kernels defined
//! here.
//!
//! The crate provides:
//!
//! * [`DataType`], [`Value`], [`Field`], [`Schema`] — the type system shared
//!   by every layer of the stack (§3.2 of the paper: data objects carry an
//!   explicit schema).
//! * [`Column`] / [`Table`] — validity-bitmap columnar storage with cheap
//!   `Arc`-shared columns.
//! * [`expr`] — a small expression language with a parser, used by
//!   `filter_by` tasks (`filter_expression: rating < 3`).
//! * [`ops`] — operator kernels: filter, project, map operators
//!   (date normalisation, dictionary extraction, location extraction, word
//!   extraction), group-by with aggregates, hash joins, top-n, sort,
//!   distinct, union.
//! * [`io`] — readers and writers for the payload formats the platform
//!   recognises: CSV, JSON (with `=>` path mapping), XML and a compact
//!   AVRO-like binary record format.
//! * [`partition`] — morsels over one table, run on the process-wide pool
//!   of parked helper threads by the cold-query kernels and the JSON
//!   writer.
//! * [`datefmt`] — Java-`SimpleDateFormat`-style date parsing/formatting
//!   (the paper's `map`/`date` operator takes `input_format: 'E MMM dd
//!   HH:mm:ss Z yyyy'`).
//!
//! The engine deliberately implements everything from scratch — no Arrow, no
//! chrono — so the reproduction is self-contained and auditable.

pub mod agg;
pub mod bitmap;
pub mod column;
pub mod datatype;
pub mod datefmt;
pub mod error;
pub mod expr;
pub mod index;
pub mod io;
pub mod ops;
pub mod partition;
pub mod row;
pub mod schema;
pub mod table;
pub mod text;
pub mod value;

pub use bitmap::Bitmap;
pub use column::{Column, ColumnBuilder};
pub use datatype::DataType;
pub use error::{Result, TabularError};
pub use index::{
    BuiltIndexes, ColumnIndex, DictionaryIndex, IndexedTable, PostingsGrowth, Rebuild, ZoneIndex,
};
pub use row::Row;
pub use schema::{Field, Schema};
pub use table::{CopyReason, Table};
pub use value::Value;
