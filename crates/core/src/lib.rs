//! # shareinsights-core
//!
//! The ShareInsights platform facade: everything figure 24 of the paper
//! draws — flow-file compilation services, extension services, development
//! services, the data API's backing state, and collaboration services —
//! wired into one [`Platform`] object.
//!
//! A typical session mirrors the paper's workflow:
//!
//! ```
//! use shareinsights_core::Platform;
//!
//! let platform = Platform::new();
//! platform.upload_data("demo", "numbers.csv", "k,v\na,1\na,2\nb,3\n");
//! platform.save_flow(
//!     "demo",
//!     r#"
//! D:
//!   numbers: [k, v]
//! D.numbers:
//!   source: 'numbers.csv'
//!   format: csv
//! T:
//!   by_k:
//!     type: groupby
//!     groupby: [k]
//! F:
//!   +D.counts: D.numbers | T.by_k
//! "#,
//! ).unwrap();
//! let run = platform.run_dashboard("demo").unwrap();
//! assert_eq!(run.result.table("counts").unwrap().num_rows(), 2);
//! ```

pub mod dashboard;
pub mod discovery;
pub mod doctor;
pub mod error;
pub mod meta;
pub mod platform;
pub mod telemetry;
pub mod telemetry_history;
pub mod trace;

pub use dashboard::{Dashboard, RunReport};
pub use discovery::{suggest_enrichments, Enrichment};
pub use doctor::{explain, Diagnosis};
pub use error::{PlatformError, Result};
pub use meta::{build_meta_dashboard, profile_table, ColumnProfile, MetaDashboard};
pub use platform::{Partitioning, Platform, StreamPushReport, StreamStartInfo};
pub use telemetry::{
    process_stats, ApiMetrics, Family, IndexStats, LatencyHistogram, OperatorStats, ProcessStats,
    ReactorStats, RouteStats, RunEvent, RunKind, RunLog, SelfScrapeStats, ShardStats,
    ShardWorkerStats, SqlStats, StreamStats, UsageCounts,
};
pub use telemetry_history::{Sample, ScrapeOutcome, TelemetryHistory};
pub use trace::{AttrValue, EventLog, Span, SpanRecord, TraceId, TraceRecord, Tracer};
