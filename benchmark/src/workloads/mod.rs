//! The four workloads. Each has a timed pass (end-to-end metrics over TCP,
//! the benchmark's spans off) and a traced pass (per-layer metrics).

pub mod ingest_mixed;
pub mod pipeline_run;
pub mod query_cold;
pub mod serve_warm;

use crate::harness::{Cfg, Report};

/// Run one pass of the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &Cfg, traced: bool) -> Option<Report> {
    let pass = match (name, traced) {
        ("serve_warm", false) => serve_warm::timed,
        ("serve_warm", true) => serve_warm::traced,
        ("query_cold", false) => query_cold::timed,
        ("query_cold", true) => query_cold::traced,
        ("ingest_mixed", false) => ingest_mixed::timed,
        ("ingest_mixed", true) => ingest_mixed::traced,
        ("pipeline_run", false) => pipeline_run::timed,
        ("pipeline_run", true) => pipeline_run::traced,
        _ => return None,
    };
    Some(pass(cfg))
}
