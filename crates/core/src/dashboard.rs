//! A dashboard: a named flow file with version history and run state.

use shareinsights_collab::Repository;
use shareinsights_engine::exec::ExecResult;
use shareinsights_flowfile::ast::FlowFile;
use shareinsights_flowfile::validate::{validate_with, ValidateOptions};
use shareinsights_flowfile::Diagnostic;
use shareinsights_tabular::Table;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One dashboard on the platform.
#[derive(Debug, Clone)]
pub struct Dashboard {
    /// Name (also the URL segment: `/dashboards/<name>/…`).
    pub name: String,
    /// Version history.
    pub repo: Repository,
    /// Current flow-file text (head of `main`): the very copy the
    /// repository keeps of it.
    pub text: Arc<str>,
    /// Parsed AST of the current text, shared with the platform's pipeline
    /// memo.
    pub ast: Arc<FlowFile>,
    /// Last run's materialised endpoint tables.
    pub endpoint_tables: BTreeMap<String, Table>,
}

impl Dashboard {
    /// Create with empty content.
    pub fn new(name: &str) -> Dashboard {
        Dashboard {
            name: name.to_string(),
            repo: Repository::new(name),
            text: Arc::from(""),
            ast: Arc::new(FlowFile {
                name: name.to_string(),
                ..Default::default()
            }),
            endpoint_tables: BTreeMap::new(),
        }
    }

    /// Validate the current AST with platform context (extension task
    /// names, shared object names).
    pub fn validate(&self, opts: &ValidateOptions) -> Vec<Diagnostic> {
        validate_with(&self.ast, opts)
    }

    /// Flow-file size in bytes (the figure-35 metric).
    pub fn flow_bytes(&self) -> usize {
        self.text.len()
    }

    /// True when this dashboard is in data-processing mode (§3.7.1).
    pub fn is_data_processing_mode(&self) -> bool {
        self.ast.is_data_processing_mode()
    }
}

/// Outcome of a batch run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The engine result (all materialised tables + stats).
    pub result: ExecResult,
    /// Objects published (publish name, rows) during this run.
    pub published: Vec<(String, usize)>,
    /// Optimizer/compile diagnostics carried along for the editor.
    pub warnings: Vec<Diagnostic>,
}

impl RunReport {
    /// Endpoint tables keyed by object name.
    pub fn endpoint_tables(&self) -> BTreeMap<String, Table> {
        self.result
            .endpoints
            .iter()
            .filter_map(|e| self.result.table(e).map(|t| (e.clone(), t.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_dashboard_is_empty() {
        let d = Dashboard::new("demo");
        assert_eq!(d.flow_bytes(), 0);
        assert!(d.repo.is_empty());
        assert!(d.is_data_processing_mode(), "no widgets yet");
        assert!(crate::error::PlatformError::NoDashboard("x".into())
            .to_string()
            .contains("x"));
    }
}
