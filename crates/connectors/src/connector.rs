//! The [`Connector`] trait — §4.2's "Connectors API".

use crate::error::Result;
use shareinsights_tabular::Table;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A fetch request assembled from a data object's configuration.
#[derive(Debug, Clone, Default)]
pub struct FetchRequest {
    /// The `source:` string (path, URL, `db/table`, …).
    pub source: String,
    /// `request_type:` (`get`/`post`; HTTP only).
    pub request_type: Option<String>,
    /// `http_headers:` key/value pairs.
    pub headers: BTreeMap<String, String>,
    /// Free-form extra parameters (`query:` for JDBC, …).
    pub params: BTreeMap<String, String>,
}

impl FetchRequest {
    /// A request with just a source.
    pub fn for_source(source: impl Into<String>) -> Self {
        FetchRequest {
            source: source.into(),
            ..Default::default()
        }
    }

    /// Add a header.
    pub fn with_header(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.headers.insert(k.into(), v.into());
        self
    }

    /// Add a parameter.
    pub fn with_param(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.params.insert(k.into(), v.into());
        self
    }
}

/// What a connector returns: raw bytes to be decoded by a data format, or
/// an already-structured table (JDBC).
#[derive(Debug, Clone)]
pub enum Payload {
    /// Raw bytes plus an optional format hint (e.g. from a content type or
    /// file extension).
    Bytes {
        /// The payload body, shared with whoever stores it.
        data: Arc<[u8]>,
        /// Format hint (`csv`, `json`, `xml`, `record`).
        format_hint: Option<String>,
        /// Set by a connector whose `(source, version)` names these exact
        /// bytes for good (an uploaded file); the catalog may then keep
        /// what it decoded from them. `None` for a live service, whose
        /// every fetch is decoded.
        version: Option<u64>,
    },
    /// A structured table (already decoded by the connector).
    Table(Table),
}

impl Payload {
    /// Unversioned bytes payload with a hint.
    pub fn bytes(data: impl Into<Vec<u8>>, hint: Option<&str>) -> Payload {
        Payload::Bytes {
            data: data.into().into(),
            format_hint: hint.map(str::to_string),
            version: None,
        }
    }

    /// Text payload with a hint.
    pub fn text(data: impl Into<String>, hint: Option<&str>) -> Payload {
        Payload::bytes(data.into().into_bytes(), hint)
    }
}

/// A protocol connector: resolves a [`FetchRequest`] to a [`Payload`].
///
/// Implementations must be `Send + Sync`; the batch executor fetches
/// sources from worker threads.
pub trait Connector: Send + Sync {
    /// Protocol name this connector serves (`file`, `http`, `ftp`, `jdbc`).
    fn protocol(&self) -> &str;

    /// Perform the fetch.
    fn fetch(&self, request: &FetchRequest) -> Result<Payload>;
}

/// Infer a protocol from a source string when the data object doesn't name
/// one explicitly: URL schemes win, otherwise `file`.
pub fn infer_protocol(source: &str) -> &'static str {
    let s = source.trim();
    if s.starts_with("http://") || s.starts_with("https://") {
        "http"
    } else if s.starts_with("ftp://") {
        "ftp"
    } else if s.starts_with("jdbc:") {
        "jdbc"
    } else {
        "file"
    }
}

/// Infer a format hint from a source path's extension.
pub fn infer_format_from_source(source: &str) -> Option<&'static str> {
    let path = source.split(['?', '#']).next().unwrap_or(source);
    let ext = path.rsplit('.').next()?.to_ascii_lowercase();
    match ext.as_str() {
        "csv" | "tsv" => Some("csv"),
        "json" | "ndjson" => Some("json"),
        "xml" => Some("xml"),
        "sir" | "rec" | "avro" => Some("record"),
        "txt" => Some("csv"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_inference() {
        assert_eq!(infer_protocol("data.csv"), "file");
        assert_eq!(infer_protocol("https://api.example.com/x"), "http");
        assert_eq!(infer_protocol("ftp://host/data.xml"), "ftp");
        assert_eq!(infer_protocol("jdbc:si://warehouse/sales"), "jdbc");
    }

    #[test]
    fn format_inference() {
        assert_eq!(infer_format_from_source("a/b/data.CSV"), Some("csv"));
        assert_eq!(infer_format_from_source("tweets.json?x=1"), Some("json"));
        assert_eq!(infer_format_from_source("dump.xml"), Some("xml"));
        assert_eq!(infer_format_from_source("t.rec"), Some("record"));
        assert_eq!(infer_format_from_source("noext"), None);
    }

    #[test]
    fn request_builder() {
        let r = FetchRequest::for_source("x")
            .with_header("X-Access-Key", "k")
            .with_param("query", "select *");
        assert_eq!(r.source, "x");
        assert_eq!(r.headers.get("X-Access-Key").map(String::as_str), Some("k"));
        assert_eq!(r.params.get("query").map(String::as_str), Some("select *"));
    }
}
