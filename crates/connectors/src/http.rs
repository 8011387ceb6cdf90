//! Simulated HTTP/S connector.
//!
//! Figure 6 of the paper configures a data object directly against a
//! provider API (`protocol: http`, `request_type: get`, `http_headers:
//! X-Access-Key`). This connector reproduces that surface against an
//! in-process route table: deterministic, offline, and able to exercise
//! header checks, query-string matching and error paths.

use crate::connector::{infer_format_from_source, Connector, FetchRequest, Payload};
use crate::error::{ConnectorError, Result};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One registered route.
struct Route {
    /// URL prefix matched against the request source (query string in the
    /// route must be a subset of the request's).
    url_prefix: String,
    /// Headers that must be present with these exact values.
    required_headers: BTreeMap<String, String>,
    /// Allowed request type (`get`/`post`); `None` = any.
    request_type: Option<String>,
    /// Response body.
    body: Vec<u8>,
    /// Format hint for the decoder (a content-type stand-in).
    format_hint: Option<String>,
}

/// A deterministic in-process HTTP service.
#[derive(Clone, Default)]
pub struct HttpSimConnector {
    routes: Arc<RwLock<Vec<Route>>>,
    requests_served: Arc<AtomicUsize>,
}

impl HttpSimConnector {
    /// Empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a plain route.
    pub fn route(
        &self,
        url_prefix: impl Into<String>,
        body: impl Into<Vec<u8>>,
        format_hint: Option<&str>,
    ) {
        self.routes.write().push(Route {
            url_prefix: url_prefix.into(),
            required_headers: BTreeMap::new(),
            request_type: None,
            body: body.into(),
            format_hint: format_hint.map(str::to_string),
        });
    }

    /// Register a route requiring headers (e.g. `X-Access-Key`).
    pub fn route_with_auth(
        &self,
        url_prefix: impl Into<String>,
        required_headers: &[(&str, &str)],
        body: impl Into<Vec<u8>>,
        format_hint: Option<&str>,
    ) {
        self.routes.write().push(Route {
            url_prefix: url_prefix.into(),
            required_headers: required_headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            request_type: None,
            body: body.into(),
            format_hint: format_hint.map(str::to_string),
        });
    }

    /// Total requests served (connector-level observability).
    pub fn requests_served(&self) -> usize {
        self.requests_served.load(Ordering::Relaxed)
    }
}

impl Connector for HttpSimConnector {
    fn protocol(&self) -> &str {
        "http"
    }

    fn fetch(&self, request: &FetchRequest) -> Result<Payload> {
        let routes = self.routes.read();
        let url = request.source.trim();
        let matched = routes
            .iter()
            .find(|r| url.starts_with(&r.url_prefix))
            .ok_or_else(|| ConnectorError::NotFound {
                protocol: "http".into(),
                source: url.to_string(),
            })?;
        for (k, v) in &matched.required_headers {
            match request.headers.get(k) {
                Some(got) if got == v => {}
                Some(_) => {
                    return Err(ConnectorError::Rejected {
                        protocol: "http".into(),
                        reason: format!("invalid value for header {k}"),
                    })
                }
                None => {
                    return Err(ConnectorError::Rejected {
                        protocol: "http".into(),
                        reason: format!("missing required header {k}"),
                    })
                }
            }
        }
        if let (Some(want), Some(got)) = (&matched.request_type, &request.request_type) {
            if !want.eq_ignore_ascii_case(got) {
                return Err(ConnectorError::Rejected {
                    protocol: "http".into(),
                    reason: format!("request_type must be {want}"),
                });
            }
        }
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        Ok(Payload::Bytes {
            data: matched.body.as_slice().into(),
            format_hint: matched
                .format_hint
                .clone()
                .or_else(|| infer_format_from_source(url).map(str::to_string)),
            version: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STACK_URL: &str =
        "https://api.stackexchange.com/2.2/questions?order=desc&sort=activity&site=stackoverflow";

    #[test]
    fn serves_registered_route() {
        let http = HttpSimConnector::new();
        http.route(
            "https://api.stackexchange.com/2.2/questions",
            r#"{"items": [{"title": "q1"}]}"#,
            Some("json"),
        );
        let p = http.fetch(&FetchRequest::for_source(STACK_URL)).unwrap();
        match p {
            Payload::Bytes {
                data, format_hint, ..
            } => {
                assert!(std::str::from_utf8(&data).unwrap().contains("q1"));
                assert_eq!(format_hint.as_deref(), Some("json"));
            }
            _ => panic!("expected bytes"),
        }
        assert_eq!(http.requests_served(), 1);
    }

    #[test]
    fn auth_headers_enforced() {
        // The figure-6 configuration sends X-Access-Key.
        let http = HttpSimConnector::new();
        http.route_with_auth(
            "https://api.stackexchange.com/",
            &[("X-Access-Key", "XXX")],
            "{}",
            Some("json"),
        );
        let err = http
            .fetch(&FetchRequest::for_source(STACK_URL))
            .unwrap_err();
        assert!(err.to_string().contains("missing required header"));

        let err = http
            .fetch(&FetchRequest::for_source(STACK_URL).with_header("X-Access-Key", "wrong"))
            .unwrap_err();
        assert!(err.to_string().contains("invalid value"));

        assert!(http
            .fetch(&FetchRequest::for_source(STACK_URL).with_header("X-Access-Key", "XXX"))
            .is_ok());
    }

    #[test]
    fn unknown_url_is_not_found() {
        let http = HttpSimConnector::new();
        let err = http
            .fetch(&FetchRequest::for_source("https://other.example.com/"))
            .unwrap_err();
        assert!(matches!(err, ConnectorError::NotFound { .. }));
        assert_eq!(http.requests_served(), 0, "rejections don't count");
    }

    #[test]
    fn first_matching_route_wins() {
        let http = HttpSimConnector::new();
        http.route("https://h/a", "first", None);
        http.route("https://h/", "second", None);
        match http
            .fetch(&FetchRequest::for_source("https://h/a/b"))
            .unwrap()
        {
            Payload::Bytes { data, .. } => assert_eq!(&*data, b"first"),
            _ => panic!(),
        }
    }
}
