//! Minimal in-process HTTP types.

use std::collections::BTreeMap;
use std::fmt;

/// Request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// PUT
    Put,
    /// DELETE
    Delete,
}

impl Method {
    /// Parse an HTTP method token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        })
    }
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200
    Ok,
    /// 201
    Created,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 405 — the path exists but not for this method.
    MethodNotAllowed,
    /// 408 — the client stalled mid-request past the socket timeout.
    RequestTimeout,
    /// 409
    Conflict,
    /// 413 — the request body outgrew the configured cap (announced by
    /// Content-Length, or detected mid-transfer on a streamed body).
    PayloadTooLarge,
    /// 422 — flow-file level errors (compile/validate).
    Unprocessable,
    /// 431 — the request head outgrew the per-connection cap.
    RequestHeaderFieldsTooLarge,
    /// 500 — the request's handler panicked.
    InternalServerError,
    /// 503 — worker queue full or per-request deadline exceeded.
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Created => 201,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::RequestTimeout => 408,
            Status::Conflict => 409,
            Status::PayloadTooLarge => 413,
            Status::Unprocessable => 422,
            Status::RequestHeaderFieldsTooLarge => 431,
            Status::InternalServerError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// HTTP/1.1 reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Created => "Created",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::RequestTimeout => "Request Timeout",
            Status::Conflict => "Conflict",
            Status::PayloadTooLarge => "Payload Too Large",
            Status::Unprocessable => "Unprocessable Entity",
            Status::RequestHeaderFieldsTooLarge => "Request Header Fields Too Large",
            Status::InternalServerError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }
}

/// An in-process request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path (no query string).
    pub path: String,
    /// Parsed query parameters.
    pub query: BTreeMap<String, String>,
    /// Request headers, keys lowercased (`x-trace-id`, `content-length`…).
    pub headers: BTreeMap<String, String>,
    /// Body (flow-file text for saves).
    pub body: String,
}

impl Request {
    /// Build from a URL that may carry a query string.
    pub fn new(method: Method, url: &str) -> Request {
        let (path, query_str) = match url.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (url, None),
        };
        let mut query = BTreeMap::new();
        if let Some(q) = query_str {
            for pair in q.split('&') {
                if let Some((k, v)) = pair.split_once('=') {
                    query.insert(k.to_string(), v.to_string());
                } else if !pair.is_empty() {
                    query.insert(pair.to_string(), String::new());
                }
            }
        }
        Request {
            method,
            path: path.to_string(),
            query,
            headers: BTreeMap::new(),
            body: String::new(),
        }
    }

    /// GET shorthand.
    pub fn get(url: &str) -> Request {
        Request::new(Method::Get, url)
    }

    /// Attach a body.
    pub fn with_body(mut self, body: impl Into<String>) -> Request {
        self.body = body.into();
        self
    }

    /// Attach a header (key lowercased).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.insert(name.to_ascii_lowercase(), value.into());
        self
    }

    /// Header lookup, case-insensitive.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Path segments (empty segments dropped).
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Query parameter as usize.
    pub fn query_usize(&self, key: &str) -> Option<usize> {
        self.query.get(key).and_then(|v| v.parse().ok())
    }
}

/// An in-process response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status.
    pub status: Status,
    /// Body (JSON or plain text).
    pub body: String,
    /// Content type.
    pub content_type: &'static str,
}

impl Response {
    /// 200 JSON.
    pub fn json(body: impl Into<String>) -> Response {
        Response {
            status: Status::Ok,
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// 200 text.
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: Status::Ok,
            body: body.into(),
            content_type: "text/plain",
        }
    }

    /// Error with a status.
    pub fn error(status: Status, message: impl Into<String>) -> Response {
        Response {
            status,
            body: format!("{{\"error\": {}}}", crate::json::quote(&message.into())),
            content_type: "application/json",
        }
    }

    /// True for 2xx.
    pub fn is_ok(&self) -> bool {
        self.status.code() < 300
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing() {
        let r = Request::get("/apache/ds/projects?limit=10&offset=5&flag");
        assert_eq!(r.path, "/apache/ds/projects");
        assert_eq!(r.segments(), vec!["apache", "ds", "projects"]);
        assert_eq!(r.query_usize("limit"), Some(10));
        assert_eq!(r.query_usize("offset"), Some(5));
        assert_eq!(r.query.get("flag").map(String::as_str), Some(""));
        assert_eq!(r.query_usize("missing"), None);
    }

    #[test]
    fn headers_are_case_insensitive() {
        let r = Request::get("/stats").with_header("X-Trace-Id", "10adc0de00000001");
        assert_eq!(r.header("x-trace-id"), Some("10adc0de00000001"));
        assert_eq!(r.header("X-TRACE-ID"), Some("10adc0de00000001"));
        assert_eq!(r.header("x-other"), None);
    }

    #[test]
    fn statuses_and_errors() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::Unprocessable.code(), 422);
        let e = Response::error(Status::NotFound, "no dataset 'x'");
        assert!(!e.is_ok());
        assert!(e.body.contains("no dataset"));
        assert!(Response::json("{}").is_ok());
        assert_eq!(Method::Put.to_string(), "PUT");
    }
}
