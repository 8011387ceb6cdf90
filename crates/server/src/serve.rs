//! The TCP front end: a real socket server over the in-process router.
//!
//! [`serve`] binds a listener and serves every connection through the
//! event-driven core in [`crate::reactor`]: one epoll holds every open
//! socket, and a pool of threads takes turns polling it and runs only
//! requests that have fully arrived. A request that finds no thread free
//! waits on a bounded pending queue. When that queue is full the request
//! is answered 503 at once instead of letting the backlog grow (load
//! shedding), and one that waited in it past
//! [`ServeOptions::deadline`] is also answered 503 without being run. Both
//! conditions are visible in `/stats` under the `(rejected)` and
//! `(deadline)` pseudo-routes.
//!
//! The wire format is a small HTTP/1.1 subset: request line, headers
//! (`Content-Length` and `Connection` drive framing; everything else —
//! notably `X-Trace-Id` — is passed through to the router), optional body.
//! Connections are **persistent**: HTTP/1.1 requests keep the connection
//! open by default (HTTP/1.0 only with an explicit `Connection:
//! keep-alive`), until the client sends `Connection: close`, goes idle
//! past [`ServeOptions::idle_timeout`], or exhausts
//! [`ServeOptions::max_requests_per_connection`]. Pipelined requests are
//! answered in order. A client that stalls *mid-request* past
//! [`ServeOptions::io_timeout`] is counted under the `(timeout)`
//! pseudo-route and — when its request head already parsed — answered 408
//! before the close.
//!
//! Operationally interesting requests go to a structured
//! [`EventLog`] as JSON lines: any
//! response with a 5xx status (`"event": "error"`) and any request slower
//! than [`ServeOptions::slow_request_threshold`] (`"event":
//! "slow_request"`), each carrying the trace id when the request was
//! sampled.

use crate::http::Request;
use crate::metrics::route_label;
use crate::router::{Handled, Reach, Server};
use crate::wire::{self, dechunk, find_head_end, WireLimits};
use shareinsights_core::trace::{AttrValue, EventLog};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Inert: [`serve`] never reads it; every connection is served by the
/// reactor. Kept only so the benchmark crate compiles until its next
/// revision drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Served by the reactor, like [`ServeMode::Reactor`].
    ThreadPerConnection,
    /// The event-driven core in [`crate::reactor`].
    #[default]
    Reactor,
}

/// Tuning for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// How many requests may run at once. The pool has one thread more,
    /// so one can poll while the others run requests.
    pub workers: usize,
    /// How many requests may wait on the pending queue when no thread is
    /// free; a request beyond it is answered 503 at once.
    pub queue_depth: usize,
    /// Longest a request may wait on the pending queue; one that waited
    /// longer is answered 503 instead of being run.
    pub deadline: Duration,
    /// How long a connection may stall *within* a request (mid-head or
    /// mid-body) or leave a response unread.
    pub io_timeout: Duration,
    /// How long a kept-alive connection may sit idle *between* requests
    /// before the server closes it quietly.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server answers the
    /// last one with `Connection: close`.
    pub max_requests_per_connection: usize,
    /// Requests whose handling latency meets or exceeds this threshold are
    /// written to [`ServeOptions::event_log`] as `slow_request` events
    /// (with trace id, when sampled). `None` disables slow-request
    /// logging.
    pub slow_request_threshold: Option<Duration>,
    /// Where `slow_request` / `error` events go (JSON lines). Defaults to
    /// standard error.
    pub event_log: EventLog,
    /// Inert: [`serve`] never reads it. Kept only so the benchmark crate
    /// compiles until its next revision drops the field.
    pub serve_mode: ServeMode,
    /// Responses whose body exceeds this many bytes are framed with
    /// `Transfer-Encoding: chunked`, buffering at most one budget-sized
    /// chunk of wire bytes at a time — bounding per-in-flight-response
    /// memory regardless of body size. `None` always frames with
    /// `Content-Length` in a single buffer.
    pub chunk_budget: Option<usize>,
    /// Request parsing byte caps: an oversized head is answered
    /// `431 Request Header Fields Too Large`, an oversized body 400.
    pub limits: WireLimits,
    /// When set, a scraper thread samples the telemetry registry into the
    /// `_system/telemetry` history ring at this interval (see
    /// [`Server::scrape_telemetry`]). `None` (the default) disables the
    /// scraper; the `_system` dashboard then serves an empty history.
    pub scrape_interval: Option<Duration>,
    /// Inert: [`serve`] never reads it. Kept only so the benchmark crate
    /// compiles until its next revision drops the field.
    pub shards: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 128,
            slow_request_threshold: None,
            event_log: EventLog::stderr(),
            serve_mode: ServeMode::default(),
            chunk_budget: None,
            limits: WireLimits::default(),
            scrape_interval: None,
            shards: 0,
        }
    }
}

/// A running service; dropping it (or calling [`ServiceHandle::shutdown`])
/// stops the pool and joins its threads.
pub struct ServiceHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) threads: Vec<JoinHandle<()>>,
    /// One byte pops the polling thread out of `epoll_wait`, so shutdown
    /// is prompt instead of waiting out a poll interval.
    pub(crate) waker: UnixStream,
}

impl ServiceHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let the pending requests run, and join every
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&self.waker).write(&[1]);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `server` through the
/// reactor. With [`ServeOptions::scrape_interval`] set, a telemetry
/// scraper thread rides along on the handle, with the same lifecycle as
/// the serving threads.
pub fn serve(server: Server, addr: &str, options: ServeOptions) -> io::Result<ServiceHandle> {
    // Data-plane events go to the serve log too.
    let server = server.with_event_log(options.event_log.clone());
    let scrape_interval = options.scrape_interval;
    let scraper_server = scrape_interval.map(|_| server.clone());
    let mut handle = crate::reactor::serve_reactor(server, addr, options)?;
    if let (Some(interval), Some(server)) = (scrape_interval, scraper_server) {
        let stop = Arc::clone(&handle.stop);
        handle.threads.push(std::thread::spawn(move || {
            scraper_loop(&server, interval, &stop, |s: &Server| {
                s.scrape_telemetry();
            })
        }));
    }
    Ok(handle)
}

/// The telemetry self-scrape tick: `scrape` (the registry into the
/// `_system` history ring) immediately, so the dashboard has data before
/// the first interval elapses, then every `interval` until shutdown. Sleeps
/// in short slices so shutdown stays prompt even with long intervals. A
/// scrape that panics is contained as a request's panic is
/// ([`Server::contain_panic`]: counted under the `(panic)` pseudo-route and
/// logged), and the next tick runs on time.
fn scraper_loop(server: &Server, interval: Duration, stop: &AtomicBool, scrape: impl Fn(&Server)) {
    while !stop.load(Ordering::SeqCst) {
        let _ = server.contain_panic(|| "(selfscrape)", || scrape(server));
        let deadline = Instant::now() + interval;
        while !stop.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10).min(interval));
        }
    }
}

/// Handle one request within `reach`: [`Server::handle_traced`], with a
/// panic in the handler answered 500 and the thread kept (see
/// [`Server::contain_panic`]), then the request's `error` /
/// `slow_request` events. The trace id rides along when the request was
/// sampled, so a log line links straight to `GET /trace/<id>`.
/// The reactor's polling thread answers a page-cache hit through it with
/// [`Reach::HitOnly`] (`None` is not a hit, and left nothing behind);
/// the thread that runs any other request calls it with
/// [`Reach::Handoff`] or [`Reach::Queue`].
pub(crate) fn handle_within(
    server: &Server,
    opts: &ServeOptions,
    request: &Request,
    reach: Reach,
) -> Option<Handled> {
    let label = || route_label(request.method, &request.segments());
    let handled = match server.contain_panic(label, || server.handle_reach(request, reach)) {
        Ok(handled) => handled?,
        Err(response) => {
            return Some(Handled {
                response,
                trace_id: None,
                elapsed_us: 0,
                stream: None,
            })
        }
    };
    let code = handled.response.status.code();
    let slow = opts
        .slow_request_threshold
        .is_some_and(|t| handled.elapsed_us >= t.as_micros() as u64);
    if code < 500 && !slow {
        return Some(handled);
    }
    let mut fields: Vec<(&str, AttrValue)> = vec![
        ("method", request.method.to_string().into()),
        ("path", request.path.as_str().into()),
        ("status", i64::from(code).into()),
        ("elapsed_us", handled.elapsed_us.into()),
    ];
    if let Some(id) = handled.trace_id {
        fields.push(("trace_id", id.to_string().into()));
    }
    if code >= 500 {
        opts.event_log.emit("error", &fields);
    }
    if slow {
        opts.event_log.emit("slow_request", &fields);
    }
    Some(handled)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

/// A blocking client that holds one persistent connection and issues
/// sequential requests over it — what a dashboard session looks like to the
/// server. Responses are framed by `Content-Length`; when the server
/// announces `Connection: close` the connection is marked dead and further
/// requests error with [`io::ErrorKind::NotConnected`].
pub struct ClientConnection {
    stream: TcpStream,
    buf: Vec<u8>,
    closed: bool,
}

impl ClientConnection {
    /// Connect to `addr` with generous socket timeouts.
    pub fn connect(addr: SocketAddr) -> io::Result<ClientConnection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(ClientConnection {
            stream,
            buf: Vec::new(),
            closed: false,
        })
    }

    /// True once the server announced `Connection: close` on a response.
    pub fn server_closed(&self) -> bool {
        self.closed
    }

    /// GET over the persistent connection.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, String)> {
        self.request("GET", target, "")
    }

    /// One request over the persistent connection (keep-alive announced).
    pub fn request(&mut self, method: &str, target: &str, body: &str) -> io::Result<(u16, String)> {
        self.send(method, target, body, true, &[])
    }

    /// One keep-alive request with extra headers (e.g. `X-Trace-Id`).
    pub fn request_with_headers(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<(u16, String)> {
        self.send(method, target, body, true, headers)
    }

    /// Subscribe to a live flow (`/:dashboard/ds/:dataset/subscribe`),
    /// consuming the connection: the server switches it into SSE
    /// streaming mode, so no further request/response exchanges are
    /// possible on it. A non-200 answer is surfaced as an error carrying
    /// the status code.
    pub fn subscribe(mut self, target: &str) -> io::Result<SseSubscriber> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "server closed the connection",
            ));
        }
        let wire_req =
            format!("GET {target} HTTP/1.1\r\nHost: shareinsights\r\nContent-Length: 0\r\n\r\n");
        self.stream.write_all(wire_req.as_bytes())?;
        self.stream.flush()?;
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before the stream head",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        if status != 200 {
            return Err(io::Error::other(format!("subscribe failed: {status}")));
        }
        if !head.to_ascii_lowercase().contains("text/event-stream") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "subscribe answered a non-SSE response",
            ));
        }
        let mut parser = wire::SseParser::new();
        let mut ready = Vec::new();
        let leftover = self.buf.split_off(head_end + 4);
        if !leftover.is_empty() {
            ready = parser
                .feed(&leftover)
                .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))?;
        }
        Ok(SseSubscriber {
            stream: self.stream,
            parser,
            ready: ready.into(),
            closed: false,
        })
    }

    /// One request announcing `Connection: close` — the server responds,
    /// then closes; this connection is dead afterwards.
    pub fn request_close(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
    ) -> io::Result<(u16, String)> {
        self.send(method, target, body, false, &[])
    }

    fn send(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
        keep: bool,
        headers: &[(&str, &str)],
    ) -> io::Result<(u16, String)> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "server closed the connection",
            ));
        }
        let connection = if keep { "keep-alive" } else { "close" };
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: shareinsights\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
            body.len()
        );
        for (name, value) in headers {
            wire.push_str(&format!("{name}: {value}\r\n"));
        }
        wire.push_str("\r\n");
        wire.push_str(body);
        self.stream.write_all(wire.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk)? {
                0 => {
                    self.closed = true;
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a full response head",
                    ));
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        let mut close = false;
        let mut chunked = false;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
                {
                    close = true;
                } else if name.eq_ignore_ascii_case("transfer-encoding")
                    && value.trim().eq_ignore_ascii_case("chunked")
                {
                    chunked = true;
                }
            }
        }
        if chunked {
            // De-chunk: read until the terminating 0-chunk, decode, and
            // leave pipelined bytes past it in the buffer.
            let body_start = head_end + 4;
            loop {
                match dechunk(&self.buf[body_start..]) {
                    Some(Ok((body, used))) => {
                        self.buf.drain(..body_start + used);
                        if close {
                            self.closed = true;
                        }
                        return Ok((status, body));
                    }
                    Some(Err(message)) => {
                        return Err(io::Error::new(io::ErrorKind::InvalidData, message));
                    }
                    None => {
                        let mut chunk = [0u8; 4096];
                        match self.stream.read(&mut chunk)? {
                            0 => {
                                self.closed = true;
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    "truncated chunked body",
                                ));
                            }
                            n => self.buf.extend_from_slice(&chunk[..n]),
                        }
                    }
                }
            }
        }
        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk)? {
                0 => {
                    self.closed = true;
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "truncated body: {} of {content_length} bytes",
                            self.buf.len() - head_end - 4
                        ),
                    ));
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        self.buf.drain(..total);
        if close {
            self.closed = true;
        }
        Ok((status, body))
    }
}

/// A live-flow subscription held by [`ClientConnection::subscribe`]:
/// reads and parses SSE frames off its dedicated connection.
pub struct SseSubscriber {
    stream: TcpStream,
    parser: wire::SseParser,
    /// Events parsed but not yet handed to the caller.
    ready: std::collections::VecDeque<wire::SseEvent>,
    /// True once the socket hit EOF.
    closed: bool,
}

impl SseSubscriber {
    /// Block until at least one event is available, the stream ends, or
    /// `timeout` elapses. An empty result means no event arrived in the
    /// window — check [`SseSubscriber::terminated`] to distinguish a
    /// finished stream from a quiet one. EOF mid-frame (the server died
    /// with a frame half-written) is an error.
    pub fn next_events(&mut self, timeout: Duration) -> io::Result<Vec<wire::SseEvent>> {
        if !self.ready.is_empty() {
            return Ok(self.ready.drain(..).collect());
        }
        let deadline = Instant::now() + timeout;
        loop {
            if self.terminated() {
                return Ok(Vec::new());
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(Vec::new());
            }
            self.stream
                .set_read_timeout(Some(remaining.min(Duration::from_millis(250))))?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    if self.parser.mid_frame() {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream closed mid-frame",
                        ));
                    }
                    return Ok(Vec::new());
                }
                Ok(n) => {
                    let events = self
                        .parser
                        .feed(&chunk[..n])
                        .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))?;
                    if !events.is_empty() {
                        return Ok(events);
                    }
                }
                Err(e) if is_timeout(&e) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// True once the stream ended — terminal chunk received or EOF.
    pub fn terminated(&self) -> bool {
        self.parser.terminated() || self.closed
    }
}

/// A minimal blocking client for tests and examples: one request,
/// `Connection: close`, returns `(status code, body)`.
pub fn blocking_request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    ClientConnection::connect(addr)?.request_close(method, target, body)
}

/// GET shorthand over [`blocking_request`].
pub fn blocking_get(addr: SocketAddr, target: &str) -> io::Result<(u16, String)> {
    blocking_request(addr, "GET", target, "")
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_core::Platform;

    fn service() -> ServiceHandle {
        let platform = Platform::new();
        platform.upload_data("demo", "t.csv", "k,v\na,1\nb,2\n");
        platform.create_dashboard("demo").unwrap();
        let server = Server::new(platform);
        serve(server, "127.0.0.1:0", ServeOptions::default()).expect("bind")
    }

    #[test]
    fn serves_requests_over_tcp() {
        let mut svc = service();
        let (code, body) = blocking_get(svc.local_addr(), "/dashboards").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "[\"demo\"]");
        let (code, _) = blocking_get(svc.local_addr(), "/nope/nope/nope/nope").unwrap();
        assert_eq!(code, 404);
        svc.shutdown();
    }

    #[test]
    fn put_body_round_trips() {
        let mut svc = service();
        let flow = "D:\n  t: [k, v]\nD.t:\n  source: 't.csv'\n  format: csv\nT:\n  by_k:\n    type: groupby\n    groupby: [k]\nF:\n  +D.out: D.t | T.by_k\n";
        let (code, body) =
            blocking_request(svc.local_addr(), "PUT", "/dashboards/demo/flow", flow).unwrap();
        assert_eq!(code, 200, "{body}");
        let (code, body) =
            blocking_request(svc.local_addr(), "POST", "/dashboards/demo/run", "").unwrap();
        assert_eq!(code, 200, "{body}");
        let (code, body) = blocking_get(svc.local_addr(), "/demo/ds/out").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("\"total_rows\": 2"), "{body}");
        svc.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let svc = service();
        let mut stream = TcpStream::connect(svc.local_addr()).unwrap();
        stream.write_all(b"NONSENSE /x SMTP/9\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
    }

    #[test]
    fn persistent_connection_serves_many_requests() {
        let mut svc = service();
        let mut conn = ClientConnection::connect(svc.local_addr()).unwrap();
        for _ in 0..5 {
            let (code, body) = conn.get("/dashboards").unwrap();
            assert_eq!(code, 200);
            assert_eq!(body, "[\"demo\"]");
            assert!(!conn.server_closed());
        }
        let (code, _) = conn.request_close("GET", "/dashboards", "").unwrap();
        assert_eq!(code, 200);
        assert!(conn.server_closed());
        assert!(conn.get("/dashboards").is_err(), "dead after close");
        svc.shutdown();
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let mut svc = service();
        let mut stream = TcpStream::connect(svc.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Two requests in one write; the second closes.
        let batch = "GET /dashboards HTTP/1.1\r\nContent-Length: 0\r\n\r\n\
                     GET /nope/nope/nope/nope HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        stream.write_all(batch.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let first = out.find("HTTP/1.1 200 OK").expect("first response");
        let second = out.find("HTTP/1.1 404 Not Found").expect("second response");
        assert!(first < second, "in order: {out}");
        svc.shutdown();
    }

    #[test]
    fn max_requests_per_connection_is_bounded() {
        let platform = Platform::new();
        platform.create_dashboard("demo").unwrap();
        let opts = ServeOptions {
            max_requests_per_connection: 3,
            ..ServeOptions::default()
        };
        let mut svc = serve(Server::new(platform), "127.0.0.1:0", opts).expect("bind");
        let mut conn = ClientConnection::connect(svc.local_addr()).unwrap();
        for i in 0..3 {
            let (code, _) = conn.get("/dashboards").unwrap();
            assert_eq!(code, 200, "request {i}");
        }
        assert!(conn.server_closed(), "3rd response must announce close");
        svc.shutdown();
    }

    #[test]
    fn slow_request_events_carry_trace_ids() {
        // Threshold zero: every request is "slow", so the in-memory log
        // captures each one with its trace id.
        let platform = Platform::new();
        platform.create_dashboard("demo").unwrap();
        let log = EventLog::in_memory();
        let opts = ServeOptions {
            slow_request_threshold: Some(Duration::ZERO),
            event_log: log.clone(),
            ..ServeOptions::default()
        };
        let mut svc = serve(Server::new(platform), "127.0.0.1:0", opts).expect("bind");
        let mut conn = ClientConnection::connect(svc.local_addr()).unwrap();
        let (code, _) = conn
            .request_with_headers(
                "GET",
                "/dashboards",
                "",
                &[("X-Trace-Id", "feed00000000beef")],
            )
            .unwrap();
        assert_eq!(code, 200);
        svc.shutdown();
        let lines = log.lines();
        assert!(!lines.is_empty(), "slow-request events recorded");
        let line = &lines[0];
        let doc = shareinsights_tabular::io::json::parse_json(line).unwrap();
        assert_eq!(
            doc.path("event").unwrap().to_value().as_str(),
            Some("slow_request")
        );
        assert_eq!(
            doc.path("path").unwrap().to_value().as_str(),
            Some("/dashboards")
        );
        assert_eq!(doc.path("status").unwrap().to_value().as_int(), Some(200));
        assert_eq!(
            doc.path("trace_id").unwrap().to_value().as_str(),
            Some("feed00000000beef")
        );
        assert!(doc.path("unix_us").unwrap().to_value().as_int().unwrap() > 0);
    }

    #[test]
    fn trace_ids_propagate_through_the_tcp_path() {
        let mut svc = service();
        let mut conn = ClientConnection::connect(svc.local_addr()).unwrap();
        let (code, _) = conn
            .request_with_headers("GET", "/dashboards", "", &[("X-Trace-Id", "ab01")])
            .unwrap();
        assert_eq!(code, 200);
        let (code, body) = conn.get("/trace/ab01").unwrap();
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"000000000000ab01\""), "{body}");
        assert!(body.contains("\"GET /dashboards\""), "{body}");
        svc.shutdown();
    }

    #[test]
    fn scraper_thread_fills_system_history() {
        let platform = Platform::new();
        platform.create_dashboard("demo").unwrap();
        let opts = ServeOptions {
            scrape_interval: Some(Duration::from_millis(20)),
            ..ServeOptions::default()
        };
        let mut svc = serve(Server::new(platform), "127.0.0.1:0", opts).expect("bind");
        let mut populated = false;
        for _ in 0..200 {
            let (code, body) = blocking_get(svc.local_addr(), "/_system/ds/telemetry").unwrap();
            assert_eq!(code, 200, "{body}");
            if !body.contains("\"total_rows\": 0") {
                populated = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(populated, "scraper fills the history ring");
        svc.shutdown();
    }

    #[test]
    fn a_panicking_scrape_is_counted_and_the_scraper_ticks_on() {
        let server = Server::new(Platform::new());
        let stop = Arc::new(AtomicBool::new(false));
        let ticks = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let scraper = {
            let (server, stop, ticks) = (server.clone(), Arc::clone(&stop), Arc::clone(&ticks));
            std::thread::spawn(move || {
                scraper_loop(&server, Duration::from_millis(2), &stop, |s: &Server| {
                    // Every other tick panics mid-scrape.
                    if ticks.fetch_add(1, Ordering::SeqCst) % 2 == 0 {
                        panic!("injected scrape fault");
                    }
                    s.scrape_telemetry();
                })
            })
        };
        let history = server.platform().telemetry_history().clone();
        let deadline = Instant::now() + Duration::from_secs(20);
        while history.generation() < 5 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        scraper
            .join()
            .expect("the scraper thread outlives its panics");
        // History kept growing past the panics, and each one was counted.
        assert!(history.generation() >= 5, "{}", history.generation());
        assert!(history.snapshot_table().num_rows() > 0);
        let panics = server.platform().api_metrics().routes()[crate::metrics::ROUTE_PANIC].errors;
        let ticks = ticks.load(Ordering::SeqCst);
        assert_eq!(panics, ticks.div_ceil(2), "{ticks} ticks");
        assert!(panics >= 5, "{panics}");
    }

    #[test]
    fn shutdown_is_idempotent_and_drops_cleanly() {
        let mut svc = service();
        let addr = svc.local_addr();
        svc.shutdown();
        svc.shutdown();
        drop(svc);
        assert!(TcpStream::connect(addr).is_err() || blocking_get(addr, "/dashboards").is_err());
    }
}
