//! The TCP front end: a real socket server over the in-process router.
//!
//! A [`std::net::TcpListener`] accepts connections and hands them to a
//! fixed pool of worker threads through a *bounded* queue. When the queue
//! is full the accept loop answers 503 immediately instead of letting the
//! backlog grow (load shedding), and a connection that waited in the queue
//! past its deadline is also answered 503 without being parsed. Both
//! conditions are visible in `/stats` under the `(rejected)` and
//! `(deadline)` pseudo-routes.
//!
//! The wire format is a small HTTP/1.1 subset: request line, headers
//! (`Content-Length` and `Connection` drive framing; everything else —
//! notably `X-Trace-Id` — is passed through to the router), optional body.
//! Connections are **persistent**: HTTP/1.1 requests keep the connection
//! open by default (HTTP/1.0 only with an explicit `Connection:
//! keep-alive`), a worker loops reading requests off the same socket until
//! the client sends `Connection: close`, goes idle past
//! [`ServeOptions::idle_timeout`], or exhausts
//! [`ServeOptions::max_requests_per_connection`]. Pipelined requests are
//! handled in order: bytes past the current request's body carry over into
//! the next parse. A client that stalls *mid-request* past
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

use crate::http::{Request, Response, Status};
use crate::ingest::StreamedIngest;
use crate::metrics::{route_label, ROUTE_DEADLINE, ROUTE_MALFORMED, ROUTE_REJECTED, ROUTE_TIMEOUT};
use crate::router::{Handled, Reach, Server};
use crate::wire::{
    self, dechunk, find_head_end, KeepAliveTerms, Parsed, ParsedHead, ResponseStream, WireLimits,
};
use shareinsights_core::trace::{AttrValue, EventLog};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Which serving architecture [`serve`] runs. Request semantics — framing,
/// keep-alive terms, timeout classification, caches, tracing — are
/// identical in both; the modes differ only in how connections map onto
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// A pooled worker thread owns each connection for its whole life.
    /// Simple and predictable, but every idle keep-alive connection pins
    /// a worker, so a few thousand quiet dashboards starve the pool.
    #[default]
    ThreadPerConnection,
    /// One epoll multiplexes every connection, and a pool of threads
    /// takes turns polling it and runs only requests that have fully
    /// arrived — idle connections cost a table entry, not a thread (see
    /// [`crate::reactor`]).
    Reactor,
}

/// Tuning for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads handling connections; under the reactor, how many
    /// requests may run at once (its pool has one thread more).
    pub workers: usize,
    /// Bounded queue depth between the acceptor and the workers; a full
    /// queue means immediate 503s.
    pub queue_depth: usize,
    /// Maximum time a connection may wait in the queue before it is
    /// answered 503 instead of being served.
    pub deadline: Duration,
    /// Socket read/write timeout *within* a request (guards against
    /// clients that stall mid-head or mid-body).
    pub io_timeout: Duration,
    /// How long a kept-alive connection may sit idle *between* requests
    /// before the server closes it quietly.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server answers the
    /// last one with `Connection: close` (bounds how long a worker can be
    /// owned by a single client).
    pub max_requests_per_connection: usize,
    /// Requests whose handling latency meets or exceeds this threshold are
    /// written to [`ServeOptions::event_log`] as `slow_request` events
    /// (with trace id, when sampled). `None` disables slow-request
    /// logging.
    pub slow_request_threshold: Option<Duration>,
    /// Where `slow_request` / `error` events go (JSON lines). Defaults to
    /// standard error.
    pub event_log: EventLog,
    /// Serving architecture (see [`ServeMode`]).
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
            serve_mode: ServeMode::ThreadPerConnection,
            chunk_budget: None,
            limits: WireLimits::default(),
            scrape_interval: None,
            shards: 0,
        }
    }
}

struct Job {
    stream: TcpStream,
    accepted: Instant,
}

/// A running service; dropping it (or calling [`ServiceHandle::shutdown`])
/// stops the acceptor and joins the workers.
pub struct ServiceHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Reactor-mode wake handle: one byte pops the event loop out of
    /// `epoll_wait`, so shutdown is prompt instead of waiting out a poll
    /// interval.
    waker: Option<UnixStream>,
}

impl ServiceHandle {
    pub(crate) fn new(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        threads: Vec<JoinHandle<()>>,
        waker: Option<UnixStream>,
    ) -> ServiceHandle {
        ServiceHandle {
            addr,
            stop,
            threads,
            waker,
        }
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the queue, and join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(waker) = &self.waker {
            let _ = (&*waker).write(&[1]);
        }
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

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `server` in the
/// architecture [`ServeOptions::serve_mode`] selects. With
/// [`ServeOptions::scrape_interval`] set, a telemetry scraper thread rides
/// along on the handle — same lifecycle as the serving threads, in either
/// mode.
pub fn serve(server: Server, addr: &str, options: ServeOptions) -> io::Result<ServiceHandle> {
    // Both serve modes share the router, so pointing data-plane events
    // at the serve log here once covers them equally.
    let server = server.with_event_log(options.event_log.clone());
    let scrape_interval = options.scrape_interval;
    let scraper_server = scrape_interval.map(|_| server.clone());
    let mut handle = match options.serve_mode {
        ServeMode::ThreadPerConnection => serve_threads(server, addr, options),
        ServeMode::Reactor => crate::reactor::serve_reactor(server, addr, options),
    }?;
    if let (Some(interval), Some(server)) = (scrape_interval, scraper_server) {
        let stop = Arc::clone(&handle.stop);
        handle.threads.push(std::thread::spawn(move || {
            scraper_loop(&server, interval, &stop)
        }));
    }
    Ok(handle)
}

/// The telemetry self-scrape tick: sample the registry into the `_system`
/// history ring immediately (so the dashboard has data before the first
/// interval elapses), then every `interval` until shutdown. Sleeps in
/// short slices so shutdown stays prompt even with long intervals.
fn scraper_loop(server: &Server, interval: Duration, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        server.scrape_telemetry();
        let deadline = Instant::now() + interval;
        while !stop.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10).min(interval));
        }
    }
}

/// The [`ServeMode::ThreadPerConnection`] implementation: a bounded queue
/// between one acceptor and a pool of workers that each own a connection
/// at a time.
fn serve_threads(server: Server, addr: &str, options: ServeOptions) -> io::Result<ServiceHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let (tx, rx) = sync_channel::<Job>(options.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::with_capacity(options.workers.max(1));
    for _ in 0..options.workers.max(1) {
        let rx = Arc::clone(&rx);
        let stop = Arc::clone(&stop);
        let server = server.clone();
        let opts = options.clone();
        workers.push(std::thread::spawn(move || {
            worker_loop(&server, &rx, &opts, &stop)
        }));
    }

    let acceptor = {
        let stop = Arc::clone(&stop);
        let server = server.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(false);
                        // Responses are written in one buffer, so Nagle only
                        // adds delayed-ACK stalls on persistent connections.
                        let _ = stream.set_nodelay(true);
                        match tx.try_send(Job {
                            stream,
                            accepted: Instant::now(),
                        }) {
                            Ok(()) => {}
                            Err(TrySendError::Full(job)) => {
                                server
                                    .platform()
                                    .api_metrics()
                                    .record(ROUTE_REJECTED, false, 0);
                                let resp =
                                    Response::error(Status::ServiceUnavailable, "queue full");
                                let _ = write_response(&job.stream, resp, None, None);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            // End every live stream so parked subscription writers wake
            // promptly; tx drops here and workers drain the queue.
            server.stream_hub().close_all();
        })
    };

    let mut threads = vec![acceptor];
    threads.append(&mut workers);
    Ok(ServiceHandle::new(bound, stop, threads, None))
}

fn worker_loop(server: &Server, rx: &Mutex<Receiver<Job>>, opts: &ServeOptions, stop: &AtomicBool) {
    loop {
        // Hold the lock only while dequeuing, not while handling.
        let job = match rx.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // acceptor gone and queue drained
        };
        let waited = job.accepted.elapsed();
        if waited > opts.deadline {
            server.platform().api_metrics().record(
                ROUTE_DEADLINE,
                false,
                waited.as_micros() as u64,
            );
            let resp = Response::error(Status::ServiceUnavailable, "deadline exceeded in queue");
            let _ = write_response(&job.stream, resp, None, None);
            continue;
        }
        handle_connection(server, &job.stream, opts, stop);
    }
}

/// Serve requests off one connection until it closes: the keep-alive loop.
fn handle_connection(server: &Server, stream: &TcpStream, opts: &ServeOptions, stop: &AtomicBool) {
    let metrics = server.platform().api_metrics();
    metrics.record_conn_accepted();
    let _ = stream.set_write_timeout(Some(opts.io_timeout));
    let max_requests = opts.max_requests_per_connection.max(1) as u64;
    let mut carry: Vec<u8> = Vec::with_capacity(1024);
    let mut served: u64 = 0;
    loop {
        match read_request(stream, &mut carry, opts) {
            ReadOutcome::Request(request, client_keep_alive) => {
                served += 1;
                let keep = client_keep_alive && served < max_requests;
                let handled = handle_within(server, opts, &request, Reach::Any)
                    .expect("Reach::Any answers every request");
                if let Some(sub) = handled.stream {
                    // The connection switches into SSE streaming mode and
                    // never returns to request/response service.
                    stream_blocking(server, stream, &sub, stop);
                    server.stream_hub().unsubscribe(&sub);
                    server.platform().api_metrics().record_stream_unsubscribe();
                    break;
                }
                let response = handled.response;
                let remaining = max_requests - served;
                let header = keep.then_some(KeepAliveTerms {
                    timeout: opts.idle_timeout,
                    max: remaining,
                });
                if write_response(stream, response, header, opts.chunk_budget).is_err() || !keep {
                    break;
                }
            }
            ReadOutcome::StreamedBody(head) => {
                served += 1;
                let keep = head.keep_alive && served < max_requests;
                match stream_ingest_body(server, stream, &mut carry, &head, opts) {
                    StreamedResult::Respond { response, close } => {
                        let keep = keep && !close;
                        let remaining = max_requests - served;
                        let header = keep.then_some(KeepAliveTerms {
                            timeout: opts.idle_timeout,
                            max: remaining,
                        });
                        if write_response(stream, response, header, opts.chunk_budget).is_err()
                            || !keep
                        {
                            break;
                        }
                    }
                    StreamedResult::Hangup => break,
                }
            }
            ReadOutcome::Closed => break,
            ReadOutcome::IdleTimeout => {
                // The client simply went quiet between requests; close
                // without fanfare (it is not an error on any route).
                metrics.record_idle_timeout();
                break;
            }
            ReadOutcome::TimedOutMidHead => {
                // Bytes arrived but the head never completed: there is no
                // parseable request to answer, so just account and close.
                metrics.record(ROUTE_TIMEOUT, false, 0);
                metrics.record_io_timeout();
                break;
            }
            ReadOutcome::TimedOutMidBody => {
                // The head parsed, so the client speaks HTTP — tell it what
                // happened before closing.
                metrics.record(ROUTE_TIMEOUT, false, 0);
                metrics.record_io_timeout();
                let resp =
                    Response::error(Status::RequestTimeout, "timed out reading request body");
                let _ = write_response(stream, resp, None, opts.chunk_budget);
                break;
            }
            ReadOutcome::Bad(status, message) => {
                metrics.record(ROUTE_MALFORMED, false, 0);
                let resp = Response::error(status, message);
                let _ = write_response(stream, resp, None, opts.chunk_budget);
                break;
            }
        }
    }
    metrics.record_conn_closed(served);
}

/// How a streamed-body request ended.
enum StreamedResult {
    /// Send `response`; `close` forces `Connection: close` (the body was
    /// not fully drained, so the stream cannot be resynchronised).
    Respond { response: Response, close: bool },
    /// The peer is gone (disconnect mid-body); nothing to send.
    Hangup,
}

/// Drain one streamed request body into an ingest pipeline: feed bytes
/// already read past the head, then keep reading the socket under
/// `io_timeout` until the body framing says done. Memory stays bounded —
/// only the de-framer window and the pipeline's bounded segment queue are
/// ever held. Leftover bytes past the body stay in `carry` for the next
/// pipelined request.
fn stream_ingest_body(
    server: &Server,
    mut stream: &TcpStream,
    carry: &mut Vec<u8>,
    head: &ParsedHead,
    opts: &ServeOptions,
) -> StreamedResult {
    let metrics = server.platform().api_metrics();
    let mut ingest = StreamedIngest::begin(server, head, &opts.limits);
    if let Some(response) = ingest.take_early() {
        return StreamedResult::Respond {
            response,
            close: true,
        };
    }
    loop {
        if !carry.is_empty() {
            match ingest.feed(carry) {
                Ok(consumed) => {
                    carry.drain(..consumed);
                }
                Err(response) => {
                    return StreamedResult::Respond {
                        response,
                        close: true,
                    }
                }
            }
        }
        if ingest.body_complete() {
            break;
        }
        let _ = stream.set_read_timeout(Some(opts.io_timeout));
        let mut chunk = [0u8; 65536];
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Disconnect mid-body: abort with the endpoint unchanged.
                ingest.abort(None);
                metrics.record(ROUTE_MALFORMED, false, 0);
                return StreamedResult::Hangup;
            }
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                // Same classification as a buffered mid-body stall: the
                // head parsed, so answer 408 before closing.
                ingest.abort(Some(Status::RequestTimeout));
                metrics.record(ROUTE_TIMEOUT, false, 0);
                metrics.record_io_timeout();
                return StreamedResult::Respond {
                    response: Response::error(
                        Status::RequestTimeout,
                        "timed out reading request body",
                    ),
                    close: true,
                };
            }
            Err(e) => {
                ingest.abort(None);
                return StreamedResult::Respond {
                    response: Response::error(Status::BadRequest, format!("read error: {e}")),
                    close: true,
                };
            }
        }
    }
    StreamedResult::Respond {
        response: ingest.finish(),
        close: false,
    }
}

/// Drive one SSE subscription over a blocking socket (thread-per-
/// connection mode): write the fixed stream head, then park on the
/// subscription's condvar and write whatever frames it yields, probing
/// the socket for client disconnect between waits. Returns when the
/// subscription ends (close/eviction), the client disconnects, the
/// socket errors, or the service is stopping.
fn stream_blocking(
    server: &Server,
    mut stream: &TcpStream,
    sub: &Arc<crate::stream::Subscription>,
    stop: &AtomicBool,
) {
    use crate::stream::SubscriptionEnd;
    if stream.write_all(wire::sse_head()).is_err() {
        sub.close();
        return;
    }
    let _ = stream.flush();
    loop {
        if stop.load(Ordering::SeqCst) {
            sub.close();
        }
        let (frames, end) = sub.wait_frames(Duration::from_millis(100));
        for frame in &frames {
            if stream.write_all(frame).is_err() {
                sub.close();
                return;
            }
        }
        if !frames.is_empty() {
            let _ = stream.flush();
        }
        match end {
            SubscriptionEnd::Open => {}
            SubscriptionEnd::Closed | SubscriptionEnd::Evicted => {
                if end == SubscriptionEnd::Evicted {
                    server.platform().api_metrics().record_stream_dropped();
                }
                let _ = stream.write_all(wire::sse_done());
                let _ = stream.flush();
                return;
            }
        }
        if frames.is_empty() {
            // Nothing arrived this wait: probe for client disconnect so
            // an abandoned subscriber doesn't pin a worker forever. A
            // timeout just means the client is (correctly) quiet.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
            let mut probe = [0u8; 16];
            match stream.read(&mut probe) {
                Ok(0) => {
                    sub.close();
                    return;
                }
                Ok(_) => {} // clients have nothing valid to say mid-stream
                Err(e) if is_timeout(&e) => {}
                Err(_) => {
                    sub.close();
                    return;
                }
            }
        }
    }
}

/// Handle one request within `reach`: [`Server::handle_traced`], with a
/// panic in the handler answered 500 and the thread kept (see
/// [`Server::contain_panic`]), then the request's `error` /
/// `slow_request` events. The trace id rides along when the request was
/// sampled, so a log line links straight to `GET /trace/<id>`.
/// Thread-per-connection workers call it with [`Reach::Any`], the
/// reactor's threads with [`Reach::Handoff`] or [`Reach::Queue`]; the
/// reactor's polling thread answers a page-cache hit through it with
/// [`Reach::HitOnly`] (`None` is not a hit, and left nothing behind).
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

/// What reading the next request off a persistent connection produced.
enum ReadOutcome {
    /// A complete request, plus whether the client permits keep-alive.
    Request(Request, bool),
    /// A complete *head* for a streaming route: the body is still (partly)
    /// on the wire and the caller drains it through a [`StreamedIngest`].
    /// `carry` holds whatever body bytes were already read.
    StreamedBody(Box<ParsedHead>),
    /// Peer closed cleanly before sending any byte of a new request.
    Closed,
    /// No byte of a new request arrived within the idle window.
    IdleTimeout,
    /// The socket timed out after some head bytes arrived.
    TimedOutMidHead,
    /// The socket timed out after the head parsed, mid-body.
    TimedOutMidBody,
    /// Unacceptable request: answer `status` with the message and close
    /// (400 for malformed, 431 for an oversized head).
    Bad(Status, String),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Parse one HTTP/1.1 request off the socket via the shared incremental
/// parser. `carry` holds bytes already read past the previous request
/// (pipelining); on success it is left holding any bytes past this
/// request's body. The first byte of a new request is allowed the
/// (usually longer) idle window; once the request has started, the
/// stricter io_timeout applies.
fn read_request(mut stream: &TcpStream, carry: &mut Vec<u8>, opts: &ServeOptions) -> ReadOutcome {
    loop {
        // Streaming routes take over as soon as the head parses: the body
        // is handed to the handler window by window instead of being
        // buffered whole (and so is exempt from the buffered-body cap).
        if let wire::HeadParsed::Head(head) = wire::try_parse_head(carry, &opts.limits) {
            if crate::ingest::wants_streaming(&head) {
                carry.drain(..head.consumed);
                return ReadOutcome::StreamedBody(head);
            }
        }
        let head_complete = match wire::try_parse(carry, &opts.limits) {
            Parsed::Complete(p) => {
                carry.drain(..p.consumed);
                return ReadOutcome::Request(p.request, p.keep_alive);
            }
            Parsed::Error { status, message } => return ReadOutcome::Bad(status, message),
            Parsed::Incomplete { head_complete } => head_complete,
        };
        let started = !carry.is_empty();
        let timeout = if started {
            opts.io_timeout
        } else {
            opts.idle_timeout
        };
        let _ = stream.set_read_timeout(Some(timeout));
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) if started => {
                return ReadOutcome::Bad(
                    Status::BadRequest,
                    "connection closed mid-request".to_string(),
                )
            }
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return if head_complete {
                    ReadOutcome::TimedOutMidBody
                } else if started {
                    ReadOutcome::TimedOutMidHead
                } else {
                    ReadOutcome::IdleTimeout
                }
            }
            Err(_) if !started => return ReadOutcome::Closed,
            Err(e) => return ReadOutcome::Bad(Status::BadRequest, format!("read error: {e}")),
        }
    }
}

/// Write one response through the shared [`ResponseStream`] framer. `keep`
/// carries the keep-alive terms when the connection stays open; `None`
/// announces `Connection: close`. With a chunk budget, large bodies go out
/// chunked a bounded buffer at a time; small responses stay the classic
/// one-buffer write (which sidesteps Nagle/delayed-ACK stalls).
fn write_response(
    mut stream: &TcpStream,
    resp: Response,
    keep: Option<KeepAliveTerms>,
    chunk_budget: Option<usize>,
) -> io::Result<()> {
    let mut response = ResponseStream::new(resp, keep, chunk_budget);
    let mut out = Vec::new();
    while response.next_wire(&mut out) {
        stream.write_all(&out)?;
    }
    stream.flush()
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
    fn scraper_thread_fills_system_history_in_both_modes() {
        for mode in [ServeMode::ThreadPerConnection, ServeMode::Reactor] {
            let platform = Platform::new();
            platform.create_dashboard("demo").unwrap();
            let opts = ServeOptions {
                scrape_interval: Some(Duration::from_millis(20)),
                serve_mode: mode,
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
            assert!(populated, "scraper fills the history ring ({mode:?})");
            svc.shutdown();
        }
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

    #[test]
    fn queue_overflow_returns_503() {
        // One worker, depth-1 queue, and the worker is wedged on a slow
        // client that never sends its head — so the queue fills and the
        // acceptor starts shedding.
        let platform = Platform::new();
        let server = Server::new(platform);
        let opts = ServeOptions {
            workers: 1,
            queue_depth: 1,
            deadline: Duration::from_secs(30),
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(10),
            ..ServeOptions::default()
        };
        let mut svc = serve(server, "127.0.0.1:0", opts).expect("bind");
        let addr = svc.local_addr();
        // Wedge the worker + fill the queue with idle connections.
        let _wedge: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        std::thread::sleep(Duration::from_millis(100));
        // Subsequent connections are rejected fast.
        let mut saw_503 = false;
        for _ in 0..5 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut out = String::new();
            if s.read_to_string(&mut out).is_ok() && out.starts_with("HTTP/1.1 503") {
                saw_503 = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(saw_503, "expected a 503 from the full queue");
        drop(_wedge);
        svc.shutdown();
    }
}
