//! The event-driven serving core: one epoll loop, many connections.
//!
//! `serve_reactor` is the [`ServeMode::Reactor`](crate::serve::ServeMode)
//! implementation behind [`crate::serve()`]. Where the thread-per-connection
//! mode parks a worker thread on every open socket — so 2 000 idle
//! keep-alive dashboards wedge a 4-thread pool solid — the reactor
//! registers every connection with a single `Epoll` instance and parks
//! exactly one thread in `epoll_wait`. Idle connections cost one table
//! entry; the worker pool only ever executes requests that have fully
//! arrived, and a page-cache hit never reaches it: the loop answers it
//! where it was parsed.
//!
//! Shape of the loop:
//!
//! * **Token 0** is the listener: readiness means `accept` until
//!   `WouldBlock`, registering each connection under a fresh token
//!   (tokens, not fds, key the connection table — an fd number can be
//!   reused by the kernel the instant a connection closes).
//! * **Token 1** is the waker, the read half of a `UnixStream` pair.
//!   Workers finish a request, push the response onto the completion
//!   list, and write one byte — which pops the reactor out of
//!   `epoll_wait` to stream responses out.
//! * **Every other token** is a connection walking the
//!   `Reading → (Dispatched →) Writing` machine in `conn`. Requests are
//!   parsed incrementally with [`wire::try_parse`]; a hit goes straight
//!   to `Writing`, anything else waits `Dispatched` on a worker. A
//!   request buffered behind a finished response waits on a ready queue
//!   the loop serves round-robin after each event batch. Responses stream
//!   through [`wire::ResponseStream`] so a body bigger than the chunk
//!   budget never sits fully framed in memory; a partial write re-arms
//!   the connection for `EPOLLOUT` instead of blocking anything.
//!
//! Timeout semantics are byte-for-byte those of the blocking mode —
//! idle connections close silently (`idle_timeouts`), a mid-head stall
//! closes silently under the `(timeout)` pseudo-route, a mid-body stall
//! answers 408 first — enforced by a periodic deadline sweep instead of
//! socket timeouts (nonblocking sockets never block to time out).

pub(crate) mod conn;
pub(crate) mod epoll;

use self::conn::{Conn, ConnState, ReadProgress, WriteProgress};
use self::epoll::{Epoll, EpollEvent, EVENT_ERROR, EVENT_HANGUP, EVENT_READ, EVENT_WRITE};
use crate::http::{Request, Response, Status};
use crate::metrics::{ROUTE_DEADLINE, ROUTE_MALFORMED, ROUTE_REJECTED, ROUTE_TIMEOUT};
use crate::router::{Reach, Server};
use crate::serve::{handle_within, ServeOptions, ServiceHandle};
use crate::stream::{StreamHub, Subscription, SubscriptionEnd};
use crate::wire::{self, KeepAliveTerms, Parsed};
use shareinsights_core::ApiMetrics;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// Token of the accepting listener.
const TOKEN_LISTENER: u64 = 0;
/// Token of the worker-completion waker.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// `epoll_wait` timeout; doubles as the deadline-sweep granularity, so
/// idle/io timeouts are enforced within ~this much slack.
const WAIT_MS: i32 = 25;
/// Readiness events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 1024;
/// Per-connection unflushed-stream-byte soft cap: while at or above it,
/// the pump stops pulling frames off the subscription queue, so
/// backpressure lands in the hub's bounded queue (and its eviction
/// policy) instead of growing the connection's out-buffer without bound.
const STREAM_OUT_SOFT_CAP: usize = 256 * 1024;

/// A parsed, ready request on its way to the worker pool.
struct Job {
    token: u64,
    work: Work,
    /// Keep-alive terms to advertise (None ⇒ `Connection: close`).
    keep: Option<KeepAliveTerms>,
    enqueued: Instant,
}

/// What a worker executes for one job.
enum Work {
    /// A fully buffered request: dispatch through the router.
    Request(Request),
    /// A streamed ingest whose body has fully drained: commit it
    /// (reassemble + append + index merge) off the event loop. Boxed:
    /// the session carries segment buffers and worker handles, far
    /// larger than a buffered request.
    IngestFinish(Box<crate::ingest::StreamedIngest>),
}

/// A handled request on its way back to the event loop.
struct Completion {
    token: u64,
    response: Response,
    keep: Option<KeepAliveTerms>,
    /// A subscribe request: the connection switches into SSE streaming
    /// instead of writing `response`.
    stream: Option<Arc<Subscription>>,
}

/// Bind `addr` and serve `server` through the epoll event loop.
pub(crate) fn serve_reactor(
    server: Server,
    addr: &str,
    options: ServeOptions,
) -> io::Result<ServiceHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;

    // Published stream frames land in subscriber queues off-loop (the
    // push handler runs on a worker); a waker byte tells the event loop
    // to pump them out. A full waker buffer already means a wakeup is
    // pending, so the lost write is harmless.
    let stream_waker = wake_tx.try_clone()?;
    server.stream_hub().set_notifier(Box::new(move || {
        let _ = (&stream_waker).write(&[1]);
    }));

    let (tx, rx) = sync_channel::<Job>(options.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let completions = Arc::new(Mutex::new(Vec::<Completion>::new()));

    let mut threads = Vec::with_capacity(options.workers.max(1) + 1);
    {
        let stop = Arc::clone(&stop);
        let server = server.clone();
        let opts = options.clone();
        let completions = Arc::clone(&completions);
        threads.push(std::thread::spawn(move || {
            event_loop(&server, &listener, wake_rx, tx, &completions, &opts, &stop);
        }));
    }
    for _ in 0..options.workers.max(1) {
        let rx = Arc::clone(&rx);
        let server = server.clone();
        let opts = options.clone();
        let completions = Arc::clone(&completions);
        let waker = wake_tx.try_clone()?;
        threads.push(std::thread::spawn(move || {
            worker_loop(&server, &rx, &opts, &completions, &waker);
        }));
    }

    Ok(ServiceHandle::new(bound, stop, threads, Some(wake_tx)))
}

/// Execute ready requests off the job queue; push responses back through
/// the completion list and kick the waker.
fn worker_loop(
    server: &Server,
    rx: &Mutex<Receiver<Job>>,
    opts: &ServeOptions,
    completions: &Mutex<Vec<Completion>>,
    waker: &UnixStream,
) {
    loop {
        // Hold the lock only while dequeuing, not while handling.
        let job = match rx.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // reactor gone and queue drained
        };
        let waited = job.enqueued.elapsed();
        let (response, keep, stream) = if waited > opts.deadline {
            server.platform().api_metrics().record(
                ROUTE_DEADLINE,
                false,
                waited.as_micros() as u64,
            );
            if let Work::IngestFinish(ingest) = job.work {
                // The decoded body is dropped with the session — the
                // endpoint stays unchanged, like any shed request.
                ingest.abort(Some(Status::ServiceUnavailable));
            }
            let resp = Response::error(Status::ServiceUnavailable, "deadline exceeded in queue");
            (resp, None, None)
        } else {
            match job.work {
                Work::Request(request) => {
                    let handled = handle_within(server, opts, &request, Reach::Any)
                        .expect("Reach::Any answers every request");
                    (handled.response, job.keep, handled.stream)
                }
                Work::IngestFinish(ingest) => (ingest.finish(), job.keep, None),
            }
        };
        completions.lock().push(Completion {
            token: job.token,
            response,
            keep,
            stream,
        });
        // One byte per completion batch member is fine; a full (unread)
        // waker buffer already guarantees a pending wakeup.
        let _ = (&*waker).write(&[1]);
    }
}

struct Reactor<'a> {
    metrics: ApiMetrics,
    epoll: Epoll,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    tx: SyncSender<Job>,
    opts: &'a ServeOptions,
    hub: Arc<StreamHub>,
    server: &'a Server,
    /// Connections whose response went out with a request already
    /// buffered behind it, waiting their turn (see [`Reactor::run_ready`]),
    /// each at most once (`Conn::queued`).
    ready: VecDeque<u64>,
    last_sweep: Instant,
}

fn event_loop(
    server: &Server,
    listener: &TcpListener,
    mut wake_rx: UnixStream,
    tx: SyncSender<Job>,
    completions: &Mutex<Vec<Completion>>,
    opts: &ServeOptions,
    stop: &AtomicBool,
) {
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(e) => {
            emit_loop_error(opts, &format!("epoll_create1 failed: {e}"));
            return;
        }
    };
    if let Err(e) = epoll
        .register(listener.as_raw_fd(), EVENT_READ, TOKEN_LISTENER)
        .and_then(|()| epoll.register(wake_rx.as_raw_fd(), EVENT_READ, TOKEN_WAKER))
    {
        emit_loop_error(opts, &format!("epoll registration failed: {e}"));
        return;
    }
    let mut r = Reactor::new(server, opts, epoll, tx);
    let mut events = vec![EpollEvent::empty(); EVENT_BATCH];
    while !stop.load(Ordering::SeqCst) {
        if let Err(e) = r.turn(&mut events, listener, &mut wake_rx, completions) {
            emit_loop_error(opts, &format!("epoll_wait failed: {e}"));
            return;
        }
    }
    // Shutdown: dropping the reactor drops `tx`, which lets the workers
    // drain the queue and exit; every registered connection closes with
    // its socket. Late completions are simply discarded. Subscriptions
    // are marked closed so any in-process subscriber handles see the end.
    server.stream_hub().close_all();
}

fn emit_loop_error(opts: &ServeOptions, message: &str) {
    opts.event_log.emit("error", &[("message", message.into())]);
}

impl<'a> Reactor<'a> {
    fn new(server: &'a Server, opts: &'a ServeOptions, epoll: Epoll, tx: SyncSender<Job>) -> Self {
        Reactor {
            metrics: server.platform().api_metrics().clone(),
            epoll,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            tx,
            opts,
            hub: Arc::clone(server.stream_hub()),
            server,
            ready: VecDeque::new(),
            last_sweep: Instant::now(),
        }
    }

    /// One pass of the loop: wait for readiness (not at all while the
    /// ready queue holds connections), handle the batch, serve the ready
    /// queue once, and sweep deadlines when due.
    fn turn(
        &mut self,
        events: &mut [EpollEvent],
        listener: &TcpListener,
        wake_rx: &mut UnixStream,
        completions: &Mutex<Vec<Completion>>,
    ) -> io::Result<()> {
        let wait_ms = if self.ready.is_empty() { WAIT_MS } else { 0 };
        let n = self.epoll.wait(events, wait_ms)?;
        if n > 0 {
            self.metrics.record_reactor_wakeup(n as u64);
        }
        let mut accept = false;
        let mut drain = false;
        for ev in &events[..n] {
            match ev.token() {
                TOKEN_LISTENER => accept = true,
                TOKEN_WAKER => drain = true,
                token => self.conn_event(token, ev.events()),
            }
        }
        if drain {
            self.drain_completions(wake_rx, completions);
        }
        if accept {
            self.accept_ready(listener);
        }
        self.run_ready();
        if self.last_sweep.elapsed().as_millis() >= WAIT_MS as u128 {
            self.sweep();
            self.last_sweep = Instant::now();
        }
        Ok(())
    }

    /// Accept until `WouldBlock`, registering each connection.
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .register(stream.as_raw_fd(), EVENT_READ, token)
                        .is_err()
                    {
                        continue;
                    }
                    self.metrics.record_conn_accepted();
                    self.metrics.record_reactor_register();
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Route one readiness event to its connection's state machine.
    fn conn_event(&mut self, token: u64, mask: u32) {
        if mask & (EVENT_ERROR | EVENT_HANGUP) != 0 {
            // Both halves are gone; nothing useful can be written.
            self.close(token);
            return;
        }
        if mask & EVENT_WRITE != 0 {
            match self.conns.get(&token).map(|c| c.state) {
                Some(ConnState::Writing) => self.drive_write(token),
                Some(ConnState::Streaming) => self.pump_stream(token),
                _ => {}
            }
        }
        if mask & EVENT_READ != 0 {
            match self.conns.get(&token).map(|c| c.state) {
                Some(ConnState::Reading) => {
                    let progress = match self.conns.get_mut(&token) {
                        // Read again once the ready queue has served the
                        // buffered request; epoll reports the socket then.
                        Some(conn) if conn.queued => return,
                        Some(conn) => conn.read_some(),
                        None => return,
                    };
                    match progress {
                        ReadProgress::Read(_) => self.try_dispatch(token),
                        ReadProgress::WouldBlock => {}
                        ReadProgress::Eof => {
                            // Same split as the blocking loop: a clean quiet close
                            // just goes away; a half-sent request gets 400 first.
                            if self.conns.get(&token).is_some_and(|c| !c.buf.is_empty()) {
                                self.metrics.record(ROUTE_MALFORMED, false, 0);
                                self.respond_and_close(
                                    token,
                                    Response::error(
                                        Status::BadRequest,
                                        "connection closed mid-request",
                                    ),
                                );
                            } else {
                                self.close(token);
                            }
                        }
                        ReadProgress::Error => self.close(token),
                    }
                }
                Some(ConnState::Ingesting) => {
                    let progress = match self.conns.get_mut(&token) {
                        Some(conn) => conn.read_some(),
                        None => return,
                    };
                    match progress {
                        ReadProgress::Read(_) => self.drive_ingest(token),
                        ReadProgress::WouldBlock => {}
                        ReadProgress::Eof | ReadProgress::Error => {
                            // Disconnect mid-body: the pipeline is aborted
                            // in `close` and the endpoint stays unchanged.
                            self.metrics.record(ROUTE_MALFORMED, false, 0);
                            self.close(token);
                        }
                    }
                }
                Some(ConnState::Streaming) => {
                    // A subscriber only ever *reads*; inbound bytes are
                    // discarded, and EOF is the unsubscribe signal.
                    let progress = match self.conns.get_mut(&token) {
                        Some(conn) => conn.read_some(),
                        None => return,
                    };
                    match progress {
                        ReadProgress::Read(_) => {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.buf.clear();
                            }
                        }
                        ReadProgress::WouldBlock => {}
                        ReadProgress::Eof | ReadProgress::Error => self.close(token),
                    }
                }
                _ => {}
            }
        }
    }

    /// Parse the buffer: serve a complete request, answer wire errors, or
    /// keep waiting.
    fn try_dispatch(&mut self, token: u64) {
        enum Next {
            Wait,
            Reject(Status, String),
            Serve(Request, Option<KeepAliveTerms>),
            /// The head matched a streaming route: the connection enters
            /// `Ingesting` and body bytes feed the pipeline as they come.
            Ingest,
        }
        let next = {
            let Reactor {
                conns,
                opts,
                server,
                ..
            } = self;
            let Some(conn) = conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Reading {
                return;
            }
            // Streaming routes take over as soon as the head parses —
            // the body is fed to the pipeline window by window instead of
            // accumulating in `conn.buf`.
            let streamed = match wire::try_parse_head(&conn.buf, &opts.limits) {
                wire::HeadParsed::Head(head) if crate::ingest::wants_streaming(&head) => Some(head),
                _ => None,
            };
            if let Some(head) = streamed {
                conn.buf.drain(..head.consumed);
                conn.head_complete = true;
                conn.served += 1;
                let max = opts.max_requests_per_connection.max(1) as u64;
                conn.pending_keep =
                    (head.keep_alive && conn.served < max).then(|| KeepAliveTerms {
                        timeout: opts.idle_timeout,
                        max: max - conn.served,
                    });
                conn.ingest = Some(crate::ingest::StreamedIngest::begin(
                    server,
                    &head,
                    &opts.limits,
                ));
                conn.state = ConnState::Ingesting;
                Next::Ingest
            } else {
                match wire::try_parse(&conn.buf, &opts.limits) {
                    Parsed::Incomplete { head_complete } => {
                        conn.head_complete = head_complete;
                        Next::Wait
                    }
                    Parsed::Error { status, message } => Next::Reject(status, message),
                    Parsed::Complete(parsed) => {
                        conn.buf.drain(..parsed.consumed);
                        conn.head_complete = false;
                        conn.served += 1;
                        let max = opts.max_requests_per_connection.max(1) as u64;
                        let keep =
                            (parsed.keep_alive && conn.served < max).then(|| KeepAliveTerms {
                                timeout: opts.idle_timeout,
                                max: max - conn.served,
                            });
                        Next::Serve(parsed.request, keep)
                    }
                }
            }
        };
        match next {
            Next::Wait => {}
            Next::Ingest => self.drive_ingest(token),
            Next::Reject(status, message) => {
                self.metrics.record(ROUTE_MALFORMED, false, 0);
                self.respond_and_close(token, Response::error(status, message));
            }
            Next::Serve(request, keep) => self.serve(token, request, keep),
        }
    }

    /// Answer a page-cache hit here, on the loop thread, straight onto the
    /// socket: the connection keeps its read interest. Anything else goes
    /// to the worker pool, the connection's read interest quiesced while
    /// the worker runs (the kernel socket buffer is the pipelining
    /// backpressure).
    fn serve(&mut self, token: u64, request: Request, keep: Option<KeepAliveTerms>) {
        if let Some(handled) = handle_within(self.server, self.opts, &request, Reach::HitOnly) {
            self.metrics.record_reactor_inline();
            self.start_response(token, handled.response, keep);
            return;
        }
        let Reactor { conns, epoll, .. } = self;
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };
        conn.state = ConnState::Dispatched;
        if conn.interest != 0 {
            if epoll.modify(conn.stream.as_raw_fd(), 0, token).is_err() {
                self.close(token);
                return;
            }
            conn.interest = 0;
        }
        self.submit(Job {
            token,
            work: Work::Request(request),
            keep,
            enqueued: Instant::now(),
        });
    }

    /// Hand `job` to the worker pool; only a job the pool accepts counts
    /// as dispatched. A full queue answers 503 at once, the blocking
    /// acceptor's shedding contract; an ingest's decoded body is dropped
    /// with it and the endpoint stays unchanged.
    fn submit(&mut self, job: Job) {
        let token = job.token;
        let (job, full) = match self.tx.try_send(job) {
            Ok(()) => {
                self.metrics.record_reactor_dispatch();
                return;
            }
            Err(TrySendError::Full(job)) => (job, true),
            Err(TrySendError::Disconnected(job)) => (job, false),
        };
        if let Work::IngestFinish(ingest) = job.work {
            ingest.abort(None);
        }
        if full {
            self.metrics.record(ROUTE_REJECTED, false, 0);
            self.respond_and_close(
                token,
                Response::error(Status::ServiceUnavailable, "queue full"),
            );
        } else {
            self.close(token);
        }
    }

    /// One round-robin pass over the connections with a request buffered
    /// behind a finished response: each is served once, and one whose
    /// answer goes out at once queues again behind the others. No chain
    /// of pipelined requests recurses, and none holds the loop.
    fn run_ready(&mut self) {
        for _ in 0..self.ready.len() {
            let Some(token) = self.ready.pop_front() else {
                break;
            };
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.queued = false;
            }
            self.try_dispatch(token);
        }
    }

    /// Feed buffered body bytes into an `Ingesting` connection's
    /// pipeline. Early rejections (unknown dashboard, announced over-cap
    /// body) and mid-transfer framing errors answer and close; body
    /// completion dispatches the commit to the worker pool so the event
    /// loop never runs the reassemble + append + index merge. The
    /// pipeline's bounded segment queue is the memory cap: a stall there
    /// briefly holds the loop, bounded by two in-flight segment decodes.
    fn drive_ingest(&mut self, token: u64) {
        enum After {
            Wait,
            Respond(Response),
            Finish(Job),
            Close,
        }
        let after = {
            let Reactor { conns, epoll, .. } = self;
            let Some(conn) = conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Ingesting {
                return;
            }
            let Some(ingest) = conn.ingest.as_mut() else {
                return;
            };
            if let Some(resp) = ingest.take_early() {
                conn.ingest = None;
                After::Respond(resp)
            } else {
                match ingest.feed(&conn.buf) {
                    Err(resp) => {
                        conn.ingest = None;
                        After::Respond(resp)
                    }
                    Ok(consumed) => {
                        conn.buf.drain(..consumed);
                        if ingest.body_complete() {
                            let ingest = conn.ingest.take().expect("checked above");
                            conn.head_complete = false;
                            // Quiesce read interest while the worker
                            // commits, exactly like a dispatched request.
                            conn.state = ConnState::Dispatched;
                            if conn.interest != 0
                                && epoll.modify(conn.stream.as_raw_fd(), 0, token).is_err()
                            {
                                ingest.abort(None);
                                After::Close
                            } else {
                                conn.interest = 0;
                                After::Finish(Job {
                                    token,
                                    work: Work::IngestFinish(Box::new(ingest)),
                                    keep: conn.pending_keep.take(),
                                    enqueued: Instant::now(),
                                })
                            }
                        } else {
                            After::Wait
                        }
                    }
                }
            }
        };
        match after {
            After::Wait => {}
            After::Close => self.close(token),
            After::Respond(response) => self.respond_and_close(token, response),
            After::Finish(job) => self.submit(job),
        }
    }

    /// Install `response` on the connection and stream it out.
    fn start_response(&mut self, token: u64, response: Response, keep: Option<KeepAliveTerms>) {
        let budget = self.opts.chunk_budget;
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.start_response(response, keep, budget);
        }
        self.drive_write(token);
    }

    /// Answer `response` with `Connection: close`, then close.
    fn respond_and_close(&mut self, token: u64, response: Response) {
        self.start_response(token, response, None);
    }

    /// Push pending response bytes; arm `EPOLLOUT` on backpressure, and
    /// return the connection to `Reading` (or close it) when done.
    fn drive_write(&mut self, token: u64) {
        let progress = match self.conns.get_mut(&token) {
            Some(conn) => conn.write_some(),
            None => return,
        };
        match progress {
            WriteProgress::Finished => {
                if self.conns.get(&token).is_none_or(|c| c.close_after_write) {
                    self.close(token);
                    return;
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Reading;
                    conn.head_complete = false;
                    conn.last_activity = Instant::now();
                }
                if !self.set_interest(token, EVENT_READ) {
                    self.close(token);
                    return;
                }
                // A pipelined successor may already be buffered: it waits
                // its turn rather than recursing from here.
                if let Some(conn) = self.conns.get_mut(&token) {
                    if !conn.buf.is_empty() && !conn.queued {
                        conn.queued = true;
                        self.ready.push_back(token);
                    }
                }
            }
            WriteProgress::Blocked => {
                let newly = self
                    .conns
                    .get(&token)
                    .is_some_and(|c| c.interest != EVENT_WRITE);
                if self.set_interest(token, EVENT_WRITE) {
                    if newly {
                        self.metrics.record_reactor_rearm();
                    }
                } else {
                    self.close(token);
                }
            }
            WriteProgress::Error => self.close(token),
        }
    }

    /// Point the connection's epoll registration at `mask`. False means
    /// the kernel refused (the caller should close).
    fn set_interest(&mut self, token: u64, mask: u32) -> bool {
        let Reactor { conns, epoll, .. } = self;
        let Some(conn) = conns.get_mut(&token) else {
            return false;
        };
        if conn.interest == mask {
            return true;
        }
        if epoll.modify(conn.stream.as_raw_fd(), mask, token).is_err() {
            return false;
        }
        conn.interest = mask;
        true
    }

    /// Deregister and drop one connection, unhooking any subscription.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.deregister(conn.stream.as_raw_fd());
            self.metrics.record_conn_closed(conn.served);
            self.metrics.record_reactor_deregister();
            if let Some(ingest) = conn.ingest {
                // A half-fed pipeline dies with its connection; the
                // endpoint is untouched.
                ingest.abort(None);
            }
            if let Some(sub) = conn.sub {
                sub.close();
                self.hub.unsubscribe(&sub);
                self.metrics.record_stream_unsubscribe();
            }
        }
    }

    /// Absorb the waker bytes and stream out every finished response.
    fn drain_completions(
        &mut self,
        wake_rx: &mut UnixStream,
        completions: &Mutex<Vec<Completion>>,
    ) {
        let mut sink = [0u8; 256];
        while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        let batch = std::mem::take(&mut *completions.lock());
        for c in batch {
            if let Some(sub) = c.stream {
                // A subscribe: switch the connection into SSE streaming
                // (`c.response` is the in-process acknowledgement body and
                // never hits the wire — the SSE head takes its place).
                if self.conns.contains_key(&c.token) {
                    self.begin_stream(c.token, sub);
                } else {
                    // Died while dispatched: tidy the registration.
                    sub.close();
                    self.hub.unsubscribe(&sub);
                    self.metrics.record_stream_unsubscribe();
                }
            } else if self.conns.contains_key(&c.token) {
                // The connection may have died (hangup) while dispatched.
                self.start_response(c.token, c.response, c.keep);
            }
        }
        // The same waker byte announces newly published frames.
        self.pump_streams();
    }

    /// Put a freshly subscribed connection on the SSE wire: response head
    /// first, then whatever frames (the initial snapshot) already queued.
    fn begin_stream(&mut self, token: u64, sub: Arc<Subscription>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.start_streaming(sub, wire::sse_head());
        self.pump_stream(token);
    }

    /// Move published frames from every streaming connection's
    /// subscription queue onto its socket.
    fn pump_streams(&mut self) {
        let tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Streaming)
            .map(|(&t, _)| t)
            .collect();
        for token in tokens {
            self.pump_stream(token);
        }
    }

    /// Pull frames for one streaming connection and flush. Pulling stops
    /// while the unflushed backlog sits above the soft cap, so a slow
    /// reader backs up into the hub's bounded queue and gets evicted
    /// there rather than growing this buffer without limit.
    fn pump_stream(&mut self, token: u64) {
        let mut evicted = false;
        {
            let Reactor { conns, .. } = self;
            let Some(conn) = conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Streaming {
                return;
            }
            if !conn.ending && conn.out_backlog() < STREAM_OUT_SOFT_CAP {
                if let Some(sub) = conn.sub.clone() {
                    let (frames, end) = sub.try_take();
                    for frame in &frames {
                        conn.enqueue_stream_bytes(frame);
                    }
                    match end {
                        SubscriptionEnd::Open => {}
                        SubscriptionEnd::Closed => {
                            conn.enqueue_stream_bytes(wire::sse_done());
                            conn.ending = true;
                        }
                        SubscriptionEnd::Evicted => {
                            evicted = true;
                            conn.enqueue_stream_bytes(wire::sse_done());
                            conn.ending = true;
                        }
                    }
                }
            }
        }
        if evicted {
            self.metrics.record_stream_dropped();
        }
        self.drive_stream_write(token);
    }

    /// Flush a streaming connection's queued bytes; arm `EPOLLOUT` on
    /// backpressure, close once the terminal chunk has drained.
    fn drive_stream_write(&mut self, token: u64) {
        let progress = match self.conns.get_mut(&token) {
            Some(conn) => conn.write_stream(),
            None => return,
        };
        match progress {
            WriteProgress::Finished => {
                if self.conns.get(&token).is_some_and(|c| c.ending) {
                    self.close(token);
                    return;
                }
                // Drained: watch for the peer hanging up between frames.
                if !self.set_interest(token, EVENT_READ) {
                    self.close(token);
                }
            }
            WriteProgress::Blocked => {
                let newly = self
                    .conns
                    .get(&token)
                    .is_some_and(|c| c.interest != EVENT_WRITE);
                if self.set_interest(token, EVENT_WRITE) {
                    if newly {
                        self.metrics.record_reactor_rearm();
                    }
                } else {
                    self.close(token);
                }
            }
            WriteProgress::Error => self.close(token),
        }
    }

    /// Enforce idle and io deadlines — the nonblocking analog of the
    /// blocking mode's socket timeouts, with identical classification.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut idle = Vec::new();
        let mut stalled: Vec<(u64, bool)> = Vec::new();
        let mut broken = Vec::new();
        for (&token, conn) in &self.conns {
            let quiet = now.duration_since(conn.last_activity);
            match conn.state {
                ConnState::Reading if conn.buf.is_empty() => {
                    if quiet > self.opts.idle_timeout {
                        idle.push(token);
                    }
                }
                ConnState::Reading => {
                    if quiet > self.opts.io_timeout {
                        stalled.push((token, conn.head_complete));
                    }
                }
                // A response the peer will not read: give up quietly, as
                // the blocking mode's write timeout does.
                ConnState::Writing => {
                    if quiet > self.opts.io_timeout {
                        broken.push(token);
                    }
                }
                // The worker owns the request; the queue deadline governs.
                ConnState::Dispatched => {}
                // Mid-body by definition: a stall answers 408 (the
                // pipeline is aborted when the close lands).
                ConnState::Ingesting => {
                    if quiet > self.opts.io_timeout {
                        stalled.push((token, true));
                    }
                }
                // Subscriptions idle indefinitely by design; only a peer
                // that stopped draining a pending write is given up on.
                ConnState::Streaming => {
                    if conn.out_backlog() > 0 && quiet > self.opts.io_timeout {
                        broken.push(token);
                    }
                }
            }
        }
        for token in idle {
            self.metrics.record_idle_timeout();
            self.close(token);
        }
        for (token, head_complete) in stalled {
            self.metrics.record(ROUTE_TIMEOUT, false, 0);
            self.metrics.record_io_timeout();
            if head_complete {
                // The head parsed, so the client speaks HTTP — tell it
                // what happened before closing.
                self.respond_and_close(
                    token,
                    Response::error(Status::RequestTimeout, "timed out reading request body"),
                );
            } else {
                self.close(token);
            }
        }
        for token in broken {
            self.close(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::conn::READ_BUDGET_PER_EVENT;
    use super::*;
    use std::collections::HashSet;
    use std::net::TcpStream;
    use std::time::Duration;

    /// A client that pipelines many read budgets of hits and reads its
    /// replies as fast as they come: the loop reads its socket only once
    /// the ready queue has served what it buffered, so the buffer stays
    /// within about one read budget, and the connection sits on the
    /// queue at most once.
    #[test]
    fn a_pipelining_client_is_read_one_budget_at_a_time() {
        let server = crate::router::tests::served();
        let target = "/retail/ds/brand_sales?limit=1";
        let want = server.handle(&Request::get(target)).body;
        // ~1 KiB a request, 16 read budgets in all, every one a hit.
        let request = format!(
            "GET {target} HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "p".repeat(1000)
        );
        let count = 16 * READ_BUDGET_PER_EVENT / request.len();
        let opts = ServeOptions {
            max_requests_per_connection: count + 1,
            ..ServeOptions::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let (_wake_tx, mut wake_rx) = UnixStream::pair().unwrap();
        let completions = Mutex::new(Vec::new());
        let (tx, _rx) = sync_channel(1);
        let epoll = Epoll::new().unwrap();
        epoll
            .register(listener.as_raw_fd(), EVENT_READ, TOKEN_LISTENER)
            .unwrap();
        let mut r = Reactor::new(&server, &opts, epoll, tx);

        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut writer = client.try_clone().unwrap();
        let burst = request.repeat(count);
        let writer = std::thread::spawn(move || writer.write_all(burst.as_bytes()).unwrap());
        let mut reader = client;
        let reader = std::thread::spawn(move || {
            let mut wire = Vec::new();
            reader.read_to_end(&mut wire).unwrap();
            wire
        });

        let mut events = vec![EpollEvent::empty(); EVENT_BATCH];
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            r.turn(&mut events, &listener, &mut wake_rx, &completions)
                .unwrap();
            let mut queued = HashSet::new();
            assert!(r.ready.iter().all(|t| queued.insert(*t)), "{:?}", r.ready);
            for conn in r.conns.values() {
                assert!(
                    conn.buf.len() <= 2 * READ_BUDGET_PER_EVENT,
                    "{} bytes read ahead after {} requests",
                    conn.buf.len(),
                    conn.served
                );
                assert_eq!(conn.queued, queued.contains(&FIRST_CONN_TOKEN));
            }
            let done = r.conns.values().any(|c| {
                c.served == count as u64 && c.state == ConnState::Reading && c.buf.is_empty()
            });
            if done {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "served {:?}",
                r.conns.values().map(|c| c.served).collect::<Vec<_>>()
            );
        }
        writer.join().unwrap();
        drop(r);
        let wire = String::from_utf8(reader.join().unwrap()).unwrap();
        assert_eq!(wire.matches("HTTP/1.1 200 OK\r\n").count(), count);
        assert_eq!(wire.matches(want.as_str()).count(), count);
    }
}
