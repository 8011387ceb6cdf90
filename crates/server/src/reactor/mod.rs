//! The event-driven serving core: one epoll, many connections, and one
//! pool of threads that take turns polling it.
//!
//! `serve_reactor` is what [`crate::serve()`] runs. It registers every
//! connection with a single `Epoll` instance, so an idle keep-alive
//! dashboard costs one table entry, not a thread; a thread is spent only
//! on a request that has fully arrived, and a page-cache hit costs none:
//! it is answered where it was parsed.
//!
//! Shape of the pool (Leader/Followers, DESIGN.md §5.24): `workers + 1`
//! threads take turns holding the `Reactor`. The *leader* polls, parses
//! and answers page-cache hits inline. Any other request runs on the
//! thread that parsed it, which writes the answer straight to the socket;
//! only bookkeeping goes back through the completion list. Meanwhile the
//! reactor waits in the pool's seat: the first socket to stir wakes one
//! follower to take it (see `Pool::lobby`), and if none stirs the leader
//! takes it back. With no follower waiting, the request waits on the
//! pending queue (at most `queue_depth`, beyond that 503); at most
//! `workers` requests run at once.
//!
//! Epoll tokens:
//!
//! * **Token 0** is the listener: readiness means `accept` until
//!   `WouldBlock`, registering each connection under a fresh token
//!   (tokens, not fds, key the connection table — an fd number can be
//!   reused by the kernel the instant a connection closes).
//! * **Token 1** is the waker, the read half of a `UnixStream` pair. A
//!   finished request the leader must act on, a published stream frame,
//!   a leader leaving connections on the ready queue, or a shutdown
//!   writes one byte to it, which pops the leader (or, with the reactor
//!   in the seat, a follower) out of `epoll_wait` to settle the
//!   completions and pump the streams. Every pass settles the
//!   completions before it handles its events.
//! * **Every other token** is a connection walking the
//!   `Reading → (Dispatched →) Writing` machine in `conn`. Requests are
//!   parsed incrementally with [`wire::try_parse`]; a hit goes straight
//!   to `Writing`. A request buffered behind a finished response waits on
//!   a ready queue the leader serves round-robin once a pass. Responses
//!   stream through [`wire::ResponseStream`] so a body bigger than the
//!   chunk budget never sits fully framed in memory; a partial write
//!   re-arms the connection for `EPOLLOUT` instead of blocking anything.
//!
//! Timeouts: idle connections close silently (`idle_timeouts`), a
//! mid-head stall closes silently under the `(timeout)` pseudo-route, a
//! mid-body stall answers 408 first — enforced by a periodic deadline
//! sweep (nonblocking sockets never block to time out). The
//! sweep runs on the polling thread: while the reactor waits in the seat
//! and no socket stirs, a deadline can pass unenforced until the request
//! that holds the seat ends.

pub(crate) mod conn;
pub(crate) mod epoll;

use self::conn::{Conn, ConnState, Outgoing, ReadProgress, WriteProgress};
use self::epoll::{
    Epoll, EpollEvent, EVENT_ERROR, EVENT_HANGUP, EVENT_ONESHOT, EVENT_READ, EVENT_WRITE,
};
use crate::http::{Request, Response, Status};
use crate::metrics::{ROUTE_DEADLINE, ROUTE_MALFORMED, ROUTE_REJECTED, ROUTE_TIMEOUT};
use crate::router::{Reach, Server};
use crate::serve::{handle_within, ServeOptions, ServiceHandle};
use crate::stream::{StreamHub, Subscription, SubscriptionEnd};
use crate::wire::{self, KeepAliveTerms, Parsed};
use shareinsights_core::ApiMetrics;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// Token of the accepting listener.
const TOKEN_LISTENER: u64 = 0;
/// Token of the completion waker.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Lobby token of the reactor's own epoll (see [`Pool::lobby`]).
const TOKEN_SEAT: u64 = 0;
/// Lobby token of the shutdown bell.
const TOKEN_BELL: u64 = 1;
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

/// A parsed, ready request that needs a thread of its own.
struct Job {
    token: u64,
    work: Work,
    /// Keep-alive terms to advertise (None ⇒ `Connection: close`).
    keep: Option<KeepAliveTerms>,
    enqueued: Instant,
    /// The connection's socket, which the thread running the job writes
    /// the answer to.
    stream: Arc<TcpStream>,
    /// The connection had bytes buffered past this request: the leader
    /// must be woken to serve them once the answer is out.
    buffered: bool,
}

/// What a thread executes for one job.
enum Work {
    /// A fully buffered request: dispatch through the router.
    Request(Request),
    /// A streamed ingest whose body has fully drained: commit it
    /// (reassemble + append + index merge) off the poll. Boxed: the
    /// session carries segment buffers and worker handles, far larger
    /// than a buffered request.
    IngestFinish(Box<crate::ingest::StreamedIngest>),
}

/// What is left for the leader once a job's thread is done with it.
struct Completion {
    token: u64,
    done: Done,
    /// The thread wrote the whole answer and re-armed the connection's
    /// read interest itself, so the client's next request wakes the
    /// leader, which settles this first (see [`Reactor::settle`]).
    rearmed: bool,
}

enum Done {
    /// The answer went to the socket as far as it would take it; the
    /// rest (usually nothing) is here.
    Wrote(Outgoing),
    /// Writing the answer failed: the connection is to be closed.
    Broke,
    /// A subscribe: the connection switches into SSE streaming.
    Subscribed(Arc<Subscription>),
}

/// Bind `addr` and serve `server` through the leader/followers pool.
pub(crate) fn serve_reactor(
    server: Server,
    addr: &str,
    options: ServeOptions,
) -> io::Result<ServiceHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let (pool, waker) = Pool::new(server, options, listener)?;
    let threads = (0..pool.opts.workers.max(1) + 1)
        .map(|_| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.serve())
        })
        .collect();
    Ok(ServiceHandle {
        addr: bound,
        stop: Arc::clone(&pool.stop),
        threads,
        waker,
    })
}

/// What the pool's threads share.
struct Pool {
    server: Server,
    opts: Arc<ServeOptions>,
    /// The reactor's epoll, for a thread that re-arms its connection.
    epoll: Arc<Epoll>,
    /// Where followers wait. It holds the bell and the reactor's epoll
    /// itself (token [`TOKEN_SEAT`]), armed one-shot only while the
    /// reactor waits in the seat: then the first socket that stirs, or
    /// one that already had, wakes one follower to take the poll.
    lobby: Epoll,
    /// The bell's two ends: rung at shutdown and never read, it reads
    /// ready from then on, so every follower wakes.
    bell: (UnixStream, UnixStream),
    completions: Arc<Mutex<Vec<Completion>>>,
    /// Write half of the leader's waker.
    waker: UnixStream,
    stop: Arc<AtomicBool>,
    seat: Mutex<Seat>,
}

/// Who may lead next, and what waits for a thread.
struct Seat {
    /// The reactor while its leader runs a request: the leader takes it
    /// back when done, unless a follower took it first.
    reactor: Option<Box<Reactor>>,
    /// Followers waiting in the lobby. A follower waits only with
    /// nothing pending, and a job is queued only with none waiting, so a
    /// pending job always has a running thread that will take it; the
    /// seat is left open only with one waiting, so a follower can take it.
    idle: usize,
    /// Jobs that found no follower waiting, oldest first.
    pending: VecDeque<Job>,
    /// The service is shutting down: idle threads exit.
    stopped: bool,
}

/// A pool thread that panics outside a request's own containment (in
/// the poll, say, dropping the reactor) stops the pool on its way out, so
/// shutdown never waits on a follower that nobody will wake.
struct StopOnUnwind<'a>(&'a Pool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop_threads();
        }
    }
}

/// What a thread does next.
enum Turn {
    Lead(Box<Reactor>),
    Run(Job),
    Exit,
}

impl Pool {
    /// A pool with no thread yet, the reactor free for the first one to
    /// take, and the write half of the leader's waker for shutdown.
    fn new(
        server: Server,
        options: ServeOptions,
        listener: TcpListener,
    ) -> io::Result<(Arc<Pool>, UnixStream)> {
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        // Published stream frames land in subscriber queues off the poll
        // (the push handler runs on a request's thread); a waker byte
        // tells the leader to pump them out. A full waker buffer already
        // means a wakeup is pending, so the lost write is harmless.
        let stream_waker = wake_tx.try_clone()?;
        server.stream_hub().set_notifier(Box::new(move || {
            let _ = (&stream_waker).write(&[1]);
        }));
        let opts = Arc::new(options);
        let completions = Arc::new(Mutex::new(Vec::new()));
        let reactor = Reactor::new(
            server.clone(),
            Arc::clone(&opts),
            listener,
            wake_rx,
            Arc::clone(&completions),
        )?;
        let lobby = Epoll::new()?;
        let bell = UnixStream::pair()?;
        bell.0.set_nonblocking(true)?;
        lobby.register(reactor.epoll.as_raw_fd(), 0, TOKEN_SEAT)?;
        lobby.register(bell.1.as_raw_fd(), EVENT_READ, TOKEN_BELL)?;
        let pool = Pool {
            server,
            opts,
            epoll: Arc::clone(&reactor.epoll),
            lobby,
            bell,
            completions,
            waker: wake_tx.try_clone()?,
            stop: Arc::new(AtomicBool::new(false)),
            seat: Mutex::new(Seat {
                reactor: Some(Box::new(reactor)),
                idle: 0,
                pending: VecDeque::new(),
                stopped: false,
            }),
        };
        Ok((Arc::new(pool), wake_tx))
    }

    /// One pool thread: lead, run, or wait as a follower, until shutdown.
    fn serve(&self) {
        let _unwinding = StopOnUnwind(self);
        let mut events = vec![EpollEvent::empty(); EVENT_BATCH];
        loop {
            match self.next(&mut events) {
                Turn::Lead(reactor) => self.lead(reactor, &mut events),
                Turn::Run(job) => {
                    self.run(job, Reach::Queue);
                }
                Turn::Exit => return,
            }
        }
    }

    /// Take the reactor if it is free, else the oldest pending job; wait
    /// in the lobby until one of them (or shutdown) comes.
    fn next(&self, events: &mut [EpollEvent]) -> Turn {
        let mut seat = self.seat.lock();
        loop {
            if let Some(reactor) = self.take_seat(&mut seat) {
                return Turn::Lead(reactor);
            }
            if let Some(job) = seat.pending.pop_front() {
                return Turn::Run(job);
            }
            if seat.stopped {
                return Turn::Exit;
            }
            seat.idle += 1;
            drop(seat);
            let _ = self.lobby.wait(events, -1);
            seat = self.seat.lock();
            seat.idle -= 1;
        }
    }

    /// The reactor, if it waits in the seat; its lobby token is disarmed.
    fn take_seat(&self, seat: &mut Seat) -> Option<Box<Reactor>> {
        let reactor = seat.reactor.take()?;
        let _ = (self.lobby).modify(self.epoll.as_raw_fd(), 0, TOKEN_SEAT);
        Some(reactor)
    }

    /// Poll until a request needs a thread, and place it (see the module
    /// doc). A dispatch is counted before its request runs, so a request
    /// can read its own.
    fn lead(&self, mut reactor: Box<Reactor>, events: &mut [EpollEvent]) {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return self.shut_down(reactor);
            }
            if let Err(e) = reactor.turn(events) {
                emit_loop_error(&self.opts, &format!("epoll_wait failed: {e}"));
                return self.shut_down(reactor);
            }
            let Some(job) = reactor.job.take() else {
                continue;
            };
            let mut seat = self.seat.lock();
            if seat.idle > 0 {
                reactor.metrics.record_reactor_dispatch(false);
                // Connections on the ready queue stir no socket: the
                // waker byte stands in for them.
                if !reactor.ready.is_empty() {
                    let _ = (&self.waker).write(&[1]);
                }
                seat.reactor = Some(reactor);
                let armed = EVENT_READ | EVENT_ONESHOT;
                let _ = (self.lobby).modify(self.epoll.as_raw_fd(), armed, TOKEN_SEAT);
                drop(seat);
                match self.run(job, Reach::Handoff) {
                    Some(back) => reactor = back,
                    // A follower polls now: this thread joins the others.
                    None => return,
                }
                reactor.settle();
            } else if seat.pending.len() < self.opts.queue_depth.max(1) {
                reactor.metrics.record_reactor_dispatch(true);
                seat.pending.push_back(job);
            } else {
                drop(seat);
                reactor.shed(job);
            }
        }
    }

    /// Stop every thread once its request is done (pending ones still
    /// run); dropping the reactor closes every registered connection.
    /// Subscriptions are marked closed so any in-process subscriber
    /// handles see the end.
    fn shut_down(&self, reactor: Box<Reactor>) {
        self.stop_threads();
        drop(reactor);
        self.server.stream_hub().close_all();
    }

    /// Let every thread exit once it has nothing left to run.
    fn stop_threads(&self) {
        self.seat.lock().stopped = true;
        let _ = (&self.bell.0).write(&[1]);
    }

    /// Run `job` on this thread and write its answer straight to the
    /// socket; only the connection's bookkeeping goes back to the leader.
    /// A leader running its own parse (`Reach::Handoff`) takes the
    /// reactor back, if no follower took it, before it re-arms the
    /// connection, so the client's next request wakes no follower; the
    /// reactor is returned.
    fn run(&self, job: Job, reach: Reach) -> Option<Box<Reactor>> {
        let (token, stream) = (job.token, job.stream);
        let waited = job.enqueued.elapsed();
        let (response, keep, sub) = if waited > self.opts.deadline {
            self.server.platform().api_metrics().record(
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
                    let handled = handle_within(&self.server, &self.opts, &request, reach)
                        .expect("only Reach::HitOnly declines a request");
                    (handled.response, job.keep, handled.stream)
                }
                Work::IngestFinish(ingest) => (ingest.finish(), job.keep, None),
            }
        };
        let (done, rearm) = match sub {
            Some(sub) => (Done::Subscribed(sub), false),
            None => {
                let mut out = Outgoing::new(response, keep, self.opts.chunk_budget);
                match out.write_to(&stream, &mut Instant::now()) {
                    WriteProgress::Error => (Done::Broke, false),
                    WriteProgress::Finished => {
                        let rearm = !out.close_after;
                        (Done::Wrote(out), rearm)
                    }
                    WriteProgress::Blocked => (Done::Wrote(out), false),
                }
            }
        };
        let back = match reach {
            Reach::Handoff => self.take_seat(&mut self.seat.lock()),
            _ => None,
        };
        // Re-armed under the completion lock: a leader that the client's
        // next request wakes settles this first, rather than spinning on
        // a connection still marked dispatched.
        let mut completions = self.completions.lock();
        let rearmed = rearm
            && (self.epoll)
                .modify(stream.as_raw_fd(), EVENT_READ, token)
                .is_ok();
        completions.push(Completion {
            token,
            done,
            rearmed,
        });
        drop(completions);
        if back.is_none() && (!rearmed || job.buffered) {
            // A full (unread) waker buffer already guarantees a pending
            // wakeup.
            let _ = (&self.waker).write(&[1]);
        }
        back
    }
}

pub(crate) struct Reactor {
    metrics: ApiMetrics,
    epoll: Arc<Epoll>,
    listener: TcpListener,
    /// Read half of the waker (token 1).
    wake_rx: UnixStream,
    completions: Arc<Mutex<Vec<Completion>>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    opts: Arc<ServeOptions>,
    hub: Arc<StreamHub>,
    server: Server,
    /// Connections whose response went out with a request already
    /// buffered behind it, waiting their turn (see [`Reactor::run_ready`]),
    /// each at most once (`Conn::queued`).
    ready: VecDeque<u64>,
    /// A request the pass produced that needs a thread: the pass ends
    /// there, and the leader places it (see [`Pool::lead`]).
    job: Option<Job>,
    last_sweep: Instant,
}

fn emit_loop_error(opts: &ServeOptions, message: &str) {
    opts.event_log.emit("error", &[("message", message.into())]);
}

impl Reactor {
    /// Register `listener` (token 0) and the waker's read half (token 1)
    /// with a fresh epoll instance.
    fn new(
        server: Server,
        opts: Arc<ServeOptions>,
        listener: TcpListener,
        wake_rx: UnixStream,
        completions: Arc<Mutex<Vec<Completion>>>,
    ) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        epoll.register(listener.as_raw_fd(), EVENT_READ, TOKEN_LISTENER)?;
        epoll.register(wake_rx.as_raw_fd(), EVENT_READ, TOKEN_WAKER)?;
        Ok(Reactor {
            metrics: server.platform().api_metrics().clone(),
            epoll: Arc::new(epoll),
            listener,
            wake_rx,
            completions,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            opts,
            hub: Arc::clone(server.stream_hub()),
            server,
            ready: VecDeque::new(),
            job: None,
            last_sweep: Instant::now(),
        })
    }

    /// One pass: sweep deadlines when due, serve the ready queue once,
    /// wait for readiness (not at all while the ready queue holds
    /// connections) and handle the batch. The pass ends early at the
    /// first request that needs a thread (`self.job`); level-triggered
    /// epoll reports what the batch had left on the next pass.
    fn turn(&mut self, events: &mut [EpollEvent]) -> io::Result<()> {
        if self.last_sweep.elapsed().as_millis() >= WAIT_MS as u128 {
            self.sweep();
            self.last_sweep = Instant::now();
        }
        self.run_ready();
        if self.job.is_some() {
            return Ok(());
        }
        let wait_ms = if self.ready.is_empty() { WAIT_MS } else { 0 };
        let n = self.epoll.wait(events, wait_ms)?;
        if n > 0 {
            self.metrics.record_reactor_wakeup(n as u64);
        }
        self.settle();
        let mut accept = false;
        let mut drain = false;
        for ev in &events[..n] {
            match ev.token() {
                TOKEN_LISTENER => accept = true,
                TOKEN_WAKER => drain = true,
                token => self.conn_event(token, ev.events()),
            }
            if self.job.is_some() {
                return Ok(());
            }
        }
        if drain {
            self.drain_completions();
        }
        if accept {
            self.accept_ready();
        }
        Ok(())
    }

    /// Accept until `WouldBlock`, registering each connection.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
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
                            // A clean quiet close just goes away; a
                            // half-sent request gets 400 first.
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

    /// Answer a page-cache hit here, on the leader's thread, straight
    /// onto the socket: the connection keeps its read interest. Anything
    /// else becomes the pass's job, the connection's read interest
    /// quiesced while it runs (the kernel socket buffer is the pipelining
    /// backpressure).
    fn serve(&mut self, token: u64, request: Request, keep: Option<KeepAliveTerms>) {
        if let Some(handled) = handle_within(&self.server, &self.opts, &request, Reach::HitOnly) {
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
        self.job = Some(Job {
            token,
            work: Work::Request(request),
            keep,
            enqueued: Instant::now(),
            stream: Arc::clone(&conn.stream),
            buffered: !conn.buf.is_empty(),
        });
    }

    /// Answer a job no thread can take, the pending queue being full, with
    /// 503 at once (load shedding). An ingest's decoded body is dropped
    /// with it and the endpoint stays unchanged.
    fn shed(&mut self, job: Job) {
        if let Work::IngestFinish(ingest) = job.work {
            ingest.abort(None);
        }
        self.metrics.record(ROUTE_REJECTED, false, 0);
        self.respond_and_close(
            job.token,
            Response::error(Status::ServiceUnavailable, "queue full"),
        );
    }

    /// One round-robin pass over the connections with a request buffered
    /// behind a finished response: each is served once, and one whose
    /// answer goes out at once queues again behind the others. No chain
    /// of pipelined requests recurses, and none holds the poll. A request
    /// that needs a thread ends the pass; the rest keep their places.
    fn run_ready(&mut self) {
        for _ in 0..self.ready.len() {
            let Some(token) = self.ready.pop_front() else {
                break;
            };
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.queued = false;
            }
            self.try_dispatch(token);
            if self.job.is_some() {
                return;
            }
        }
    }

    /// Feed buffered body bytes into an `Ingesting` connection's
    /// pipeline. Early rejections (unknown dashboard, announced over-cap
    /// body) and mid-transfer framing errors answer and close; body
    /// completion makes the commit the pass's job, so the poll never runs
    /// the reassemble + append + index merge. The
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
                            // Quiesce read interest while the commit
                            // runs, exactly like a dispatched request.
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
                                    stream: Arc::clone(&conn.stream),
                                    buffered: !conn.buf.is_empty(),
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
            After::Finish(job) => self.job = Some(job),
        }
    }

    /// Install `response` on the connection and stream it out.
    fn start_response(&mut self, token: u64, response: Response, keep: Option<KeepAliveTerms>) {
        let out = Outgoing::new(response, keep, self.opts.chunk_budget);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.start_response(out);
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
                if self.conns.get(&token).is_none_or(|c| c.out.close_after) {
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
            WriteProgress::Blocked => self.await_writable(token),
            WriteProgress::Error => self.close(token),
        }
    }

    /// The socket is full: re-arm the connection for `EPOLLOUT`.
    fn await_writable(&mut self, token: u64) {
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

    /// Absorb the waker bytes, settle what they announce, and pump the
    /// streams (the same byte announces newly published frames).
    fn drain_completions(&mut self) {
        let mut sink = [0u8; 256];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        self.settle();
        self.pump_streams();
    }

    /// Settle every finished request: the connection takes back what its
    /// thread could not write (usually nothing) and returns to `Reading`,
    /// closes, or starts streaming. Each pass settles before it handles
    /// its events, so the request that wakes the leader on a connection
    /// its thread re-armed finds that connection `Reading`.
    fn settle(&mut self) {
        let batch = std::mem::take(&mut *self.completions.lock());
        for Completion {
            token,
            done,
            rearmed,
        } in batch
        {
            // The connection may have died (hangup) while dispatched.
            match done {
                Done::Wrote(out) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        if rearmed {
                            conn.interest = EVENT_READ;
                        }
                        conn.start_response(out);
                        self.drive_write(token);
                    }
                }
                Done::Broke => self.close(token),
                // `begin_stream` puts the SSE head on the wire; the
                // handler's in-process acknowledgement never goes out.
                Done::Subscribed(sub) if self.conns.contains_key(&token) => {
                    self.begin_stream(token, sub)
                }
                Done::Subscribed(sub) => {
                    sub.close();
                    self.hub.unsubscribe(&sub);
                    self.metrics.record_stream_unsubscribe();
                }
            }
        }
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
            Some(conn) => conn.write_some(),
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
            WriteProgress::Blocked => self.await_writable(token),
            WriteProgress::Error => self.close(token),
        }
    }

    /// Enforce idle and io deadlines — the nonblocking analog of socket
    /// timeouts.
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
                // a write timeout would.
                ConnState::Writing => {
                    if quiet > self.opts.io_timeout {
                        broken.push(token);
                    }
                }
                // Its thread owns the request; the queue deadline governs.
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
    use std::sync::atomic::AtomicUsize;
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
        let addr = listener.local_addr().unwrap();
        let (_wake_tx, wake_rx) = UnixStream::pair().unwrap();
        let mut r = Reactor::new(
            server.clone(),
            Arc::new(opts),
            listener,
            wake_rx,
            Arc::default(),
        )
        .unwrap();

        let client = TcpStream::connect(addr).unwrap();
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
            r.turn(&mut events).unwrap();
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

    /// The router's test server plus a dashboard `nap` whose run sleeps
    /// 300 ms, and the counts of naps begun and ended.
    fn napping_server() -> (Server, Arc<(AtomicUsize, AtomicUsize)>) {
        use shareinsights_engine::ext::FnTask;
        let server = crate::router::tests::served();
        let naps = Arc::new((AtomicUsize::new(0), AtomicUsize::new(0)));
        let napping = Arc::clone(&naps);
        server
            .platform()
            .tasks()
            .register_task(Arc::new(FnTask::new(
                "nap",
                |schema| Ok(schema.clone()),
                move |table| {
                    napping.0.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(300));
                    napping.1.fetch_add(1, Ordering::SeqCst);
                    Ok(table.clone())
                },
            )));
        let platform = server.platform();
        platform.upload_data("nap", "sales.csv", "region,brand,revenue\nn,b,1\n");
        let nap_flow = "D:\n  sales: [region, brand, revenue]\nD.sales:\n  source: 'sales.csv'\n  format: csv\nT:\n  nap:\n    type: nap\nF:\n  +D.out: D.sales | T.nap\n";
        platform.save_flow("nap", nap_flow).unwrap();
        (server, naps)
    }

    /// The poll passes only to a follower waiting in the lobby, and only
    /// once a socket stirs. Alone, the leader queues a miss and polls on,
    /// and the queued request waits for the next thread that comes free.
    /// With that thread waiting, a miss runs where it was parsed and, with
    /// nothing else arriving, the leader takes the poll back; a hit that
    /// arrives while a slow run holds the seat wakes the follower, which
    /// answers it meanwhile.
    #[test]
    fn leadership_passes_only_to_a_waiting_follower() {
        let (server, naps) = napping_server();
        let platform = server.platform();
        let metrics = platform.api_metrics().clone();
        let opts = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (pool, waker) = Pool::new(server.clone(), opts, listener).unwrap();
        let spawn = || {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.serve())
        };
        let wait_for = |what: &dyn Fn(&Seat) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !what(&pool.seat.lock()) {
                assert!(Instant::now() < deadline, "timed out waiting");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let ask = |method: &str, target: &str| {
            let mut client = TcpStream::connect(addr).unwrap();
            write!(
                client,
                "{method} {target} HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            .unwrap();
            client
        };
        let answer = |mut client: TcpStream| {
            let mut reply = String::new();
            client.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        };
        let counts = || {
            let r = metrics.reactor();
            (r.dispatched, r.queued)
        };
        let served_on = |n: usize| -> Vec<_> {
            (server.platform().tracer().recent(n).iter())
                .map(|t| t.root().unwrap().attr("served_on").cloned())
                .collect()
        };

        let mut threads = vec![spawn()];
        wait_for(&|seat| seat.reactor.is_none());
        let first = ask("GET", "/retail/ds/brand_sales?limit=1");
        wait_for(&|seat| seat.pending.len() == 1);
        let seat = pool.seat.lock();
        assert!(seat.reactor.is_none() && seat.idle == 0, "kept the poll");
        drop(seat);
        assert_eq!(counts(), (1, 1));

        threads.push(spawn());
        answer(first);
        wait_for(&|seat| seat.idle == 1);
        answer(ask("GET", "/retail/ds/brand_sales?limit=2"));
        assert_eq!(counts(), (2, 1));
        assert_eq!(served_on(2), [Some("handoff".into()), Some("queue".into())]);
        wait_for(&|seat| seat.reactor.is_none() && seat.idle == 1);

        let run = ask("POST", "/dashboards/nap/run");
        while naps.0.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seat = pool.seat.lock();
        assert!(seat.reactor.is_some() && seat.idle == 1, "no one stirred");
        drop(seat);
        answer(ask("GET", "/retail/ds/brand_sales?limit=2"));
        assert_eq!(
            naps.1.load(Ordering::SeqCst),
            0,
            "the hit waited for the nap"
        );
        answer(run);
        assert_eq!(counts(), (3, 1));

        pool.stop.store(true, Ordering::SeqCst);
        (&waker).write_all(&[1]).unwrap();
        for thread in threads {
            thread.join().unwrap();
        }
    }

    /// Connections left on the ready queue stir no socket, so a leader
    /// that leaves the seat with some still queued wakes a follower for
    /// them. Connection A pipelines a hit and a 300 ms run, B four hits;
    /// the test turns the poll by hand until the run is the pass's job
    /// with B still queued, then lets the pool place it: B's last hits
    /// are answered before the run ends.
    #[test]
    fn a_ready_queue_left_in_the_seat_wakes_a_follower() {
        let (server, naps) = napping_server();
        let hit = "GET /retail/ds/brand_sales?limit=1 HTTP/1.1\r\n\r\n";
        let want = server
            .handle(&Request::get("/retail/ds/brand_sales?limit=1"))
            .body;
        let opts = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (pool, waker) = Pool::new(server, opts, listener).unwrap();
        let mut reactor = pool.seat.lock().reactor.take().unwrap();
        let follower = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.serve())
        };
        let mut events = vec![EpollEvent::empty(); EVENT_BATCH];
        let (mut a, mut b) = (
            TcpStream::connect(addr).unwrap(),
            TcpStream::connect(addr).unwrap(),
        );
        while reactor.conns.len() < 2 {
            reactor.turn(&mut events).unwrap();
        }
        // Both sockets' bytes land before the next pass reads them.
        let run = "POST /dashboards/nap/run HTTP/1.1\r\nConnection: close\r\n\r\n";
        a.write_all(format!("{hit}{run}").as_bytes()).unwrap();
        let last = hit.replace("\r\n\r\n", "\r\nConnection: close\r\n\r\n");
        b.write_all(format!("{}{last}", hit.repeat(3)).as_bytes())
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        while reactor.job.is_none() {
            reactor.turn(&mut events).unwrap();
        }
        assert!(!reactor.ready.is_empty(), "B was not left queued");
        while pool.seat.lock().idle == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let leader = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.lead(reactor, &mut events))
        };
        let mut replies = String::new();
        b.read_to_string(&mut replies).unwrap();
        assert_eq!(naps.1.load(Ordering::SeqCst), 0, "B waited for the run");
        assert_eq!(replies.matches(want.as_str()).count(), 4, "{replies}");
        let mut out = String::new();
        a.read_to_string(&mut out).unwrap();
        assert_eq!(out.matches("HTTP/1.1 200").count(), 2, "{out}");

        pool.stop.store(true, Ordering::SeqCst);
        (&waker).write_all(&[1]).unwrap();
        leader.join().unwrap();
        follower.join().unwrap();
    }

    /// A thread that panics while it holds the reactor takes the reactor
    /// down with it; the pool stops, and every waiting follower exits
    /// instead of waiting on a poll nobody holds.
    #[test]
    fn a_panic_in_the_poll_stops_the_followers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = crate::router::tests::served();
        let (pool, _waker) = Pool::new(server, ServeOptions::default(), listener).unwrap();
        let reactor = pool.seat.lock().reactor.take().unwrap();
        let followers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.serve())
            })
            .collect();
        while pool.seat.lock().idle < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _unwinding = StopOnUnwind(&pool);
            drop(reactor);
            panic!("a bug in the poll");
        }));
        assert!(died.is_err());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !followers.iter().all(|t| t.is_finished()) {
            assert!(Instant::now() < deadline, "a follower still waits");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
