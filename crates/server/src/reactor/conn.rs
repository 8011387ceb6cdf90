//! The reactor's per-connection state machine.
//!
//! A connection moves `Reading → Dispatched → Writing → Reading …` until
//! it closes: readable bytes accumulate in a capped buffer until
//! [`crate::wire::try_parse`] produces a request, a page-cache hit is
//! answered by the leader (straight to `Writing`), any other request runs
//! on a thread of its own while the connection sits quiet (no read
//! interest), and the response streams out through an [`Outgoing`]: the
//! thread that ran the request writes it, and whatever the socket would
//! not take comes back to the leader, which re-arms `EPOLLOUT` instead of
//! blocking anything. A request buffered behind a finished response waits
//! `queued` on the ready queue and the socket is not read meanwhile:
//! kernel socket buffering is the pipelining backpressure. All methods
//! here are socket-local; the reactor in [`super`] owns the epoll
//! registration and the state transitions.

use super::epoll::EVENT_READ;
use crate::http::Response;
use crate::stream::Subscription;
use crate::wire::{KeepAliveTerms, ResponseStream};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Per-read-event byte cap: keeps one chatty connection from starving
/// the loop (level-triggered epoll re-reports whatever is left).
pub(super) const READ_BUDGET_PER_EVENT: usize = 256 * 1024;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Waiting for (more of) a request head or body.
    Reading,
    /// A complete request is running off the poll, on a thread that
    /// writes its answer straight to the socket.
    Dispatched,
    /// A response is streaming out.
    Writing,
    /// A long-lived SSE subscription: generation-delta frames flow out
    /// as they are published; the connection never returns to `Reading`.
    Streaming,
    /// A streamed request body is draining into an ingest pipeline
    /// (`Conn::ingest`): each readable event feeds the de-framer, and
    /// body completion dispatches the commit like a request.
    Ingesting,
}

/// What one readable-event drain produced.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadProgress {
    /// Appended `n > 0` bytes to the buffer.
    Read(usize),
    /// Nothing more to read right now.
    WouldBlock,
    /// Peer closed its sending half (EOF).
    Eof,
    /// Unrecoverable socket error.
    Error,
}

/// What one writable-event drain produced.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WriteProgress {
    /// The whole response went out.
    Finished,
    /// The socket buffer filled; re-arm for `EPOLLOUT`.
    Blocked,
    /// Unrecoverable socket error.
    Error,
}

/// A response on its way out: the frame stream and its unflushed bytes.
/// The thread that ran the request writes it first; whatever the socket
/// would not take travels back to the leader with the connection's
/// bookkeeping. Also the out-buffer of a streaming connection (no frame
/// stream, raw SSE bytes queued).
#[derive(Default)]
pub(crate) struct Outgoing {
    response: Option<ResponseStream>,
    out: Vec<u8>,
    pos: usize,
    /// Close instead of returning to `Reading` once written.
    pub(crate) close_after: bool,
}

impl Outgoing {
    /// Frame `response` (`keep` None ⇒ `Connection: close`).
    pub(crate) fn new(
        response: Response,
        keep: Option<KeepAliveTerms>,
        chunk_budget: Option<usize>,
    ) -> Outgoing {
        Outgoing {
            close_after: keep.is_none(),
            response: Some(ResponseStream::new(response, keep, chunk_budget)),
            out: Vec::new(),
            pos: 0,
        }
    }

    /// Push bytes until done, blocked, or broken, stamping `activity` on
    /// progress. The out-buffer holds at most one [`ResponseStream`]
    /// refill — the chunk budget — at a time, so per-connection write
    /// memory stays bounded. `Finished` on a streaming connection means
    /// *drained*: it stays open until its subscription ends.
    pub(crate) fn write_to(
        &mut self,
        mut stream: &TcpStream,
        activity: &mut Instant,
    ) -> WriteProgress {
        loop {
            if self.pos == self.out.len() {
                let Some(frames) = self.response.as_mut() else {
                    return WriteProgress::Finished;
                };
                self.pos = 0;
                if !frames.next_wire(&mut self.out) {
                    self.response = None;
                    return WriteProgress::Finished;
                }
            }
            match stream.write(&self.out[self.pos..]) {
                Ok(0) => return WriteProgress::Error,
                Ok(n) => {
                    self.pos += n;
                    *activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return WriteProgress::Blocked;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return WriteProgress::Error,
            }
        }
    }
}

/// One multiplexed connection.
pub(crate) struct Conn {
    /// Shared with the thread running the connection's request, which
    /// writes the answer itself; the `Dispatched` state keeps the leader
    /// off the socket meanwhile.
    pub(crate) stream: Arc<TcpStream>,
    /// Unparsed request bytes (including pipelined successors).
    pub(crate) buf: Vec<u8>,
    pub(crate) state: ConnState,
    /// Requests served (counting the one in flight once dispatched).
    pub(crate) served: u64,
    /// Last socket progress — the timeout sweeps measure from here.
    pub(crate) last_activity: Instant,
    /// True once the in-flight request's head parsed (stall ⇒ 408, not a
    /// silent close).
    pub(crate) head_complete: bool,
    /// Epoll interest mask currently registered for this connection.
    pub(crate) interest: u32,
    /// The hub subscription feeding this connection while `Streaming`.
    pub(crate) sub: Option<Arc<Subscription>>,
    /// The terminal chunk is queued; close once the out-buffer drains.
    pub(crate) ending: bool,
    /// The streamed-body pipeline this connection feeds while `Ingesting`.
    pub(crate) ingest: Option<crate::ingest::StreamedIngest>,
    /// Keep-alive terms for the eventual ingest response (decided when
    /// the head parsed, like a dispatched request's `Job::keep`).
    pub(crate) pending_keep: Option<KeepAliveTerms>,
    /// On the ready queue: a request is buffered behind the last
    /// response. The socket is not read until the queue serves it, so the
    /// buffer holds at most one read budget beyond what was parsed.
    pub(crate) queued: bool,
    pub(crate) out: Outgoing,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream: Arc::new(stream),
            buf: Vec::with_capacity(1024),
            state: ConnState::Reading,
            served: 0,
            last_activity: Instant::now(),
            head_complete: false,
            interest: EVENT_READ,
            sub: None,
            ending: false,
            ingest: None,
            pending_keep: None,
            queued: false,
            out: Outgoing::default(),
        }
    }

    /// Drain the socket into the buffer, up to the per-event budget.
    pub(crate) fn read_some(&mut self) -> ReadProgress {
        let mut total = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&*self.stream).read(&mut chunk) {
                Ok(0) => {
                    return if total > 0 {
                        self.last_activity = Instant::now();
                        ReadProgress::Read(total)
                    } else {
                        ReadProgress::Eof
                    }
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if total >= READ_BUDGET_PER_EVENT {
                        self.last_activity = Instant::now();
                        return ReadProgress::Read(total);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return if total > 0 {
                        self.last_activity = Instant::now();
                        ReadProgress::Read(total)
                    } else {
                        ReadProgress::WouldBlock
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadProgress::Error,
            }
        }
    }

    /// Install a response to stream out (or what is left of one) and
    /// enter `Writing`.
    pub(crate) fn start_response(&mut self, out: Outgoing) {
        self.out = out;
        self.state = ConnState::Writing;
        self.last_activity = Instant::now();
    }

    /// Push pending response or stream bytes (see [`Outgoing::write_to`]).
    pub(crate) fn write_some(&mut self) -> WriteProgress {
        self.out.write_to(&self.stream, &mut self.last_activity)
    }

    /// Switch into `Streaming` with `head` (the SSE response head) queued
    /// as the first bytes out. Any pending batch response is abandoned.
    pub(crate) fn start_streaming(&mut self, sub: Arc<Subscription>, head: &[u8]) {
        self.out = Outgoing {
            out: head.to_vec(),
            close_after: true,
            ..Outgoing::default()
        };
        self.sub = Some(sub);
        self.ending = false;
        self.state = ConnState::Streaming;
        self.last_activity = Instant::now();
    }

    /// Queue raw, pre-framed bytes (one SSE frame or the terminal chunk)
    /// behind whatever is still unflushed.
    pub(crate) fn enqueue_stream_bytes(&mut self, bytes: &[u8]) {
        let out = &mut self.out;
        if out.pos > 0 {
            out.out.drain(..out.pos);
            out.pos = 0;
        }
        out.out.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet on the wire.
    pub(crate) fn out_backlog(&self) -> usize {
        self.out.out.len() - self.out.pos
    }
}
