//! The reactor's per-connection state machine.
//!
//! A connection moves `Reading → Dispatched → Writing → Reading …` until
//! it closes: readable bytes accumulate in a capped buffer until
//! [`crate::wire::try_parse`] produces a request, a page-cache hit is
//! answered on the loop (straight to `Writing`), any other request
//! executes on the worker pool while the connection sits quiet (no read
//! interest), and the response streams out through a [`ResponseStream`]
//! whose partial writes re-arm `EPOLLOUT` instead of blocking a thread.
//! A request buffered behind a finished response waits `queued` on the
//! loop's ready queue and the socket is not read meanwhile: kernel socket
//! buffering is the pipelining backpressure. All methods here are
//! socket-local; the event loop in [`super`] owns the epoll registration
//! and the state transitions.

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
    /// A complete request is executing on the worker pool.
    Dispatched,
    /// A response is streaming out.
    Writing,
    /// A long-lived SSE subscription: generation-delta frames flow out
    /// as they are published; the connection never returns to `Reading`.
    Streaming,
    /// A streamed request body is draining into an ingest pipeline
    /// (`Conn::ingest`): each readable event feeds the de-framer, and
    /// body completion dispatches the commit to the worker pool.
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

/// One multiplexed connection.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
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
    /// Close instead of returning to `Reading` after the current write.
    pub(crate) close_after_write: bool,
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
    /// On the loop's ready queue: a request is buffered behind the last
    /// response. The socket is not read until the queue serves it, so the
    /// buffer holds at most one read budget beyond what was parsed.
    pub(crate) queued: bool,
    response: Option<ResponseStream>,
    out: Vec<u8>,
    out_pos: usize,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(1024),
            state: ConnState::Reading,
            served: 0,
            last_activity: Instant::now(),
            head_complete: false,
            close_after_write: false,
            interest: EVENT_READ,
            sub: None,
            ending: false,
            ingest: None,
            pending_keep: None,
            queued: false,
            response: None,
            out: Vec::new(),
            out_pos: 0,
        }
    }

    /// Drain the socket into the buffer, up to the per-event budget.
    pub(crate) fn read_some(&mut self) -> ReadProgress {
        let mut total = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
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

    /// Install a response to stream out and enter `Writing`.
    pub(crate) fn start_response(
        &mut self,
        response: Response,
        keep: Option<KeepAliveTerms>,
        chunk_budget: Option<usize>,
    ) {
        self.close_after_write = keep.is_none();
        self.response = Some(ResponseStream::new(response, keep, chunk_budget));
        self.out.clear();
        self.out_pos = 0;
        self.state = ConnState::Writing;
        self.last_activity = Instant::now();
    }

    /// Push response bytes until done, blocked, or broken. The out-buffer
    /// holds at most one [`ResponseStream`] refill — the chunk budget —
    /// at a time, so per-connection write memory stays bounded.
    pub(crate) fn write_some(&mut self) -> WriteProgress {
        let Some(stream) = self.response.as_mut() else {
            return WriteProgress::Finished;
        };
        loop {
            if self.out_pos == self.out.len() {
                if !stream.next_wire(&mut self.out) {
                    self.response = None;
                    return WriteProgress::Finished;
                }
                self.out_pos = 0;
            }
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return WriteProgress::Error,
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return WriteProgress::Blocked;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return WriteProgress::Error,
            }
        }
    }

    /// Switch into `Streaming` with `head` (the SSE response head) queued
    /// as the first bytes out. Any pending batch response is abandoned.
    pub(crate) fn start_streaming(&mut self, sub: Arc<Subscription>, head: &[u8]) {
        self.response = None;
        self.out.clear();
        self.out_pos = 0;
        self.out.extend_from_slice(head);
        self.sub = Some(sub);
        self.ending = false;
        self.close_after_write = true;
        self.state = ConnState::Streaming;
        self.last_activity = Instant::now();
    }

    /// Queue raw, pre-framed bytes (one SSE frame or the terminal chunk)
    /// behind whatever is still unflushed.
    pub(crate) fn enqueue_stream_bytes(&mut self, bytes: &[u8]) {
        if self.out_pos > 0 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        self.out.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet on the wire.
    pub(crate) fn out_backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Flush queued stream bytes. `Finished` here means *drained*, not
    /// that the connection is done — streaming connections stay open
    /// until the subscription ends or the peer goes away.
    pub(crate) fn write_stream(&mut self) -> WriteProgress {
        loop {
            if self.out_pos == self.out.len() {
                return WriteProgress::Finished;
            }
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return WriteProgress::Error,
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
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
