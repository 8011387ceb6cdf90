//! The HTTP/1.1 wire layer: request parsing and response framing.
//!
//! The pieces here are deliberately free of any socket I/O, so the
//! reactor and the blocking test clients drive the same
//! bytes-in/bytes-out logic:
//!
//! * [`try_parse`] — an incremental request parser over a growable byte
//!   buffer. Callers append whatever the socket produced and re-invoke;
//!   the parser answers *need more bytes* (saying whether the head has
//!   already parsed, which decides 408-vs-silent-close timeout
//!   semantics), *complete request* (with the byte count to drain, so
//!   pipelined successors stay in the buffer), or *irrecoverable* with
//!   the status to answer before closing (400, 413 when the announced
//!   body outgrows [`WireLimits::max_body_bytes`], or 431 when the head
//!   outgrows [`WireLimits::max_head_bytes`] — the cap that stops a
//!   slow-drip client growing a per-connection buffer without bound).
//! * [`try_parse_head`] + [`BodyReader`] — the streaming-ingest variant:
//!   the head parses alone (reporting the body framing), then the body
//!   is drained incrementally in bounded windows instead of being
//!   buffered whole, so a multi-GB upload never holds more than a
//!   segment's worth of bytes in the connection buffer. Both
//!   content-length and chunked request bodies are supported, capped by
//!   [`WireLimits::max_stream_body_bytes`] (over-cap aborts mid-transfer
//!   with a true 413 and a connection close).
//! * [`ResponseStream`] — turns one [`Response`] into wire bytes
//!   incrementally. Small bodies are framed with `Content-Length` in a
//!   single buffer; bodies larger than the configured chunk budget are
//!   sent with `Transfer-Encoding: chunked`, at most one budget-sized
//!   chunk framed at a time, so peak per-response buffering beyond the
//!   body itself is bounded by the budget regardless of body size. The
//!   reactor refills between `EPOLLOUT` readiness; the blocking path
//!   refills between `write_all` calls.

use crate::http::{Method, Request, Response, Status};
use std::time::Duration;

/// Byte caps applied while parsing one request.
#[derive(Debug, Clone, Copy)]
pub struct WireLimits {
    /// Largest accepted request head (request line + headers). Exceeding
    /// it is answered `431 Request Header Fields Too Large` and closed.
    pub max_head_bytes: usize,
    /// Largest accepted *buffered* request body. Exceeding it is
    /// answered `413 Payload Too Large` and closed.
    pub max_body_bytes: usize,
    /// Largest accepted *streamed* request body (ingest uploads drained
    /// through [`BodyReader`]). Much larger than `max_body_bytes` because
    /// streamed bodies never buffer whole; the cap still exists so a
    /// hostile client cannot stream forever — exceeding it aborts the
    /// transfer with `413` and closes the connection.
    pub max_stream_body_bytes: usize,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            max_stream_body_bytes: 4 * 1024 * 1024 * 1024,
        }
    }
}

/// A fully parsed request plus its connection-level framing facts.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The request, ready for the router.
    pub request: Request,
    /// Whether the client permits keep-alive.
    pub keep_alive: bool,
    /// Bytes of the buffer this request consumed (head + body); the
    /// caller drains exactly this many, leaving pipelined successors.
    pub consumed: usize,
}

/// What [`try_parse`] made of the buffer so far.
#[derive(Debug)]
pub enum Parsed {
    /// Not enough bytes yet. `head_complete` is true once the blank line
    /// ended the head (a subsequent stall is mid-*body*: answer 408; a
    /// mid-head stall closes silently).
    Incomplete {
        /// True when the head parsed and only body bytes are pending.
        head_complete: bool,
    },
    /// One complete request.
    Complete(Box<ParsedRequest>),
    /// Unrecoverable: answer `status` with `message` and close.
    Error {
        /// Status to answer before closing (400 or 431).
        status: Status,
        /// Human-readable reason, sent as the error body.
        message: String,
    },
}

fn parse_error(message: impl Into<String>) -> Parsed {
    Parsed::Error {
        status: Status::BadRequest,
        message: message.into(),
    }
}

/// Locate the `\r\n\r\n` terminating a request or response head.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// How the request body is framed on the wire, per the parsed head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// No body (no `Content-Length`, no `Transfer-Encoding`).
    None,
    /// `Content-Length: n` — exactly `n` payload bytes follow the head.
    ContentLength(usize),
    /// `Transfer-Encoding: chunked` — hex-sized chunks until a 0-chunk.
    Chunked,
}

/// A parsed request *head*: everything but the body, plus how the body
/// is framed. The streaming-ingest path parses this first, then drains
/// the body through a [`BodyReader`] instead of buffering it whole.
#[derive(Debug)]
pub struct ParsedHead {
    /// The request with an empty body, ready for route matching.
    pub request: Request,
    /// Whether the client permits keep-alive.
    pub keep_alive: bool,
    /// Bytes of the buffer the head consumed (including `\r\n\r\n`);
    /// body bytes start here.
    pub consumed: usize,
    /// How the body that follows is framed.
    pub framing: BodyFraming,
}

/// What [`try_parse_head`] made of the buffer so far.
#[derive(Debug)]
pub enum HeadParsed {
    /// The terminating blank line has not arrived yet.
    Incomplete,
    /// One complete head.
    Head(Box<ParsedHead>),
    /// Unrecoverable: answer `status` with `message` and close.
    Error {
        /// Status to answer before closing (400 or 431).
        status: Status,
        /// Human-readable reason, sent as the error body.
        message: String,
    },
}

/// Parse one request *head* from `buf` without consuming it — the first
/// half of [`try_parse`], exposed so streaming routes can route-match
/// and start draining the body before it is complete.
pub fn try_parse_head(buf: &[u8], limits: &WireLimits) -> HeadParsed {
    let head_error = |status: Status, message: String| HeadParsed::Error { status, message };
    let bad = |message: String| head_error(Status::BadRequest, message);
    let head_end = match find_head_end(buf) {
        Some(pos) => pos,
        None => {
            // The cap must trip while the head is still incomplete —
            // that is exactly the slow-drip-headers attack shape.
            if buf.len() > limits.max_head_bytes {
                return head_error(
                    Status::RequestHeaderFieldsTooLarge,
                    format!("request head exceeds {} bytes", limits.max_head_bytes),
                );
            }
            return HeadParsed::Incomplete;
        }
    };
    if head_end > limits.max_head_bytes {
        return head_error(
            Status::RequestHeaderFieldsTooLarge,
            format!("request head exceeds {} bytes", limits.max_head_bytes),
        );
    }
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = match parts.next().and_then(Method::parse) {
        Some(m) => m,
        None => return bad(format!("unsupported method in {request_line:?}")),
    };
    let target = match parts.next().filter(|t| t.starts_with('/')) {
        Some(t) => t.to_string(),
        None => return bad(format!("bad request target in {request_line:?}")),
    };
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return bad(format!("unsupported protocol {version:?}"));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut framing = BodyFraming::None;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            headers.push((name.to_string(), value.trim().to_string()));
            if name.eq_ignore_ascii_case("content-length") {
                framing = match value.trim().parse() {
                    Ok(0) => BodyFraming::None,
                    Ok(n) => BodyFraming::ContentLength(n),
                    Err(_) => return bad(format!("bad content-length {:?}", value.trim())),
                };
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                if value.trim().eq_ignore_ascii_case("chunked") {
                    framing = BodyFraming::Chunked;
                } else {
                    return bad(format!("unsupported transfer-encoding {:?}", value.trim()));
                }
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim().to_ascii_lowercase();
                if value.split(',').any(|t| t.trim() == "close") {
                    keep_alive = false;
                } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    let mut request = Request::new(method, &target);
    for (name, value) in headers {
        request = request.with_header(&name, value);
    }
    HeadParsed::Head(Box::new(ParsedHead {
        request,
        keep_alive,
        consumed: head_end + 4,
        framing,
    }))
}

/// Attempt to parse one request from `buf` without consuming it. Pure:
/// no I/O, no mutation — callers drain [`ParsedRequest::consumed`] bytes
/// themselves on success.
pub fn try_parse(buf: &[u8], limits: &WireLimits) -> Parsed {
    let head = match try_parse_head(buf, limits) {
        HeadParsed::Incomplete => {
            return Parsed::Incomplete {
                head_complete: false,
            }
        }
        HeadParsed::Error { status, message } => return Parsed::Error { status, message },
        HeadParsed::Head(h) => h,
    };
    let content_length = match head.framing {
        BodyFraming::None => 0,
        BodyFraming::ContentLength(n) => n,
        // Chunked request bodies only make sense on routes that drain
        // them incrementally; buffering callers reject them up front.
        BodyFraming::Chunked => {
            return parse_error("chunked request bodies are only accepted on streaming routes")
        }
    };
    if content_length > limits.max_body_bytes {
        return Parsed::Error {
            status: Status::PayloadTooLarge,
            message: format!(
                "body of {content_length} bytes exceeds the {}-byte limit",
                limits.max_body_bytes
            ),
        };
    }
    let total = head.consumed + content_length;
    if buf.len() < total {
        return Parsed::Incomplete {
            head_complete: true,
        };
    }
    let body = match std::str::from_utf8(&buf[head.consumed..total]) {
        Ok(b) => b.to_string(),
        Err(_) => return parse_error("body is not UTF-8"),
    };
    let ParsedHead {
        mut request,
        keep_alive,
        ..
    } = *head;
    request.body = body;
    Parsed::Complete(Box::new(ParsedRequest {
        request,
        keep_alive,
        consumed: total,
    }))
}

// ---------------------------------------------------------------------------
// Incremental body draining (streaming ingest)
// ---------------------------------------------------------------------------

/// Progress of one [`BodyReader::feed`] call.
#[derive(Debug, Default)]
pub struct BodyProgress {
    /// Bytes of the caller's buffer consumed — drain exactly this many.
    /// Bytes past a completed body are a pipelined successor and stay.
    pub consumed: usize,
    /// Payload bytes extracted (chunk framing removed).
    pub data: Vec<u8>,
    /// True once the body is complete.
    pub done: bool,
}

/// Chunked-transfer de-framing position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkPhase {
    /// Expecting a hex size line terminated by `\r\n`.
    Size,
    /// Inside chunk data; `.0` payload bytes remain.
    Data(usize),
    /// Expecting the `\r\n` that closes a data chunk.
    DataEnd,
    /// Saw the 0-chunk; expecting the final `\r\n`.
    Trailer,
}

/// Drains one request body incrementally, handing payload bytes to the
/// caller as they arrive instead of buffering the body whole. Pure like
/// [`try_parse`]: the caller appends socket bytes to its own buffer,
/// calls [`BodyReader::feed`], and drains [`BodyProgress::consumed`].
/// Supports both `Content-Length` and chunked framing; enforces
/// [`WireLimits::max_stream_body_bytes`] mid-transfer.
#[derive(Debug)]
pub struct BodyReader {
    framing: BodyFraming,
    /// Payload bytes still expected (content-length mode).
    remaining: usize,
    phase: ChunkPhase,
    /// Total payload bytes seen so far.
    total: usize,
    cap: usize,
    done: bool,
}

impl BodyReader {
    /// A reader for the body the parsed head announced.
    pub fn new(framing: BodyFraming, limits: &WireLimits) -> BodyReader {
        BodyReader {
            framing,
            remaining: match framing {
                BodyFraming::ContentLength(n) => n,
                _ => 0,
            },
            phase: ChunkPhase::Size,
            total: 0,
            cap: limits.max_stream_body_bytes,
            done: matches!(framing, BodyFraming::None),
        }
    }

    /// True when the head *announced* more bytes than the streaming cap
    /// allows — callers answer 413 before reading a single body byte.
    pub fn announced_over_cap(&self) -> bool {
        matches!(self.framing, BodyFraming::ContentLength(n) if n > self.cap)
    }

    /// True once the whole body has been drained.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Total payload bytes drained so far.
    pub fn bytes_seen(&self) -> usize {
        self.total
    }

    /// Consume as much of `buf` as the framing allows, extracting payload
    /// bytes. An over-cap body (or malformed chunk framing) is an error:
    /// answer `status` and close — mid-transfer there is no way to
    /// resynchronise with the peer.
    pub fn feed(&mut self, buf: &[u8]) -> Result<BodyProgress, (Status, String)> {
        let mut progress = BodyProgress::default();
        if self.done {
            progress.done = true;
            return Ok(progress);
        }
        match self.framing {
            BodyFraming::None => {
                self.done = true;
                progress.done = true;
                Ok(progress)
            }
            BodyFraming::ContentLength(_) => {
                let take = self.remaining.min(buf.len());
                progress.data.extend_from_slice(&buf[..take]);
                progress.consumed = take;
                self.remaining -= take;
                self.total += take;
                if self.total > self.cap {
                    return Err(over_cap(self.cap));
                }
                if self.remaining == 0 {
                    self.done = true;
                    progress.done = true;
                }
                Ok(progress)
            }
            BodyFraming::Chunked => {
                let mut pos = 0usize;
                loop {
                    match self.phase {
                        ChunkPhase::Size => {
                            let Some(line_end) = buf[pos..].windows(2).position(|w| w == b"\r\n")
                            else {
                                // A size line is at most 16 hex digits
                                // plus extensions; a "size line" growing
                                // past 64 bytes is garbage, not patience.
                                if buf.len() - pos > 64 {
                                    return Err((
                                        Status::BadRequest,
                                        "chunk size line too long".to_string(),
                                    ));
                                }
                                break;
                            };
                            let line_end = line_end + pos;
                            let token = std::str::from_utf8(&buf[pos..line_end])
                                .ok()
                                .and_then(|s| s.split(';').next())
                                .map(str::trim)
                                .unwrap_or("");
                            let size = usize::from_str_radix(token, 16).map_err(|_| {
                                (Status::BadRequest, format!("bad chunk size {token:?}"))
                            })?;
                            pos = line_end + 2;
                            self.phase = if size == 0 {
                                ChunkPhase::Trailer
                            } else {
                                ChunkPhase::Data(size)
                            };
                        }
                        ChunkPhase::Data(left) => {
                            let take = left.min(buf.len() - pos);
                            progress.data.extend_from_slice(&buf[pos..pos + take]);
                            pos += take;
                            self.total += take;
                            if self.total > self.cap {
                                return Err(over_cap(self.cap));
                            }
                            if take == left {
                                self.phase = ChunkPhase::DataEnd;
                            } else {
                                self.phase = ChunkPhase::Data(left - take);
                                break;
                            }
                        }
                        ChunkPhase::DataEnd => {
                            if buf.len() - pos < 2 {
                                break;
                            }
                            if &buf[pos..pos + 2] != b"\r\n" {
                                return Err((
                                    Status::BadRequest,
                                    "chunk data missing trailing CRLF".to_string(),
                                ));
                            }
                            pos += 2;
                            self.phase = ChunkPhase::Size;
                        }
                        ChunkPhase::Trailer => {
                            if buf.len() - pos < 2 {
                                break;
                            }
                            if &buf[pos..pos + 2] != b"\r\n" {
                                return Err((
                                    Status::BadRequest,
                                    "unsupported chunked trailer".to_string(),
                                ));
                            }
                            pos += 2;
                            self.done = true;
                            break;
                        }
                    }
                }
                progress.consumed = pos;
                progress.done = self.done;
                Ok(progress)
            }
        }
    }
}

fn over_cap(cap: usize) -> (Status, String) {
    (
        Status::PayloadTooLarge,
        format!("streamed body exceeds the {cap}-byte limit"),
    )
}

// ---------------------------------------------------------------------------
// Response streaming
// ---------------------------------------------------------------------------

/// Keep-alive terms advertised on a response that leaves the connection
/// open.
#[derive(Debug, Clone, Copy)]
pub struct KeepAliveTerms {
    /// Idle window the server will tolerate before closing.
    pub timeout: Duration,
    /// Requests the client may still send on this connection.
    pub max: u64,
}

/// Framing-related overhead on top of one chunk's payload: hex length
/// (≤16 digits for any usize) plus two `\r\n` pairs.
const CHUNK_FRAME_OVERHEAD: usize = 16 + 4;

/// Turns one [`Response`] into wire bytes a bounded buffer at a time.
///
/// `chunk_budget` decides the framing: `Some(budget)` with a body larger
/// than `budget` selects `Transfer-Encoding: chunked` and emits one
/// budget-sized chunk per [`ResponseStream::next_wire`] call; anything
/// else selects classic `Content-Length` framing where the head and the
/// whole body are emitted in one buffer (the single-write fast path that
/// sidesteps Nagle/delayed-ACK stalls on small responses).
#[derive(Debug)]
pub struct ResponseStream {
    body: String,
    /// Body bytes already framed into an out-buffer.
    cursor: usize,
    /// Head bytes, emitted with the first `next_wire` call.
    head: Option<String>,
    chunked: bool,
    budget: usize,
    /// True once the terminating 0-chunk (or the full body) was emitted.
    done: bool,
}

impl ResponseStream {
    /// Plan the wire framing for `resp`. `keep` carries keep-alive terms
    /// (absent announces `Connection: close`); `chunk_budget` enables
    /// chunked framing for bodies that outgrow it.
    pub fn new(resp: Response, keep: Option<KeepAliveTerms>, chunk_budget: Option<usize>) -> Self {
        let chunked = chunk_budget.is_some_and(|b| resp.body.len() > b);
        let connection = match &keep {
            Some(k) => format!(
                "Connection: keep-alive\r\nKeep-Alive: timeout={}, max={}",
                k.timeout.as_secs(),
                k.max
            ),
            None => "Connection: close".to_string(),
        };
        let framing = if chunked {
            "Transfer-Encoding: chunked".to_string()
        } else {
            format!("Content-Length: {}", resp.body.len())
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{framing}\r\n{connection}\r\n\r\n",
            resp.status.code(),
            resp.status.reason(),
            resp.content_type,
        );
        ResponseStream {
            body: resp.body,
            cursor: 0,
            head: Some(head),
            chunked,
            budget: chunk_budget.unwrap_or(usize::MAX),
            done: false,
        }
    }

    /// True once every wire byte has been produced.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// The largest buffer one `next_wire` call may produce: head bytes
    /// aside, a chunk's payload plus its framing.
    pub fn max_wire_bytes(&self) -> usize {
        if self.chunked {
            self.budget + CHUNK_FRAME_OVERHEAD
        } else {
            self.body.len()
        }
    }

    /// Produce the next batch of wire bytes into `out` (cleared first).
    /// Returns false once the response is fully framed and `out` stays
    /// empty. In chunked mode each call emits at most one budget-sized
    /// chunk, so `out` never outgrows the budget plus framing overhead.
    pub fn next_wire(&mut self, out: &mut Vec<u8>) -> bool {
        out.clear();
        if self.done {
            return false;
        }
        if let Some(head) = self.head.take() {
            out.extend_from_slice(head.as_bytes());
            if !self.chunked {
                // Content-Length framing: one buffer, one write.
                out.extend_from_slice(self.body.as_bytes());
                self.done = true;
                return true;
            }
            return true;
        }
        // Chunked body: one chunk per call.
        let remaining = self.body.len() - self.cursor;
        if remaining == 0 {
            out.extend_from_slice(b"0\r\n\r\n");
            self.done = true;
            return true;
        }
        let take = remaining.min(self.budget);
        out.extend_from_slice(format!("{take:x}\r\n").as_bytes());
        out.extend_from_slice(&self.body.as_bytes()[self.cursor..self.cursor + take]);
        out.extend_from_slice(b"\r\n");
        self.cursor += take;
        true
    }
}

/// De-chunk a `Transfer-Encoding: chunked` payload already in memory —
/// the client-side inverse of [`ResponseStream`]'s chunked framing. Used
/// by the test/bench HTTP client. Returns the decoded body and the total
/// encoded length consumed, or `None` while the payload is incomplete.
/// Malformed framing returns `Some(Err(..))`. The de-framing is
/// [`BodyReader`]'s, with no cap on the body.
pub fn dechunk(buf: &[u8]) -> Option<Result<(String, usize), String>> {
    let limits = WireLimits {
        max_stream_body_bytes: usize::MAX,
        ..WireLimits::default()
    };
    let mut reader = BodyReader::new(BodyFraming::Chunked, &limits);
    match reader.feed(buf) {
        Err((_, message)) => Some(Err(message)),
        Ok(progress) if !progress.done => None,
        Ok(progress) => Some(match String::from_utf8(progress.data) {
            Ok(body) => Ok((body, progress.consumed)),
            Err(_) => Err("de-chunked body is not UTF-8".to_string()),
        }),
    }
}

// ---------------------------------------------------------------------------
// SSE framing (live-flow subscriptions)
// ---------------------------------------------------------------------------

/// Response head for a `GET …/subscribe` stream: an SSE body carried over
/// chunked transfer encoding on a connection that never goes back to
/// request/response mode.
pub fn sse_head() -> &'static [u8] {
    b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
}

/// Frame one generation-delta event as exactly one HTTP chunk wrapping
/// one SSE event. Frames are built once (in the router, at publish time)
/// and delivered verbatim to every subscriber, so every subscriber of a
/// tick reads the same bytes by construction.
pub fn sse_frame(event: &str, generation: u64, data: &str) -> Vec<u8> {
    let payload = format!("event: {event}\nid: {generation}\ndata: {data}\n\n");
    let mut frame = Vec::with_capacity(payload.len() + CHUNK_FRAME_OVERHEAD);
    frame.extend_from_slice(format!("{:x}\r\n", payload.len()).as_bytes());
    frame.extend_from_slice(payload.as_bytes());
    frame.extend_from_slice(b"\r\n");
    frame
}

/// The terminal 0-chunk ending an SSE stream gracefully.
pub fn sse_done() -> &'static [u8] {
    b"0\r\n\r\n"
}

/// One parsed SSE event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SseEvent {
    /// The `event:` field (dataset name for generation deltas).
    pub event: String,
    /// The `id:` field — the endpoint-data generation of the frame.
    pub id: u64,
    /// The `data:` field (JSON table snapshot). Multi-line `data:`
    /// fields join with `\n` per the SSE spec.
    pub data: String,
    /// The exact payload bytes of this event including the blank-line
    /// terminator — the unit the streaming conformance test compares.
    pub raw: Vec<u8>,
}

/// Incremental SSE-over-chunked parser: the client-side inverse of
/// [`sse_frame`]. Feed it whatever the socket produced *after* the
/// response head; it de-chunks and splits events, tolerating frames
/// that straddle feed (or chunk) boundaries arbitrarily.
#[derive(Debug, Default)]
pub struct SseParser {
    /// Wire bytes not yet consumed by chunk framing.
    wire: Vec<u8>,
    /// De-chunked payload bytes not yet closed by a blank line.
    payload: Vec<u8>,
    /// True once the terminal 0-chunk arrived.
    done: bool,
}

impl SseParser {
    /// Fresh parser positioned just past the response head.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once the server ended the stream with the terminal chunk.
    pub fn terminated(&self) -> bool {
        self.done
    }

    /// True while bytes of an unfinished chunk or event are pending —
    /// a disconnect now means the subscriber lost a frame mid-flight.
    pub fn mid_frame(&self) -> bool {
        !self.done && (!self.wire.is_empty() || !self.payload.is_empty())
    }

    /// Append socket bytes and return every event completed by them.
    /// Malformed chunk framing is a hard error.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<SseEvent>, String> {
        self.wire.extend_from_slice(bytes);
        // De-chunk as far as the buffered wire bytes allow.
        let mut pos = 0usize;
        while let Some(line_end) = self.wire[pos..].windows(2).position(|w| w == b"\r\n") {
            let line_end = line_end + pos;
            let size_line = std::str::from_utf8(&self.wire[pos..line_end])
                .map_err(|_| "chunk size line is not UTF-8".to_string())?;
            let size_token = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_token, 16)
                .map_err(|_| format!("bad chunk size {size_token:?}"))?;
            let data_start = line_end + 2;
            if self.wire.len() < data_start + size + 2 {
                break;
            }
            if size == 0 {
                if &self.wire[data_start..data_start + 2] != b"\r\n" {
                    return Err("unsupported chunked trailer".to_string());
                }
                self.done = true;
                pos = data_start + 2;
                break;
            }
            self.payload
                .extend_from_slice(&self.wire[data_start..data_start + size]);
            if &self.wire[data_start + size..data_start + size + 2] != b"\r\n" {
                return Err("chunk data missing trailing CRLF".to_string());
            }
            pos = data_start + size + 2;
        }
        self.wire.drain(..pos);
        // Split completed events off the payload.
        let mut events = Vec::new();
        while let Some(sep) = self.payload.windows(2).position(|w| w == b"\n\n") {
            let raw: Vec<u8> = self.payload.drain(..sep + 2).collect();
            events.push(parse_sse_event(&raw)?);
        }
        Ok(events)
    }
}

fn parse_sse_event(raw: &[u8]) -> Result<SseEvent, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "SSE event is not UTF-8".to_string())?;
    let mut event = String::new();
    let mut id = 0u64;
    let mut data: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("event:") {
            event = v.trim_start().to_string();
        } else if let Some(v) = line.strip_prefix("id:") {
            id = v
                .trim()
                .parse()
                .map_err(|_| format!("bad SSE id {:?}", v.trim()))?;
        } else if let Some(v) = line.strip_prefix("data:") {
            data.push(v.strip_prefix(' ').unwrap_or(v));
        }
    }
    Ok(SseEvent {
        event,
        id,
        data: data.join("\n"),
        raw: raw.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> WireLimits {
        WireLimits::default()
    }

    #[test]
    fn incremental_parse_reports_head_progress() {
        let buf = b"GET /x HTTP/1.1\r\nHos";
        match try_parse(buf, &limits()) {
            Parsed::Incomplete { head_complete } => assert!(!head_complete),
            other => panic!("{other:?}"),
        }
        let buf = b"PUT /x HTTP/1.1\r\nContent-Length: 10\r\n\r\npart";
        match try_parse(buf, &limits()) {
            Parsed::Incomplete { head_complete } => assert!(head_complete),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn complete_request_reports_consumed_bytes_for_pipelining() {
        let buf = b"PUT /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /y HTTP/1.1\r\n\r\n";
        match try_parse(buf, &limits()) {
            Parsed::Complete(p) => {
                assert_eq!(p.request.path, "/x");
                assert_eq!(p.request.body, "body");
                assert!(p.keep_alive);
                // Exactly the first request's bytes; /y stays buffered.
                assert_eq!(&buf[p.consumed..p.consumed + 5], b"GET /");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn connection_header_and_version_drive_keepalive() {
        let close = b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n";
        match try_parse(close, &limits()) {
            Parsed::Complete(p) => assert!(!p.keep_alive),
            other => panic!("{other:?}"),
        }
        let old = b"GET /x HTTP/1.0\r\n\r\n";
        match try_parse(old, &limits()) {
            Parsed::Complete(p) => assert!(!p.keep_alive),
            other => panic!("{other:?}"),
        }
        let old_keep = b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        match try_parse(old_keep, &limits()) {
            Parsed::Complete(p) => assert!(p.keep_alive),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_head_is_431_even_before_completion() {
        let tight = WireLimits {
            max_head_bytes: 64,
            max_body_bytes: 1024,
            ..WireLimits::default()
        };
        // A slow-drip client never finishing its head: the cap trips as
        // soon as the buffer outgrows the limit.
        let mut buf = b"GET /x HTTP/1.1\r\n".to_vec();
        while buf.len() <= 64 {
            buf.extend_from_slice(b"X-Pad: yyyyyyyy\r\n");
        }
        match try_parse(&buf, &tight) {
            Parsed::Error { status, .. } => {
                assert_eq!(status, Status::RequestHeaderFieldsTooLarge)
            }
            other => panic!("{other:?}"),
        }
        // A complete-but-oversized head is also 431.
        buf.extend_from_slice(b"\r\n\r\n");
        match try_parse(&buf, &tight) {
            Parsed::Error { status, .. } => {
                assert_eq!(status, Status::RequestHeaderFieldsTooLarge)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_400() {
        for bad in [
            &b"NONSENSE /x SMTP/9\r\n\r\n"[..],
            &b"GET nopath HTTP/1.1\r\n\r\n"[..],
            &b"GET /x HTTP/2\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"[..],
        ] {
            match try_parse(bad, &limits()) {
                Parsed::Error { status, .. } => assert_eq!(status, Status::BadRequest),
                other => panic!("{bad:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_body_is_a_true_413_at_the_head() {
        let tight = WireLimits {
            max_head_bytes: 1024,
            max_body_bytes: 8,
            ..WireLimits::default()
        };
        let buf = b"PUT /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
        match try_parse(buf, &tight) {
            Parsed::Error { status, message } => {
                assert_eq!(status, Status::PayloadTooLarge);
                assert!(message.contains("exceeds"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn head_parse_reports_body_framing() {
        let buf = b"POST /d/ds/x/ingest HTTP/1.1\r\nContent-Length: 12\r\n\r\npartial";
        match try_parse_head(buf, &limits()) {
            HeadParsed::Head(h) => {
                assert_eq!(h.request.path, "/d/ds/x/ingest");
                assert_eq!(h.framing, BodyFraming::ContentLength(12));
                assert_eq!(&buf[h.consumed..], b"partial");
            }
            other => panic!("{other:?}"),
        }
        let buf = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        match try_parse_head(buf, &limits()) {
            HeadParsed::Head(h) => assert_eq!(h.framing, BodyFraming::Chunked),
            other => panic!("{other:?}"),
        }
        // Buffering callers reject chunked request bodies outright.
        match try_parse(buf, &limits()) {
            Parsed::Error { status, .. } => assert_eq!(status, Status::BadRequest),
            other => panic!("{other:?}"),
        }
        let buf = b"GET /x HTTP/1.1\r\n\r\n";
        match try_parse_head(buf, &limits()) {
            HeadParsed::Head(h) => assert_eq!(h.framing, BodyFraming::None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn body_reader_drains_content_length_in_windows() {
        let mut r = BodyReader::new(BodyFraming::ContentLength(10), &limits());
        let p = r.feed(b"abcd").unwrap();
        assert_eq!((p.consumed, p.done), (4, false));
        assert_eq!(p.data, b"abcd");
        // Final feed stops at the body end; pipelined bytes stay.
        let p = r.feed(b"efghijGET /next").unwrap();
        assert_eq!((p.consumed, p.done), (6, true));
        assert_eq!(p.data, b"efghij");
        assert!(r.finished());
        assert_eq!(r.bytes_seen(), 10);
    }

    #[test]
    fn body_reader_dechunks_across_arbitrary_boundaries() {
        // One-shot: consumed stops exactly at the body end, leaving the
        // pipelined successor in place.
        let wire = b"3\r\nabc\r\n5;ext=1\r\ndefgh\r\n0\r\n\r\nGET /next";
        let mut r = BodyReader::new(BodyFraming::Chunked, &limits());
        let p = r.feed(wire).unwrap();
        assert!(p.done);
        assert_eq!(p.data, b"abcdefgh");
        assert_eq!(&wire[p.consumed..], b"GET /next");

        // Drip one byte at a time: every state straddles a feed boundary.
        let mut r = BodyReader::new(BodyFraming::Chunked, &limits());
        let mut buf = Vec::new();
        let mut payload = Vec::new();
        for &b in wire.iter() {
            buf.push(b);
            let p = r.feed(&buf).unwrap();
            payload.extend_from_slice(&p.data);
            buf.drain(..p.consumed);
            if p.done {
                break;
            }
        }
        assert_eq!(payload, b"abcdefgh");
        assert!(r.finished());
        assert_eq!(r.bytes_seen(), 8);
    }

    #[test]
    fn body_reader_aborts_over_cap_streams_mid_transfer() {
        let tight = WireLimits {
            max_stream_body_bytes: 8,
            ..WireLimits::default()
        };
        // Announced over-cap: reject before reading the body.
        let r = BodyReader::new(BodyFraming::ContentLength(9), &tight);
        assert!(r.announced_over_cap());
        // A chunked stream cannot announce: the cap trips mid-transfer.
        let mut r = BodyReader::new(BodyFraming::Chunked, &tight);
        let p = r.feed(b"6\r\nabcdef\r\n").unwrap();
        assert_eq!(p.data, b"abcdef");
        let (status, msg) = r.feed(b"6\r\nghijkl\r\n").unwrap_err();
        assert_eq!(status, Status::PayloadTooLarge);
        assert!(msg.contains("exceeds"), "{msg}");
    }

    fn drain_stream(stream: &mut ResponseStream) -> (Vec<u8>, usize) {
        let mut wire = Vec::new();
        let mut out = Vec::new();
        let mut peak = 0usize;
        while stream.next_wire(&mut out) {
            peak = peak.max(out.len());
            wire.extend_from_slice(&out);
        }
        (wire, peak)
    }

    #[test]
    fn small_bodies_frame_with_content_length_in_one_buffer() {
        let resp = Response::json("{\"a\": 1}");
        let mut s = ResponseStream::new(resp, None, Some(1024));
        let (wire, _) = drain_stream(&mut s);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 8\r\n"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        assert!(text.ends_with("{\"a\": 1}"), "{text}");
        assert!(!text.contains("chunked"));
    }

    #[test]
    fn large_bodies_chunk_within_budget_and_dechunk_byte_identically() {
        let body: String = (0..10_000)
            .map(|i| ((i % 26) as u8 + b'a') as char)
            .collect();
        let budget = 512;
        let resp = Response::json(body.clone());
        let terms = KeepAliveTerms {
            timeout: Duration::from_secs(5),
            max: 7,
        };
        let mut s = ResponseStream::new(resp, Some(terms), Some(budget));
        assert!(s.max_wire_bytes() <= budget + CHUNK_FRAME_OVERHEAD);
        let (wire, peak) = drain_stream(&mut s);
        let text = String::from_utf8_lossy(&wire);
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(text.contains("Keep-Alive: timeout=5, max=7"), "{text}");
        assert!(!text.contains("Content-Length"), "{text}");
        // Every refill obeys the budget (head aside, which is tiny).
        assert!(
            peak <= budget + CHUNK_FRAME_OVERHEAD,
            "peak {peak} vs budget {budget}"
        );
        // De-chunking restores the body byte for byte.
        let head_end = find_head_end(&wire).unwrap();
        let (decoded, consumed) = dechunk(&wire[head_end + 4..])
            .expect("complete")
            .expect("well-formed");
        assert_eq!(decoded, body);
        assert_eq!(head_end + 4 + consumed, wire.len(), "no trailing bytes");
    }

    #[test]
    fn chunking_is_bypassed_when_budget_is_disabled_or_body_fits() {
        let resp = Response::json("x".repeat(100));
        let mut s = ResponseStream::new(resp, None, None);
        let (wire, _) = drain_stream(&mut s);
        assert!(String::from_utf8_lossy(&wire).contains("Content-Length: 100"));
        let resp = Response::json("x".repeat(100));
        let mut s = ResponseStream::new(resp, None, Some(100));
        let (wire, _) = drain_stream(&mut s);
        assert!(String::from_utf8_lossy(&wire).contains("Content-Length: 100"));
    }

    #[test]
    fn dechunk_handles_partials_and_garbage() {
        // Incomplete: the chunk promises more data than present.
        assert!(dechunk(b"10\r\nshort").is_none());
        // Incomplete: no terminating chunk yet.
        assert!(dechunk(b"3\r\nabc\r\n").is_none());
        // Complete two-chunk payload with an extension token.
        let (body, used) = dechunk(b"3;ext=1\r\nabc\r\n2\r\nde\r\n0\r\n\r\nXX")
            .unwrap()
            .unwrap();
        assert_eq!(body, "abcde");
        assert_eq!(used, 26, "consumed stops before pipelined bytes");
        // Garbage sizes are hard errors.
        assert!(dechunk(b"zz\r\nabc\r\n0\r\n\r\n").unwrap().is_err());
        assert!(dechunk(b"3\r\nabcXY0\r\n\r\n").unwrap().is_err());
    }

    #[test]
    fn sse_frames_roundtrip_through_parser() {
        let head = String::from_utf8_lossy(sse_head()).into_owned();
        assert!(head.contains("text/event-stream"), "{head}");
        assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
        assert!(head.contains("Connection: close"), "{head}");

        let f1 = sse_frame("brand_sales", 3, "{\"rows\": [1, 2]}");
        let f2 = sse_frame("brand_sales", 4, "{\"rows\": [3]}");
        let mut wire = Vec::new();
        wire.extend_from_slice(&f1);
        wire.extend_from_slice(&f2);
        wire.extend_from_slice(sse_done());

        let mut p = SseParser::new();
        let events = p.feed(&wire).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, "brand_sales");
        assert_eq!(events[0].id, 3);
        assert_eq!(events[0].data, "{\"rows\": [1, 2]}");
        assert_eq!(events[1].id, 4);
        assert!(p.terminated());
        assert!(!p.mid_frame());
    }

    #[test]
    fn sse_frames_straddling_feed_boundaries_reassemble() {
        // Drip the wire bytes one at a time: every frame straddles many
        // feed boundaries, and chunk headers split mid-hex-digit.
        let mut wire = Vec::new();
        for generation in 1..=5u64 {
            wire.extend_from_slice(&sse_frame(
                "players_tweets",
                generation,
                &format!("{{\"generation\": {generation}}}"),
            ));
        }
        wire.extend_from_slice(sse_done());

        let mut p = SseParser::new();
        let mut events = Vec::new();
        for b in &wire {
            events.extend(p.feed(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(events.len(), 5);
        let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        // Byte-level reassembly: raw payloads concatenate back to the
        // exact de-chunked stream.
        let rebuilt: Vec<u8> = events.iter().flat_map(|e| e.raw.clone()).collect();
        let (decoded, _) = dechunk(&wire).unwrap().unwrap();
        assert_eq!(rebuilt, decoded.into_bytes());
        assert!(p.terminated());
    }

    #[test]
    fn sse_disconnect_mid_frame_is_detectable() {
        let frame = sse_frame("ds", 7, "{\"partial\": true}");
        let mut p = SseParser::new();
        // The server died after half a frame: no event surfaces, and the
        // parser reports the stream stopped mid-frame (subscriber lost
        // data) rather than at a clean boundary.
        let events = p.feed(&frame[..frame.len() / 2]).unwrap();
        assert!(events.is_empty());
        assert!(!p.terminated());
        assert!(p.mid_frame());
        // Delivering the rest completes the frame normally.
        let events = p.feed(&frame[frame.len() / 2..]).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, 7);
        assert!(!p.mid_frame());
    }

    #[test]
    fn sse_multiline_data_and_bad_framing() {
        // Multi-line data joins with \n per the SSE spec.
        let payload = "event: ds\nid: 1\ndata: line1\ndata: line2\n\n";
        let mut wire = format!("{:x}\r\n{payload}\r\n", payload.len()).into_bytes();
        wire.extend_from_slice(sse_done());
        let mut p = SseParser::new();
        let events = p.feed(&wire).unwrap();
        assert_eq!(events[0].data, "line1\nline2");
        // Corrupt chunk sizes are hard errors, not silent stalls.
        assert!(SseParser::new().feed(b"zz\r\nboom\r\n").is_err());
    }
}
