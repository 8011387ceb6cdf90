//! Streaming ingestion pipeline: bounded-window body reads feeding
//! record-aligned segments to parallel decode workers.
//!
//! The `POST /dashboards/:name/ds/:dataset/ingest` route appends rows to
//! an endpoint dataset without re-running its flow. The reactor hands
//! the request body to an [`IngestSession`] *as it arrives* (via
//! [`crate::wire::BodyReader`]), so a multi-gigabyte upload never holds
//! more than a bounded window in memory:
//!
//! ```text
//!  socket ──▶ BodyReader ──▶ segmenter ──▶ bounded queue ──▶ decode workers
//!             (dechunk,      (split on        (backpressure     (CSV/JSON-lines
//!              cap check)     record           caps buffered     → Table, in
//!                             boundaries)      segments)         parallel)
//! ```
//!
//! The segmenter accumulates roughly [`SEGMENT_BYTES`] and always splits
//! on a record boundary (the last newline), so chunk boundaries straddling
//! records are invisible to the decoders. Decoded segment tables are
//! sequence-tagged, reassembled in order at [`IngestSession::finish`], and
//! committed through [`shareinsights_core::Platform::append_endpoint`] —
//! where the server merges the endpoint's warm `IndexedTable` instead of
//! dropping it. Until commit, the endpoint is untouched: a decode error,
//! an over-cap body, or a mid-body disconnect aborts with no side effects.
//!
//! The workers exist only for a body that fills a segment. One that ends
//! inside its first segment — a small append batch — is decoded on the
//! thread that finishes the request: there is nothing to overlap, and two
//! threads spawned and joined per request cost more than the decode (a
//! 120-row batch decodes in 50 µs; the join waited 0.15 or 1.3 ms by where
//! the scheduler had put the new threads).

use crate::http::{Method, Request, Response, Status};
use crate::metrics::ROUTE_INGEST;
use crate::router::Server;
use crate::wire::{BodyFraming, BodyReader, ParsedHead, WireLimits};
use parking_lot::Mutex;
use shareinsights_core::trace::Span;
use shareinsights_core::TraceId;
use shareinsights_tabular::io::csv::{read_csv, CsvOptions};
use shareinsights_tabular::io::json::{parse_json, read_json_records, JsonValue, PathMapping};
use shareinsights_tabular::Table;
use std::sync::mpsc::{channel, sync_channel, Receiver, SendError, Sender, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Target decode-segment size. Segments end on record boundaries, so a
/// single oversized record can exceed this — it is a watermark, not a cap.
pub const SEGMENT_BYTES: usize = 256 * 1024;

/// Decode workers per session, started with the first full segment. Two
/// overlap decode with the socket read without competing with the serve
/// pool for cores.
const DECODE_WORKERS: usize = 2;

/// Bounded depth of the segment queue: with [`SEGMENT_BYTES`]-sized
/// segments this caps buffered-but-undecoded body at a few megabytes —
/// the "bounded window" part of the memory guarantee. A full queue
/// backpressures the socket read.
const SEGMENT_QUEUE: usize = 8;

/// Body formats the ingest route accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestFormat {
    /// CSV; the body's first record is the header.
    Csv,
    /// Newline-delimited JSON objects; columns come from the first
    /// record's keys.
    JsonLines,
}

impl IngestFormat {
    /// Parse the `?format=` query parameter (absent means CSV).
    pub fn parse(param: Option<&str>) -> Result<IngestFormat, String> {
        match param {
            None | Some("csv") => Ok(IngestFormat::Csv),
            Some("jsonl") | Some("ndjson") => Ok(IngestFormat::JsonLines),
            Some(other) => Err(format!(
                "unsupported ingest format '{other}' (expected csv, jsonl or ndjson)"
            )),
        }
    }
}

/// Returns `(dashboard, dataset)` when the request head addresses the
/// streaming ingest route — how the serve loops decide to stream a body
/// instead of buffering it.
pub fn ingest_target(request: &Request) -> Option<(String, String)> {
    if request.method != Method::Post {
        return None;
    }
    match request.segments().as_slice() {
        ["dashboards", dashboard, "ds", dataset, "ingest"] => {
            Some(((*dashboard).to_string(), (*dataset).to_string()))
        }
        _ => None,
    }
}

/// How one segment turns into a [`Table`]; fixed once the first record
/// arrives and shared with every decode worker.
enum SegmentDecoder {
    Csv {
        columns: Vec<String>,
    },
    JsonLines {
        mapping: PathMapping,
    },
    /// CSV, except that a segment holding `marker` panics: how the tests
    /// make one decode worker fail.
    #[cfg(test)]
    PanicsOn {
        columns: Vec<String>,
        marker: &'static str,
    },
}

impl SegmentDecoder {
    fn decode(&self, text: &str) -> Result<Table, String> {
        match self {
            SegmentDecoder::Csv { columns } => {
                let opts = CsvOptions {
                    has_header: false,
                    column_names: Some(columns.clone()),
                    ..Default::default()
                };
                read_csv(text, &opts).map_err(|e| e.to_string())
            }
            SegmentDecoder::JsonLines { mapping } => {
                read_json_records(text, mapping).map_err(|e| e.to_string())
            }
            #[cfg(test)]
            SegmentDecoder::PanicsOn { columns, marker } => {
                assert!(!text.contains(marker), "segment decoder panicked");
                let columns = columns.clone();
                SegmentDecoder::Csv { columns }.decode(text)
            }
        }
    }
}

type SegmentJob = (usize, Arc<SegmentDecoder>, String);
/// A decoded segment, or the response that refuses the whole append.
type SegmentResult = (usize, Result<Table, Response>);

/// One in-flight streaming ingest: segmenter state on the reading side
/// and, once a segment has filled, a bounded queue and the decode workers
/// draining it.
pub struct IngestSession {
    server: Server,
    dashboard: String,
    dataset: String,
    format: IngestFormat,
    decoder: Option<Arc<SegmentDecoder>>,
    /// Bytes received but not yet dispatched (tail after the last record
    /// boundary, plus anything before the first complete record).
    pending: Vec<u8>,
    seq: usize,
    bytes_in: u64,
    tx: Option<SyncSender<SegmentJob>>,
    workers: Vec<JoinHandle<()>>,
    results: Arc<Mutex<Vec<SegmentResult>>>,
    /// First error raised on the reading side (bad header/first record).
    early_error: Option<String>,
}

impl IngestSession {
    /// Validate the target. Errors are ready-to-send responses (404
    /// unknown dashboard, 400 bad format, 409 reserved namespace).
    pub fn start(
        server: &Server,
        dashboard: &str,
        dataset: &str,
        format_param: Option<&str>,
    ) -> Result<IngestSession, Response> {
        if let Some(resp) = crate::router::reserved_namespace(dashboard) {
            return Err(resp);
        }
        let format = IngestFormat::parse(format_param)
            .map_err(|e| Response::error(Status::BadRequest, e))?;
        if server.platform().dashboard(dashboard).is_err() {
            return Err(Response::error(
                Status::NotFound,
                format!("no dashboard '{dashboard}'"),
            ));
        }
        Ok(IngestSession {
            server: server.clone(),
            dashboard: dashboard.to_string(),
            dataset: dataset.to_string(),
            format,
            decoder: None,
            pending: Vec::new(),
            seq: 0,
            bytes_in: 0,
            tx: None,
            workers: Vec::new(),
            results: Arc::new(Mutex::new(Vec::new())),
            early_error: None,
        })
    }

    /// Start the decode workers and their queue, once. A thread that
    /// cannot be spawned is done without: with none at all, segments are
    /// decoded where they are dispatched.
    fn start_workers(&mut self) {
        if self.tx.is_some() {
            return;
        }
        let (tx, rx) = sync_channel::<SegmentJob>(SEGMENT_QUEUE);
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..DECODE_WORKERS {
            let rx = Arc::clone(&rx);
            let results = Arc::clone(&self.results);
            let server = self.server.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("ingest-decode-{i}"))
                .spawn(move || decode_worker(&rx, &results, &server));
            self.workers.extend(spawned);
        }
        if !self.workers.is_empty() {
            self.tx = Some(tx);
        }
    }

    /// Feed one window of body bytes. Dispatches complete-record segments
    /// to the decode workers as soon as enough accumulate; blocks (socket
    /// backpressure) when the bounded queue is full.
    pub fn push(&mut self, data: &[u8]) {
        if self.early_error.is_some() {
            // Already failed: swallow the rest of the body so the
            // connection can drain to a clean response boundary.
            self.bytes_in += data.len() as u64;
            return;
        }
        self.bytes_in += data.len() as u64;
        self.pending.extend_from_slice(data);
        if self.decoder.is_none() && !self.try_init_decoder(false) {
            return; // first record still incomplete
        }
        while self.pending.len() >= SEGMENT_BYTES {
            // Split on the last record boundary in the window.
            let Some(cut) = self.pending.iter().rposition(|&b| b == b'\n') else {
                return; // one giant record, keep accumulating
            };
            let rest = self.pending.split_off(cut + 1);
            let segment = std::mem::replace(&mut self.pending, rest);
            self.start_workers();
            self.dispatch(segment);
        }
    }

    /// Total body bytes pushed so far (metrics + span attributes).
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Derive the decoder from the first complete record. Returns false
    /// while the record is still incomplete (and `final_flush` is false).
    fn try_init_decoder(&mut self, final_flush: bool) -> bool {
        let newline = self.pending.iter().position(|&b| b == b'\n');
        let line_end = match newline {
            Some(i) => i,
            None if final_flush => self.pending.len(),
            None => return false,
        };
        if self.pending[..line_end].is_empty() {
            self.early_error = Some("ingest body starts with an empty record".to_string());
            return false;
        }
        let line = match std::str::from_utf8(&self.pending[..line_end]) {
            Ok(s) => s.trim_end_matches('\r').to_string(),
            Err(_) => {
                self.early_error = Some("ingest body is not valid UTF-8".to_string());
                return false;
            }
        };
        match self.format {
            IngestFormat::Csv => {
                // Parse the header through the CSV reader so quoting
                // rules match the data records.
                match read_csv(&format!("{line}\n"), &CsvOptions::default()) {
                    Ok(t) => {
                        let columns: Vec<String> =
                            t.schema().names().iter().map(|s| s.to_string()).collect();
                        // The header line is consumed, not decoded as data.
                        self.pending
                            .drain(..newline.map_or(self.pending.len(), |i| i + 1));
                        self.decoder = Some(Arc::new(SegmentDecoder::Csv { columns }));
                    }
                    Err(e) => self.early_error = Some(format!("ingest CSV header: {e}")),
                }
            }
            IngestFormat::JsonLines => match parse_json(&line) {
                Ok(JsonValue::Object(map)) => {
                    let entries: Vec<(String, String)> =
                        map.keys().map(|k| (k.clone(), k.clone())).collect();
                    // The first record is data too — it stays in pending.
                    self.decoder = Some(Arc::new(SegmentDecoder::JsonLines {
                        mapping: PathMapping::new(entries),
                    }));
                }
                Ok(_) => {
                    self.early_error =
                        Some("ingest JSON-lines records must be objects".to_string());
                }
                Err(e) => self.early_error = Some(format!("ingest JSON-lines first record: {e}")),
            },
        }
        self.decoder.is_some()
    }

    fn dispatch(&mut self, segment: Vec<u8>) {
        let Some(decoder) = self.decoder.clone() else {
            return;
        };
        let text = match String::from_utf8(segment) {
            Ok(s) => s,
            Err(_) => {
                self.early_error = Some("ingest body is not valid UTF-8".to_string());
                return;
            }
        };
        if text.trim().is_empty() {
            return;
        }
        let job = (self.seq, decoder, text);
        self.seq += 1;
        // Blocking send: a full queue holds the socket read back, which is
        // exactly the bounded-memory contract. Without workers — the body
        // ended inside its first segment, or none is left to receive — the
        // segment is decoded here.
        let unsent = match &self.tx {
            Some(tx) => tx.send(job).err().map(|SendError(job)| job),
            None => Some(job),
        };
        if let Some(job) = unsent {
            decode_segment(job, &self.results, &self.server);
        }
    }

    /// Drain the queue and join the workers (idempotent).
    fn shutdown_workers(&mut self) {
        self.tx = None; // closes the channel; workers exit on disconnect
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Abort the ingest, leaving the endpoint unchanged (client
    /// disconnect, over-cap body, timeout). Records the abort.
    pub fn abort(mut self) {
        self.shutdown_workers();
        self.server.platform().api_metrics().record_ingest_abort();
    }

    /// Body complete: flush the tail segment, reassemble decoded tables
    /// in order, and commit the append (endpoint swap + generation bump +
    /// warm-index merge). Any decode error aborts with a 400, a decode that
    /// panicked or a segment that never came back with a 500, and neither
    /// has side effects.
    pub fn finish(mut self, span: Option<&Span>) -> Response {
        if self.decoder.is_none() && self.early_error.is_none() {
            // Body ended before the first newline; the whole body is the
            // first (and only) record.
            self.try_init_decoder(true);
        }
        if self.early_error.is_none() && !self.pending.is_empty() {
            let tail = std::mem::take(&mut self.pending);
            self.dispatch(tail);
        }
        self.shutdown_workers();
        if let Some(e) = self.early_error.take() {
            self.server.platform().api_metrics().record_ingest_abort();
            return Response::error(Status::BadRequest, e);
        }
        let mut results = std::mem::take(&mut *self.results.lock());
        results.sort_by_key(|(seq, _)| *seq);
        let abort = |refusal: Response| {
            self.server.platform().api_metrics().record_ingest_abort();
            refusal
        };
        if !results.iter().map(|(seq, _)| *seq).eq(0..self.seq) {
            return abort(Response::error(
                Status::InternalServerError,
                "ingest lost a decoded segment",
            ));
        }
        let mut tables = Vec::with_capacity(results.len());
        for (_, decoded) in results {
            match decoded {
                Ok(t) => tables.push(t),
                Err(refusal) => return abort(refusal),
            }
        }
        let commit_span = span.map(|s| s.child("ingest_commit"));
        let IngestSession {
            server,
            dashboard,
            dataset,
            seq,
            bytes_in,
            ..
        } = self;
        server.committer().run(&server, move |server| {
            server.commit_ingest(
                &dashboard,
                &dataset,
                &tables,
                seq as u64,
                bytes_in,
                commit_span,
            )
        })
    }
}

type CommitJob = Box<dyn FnOnce() + Send>;

/// The one thread every ingest commits on, shared by a [`Server`]'s clones.
///
/// A commit replaces an endpoint's snapshot — the concatenated table and
/// its merged index, 15 MB at 141k rows × 500 keys — and drops the one
/// before. glibc keeps an arena per thread: with the serve workers taking
/// requests in turn, each commit built its snapshot in one worker's arena
/// and freed the last into another's, which trimmed it, so the next commit
/// on that worker faulted every page in again: 4.7 ms a commit instead of
/// 1.5, and a run's median append at 5, 7 or 9 ms by how the turn had
/// drifted. On one thread the pages an append frees are the pages the next
/// one is handed.
///
/// Commits on one endpoint were already serialised by its index slot;
/// this serialises commits on different endpoints too. The thread starts
/// with the first commit and ends when the last clone of the server is
/// dropped.
#[derive(Default)]
pub(crate) struct Committer {
    /// The thread's queue; `None` inside when it could not be spawned.
    jobs: OnceLock<Option<Sender<CommitJob>>>,
}

impl Committer {
    /// Run `commit` over `server` on the committer thread and wait for its
    /// response; a commit that panics is answered 500 and the thread
    /// commits on (see [`Server::contain_panic`]). Without the thread — it
    /// could not be spawned — `commit` runs here.
    pub(crate) fn run(
        &self,
        server: &Server,
        commit: impl FnOnce(&Server) -> Response + Send + 'static,
    ) -> Response {
        let (done, response) = channel();
        let server = server.clone();
        let job: CommitJob = Box::new(move || {
            let answer = server.contain_panic(|| ROUTE_INGEST, || commit(&server));
            let _ = done.send(answer.unwrap_or_else(|refusal| refusal));
        });
        let jobs = self.jobs.get_or_init(|| {
            let (tx, rx) = channel::<CommitJob>();
            std::thread::Builder::new()
                .name("ingest-commit".to_string())
                .spawn(move || rx.into_iter().for_each(|job| job()))
                .ok()
                .map(|_| tx)
        });
        let unsent = match jobs {
            Some(tx) => tx.send(job).err().map(|SendError(job)| job),
            None => Some(job),
        };
        if let Some(job) = unsent {
            job();
        }
        response.recv().unwrap_or_else(|_| {
            Response::error(Status::ServiceUnavailable, "ingest commit did not complete")
        })
    }
}

/// One streamed ingest request being driven by a serve loop: the
/// [`BodyReader`] de-framing wire bytes, the [`IngestSession`] decoding
/// them, and the tracing + per-route metrics that
/// [`Server::handle_traced`](crate::router::Server::handle_traced) would
/// have provided had the body been buffered.
///
/// Lifecycle: [`StreamedIngest::begin`] after the head parses, then
/// either drain [`StreamedIngest::take_early`] (the route rejected the
/// request before any body byte), or loop `feed` until `body_complete`,
/// then `finish`. A vanished or stalled client calls `abort` instead —
/// the endpoint is untouched.
pub struct StreamedIngest {
    server: Server,
    reader: BodyReader,
    session: Option<IngestSession>,
    early: Option<Response>,
    root: Option<Span>,
    dispatch: Option<Span>,
    started: Instant,
    label: &'static str,
    path: String,
}

impl StreamedIngest {
    /// Start a streamed ingest for a parsed head whose route matched
    /// [`ingest_target`]. Never fails: pre-body rejections (unknown
    /// dashboard, bad format, announced over-cap body) surface through
    /// [`StreamedIngest::take_early`].
    pub fn begin(server: &Server, head: &ParsedHead, limits: &WireLimits) -> StreamedIngest {
        let request = &head.request;
        let label = {
            let segments = request.segments();
            crate::metrics::route_label(request.method, &segments)
        };
        let explicit = request.header("x-trace-id").and_then(TraceId::parse);
        let root = server.platform().tracer().start_trace(label, explicit);
        let dispatch = root.as_ref().map(|r| r.child("dispatch"));
        let reader = BodyReader::new(head.framing, limits);
        let mut early = None;
        let mut session = None;
        if reader.announced_over_cap() {
            early = Some(Response::error(
                Status::PayloadTooLarge,
                format!(
                    "request body exceeds {} bytes",
                    limits.max_stream_body_bytes
                ),
            ));
        } else {
            match ingest_target(request) {
                Some((dashboard, dataset)) => {
                    match IngestSession::start(
                        server,
                        &dashboard,
                        &dataset,
                        request.query.get("format").map(String::as_str),
                    ) {
                        Ok(s) => session = Some(s),
                        Err(resp) => early = Some(resp),
                    }
                }
                None => {
                    early = Some(Response::error(
                        Status::NotFound,
                        format!("no route for {} {}", request.method, request.path),
                    ));
                }
            }
        }
        StreamedIngest {
            server: server.clone(),
            reader,
            session,
            early,
            root,
            dispatch,
            started: Instant::now(),
            label,
            path: request.path.clone(),
        }
    }

    /// The pre-body rejection, if any. The caller sends it and closes the
    /// connection (the unread body makes resynchronising impossible).
    pub fn take_early(&mut self) -> Option<Response> {
        let resp = self.early.take()?;
        if let Some(session) = self.session.take() {
            session.abort();
        } else {
            self.server.platform().api_metrics().record_ingest_abort();
        }
        self.seal(Some(&resp), true);
        Some(resp)
    }

    /// Feed raw socket bytes through the body de-framer into the decode
    /// pipeline. Returns how many bytes of `buf` were consumed — bytes
    /// past a completed body belong to the next pipelined request and
    /// stay with the caller. A mid-transfer failure (over-cap body,
    /// malformed chunk framing) returns the terminal response to send
    /// before closing.
    pub fn feed(&mut self, buf: &[u8]) -> Result<usize, Response> {
        match self.reader.feed(buf) {
            Ok(progress) => {
                if let Some(session) = self.session.as_mut() {
                    session.push(&progress.data);
                }
                Ok(progress.consumed)
            }
            Err((status, message)) => {
                if let Some(session) = self.session.take() {
                    session.abort();
                } else {
                    self.server.platform().api_metrics().record_ingest_abort();
                }
                let resp = Response::error(status, message);
                self.seal(Some(&resp), true);
                Err(resp)
            }
        }
    }

    /// True once the whole body has been drained.
    pub fn body_complete(&self) -> bool {
        self.reader.finished()
    }

    /// Commit the ingest and produce its response (the body is
    /// complete). Records the per-route metric and finishes the trace. A
    /// panic while finishing is answered 500 and metered under the
    /// `(panic)` pseudo-route; the calling thread serves on.
    pub fn finish(mut self) -> Response {
        let Some(session) = self.session.take() else {
            // `take_early` should have drained this request first.
            let resp = Response::error(Status::BadRequest, "ingest rejected before body");
            self.seal(Some(&resp), true);
            return resp;
        };
        let resp = self
            .server
            .contain_panic(|| ROUTE_INGEST, || session.finish(self.dispatch.as_ref()))
            .unwrap_or_else(|refusal| refusal);
        self.seal(Some(&resp), true);
        resp
    }

    /// The client vanished or stalled mid-body: abort with the endpoint
    /// unchanged. `answered` is the status the serve loop sends (408 on a
    /// stall), `None` when the peer is already gone. The route metric is
    /// not recorded — the caller accounts the `(timeout)` / `(malformed)`
    /// pseudo-route, matching buffered-body semantics.
    pub fn abort(mut self, answered: Option<Status>) {
        if let Some(session) = self.session.take() {
            session.abort();
        } else {
            self.server.platform().api_metrics().record_ingest_abort();
        }
        let resp = answered.map(|status| Response::error(status, "aborted"));
        self.seal(resp.as_ref(), false);
    }

    /// Finish spans and (optionally) the per-route metric, exactly once.
    fn seal(&mut self, response: Option<&Response>, record_route: bool) {
        let elapsed_us = self.started.elapsed().as_micros() as u64;
        if let Some(span) = self.dispatch.take() {
            span.finish();
        }
        if let Some(mut root) = self.root.take() {
            root.set_attr("path", self.path.as_str());
            if let Some(resp) = response {
                root.set_attr("status", i64::from(resp.status.code()));
            }
            root.finish();
        }
        if record_route {
            let ok = response.is_some_and(Response::is_ok);
            self.server
                .platform()
                .api_metrics()
                .record(self.label, ok, elapsed_us);
        }
    }
}

/// True when a parsed head should be streamed through a
/// [`StreamedIngest`] instead of buffered whole: the ingest route, with
/// a body on the wire.
pub fn wants_streaming(head: &ParsedHead) -> bool {
    head.framing != BodyFraming::None && ingest_target(&head.request).is_some()
}

/// A decode worker: drain sequence-tagged segments off the shared queue,
/// decode each into a [`Table`], and record the per-segment telemetry.
fn decode_worker(
    rx: &Mutex<Receiver<SegmentJob>>,
    results: &Mutex<Vec<SegmentResult>>,
    server: &Server,
) {
    loop {
        // Take the lock only to pull one job so both workers drain the
        // queue concurrently while decoding outside the lock.
        let job = { rx.lock().recv() };
        let Ok(job) = job else {
            return; // channel closed: session finished or aborted
        };
        decode_segment(job, results, server);
    }
}

/// Decode one segment into a [`Table`] and record its telemetry. A decode
/// that panics is contained (see [`Server::contain_panic`]) and recorded
/// as the segment's result, so the append fails whole.
fn decode_segment(
    (seq, decoder, text): SegmentJob,
    results: &Mutex<Vec<SegmentResult>>,
    server: &Server,
) {
    let started = Instant::now();
    let decoded = match server.contain_panic(|| ROUTE_INGEST, || decoder.decode(&text)) {
        Ok(Ok(table)) => Ok(table),
        Ok(Err(e)) => Err(Response::error(
            Status::BadRequest,
            format!("ingest segment decode: {e}"),
        )),
        Err(refusal) => Err(refusal),
    };
    server
        .platform()
        .api_metrics()
        .record_ingest_segment(text.len() as u64, started.elapsed().as_micros() as u64);
    results.lock().push((seq, decoded));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parses_and_rejects() {
        assert_eq!(IngestFormat::parse(None).unwrap(), IngestFormat::Csv);
        assert_eq!(IngestFormat::parse(Some("csv")).unwrap(), IngestFormat::Csv);
        assert_eq!(
            IngestFormat::parse(Some("jsonl")).unwrap(),
            IngestFormat::JsonLines
        );
        assert_eq!(
            IngestFormat::parse(Some("ndjson")).unwrap(),
            IngestFormat::JsonLines
        );
        assert!(IngestFormat::parse(Some("parquet")).is_err());
    }

    #[test]
    fn target_matches_only_the_ingest_shape() {
        let hit = Request::new(
            Method::Post,
            "/dashboards/retail/ds/sales/ingest?format=csv",
        );
        assert_eq!(
            ingest_target(&hit),
            Some(("retail".to_string(), "sales".to_string()))
        );
        let wrong_method = Request::new(Method::Get, "/dashboards/retail/ds/sales/ingest");
        assert_eq!(ingest_target(&wrong_method), None);
        let other = Request::new(Method::Post, "/retail/ds/sales/sql");
        assert_eq!(ingest_target(&other), None);
    }

    fn server_with_dashboard() -> Server {
        let server = Server::new(shareinsights_core::Platform::new());
        let created = server.handle(&Request::new(Method::Post, "/dashboards/d/create"));
        assert!(created.is_ok(), "{}", created.body);
        server
    }

    #[test]
    fn decode_workers_start_with_the_first_full_segment() {
        let server = server_with_dashboard();
        // A body that ends inside its first segment: no thread, same rows.
        let mut small = IngestSession::start(&server, "d", "t", None).unwrap();
        small.push(b"k,v\na,1\nb,2\n");
        assert!(small.workers.is_empty() && small.tx.is_none());
        let ack = small.finish(None);
        assert!(ack.body.contains("\"rows_appended\": 2"), "{}", ack.body);
        assert!(ack.body.contains("\"segments\": 1"), "{}", ack.body);

        // One that fills a segment: both workers, and the tail goes to them.
        let mut large = IngestSession::start(&server, "d", "t", None).unwrap();
        large.push(b"k,v\n");
        let rows = SEGMENT_BYTES / 4 + 10;
        large.push("c,3\n".repeat(rows).as_bytes());
        assert_eq!(large.workers.len(), DECODE_WORKERS);
        large.push(b"d,4\n");
        let ack = large.finish(None);
        assert!(
            ack.body
                .contains(&format!("\"rows_appended\": {}", rows + 1)),
            "{}",
            ack.body
        );
        assert!(ack.body.contains("\"segments\": 2"), "{}", ack.body);
        assert_eq!(server.platform().api_metrics().ingest().segments, 3);
    }

    #[test]
    fn a_decode_that_panics_fails_the_append_whole() {
        let server = server_with_dashboard();
        let mut first = IngestSession::start(&server, "d", "t", None).unwrap();
        first.push(b"k,v\na,1\n");
        assert!(first.finish(None).is_ok());
        let page = || server.handle(&Request::get("/d/ds/t")).body;
        let (body, generation) = (page(), server.platform().data_generation("d"));

        // Three segments go to the workers; the one holding `boom` panics.
        // Both the worker and the request finishing it serve on.
        let rows = SEGMENT_BYTES / 4 + 10;
        for (panicking, tail) in [(true, "boom,9\n"), (false, "c,3\n")] {
            let mut session = IngestSession::start(&server, "d", "t", None).unwrap();
            session.push(b"k,v\n");
            let columns = vec!["k".to_string(), "v".to_string()];
            if panicking {
                let marker = "boom";
                session.decoder = Some(Arc::new(SegmentDecoder::PanicsOn { columns, marker }));
            }
            session.push("c,3\n".repeat(rows).as_bytes());
            session.push(tail.repeat(rows).as_bytes());
            session.push(b"d,4\n");
            assert_eq!(session.workers.len(), DECODE_WORKERS);
            let ack = session.finish(None);
            if panicking {
                assert_eq!(ack.status, Status::InternalServerError, "{}", ack.body);
                assert_eq!(
                    (page(), server.platform().data_generation("d")),
                    (body.clone(), generation)
                );
            } else {
                assert!(
                    ack.body
                        .contains(&format!("\"rows_appended\": {}", 2 * rows + 1)),
                    "{}",
                    ack.body
                );
            }
        }
        let routes = server.platform().api_metrics().routes();
        assert_eq!(routes[crate::metrics::ROUTE_PANIC].errors, 1);
        assert_eq!(server.platform().api_metrics().ingest().aborted, 1);
    }

    #[test]
    fn commits_run_on_one_thread_and_survive_a_panicking_commit() {
        let server = Server::new(shareinsights_core::Platform::new());
        let committer = Committer::default();
        let whoami = |_: &Server| {
            let thread = std::thread::current();
            Response::json(format!("{:?} {:?}", thread.name(), thread.id()))
        };
        let first = committer.run(&server, whoami);
        assert!(first.body.contains("ingest-commit"), "{}", first.body);
        assert_eq!(committer.run(&server, whoami).body, first.body);

        // A commit that panics is answered 500, and the same thread takes
        // the next one.
        let refused = committer.run(&server, |_| panic!("commit failed"));
        assert_eq!(refused.status, Status::InternalServerError);
        assert_eq!(committer.run(&server, whoami).body, first.body);
        let routes = server.platform().api_metrics().routes();
        assert_eq!(routes[crate::metrics::ROUTE_PANIC].errors, 1);
    }
}
