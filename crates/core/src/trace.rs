//! End-to-end request tracing: spans, a bounded trace ring, and a
//! structured JSON-lines event log.
//!
//! The serving path opens one *root span* per HTTP request (reusing a
//! caller-supplied trace id from the `X-Trace-Id` header when present) and
//! hangs child spans off it — router dispatch, cache lookup, query
//! evaluation, and one span per executed DAG operator. Completed traces
//! land in a bounded ring buffer inside [`Tracer`], cheap enough to leave
//! on in production: one atomic fetch-add on the sampling counter per
//! untraced request, and a single short mutex hold per *finished span* on
//! traced ones. A sampling knob ([`Tracer::set_sample_one_in`]) thins
//! generated traces under load; explicitly propagated trace ids are always
//! honored while tracing is enabled, so a client can force a trace of its
//! own request.
//!
//! [`EventLog`] is the companion structured log: newline-delimited JSON
//! objects (`slow_request`, `error` events) carrying the trace id, so logs
//! and traces cross-reference.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Parse a hex trace id (1–16 hex digits, case-insensitive) as sent in
    /// an `X-Trace-Id` header. Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// Integer attribute (row counts, byte counts, status codes…).
    Int(i64),
    /// String attribute (route, path, operator type…).
    Str(String),
}

impl AttrValue {
    /// Render as a JSON value fragment.
    pub fn to_json(&self) -> String {
        match self {
            AttrValue::Int(n) => n.to_string(),
            AttrValue::Str(s) => format!("\"{}\"", escape_json(s)),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Escape a string for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One finished span within a trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id, unique within the trace (root is 1).
    pub id: u64,
    /// Parent span id; 0 for the root span.
    pub parent: u64,
    /// Human-readable name (route label, operator name…).
    pub name: String,
    /// Start offset in microseconds from the trace epoch (root start).
    pub start_us: u64,
    /// Duration in microseconds.
    pub elapsed_us: u64,
    /// Typed attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One completed trace: every finished span, in finish order.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The trace id.
    pub trace_id: TraceId,
    /// Finished spans (root is the one with `parent == 0`).
    pub spans: Vec<SpanRecord>,
}

impl TraceRecord {
    /// The root span, if it was recorded.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent == 0)
    }

    /// Direct children of a span, sorted by start offset then id.
    pub fn children_of(&self, id: u64) -> Vec<&SpanRecord> {
        let mut v: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent == id && s.id != id)
            .collect();
        v.sort_by_key(|s| (s.start_us, s.id));
        v
    }

    /// Total duration: the root span's elapsed time (0 if no root).
    pub fn duration_us(&self) -> u64 {
        self.root().map(|r| r.elapsed_us).unwrap_or(0)
    }
}

/// Shared mutable state of one in-flight trace.
struct ActiveTrace {
    /// The trace id; 0 until a provisional root is admitted.
    id: AtomicU64,
    epoch: Instant,
    next_span: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A live span handle. Child spans are created with [`Span::child`]; the
/// span records itself when [`Span::finish`]ed or dropped. Finishing the
/// *root* span seals the trace and publishes it to the [`Tracer`] ring —
/// children finished after their root are silently discarded.
pub struct Span {
    trace: Arc<ActiveTrace>,
    /// Present only on the root span: the sink that receives the sealed trace.
    sink: Option<Tracer>,
    /// A root from [`Tracer::start_provisional`] that the sampler has not
    /// been asked about yet (see [`Span::admit`]).
    provisional: bool,
    id: u64,
    parent: u64,
    name: String,
    start_us: u64,
    started: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
    finished: bool,
}

impl Span {
    /// The id of the trace this span belongs to.
    pub fn trace_id(&self) -> TraceId {
        TraceId(self.trace.id.load(Ordering::Relaxed))
    }

    /// Microseconds elapsed since the trace epoch (root span start).
    pub fn now_offset_us(&self) -> u64 {
        self.trace.epoch.elapsed().as_micros() as u64
    }

    /// This span's own start offset from the trace epoch.
    pub fn start_offset_us(&self) -> u64 {
        self.start_us
    }

    /// Attach (or append) a typed attribute.
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.attrs.push((key, value.into()));
    }

    /// Open a child span starting now.
    pub fn child(&self, name: &str) -> Span {
        let id = self.trace.next_span.fetch_add(1, Ordering::Relaxed);
        Span {
            trace: Arc::clone(&self.trace),
            sink: None,
            provisional: false,
            id,
            parent: self.id,
            name: name.to_string(),
            start_us: self.now_offset_us(),
            started: Instant::now(),
            attrs: Vec::new(),
            finished: false,
        }
    }

    /// Record a child span *post hoc* from externally measured timings —
    /// used to graft the engine's per-operator stats (measured inside
    /// `Executor::execute`) into the request trace without threading span
    /// handles through the engine crate.
    pub fn child_at(
        &self,
        name: &str,
        start_us: u64,
        elapsed_us: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let id = self.trace.next_span.fetch_add(1, Ordering::Relaxed);
        self.trace.spans.lock().push(SpanRecord {
            id,
            parent: self.id,
            name: name.to_string(),
            start_us,
            elapsed_us,
            attrs,
        });
    }

    /// Finish the span now, recording its duration. Root spans seal the
    /// trace. Dropping an unfinished span finishes it implicitly.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    /// Settle a root started by [`Tracer::start_provisional`]: the sampler
    /// is asked now, exactly as [`Tracer::start_trace`] would have asked it,
    /// and the span comes back if it is sampled; otherwise it is abandoned.
    /// Any other span comes back as it is.
    pub fn admit(mut self) -> Option<Span> {
        if !self.provisional {
            return Some(self);
        }
        self.provisional = false;
        match self.sink.as_ref().and_then(|tracer| tracer.sample(None)) {
            Some(id) => {
                self.trace.id.store(id.0, Ordering::Relaxed);
                Some(self)
            }
            None => {
                self.abandon();
                None
            }
        }
    }

    /// Drop the span unrecorded. Abandoning a root drops its whole trace:
    /// nothing reaches the ring, whatever its children recorded.
    pub fn abandon(mut self) {
        self.finished = true;
        self.sink = None;
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            elapsed_us: self.started.elapsed().as_micros() as u64,
            attrs: std::mem::take(&mut self.attrs),
        };
        let mut guard = self.trace.spans.lock();
        guard.push(record);
        if let Some(sink) = self.sink.take() {
            let spans = std::mem::take(&mut *guard);
            drop(guard);
            sink.complete(TraceRecord {
                trace_id: self.trace_id(),
                spans,
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("trace_id", &self.trace_id())
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

/// Default capacity of the completed-trace ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

struct TracerInner {
    /// 0 disables tracing entirely; N samples one generated trace in N.
    sample_one_in: AtomicU64,
    /// Requests seen by the sampler (generated-id path only).
    seen: AtomicU64,
    /// Next generated trace id.
    next_id: AtomicU64,
    /// Ring capacity.
    capacity: AtomicUsize,
    /// Completed traces, oldest first.
    completed: Mutex<VecDeque<TraceRecord>>,
}

/// The trace registry: starts root spans (subject to sampling) and retains
/// the last N completed traces in a bounded ring. Cloning shares state.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity())
            .field("sample_one_in", &self.sample_one_in())
            .finish()
    }
}

impl Tracer {
    /// A tracer sampling every request, retaining
    /// [`DEFAULT_TRACE_CAPACITY`] completed traces.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer with an explicit ring capacity (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                sample_one_in: AtomicU64::new(1),
                seen: AtomicU64::new(0),
                next_id: AtomicU64::new(1),
                capacity: AtomicUsize::new(capacity.max(1)),
                completed: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// The sampling knob: 0 = tracing off, N = keep one generated trace in
    /// N. Explicit (client-propagated) trace ids bypass the 1-in-N thinning
    /// but are still dropped at 0.
    pub fn set_sample_one_in(&self, n: u64) {
        self.inner.sample_one_in.store(n, Ordering::Relaxed);
    }

    /// Current sampling setting.
    pub fn sample_one_in(&self) -> u64 {
        self.inner.sample_one_in.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity.load(Ordering::Relaxed)
    }

    /// Resize the ring (min 1); excess oldest traces are evicted lazily on
    /// the next completion.
    pub fn set_capacity(&self, capacity: usize) {
        self.inner
            .capacity
            .store(capacity.max(1), Ordering::Relaxed);
    }

    /// Start a root span, or `None` when sampled out. `explicit` carries a
    /// client-propagated trace id (always traced while tracing is enabled);
    /// otherwise an id is generated and the 1-in-N sampler applies.
    pub fn start_trace(&self, name: &str, explicit: Option<TraceId>) -> Option<Span> {
        let id = self.sample(explicit)?;
        Some(self.root(name, id, false))
    }

    /// Start a root span for a request that may yet be abandoned, without
    /// asking the 1-in-N sampler: [`Span::admit`] asks it once the request
    /// is known to be answered, and [`Span::abandon`] leaves it unasked.
    /// `None` only while tracing is off.
    pub fn start_provisional(&self, name: &str, explicit: Option<TraceId>) -> Option<Span> {
        if self.sample_one_in() == 0 {
            return None;
        }
        Some(match explicit {
            Some(id) => self.root(name, id, false),
            None => self.root(name, TraceId(0), true),
        })
    }

    /// The id of a new trace, or `None` when it is not traced: tracing is
    /// off, or the sampler (ticked only for a generated id) thins it out.
    fn sample(&self, explicit: Option<TraceId>) -> Option<TraceId> {
        let n = self.inner.sample_one_in.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        if explicit.is_some() {
            return explicit;
        }
        let seen = self.inner.seen.fetch_add(1, Ordering::Relaxed);
        if !seen.is_multiple_of(n) {
            return None;
        }
        Some(TraceId(self.inner.next_id.fetch_add(1, Ordering::Relaxed)))
    }

    fn root(&self, name: &str, id: TraceId, provisional: bool) -> Span {
        let trace = Arc::new(ActiveTrace {
            id: AtomicU64::new(id.0),
            epoch: Instant::now(),
            next_span: AtomicU64::new(2),
            spans: Mutex::new(Vec::new()),
        });
        Span {
            trace,
            sink: Some(self.clone()),
            provisional,
            id: 1,
            parent: 0,
            name: name.to_string(),
            start_us: 0,
            started: Instant::now(),
            attrs: Vec::new(),
            finished: false,
        }
    }

    /// The last `limit` completed traces, newest first.
    pub fn recent(&self, limit: usize) -> Vec<TraceRecord> {
        let completed = self.inner.completed.lock();
        completed.iter().rev().take(limit).cloned().collect()
    }

    /// Find a completed trace by id (newest match wins).
    pub fn find(&self, id: TraceId) -> Option<TraceRecord> {
        let completed = self.inner.completed.lock();
        completed.iter().rev().find(|t| t.trace_id == id).cloned()
    }

    /// Number of completed traces currently retained.
    pub fn len(&self) -> usize {
        self.inner.completed.lock().len()
    }

    /// True when no completed traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn complete(&self, record: TraceRecord) {
        let capacity = self.capacity();
        let mut completed = self.inner.completed.lock();
        completed.push_back(record);
        while completed.len() > capacity {
            completed.pop_front();
        }
    }
}

// ---------------------------------------------------------------------------
// Structured event log (JSON lines)
// ---------------------------------------------------------------------------

enum EventSink {
    /// One line per event to standard error.
    Stderr,
    /// Append to a file, optionally rotating at a size cap.
    File(Mutex<FileSink>),
    /// Retain lines in memory (tests, embedded consumers).
    Memory(Mutex<Vec<String>>),
}

/// The file sink's state: the open handle plus the byte count tracked
/// across writes, so the size cap never re-stats the file.
struct FileSink {
    file: File,
    /// Bytes in the live file (seeded from its length at open).
    len: u64,
    path: PathBuf,
    /// Rotate before a write would push `len` past this; `None` grows
    /// without bound (the classic [`EventLog::to_file`] behavior).
    max_bytes: Option<u64>,
}

impl FileSink {
    fn open(path: &Path, max_bytes: Option<u64>) -> std::io::Result<FileSink> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(FileSink {
            file,
            len,
            path: path.to_path_buf(),
            max_bytes,
        })
    }

    /// Write one line, rotating first when the cap would be exceeded: the
    /// live file is renamed to `<path>.1` (replacing any previous `.1`)
    /// and a fresh file takes its place, so the pair never holds more than
    /// roughly `2 × max_bytes`. The line being written is never dropped —
    /// an oversized line still lands in the fresh file.
    fn write_line(&mut self, line: &str) {
        let needed = line.len() as u64 + 1;
        if let Some(max) = self.max_bytes {
            if self.len > 0 && self.len + needed > max {
                let rotated = PathBuf::from(format!("{}.1", self.path.display()));
                let _ = std::fs::rename(&self.path, &rotated);
                if let Ok(file) = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                {
                    self.file = file;
                    self.len = 0;
                }
            }
        }
        let _ = writeln!(self.file, "{line}");
        self.len += needed;
    }
}

/// A structured JSON-lines event writer for operational events
/// (`slow_request`, `error`). Each event becomes one JSON object per line
/// with an `event` tag and a `unix_us` wall-clock timestamp. Cloning
/// shares the sink.
#[derive(Clone)]
pub struct EventLog {
    sink: Arc<EventSink>,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match *self.sink {
            EventSink::Stderr => "stderr",
            EventSink::File(_) => "file",
            EventSink::Memory(_) => "memory",
        };
        f.debug_struct("EventLog").field("sink", &kind).finish()
    }
}

impl Default for EventLog {
    fn default() -> Self {
        Self::stderr()
    }
}

impl EventLog {
    /// Log events to standard error.
    pub fn stderr() -> Self {
        EventLog {
            sink: Arc::new(EventSink::Stderr),
        }
    }

    /// Retain event lines in memory; read them back with [`EventLog::lines`].
    pub fn in_memory() -> Self {
        EventLog {
            sink: Arc::new(EventSink::Memory(Mutex::new(Vec::new()))),
        }
    }

    /// Append events to a file (created if absent), unbounded.
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        Ok(EventLog {
            sink: Arc::new(EventSink::File(Mutex::new(FileSink::open(path, None)?))),
        })
    }

    /// Append events to a file with size-capped rotation: once appending
    /// would push the file past `max_bytes`, it is renamed to `<path>.1`
    /// (replacing the previous generation) and writing continues in a
    /// fresh file — bounding total disk use at about twice the cap without
    /// ever dropping an event at the rotation boundary.
    pub fn to_file_rotating(path: &Path, max_bytes: u64) -> std::io::Result<Self> {
        Ok(EventLog {
            sink: Arc::new(EventSink::File(Mutex::new(FileSink::open(
                path,
                Some(max_bytes.max(1)),
            )?))),
        })
    }

    /// Emit one event: `{"event": "...", "unix_us": ..., fields...}`.
    pub fn emit(&self, event: &str, fields: &[(&str, AttrValue)]) {
        let unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let mut line = format!(
            "{{\"event\": \"{}\", \"unix_us\": {}",
            escape_json(event),
            unix_us
        );
        for (key, value) in fields {
            line.push_str(&format!(", \"{}\": {}", escape_json(key), value.to_json()));
        }
        line.push('}');
        match &*self.sink {
            EventSink::Stderr => eprintln!("{line}"),
            EventSink::File(f) => f.lock().write_line(&line),
            EventSink::Memory(lines) => lines.lock().push(line),
        }
    }

    /// Lines retained by an in-memory sink (empty for other sinks).
    pub fn lines(&self) -> Vec<String> {
        match &*self.sink {
            EventSink::Memory(lines) => lines.lock().clone(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::io::json::parse_json;

    #[test]
    fn trace_id_round_trips_and_rejects_junk() {
        let id = TraceId::parse("10adc0de00000001").unwrap();
        assert_eq!(id.0, 0x10adc0de00000001);
        assert_eq!(id.to_string(), "10adc0de00000001");
        assert_eq!(TraceId::parse("ff").unwrap().0, 255);
        assert!(TraceId::parse("").is_none());
        assert!(TraceId::parse("xyz").is_none());
        assert!(TraceId::parse("0123456789abcdef0").is_none(), "17 digits");
        assert!(TraceId::parse("a b").is_none());
    }

    #[test]
    fn spans_form_a_tree_with_attributes() {
        let tracer = Tracer::new();
        let mut root = tracer.start_trace("GET /x", None).unwrap();
        root.set_attr("status", 200i64);
        {
            let mut child = root.child("cache_lookup");
            child.set_attr("hit", false);
            let grand = child.child("probe");
            grand.finish();
            child.finish();
        }
        root.child_at(
            "groupby",
            5,
            10,
            vec![
                ("rows_in", AttrValue::Int(100)),
                ("rows_out", 3usize.into()),
            ],
        );
        root.finish();

        let trace = tracer.recent(1).remove(0);
        let root = trace.root().expect("root span");
        assert_eq!(root.name, "GET /x");
        assert_eq!(root.attr("status"), Some(&AttrValue::Int(200)));
        let kids = trace.children_of(root.id);
        assert_eq!(kids.len(), 2);
        let names: Vec<&str> = kids.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"cache_lookup"), "{names:?}");
        assert!(names.contains(&"groupby"), "{names:?}");
        let cache = kids.iter().find(|s| s.name == "cache_lookup").unwrap();
        assert_eq!(trace.children_of(cache.id).len(), 1, "grandchild probe");
        let op = kids.iter().find(|s| s.name == "groupby").unwrap();
        assert_eq!(op.start_us, 5);
        assert_eq!(op.elapsed_us, 10);
        assert_eq!(op.attr("rows_in"), Some(&AttrValue::Int(100)));
        assert_eq!(op.attr("rows_out"), Some(&AttrValue::Int(3)));
        assert_eq!(trace.duration_us(), root.elapsed_us);
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let tracer = Tracer::with_capacity(3);
        for i in 0..5u64 {
            let span = tracer
                .start_trace("req", Some(TraceId(100 + i)))
                .expect("explicit ids always trace");
            span.finish();
        }
        assert_eq!(tracer.len(), 3);
        let recent = tracer.recent(10);
        let ids: Vec<u64> = recent.iter().map(|t| t.trace_id.0).collect();
        assert_eq!(ids, vec![104, 103, 102], "newest first, oldest evicted");
        assert!(tracer.find(TraceId(100)).is_none(), "evicted");
        assert!(tracer.find(TraceId(104)).is_some());
    }

    #[test]
    fn sampling_knob_thins_generated_traces() {
        let tracer = Tracer::new();
        tracer.set_sample_one_in(0);
        assert!(tracer.start_trace("a", None).is_none(), "0 = off");
        assert!(
            tracer.start_trace("a", Some(TraceId(7))).is_none(),
            "0 drops explicit ids too"
        );
        tracer.set_sample_one_in(3);
        let sampled: usize = (0..9)
            .filter(|_| tracer.start_trace("a", None).is_some())
            .count();
        assert_eq!(sampled, 3, "one in three generated traces kept");
        assert!(
            tracer.start_trace("a", Some(TraceId(7))).is_some(),
            "explicit ids bypass thinning"
        );
    }

    #[test]
    fn a_provisional_root_asks_the_sampler_only_when_admitted() {
        let tracer = Tracer::new();
        tracer.set_sample_one_in(2);
        // Abandoned: no tick, nothing in the ring, children included.
        for _ in 0..3 {
            let root = tracer.start_provisional("a", None).unwrap();
            root.child("work").finish();
            root.abandon();
        }
        assert!(tracer.is_empty());
        // Admitted: the same 1-in-2 sequence `start_trace` would give.
        let admitted: Vec<Option<TraceId>> = (0..4)
            .map(|_| {
                let root = tracer.start_provisional("a", None)?.admit()?;
                let id = root.trace_id();
                root.finish();
                Some(id)
            })
            .collect();
        assert_eq!(
            admitted,
            vec![Some(TraceId(1)), None, Some(TraceId(2)), None]
        );
        assert_eq!(tracer.len(), 2);
        // An explicit id is admitted as it is, and abandoning it drops it.
        let root = tracer.start_provisional("a", Some(TraceId(9))).unwrap();
        root.admit().unwrap().abandon();
        assert!(tracer.find(TraceId(9)).is_none());
        tracer.set_sample_one_in(0);
        assert!(tracer.start_provisional("a", Some(TraceId(9))).is_none());
    }

    #[test]
    fn dropped_span_records_itself() {
        let tracer = Tracer::new();
        {
            let root = tracer.start_trace("req", Some(TraceId(9))).unwrap();
            let _child = root.child("work");
            // both dropped here without explicit finish
        }
        let trace = tracer.find(TraceId(9)).expect("sealed on root drop");
        // The child drops after the root here, so only the root is retained.
        assert!(trace.root().is_some());
    }

    #[test]
    fn event_log_emits_parseable_json_lines() {
        let log = EventLog::in_memory();
        log.emit(
            "slow_request",
            &[
                ("trace_id", "00000000000000ff".into()),
                ("elapsed_us", AttrValue::Int(1234)),
                ("path", "/retail/ds/\"q\"".into()),
            ],
        );
        log.emit("error", &[("status", AttrValue::Int(500))]);
        let lines = log.lines();
        assert_eq!(lines.len(), 2);
        let doc = parse_json(&lines[0]).expect("valid JSON");
        assert_eq!(
            doc.path("event").unwrap().to_value().as_str(),
            Some("slow_request")
        );
        assert_eq!(
            doc.path("trace_id").unwrap().to_value().as_str(),
            Some("00000000000000ff")
        );
        assert_eq!(
            doc.path("elapsed_us").unwrap().to_value().as_int(),
            Some(1234)
        );
        assert!(doc.path("unix_us").unwrap().to_value().as_int().unwrap() > 0);
        let doc2 = parse_json(&lines[1]).expect("valid JSON");
        assert_eq!(doc2.path("status").unwrap().to_value().as_int(), Some(500));
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn rotating_file_log_caps_size_without_losing_events() {
        let dir = std::env::temp_dir().join(format!(
            "shareinsights-rotate-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.log");
        // Each event line is ~74 bytes, so 20 events (~1.5 KiB) overflow a
        // 1 KiB cap exactly once — a second rotation would replace `.1`
        // and legitimately discard its generation, so the test stays under
        // 2 × cap and every line must survive in the live file or `.1`.
        let log = EventLog::to_file_rotating(&path, 1024).unwrap();
        for i in 0..20i64 {
            log.emit(
                "error",
                &[("seq", AttrValue::Int(i)), ("status", AttrValue::Int(500))],
            );
        }
        let live = std::fs::read_to_string(&path).unwrap();
        let rotated = std::fs::read_to_string(format!("{}.1", path.display())).unwrap_or_default();
        assert!(
            live.len() as u64 <= 1024 && rotated.len() as u64 <= 1024,
            "both files within the cap: live={} rotated={}",
            live.len(),
            rotated.len()
        );
        assert!(!rotated.is_empty(), "the cap forced a rotation");
        let all = format!("{rotated}{live}");
        for i in 0..20 {
            assert!(
                all.contains(&format!("\"seq\": {i},")),
                "event {i} lost across rotation:\n{all}"
            );
        }
        // Lines stay whole JSON objects across the boundary.
        for line in all.lines() {
            parse_json(line).expect("whole JSON line");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
