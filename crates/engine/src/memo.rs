//! The flow-output memo: each flow's output table kept under a key naming
//! everything it was computed from, so an author re-running an edited flow
//! file re-executes only the flows the edit changed (*DashQL*'s rule,
//! applied one level above the catalog's per-upload decode memo).
//!
//! A flow's **key** is a 128-bit hash of its tasks' fingerprints in
//! compiled order and its inputs — name and key — in declaration order,
//! plus every data object a `filter_by … filter_source: D.x` task reads. A
//! source's key is its namespaced configuration and the version of the
//! upload it decodes; an injected table's key is the [`Stamp`] its caller
//! gave it (the platform stamps shared objects with their publish
//! generation and a streaming dashboard's live sources with their version).
//! A flow has no key — and nor does anything downstream of it — when one
//! of these is true, and [`Uncached`] says which:
//!
//! * it reads a live source (HTTP, FTP, JDBC: no version to stamp);
//! * one of its tasks is a registry extension (custom task, custom map
//!   operator, custom aggregate) whose purity nobody declared;
//! * one of its tasks filters by a widget selection;
//! * it reads an injected table nobody stamped.
//!
//! The memo is attached only by the platform ([`ExecContext::with_memo`]):
//! tests, reference runs and benchmark replays execute from scratch, so an
//! oracle never checks the cache against itself.
//!
//! The same rule runs one level up, on the front end. Beside the flow
//! outputs, under the same lock, the memo keeps one **pipeline entry** per
//! dashboard name and flow text: the parsed [`FlowFile`] and, once a run
//! compiled it, the [`CompiledPipeline`] stamped with everything else
//! compile read ([`CompileStamp`]). A save of a
//! text the memo holds skips the parse, and a run whose stamp still holds
//! skips the compile; [`PipelineMiss`] says why one did not.
//!
//! [`ExecContext::with_memo`]: crate::exec::ExecContext::with_memo

use crate::compile::CompiledPipeline;
use parking_lot::{CacheStats, Lru, Mutex};
use shareinsights_connectors::catalog::DataObjectConfig;
use shareinsights_flowfile::ast::{FlowFile, TaskDef};
use shareinsights_flowfile::config::{ConfigMap, ConfigValue};
use shareinsights_tabular::{Schema, Table};
use std::collections::VecDeque;
use std::sync::Arc;

/// Why a flow's output is computed on every run instead of memoised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uncached {
    /// It reads a live source, which names no version.
    LiveSource,
    /// One of its tasks is a registry extension.
    ExtensionTask,
    /// One of its tasks filters by a widget selection.
    WidgetSelection,
    /// It reads an injected table that carries no stamp.
    UnstampedInput,
}

impl Uncached {
    /// The span-attribute spelling (`live_source`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Uncached::LiveSource => "live_source",
            Uncached::ExtensionTask => "extension_task",
            Uncached::WidgetSelection => "widget_selection",
            Uncached::UnstampedInput => "unstamped_input",
        }
    }
}

/// What an injected table is keyed on: a number that changes whenever the
/// table's content does, in a domain of its own, so a publish generation
/// and a live version that happen to be equal still name different keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    /// A shared object's publish generation.
    Published(u64),
    /// A streaming dashboard's live-source version, drawn from one
    /// counter for the whole platform.
    Live(u64),
}

impl Stamp {
    pub(crate) fn key(self) -> u128 {
        match self {
            Stamp::Published(generation) => Key128::new(b"published").u64(generation).finish(),
            Stamp::Live(version) => Key128::new(b"live").u64(version).finish(),
        }
    }
}

/// Why a flow text was parsed or compiled again instead of taken from
/// the memo's pipeline entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMiss {
    /// The memo never held this text under this dashboard name (or holds
    /// its parse only: no run compiled it yet).
    NewText,
    /// It was compiled at an older registration epoch.
    Epoch,
    /// The data folder took an upload since it was compiled.
    DataFolder,
    /// A shared object it resolves was published, dropped or changed
    /// schema since it was compiled.
    SharedSchema,
    /// The memo held it and evicted it.
    Evicted,
}

impl PipelineMiss {
    /// The span-attribute spelling (`new_text`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            PipelineMiss::NewText => "new_text",
            PipelineMiss::Epoch => "epoch",
            PipelineMiss::DataFolder => "data_folder",
            PipelineMiss::SharedSchema => "shared_schema",
            PipelineMiss::Evicted => "evicted",
        }
    }
}

/// What a compiled pipeline read besides its text.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileStamp {
    /// The registration epoch (see [`FlowMemo`]): the task registry's
    /// extensions are interpreted at compile time.
    pub epoch: u64,
    /// The data folder's upload count: namespaced sources and `dict:`
    /// files are read from the folder, and every upload moves it.
    pub uploads: u64,
    /// Every flow input no flow produces, with the schema of the shared
    /// object published under that name (`None`: there was none).
    pub shared: Vec<(String, Option<Schema>)>,
}

/// One pipeline entry: a text as saved, its parse, and its compile.
struct PipelineEntry {
    text: Arc<str>,
    ast: Arc<FlowFile>,
    /// The compiled pipeline with the stamp it was compiled at; `None`
    /// until a run compiles the text.
    compiled: Option<(CompileStamp, Arc<CompiledPipeline>)>,
}

/// A pipeline entry's key: the dashboard name (a parse names its
/// dashboard, and compile rewrites sources into its data-folder namespace)
/// and the text. Computed once per save or run and handed to each lookup
/// and insert. An entry keeps its text and a lookup compares it, so two
/// texts that share a key read as a miss, never as each other's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineKey(u128);

impl PipelineKey {
    /// The key of `text` saved under `dashboard`.
    pub fn new(dashboard: &str, text: &str) -> PipelineKey {
        let mut h = Key128::new(b"pipeline");
        h.str(dashboard).words(text.as_bytes());
        PipelineKey(h.finish())
    }
}

/// A flow's key, or why it has none.
pub(crate) type FlowKey = std::result::Result<u128, Uncached>;

/// Two independent 64-bit hashes over one byte stream — FNV-1a and a
/// rotate-multiply lane — read together as a 128-bit key. Every write is
/// length-prefixed, so `["ab", "c"]` and `["a", "bc"]` differ.
pub(crate) struct Key128 {
    fnv: u64,
    rot: u64,
}

impl Key128 {
    /// A hasher for one kind of thing (`b"task"`, `b"flow"`, …).
    pub(crate) fn new(domain: &[u8]) -> Key128 {
        let mut h = Key128 {
            fnv: 0xcbf2_9ce4_8422_2325,
            rot: 0x9e37_79b9_7f4a_7c15,
        };
        h.bytes(domain);
        h
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fnv = (self.fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            self.rot = (self.rot.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Key128 {
        self.raw(&v.to_le_bytes());
        self
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) -> &mut Key128 {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
        self
    }

    /// [`Key128::bytes`] eight bytes at a time, for a text of kilobytes (a
    /// flow file) where a byte-at-a-time lane costs microseconds. Each word
    /// goes into both lanes and is shifted down after the multiply, so its
    /// high bits reach the low bits the next word meets.
    fn words(&mut self, bytes: &[u8]) -> &mut Key128 {
        self.u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            self.fnv = (self.fnv ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            self.fnv ^= self.fnv >> 29;
            self.rot = (self.rot.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
            self.rot ^= self.rot >> 32;
        }
        self.raw(words.remainder());
        self
    }

    pub(crate) fn str(&mut self, s: &str) -> &mut Key128 {
        self.bytes(s.as_bytes())
    }

    pub(crate) fn u128(&mut self, v: u128) -> &mut Key128 {
        self.raw(&v.to_le_bytes());
        self
    }

    fn config(&mut self, value: &ConfigValue) {
        match value {
            ConfigValue::Scalar(s) => {
                self.u64(b's'.into()).str(s);
            }
            ConfigValue::List(items) => {
                self.u64(b'l'.into()).u64(items.len() as u64);
                for item in items {
                    self.config(item);
                }
            }
            ConfigValue::Map(map) => self.config_map(map),
        }
    }

    /// A map's entries in written order (source lines left out: moving a
    /// task in the file changes nothing it computes).
    fn config_map(&mut self, map: &ConfigMap) {
        self.u64(b'm'.into()).u64(map.len() as u64);
        for (key, value, _line) in map.entries() {
            self.str(key);
            self.config(value);
        }
    }

    /// A task definition as written: its type and every parameter. The
    /// name is left out — renaming a task does not change its output.
    pub(crate) fn task_def(def: &TaskDef) -> Key128 {
        let mut h = Key128::new(b"task");
        h.str(&def.task_type);
        h.config_map(&def.params);
        h
    }

    /// A source: everything that shapes its decode, and the upload it
    /// decodes.
    pub(crate) fn source(cfg: &DataObjectConfig, version: u64) -> u128 {
        let DataObjectConfig {
            columns,
            paths,
            source,
            protocol,
            format,
            separator,
            record_element,
            request_type,
            headers,
            params,
        } = cfg;
        let mut h = Key128::new(b"source");
        h.u64(columns.len() as u64);
        for (i, column) in columns.iter().enumerate() {
            h.str(column);
            h.str(paths.get(i).and_then(Option::as_deref).unwrap_or("\0"));
        }
        for text in [source, protocol, format, record_element, request_type] {
            h.str(text.as_deref().unwrap_or("\0"));
        }
        h.u64(separator.map_or(u64::MAX, u64::from));
        for map in [headers, params] {
            h.u64(map.len() as u64);
            for (k, v) in map {
                h.str(k).str(v);
            }
        }
        h.u64(version).finish()
    }

    pub(crate) fn finish(&self) -> u128 {
        (u128::from(self.fnv) << 64) | u128::from(self.rot)
    }
}

/// Flow outputs the memo may hold, and their total approximate size — the
/// decode memo's bounds: an author alternates between a few variants of
/// one dashboard, and past the bound the least recently run flow is
/// recomputed.
const MEMO_ENTRIES: usize = 64;
const MEMO_BYTES: usize = 64 << 20;

/// Pipeline entries the memo may hold: as many texts as flow outputs.
const PIPELINE_ENTRIES: usize = 64;
/// Keys remembered as once admitted, to tell an evicted text from a new
/// one: 16 bytes each.
const ADMITTED_KEYS: usize = 4 * PIPELINE_ENTRIES;

struct MemoInner {
    tables: Lru<u128, Table>,
    /// The newest registration epoch a run has named (see [`FlowMemo`]).
    epoch: u64,
    /// Pipeline entries by [`PipelineKey`].
    pipelines: Lru<u128, Arc<PipelineEntry>>,
    /// The keys most recently admitted to `pipelines`, oldest first.
    admitted: VecDeque<u128>,
    pipeline_hits: u64,
    pipeline_misses: u64,
}

impl MemoInner {
    /// Start a newer registration epoch: every flow output goes, and every
    /// compiled pipeline is stale by its stamp.
    fn advance(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.tables.clear();
            self.epoch = epoch;
        }
    }

    /// The entry of `text` under `key`, or why there is none.
    fn entry(&self, key: u128, text: &str) -> Result<Arc<PipelineEntry>, PipelineMiss> {
        match self.pipelines.peek(&key, 0) {
            Some(entry) if *entry.text == *text => Ok(entry),
            Some(_) => Err(PipelineMiss::NewText),
            None if self.admitted.contains(&key) => Err(PipelineMiss::Evicted),
            None => Err(PipelineMiss::NewText),
        }
    }

    /// Count a lookup's verdict; a hit also refreshes the entry's recency.
    fn count<T>(&mut self, key: u128, verdict: &Result<T, PipelineMiss>) {
        match verdict {
            Ok(_) => {
                self.pipelines.record_hit(&key, 0);
                self.pipeline_hits += 1;
            }
            Err(_) => self.pipeline_misses += 1,
        }
    }

    /// Admit `entry` under `key`, handing back the entries it displaced
    /// (the one `key` held, and the least recent past the bound) for the
    /// caller to drop once the memo lock is released: an evicted entry is
    /// an AST and a compiled pipeline, cold in cache, and freeing them took
    /// ~32 µs that the executor's flow lookups waited on.
    fn admit(&mut self, key: u128, entry: PipelineEntry) -> Vec<Arc<PipelineEntry>> {
        if self.pipelines.peek(&key, 0).is_none() {
            if self.admitted.len() == ADMITTED_KEYS {
                self.admitted.pop_front();
            }
            self.admitted.push_back(key);
        }
        self.pipelines.put_displacing(key, 0, Arc::new(entry))
    }
}

/// Flow outputs by key, shared by clones, bounded by entry count and by
/// [`Table::approx_bytes`]; and beside them the pipeline entries, bounded
/// by entry count (see the module docs).
///
/// Entries are stamped with the run's *registration epoch* — a count of
/// connector, format and task registrations the caller passes to
/// [`ExecContext::with_memo`]: replacing a decoder can change what an
/// upload decodes to without a new version. The first run at a newer
/// epoch drops every flow output and makes every compiled pipeline stale
/// (a parse does not depend on the registry, so it stays); a run that
/// started at an older one neither hits nor inserts.
///
/// [`ExecContext::with_memo`]: crate::exec::ExecContext::with_memo
#[derive(Clone)]
pub struct FlowMemo {
    inner: Arc<Mutex<MemoInner>>,
}

impl Default for FlowMemo {
    fn default() -> Self {
        FlowMemo {
            inner: Arc::new(Mutex::new(MemoInner {
                tables: Lru::weighted(MEMO_ENTRIES, MEMO_BYTES, |_, t: &Table| t.approx_bytes()),
                epoch: 0,
                pipelines: Lru::new(PIPELINE_ENTRIES),
                admitted: VecDeque::with_capacity(ADMITTED_KEYS),
                pipeline_hits: 0,
                pipeline_misses: 0,
            })),
        }
    }
}

impl FlowMemo {
    /// An empty memo.
    pub fn new() -> FlowMemo {
        FlowMemo::default()
    }

    /// Hit/miss/eviction counters, live entries and their bytes.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().tables.stats()
    }

    /// The byte bound [`FlowMemo::stats`]`().bytes` never exceeds.
    pub fn byte_bound(&self) -> usize {
        MEMO_BYTES
    }

    /// The pipeline entries' counters: lookups by saves and runs as
    /// `hits` / `misses`, live `entries` and `evictions` (no byte weight).
    pub fn pipeline_stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        let lru = inner.pipelines.stats();
        CacheStats {
            hits: inner.pipeline_hits,
            misses: inner.pipeline_misses,
            evictions: lru.evictions,
            entries: lru.entries,
            ..CacheStats::default()
        }
    }

    /// The parse of `text` as saved under `key`'s dashboard, or why the
    /// memo does not hold it.
    pub fn parsed(
        &self,
        PipelineKey(key): PipelineKey,
        text: &str,
    ) -> Result<Arc<FlowFile>, PipelineMiss> {
        let mut inner = self.inner.lock();
        let verdict = inner.entry(key, text).map(|e| Arc::clone(&e.ast));
        inner.count(key, &verdict);
        verdict
    }

    /// Keep the parse of a saved text; a run compiles it later.
    pub fn put_parsed(&self, PipelineKey(key): PipelineKey, text: Arc<str>, ast: Arc<FlowFile>) {
        let entry = PipelineEntry {
            text,
            ast,
            compiled: None,
        };
        let displaced = self.inner.lock().admit(key, entry);
        drop(displaced);
    }

    /// The pipeline `text` compiled to under `key`'s dashboard, when it
    /// was compiled at `epoch`, with the data folder at `uploads` and every
    /// shared input's schema what `shared_schema` says it is now; otherwise
    /// why not. Like a flow output's lookup, one at a newer epoch than the
    /// memo's starts that epoch.
    pub fn compiled(
        &self,
        PipelineKey(key): PipelineKey,
        text: &str,
        epoch: u64,
        uploads: u64,
        shared_schema: impl Fn(&str) -> Option<Schema>,
    ) -> Result<Arc<CompiledPipeline>, PipelineMiss> {
        let mut inner = self.inner.lock();
        inner.advance(epoch);
        let verdict = inner.entry(key, text).and_then(|entry| {
            let (stamp, pipeline) = entry.compiled.as_ref().ok_or(PipelineMiss::NewText)?;
            if stamp.epoch != epoch {
                Err(PipelineMiss::Epoch)
            } else if stamp.uploads != uploads {
                Err(PipelineMiss::DataFolder)
            } else if stamp.shared.iter().any(|(n, s)| *s != shared_schema(n)) {
                Err(PipelineMiss::SharedSchema)
            } else {
                Ok(Arc::clone(pipeline))
            }
        });
        inner.count(key, &verdict);
        verdict
    }

    /// Keep the pipeline `text` compiled to at `stamp`, unless a newer
    /// registration epoch has started since.
    pub fn put_compiled(
        &self,
        PipelineKey(key): PipelineKey,
        text: Arc<str>,
        ast: Arc<FlowFile>,
        stamp: CompileStamp,
        pipeline: Arc<CompiledPipeline>,
    ) {
        let mut inner = self.inner.lock();
        if stamp.epoch == inner.epoch {
            let entry = PipelineEntry {
                text,
                ast,
                compiled: Some((stamp, pipeline)),
            };
            let displaced = inner.admit(key, entry);
            drop(inner);
            drop(displaced);
        }
    }

    pub(crate) fn get(&self, key: u128, epoch: u64) -> Option<Table> {
        let mut inner = self.inner.lock();
        inner.advance(epoch);
        inner.tables.get(&key, epoch)
    }

    pub(crate) fn put(&self, key: u128, epoch: u64, table: Table) {
        let mut inner = self.inner.lock();
        if epoch == inner.epoch {
            inner.tables.put(key, epoch, table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(text: &str) -> PipelineEntry {
        PipelineEntry {
            text: text.into(),
            ast: Arc::new(
                shareinsights_flowfile::parse_flow_file("d", "").expect("an empty flow parses"),
            ),
            compiled: None,
        }
    }

    #[test]
    fn an_evicting_admit_returns_its_victim() {
        let memo = FlowMemo::default();
        let mut inner = memo.inner.lock();
        for key in 0..PIPELINE_ENTRIES as u128 {
            assert!(inner.admit(key, entry("t")).is_empty(), "room for {key}");
        }
        // Replacing hands back the old entry; evicting, the least recent.
        let replaced = inner.admit(7, entry("new"));
        assert_eq!(replaced.len(), 1);
        assert_eq!(&*replaced[0].text, "t");
        let victims = inner.admit(PIPELINE_ENTRIES as u128, entry("one more"));
        assert_eq!(victims.len(), 1);
        assert!(
            inner.pipelines.peek(&0, 0).is_none(),
            "key 0 was the oldest"
        );
        assert_eq!(Arc::strong_count(&victims[0]), 1, "the caller drops it");
    }
}
