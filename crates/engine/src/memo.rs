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
//! [`ExecContext::with_memo`]: crate::exec::ExecContext::with_memo

use parking_lot::{CacheStats, Lru, Mutex};
use shareinsights_connectors::catalog::DataObjectConfig;
use shareinsights_flowfile::ast::TaskDef;
use shareinsights_flowfile::config::{ConfigMap, ConfigValue};
use shareinsights_tabular::Table;
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

struct MemoInner {
    tables: Lru<u128, Table>,
    /// The newest registration epoch a run has named (see [`FlowMemo`]).
    epoch: u64,
}

/// Flow outputs by key, shared by clones, bounded by entry count and by
/// [`Table::approx_bytes`].
///
/// Entries are stamped with the run's *registration epoch* — a count of
/// connector, format and task registrations the caller passes to
/// [`ExecContext::with_memo`]: replacing a decoder can change what an
/// upload decodes to without a new version. The first run at a newer
/// epoch drops everything; a run that started at an older one neither
/// hits nor inserts.
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

    pub(crate) fn get(&self, key: u128, epoch: u64) -> Option<Table> {
        let mut inner = self.inner.lock();
        if epoch > inner.epoch {
            inner.tables.clear();
            inner.epoch = epoch;
        }
        inner.tables.get(&key, epoch)
    }

    pub(crate) fn put(&self, key: u128, epoch: u64, table: Table) {
        let mut inner = self.inner.lock();
        if epoch == inner.epoch {
            inner.tables.put(key, epoch, table);
        }
    }
}
