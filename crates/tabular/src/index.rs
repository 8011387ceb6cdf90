//! Per-column acceleration indexes and the [`IndexedTable`] wrapper.
//!
//! Both interactive execution contexts — the widget data cube (§4.1) and the
//! data explorer's ad-hoc query route (§4.4) — repeatedly evaluate
//! filter/groupby/sort chains over an *immutable* endpoint snapshot. The
//! scan kernels in [`crate::ops`] pay a per-row dynamic-[`Value`] cost on
//! every evaluation; this module amortises that cost into a one-time,
//! lazily built index per column:
//!
//! - [`DictionaryIndex`] for `Utf8` columns: a per-row `u32` code, given
//!   in the order the rows first hold each string and never changed, the
//!   distinct strings sorted with their codes, and the rows of each
//!   string (a posting) held as row ids or as a bitmap, whichever its
//!   density makes smaller. Equality predicates become posting-list
//!   unions, range predicates become spans of that order, group-by hands
//!   the shared kernel ([`GroupByPartial`]) codes to group through a dense
//!   `code → group` table, and sort walks the postings in that order.
//! - [`ZoneIndex`] for `Int64`/`Float64`/`Date` columns: min–max bounds per
//!   fixed-size row zone. Range and equality predicates skip zones whose
//!   bounds cannot intersect the predicate and scan only candidate zones.
//!
//! [`IndexedTable`] bundles a [`Table`] with one lazily built
//! ([`OnceLock`]) index slot per column. Row filters read the indexes
//! through [`crate::expr::Expr::eval_mask_indexed`]; the group-by runs the
//! scan path's own kernel and the sort mirrors the scan sort *exactly*; both
//! return
//! `Option<Table>`: `None` means "not covered — run the scan kernel
//! instead". Callers therefore never see a behaviour difference, only a
//! latency one; the differential tests in this module and in `tests/` pin
//! that down.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::datatype::DataType;
use crate::expr::{Expr, MorselMask};
use crate::ops::groupby::{GroupBy, GroupByPartial};
use crate::ops::keys::{Buckets, KeyColumn, KeyTable, RowSel};
use crate::ops::sort::{SortKey, SortOrder};
use crate::partition::{self, Reason};
use crate::table::Table;
use crate::value::Value;
use std::collections::BTreeMap;
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Sentinel code marking a null cell in [`DictionaryIndex::codes`].
pub const NULL_CODE: u32 = crate::ops::keys::NONE;

/// A rank span's postings are unioned while they hold fewer than one row
/// in this many; past that, one pass over the codes fills the mask. Over
/// 100k rows a union cost 1.1–1.5 ns per row it holds and the pass 0.8 ns
/// per row of the column, so the two meet a little past half the rows.
const UNION_BELOW: usize = 2;

/// Rows per zone in a [`ZoneIndex`].
pub const ZONE_ROWS: usize = 4096;

/// A posting holds row ids while it covers fewer than one row in this
/// many, and a bitmap from there on: a `u32` row id costs 32 bits and a
/// bitmap one bit per row, so the two cost the same at one row in 32.
const SPARSE_BELOW: usize = 32;

/// Whether `count` rows of an `n`-row column are held as row ids.
fn sparse(count: usize, n: usize) -> bool {
    count * SPARSE_BELOW < n
}

/// The rows holding one dictionary value (or the null rows), ascending.
///
/// The container is a function of the rows and the column length alone —
/// row ids below 1/32 density, a bitmap at or above it — so an index
/// merged over appends holds exactly what a cold build over the same rows
/// holds. Both kinds sit behind an `Arc`, so a posting an append does not
/// touch is carried, not copied, and one no other index shares grows where
/// it lies.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Postings {
    /// Ascending row ids.
    Rows(Arc<Vec<u32>>),
    /// One bit per row up to the last row holding the value, and the
    /// number of bits set.
    Bits(Arc<Bitmap>, usize),
}

/// Why an append rebuilt a posting instead of growing it where it lay,
/// in ascending precedence: of several, an append reports the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rebuild {
    /// A bitmap fell below 1/32 of the rows and became row ids.
    Thinned,
    /// Row ids reached 1/32 of the rows and became a bitmap.
    Densified,
    /// Another index shared the container, so it was copied first.
    Shared,
}

impl Rebuild {
    /// The name a trace span reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Rebuild::Thinned => "thinned",
            Rebuild::Densified => "densified",
            Rebuild::Shared => "shared",
        }
    }
}

/// What an append did to the postings of the dictionaries it grew: how
/// many grew in place, how many were rebuilt, and why.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingsGrowth {
    /// Postings the appended rows were written onto in place.
    pub grown: u64,
    /// Postings rebuilt or copied whole.
    pub rebuilt: u64,
    /// Why, when any was rebuilt (see [`Rebuild`]'s precedence).
    pub reason: Option<Rebuild>,
}

impl PostingsGrowth {
    /// One posting rebuilt, for `reason`.
    fn rebuilt(reason: Rebuild) -> PostingsGrowth {
        PostingsGrowth {
            grown: 0,
            rebuilt: 1,
            reason: Some(reason),
        }
    }

    fn add(&mut self, other: PostingsGrowth) {
        self.grown += other.grown;
        self.rebuilt += other.rebuilt;
        self.reason = self.reason.max(other.reason);
    }
}

impl Postings {
    /// The container for `rows` (ascending) in an `n`-row column.
    fn of(rows: &[u32], n: usize) -> Postings {
        if sparse(rows.len(), n) {
            return Postings::Rows(Arc::new(rows.to_vec()));
        }
        let mut bits = Bitmap::new_cleared(rows.last().map_or(0, |&r| r as usize + 1));
        rows.iter().for_each(|&r| bits.set(r as usize));
        Postings::Bits(Arc::new(bits), rows.len())
    }

    /// How many rows it holds.
    fn len(&self) -> usize {
        match self {
            Postings::Rows(rows) => rows.len(),
            Postings::Bits(_, count) => *count,
        }
    }

    /// The rows, ascending.
    fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        let (ids, bits) = match self {
            Postings::Rows(rows) => (Some(rows.iter().map(|&r| r as usize)), None),
            Postings::Bits(bits, _) => (None, Some(bits.iter_ones())),
        };
        ids.into_iter().flatten().chain(bits.into_iter().flatten())
    }

    /// Set this posting's rows in `mask`.
    fn union_into(&self, mask: &mut Bitmap) {
        match self {
            Postings::Rows(rows) => rows.iter().for_each(|&r| mask.set(r as usize)),
            Postings::Bits(bits, _) => mask.or_prefix(bits),
        }
    }

    /// Grow this posting for a column now `n` rows long, `added` of them
    /// (ascending, all past its own) holding its value, into what
    /// [`Postings::of`] would build over all of its rows. A posting whose
    /// container still fits takes the added rows where it lies (row ids
    /// appended, bitmap words extended), copied first if another index
    /// shares it; one that crosses 1/32 density either way is rebuilt
    /// into the other container. Returns which of these it took.
    fn grow(&mut self, added: &[u32], n: usize) -> PostingsGrowth {
        let count = self.len() + added.len();
        let stays_sparse = sparse(count, n);
        if matches!(self, Postings::Rows(_)) != stays_sparse {
            let rows: Vec<u32> = self
                .rows()
                .map(|r| r as u32)
                .chain(added.iter().copied())
                .collect();
            *self = Postings::of(&rows, n);
            return PostingsGrowth::rebuilt(match stays_sparse {
                true => Rebuild::Thinned,
                false => Rebuild::Densified,
            });
        }
        let Some(&last) = added.last() else {
            return PostingsGrowth::default();
        };
        let shared = match self {
            Postings::Rows(rows) => {
                let shared = Arc::get_mut(rows).is_none();
                Arc::make_mut(rows).extend_from_slice(added);
                shared
            }
            Postings::Bits(bits, held) => {
                let shared = Arc::get_mut(bits).is_none();
                let bits = Arc::make_mut(bits);
                bits.extend_with(false, last as usize + 1 - bits.len());
                added.iter().for_each(|&r| bits.set(r as usize));
                *held = count;
                shared
            }
        };
        match shared {
            true => PostingsGrowth::rebuilt(Rebuild::Shared),
            false => PostingsGrowth {
                grown: 1,
                ..PostingsGrowth::default()
            },
        }
    }

    /// Heap bytes it pins, counting a shared container in full and a row
    /// id vector's spare capacity.
    fn approx_bytes(&self) -> usize {
        // An `Arc` allocation carries two reference counts.
        let counts = 2 * size_of::<usize>();
        match self {
            Postings::Rows(rows) => {
                counts + size_of::<Vec<u32>>() + rows.capacity() * size_of::<u32>()
            }
            Postings::Bits(bits, _) => {
                counts + size_of::<Bitmap>() + bits.len().div_ceil(64) * size_of::<u64>()
            }
        }
    }
}

/// Each code's rank: its place in `sorted`.
fn ranks(sorted: &[(String, u32)]) -> Vec<u32> {
    let mut rank = vec![0; sorted.len()];
    for (r, &(_, code)) in sorted.iter().enumerate() {
        rank[code as usize] = r as u32;
    }
    rank
}

/// `old` with each `(at, item)` of `fresh`, ascending in `at`, put in
/// before the item `old` holds at `at`.
fn merge<T>(old: Vec<T>, fresh: impl Iterator<Item = (usize, T)>) -> Vec<T> {
    let mut out = Vec::with_capacity(old.len());
    let mut old = old.into_iter();
    let mut from = 0;
    for (at, item) in fresh {
        out.extend(old.by_ref().take(at - from));
        out.push(item);
        from = at;
    }
    out.extend(old);
    out
}

/// The rows `rows` selects, bucketed by their codes `ids` (below
/// `cardinality`), and the rows whose code is [`NULL_CODE`].
fn bucket(ids: &[u32], rows: &RowSel, cardinality: usize) -> (Buckets, Vec<u32>) {
    let nulls = rows
        .iter()
        .zip(ids)
        .filter(|&(_, &code)| code == NULL_CODE)
        .map(|(row, _)| row as u32)
        .collect();
    (Buckets::new(ids, rows, cardinality), nulls)
}

/// Dictionary encoding of a `Utf8` column: per-row codes ([`NULL_CODE`]
/// for nulls), numbered in the order the rows first hold each string and
/// never changed, and the sort order of the strings, in which the rows of
/// each string (and of the nulls) are held in the container their density
/// picks (row ids below 1/32 of the rows, a bitmap from there on).
#[derive(Debug, Clone)]
pub struct DictionaryIndex {
    /// The distinct strings, ascending, each with its code.
    sorted: Vec<(String, u32)>,
    /// Each code's place in `sorted`.
    rank: Vec<u32>,
    codes: Vec<u32>,
    /// The rows of each string in `sorted`, by rank.
    postings: Vec<Postings>,
    nulls: Postings,
}

impl DictionaryIndex {
    /// Index a `Utf8` column.
    fn build(col: &Column) -> DictionaryIndex {
        let n = col.len();
        let every_row = RowSel::new(n, None);
        // One hash per row codes the column in first-seen order; the
        // distinct strings are then sorted once, codes beside them.
        let (coded, codes) = KeyTable::build(&[col], &every_row);
        let mut sorted = Vec::with_capacity(coded.groups());
        for (row, &code) in codes.iter().enumerate() {
            if code as usize == sorted.len() {
                sorted.push((col.str_at(row).unwrap_or_default().to_string(), code));
            }
        }
        sorted.sort_unstable();
        let (rows, nulls) = bucket(&codes, &every_row, sorted.len());
        DictionaryIndex {
            postings: sorted
                .iter()
                .map(|&(_, code)| Postings::of(rows.rows_of(code as usize), n))
                .collect(),
            nulls: Postings::of(&nulls, n),
            rank: ranks(&sorted),
            sorted,
            codes,
        }
    }

    /// Per-row dictionary codes ([`NULL_CODE`] for null cells).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of distinct non-null values.
    pub fn cardinality(&self) -> usize {
        self.sorted.len()
    }

    /// Dictionary code of `s`, if present.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        Some(self.sorted[self.rank_of(s).ok()?].1)
    }

    /// Where `s` sorts among the strings: `Ok` with its rank when it is
    /// one of them, else `Err` with the rank it would take.
    pub(crate) fn rank_of(&self, s: &str) -> Result<usize, usize> {
        self.sorted.binary_search_by(|(d, _)| d.as_str().cmp(s))
    }

    /// Rows whose cell equals any of `allowed` — the posting-list union
    /// form of `column IN (allowed)`. A `Null` in the allowed set selects
    /// the null rows; non-string values never equal a string cell.
    pub fn rows_for_values(&self, allowed: &[Value]) -> Bitmap {
        let mut mask = Bitmap::new_cleared(self.codes.len());
        for v in allowed {
            match v {
                Value::Null => self.nulls.union_into(&mut mask),
                Value::Str(s) => {
                    if let Ok(rank) = self.rank_of(s) {
                        self.postings[rank].union_into(&mut mask);
                    }
                }
                _ => {}
            }
        }
        mask
    }

    /// Rows whose string's rank lies in `ranks`. Null rows never qualify.
    pub(crate) fn rows_for_ranks(&self, ranks: Range<u32>) -> Bitmap {
        if self.rank_pass(ranks.clone()) {
            return self.ranks_over(ranks, 0..self.codes.len());
        }
        let mut mask = Bitmap::new_cleared(self.codes.len());
        self.span(ranks)
            .iter()
            .for_each(|p| p.union_into(&mut mask));
        mask
    }

    /// The postings of the strings ranked in `ranks`.
    fn span(&self, ranks: Range<u32>) -> &[Postings] {
        self.postings
            .get(ranks.start as usize..ranks.end as usize)
            .unwrap_or_default()
    }

    /// Whether [`DictionaryIndex::rows_for_ranks`] answers `ranks` with
    /// one pass over the codes rather than a union of their postings: a
    /// union touches each row the span holds; a pass over the codes reads
    /// every row, but 64 to a word.
    pub(crate) fn rank_pass(&self, ranks: Range<u32>) -> bool {
        let held: usize = self.span(ranks).iter().map(Postings::len).sum();
        held * UNION_BELOW >= self.codes.len()
    }

    /// The rows of `rows` whose string's rank lies in `ranks`, from their
    /// codes: bit `k` is row `rows.start + k`. One rank is one code.
    pub(crate) fn ranks_over(&self, ranks: Range<u32>, rows: Range<usize>) -> Bitmap {
        let mut mask = Bitmap::new_cleared(rows.len());
        let codes = &self.codes[rows];
        match self.sorted.get(ranks.start as usize..ranks.end as usize) {
            Some(&[(_, code)]) => mask.set_where(0, codes, |c| c == code),
            // NULL_CODE has no rank.
            _ => mask.set_where(0, codes, |c| {
                self.rank.get(c as usize).is_some_and(|r| ranks.contains(r))
            }),
        }
        mask
    }

    /// Heap bytes the index holds: the sorted strings and their codes,
    /// the ranks, the codes and every posting.
    fn approx_bytes(&self) -> usize {
        let sorted: usize = self
            .sorted
            .iter()
            .map(|(s, _)| size_of::<(String, u32)>() + s.len())
            .sum();
        let postings: usize = self
            .postings
            .iter()
            .chain(std::iter::once(&self.nulls))
            .map(|p| size_of::<Postings>() + p.approx_bytes())
            .sum();
        sorted + (self.rank.len() + self.codes.len()) * size_of::<u32>() + postings
    }

    /// Grow the index over the rows appended to `col` since it was built
    /// (its first `self.codes().len()` rows are the indexed ones): the
    /// incremental-maintenance path that keeps an endpoint's dictionary
    /// warm across appends. The result is *exactly* what a cold
    /// [`DictionaryIndex::build`] over the full column holds — same
    /// sorted strings, codes and postings — because codes follow
    /// first-seen order and a posting's container depends only on its rows
    /// and the row count; the differential tests pin this.
    ///
    /// One binary search per appended cell codes it; a fresh string takes
    /// the next code and an empty posting, both merged in at the rank that
    /// search found, O(distinct). No old code changes. Only the postings
    /// the rows touch grow, plus any the longer column moves below 1/32.
    fn append(&mut self, col: &Column) -> PostingsGrowth {
        let (n_old, n) = (self.codes.len(), col.len());
        // Fresh strings, ascending: their code and the rank they go in at.
        let mut fresh = BTreeMap::new();
        for row in n_old..n {
            let code = match col.str_at(row).map(|s| (s, self.rank_of(s))) {
                None => NULL_CODE,
                Some((_, Ok(rank))) => self.sorted[rank].1,
                Some((s, Err(at))) => {
                    let next = (self.sorted.len() + fresh.len()) as u32;
                    fresh.entry(s).or_insert((next, at)).0
                }
            };
            self.codes.push(code);
        }
        if !fresh.is_empty() {
            let strings = fresh
                .iter()
                .map(|(&s, &(code, at))| (at, (s.to_string(), code)));
            self.sorted = merge(std::mem::take(&mut self.sorted), strings);
            let empty = fresh.values().map(|&(_, at)| (at, Postings::of(&[], n)));
            self.postings = merge(std::mem::take(&mut self.postings), empty);
            self.rank = ranks(&self.sorted);
        }
        // Each posting grows by the appended rows holding its value; the
        // rows are bucketed by rank, the postings' order (a null has none).
        let added_ranks: Vec<u32> = self.codes[n_old..]
            .iter()
            .map(|&code| self.rank.get(code as usize).copied().unwrap_or(NULL_CODE))
            .collect();
        let appended = RowSel::Picked((n_old as u32..n as u32).collect());
        let (added, added_nulls) = bucket(&added_ranks, &appended, self.sorted.len());
        let mut growth = PostingsGrowth::default();
        for (rank, posting) in self.postings.iter_mut().enumerate() {
            growth.add(posting.grow(added.rows_of(rank), n));
        }
        growth.add(self.nulls.grow(&added_nulls, n));
        growth
    }
}

/// Min–max zone map over a numeric or date column: per fixed-size zone,
/// the smallest and largest non-null value (`None` for all-null zones).
#[derive(Debug, Clone)]
pub struct ZoneIndex {
    zone_rows: usize,
    zones: Vec<Option<(Value, Value)>>,
}

impl ZoneIndex {
    fn build(col: &Column, zone_rows: usize) -> ZoneIndex {
        let mut zones = ZoneIndex {
            zone_rows,
            zones: Vec::with_capacity(col.len().div_ceil(zone_rows.max(1))),
        };
        zones.append(col, 0);
        zones
    }

    /// Rows per zone (the last zone may be shorter).
    pub fn zone_rows(&self) -> usize {
        self.zone_rows
    }

    /// Per-zone min–max bounds (`None` for all-null zones).
    pub fn zones(&self) -> &[Option<(Value, Value)>] {
        &self.zones
    }

    /// Grow the zones (built over the first `n_old` rows of `col`) over
    /// the appended tail: complete zones are immutable and stay; only the
    /// old partial tail zone (whose bounds may widen) and the zones the
    /// new rows open are scanned. What a cold [`ZoneIndex::build`] over
    /// the full column holds, because zone boundaries depend only on row
    /// position.
    fn append(&mut self, col: &Column, n_old: usize) {
        let zone_rows = self.zone_rows.max(1);
        let n = col.len();
        self.zones.truncate(n_old / zone_rows);
        let mut start = self.zones.len() * zone_rows;
        while start < n {
            let end = (start + zone_rows).min(n);
            let mut bounds: Option<(Value, Value)> = None;
            for i in start..end {
                let v = col.value(i);
                if v.is_null() {
                    continue;
                }
                bounds = Some(match bounds.take() {
                    None => (v.clone(), v),
                    Some((lo, hi)) => {
                        let lo = if v < lo { v.clone() } else { lo };
                        let hi = if v > hi { v } else { hi };
                        (lo, hi)
                    }
                });
            }
            self.zones.push(bounds);
            start = end;
        }
    }
}

/// A per-column acceleration index.
#[derive(Debug, Clone)]
pub enum ColumnIndex {
    /// Dictionary + postings for `Utf8` columns.
    Dictionary(DictionaryIndex),
    /// Min–max zones for `Int64`/`Float64`/`Date` columns.
    Zones(ZoneIndex),
}

impl ColumnIndex {
    /// Build the index kind appropriate for the column type. `Bool` and
    /// all-null columns gain nothing from indexing and return `None`.
    pub fn build(col: &Column) -> Option<ColumnIndex> {
        match col {
            Column::Utf8 { .. } => Some(ColumnIndex::Dictionary(DictionaryIndex::build(col))),
            Column::Int64 { .. } | Column::Float64 { .. } | Column::Date { .. } => {
                Some(ColumnIndex::Zones(ZoneIndex::build(col, ZONE_ROWS)))
            }
            Column::Bool { .. } | Column::Null { .. } => None,
        }
    }

    /// Heap bytes the index holds.
    pub fn approx_bytes(&self) -> usize {
        match self {
            ColumnIndex::Dictionary(d) => d.approx_bytes(),
            // Zone bounds of numeric and date columns own no heap.
            ColumnIndex::Zones(z) => z.zones.len() * size_of::<Option<(Value, Value)>>(),
        }
    }
}

/// A table plus lazily built per-column indexes, which row filters read
/// through [`crate::expr::Expr::eval_mask_indexed`], and accelerated
/// groupby/sort kernels that decline (`None`) whenever the index does not
/// cover the requested shape.
///
/// Index builds happen at most once per column (guarded by [`OnceLock`])
/// the first time a kernel needs that column; an optional build hook
/// reports each build's duration in microseconds so callers can surface
/// build counts/latency in their own telemetry without this crate growing
/// a telemetry dependency.
pub struct IndexedTable {
    table: Table,
    slots: Vec<OnceLock<Option<Arc<ColumnIndex>>>>,
    builds: AtomicU64,
    build_us: AtomicU64,
    /// Indexes carried warm across [`IndexedTable::append`] merges (vs
    /// `builds`, which counts cold constructions).
    merges: AtomicU64,
    merge_us: AtomicU64,
    /// What the append that made this table did to the postings.
    postings: PostingsGrowth,
    #[allow(clippy::type_complexity)]
    build_hook: Option<Arc<dyn Fn(u64) + Send + Sync>>,
}

/// The indexes an [`IndexedTable`] had built, apart from its table: what
/// an append carries across the moment it owns the table's columns.
pub struct BuiltIndexes {
    /// Rows of the table they index.
    rows: usize,
    /// Each column's type in that table.
    types: Vec<DataType>,
    /// Per column: `None` when never built, else the built slot (`None`
    /// inside for an unindexable type).
    slots: Vec<Option<Option<Arc<ColumnIndex>>>>,
    #[allow(clippy::type_complexity)]
    build_hook: Option<Arc<dyn Fn(u64) + Send + Sync>>,
}

impl BuiltIndexes {
    /// Rows of the table the indexes cover.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grow every built index onto `merged` — the indexed table with rows
    /// appended — and wrap it: the one merge implementation behind
    /// [`IndexedTable::append`] and [`IndexedTable::append_merged`].
    /// Each index grows through `Arc::make_mut`, so one no other handle
    /// shares grows in place and a shared one is copied first: dictionary
    /// indexes give fresh values the next codes and grow only the
    /// postings the delta touches, zone maps rescan only the tail zone.
    /// Indexes are warm the moment the append lands, at a cost
    /// proportional to the delta and the postings it touches, and equal to
    /// a cold rebuild over `merged` (pinned by the differential tests).
    /// Columns whose type changed (e.g. Int64 widening to Float64) and
    /// never-built slots stay lazy.
    pub fn append(self, merged: Table) -> crate::error::Result<IndexedTable> {
        if merged.num_rows() < self.rows {
            return Err(crate::error::TabularError::LengthMismatch {
                left: self.rows,
                right: merged.num_rows(),
                context: "append_merged: merged table shorter than the indexed base".to_string(),
            });
        }
        let mut out = IndexedTable::with_hook(merged, self.build_hook);
        for (i, (slot, ty)) in self.slots.into_iter().zip(self.types).enumerate() {
            let Some(built) = slot else {
                continue; // never built: stays lazy
            };
            let Some(col) = out.table.columns().get(i) else {
                break;
            };
            if col.data_type() != ty {
                continue; // the append widened the type: cold rebuild applies
            }
            let started = Instant::now();
            // An unindexable type stays unindexable.
            let grown = built.map(|mut index| {
                match Arc::make_mut(&mut index) {
                    ColumnIndex::Dictionary(d) => out.postings.add(d.append(col)),
                    ColumnIndex::Zones(z) => z.append(col, self.rows),
                }
                index
            });
            if grown.is_some() {
                let us = started.elapsed().as_micros() as u64;
                out.merges.fetch_add(1, AtomicOrdering::Relaxed);
                out.merge_us.fetch_add(us, AtomicOrdering::Relaxed);
            }
            let _ = out.slots[i].set(grown);
        }
        Ok(out)
    }
}

impl std::fmt::Debug for IndexedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexedTable")
            .field("rows", &self.table.num_rows())
            .field("columns", &self.table.num_columns())
            .field("builds", &self.builds.load(AtomicOrdering::Relaxed))
            .finish()
    }
}

impl IndexedTable {
    /// Wrap a table. No indexes are built until a kernel first needs one.
    pub fn new(table: Table) -> IndexedTable {
        IndexedTable::with_hook(table, None)
    }

    /// Wrap a table with a build hook invoked with each index build's
    /// duration in microseconds.
    pub fn with_build_hook(table: Table, hook: Arc<dyn Fn(u64) + Send + Sync>) -> IndexedTable {
        IndexedTable::with_hook(table, Some(hook))
    }

    fn with_hook(table: Table, build_hook: Option<Arc<dyn Fn(u64) + Send + Sync>>) -> IndexedTable {
        let slots = (0..table.num_columns()).map(|_| OnceLock::new()).collect();
        IndexedTable {
            table,
            slots,
            builds: AtomicU64::new(0),
            build_us: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            merge_us: AtomicU64::new(0),
            postings: PostingsGrowth::default(),
            build_hook,
        }
    }

    /// Append `delta`'s rows, carrying every already built column index
    /// forward by *incremental merge* instead of dropping it: a wrapper
    /// over [`IndexedTable::append_merged`] for callers that hold only the
    /// delta. This wrapper keeps its own table and indexes.
    pub fn append(&self, delta: &Table) -> crate::error::Result<IndexedTable> {
        let merged = self.table.concat(delta)?;
        self.append_merged(merged)
    }

    /// [`IndexedTable::append`] for callers that already hold the
    /// concatenated table — e.g. a copy-on-write store whose append
    /// produced `merged = old.concat(delta)` before index maintenance
    /// runs. The indexes are cloned and grown by [`BuiltIndexes::append`],
    /// so this wrapper keeps answering over its own rows. The caller
    /// guarantees `merged`'s first `self.table().num_rows()` rows are
    /// exactly this table's rows; only the row count (and, per column,
    /// the type) is checked.
    pub fn append_merged(&self, merged: Table) -> crate::error::Result<IndexedTable> {
        let built = BuiltIndexes {
            rows: self.table.num_rows(),
            types: self.column_types(),
            slots: self.slots.iter().map(|slot| slot.get().cloned()).collect(),
            build_hook: self.build_hook.clone(),
        };
        built.append(merged)
    }

    /// Give up the table and keep the indexes built so far, so that an
    /// append can own the table's columns and grow them in place; the
    /// indexes then grow onto the appended table through
    /// [`BuiltIndexes::append`].
    pub fn into_indexes(self) -> BuiltIndexes {
        BuiltIndexes {
            rows: self.table.num_rows(),
            types: self.column_types(),
            slots: self.slots.into_iter().map(OnceLock::into_inner).collect(),
            build_hook: self.build_hook,
        }
    }

    fn column_types(&self) -> Vec<DataType> {
        self.table.columns().iter().map(|c| c.data_type()).collect()
    }

    /// `(index merges, total merge time in µs)` carried into this table
    /// by [`IndexedTable::append`].
    pub fn merge_stats(&self) -> (u64, u64) {
        (
            self.merges.load(AtomicOrdering::Relaxed),
            self.merge_us.load(AtomicOrdering::Relaxed),
        )
    }

    /// What the append that made this table did to the postings of the
    /// dictionaries it grew (all zeros for a table no append made).
    pub fn postings_growth(&self) -> PostingsGrowth {
        self.postings
    }

    /// The wrapped table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// `(index builds, total build time in µs)` so far.
    pub fn build_stats(&self) -> (u64, u64) {
        (
            self.builds.load(AtomicOrdering::Relaxed),
            self.build_us.load(AtomicOrdering::Relaxed),
        )
    }

    /// Heap bytes held by the column indexes built so far (the table's
    /// own bytes are [`Table::approx_bytes`]).
    pub fn index_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|slot| slot.get()?.as_deref())
            .map(ColumnIndex::approx_bytes)
            .sum()
    }

    /// The index for `column`, building it on first use. `None` when the
    /// column is missing or its type is not indexable.
    pub fn index(&self, column: &str) -> Option<Arc<ColumnIndex>> {
        let i = self.table.schema().index_of(column).ok()?;
        self.slots[i]
            .get_or_init(|| {
                let started = Instant::now();
                ColumnIndex::build(self.table.column_at(i)).map(|built| {
                    let us = started.elapsed().as_micros() as u64;
                    self.builds.fetch_add(1, AtomicOrdering::Relaxed);
                    self.build_us.fetch_add(us, AtomicOrdering::Relaxed);
                    if let Some(hook) = &self.build_hook {
                        hook(us);
                    }
                    Arc::new(built)
                })
            })
            .clone()
    }

    /// Accelerated [`crate::ops::groupby()`]: [`IndexedTable::groupby_selected`]
    /// over every row.
    pub fn groupby(&self, cfg: &GroupBy) -> Option<Table> {
        self.groupby_selected(cfg, None)
    }

    /// Accelerated [`crate::ops::groupby_selected`]: the same kernel, with
    /// every dictionary-indexed key column handed over as its codes, so
    /// those keys are grouped through a dense `code → group` table instead
    /// of a hash of their cells; a lone coded key is resolved row by row
    /// inside the fold, with no id vector. Offered when at least one key has a
    /// dictionary; any number of keys, null keys and every aggregate are
    /// covered, and the output is the scan kernel's by construction (one
    /// fold, one materialisation). A missing column declines, so the scan
    /// path reports the error.
    ///
    /// When every key has a dictionary, no lane sums floats and the table
    /// holds [`partition::SCAN_FLOOR`] rows or more, the fold runs morsel
    /// by morsel on the pool and the partials merge on their codes
    /// (`GroupByPartial::merge_coded`).
    pub fn groupby_selected(&self, cfg: &GroupBy, selection: Option<&Bitmap>) -> Option<Table> {
        let indexes: Vec<Option<Arc<ColumnIndex>>> =
            cfg.keys.iter().map(|k| self.index(k)).collect();
        let keys = cfg
            .keys
            .iter()
            .zip(&indexes)
            .map(|(key, index)| match index.as_deref() {
                Some(ColumnIndex::Dictionary(d)) => Some(KeyColumn::Coded {
                    codes: d.codes(),
                    cardinality: d.cardinality(),
                }),
                _ => self.table.column(key).ok().map(|c| KeyColumn::Cells(c)),
            })
            .collect::<Option<Vec<_>>>()?;
        if !keys.iter().any(|k| matches!(k, KeyColumn::Coded { .. })) {
            return None;
        }
        let coded = self.coded_keys(cfg, &indexes);
        let reason = coded.as_ref().err().copied();
        if let (Some(morsels), Ok(coded)) = (
            partition::morsels(self.table.num_rows(), partition::SCAN_FLOOR, reason),
            coded,
        ) {
            let select = Arc::new(Select::Mask(selection.cloned()));
            return self.groupby_morsels(cfg, coded, morsels, select).ok();
        }
        let mut partial = GroupByPartial::new(cfg.clone());
        partial.update_keyed(&self.table, selection, &keys).ok()?;
        partial.into_table().ok()
    }

    /// [`IndexedTable::groupby_selected`] over the rows `filter` selects,
    /// each morsel computing its own words of the mask and folding them:
    /// `(result, whether an index answered part of the filter)`. `None`
    /// when that is not on offer — the group-by or the filter would not
    /// partition, or a column is missing — and the caller evaluates the
    /// mask and then groups.
    pub fn groupby_where(&self, cfg: &GroupBy, filter: &Expr) -> Option<(Table, bool)> {
        let indexes: Vec<Option<Arc<ColumnIndex>>> =
            cfg.keys.iter().map(|k| self.index(k)).collect();
        let coded = self.coded_keys(cfg, &indexes).ok()?;
        let morsels = partition::plan(self.table.num_rows(), partition::SCAN_FLOOR).ok()?;
        let mask = filter.morsel_mask(self).ok()??;
        let select = Arc::new(Select::Where(mask));
        let table = self
            .groupby_morsels(cfg, coded, morsels, Arc::clone(&select))
            .ok()?;
        let Select::Where(mask) = select.as_ref() else {
            unreachable!("made above")
        };
        Some((table, mask.index_used()))
    }

    /// The dictionaries a partitioned group-by over `cfg`'s keys (their
    /// `indexes`) merges on, or why it keeps its single pass.
    fn coded_keys(
        &self,
        cfg: &GroupBy,
        indexes: &[Option<Arc<ColumnIndex>>],
    ) -> Result<CodedKeys, Reason> {
        let coded = CodedKeys::of(indexes, self.table.num_rows()).ok_or(Reason::UncodedKey)?;
        match cfg.partition_declines(&self.table) {
            Some(reason) => Err(reason),
            None => Ok(coded),
        }
    }

    /// The coded group-by in `morsels` morsels of the table, morsel `m`
    /// folding the rows `select` picks in it into its own partial on the
    /// pool; the partials merge in morsel order on the caller.
    fn groupby_morsels(
        &self,
        cfg: &GroupBy,
        coded: CodedKeys,
        morsels: usize,
        select: Arc<Select>,
    ) -> crate::error::Result<Table> {
        let rows = self.table.num_rows();
        let job = Arc::new((self.table.clone(), cfg.clone(), coded));
        let run = Arc::clone(&job);
        let parts = partition::map(morsels, move |m| {
            let (table, cfg, coded) = run.as_ref();
            let range = partition::range(rows, morsels, m);
            let selection = select.over(range.clone());
            let mut partial = GroupByPartial::new(cfg.clone());
            let slots = partial.update_range(table, &coded.keys(), range, selection.as_ref())?;
            let slots = slots.unwrap_or_else(|| {
                let slot = |&rep: &u32| coded.slot(rep) as u32;
                partial.reps().iter().map(slot).collect()
            });
            Ok((partial, slots))
        });
        let parts = parts
            .into_iter()
            .collect::<crate::error::Result<Vec<_>>>()?;
        GroupByPartial::merge_coded(parts, job.2.slots)?.into_table()
    }

    /// Accelerated [`crate::ops::sort()`] on a single dictionary-indexed key:
    /// [`IndexedTable::top_n`] with every row kept.
    pub fn sort(&self, keys: &[SortKey]) -> Option<Table> {
        self.top_n(keys, self.table.num_rows())
    }

    /// Accelerated [`crate::ops::sort_limit`] on a single dictionary-indexed
    /// key: walk the postings in rank order and stop after `n` row ids, so
    /// only `n` rows are ever gathered. Ascending puts nulls first, then
    /// codes ascending; descending reverses codes and puts nulls last —
    /// exactly the comparator order of the scan sort, and stable because
    /// postings yield rows in ascending input order. From
    /// [`partition::WRITE_FLOOR`] rows the gather runs one column per
    /// morsel on the pool: its reads of scattered rows miss the cache, and
    /// two threads overlap those misses (DESIGN.md §5.27).
    pub fn top_n(&self, keys: &[SortKey], n: usize) -> Option<Table> {
        if keys.len() != 1 {
            return None;
        }
        let index = self.index(&keys[0].column)?;
        let ColumnIndex::Dictionary(d) = index.as_ref() else {
            return None;
        };
        let n = n.min(self.table.num_rows());
        let mut indices = Vec::with_capacity(n);
        let ranked: Box<dyn Iterator<Item = &Postings>> = match keys[0].order {
            SortOrder::Asc => Box::new(std::iter::once(&d.nulls).chain(&d.postings)),
            SortOrder::Desc => Box::new(d.postings.iter().rev().chain(std::iter::once(&d.nulls))),
        };
        for rows in ranked {
            if indices.len() == n {
                break;
            }
            indices.extend(rows.rows().take(n - indices.len()));
        }
        if self.table.num_columns() < 2
            || partition::morsels(n, partition::WRITE_FLOOR, None).is_none()
        {
            return Some(self.table.take(&indices));
        }
        // The gather, one column per morsel: a column's fixed cost is one
        // allocation, so the morsel count is not capped like a fold's.
        let job = Arc::new((self.table.clone(), indices));
        let columns = partition::map(self.table.num_columns(), move |c| {
            let (table, indices) = job.as_ref();
            Arc::new(table.column_at(c).take(indices))
        });
        Some(self.table.with_columns(columns, n))
    }
}

/// The dictionaries of a group-by's keys, when every key has one, and a
/// dense numbering of their code combinations: the slots a partitioned
/// group-by's merge maps to groups.
struct CodedKeys {
    dicts: Vec<Arc<ColumnIndex>>,
    /// Per key, the slot step of one code; a null takes the code after
    /// the last.
    strides: Vec<usize>,
    slots: usize,
}

impl CodedKeys {
    /// `None` when a key has no dictionary, or the keys' code
    /// combinations outnumber the rows so far that a dense table of them
    /// would cost more than the group-by.
    fn of(indexes: &[Option<Arc<ColumnIndex>>], rows: usize) -> Option<CodedKeys> {
        let dicts: Vec<Arc<ColumnIndex>> = indexes
            .iter()
            .map(|ix| {
                ix.clone()
                    .filter(|ix| matches!(**ix, ColumnIndex::Dictionary(_)))
            })
            .collect::<Option<_>>()?;
        let mut strides = Vec::with_capacity(dicts.len());
        let mut slots = 1usize;
        for d in &dicts {
            strides.push(slots);
            slots = slots.checked_mul(dictionary(d).cardinality() + 1)?;
        }
        (slots <= rows.max(1 << 16) * 4).then_some(CodedKeys {
            dicts,
            strides,
            slots,
        })
    }

    /// The keys as codes, for the fold.
    fn keys(&self) -> Vec<KeyColumn<'_>> {
        self.dicts
            .iter()
            .map(|d| {
                let d = dictionary(d);
                KeyColumn::Coded {
                    codes: d.codes(),
                    cardinality: d.cardinality(),
                }
            })
            .collect()
    }

    /// The slot of the key combination at `row`.
    fn slot(&self, row: u32) -> usize {
        self.dicts
            .iter()
            .zip(&self.strides)
            .map(|(d, stride)| {
                let d = dictionary(d);
                (d.codes()[row as usize] as usize).min(d.cardinality()) * stride
            })
            .sum()
    }
}

fn dictionary(index: &ColumnIndex) -> &DictionaryIndex {
    match index {
        ColumnIndex::Dictionary(d) => d,
        ColumnIndex::Zones(_) => unreachable!("coded keys hold dictionaries"),
    }
}

/// The rows a partitioned group-by folds.
enum Select {
    /// Those a mask of the whole table sets (every row when `None`).
    Mask(Option<Bitmap>),
    /// Those a filter selects, evaluated per morsel.
    Where(MorselMask),
}

impl Select {
    /// The selection over `rows`, bit `k` for row `rows.start + k`.
    fn over(&self, rows: Range<usize>) -> Option<Bitmap> {
        match self {
            Select::Mask(mask) => Some(mask.as_ref()?.slice_aligned(rows.start, rows.len())),
            Select::Where(filter) => Some(filter.words(rows)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;
    use crate::expr::{CmpOp, Expr};
    use crate::ops::groupby::AggregateSpec;
    use crate::ops::{groupby, sort};
    use crate::row;
    use crate::schema::Schema;

    fn indexed(t: &Table) -> IndexedTable {
        IndexedTable::new(t.clone())
    }

    fn sample() -> Table {
        let mut rows = Vec::new();
        for i in 0..200i64 {
            let team = format!("t{:02}", i % 17);
            if i % 23 == 0 {
                rows.push(row![Value::Null, i, (i * 3) % 50]);
            } else {
                rows.push(row![team, i, (i * 3) % 50]);
            }
        }
        Table::from_rows(&["team", "n", "m"], &rows).unwrap()
    }

    #[test]
    fn dictionary_assigns_first_seen_codes_and_postings() {
        let t = Table::from_rows(
            &["k"],
            &[row!["b"], row!["a"], row![Value::Null], row!["b"]],
        )
        .unwrap();
        let ix = indexed(&t);
        let idx = ix.index("k").expect("utf8 indexable");
        let ColumnIndex::Dictionary(d) = idx.as_ref() else {
            panic!("expected dictionary");
        };
        let sorted = [("a".to_string(), 1), ("b".to_string(), 0)];
        assert_eq!((&d.sorted[..], &d.rank[..]), (&sorted[..], &[1, 0][..]));
        assert_eq!(d.codes(), &[0, 1, NULL_CODE, 0]);
        assert_eq!(d.code_of("a"), Some(1));
        assert_eq!(d.code_of("zz"), None);
        assert_eq!((d.rank_of("b"), d.rank_of("ab")), (Ok(1), Err(1)));
        assert_eq!(d.cardinality(), 2);
        // Build is cached: the second lookup does not rebuild.
        let _ = ix.index("k");
        assert_eq!(ix.build_stats().0, 1);
    }

    /// `column >= lo and column <= hi`, the lowering of a range selection.
    fn between(column: &str, lo: i64, hi: i64) -> Expr {
        Expr::and(
            Expr::cmp(CmpOp::Ge, Expr::col(column), Expr::lit(lo)),
            Expr::cmp(CmpOp::Le, Expr::col(column), Expr::lit(hi)),
        )
    }

    #[test]
    fn zone_index_skips_non_overlapping_zones() {
        // Two zones' worth of rows with disjoint value bands: the pruned
        // result must still match the scan exactly.
        let n = ZONE_ROWS * 2 + 17;
        let t = Table::new(
            Schema::of(&[("v", crate::datatype::DataType::Int64)]),
            vec![Column::int((0..n as i64).map(|i| i * 10))],
        )
        .unwrap();
        let ix = indexed(&t);
        let idx = ix.index("v").unwrap();
        let ColumnIndex::Zones(z) = idx.as_ref() else {
            panic!("expected zones");
        };
        assert_eq!(z.zones().len(), 3);
        let range = between("v", 50, 120);
        let (mask, used) = range.eval_mask_indexed(&ix).unwrap();
        assert!(used, "the zone map settles the second and third zones");
        assert_eq!(mask, range.eval_mask(&t).unwrap());
        assert_eq!(mask.ones(), (5..=12).collect::<Vec<_>>());
    }

    #[test]
    fn groupby_matches_scan_bit_for_bit() {
        let rows: Vec<crate::row::Row> = (0..500)
            .map(|i| row![format!("k{}", i % 37), (i % 11) as i64, (i % 7) as i64])
            .collect();
        let t = Table::from_rows(&["key", "a", "b"], &rows).unwrap();
        let ix = indexed(&t);
        for orderby in [false, true] {
            let mut cfg = GroupBy::with_aggregates(
                &["key"],
                vec![
                    AggregateSpec::new(AggKind::Sum, "a", "sum_a"),
                    AggregateSpec::new(AggKind::Count, "b", "n_b"),
                    AggregateSpec::new(AggKind::CountAll, "", "n"),
                ],
            );
            cfg.orderby_aggregates = orderby;
            let scan = groupby(&t, &cfg).unwrap();
            let fast = ix.groupby(&cfg).expect("covered");
            assert_eq!(fast, scan, "orderby={orderby}");
            assert!(fast.schema().same_shape(scan.schema()));
        }
    }

    #[test]
    fn groupby_covers_what_a_dictionary_key_reaches() {
        let t = sample(); // team has nulls
        let ix = indexed(&t);
        // Null keys, a second (numeric) key, a selection, any aggregate:
        // covered, and equal to the scan kernel.
        let mut cfgs = vec![
            GroupBy::counting(&["team"]),
            GroupBy::counting(&["team", "n"]),
            GroupBy::counting(&["n", "team"]),
        ];
        for kind in [AggKind::Avg, AggKind::Max, AggKind::CountDistinct] {
            cfgs.push(GroupBy::with_aggregates(
                &["team"],
                vec![AggregateSpec::new(kind, "n", "out")],
            ));
        }
        let mask = Bitmap::from_fn(t.num_rows(), |i| i % 3 != 0);
        for cfg in &cfgs {
            assert_eq!(ix.groupby(cfg).expect("covered"), groupby(&t, cfg).unwrap());
            assert_eq!(
                ix.groupby_selected(cfg, Some(&mask)).expect("covered"),
                crate::ops::groupby_selected(&t, cfg, Some(&mask)).unwrap(),
            );
        }
        // No dictionary-indexed key, or a missing column: declined.
        assert!(ix.groupby(&GroupBy::counting(&["n"])).is_none());
        assert!(ix.groupby(&GroupBy::counting(&["team", "nope"])).is_none());
        let cfg = GroupBy::with_aggregates(
            &["team"],
            vec![AggregateSpec::new(AggKind::Sum, "nope", "s")],
        );
        assert!(ix.groupby(&cfg).is_none());
    }

    #[test]
    fn sort_matches_scan_both_directions_with_nulls() {
        let t = sample();
        let ix = indexed(&t);
        for key in [SortKey::asc("team"), SortKey::desc("team")] {
            let scan = sort(&t, std::slice::from_ref(&key)).unwrap();
            let fast = ix.sort(std::slice::from_ref(&key)).expect("covered");
            assert_eq!(fast, scan, "{key:?}");
            // The bounded walk stops early but yields the same head.
            for n in [0, 1, 9, 199, 200, 500] {
                let head = ix.top_n(std::slice::from_ref(&key), n).expect("covered");
                assert_eq!(head, scan.limit(n), "{key:?} n={n}");
            }
        }
        // Multi-key and numeric keys decline.
        assert!(ix
            .sort(&[SortKey::asc("team"), SortKey::asc("n")])
            .is_none());
        assert!(ix.sort(&[SortKey::asc("n")]).is_none());
        assert!(ix.top_n(&[SortKey::asc("n")], 3).is_none());
    }

    #[test]
    fn empty_table_and_all_null_column_behave() {
        let t = Table::from_rows(&["k", "v"], &[]).unwrap();
        let ix = indexed(&t);
        // Empty tables infer Null columns, which are not indexable.
        assert!(ix.index("k").is_none());
        let t = Table::from_rows(
            &["k", "v"],
            &[row![Value::Null, 1i64], row![Value::Null, 2i64]],
        )
        .unwrap();
        let ix = indexed(&t);
        assert!(ix.index("k").is_none(), "all-null column is not indexable");
        let idx = ix.index("v");
        assert!(idx.is_some(), "int column gets zones");
    }

    /// The strict representation-identity check the merge path promises:
    /// a merged index must be indistinguishable from a cold rebuild down
    /// to its Debug rendering (dictionary order, code assignment,
    /// posting words, zone bounds).
    fn assert_index_identical(merged: &IndexedTable, cold: &IndexedTable, column: &str) {
        let m = merged.index(column);
        let c = cold.index(column);
        match (&m, &c) {
            (Some(m), Some(c)) => {
                assert_eq!(format!("{m:?}"), format!("{c:?}"), "column {column}")
            }
            (None, None) => {}
            other => panic!("column {column}: {other:?}"),
        }
    }

    #[test]
    fn append_merges_dictionary_byte_identically_to_cold_rebuild() {
        let base = sample();
        let ix = indexed(&base);
        // Build the indexes so the merge path has something to carry.
        let _ = ix.index("team");
        let _ = ix.index("n");
        // A delta with a mix of known values, fresh values sorting both
        // before and after the existing dictionary, and a null.
        let mut rows = Vec::new();
        for i in 0..57i64 {
            match i % 4 {
                0 => rows.push(row!["aaa-new", 1000 + i, i]),
                1 => rows.push(row![format!("t{:02}", i % 17), 1000 + i, i]),
                2 => rows.push(row!["zzz-new", 1000 + i, i]),
                _ => rows.push(row![Value::Null, 1000 + i, i]),
            }
        }
        let delta = Table::from_rows(&["team", "n", "m"], &rows).unwrap();
        let merged = ix.append(&delta).unwrap();
        assert_eq!(merged.table().num_rows(), 257);
        // Carried warm: no cold builds on the merged wrapper.
        assert_eq!(merged.merge_stats().0, 2);
        let cold = indexed(&merged.table().clone());
        for col in ["team", "n"] {
            assert_index_identical(&merged, &cold, col);
        }
        assert_eq!(merged.build_stats().0, 0, "no cold rebuilds after merge");
        // The never-built column stays lazy and still works.
        assert_index_identical(&merged, &cold, "m");
    }

    #[test]
    fn append_merged_reuses_precomputed_concat_identically() {
        let base = sample();
        let ix = indexed(&base);
        let _ = ix.index("team");
        let _ = ix.index("n");
        let rows: Vec<crate::row::Row> = (0..41i64)
            .map(|i| row![format!("m{:02}", i % 9), 2000 + i, i])
            .collect();
        let delta = Table::from_rows(&["team", "n", "m"], &rows).unwrap();
        // The caller already paid the concat (copy-on-write append):
        // append_merged must not redo it and must carry indexes warm.
        let full = base.concat(&delta).unwrap();
        let merged = ix.append_merged(full.clone()).unwrap();
        assert_eq!(merged.table().num_rows(), 241);
        assert_eq!(merged.merge_stats().0, 2);
        assert_eq!(merged.build_stats().0, 0);
        let cold = indexed(&full);
        for col in ["team", "n", "m"] {
            assert_index_identical(&merged, &cold, col);
        }
        // A "merged" table shorter than the indexed base is rejected.
        assert!(ix.append_merged(delta).is_err());
    }

    #[test]
    fn append_spans_zone_boundaries_identically() {
        let n = ZONE_ROWS + ZONE_ROWS / 2; // ends mid-zone
        let base = Table::new(
            Schema::of(&[("v", crate::datatype::DataType::Int64)]),
            vec![Column::int((0..n as i64).map(|i| (i * 7) % 1000))],
        )
        .unwrap();
        let ix = indexed(&base);
        let _ = ix.index("v");
        // Delta crosses the partial zone, completes it, and opens more.
        let delta = Table::new(
            Schema::of(&[("v", crate::datatype::DataType::Int64)]),
            vec![Column::int((0..(ZONE_ROWS * 2) as i64).map(|i| -i))],
        )
        .unwrap();
        let merged = ix.append(&delta).unwrap();
        let cold = indexed(&merged.table().clone());
        assert_index_identical(&merged, &cold, "v");
        // And the merged index answers queries like the scan path.
        let range = between("v", -10, 5);
        let (mask, _) = range.eval_mask_indexed(&merged).unwrap();
        assert_eq!(mask, range.eval_mask(merged.table()).unwrap());
    }

    #[test]
    fn append_leaves_type_widened_columns_to_cold_rebuild() {
        let base = Table::from_rows(&["v"], &[row![1i64], row![2i64]]).unwrap();
        let ix = indexed(&base);
        let _ = ix.index("v");
        // Float delta widens Int64 → Float64: the old zone bounds carry
        // Int values, so the merge declines and the column rebuilds cold.
        let delta = Table::from_rows(&["v"], &[row![2.5f64]]).unwrap();
        let merged = ix.append(&delta).unwrap();
        assert_eq!(merged.merge_stats().0, 0);
        let cold = indexed(&merged.table().clone());
        assert_index_identical(&merged, &cold, "v");
    }

    #[test]
    fn repeated_appends_stay_identical_to_cold() {
        let mut ix = indexed(&sample());
        let _ = ix.index("team");
        for round in 0..5i64 {
            let rows: Vec<crate::row::Row> = (0..13)
                .map(|i| row![format!("r{round}-{}", i % 3), round * 100 + i, i])
                .collect();
            let delta = Table::from_rows(&["team", "n", "m"], &rows).unwrap();
            ix = ix.append(&delta).unwrap();
        }
        let cold = indexed(&ix.table().clone());
        assert_index_identical(&ix, &cold, "team");
        assert_eq!(ix.table().num_rows(), 200 + 5 * 13);
    }

    /// Whether each posting of `column`'s dictionary is a bitmap.
    fn bitmap_postings(ix: &IndexedTable, column: &str) -> Vec<bool> {
        let idx = ix.index(column).expect("utf8 indexable");
        let ColumnIndex::Dictionary(d) = idx.as_ref() else {
            panic!("expected dictionary");
        };
        d.postings
            .iter()
            .map(|p| matches!(p, Postings::Bits(..)))
            .collect()
    }

    #[test]
    fn postings_follow_density_across_appends() {
        // 64 rows: `a` on 4 (1/16: a bitmap), `b` and `c` on one each
        // (row ids), `z` on the rest.
        let cell = |i: usize| match i {
            0 | 16 | 32 | 48 => "a",
            5 => "b",
            9 => "c",
            _ => "z",
        };
        let rows: Vec<crate::row::Row> = (0..64).map(|i| row![cell(i)]).collect();
        let ix = indexed(&Table::from_rows(&["k"], &rows).unwrap());
        assert_eq!(bitmap_postings(&ix, "k"), [true, false, false, true]);
        // 65 more rows, four of them `b`: untouched, `a` falls below 1/32
        // (4 of 129); `b` rises above it (5 of 129); `c` is carried as is.
        let rows: Vec<crate::row::Row> = (0..65)
            .map(|i| row![if i < 4 { "b" } else { "z" }])
            .collect();
        let merged = ix
            .append(&Table::from_rows(&["k"], &rows).unwrap())
            .unwrap();
        assert_eq!(bitmap_postings(&merged, "k"), [false, true, false, true]);
        assert_index_identical(&merged, &indexed(merged.table()), "k");
        let c_rows = |ix: &IndexedTable| match ix.index("k").as_deref() {
            Some(ColumnIndex::Dictionary(d)) => match &d.postings[2] {
                Postings::Rows(rows) => Arc::clone(rows),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        assert!(Arc::ptr_eq(&c_rows(&ix), &c_rows(&merged)));
    }

    #[test]
    fn an_unshared_posting_grows_in_place_and_a_held_one_is_copied() {
        // 40 keys, one row each per 40: every posting holds 1/40 of the
        // rows as row ids, and each 40-row append touches them all.
        let keys = |rows: Range<usize>| {
            let rows: Vec<crate::row::Row> = rows
                .map(|i| row![format!("k{:02}", i % 40), i as i64])
                .collect();
            Table::from_rows(&["k", "v"], &rows).unwrap()
        };
        let first_posting = |ix: &IndexedTable| match ix.index("k").as_deref() {
            Some(ColumnIndex::Dictionary(d)) => match &d.postings[0] {
                Postings::Rows(rows) => Arc::as_ptr(rows),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        let base = keys(0..400);
        let ix = indexed(&base);
        let before = first_posting(&ix);
        let grown_table = base.concat(&keys(400..440)).unwrap();
        let grown = ix.into_indexes().append(grown_table.clone()).unwrap();
        assert_eq!(first_posting(&grown), before, "grown where it lay");
        let all_grown = PostingsGrowth {
            grown: 40,
            rebuilt: 0,
            reason: None,
        };
        assert_eq!(grown.postings_growth(), all_grown);

        // A wrapper still held keeps its postings: the append copies them.
        let next = grown
            .append_merged(grown_table.concat(&keys(440..480)).unwrap())
            .unwrap();
        assert_ne!(first_posting(&next), first_posting(&grown));
        let all_copied = PostingsGrowth {
            grown: 0,
            rebuilt: 40,
            reason: Some(Rebuild::Shared),
        };
        assert_eq!(next.postings_growth(), all_copied);
        assert_index_identical(&next, &indexed(next.table()), "k");
        // The held wrapper still answers over its own 440 rows.
        let listed = vec![Value::from("k03"), Value::from("k17")];
        let filter = Expr::InList(Box::new(Expr::col("k")), listed);
        let (mask, _) = filter.eval_mask_indexed(&grown).unwrap();
        assert_eq!(mask, filter.eval_mask(&grown_table).unwrap());
        assert_eq!(mask.count_ones(), 22);
        for key in [SortKey::asc("k"), SortKey::desc("k")] {
            let scan = sort(&grown_table, std::slice::from_ref(&key)).unwrap();
            for n in [1, 11, 440, 500] {
                let head = grown.top_n(std::slice::from_ref(&key), n).expect("covered");
                assert_eq!(head, scan.limit(n), "{key:?} n={n}");
            }
        }
    }

    #[test]
    fn a_fresh_key_sorting_first_moves_no_code_and_grows_the_codes_in_place() {
        let keys = |rows: Range<usize>| {
            let rows: Vec<crate::row::Row> = rows
                .map(|i| row![format!("k{:02}", i % 40), i as i64])
                .collect();
            Table::from_rows(&["k", "v"], &rows).unwrap()
        };
        let codes = |ix: &IndexedTable| match ix.index("k").as_deref() {
            Some(ColumnIndex::Dictionary(d)) => (d.codes().to_vec(), d.codes().as_ptr()),
            other => panic!("{other:?}"),
        };
        let base = keys(0..400);
        let ix = indexed(&base);
        let _ = ix.index("k");
        // A first append gives the codes room to grow.
        let warm = base.concat(&keys(400..440)).unwrap();
        let ix = ix.into_indexes().append(warm.clone()).unwrap();
        let (before, at) = codes(&ix);
        // `a` sorts before every `k..` string.
        let fresh = [row!["a", 0i64], row!["k05", 1i64], row!["a", 2i64]];
        let fresh = warm.concat(&Table::from_rows(&["k", "v"], &fresh).unwrap());
        let grown = ix.into_indexes().append(fresh.unwrap()).unwrap();
        let (after, grown_at) = codes(&grown);
        assert_eq!(after[..before.len()], before[..], "old codes kept");
        assert_eq!(after[before.len()..], [40, 5, 40]);
        assert_eq!(grown_at, at, "the codes grew where they lay");
        let first = vec![Value::from("a")];
        let filter = Expr::InList(Box::new(Expr::col("k")), first);
        let (mask, _) = filter.eval_mask_indexed(&grown).unwrap();
        assert_eq!(mask.ones(), [440, 442]);
        assert_index_identical(&grown, &indexed(grown.table()), "k");
    }

    #[test]
    fn index_bytes_follow_the_rows_held() {
        // A 100k-row column over 5,000 keys, about 20 rows each: one
        // 100k-bit bitmap per key would be 62.5 MB.
        let n = 100_000;
        let t = Table::new(
            Schema::of(&[("key", crate::datatype::DataType::Utf8)]),
            vec![Column::utf8(
                (0..n).map(|i| format!("k{:05}", (i * 7919) % 5000)),
            )],
        )
        .unwrap();
        let ix = indexed(&t);
        assert_eq!(ix.index_bytes(), 0, "nothing built yet");
        let _ = ix.index("key");
        let bytes = ix.index_bytes();
        assert!(bytes > n * size_of::<u32>(), "the codes alone: {bytes}");
        assert!(bytes < 2 << 20, "{bytes} bytes");
    }

    #[test]
    fn build_hook_reports_builds() {
        use std::sync::atomic::AtomicUsize;
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let ix = IndexedTable::with_build_hook(
            sample(),
            Arc::new(move |_us| {
                seen.fetch_add(1, AtomicOrdering::Relaxed);
            }),
        );
        let _ = ix.index("team");
        let _ = ix.index("team");
        let _ = ix.index("n");
        assert_eq!(calls.load(AtomicOrdering::Relaxed), 2);
        assert_eq!(ix.build_stats().0, 2);
    }
}
