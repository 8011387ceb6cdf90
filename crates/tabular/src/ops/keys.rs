//! Key coding: the one way a kernel turns key columns into groups.
//!
//! Group-by, join, distinct, top-n and the low-cardinality maps all ask the
//! same question — "which rows carry the same key?" — and all get the same
//! answer from here: a dense `u32` group id per row. A [`KeyTable`] codes
//! each key column from its typed buffer (a borrowed `&str`, an `i64`
//! word, a dictionary code that is already there) and folds the per-column
//! codes into one id per row; [`group_ids`] is the one-shot form.
//!
//! # Contract
//!
//! * **Equality.** Two cells of one column are the same key iff
//!   `Value::eq` says so for that column's type: strings bytewise,
//!   integers, dates and bools by value (an `i64` is hashed as an `i64`,
//!   so keys above 2^53 stay apart), floats by their IEEE total-order key
//!   (`-0.0` and `+0.0` differ, a NaN equals the same NaN). A multi-column
//!   key is equal when every column is.
//! * **Nulls.** Under [`group_ids`] a null cell is a key like any other:
//!   all nulls of a column fall in one group. Under [`KeyTable::build`] /
//!   [`KeyTable::probe`] (joins) a row with a null in any key column gets
//!   [`NONE`] and matches nothing.
//! * **Order.** Ids are handed out in first-seen order over the rows in
//!   ascending row order, so `reps[g]` — the first row of group `g` — is
//!   ascending too.
//! * **Cost.** Nothing allocates per row: one `u32` per coded row, plus
//!   dictionaries that grow with the number of distinct keys.

use crate::bitmap::Bitmap;
use crate::column::{Column, NO_ROW};
use crate::datatype::DataType;
use crate::value::Value;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// "No group" in an id vector, "no row" in a row-id vector
/// ([`NO_ROW`]), and the code of a null cell in a dictionary-coded column.
pub const NONE: u32 = NO_ROW;

/// Largest `groups × codes` product folded through a dense table instead
/// of a hash map (256 KiB of `u32`).
const DENSE_PAIRS: u64 = 1 << 16;

/// The hasher behind every key dictionary: one folded 64×64→128-bit
/// multiply per eight bytes. SipHash, std's default, was half the time of
/// a group-by over short string keys. Keys here come from uploaded data,
/// so the state starts from a per-process random seed — a collision set
/// cannot be prepared ahead of time — and no output depends on the seed:
/// ids follow first-seen order, never map iteration order.
#[derive(Clone, Copy)]
struct FoldHasher(u64);

const FOLD_A: u64 = 0x9E37_79B9_7F4A_7C15;
const FOLD_B: u64 = 0xD1B5_4A32_D192_ED03;

#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

impl Hasher for FoldHasher {
    /// Every byte is read exactly as often as it takes to cover the slice
    /// with whole words: the last word overlaps the one before it instead
    /// of being copied into a padded buffer. With the length folded in
    /// first, the words read determine the bytes.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        let word =
            |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte slice"));
        let half = |at: usize| {
            u64::from(u32::from_le_bytes(
                bytes[at..at + 4].try_into().expect("a 4-byte slice"),
            ))
        };
        let mut state = self.0 ^ (len as u64).wrapping_mul(FOLD_B);
        if len >= 8 {
            let mut at = 0;
            while at + 8 < len {
                state = fold(state ^ word(at), FOLD_A);
                at += 8;
            }
            state = fold(state ^ word(len - 8), FOLD_B);
        } else if len >= 4 {
            state = fold(state ^ (half(0) | half(len - 4) << 32), FOLD_B);
        } else if len > 0 {
            let (a, b, c) = (bytes[0], bytes[len / 2], bytes[len - 1]);
            let few = u64::from(a) | u64::from(b) << 8 | u64::from(c) << 16;
            state = fold(state ^ few, FOLD_B);
        }
        self.0 = state;
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = fold(self.0 ^ x, FOLD_A);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FoldHasher`]s that start from the process seed.
#[derive(Clone, Copy)]
struct FoldState(u64);

impl Default for FoldState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        FoldState(*SEED.get_or_init(|| RandomState::new().build_hasher().finish()))
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

type FoldMap<K> = HashMap<K, u32, FoldState>;

/// The rows a kernel runs over, in ascending order: every row of a table
/// or the set bits of a selection mask, resolved once to row ids.
#[derive(Debug, Clone)]
pub enum RowSel {
    /// Rows `0..n`.
    All(usize),
    /// The listed rows, ascending.
    Picked(Vec<u32>),
}

impl RowSel {
    /// Every row of a `rows`-row table, or those set in `selection`.
    ///
    /// # Panics
    /// Panics when the table has `u32::MAX` rows or more (row ids are
    /// `u32` with [`NONE`] reserved).
    pub fn new(rows: usize, selection: Option<&Bitmap>) -> RowSel {
        assert!(rows < NONE as usize, "{rows} rows do not fit u32 row ids");
        match selection {
            Some(mask) => RowSel::Picked(mask.iter_ones().map(|i| i as u32).collect()),
            None => RowSel::All(rows),
        }
    }

    /// How many rows are selected.
    pub fn len(&self) -> usize {
        match self {
            RowSel::All(n) => *n,
            RowSel::Picked(rows) => rows.len(),
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `out.extend` of `f(row)` over the selected rows, ascending: one
    /// loop per variant, so the row source is not re-examined per row.
    fn map_into(&self, out: &mut Vec<u32>, mut f: impl FnMut(usize) -> u32) {
        match self {
            RowSel::All(n) => out.extend((0..*n).map(f)),
            RowSel::Picked(rows) => out.extend(rows.iter().map(|&row| f(row as usize))),
        }
    }

    /// The selected rows, ascending.
    pub fn iter(&self) -> RowIter<'_> {
        match self {
            RowSel::All(n) => RowIter::All(0..*n),
            RowSel::Picked(rows) => RowIter::Picked(rows.iter()),
        }
    }
}

/// Iterator over a [`RowSel`].
pub enum RowIter<'a> {
    /// A contiguous range.
    All(std::ops::Range<usize>),
    /// Listed rows.
    Picked(std::slice::Iter<'a, u32>),
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            RowIter::All(range) => range.next(),
            RowIter::Picked(rows) => rows.next().map(|&r| r as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RowIter::All(range) => range.size_hint(),
            RowIter::Picked(rows) => rows.size_hint(),
        }
    }
}

/// One key column as a kernel hands it over.
#[derive(Debug, Clone, Copy)]
pub enum KeyColumn<'a> {
    /// Code the cells of a typed column.
    Cells(&'a Column),
    /// The column already carries codes (a
    /// [`DictionaryIndex`](crate::index::DictionaryIndex)): `codes[row]`
    /// is below `cardinality`, equal codes mean equal cells, and [`NONE`]
    /// marks a null. No hashing: a dense `code → id` table.
    Coded {
        /// Per-row codes.
        codes: &'a [u32],
        /// One more than the largest code.
        cardinality: usize,
    },
}

/// The fixed-width word a non-string cell is keyed by. Within one column
/// type the mapping is injective and keeps [`Value::cmp`]'s order, so the
/// typed predicate and extreme kernels compare words; [`Coder::ty`] keeps
/// types apart.
pub(crate) trait Word: Copy {
    /// The cell's word.
    fn word(self) -> i64;
}
impl Word for i64 {
    #[inline]
    fn word(self) -> i64 {
        self
    }
}
impl Word for f64 {
    #[inline]
    fn word(self) -> i64 {
        Value::float_key(self)
    }
}
impl Word for i32 {
    #[inline]
    fn word(self) -> i64 {
        i64::from(self)
    }
}
impl Word for bool {
    #[inline]
    fn word(self) -> i64 {
        i64::from(self)
    }
}

/// A string cell as a dictionary key. `str`'s own `Hash` appends a `0xff`
/// terminator, a second multiply per cell; [`FoldHasher::write`] folds the
/// length in, which makes the encoding prefix-free already.
#[derive(Clone, Copy, PartialEq, Eq)]
struct StrKey<'a>(&'a str);

impl Hash for StrKey<'_> {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.0.as_bytes());
    }
}

/// `cell → code` for one key column.
enum Dict<'a> {
    Str(FoldMap<StrKey<'a>>),
    Word(FoldMap<i64>),
    /// Nothing a probe could find: an all-null column, or codes the caller
    /// brought (only [`group_ids`] takes those, and it keeps no table).
    Empty,
}

/// Whether null cells form a group or match nothing.
#[derive(Clone, Copy)]
enum Nulls {
    Group,
    NeverMatch,
}

struct Coder<'a> {
    dict: Dict<'a>,
    /// Type of the column the dictionary was built from; a probe column
    /// of another type matches nothing.
    ty: DataType,
    /// Codes handed out, the null group's included.
    groups: u32,
}

/// Hands out codes in first-seen order; the null group gets its code the
/// first time a null is met.
struct Codes {
    nulls: Nulls,
    null: u32,
    next: u32,
}

impl Codes {
    #[inline]
    fn fresh(&mut self) -> u32 {
        let code = self.next;
        self.next += 1;
        code
    }

    #[inline]
    fn null(&mut self) -> u32 {
        match self.nulls {
            Nulls::NeverMatch => NONE,
            Nulls::Group => {
                if self.null == NONE {
                    self.null = self.fresh();
                }
                self.null
            }
        }
    }
}

impl<'a> Coder<'a> {
    /// Code the selected cells of `col`, growing the dictionary.
    fn build(col: KeyColumn<'a>, rows: &RowSel, nulls: Nulls) -> (Coder<'a>, Vec<u32>) {
        let mut codes = Codes {
            nulls,
            null: NONE,
            next: 0,
        };
        let mut out = Vec::with_capacity(rows.len());
        let (dict, ty) = match col {
            KeyColumn::Coded {
                codes: source,
                cardinality,
            } => {
                let mut table = vec![NONE; cardinality];
                rows.map_into(&mut out, |row| match source[row] {
                    NONE => codes.null(),
                    code => {
                        let slot = &mut table[code as usize];
                        if *slot == NONE {
                            *slot = codes.fresh();
                        }
                        *slot
                    }
                });
                (Dict::Empty, DataType::Utf8)
            }
            KeyColumn::Cells(c) => {
                let dict = match c {
                    Column::Utf8 { data, validity } => {
                        Dict::Str(insert_cells(rows, validity, &mut codes, &mut out, |i| {
                            StrKey(&data[i])
                        }))
                    }
                    Column::Int64 { data, validity } => {
                        Dict::Word(insert_cells(rows, validity, &mut codes, &mut out, |i| {
                            data[i].word()
                        }))
                    }
                    Column::Float64 { data, validity } => {
                        Dict::Word(insert_cells(rows, validity, &mut codes, &mut out, |i| {
                            data[i].word()
                        }))
                    }
                    Column::Date { data, validity } => {
                        Dict::Word(insert_cells(rows, validity, &mut codes, &mut out, |i| {
                            data[i].word()
                        }))
                    }
                    Column::Bool { data, validity } => {
                        Dict::Word(insert_cells(rows, validity, &mut codes, &mut out, |i| {
                            data[i].word()
                        }))
                    }
                    Column::Null { .. } => {
                        rows.map_into(&mut out, |_| codes.null());
                        Dict::Empty
                    }
                };
                (dict, c.data_type())
            }
        };
        let coder = Coder {
            dict,
            ty,
            groups: codes.next,
        };
        (coder, out)
    }

    /// Look the selected cells of `col` up without growing the dictionary;
    /// nulls, unseen cells and cells of another type get [`NONE`].
    fn probe(&self, col: &Column, rows: &RowSel) -> Vec<u32> {
        if col.data_type() != self.ty {
            return vec![NONE; rows.len()];
        }
        match (col, &self.dict) {
            (Column::Utf8 { data, validity }, Dict::Str(map)) => {
                lookup_cells(map, rows, validity, |i| StrKey(&data[i]))
            }
            (Column::Int64 { data, validity }, Dict::Word(map)) => {
                lookup_cells(map, rows, validity, |i| data[i].word())
            }
            (Column::Float64 { data, validity }, Dict::Word(map)) => {
                lookup_cells(map, rows, validity, |i| data[i].word())
            }
            (Column::Date { data, validity }, Dict::Word(map)) => {
                lookup_cells(map, rows, validity, |i| data[i].word())
            }
            (Column::Bool { data, validity }, Dict::Word(map)) => {
                lookup_cells(map, rows, validity, |i| data[i].word())
            }
            // An all-null column on either side matches nothing.
            _ => vec![NONE; rows.len()],
        }
    }
}

/// Code the selected cells `cell(row)` into `out`, returning the
/// dictionary that was grown.
fn insert_cells<K: Hash + Eq>(
    rows: &RowSel,
    validity: &Bitmap,
    codes: &mut Codes,
    out: &mut Vec<u32>,
    cell: impl Fn(usize) -> K,
) -> FoldMap<K> {
    let mut map = FoldMap::default();
    let validity = (!validity.all_set()).then_some(validity);
    rows.map_into(out, |row| {
        if validity.is_some_and(|v| !v.get(row)) {
            codes.null()
        } else {
            *map.entry(cell(row)).or_insert_with(|| codes.fresh())
        }
    });
    map
}

fn lookup_cells<K: Hash + Eq>(
    map: &FoldMap<K>,
    rows: &RowSel,
    validity: &Bitmap,
    cell: impl Fn(usize) -> K,
) -> Vec<u32> {
    let validity = (!validity.all_set()).then_some(validity);
    let mut out = Vec::with_capacity(rows.len());
    rows.map_into(&mut out, |row| {
        if validity.is_some_and(|v| !v.get(row)) {
            NONE
        } else {
            map.get(&cell(row)).copied().unwrap_or(NONE)
        }
    });
    out
}

/// `(id so far, code of the next column) → id`.
enum Combine {
    /// Mixed radix: slot `id * radix + code`, [`NONE`] until first seen.
    Dense { radix: u32, table: Vec<u32> },
    /// `id << 32 | code`.
    Hashed(FoldMap<u64>),
}

impl Combine {
    /// Fold `codes` (below `radix`) into `ids` (below `groups`) in place,
    /// handing out new ids in first-seen order; returns how many.
    fn build(ids: &mut [u32], groups: u32, codes: &[u32], radix: u32) -> (Combine, u32) {
        let mut next = 0u32;
        let mut fresh = || {
            let id = next;
            next += 1;
            id
        };
        let combine = if u64::from(groups) * u64::from(radix) <= DENSE_PAIRS {
            let mut table = vec![NONE; (groups * radix) as usize];
            for (id, &code) in ids.iter_mut().zip(codes) {
                if *id != NONE && code != NONE {
                    let slot = &mut table[(*id * radix + code) as usize];
                    if *slot == NONE {
                        *slot = fresh();
                    }
                    *id = *slot;
                } else {
                    *id = NONE;
                }
            }
            Combine::Dense { radix, table }
        } else {
            let mut map = FoldMap::default();
            for (id, &code) in ids.iter_mut().zip(codes) {
                *id = if *id != NONE && code != NONE {
                    *map.entry(u64::from(*id) << 32 | u64::from(code))
                        .or_insert_with(&mut fresh)
                } else {
                    NONE
                };
            }
            Combine::Hashed(map)
        };
        (combine, next)
    }

    /// Fold `codes` into `ids` in place through the pairs seen at build
    /// time; an unseen pair is [`NONE`].
    fn probe(&self, ids: &mut [u32], codes: &[u32]) {
        for (id, &code) in ids.iter_mut().zip(codes) {
            *id = if *id == NONE || code == NONE {
                NONE
            } else {
                match self {
                    Combine::Dense { radix, table } => table[(*id * radix + code) as usize],
                    Combine::Hashed(map) => map
                        .get(&(u64::from(*id) << 32 | u64::from(code)))
                        .copied()
                        .unwrap_or(NONE),
                }
            };
        }
    }
}

/// The keys of one set of rows, coded, and kept so that other rows can be
/// looked up against them: the build side of a join. See the
/// [module docs](self) for the contract.
pub struct KeyTable<'a> {
    coders: Vec<Coder<'a>>,
    /// `combines[k]` folds column `k + 1` into the id over columns `..=k`.
    combines: Vec<Combine>,
    groups: u32,
}

impl<'a> KeyTable<'a> {
    /// Code the selected rows of the key columns `cols`. Returns the table
    /// and one id per selected row: [`NONE`] for a row with a null key
    /// cell, otherwise dense ids in first-seen order. No key columns at
    /// all puts every row in group 0.
    pub fn build(cols: &[&'a Column], rows: &RowSel) -> (KeyTable<'a>, Vec<u32>) {
        let cols: Vec<KeyColumn<'a>> = cols.iter().map(|c| KeyColumn::Cells(c)).collect();
        KeyTable::code(&cols, rows, Nulls::NeverMatch)
    }

    fn code(cols: &[KeyColumn<'a>], rows: &RowSel, nulls: Nulls) -> (KeyTable<'a>, Vec<u32>) {
        let Some((&first, rest)) = cols.split_first() else {
            // No key columns: every row is in group 0.
            let table = KeyTable {
                coders: Vec::new(),
                combines: Vec::new(),
                groups: u32::from(!rows.is_empty()),
            };
            return (table, vec![0; rows.len()]);
        };
        let (coder, mut ids) = Coder::build(first, rows, nulls);
        let mut table = KeyTable {
            groups: coder.groups,
            coders: vec![coder],
            combines: Vec::with_capacity(rest.len()),
        };
        for &col in rest {
            let (coder, codes) = Coder::build(col, rows, nulls);
            let (combine, groups) = Combine::build(&mut ids, table.groups, &codes, coder.groups);
            table.coders.push(coder);
            table.combines.push(combine);
            table.groups = groups;
        }
        (table, ids)
    }

    /// The id each selected row of `cols` — the same key columns on
    /// another table, of the same types — would have had at build time,
    /// [`NONE`] when its key was not seen there or holds a null.
    ///
    /// # Panics
    /// Panics when `cols` does not have one column per build column.
    pub fn probe(&self, cols: &[&Column], rows: &RowSel) -> Vec<u32> {
        assert_eq!(cols.len(), self.coders.len(), "probe key arity");
        let Some((first, rest)) = self.coders.split_first() else {
            return vec![if self.groups == 0 { NONE } else { 0 }; rows.len()];
        };
        let mut ids = first.probe(cols[0], rows);
        for ((coder, combine), col) in rest.iter().zip(&self.combines).zip(&cols[1..]) {
            combine.probe(&mut ids, &coder.probe(col, rows));
        }
        ids
    }

    /// Distinct non-null keys seen at build time.
    pub fn groups(&self) -> usize {
        self.groups as usize
    }
}

/// Dense group ids for a set of rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupIds {
    /// One id per selected row, in ascending row order.
    pub ids: Vec<u32>,
    /// `reps[g]` is the first row of group `g`; ascending.
    pub reps: Vec<u32>,
}

/// Group the selected rows by the key columns `cols` (null cells group
/// together; no columns at all is one group). See the
/// [module docs](self) for the contract.
pub fn group_ids(cols: &[KeyColumn<'_>], rows: &RowSel) -> GroupIds {
    let (table, ids) = KeyTable::code(cols, rows, Nulls::Group);
    // Ids are first-seen ordered, so group `g` starts at the first row
    // whose id is exactly the number of groups seen before it.
    let mut reps = Vec::with_capacity(table.groups());
    for (row, &id) in rows.iter().zip(&ids) {
        if id as usize == reps.len() {
            reps.push(row as u32);
        }
    }
    GroupIds { ids, reps }
}

/// Rows bucketed by group: `rows_of(g)` lists group `g`'s rows ascending
/// (a counting sort of the id vector).
pub struct Buckets {
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Buckets {
    /// Bucket `rows` by their `ids` (below `groups`); rows whose id is
    /// [`NONE`] are left out.
    pub fn new(ids: &[u32], rows: &RowSel, groups: usize) -> Buckets {
        let mut starts = vec![0u32; groups + 1];
        for &id in ids.iter().filter(|&&id| id != NONE) {
            starts[id as usize + 1] += 1;
        }
        for g in 0..groups {
            starts[g + 1] += starts[g];
        }
        let mut fill = starts.clone();
        let mut bucketed = vec![0u32; starts[groups] as usize];
        for (row, &id) in rows.iter().zip(ids) {
            if id != NONE {
                bucketed[fill[id as usize] as usize] = row as u32;
                fill[id as usize] += 1;
            }
        }
        Buckets {
            starts,
            rows: bucketed,
        }
    }

    /// The rows of group `g`, ascending.
    pub fn rows_of(&self, g: usize) -> &[u32] {
        &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::table::Table;

    fn cells(table: &Table) -> Vec<KeyColumn<'_>> {
        table
            .columns()
            .iter()
            .map(|c| KeyColumn::Cells(c))
            .collect()
    }

    #[test]
    fn ids_are_first_seen_and_nulls_group() {
        let t = Table::from_rows(
            &["k"],
            &[
                row!["b"],
                row![Value::Null],
                row!["a"],
                row!["b"],
                row![Value::Null],
            ],
        )
        .unwrap();
        let g = group_ids(&cells(&t), &RowSel::new(5, None));
        assert_eq!(g.ids, [0, 1, 2, 0, 1]);
        assert_eq!(g.reps, [0, 1, 2]);
        // A selection renumbers: ids follow the selected rows only.
        let mask = Bitmap::from_bools(&[false, true, true, false, true]);
        let g = group_ids(&cells(&t), &RowSel::new(5, Some(&mask)));
        assert_eq!(g.ids, [0, 1, 0]);
        assert_eq!(g.reps, [1, 2]);
    }

    #[test]
    fn integers_above_2_pow_53_stay_apart() {
        // `Value`'s `Hash` funnels ints through f64, where these three
        // collide; the coder hashes the i64 itself.
        let base = 1i64 << 53;
        let t = Table::from_rows(
            &["k"],
            &[row![base], row![base + 1], row![base + 2], row![base + 1]],
        )
        .unwrap();
        let g = group_ids(&cells(&t), &RowSel::new(4, None));
        assert_eq!(g.ids, [0, 1, 2, 1]);
    }

    #[test]
    fn floats_group_by_total_order_key() {
        let t = Table::from_rows(
            &["k"],
            &[
                row![0.0],
                row![-0.0],
                row![f64::NAN],
                row![f64::NAN],
                row![0.0],
            ],
        )
        .unwrap();
        let g = group_ids(&cells(&t), &RowSel::new(5, None));
        assert_eq!(g.ids, [0, 1, 2, 2, 0]);
    }

    #[test]
    fn several_keys_fold_dense_and_hashed_alike() {
        // 300 × 300 distinct pairs exceeds the dense bound; 3 × 4 does not.
        for (a, b, n) in [(3usize, 4usize, 40usize), (300, 300, 2000)] {
            let rows: Vec<crate::row::Row> = (0..n)
                .map(|i| row![format!("a{}", (i * 7) % a), ((i * 13) % b) as i64])
                .collect();
            let t = Table::from_rows(&["a", "b"], &rows).unwrap();
            let g = group_ids(&cells(&t), &RowSel::new(n, None));
            let mut seen: Vec<crate::row::Row> = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                let want = seen.iter().position(|r| r == row).unwrap_or_else(|| {
                    seen.push(row.clone());
                    seen.len() - 1
                });
                assert_eq!(g.ids[i] as usize, want, "row {i} of {a}x{b}");
            }
            assert_eq!(g.reps.len(), seen.len());
        }
    }

    #[test]
    fn coded_columns_group_like_their_cells() {
        let t = Table::from_rows(
            &["k"],
            &[row!["x"], row![Value::Null], row!["a"], row!["x"]],
        )
        .unwrap();
        // Sorted dictionary: a = 0, x = 1.
        let coded = KeyColumn::Coded {
            codes: &[1, NONE, 0, 1],
            cardinality: 2,
        };
        let rows = RowSel::new(4, None);
        assert_eq!(group_ids(&[coded], &rows), group_ids(&cells(&t), &rows));
    }

    #[test]
    fn no_key_columns_is_one_group() {
        let g = group_ids(&[], &RowSel::new(3, None));
        assert_eq!((g.ids, g.reps), (vec![0, 0, 0], vec![0]));
        let g = group_ids(&[], &RowSel::new(0, None));
        assert!(g.ids.is_empty() && g.reps.is_empty());
    }

    #[test]
    fn probe_finds_build_keys_and_nothing_else() {
        let build = Table::from_rows(
            &["k", "n"],
            &[
                row!["a", 1i64],
                row!["b", 2i64],
                row![Value::Null, 3i64],
                row!["a", 1i64],
            ],
        )
        .unwrap();
        let cols: Vec<&Column> = build.columns().iter().map(|c| c.as_ref()).collect();
        let (table, ids) = KeyTable::build(&cols, &RowSel::new(4, None));
        assert_eq!(ids, [0, 1, NONE, 0]);
        assert_eq!(table.groups(), 2);
        let probe = Table::from_rows(
            &["k", "n"],
            &[
                row!["b", 2i64],
                row!["b", 1i64],
                row![Value::Null, 3i64],
                row!["zz", 2i64],
                row!["a", 1i64],
            ],
        )
        .unwrap();
        let cols: Vec<&Column> = probe.columns().iter().map(|c| c.as_ref()).collect();
        assert_eq!(
            table.probe(&cols, &RowSel::new(5, None)),
            [1, NONE, NONE, NONE, 0]
        );
        // A column of another type matches nothing.
        let other = Table::from_rows(&["k", "n"], &[row!["a", "1"]]).unwrap();
        let cols: Vec<&Column> = other.columns().iter().map(|c| c.as_ref()).collect();
        assert_eq!(table.probe(&cols, &RowSel::new(1, None)), [NONE]);
    }

    #[test]
    fn buckets_list_rows_per_group() {
        let ids = [1, NONE, 0, 1, 0];
        let b = Buckets::new(&ids, &RowSel::new(5, None), 2);
        assert_eq!(b.rows_of(0), [2, 4]);
        assert_eq!(b.rows_of(1), [0, 3]);
    }
}
