//! Expression language used by `filter_by` tasks.
//!
//! The paper configures filter tasks with textual expressions such as
//! `filter_expression: rating < 3` (§3.3, figure 7). This module defines the
//! expression AST, a recursive-descent parser for the surface syntax, and
//! both vectorised (column mask) and scalar (row) evaluation.
//!
//! Grammar (precedence low→high):
//!
//! ```text
//! or_expr   := and_expr ( 'or' and_expr )*
//! and_expr  := not_expr ( 'and' not_expr )*
//! not_expr  := 'not' not_expr | cmp_expr
//! cmp_expr  := add_expr ( ('<'|'<='|'>'|'>='|'=='|'='|'!='|'in'|'contains') add_expr )?
//! add_expr  := mul_expr ( ('+'|'-') mul_expr )*
//! mul_expr  := primary ( ('*'|'/'|'%') primary )*
//! primary   := number | string | 'true' | 'false' | 'null' | identifier
//!            | '(' or_expr ')' | '[' literal, ... ']'
//! ```

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnRef};
use crate::error::{Result, TabularError};
use crate::index::{ColumnIndex, DictionaryIndex, IndexedTable};
use crate::ops::keys::Word;
use crate::partition;
use crate::table::Table;
use crate::value::Value;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` (also accepted as `=`)
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    fn apply(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
        }
    }

    /// The operator with its operands swapped: `a < b` is `b > a`.
    fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }

    /// Surface syntax for this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl ArithOp {
    /// Surface syntax for this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(String),
    /// Literal value.
    Literal(Value),
    /// Comparison between two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic between two sub-expressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Membership test against a literal list: `team in ['CSK', 'MI']`.
    InList(Box<Expr>, Vec<Value>),
    /// Substring test: `body contains 'dhoni'`.
    Contains(Box<Expr>, Box<Expr>),
    /// Null test, produced by `x == null` normalisation.
    IsNull(Box<Expr>),
}

impl Expr {
    /// Shorthand: column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Shorthand: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand: comparison.
    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp(op, Box::new(l), Box::new(r))
    }

    /// Shorthand: logical AND.
    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::And(Box::new(l), Box::new(r))
    }

    /// Column names referenced anywhere in the tree (sorted, deduplicated) —
    /// the engine uses this for schema checking and projection pushdown.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        self.collect_columns(&mut set);
        set.into_iter().collect()
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(c) => {
                out.insert(c.clone());
            }
            Expr::Literal(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Contains(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::InList(e, _) => e.collect_columns(out),
        }
    }

    /// Evaluate against a single row context.
    pub fn eval_row(&self, lookup: &dyn Fn(&str) -> Option<Value>) -> Result<Value> {
        match self {
            Expr::Column(c) => {
                lookup(c).ok_or_else(|| TabularError::column_not_found(c, &[] as &[&str]))
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval_row(lookup)?, b.eval_row(lookup)?);
                // SQL-ish semantics: comparisons against null are false
                // (not null-propagating three-valued logic — the flow-file
                // language has no IS NULL surface syntax besides == null).
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Bool(
                        matches!(
                            (op, va.is_null() && vb.is_null()),
                            (CmpOp::Eq, true) | (CmpOp::Ne, false)
                        ) && *op == CmpOp::Eq
                            || (*op == CmpOp::Ne && !(va.is_null() && vb.is_null())),
                    ));
                }
                Ok(Value::Bool(op.apply(compare_coerced(&va, &vb))))
            }
            Expr::Arith(op, a, b) => {
                let (va, vb) = (a.eval_row(lookup)?, b.eval_row(lookup)?);
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                arith(*op, &va, &vb)
            }
            Expr::And(a, b) => Ok(Value::Bool(
                truthy(&a.eval_row(lookup)?) && truthy(&b.eval_row(lookup)?),
            )),
            Expr::Or(a, b) => Ok(Value::Bool(
                truthy(&a.eval_row(lookup)?) || truthy(&b.eval_row(lookup)?),
            )),
            Expr::Not(e) => Ok(Value::Bool(!truthy(&e.eval_row(lookup)?))),
            Expr::InList(e, list) => {
                let v = e.eval_row(lookup)?;
                Ok(Value::Bool(list.iter().any(|l| values_eq_coerced(l, &v))))
            }
            Expr::Contains(a, b) => {
                let (va, vb) = (a.eval_row(lookup)?, b.eval_row(lookup)?);
                match (va.as_str(), vb.as_str()) {
                    (Some(h), Some(n)) => Ok(Value::Bool(h.contains(n))),
                    _ => Ok(Value::Bool(false)),
                }
            }
            Expr::IsNull(e) => Ok(Value::Bool(e.eval_row(lookup)?.is_null())),
        }
    }

    /// Column-at-a-time evaluation producing a selection mask over a table.
    ///
    /// `AND`/`OR`/`NOT` combine [`Bitmap`]s; `column <cmp> literal`,
    /// `column IN (…)` and `column IS NULL` run over the column's typed
    /// slice. Any other sub-expression (arithmetic, `contains`,
    /// string↔number coercion, column-to-column comparisons) is evaluated
    /// row by row through [`Expr::eval_row`] — only on the rows whose
    /// outcome it can still change, which is also exactly the set of rows
    /// a row-at-a-time evaluation of the whole tree would evaluate it on,
    /// so the two agree on every bit and on which inputs are an error.
    /// Which route a node takes depends on its shape and the column types
    /// alone.
    pub fn eval_mask(&self, table: &Table) -> Result<Bitmap> {
        Ok(self.eval_mask_with(table, None)?.0)
    }

    /// [`Expr::eval_mask`] over an indexed snapshot: dictionary indexes
    /// answer string comparisons from postings and zone maps settle whole
    /// zones of a numeric comparison from their bounds. The flag reports
    /// whether any index did so. A tree of column-at-a-time nodes only
    /// over at least [`partition::SCAN_FLOOR`] rows is evaluated morsel by
    /// morsel on the pool, each morsel filling its own words of the mask.
    pub fn eval_mask_indexed(&self, indexed: &IndexedTable) -> Result<(Bitmap, bool)> {
        let rows = indexed.table().num_rows();
        if let Some(morsels) = partition::morsels(rows, partition::SCAN_FLOOR, None) {
            if let Some(job) = self.morsel_mask(indexed)? {
                let job = Arc::new(job);
                let run = Arc::clone(&job);
                let parts = partition::map(morsels, move |i| {
                    run.words(partition::range(rows, morsels, i))
                });
                return Ok((Bitmap::concat_aligned(parts), job.index_used()));
            }
        }
        self.eval_mask_with(indexed.table(), Some(indexed))
    }

    /// This filter prepared for morsel-by-morsel evaluation over
    /// `indexed`, or `None` when a node needs row-wise evaluation, or a
    /// dictionary leaf selects so few rows that its postings answer it
    /// faster than a pass over its codes.
    pub(crate) fn morsel_mask(&self, indexed: &IndexedTable) -> Result<Option<MorselMask>> {
        let ctx = MaskContext::new(self, indexed.table(), Some(indexed))?;
        if !self.columnar(&ctx) {
            return Ok(None);
        }
        Ok(Some(MorselMask {
            expr: self.clone(),
            ctx: ctx.resolved(),
        }))
    }

    fn eval_mask_with(
        &self,
        table: &Table,
        indexed: Option<&IndexedTable>,
    ) -> Result<(Bitmap, bool)> {
        let ctx = MaskContext::new(self, table, indexed)?;
        match self.mask(&ctx, Span::over(0..ctx.rows), None) {
            Ok(mask) => Ok((mask, ctx.index_used())),
            // Report the error of the first offending row, as a row-order
            // evaluation of the whole tree words it.
            Err(_) => self.mask_rowwise(&ctx, None).map(|mask| (mask, false)),
        }
    }

    /// Whether [`Expr::mask`] evaluates every node of this tree column at a
    /// time (so it cannot fail, and any row span can be evaluated alone),
    /// with no dictionary leaf that would union postings.
    fn columnar(&self, ctx: &MaskContext<'_>) -> bool {
        match self {
            Expr::And(a, b) | Expr::Or(a, b) => a.columnar(ctx) && b.columnar(ctx),
            Expr::Not(e) => e.columnar(ctx),
            Expr::Cmp(op, l, r) => match (l.as_ref(), r.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => ctx.compares(c, *op, v),
                (Expr::Literal(v), Expr::Column(c)) => ctx.compares(c, op.flipped(), v),
                _ => false,
            },
            Expr::InList(e, list) => match e.as_ref() {
                Expr::Column(c) => ctx.lists(c, list),
                _ => false,
            },
            Expr::IsNull(e) => matches!(e.as_ref(), Expr::Column(_)),
            _ => false,
        }
    }

    /// The mask of this node over the rows of `span`: bit `k` is row
    /// `span.start + k`. Only bits inside `domain` (every row when `None`)
    /// are meaningful to the caller, so row-wise sub-expressions skip the
    /// rest; those run over the whole table only.
    fn mask(&self, ctx: &MaskContext<'_>, span: Span, domain: Option<&Bitmap>) -> Result<Bitmap> {
        let columnar = match self {
            Expr::And(a, b) => {
                // `b` only matters (and is only evaluated row-wise) where
                // `a` holds.
                let left = a.mask(ctx, span, domain)?;
                let narrowed = domain.map(|d| d.and(&left));
                let right = b.mask(ctx, span, Some(narrowed.as_ref().unwrap_or(&left)))?;
                return Ok(left.and(&right));
            }
            Expr::Or(a, b) => {
                let left = a.mask(ctx, span, domain)?;
                let rest = left.not();
                let narrowed = domain.map(|d| d.and(&rest));
                let right = b.mask(ctx, span, Some(narrowed.as_ref().unwrap_or(&rest)))?;
                return Ok(left.or(&right));
            }
            Expr::Not(e) => return Ok(e.mask(ctx, span, domain)?.not()),
            Expr::Cmp(op, l, r) => match (l.as_ref(), r.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => ctx.compare(c, *op, v, span),
                (Expr::Literal(v), Expr::Column(c)) => ctx.compare(c, op.flipped(), v, span),
                _ => None,
            },
            Expr::InList(e, list) => match e.as_ref() {
                Expr::Column(c) => ctx.in_list(c, list, span),
                _ => None,
            },
            Expr::IsNull(e) => match e.as_ref() {
                Expr::Column(c) => Some(match ctx.column(c).validity_ref() {
                    Some(validity) => span.of(validity).not(),
                    None => Bitmap::new_set(span.len),
                }),
                _ => None,
            },
            _ => None,
        };
        match columnar {
            Some(mask) => Ok(mask),
            None => self.mask_rowwise(ctx, domain),
        }
    }

    /// Row-at-a-time evaluation of this node over the rows of `domain`.
    fn mask_rowwise(&self, ctx: &MaskContext<'_>, domain: Option<&Bitmap>) -> Result<Bitmap> {
        let mut mask = Bitmap::new_cleared(ctx.rows);
        let mut eval = |i: usize| -> Result<()> {
            let lookup = |name: &str| ctx.find(name).map(|c| c.value(i));
            if truthy(&self.eval_row(&lookup)?) {
                mask.set(i);
            }
            Ok(())
        };
        match domain {
            Some(d) => d.iter_ones().try_for_each(&mut eval)?,
            None => (0..ctx.rows).try_for_each(&mut eval)?,
        }
        Ok(mask)
    }
}

/// A run of rows a mask is computed over; `start` is a multiple of 64.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    len: usize,
}

impl Span {
    fn over(rows: std::ops::Range<usize>) -> Span {
        Span {
            start: rows.start,
            len: rows.len(),
        }
    }

    fn end(self) -> usize {
        self.start + self.len
    }

    fn rows(self) -> std::ops::Range<usize> {
        self.start..self.end()
    }

    /// `bitmap`'s bits over this span.
    fn of(self, bitmap: &Bitmap) -> Cow<'_, Bitmap> {
        if self.start == 0 && self.len == bitmap.len() {
            Cow::Borrowed(bitmap)
        } else {
            Cow::Owned(bitmap.slice_aligned(self.start, self.len))
        }
    }
}

/// A filter ready to be evaluated one morsel of rows at a time on any
/// thread: the tree, its columns and the indexes its leaves read.
pub(crate) struct MorselMask {
    expr: Expr,
    ctx: MaskContext<'static>,
}

impl MorselMask {
    /// The mask of `rows` (a 64-row-aligned range): bit `k` is row
    /// `rows.start + k`.
    pub(crate) fn words(&self, rows: std::ops::Range<usize>) -> Bitmap {
        self.expr
            .mask(&self.ctx, Span::over(rows), None)
            .expect("a columnar tree evaluates without error")
    }

    /// Whether a leaf read a dictionary or a zone map.
    pub(crate) fn index_used(&self) -> bool {
        self.ctx.index_used()
    }
}

/// Where a mask's leaves find their indexes.
enum Indexes<'a> {
    /// No index: every leaf scans.
    None,
    /// Built on demand from the snapshot; each one fetched is kept.
    Lazy(
        &'a IndexedTable,
        Mutex<Vec<(String, Option<Arc<ColumnIndex>>)>>,
    ),
    /// Fetched already: what a morsel on another thread reads.
    Fetched(Vec<(String, Option<Arc<ColumnIndex>>)>),
}

/// What one [`Expr::eval_mask`] call resolved up front.
struct MaskContext<'a> {
    rows: usize,
    /// Every referenced column, by name.
    columns: Vec<(String, ColumnRef)>,
    indexes: Indexes<'a>,
    /// Set when a leaf read a dictionary or a zone map.
    index_used: AtomicBool,
}

impl<'a> MaskContext<'a> {
    /// Resolve the columns `expr` references, with a clean diagnostic for
    /// the first missing one.
    fn new(expr: &Expr, table: &Table, indexed: Option<&'a IndexedTable>) -> Result<Self> {
        let columns = expr
            .referenced_columns()
            .into_iter()
            .map(|name| {
                let column = Arc::clone(table.column(&name)?);
                Ok((name, column))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MaskContext {
            rows: table.num_rows(),
            columns,
            indexes: match indexed {
                Some(ix) => Indexes::Lazy(ix, Mutex::new(Vec::new())),
                None => Indexes::None,
            },
            index_used: AtomicBool::new(false),
        })
    }

    /// This context with the indexes fetched so far and no others, for
    /// morsels on other threads.
    fn resolved(self) -> MaskContext<'static> {
        MaskContext {
            rows: self.rows,
            columns: self.columns,
            indexes: match self.indexes {
                Indexes::Lazy(_, fetched) => Indexes::Fetched(fetched.into_inner()),
                Indexes::Fetched(fetched) => Indexes::Fetched(fetched),
                Indexes::None => Indexes::None,
            },
            index_used: AtomicBool::new(false),
        }
    }

    fn index_used(&self) -> bool {
        self.index_used.load(Ordering::Relaxed)
    }

    fn used_index(&self) {
        self.index_used.store(true, Ordering::Relaxed);
    }

    fn find(&self, name: &str) -> Option<&Column> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_ref())
    }

    fn column(&self, name: &str) -> &Column {
        self.find(name)
            .expect("referenced columns are resolved before evaluation")
    }

    fn index(&self, name: &str) -> Option<Arc<ColumnIndex>> {
        let held = |fetched: &[(String, Option<Arc<ColumnIndex>>)]| {
            let (_, index) = fetched.iter().find(|(n, _)| n == name)?;
            Some(index.clone())
        };
        match &self.indexes {
            Indexes::None => None,
            Indexes::Fetched(fetched) => held(fetched).flatten(),
            Indexes::Lazy(indexed, fetched) => {
                let mut fetched = fetched.lock();
                if let Some(index) = held(&fetched) {
                    return index;
                }
                let index = indexed.index(name);
                fetched.push((name.to_string(), index.clone()));
                index
            }
        }
    }

    /// Whether [`MaskContext::compare`] answers `column <op> literal`
    /// column at a time, and, on a dictionary, with a pass over its codes
    /// rather than a union of postings.
    fn compares(&self, name: &str, op: CmpOp, lit: &Value) -> bool {
        let column = self.column(name);
        match (column, lit) {
            (_, Value::Null) => false,
            (Column::Utf8 { .. }, Value::Str(s)) => match self.index(name).as_deref() {
                Some(ColumnIndex::Dictionary(d)) => d.rank_pass(rank_span(d, op, s)),
                _ => true,
            },
            (Column::Utf8 { .. }, _) => false,
            (Column::Int64 { .. } | Column::Float64 { .. }, Value::Str(s)) => {
                s.trim().parse::<f64>().is_ok()
            }
            (Column::Null { .. }, _) => true,
            _ => {
                let typed = TypedLeaf::resolve(column, lit).is_some();
                if typed {
                    // `zoned` reads the column's zone map.
                    self.index(name);
                }
                typed
            }
        }
    }

    /// Whether [`MaskContext::in_list`] answers `column IN (list)` column
    /// at a time without a dictionary's postings.
    fn lists(&self, name: &str, list: &[Value]) -> bool {
        let column = self.column(name);
        if in_list_coerces(column, list) {
            return false;
        }
        !matches!(column, Column::Utf8 { .. })
            || !matches!(
                self.index(name).as_deref(),
                Some(ColumnIndex::Dictionary(_))
            )
    }

    /// `column <op> literal` over the typed slice, or `None` when the pair
    /// needs row-wise semantics: a null literal, a number facing string
    /// cells (each cell is parsed), or a non-numeric string facing numbers.
    fn compare(&self, name: &str, op: CmpOp, lit: &Value, span: Span) -> Option<Bitmap> {
        let column = self.column(name);
        let raw = match (column, lit) {
            (_, Value::Null) => return None,
            (Column::Utf8 { data, .. }, Value::Str(s)) => match self.index(name).as_deref() {
                Some(ColumnIndex::Dictionary(d)) => {
                    self.used_index();
                    let rows = if span.len == self.rows {
                        d.rows_for_ranks(rank_span(d, op, s))
                    } else {
                        d.ranks_over(rank_span(d, op, s), span.rows())
                    };
                    match op {
                        CmpOp::Ne => rows.not(),
                        _ => rows,
                    }
                }
                _ => Bitmap::from_fn(span.len, |k| op.apply(data[span.start + k].cmp(s.as_str()))),
            },
            (Column::Utf8 { .. }, _) => return None,
            // A numeric string facing a number compares as that number, as
            // `compare_coerced` parses it per row.
            (Column::Int64 { .. } | Column::Float64 { .. }, Value::Str(s)) => {
                let number = s.trim().parse::<f64>().ok()?;
                return self.compare(name, op, &Value::Float(number), span);
            }
            (Column::Null { .. }, _) => Bitmap::new_cleared(span.len),
            _ => self.zoned(name, op, lit, &TypedLeaf::resolve(column, lit)?, span),
        };
        // A null cell fails every comparison except `!=`; an all-null
        // column (`None`) has no other kind.
        Some(match (column.validity_ref(), op) {
            (Some(validity), CmpOp::Ne) => raw.or(&span.of(validity).not()),
            (Some(validity), _) => raw.and(&span.of(validity)),
            (None, CmpOp::Ne) => Bitmap::new_set(span.len),
            (None, _) => raw,
        })
    }

    /// `leaf` over every row of `span` — except that, with a zone map on
    /// the column, a zone whose bounds already settle `cell <op> lit` for
    /// all of its non-null rows is filled (or skipped) without reading it.
    fn zoned(
        &self,
        name: &str,
        op: CmpOp,
        lit: &Value,
        leaf: &TypedLeaf<'_>,
        span: Span,
    ) -> Bitmap {
        let mut mask = Bitmap::new_cleared(span.len);
        let index = self.index(name);
        let Some(ColumnIndex::Zones(zones)) = index.as_deref() else {
            leaf.fill(op, &mut mask, span.rows(), 0);
            return mask;
        };
        self.used_index();
        let per = zones.zone_rows();
        let first = span.start / per;
        let last = span.end().div_ceil(per);
        for (z, bounds) in zones.zones().iter().enumerate().take(last).skip(first) {
            // The zone's rows inside the span.
            let start = (z * per).max(span.start);
            let end = ((z + 1) * per).min(span.end());
            // An all-null zone has nothing to compare.
            let Some((zmin, zmax)) = bounds else { continue };
            let settled = match op {
                CmpOp::Eq | CmpOp::Ne => (lit < zmin || lit > zmax).then_some(op == CmpOp::Ne),
                // Monotone in the cell: equal verdicts at both bounds hold
                // for everything between them.
                _ => {
                    let (low, high) = (op.apply(zmin.cmp(lit)), op.apply(zmax.cmp(lit)));
                    (low == high).then_some(low)
                }
            };
            match settled {
                Some(true) => mask.set_range(start - span.start, end - span.start),
                Some(false) => {}
                None => leaf.fill(op, &mut mask, start..end, start - span.start),
            }
        }
        mask
    }

    /// `column IN (list)` over the typed slice; `None` when a member needs
    /// string↔number coercion against this column.
    fn in_list(&self, name: &str, list: &[Value], span: Span) -> Option<Bitmap> {
        let column = self.column(name);
        if in_list_coerces(column, list) {
            return None;
        }
        let rows = span.rows();
        // Members of the column's own kind, resolved once into the words
        // `compare` uses; a member of another type rank equals no cell.
        let raw = match column {
            Column::Utf8 { data, .. } => match self.index(name).as_deref() {
                Some(ColumnIndex::Dictionary(d)) => {
                    self.used_index();
                    d.rows_for_values(list)
                }
                _ => {
                    let members = member_keys(list, Value::as_str);
                    Bitmap::from_fn(span.len, |k| {
                        members.binary_search(&&data[span.start + k]).is_ok()
                    })
                }
            },
            Column::Int64 { data, .. } => {
                let ints = member_keys(list, |v| match v {
                    Value::Int(l) => Some(l.word()),
                    _ => None,
                });
                let floats = member_keys(list, |v| match v {
                    Value::Float(l) => Some(l.word()),
                    _ => None,
                });
                mask_of(&data[rows], |x| {
                    ints.binary_search(&x.word()).is_ok()
                        || floats.binary_search(&(x as f64).word()).is_ok()
                })
            }
            Column::Float64 { data, .. } => {
                let keys = member_keys(list, |v| match v {
                    Value::Int(l) => Some((*l as f64).word()),
                    Value::Float(l) => Some(l.word()),
                    _ => None,
                });
                mask_of(&data[rows], |x| keys.binary_search(&x.word()).is_ok())
            }
            Column::Date { data, .. } => {
                let keys = member_keys(list, Value::as_date);
                mask_of(&data[rows], |x| keys.binary_search(&x).is_ok())
            }
            Column::Bool { data, .. } => {
                let keys = member_keys(list, Value::as_bool);
                mask_of(&data[rows], |x| keys.contains(&x))
            }
            Column::Null { .. } => Bitmap::new_cleared(span.len),
        };
        // A null cell is a member exactly when the list holds a null.
        let null_member = list.iter().any(Value::is_null);
        Some(match column.validity_ref().map(|v| span.of(v)) {
            Some(validity) if null_member => raw.and(&validity).or(&validity.not()),
            Some(validity) => raw.and(&validity),
            None if null_member => Bitmap::new_set(span.len),
            None => raw,
        })
    }
}

/// Whether an `IN` list needs string↔number coercion against `column`'s
/// cells, which only a row-wise evaluation does.
fn in_list_coerces(column: &Column, list: &[Value]) -> bool {
    let is_number = |v: &Value| matches!(v, Value::Int(_) | Value::Float(_));
    let is_string = |v: &Value| matches!(v, Value::Str(_));
    match column {
        Column::Utf8 { .. } => list.iter().any(is_number),
        Column::Int64 { .. } | Column::Float64 { .. } => list.iter().any(is_string),
        _ => false,
    }
}

/// The ranks of `d`'s sort order that `cell <op> s` selects — for `!=`,
/// the one it rejects.
fn rank_span(d: &DictionaryIndex, op: CmpOp, s: &str) -> std::ops::Range<u32> {
    let (below, through) = match d.rank_of(s) {
        Ok(rank) => (rank as u32, rank as u32 + 1),
        Err(rank) => (rank as u32, rank as u32),
    };
    let all = d.cardinality() as u32;
    match op {
        CmpOp::Lt => 0..below,
        CmpOp::Le => 0..through,
        CmpOp::Gt => through..all,
        CmpOp::Ge => below..all,
        CmpOp::Eq | CmpOp::Ne => below..through,
    }
}

/// One `column <op> literal` leaf over a fixed-width column, the literal
/// resolved once into the [`Word`] of its cells' type, whose order is
/// [`Value::cmp`]'s (DESIGN.md §5.10), so no cell is boxed.
enum TypedLeaf<'a> {
    /// Int64 cells against an Int literal.
    Int(&'a [i64], i64),
    /// Int64 cells against a Float literal: each cell is keyed as
    /// `cell as f64`, the one pair whose cells are not keyed by their own
    /// word.
    IntAsFloat(&'a [i64], i64),
    /// Float64 cells against an Int or Float literal.
    Float(&'a [f64], i64),
    /// Date cells against a Date literal.
    Date(&'a [i32], i64),
    /// Bool cells against a Bool literal.
    Bool(&'a [bool], i64),
    /// A literal of another type rank: every cell compares this way.
    Rank(std::cmp::Ordering),
}

impl<'a> TypedLeaf<'a> {
    /// `None` for the pairs that stay row-wise (a null literal, a string
    /// facing a number) and for columns that are not fixed-width.
    fn resolve(column: &'a Column, lit: &Value) -> Option<TypedLeaf<'a>> {
        Some(match (column, lit) {
            (_, Value::Null) | (Column::Int64 { .. } | Column::Float64 { .. }, Value::Str(_)) => {
                return None
            }
            (Column::Int64 { data, .. }, Value::Int(l)) => TypedLeaf::Int(data, l.word()),
            (Column::Int64 { data, .. }, Value::Float(l)) => TypedLeaf::IntAsFloat(data, l.word()),
            (Column::Float64 { data, .. }, Value::Int(l)) => {
                TypedLeaf::Float(data, (*l as f64).word())
            }
            (Column::Float64 { data, .. }, Value::Float(l)) => TypedLeaf::Float(data, l.word()),
            (Column::Date { data, .. }, Value::Date(l)) => TypedLeaf::Date(data, l.word()),
            (Column::Bool { data, .. }, Value::Bool(l)) => TypedLeaf::Bool(data, l.word()),
            (Column::Int64 { .. }, _) => TypedLeaf::Rank(Value::Int(0).cmp(lit)),
            (Column::Float64 { .. }, _) => TypedLeaf::Rank(Value::Float(0.0).cmp(lit)),
            (Column::Date { .. }, _) => TypedLeaf::Rank(Value::Date(0).cmp(lit)),
            (Column::Bool { .. }, _) => TypedLeaf::Rank(Value::Bool(false).cmp(lit)),
            (Column::Utf8 { .. } | Column::Null { .. }, _) => return None,
        })
    }

    /// Set bit `at + k` of `mask` for every row `rows.start + k` whose cell
    /// satisfies `cell <op> literal` (null cells included: the caller
    /// masks them).
    fn fill(&self, op: CmpOp, mask: &mut Bitmap, rows: std::ops::Range<usize>, at: usize) {
        match *self {
            TypedLeaf::Int(data, l) => compare_into(mask, at, &data[rows], op, l, Word::word),
            TypedLeaf::IntAsFloat(data, l) => {
                compare_into(mask, at, &data[rows], op, l, |x| (x as f64).word())
            }
            TypedLeaf::Float(data, l) => compare_into(mask, at, &data[rows], op, l, Word::word),
            TypedLeaf::Date(data, l) => compare_into(mask, at, &data[rows], op, l, Word::word),
            TypedLeaf::Bool(data, l) => compare_into(mask, at, &data[rows], op, l, Word::word),
            TypedLeaf::Rank(ord) => {
                if op.apply(ord) {
                    mask.set_range(at, at + rows.len());
                }
            }
        }
    }
}

/// `key(cells[k]) <op> lit` into bit `start + k`, the operator matched
/// once outside the row loop. `key` is [`Word::word`] except for
/// [`TypedLeaf::IntAsFloat`].
fn compare_into<T: Copy>(
    mask: &mut Bitmap,
    start: usize,
    cells: &[T],
    op: CmpOp,
    lit: i64,
    key: impl Fn(T) -> i64,
) {
    match op {
        CmpOp::Lt => mask.set_where(start, cells, |x| key(x) < lit),
        CmpOp::Le => mask.set_where(start, cells, |x| key(x) <= lit),
        CmpOp::Gt => mask.set_where(start, cells, |x| key(x) > lit),
        CmpOp::Ge => mask.set_where(start, cells, |x| key(x) >= lit),
        CmpOp::Eq => mask.set_where(start, cells, |x| key(x) == lit),
        CmpOp::Ne => mask.set_where(start, cells, |x| key(x) != lit),
    }
}

/// The keys of the `IN` members `key` accepts, sorted and deduplicated.
fn member_keys<'a, K: Ord>(list: &'a [Value], key: impl Fn(&'a Value) -> Option<K>) -> Vec<K> {
    let mut keys: Vec<K> = list.iter().filter_map(key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The mask of `pred` over every cell.
fn mask_of<T: Copy>(cells: &[T], pred: impl FnMut(T) -> bool) -> Bitmap {
    let mut mask = Bitmap::new_cleared(cells.len());
    mask.set_where(0, cells, pred);
    mask
}

/// "Truthiness" of an expression result: only `Bool(true)`.
fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// Compare two values, coercing string↔number when one side is a numeric
/// literal and the other a string column (common with schema-light CSVs).
fn compare_coerced(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Str(s), Value::Int(_) | Value::Float(_)) => {
            if let Ok(f) = s.trim().parse::<f64>() {
                return Value::Float(f).cmp(b);
            }
            a.cmp(b)
        }
        (Value::Int(_) | Value::Float(_), Value::Str(s)) => {
            if let Ok(f) = s.trim().parse::<f64>() {
                return a.cmp(&Value::Float(f));
            }
            a.cmp(b)
        }
        _ => a.cmp(b),
    }
}

fn values_eq_coerced(a: &Value, b: &Value) -> bool {
    compare_coerced(a, b) == std::cmp::Ordering::Equal
}

fn arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    let err = || {
        TabularError::InvalidOperation(format!(
            "arithmetic {} on non-numeric values '{a}' and '{b}'",
            op.symbol()
        ))
    };
    // String + string concatenates.
    if op == ArithOp::Add {
        if let (Value::Str(x), Value::Str(y)) = (a, b) {
            return Ok(Value::Str(format!("{x}{y}")));
        }
    }
    let (x, y) = (a.as_float().ok_or_else(err)?, b.as_float().ok_or_else(err)?);
    let int_int = matches!((a, b), (Value::Int(_), Value::Int(_)));
    let r = match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => {
            if y == 0.0 {
                return Ok(Value::Null);
            }
            x / y
        }
        ArithOp::Mod => {
            if y == 0.0 {
                return Ok(Value::Null);
            }
            x % y
        }
    };
    if int_int && r.fract() == 0.0 && op != ArithOp::Div {
        Ok(Value::Int(r as i64))
    } else {
        Ok(Value::Float(r))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => f.write_str(c),
            Expr::Literal(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Cmp(op, a, b) => write!(f, "{a} {} {b}", op.symbol()),
            Expr::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Not(e) => write!(f, "not {e}"),
            Expr::InList(e, list) => {
                write!(f, "{e} in [")?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "'{s}'")?,
                        v => write!(f, "{v}")?,
                    }
                }
                write!(f, "]")
            }
            Expr::Contains(a, b) => write!(f, "{a} contains {b}"),
            Expr::IsNull(e) => write!(f, "{e} == null"),
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

/// Parse a filter expression from its flow-file surface syntax.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let mut p = Parser { src, pos: 0 };
    let e = p.parse_or()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(e)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> TabularError {
        TabularError::ExprParse {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    /// Consume a keyword: must be followed by a non-identifier char.
    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        if rest.len() >= kw.len()
            && rest[..kw.len()].eq_ignore_ascii_case(kw)
            && !rest[kw.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("or") {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("and") {
            let right = self.parse_not()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let left = self.parse_add()?;
        self.skip_ws();
        let op = if self.eat("<=") {
            Some(CmpOp::Le)
        } else if self.eat(">=") {
            Some(CmpOp::Ge)
        } else if self.eat("==") {
            Some(CmpOp::Eq)
        } else if self.eat("!=") {
            Some(CmpOp::Ne)
        } else if self.eat("<") {
            Some(CmpOp::Lt)
        } else if self.eat(">") {
            Some(CmpOp::Gt)
        } else if self.eat("=") {
            Some(CmpOp::Eq)
        } else if self.eat_kw("in") {
            let list = self.parse_literal_list()?;
            return Ok(Expr::InList(Box::new(left), list));
        } else if self.eat_kw("contains") {
            let right = self.parse_add()?;
            return Ok(Expr::Contains(Box::new(left), Box::new(right)));
        } else {
            None
        };
        match op {
            Some(op) => {
                let right = self.parse_add()?;
                // Normalise `x == null` / `x != null` to IsNull forms.
                if let Expr::Literal(Value::Null) = right {
                    return Ok(match op {
                        CmpOp::Eq => Expr::IsNull(Box::new(left)),
                        CmpOp::Ne => Expr::Not(Box::new(Expr::IsNull(Box::new(left)))),
                        _ => Expr::Cmp(op, Box::new(left), Box::new(right)),
                    });
                }
                Ok(Expr::Cmp(op, Box::new(left), Box::new(right)))
            }
            None => Ok(left),
        }
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut left = self.parse_mul()?;
        loop {
            self.skip_ws();
            let op = if self.eat("+") {
                ArithOp::Add
            } else if self.rest().starts_with('-')
                && !self.rest()[1..].starts_with(|c: char| c.is_ascii_digit())
            {
                self.pos += 1;
                ArithOp::Sub
            } else if self.rest().starts_with('-')
                && matches!(left, Expr::Column(_) | Expr::Arith(..))
            {
                // `a -1` after a column is subtraction, not a negative literal.
                self.pos += 1;
                ArithOp::Sub
            } else {
                break;
            };
            let right = self.parse_mul()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut left = self.parse_primary()?;
        loop {
            self.skip_ws();
            let op = if self.eat("*") {
                ArithOp::Mul
            } else if self.eat("/") {
                ArithOp::Div
            } else if self.eat("%") {
                ArithOp::Mod
            } else {
                break;
            };
            let right = self.parse_primary()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_literal_list(&mut self) -> Result<Vec<Value>> {
        self.skip_ws();
        if !self.eat("[") {
            return Err(self.err("expected '[' after 'in'"));
        }
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("]") {
                break;
            }
            match self.parse_primary()? {
                Expr::Literal(v) => out.push(v),
                Expr::Column(name) => out.push(Value::Str(name)),
                _ => return Err(self.err("expected literal in list")),
            }
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            if self.eat("]") {
                break;
            }
            return Err(self.err("expected ',' or ']' in list"));
        }
        Ok(out)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        self.skip_ws();
        let rest = self.rest();
        let first = rest
            .chars()
            .next()
            .ok_or_else(|| self.err("unexpected end of expression"))?;

        if first == '(' {
            self.pos += 1;
            let e = self.parse_or()?;
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            return Ok(e);
        }
        if first == '\'' || first == '"' {
            let quote = first;
            let mut s = String::new();
            let mut iter = rest.char_indices().skip(1);
            for (i, c) in &mut iter {
                if c == quote {
                    self.pos += i + 1;
                    return Ok(Expr::Literal(Value::Str(s)));
                }
                s.push(c);
            }
            return Err(self.err("unterminated string literal"));
        }
        if first.is_ascii_digit()
            || (first == '-' && rest[1..].starts_with(|c: char| c.is_ascii_digit()))
            || (first == '.' && rest[1..].starts_with(|c: char| c.is_ascii_digit()))
        {
            let end = rest
                .char_indices()
                .skip(1)
                .find(|(_, c)| !(c.is_ascii_digit() || *c == '.' || *c == 'e' || *c == 'E'))
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            let tok = &rest[..end];
            self.pos += end;
            if let Ok(i) = tok.parse::<i64>() {
                return Ok(Expr::Literal(Value::Int(i)));
            }
            return tok
                .parse::<f64>()
                .map(|f| Expr::Literal(Value::Float(f)))
                .map_err(|_| self.err("invalid numeric literal"));
        }
        if first.is_alphabetic() || first == '_' {
            let end = rest
                .char_indices()
                .find(|(_, c)| !(c.is_alphanumeric() || *c == '_' || *c == '.'))
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            let ident = &rest[..end];
            self.pos += end;
            return Ok(match ident {
                "true" => Expr::Literal(Value::Bool(true)),
                "false" => Expr::Literal(Value::Bool(false)),
                "null" => Expr::Literal(Value::Null),
                _ => Expr::Column(ident.to_string()),
            });
        }
        Err(self.err("unexpected character"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::datatype::DataType;
    use crate::row;
    use crate::schema::Schema;

    fn table() -> Table {
        Table::new(
            Schema::of(&[
                ("rating", DataType::Int64),
                ("team", DataType::Utf8),
                ("score", DataType::Float64),
            ]),
            vec![
                Column::int([1, 3, 5, 2]),
                Column::utf8(["CSK", "MI", "CSK", "RCB"]),
                Column::float([0.5, 0.7, 0.1, 0.9]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn parses_paper_filter_expression() {
        let e = parse_expr("rating < 3").unwrap();
        assert_eq!(
            e,
            Expr::cmp(CmpOp::Lt, Expr::col("rating"), Expr::lit(3i64))
        );
        let mask = e.eval_mask(&table()).unwrap();
        assert_eq!(mask.ones(), vec![0, 3]);
    }

    #[test]
    fn boolean_combinators() {
        let e = parse_expr("rating < 3 and team == 'CSK'").unwrap();
        assert_eq!(e.eval_mask(&table()).unwrap().ones(), vec![0]);
        let e = parse_expr("rating >= 5 or score > 0.8").unwrap();
        assert_eq!(e.eval_mask(&table()).unwrap().ones(), vec![2, 3]);
        let e = parse_expr("not (team == 'CSK')").unwrap();
        assert_eq!(e.eval_mask(&table()).unwrap().ones(), vec![1, 3]);
    }

    #[test]
    fn in_list_and_contains() {
        let e = parse_expr("team in ['CSK', 'RCB']").unwrap();
        assert_eq!(e.eval_mask(&table()).unwrap().ones(), vec![0, 2, 3]);
        let e = parse_expr("team contains 'C'").unwrap();
        assert_eq!(e.eval_mask(&table()).unwrap().ones(), vec![0, 2, 3]);
    }

    #[test]
    fn arithmetic_and_precedence() {
        let e = parse_expr("rating * 2 + 1 > 5").unwrap();
        // ratings 1,3,5,2 -> 3,7,11,5 -> >5 at rows 1,2
        assert_eq!(e.eval_mask(&table()).unwrap().ones(), vec![1, 2]);
        let e = parse_expr("rating + 2 * 2 == 5").unwrap();
        assert_eq!(e.eval_mask(&table()).unwrap().ones(), vec![0]);
    }

    #[test]
    fn division_by_zero_yields_null_not_panic() {
        let e = parse_expr("rating / 0 == 1").unwrap();
        assert!(e.eval_mask(&table()).unwrap().none_set());
    }

    #[test]
    fn null_comparison_semantics() {
        let t = Table::from_rows(&["x"], &[row![1i64], row![Value::Null]]).unwrap();
        let e = parse_expr("x == null").unwrap();
        assert_eq!(e.eval_mask(&t).unwrap().ones(), vec![1]);
        let e = parse_expr("x != null").unwrap();
        assert_eq!(e.eval_mask(&t).unwrap().ones(), vec![0]);
        let e = parse_expr("x < 5").unwrap();
        assert_eq!(
            e.eval_mask(&t).unwrap().ones(),
            vec![0],
            "null < 5 is false"
        );
    }

    #[test]
    fn string_number_coercion() {
        let t = Table::from_rows(&["v"], &[row!["10"], row!["9"], row!["abc"]]).unwrap();
        let e = parse_expr("v > 9").unwrap();
        // "10" > 9 numerically; "9" is not; "abc" unparseable -> string cmp vs number -> rank order
        let ones = e.eval_mask(&t).unwrap().ones();
        assert!(ones.contains(&0));
        assert!(!ones.contains(&1));
    }

    #[test]
    fn referenced_columns_sorted_unique() {
        let e = parse_expr("b < 1 and a > 2 or b == 3").unwrap();
        assert_eq!(
            e.referenced_columns(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn missing_column_is_an_error() {
        let e = parse_expr("nope == 1").unwrap();
        let err = e.eval_mask(&table()).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("a <").is_err());
        assert!(parse_expr("a == 'unterminated").is_err());
        assert!(parse_expr("a in [1, ").is_err());
        assert!(parse_expr("(a == 1").is_err());
        assert!(parse_expr("a == 1 extra").is_err());
    }

    #[test]
    fn display_roundtrips_through_parser() {
        for src in [
            "rating < 3",
            "(a and b)",
            "x in ['p', 'q']",
            "not y",
            "name contains 'z'",
        ] {
            let e = parse_expr(src).unwrap();
            let printed = e.to_string();
            let e2 = parse_expr(&printed).unwrap();
            assert_eq!(e, e2, "roundtrip of '{src}' via '{printed}'");
        }
    }

    #[test]
    fn negative_literals() {
        let e = parse_expr("rating > -1").unwrap();
        assert_eq!(e.eval_mask(&table()).unwrap().count_ones(), 4);
    }
}
