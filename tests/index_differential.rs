//! Differential property tests for the indexed acceleration layer.
//!
//! The contract under test: every accelerated kernel either *declines*
//! (returns `None`, sending the caller to the scan path) or produces a
//! table whose JSON serialization is **byte-identical** to the scan
//! kernel's output — same rows, same order, same formatting — and a
//! widget selection's predicate selects the same rows through the index,
//! by column scan and row by row through the oracle. Generated
//! cases deliberately include nulls, all-null columns (empty
//! dictionaries), zero-row tables, values absent from the dictionary,
//! and range predicates entirely outside the data's span.
//!
//! Like `properties.rs`, cases come from a seeded local RNG so every
//! failure is reproducible from the fixed seed.

mod common;

use common::gen_endpoint_table;
use shareinsights::datagen::SeededRng;
use shareinsights::engine::baseline::rowwise_mask;
use shareinsights::engine::Selection;
use shareinsights::server::query::{parse_ops, path_filter, run_query, run_query_indexed, QueryOp};
use shareinsights::server::table_to_json;
use shareinsights::tabular::agg::AggKind;
use shareinsights::tabular::expr::parse_expr;
use shareinsights::tabular::io::csv::{read_csv, CsvOptions};
use shareinsights::tabular::ops::{
    groupby, groupby_selected, sort, AggregateSpec, GroupBy, SortKey, SortOrder,
};
use shareinsights::tabular::partition;
use shareinsights::tabular::{
    Bitmap, Column, ColumnBuilder, CopyReason, DataType, Field, IndexedTable, Schema, Table, Value,
};
use std::sync::Arc;

/// Debug builds run 64 cases; CI runs the suite in release at full count.
const CASES: usize = if cfg!(debug_assertions) { 64 } else { 1000 };

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// An allowed-values set mixing dictionary members, strings absent from
/// the dictionary, explicit nulls, and out-of-domain integers.
fn gen_allowed(r: &mut SeededRng) -> Vec<Value> {
    let mut allowed: Vec<Value> = Vec::new();
    for _ in 0..r.index(4) {
        allowed.push(Value::Str(format!("k{}", r.index(8))));
    }
    if r.chance(0.2) {
        allowed.push(Value::Str("absent".into()));
    }
    if r.chance(0.2) {
        allowed.push(Value::Null);
    }
    allowed
}

/// `selection` on `column` of `ix`'s table three ways — through the index
/// ([`Expr::eval_mask_indexed`]), by column scan ([`Expr::eval_mask`]) and
/// row by row through the oracle — which must agree bit for bit. Returns
/// whether an index answered; an empty value list constrains nothing.
///
/// [`Expr::eval_mask_indexed`]: shareinsights::tabular::expr::Expr::eval_mask_indexed
/// [`Expr::eval_mask`]: shareinsights::tabular::expr::Expr::eval_mask
fn assert_selection_agrees(
    selection: &Selection,
    column: &str,
    ix: &IndexedTable,
    what: &str,
) -> bool {
    let predicate = selection.predicate(column);
    let unconstrained = *selection == Selection::Values(vec![]);
    assert_eq!(predicate.is_none(), unconstrained, "{what}: {selection:?}");
    let Some(e) = predicate else { return false };
    let want = rowwise_mask(&e, ix.table()).unwrap();
    assert_eq!(e.eval_mask(ix.table()).unwrap(), want, "{what}: {e}");
    let (fast, used) = e.eval_mask_indexed(ix).unwrap();
    assert_eq!(fast, want, "{what}: {e} (indexed)");
    used
}

fn assert_same_bytes(fast: &Table, scan: &Table, what: &str) {
    assert_eq!(
        table_to_json(fast),
        table_to_json(scan),
        "indexed {what} diverged from scan"
    );
}

// ---------------------------------------------------------------------------
// Kernel-level differentials
// ---------------------------------------------------------------------------

/// Value selections (`column in […]`) through posting lists agree with
/// the scan and the oracle, including null members, misses, empty
/// selections and empty dictionaries.
#[test]
fn filter_by_values_matches_scan() {
    let mut r = SeededRng::new(0x1D1F_0001);
    let mut covered = 0usize;
    for _ in 0..CASES {
        let t = gen_endpoint_table(&mut r);
        let ix = IndexedTable::new(t.clone());
        for col in ["cat", "cat2", "num"] {
            let allowed = if col == "num" {
                let mut a: Vec<Value> = (0..r.index(4))
                    .map(|_| Value::Int(r.int_range(-60, 59)))
                    .collect();
                if r.chance(0.2) {
                    a.push(Value::Null);
                }
                a
            } else {
                gen_allowed(&mut r)
            };
            let selection = Selection::Values(allowed);
            covered += usize::from(assert_selection_agrees(&selection, col, &ix, col));
        }
    }
    assert!(
        covered > CASES,
        "index path should cover most value filters"
    );
}

/// Range selections (`column >= lo and column <= hi`) through zones and
/// dictionary spans agree with the scan and the oracle, including ranges
/// entirely outside the data and inverted bounds.
#[test]
fn filter_by_range_matches_scan() {
    let mut r = SeededRng::new(0x1D1F_0002);
    let mut covered = 0usize;
    for _ in 0..CASES {
        let t = gen_endpoint_table(&mut r);
        let ix = IndexedTable::new(t.clone());
        // Integer ranges: in-range, out-of-range and inverted.
        let (lo, hi) = match r.index(4) {
            0 => (r.int_range(-60, 0), r.int_range(0, 59)),
            1 => (1000, 2000),   // entirely above the data
            2 => (-2000, -1000), // entirely below the data
            _ => (40, -40),      // inverted: matches nothing
        };
        let selection = Selection::Range(Value::Int(lo), Value::Int(hi));
        covered += usize::from(assert_selection_agrees(&selection, "num", &ix, "num"));
        // String ranges over the dictionary, sometimes past its end.
        let (slo, shi) = if r.chance(0.3) {
            ("zz".to_string(), "zzz".to_string())
        } else {
            (format!("k{}", r.index(4)), format!("k{}", 4 + r.index(4)))
        };
        let selection = Selection::Range(Value::Str(slo), Value::Str(shi));
        covered += usize::from(assert_selection_agrees(&selection, "cat", &ix, "cat"));
    }
    assert!(covered > 0, "index path should cover some range filters");
}

/// Dense code-indexed group-by agrees with the scan group-by byte for
/// byte (group order included) whenever it claims coverage.
#[test]
fn groupby_matches_scan() {
    let mut r = SeededRng::new(0x1D1F_0003);
    let mut covered = 0usize;
    for _ in 0..CASES {
        let t = gen_endpoint_table(&mut r);
        let ix = IndexedTable::new(t.clone());
        let agg = match r.index(3) {
            0 => AggregateSpec::new(AggKind::CountAll, "", "n"),
            1 => AggregateSpec::new(AggKind::Sum, "num", "total"),
            _ => AggregateSpec::new(AggKind::Count, "num", "n"),
        };
        let cfg = GroupBy::with_aggregates(&["cat"], vec![agg]);
        let scan = groupby(&t, &cfg).unwrap();
        if let Some(fast) = ix.groupby(&cfg) {
            assert_same_bytes(&fast, &scan, "groupby");
            covered += 1;
        }
    }
    assert!(covered > 0, "null-free cases should take the indexed path");
}

/// Sort by dictionary code rank agrees with the scan comparison sort,
/// nulls-first placement and tie order included.
#[test]
fn sort_matches_scan() {
    let mut r = SeededRng::new(0x1D1F_0004);
    let mut covered = 0usize;
    for _ in 0..CASES {
        let t = gen_endpoint_table(&mut r);
        let ix = IndexedTable::new(t.clone());
        let key = if r.chance(0.5) {
            SortKey::asc("cat")
        } else {
            SortKey::desc("cat")
        };
        let scan = sort(&t, std::slice::from_ref(&key)).unwrap();
        if let Some(fast) = ix.sort(std::slice::from_ref(&key)) {
            assert_same_bytes(&fast, &scan, "sort");
            covered += 1;
        }
    }
    assert!(
        covered > CASES / 2,
        "utf8 sorts should take the indexed path"
    );
}

// ---------------------------------------------------------------------------
// Query-pipeline differential
// ---------------------------------------------------------------------------

/// Random ad-hoc query pipelines produce byte-identical JSON through
/// `run_query` (pure scan) and `run_query_indexed` (accelerated first op,
/// scan thereafter) — and reproduce the same errors.
#[test]
fn query_pipelines_match_scan() {
    let mut r = SeededRng::new(0x1D1F_0005);
    let mut hits = 0usize;
    for _ in 0..CASES {
        let t = gen_endpoint_table(&mut r);
        let ix = IndexedTable::new(t.clone());
        let mut segments: Vec<String> = Vec::new();
        for _ in 0..1 + r.index(3) {
            match r.index(5) {
                0 => {
                    let agg = ["sum", "count", "min", "max"][r.index(4)];
                    segments.extend(["groupby".into(), "cat".into(), agg.into(), "num".into()]);
                }
                1 => {
                    let v = if r.chance(0.3) {
                        "absent".to_string()
                    } else {
                        format!("k{}", r.index(6))
                    };
                    segments.extend(["filter".into(), "cat".into(), v]);
                }
                2 => {
                    let dir = if r.chance(0.5) { "asc" } else { "desc" };
                    segments.extend(["sort".into(), "cat".into(), dir.into()]);
                }
                3 => segments.extend(["distinct".into(), "cat2".into()]),
                _ => segments.extend(["limit".into(), r.index(20).to_string()]),
            }
        }
        // Occasionally reference a missing column so errors differentialize.
        if r.chance(0.15) {
            segments.extend(["filter".into(), "ghost".into(), "x".into()]);
        }
        let refs: Vec<&str> = segments.iter().map(String::as_str).collect();
        let ops = parse_ops(&refs).unwrap();
        match (run_query(&t, &ops), run_query_indexed(&ix, &ops)) {
            (Ok(scan), Ok((fast, hit))) => {
                assert_same_bytes(&fast, &scan, "query pipeline");
                hits += usize::from(hit);
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "error divergence"),
            (a, b) => panic!("paths disagree on success: scan={a:?} indexed={b:?}"),
        }
    }
    assert!(hits > 0, "some pipelines should report index hits");
}

// ---------------------------------------------------------------------------
// Fused plans against the unfused reference
// ---------------------------------------------------------------------------

/// `sort | limit` and `sort | offset | limit` (fused into a top-n, walked
/// off the postings for a dictionary key) return the bytes of a full
/// boxed-value sort followed by the slices — heavy ties, nulls, both
/// directions, string / zone-indexed integer / float and multi-key
/// orders, and every `n` around the row count.
#[test]
fn fused_topn_matches_unfused_reference() {
    let mut r = SeededRng::new(0x1D1F_0006);
    let mut hits = 0usize;
    for case in 0..CASES {
        let t = common::gen_tied_table(&mut r);
        let rows = t.num_rows();
        let dir = |r: &mut SeededRng| {
            if r.chance(0.5) {
                SortOrder::Asc
            } else {
                SortOrder::Desc
            }
        };
        let key = |column: &str, r: &mut SeededRng| SortKey {
            column: column.into(),
            order: dir(r),
        };
        let sort = QueryOp::Sort(match r.index(5) {
            0 | 1 => vec![key("cat", &mut r)],
            2 => vec![key("num", &mut r)],
            3 => vec![key("f", &mut r)],
            _ => vec![key("cat", &mut r), key("f", &mut r)],
        });
        for n in [0, 1, rows.saturating_sub(1), rows, rows + 1] {
            let ops = vec![sort.clone(), QueryOp::Limit(n)];
            hits += usize::from(common::assert_three_way(
                &t,
                &ops,
                &format!("case {case} {ops:?}"),
            ));
            let k = *r.pick(&[0, 1, 3, rows]);
            let ops = vec![sort.clone(), QueryOp::Offset(k), QueryOp::Limit(n)];
            hits += usize::from(common::assert_three_way(
                &t,
                &ops,
                &format!("case {case} {ops:?}"),
            ));
        }
    }
    assert!(hits > CASES, "dictionary-keyed top-n should hit the index");
}

/// `filter | groupby` (fused: the group-by folds the selected rows without
/// a filtered table) returns the bytes of filter-then-group — float
/// `sum`/`avg`/`min`/`max`, `count(*)`, null group keys, null aggregate
/// inputs, selections from empty to every row.
#[test]
fn fused_filter_groupby_matches_unfused_reference() {
    let filters = [
        "num > 0",
        "f < 0.5",
        "cat == null",
        "not (cat == null)",
        "num >= -100",
        "num > 100",
        "f != null and num <= 1",
        "cat in ['k0', 'k1']",
        "cat > 'k0' or f >= 1.5",
        "num * 2 > 1",
    ];
    let mut r = SeededRng::new(0x1D1F_0007);
    let mut hits = 0usize;
    for case in 0..CASES {
        let t = common::gen_tied_table(&mut r);
        let filter = if r.chance(0.25) {
            path_filter("cat", &format!("k{}", r.index(4)))
        } else {
            QueryOp::FilterExpr(parse_expr(filters[r.index(filters.len())]).unwrap())
        };
        let group = match r.index(3) {
            0 => {
                let agg = *r.pick(&[AggKind::Sum, AggKind::Avg, AggKind::Max]);
                let apply_on = *r.pick(&["f", "num"]);
                let out = format!("{}_{apply_on}", agg.name());
                QueryOp::GroupBy(GroupBy::with_aggregates(
                    &["cat"],
                    vec![AggregateSpec::new(agg, apply_on, out)],
                ))
            }
            1 => QueryOp::GroupBy(GroupBy::with_aggregates(
                &["cat"],
                vec![
                    AggregateSpec::new(AggKind::Sum, "f", "total"),
                    AggregateSpec::new(AggKind::Avg, "f", "mean"),
                    AggregateSpec::new(AggKind::Min, "f", "lo"),
                    AggregateSpec::new(AggKind::Max, "f", "hi"),
                    AggregateSpec::new(AggKind::CountAll, "", "n"),
                ],
            )),
            _ => QueryOp::GroupBy(GroupBy::with_aggregates(
                &["cat2", "cat"],
                vec![
                    AggregateSpec::new(AggKind::Sum, "num", "total"),
                    AggregateSpec::new(AggKind::Count, "f", "n"),
                ],
            )),
        };
        let ops = vec![filter, group];
        hits += usize::from(common::assert_three_way(
            &t,
            &ops,
            &format!("case {case} {ops:?}"),
        ));
    }
    assert!(hits > 0, "indexed selections should report hits");
}

// ---------------------------------------------------------------------------
// Appends: the index as a write structure
// ---------------------------------------------------------------------------

/// Three rows whose `cat` strings are fresh in round `round`: one sorting
/// before every `cat` string so far, one between two old ones and one
/// after them all.
fn fresh_rows(round: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("cat", DataType::Utf8),
        Field::new("cat2", DataType::Utf8),
        Field::new("num", DataType::Int64),
    ])
    .unwrap();
    let cat = [
        format!("a{}", 9 - round),
        format!("k{round}x"),
        format!("z{round}"),
    ];
    let columns = vec![
        Column::utf8(cat),
        Column::utf8(["k0", "k2", "k1"]),
        Column::int([round as i64, 7, -7]),
    ];
    Table::new(schema, columns).unwrap()
}

/// A warm index carried over an append is the index a cold
/// `IndexedTable::new` builds over the same rows — the same dictionary,
/// codes, posting words and zone bounds — and answers queries with the
/// same bytes as the scan path, append after append: a group-by, range
/// filters and a sorted head over `cat`. Deltas bring fresh dictionary
/// values, nulls, all-null columns and zero rows; every other round
/// also brings fresh values that sort before, between and after the old
/// ones.
///
/// Each case runs twice, in the order an ingest commit takes: the
/// wrapper gives up its table, the table appends the delta, the indexes
/// grow onto it. In the first run nothing else holds the wrapper or the
/// table, so the columns and the indexes grow in place; in the second a
/// reader holds a clone of both, so the append copies, and the reader's
/// clone still answers with its pre-append bytes.
#[test]
fn append_merged_over_concat_matches_cold_build() {
    let filter = |text| vec![QueryOp::FilterExpr(parse_expr(text).unwrap())];
    let queries = [
        parse_ops(&["groupby", "cat", "sum", "num"]).unwrap(),
        filter("cat < 'k2'"),
        filter("cat >= 'k1x'"),
        filter("cat != 'k3'"),
        parse_ops(&["sort", "cat", "asc", "limit", "9"]).unwrap(),
        parse_ops(&["sort", "cat", "desc", "limit", "9"]).unwrap(),
    ];
    let scan = |table: &Table| -> Vec<String> {
        let run = |ops: &Vec<QueryOp>| table_to_json(&run_query(table, ops).unwrap());
        queries.iter().map(run).collect()
    };
    let bytes = |ix: &IndexedTable| -> Vec<String> {
        let run = |ops: &Vec<QueryOp>| table_to_json(&run_query_indexed(ix, ops).unwrap().0);
        queries.iter().map(run).collect()
    };
    for held in [false, true] {
        let mut r = SeededRng::new(0xA99E4D);
        let (mut grown, mut copied) = (0usize, 0usize);
        for case in 0..CASES {
            let mut table = gen_endpoint_table(&mut r);
            let mut warm = Arc::new(IndexedTable::new(table.clone()));
            for round in 0..4 {
                for name in ["cat", "cat2", "num"] {
                    let _ = warm.index(name);
                }
                let mut delta = gen_endpoint_table(&mut r);
                if round % 2 == 1 {
                    delta = delta.concat(&fresh_rows(round)).unwrap();
                }
                let expected = table.concat(&delta).unwrap();
                let reader = held.then(|| (Arc::clone(&warm), table.clone(), bytes(&warm)));
                let indexes = Arc::try_unwrap(warm).map(IndexedTable::into_indexes);
                let verdict = table.append(&delta).unwrap();
                warm = Arc::new(
                    match indexes {
                        Ok(indexes) => indexes.append(table.clone()),
                        Err(shared) => shared.append_merged(table.clone()),
                    }
                    .unwrap(),
                );
                let what = format!("held {held} case {case} round {round}");
                match verdict {
                    None => grown += 1,
                    Some(reason) => {
                        copied += 1;
                        assert!(held || reason == CopyReason::Widened, "{what}: {reason:?}");
                    }
                }
                assert_eq!(
                    table_to_json(&table),
                    table_to_json(&expected),
                    "{what}: appended rows"
                );
                let cold = IndexedTable::new(expected);
                for name in ["cat", "cat2", "num"] {
                    // A column whose type widened (an all-null side) rebuilds
                    // lazily; either way the index served is the cold one.
                    assert_eq!(
                        format!("{:?}", warm.index(name)),
                        format!("{:?}", cold.index(name)),
                        "{what}: index of '{name}'"
                    );
                }
                for (ops, (fast, scan)) in queries.iter().zip(bytes(&warm).iter().zip(scan(&table)))
                {
                    assert_eq!(*fast, scan, "{what}: indexed {ops:?} diverged from scan");
                }
                if let Some((before, snapshot, answered)) = reader {
                    assert_eq!(bytes(&before), answered, "{what}: held wrapper");
                    assert_eq!(scan(&snapshot), answered, "{what}: held table");
                }
            }
        }
        if held {
            assert_eq!(grown, 0, "a held table never grows in place");
        } else {
            assert!(grown > CASES, "appends grown in place: {grown} of {copied}");
        }
    }
}

/// A posting holds row ids below this share of the rows and a bitmap at
/// or above it; the test counts the values an append carries across it.
const SPARSE_BELOW: usize = 32;

/// `n` rows of a skewed `cat` column (and a `num` measure): a few hot keys
/// each take a share of the rows between 1/64 and `1 / hot_from`, a tail
/// of 60 rare keys shares the rest, and nulls take none, 1/40 or 1/8.
fn skewed_rows(r: &mut SeededRng, n: usize, hot_from: usize) -> Table {
    let hot: Vec<(usize, f64)> = (0..1 + r.index(3))
        .map(|_| (r.index(6), 1.0 / (hot_from + r.index(65 - hot_from)) as f64))
        .collect();
    let nulls = *r.pick(&[0.0, 1.0 / 40.0, 1.0 / 8.0]);
    let mut cat = ColumnBuilder::new(DataType::Utf8);
    for _ in 0..n {
        match hot.iter().find(|&&(_, share)| r.chance(share)) {
            Some((key, _)) => cat.push_str(format!("h{key}")),
            None if r.chance(nulls) => cat.push_null(),
            None => cat.push_str(format!("r{:02}", r.index(60))),
        }
    }
    let num = Column::int((0..n).map(|_| r.int_range(-9, 9)));
    let schema = Schema::new(vec![
        Field::new("cat", DataType::Utf8),
        Field::new("num", DataType::Int64),
    ])
    .unwrap();
    Table::new(schema, vec![cat.finish(), num]).unwrap()
}

/// Rows per `cat` value (nulls under `None`).
fn value_counts(t: &Table) -> std::collections::HashMap<Option<String>, usize> {
    let mut counts = std::collections::HashMap::new();
    let col = t.column("cat").unwrap();
    for i in 0..t.num_rows() {
        *counts.entry(col.str_at(i).map(str::to_string)).or_insert(0) += 1;
    }
    counts
}

/// Skewed keys put row-id and bitmap postings in one column, and appends
/// carry values across 1/32 density both ways: a hot key that a long run
/// of rare rows dilutes, a rare key a delta makes hot. After every append
/// the merged index is the cold build's — dictionary, codes and each
/// posting's container — and value filters, string ranges (narrow spans
/// unioned, wide ones filled by a pass over the codes), top-n in both
/// directions and filtered group-bys answer with the scan path's bytes.
#[test]
fn skewed_postings_merge_to_the_cold_build_and_match_scan() {
    let mut r = SeededRng::new(0x5CE3_D1C7);
    let (mut mixed, mut up, mut down) = (0usize, 0usize, 0usize);
    for case in 0..CASES {
        let base_rows = 32 + r.index(400);
        let mut table = skewed_rows(&mut r, base_rows, 12);
        let mut warm = IndexedTable::new(table.clone());
        for round in 0..4 {
            let _ = warm.index("cat");
            let rows = table.num_rows();
            let before = value_counts(&table);
            // Row counts at which a value the delta leaves alone sits at
            // exactly 1/32 density, or just below it (where its container
            // flips), reachable with a delta of new values.
            let mut edges: Vec<usize> = before
                .values()
                .map(|&count| count * SPARSE_BELOW)
                .filter(|&edge| edge > rows && edge < 3 * rows)
                .collect();
            edges.sort_unstable();
            let delta = if !edges.is_empty() && r.chance(0.3) {
                let n = *r.pick(&edges) + r.index(2) - rows;
                let fresh = Column::utf8((0..n).map(|_| format!("new{round}")));
                skewed_rows(&mut r, n, 64)
                    .with_column("cat", fresh)
                    .unwrap()
            } else {
                let few = 1 + r.index(40);
                let delta_rows = *r.pick(&[0, 1, few, rows, 2 * rows]);
                let hot_from = *r.pick(&[4, 12, 64]);
                skewed_rows(&mut r, delta_rows, hot_from)
            };
            table = table.concat(&delta).unwrap();
            for (value, &count) in &value_counts(&table) {
                let old = before.get(value).copied().unwrap_or(0);
                match (
                    old * SPARSE_BELOW < rows,
                    count * SPARSE_BELOW < table.num_rows(),
                ) {
                    (true, false) if old > 0 => up += 1,
                    (false, true) => down += 1,
                    _ => {}
                }
            }
            warm = warm.append_merged(table.clone()).unwrap();
            let cold = IndexedTable::new(table.clone());
            let what = format!("case {case} round {round}");
            let index = format!("{:?}", warm.index("cat"));
            assert_eq!(index, format!("{:?}", cold.index("cat")), "{what}");
            mixed += usize::from(index.contains("Rows(") && index.contains("Bits("));

            let names = ["h0", "h2", "h5", "r00", "r07", "r33", "r59", "absent"];
            let mut allowed: Vec<Value> = (0..1 + r.index(3))
                .map(|_| Value::Str((*r.pick(&names)).into()))
                .collect();
            if r.chance(0.3) {
                allowed.push(Value::Null);
            }
            assert!(assert_selection_agrees(
                &Selection::Values(allowed),
                "cat",
                &warm,
                &what
            ));

            let bounds = ["a", "h0", "h3", "r00", "r10", "r30", "r59", "z"];
            let (lo, hi) = (*r.pick(&bounds), *r.pick(&bounds));
            let range = Selection::Range(Value::Str(lo.into()), Value::Str(hi.into()));
            assert!(assert_selection_agrees(&range, "cat", &warm, &what));

            for key in [SortKey::asc("cat"), SortKey::desc("cat")] {
                let all = sort(&table, std::slice::from_ref(&key)).unwrap();
                let n = table.num_rows();
                let some = 1 + r.index(n + 1);
                for k in [0, 1, some, n / 2, n, n + 1] {
                    let head = warm.top_n(std::slice::from_ref(&key), k).unwrap();
                    assert_same_bytes(&head, &all.limit(k), &format!("{what} {key:?} {k}"));
                }
            }

            let cfg = GroupBy::with_aggregates(
                &["cat"],
                vec![
                    AggregateSpec::new(AggKind::Sum, "num", "total"),
                    AggregateSpec::new(AggKind::CountAll, "", "n"),
                ],
            );
            let keep = r.index(4);
            let mask = Bitmap::from_fn(table.num_rows(), |i| i % 4 != keep);
            for selection in [None, Some(&mask)] {
                let scan = groupby_selected(&table, &cfg, selection).unwrap();
                let fast = warm.groupby_selected(&cfg, selection).unwrap();
                assert_same_bytes(&fast, &scan, &what);
            }
        }
    }
    assert!(mixed > CASES, "both containers in one column: {mixed}");
    assert!(up > CASES / 8, "values an append made dense: {up}");
    assert!(down > CASES / 8, "values an append made sparse: {down}");
}

/// Readers hammer a `groupby` while one writer appends 200 batches. A
/// reader that sees the new generation finds the merged index or waits
/// for it — it never installs a cold wrapper beside the merge in flight —
/// so every acknowledgement says `merged`, nothing is rebuilt cold, and
/// every body read is the scan path's bytes over some prefix of the
/// batches, never an older prefix than the reader saw before.
#[test]
fn readers_beside_appends_never_turn_the_index_cold() {
    use shareinsights::core::Platform;
    use shareinsights::server::{Method, Request, Server};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const BATCHES: usize = 200;
    const BATCH_ROWS: usize = 20;
    const READERS: usize = 3;
    const INGEST: &str = "/dashboards/bench/ds/events/ingest";
    const READ: &str = "/bench/ds/events/groupby/key/sum/qty";

    let mut r = SeededRng::new(0x5107);
    let mut csv_rows = |rows: usize| {
        let mut csv = String::from("key,region,qty\n");
        for _ in 0..rows {
            csv.push_str(&format!(
                "k{},r{},{}\n",
                r.index(40),
                r.index(4),
                1 + r.index(9)
            ));
        }
        csv
    };
    let base = csv_rows(3_000);
    let batches: Vec<String> = (0..BATCHES).map(|_| csv_rows(BATCH_ROWS)).collect();

    // The scan path's body after each prefix of the batches. Every batch
    // adds to some sum, so the body names its prefix.
    let ops = parse_ops(&["groupby", "key", "sum", "qty"]).unwrap();
    let decode = |csv: &str| read_csv(csv, &CsvOptions::default()).unwrap();
    let mut table = decode(&base);
    let mut prefix_of_body: HashMap<String, usize> = HashMap::new();
    prefix_of_body.insert(table_to_json(&run_query(&table, &ops).unwrap()), 0);
    for (b, csv) in batches.iter().enumerate() {
        table = table.concat(&decode(csv)).unwrap();
        let body = table_to_json(&run_query(&table, &ops).unwrap());
        assert!(prefix_of_body.insert(body, b + 1).is_none());
    }

    let server = Server::new(Platform::new());
    server.platform().create_dashboard("bench").unwrap();
    let post = |csv: &str| server.handle(&Request::new(Method::Post, INGEST).with_body(csv));
    assert!(post(&base).is_ok());
    // Warm the key index, as a served endpoint's is.
    assert!(server.handle(&Request::get(READ)).is_ok());
    let before = server.platform().api_metrics().ingest();

    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let (mut last, mut reads) = (0, 0usize);
                    while !done.load(Ordering::SeqCst) {
                        let reply = server.handle(&Request::get(READ));
                        assert!(reply.is_ok(), "{}", reply.body);
                        let prefix = *prefix_of_body
                            .get(&reply.body)
                            .expect("a body the scan path produces for some prefix");
                        assert!(prefix >= last, "read prefix {prefix} after {last}");
                        last = prefix;
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        start.wait();
        // Checked after the readers are released: a panic here would
        // leave them spinning.
        let unmerged: Vec<String> = batches
            .iter()
            .map(|csv| post(csv))
            .filter(|ack| !ack.is_ok() || !ack.body.contains("\"index\": \"merged\""))
            .map(|ack| ack.body)
            .collect();
        done.store(true, Ordering::SeqCst);
        for reader in readers {
            assert!(reader.join().expect("reader thread") > 0);
        }
        assert!(
            unmerged.is_empty(),
            "{} acks: {:?}",
            unmerged.len(),
            unmerged.first()
        );
    });

    let ingest = server.platform().api_metrics().ingest();
    assert_eq!(ingest.cold_rebuilds, 0);
    assert_eq!(ingest.index_merges, BATCHES as u64);
    // Each append either grew the endpoint in place or copied it for a
    // reader that held it.
    assert_eq!(
        ingest.grown_in_place + ingest.copied - (before.grown_in_place + before.copied),
        BATCHES as u64
    );
    let last = server.handle(&Request::get(READ));
    assert_eq!(prefix_of_body[&last.body], BATCHES);
}

/// With no reader beside it, an append owns the endpoint: the first one
/// creates the endpoint from its rows, and every later one grows the
/// columns and the warm index in place (the `ingest_commit` span says
/// `table = grown`) while reads between them keep the scan path's bytes.
#[test]
fn appends_with_no_reader_beside_them_grow_in_place() {
    use shareinsights::core::{AttrValue, Platform, TraceId};
    use shareinsights::server::{Method, Request, Server};

    const INGEST: &str = "/dashboards/bench/ds/events/ingest";
    const READ: &str = "/bench/ds/events/groupby/key/sum/qty";
    let mut r = SeededRng::new(0x9A0E);
    let mut csv_rows = |rows: usize| {
        let mut csv = String::from("key,qty\n");
        for _ in 0..rows {
            csv.push_str(&format!("k{},{}\n", r.index(30), 1 + r.index(9)));
        }
        csv
    };
    let server = Server::new(Platform::new());
    server.platform().create_dashboard("bench").unwrap();
    let ops = parse_ops(&["groupby", "key", "sum", "qty"]).unwrap();
    let decode = |csv: &str| read_csv(csv, &CsvOptions::default()).unwrap();
    let mut table: Option<Table> = None;
    // Rows per key so far: the model of which postings an append grows
    // where they lie and which cross 1/32 density and are rebuilt.
    let mut held: std::collections::BTreeMap<String, usize> = Default::default();
    let mut postings_grown = 0;
    for append in 0..12u64 {
        let csv = csv_rows(1 + append as usize * 7);
        let delta = decode(&csv);
        let n_old = table.as_ref().map_or(0, Table::num_rows);
        let n = n_old + delta.num_rows();
        let mut added: std::collections::BTreeMap<String, usize> = Default::default();
        for row in 0..delta.num_rows() {
            *added
                .entry(delta.value(row, "key").unwrap().to_string())
                .or_default() += 1;
        }
        let sparse = |count: usize, rows: usize| count * 32 < rows;
        let (mut grown, mut rebuilt) = (0, 0);
        for (key, count) in &held {
            let now = count + added.get(key).copied().unwrap_or(0);
            if sparse(*count, n_old) != sparse(now, n) {
                rebuilt += 1;
            } else if added.contains_key(key) {
                grown += 1;
            }
        }
        for (key, count) in &added {
            if !held.contains_key(key) {
                // A fresh key starts from an empty row-id posting.
                match sparse(*count, n) {
                    true => grown += 1,
                    false => rebuilt += 1,
                }
            }
            *held.entry(key.clone()).or_default() += count;
        }
        table = Some(match table {
            Some(t) => t.concat(&delta).unwrap(),
            None => delta,
        });
        let id = 0xA0 + append;
        let ack = server.handle(
            &Request::new(Method::Post, INGEST)
                .with_body(csv)
                .with_header("x-trace-id", format!("{id:x}")),
        );
        assert!(ack.is_ok(), "{}", ack.body);
        let trace = server
            .platform()
            .tracer()
            .find(TraceId(id))
            .expect("traced");
        let commit = trace
            .spans
            .iter()
            .find(|s| s.name == "ingest_commit")
            .expect("ingest_commit span");
        let (verdict, reason) = match append {
            0 => ("copied", Some("created")),
            _ => ("grown", None),
        };
        assert_eq!(commit.attr("table"), Some(&AttrValue::Str(verdict.into())));
        assert_eq!(
            commit.attr("reason"),
            reason.map(|r| AttrValue::Str(r.into())).as_ref(),
            "append {append}"
        );
        if append > 0 {
            assert!(ack.body.contains("\"index\": \"merged\""), "{}", ack.body);
            // No reader shares a posting: each one the rows touch grows
            // where it lies unless it crossed 1/32 density.
            assert_eq!(
                (
                    commit.attr("postings_grown"),
                    commit.attr("postings_rebuilt")
                ),
                (Some(&AttrValue::Int(grown)), Some(&AttrValue::Int(rebuilt))),
                "append {append}"
            );
            assert_ne!(
                commit.attr("rebuild_reason"),
                Some(&AttrValue::Str("shared".into()))
            );
            postings_grown += grown as u64;
        }
        // Reads run in 1 to 3 morsels: a job's inputs must not outlive
        // it, or the next append finds the table held and copies it. Every
        // fourth append also reads the way a request does, unforced.
        let scan = run_query(table.as_ref().unwrap(), &ops).unwrap();
        if append % 4 == 0 {
            let read = server.handle(&Request::get(READ));
            assert_eq!(read.body, table_to_json(&scan), "append {append}, unforced");
        }
        let morsels = 1 + append as usize % 3;
        let read = partition::with_morsels(morsels, || server.handle(&Request::get(READ)));
        assert_eq!(read.body, table_to_json(&scan), "append {append}");
    }
    let ingest = server.platform().api_metrics().ingest();
    assert_eq!((ingest.grown_in_place, ingest.copied), (11, 1));
    assert_eq!(ingest.cold_rebuilds, 0);
    assert_eq!(ingest.postings_grown, postings_grown);
    assert!(postings_grown > 100, "{postings_grown}");
}
