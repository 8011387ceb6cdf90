//! The partitioned kernels against their single pass, byte for byte.
//!
//! Every cold-query kernel that can run morsel by morsel on the pool — the
//! coded group-by (with and without a filter evaluated inside its
//! morsels), the mask leaves, the top-n gather and the JSON writer — is
//! forced through each morsel count from 1 to 8 with
//! `partition::with_morsels`, whatever the table's size and the machine's
//! CPU count, and must give what the single pass gives: the scan kernels'
//! tables, masks and rows, rendered to the same bytes. The tables mix
//! nulls into int, float, date, bool and utf8 columns, group on keys with
//! a dictionary (utf8) and without one (int), and run from 0 to 200k rows.
//!
//! Debug builds run fewer and smaller cases; CI runs the suite in release,
//! and pinned to one CPU, where the pool has no helper and the caller runs
//! every morsel itself.

use shareinsights::datagen::SeededRng;
use shareinsights::server::table_to_json;
use shareinsights::tabular::agg::AggKind;
use shareinsights::tabular::expr::{CmpOp, Expr};
use shareinsights::tabular::io::{CellWriter, Dialect};
use shareinsights::tabular::ops::{groupby_selected, sort_limit, AggregateSpec, GroupBy};
use shareinsights::tabular::ops::{SortKey, SortOrder};
use shareinsights::tabular::partition::{self, Reason};
use shareinsights::tabular::{Bitmap, Column, DataType, Field, IndexedTable, Schema, Table, Value};

const CASES: usize = if cfg!(debug_assertions) { 6 } else { 40 };
const SIZES: [usize; 8] = [0, 1, 63, 64, 65, 700, 5_000, 20_000];
const MORSELS: std::ops::RangeInclusive<usize> = 1..=8;

const ALL_KINDS: [AggKind; 10] = [
    AggKind::Sum,
    AggKind::Count,
    AggKind::CountAll,
    AggKind::Avg,
    AggKind::Min,
    AggKind::Max,
    AggKind::First,
    AggKind::Last,
    AggKind::CountDistinct,
    AggKind::Collect,
];

/// Strings that need JSON escaping and ones that do not.
const TEXT: [&str; 6] = ["plain", "b", "q\"uo\\te", "tab\tnl\n", "añ日本", ""];

fn validity(rng: &mut SeededRng, rows: usize, nulls: f64) -> Bitmap {
    let mut v = Bitmap::new_set(rows);
    (0..rows)
        .filter(|_| rng.chance(nulls))
        .for_each(|r| v.clear(r));
    v
}

/// `rows` rows: `k`, `k2` (utf8 keys, few values: a dictionary each),
/// `ik` (an int key: no dictionary), and `i`, `f`, `d`, `b`, `s` values.
fn table(rng: &mut SeededRng, rows: usize) -> Table {
    let nulls = [0.0, 0.05, 0.5][rng.index(3)];
    let keys = 1 + rng.index(40);
    let strs = |rng: &mut SeededRng, n: usize, prefix: &str| -> Column {
        let cells: Vec<String> = (0..rows)
            .map(|_| format!("{prefix}{:03}", rng.index(n)))
            .collect();
        Column::Utf8 {
            data: cells.iter().collect(),
            validity: validity(rng, rows, nulls),
        }
    };
    let k = strs(rng, keys, "k");
    let k2 = strs(rng, 3, "r");
    let ik = Column::Int64 {
        data: (0..rows).map(|_| rng.int_range(0, 7)).collect(),
        validity: validity(rng, rows, nulls),
    };
    let i = Column::Int64 {
        data: (0..rows).map(|_| rng.int_range(-1_000, 1_000)).collect(),
        validity: validity(rng, rows, nulls),
    };
    let f = Column::Float64 {
        data: (0..rows)
            .map(|_| match rng.index(6) {
                0 => -0.0,
                1 => 0.1 * rng.int_range(-50, 50) as f64,
                2 => 1e9 + rng.unit(),
                _ => rng.int_range(-100, 100) as f64 / 8.0,
            })
            .collect(),
        validity: validity(rng, rows, nulls),
    };
    let d = Column::Date {
        data: (0..rows)
            .map(|_| rng.int_range(-800_000, 3_000_000) as i32)
            .collect(),
        validity: validity(rng, rows, nulls),
    };
    let b = Column::Bool {
        data: (0..rows).map(|_| rng.chance(0.5)).collect(),
        validity: validity(rng, rows, nulls),
    };
    let s = Column::Utf8 {
        data: (0..rows).map(|_| TEXT[rng.index(TEXT.len())]).collect(),
        validity: validity(rng, rows, nulls),
    };
    let schema = Schema::new(vec![
        Field::new("k", DataType::Utf8),
        Field::new("k2", DataType::Utf8),
        Field::new("ik", DataType::Int64),
        Field::new("i", DataType::Int64),
        Field::new("f", DataType::Float64),
        Field::new("d", DataType::Date),
        Field::new("b", DataType::Bool),
        Field::new("s", DataType::Utf8),
    ])
    .expect("schema");
    Table::new(schema, vec![k, k2, ik, i, f, d, b, s]).expect("table")
}

/// The bytes a table stands for: its schema and its JSON body.
fn bytes(t: &Table) -> String {
    format!("{:?}\n{}", t.schema().fields(), table_to_json(t))
}

/// The JSON body the single pass writes: every row, in order, from one
/// writer.
fn json_single_pass(t: &Table) -> String {
    let cells = CellWriter::new(t, Dialect::Json);
    let names: Vec<String> = t
        .schema()
        .names()
        .iter()
        .map(|n| format!("{n:?}"))
        .collect();
    let mut out = format!("{{\"columns\": [{}], \"rows\": [", names.join(", "));
    for r in 0..t.num_rows() {
        if r > 0 {
            out.push_str(", ");
        }
        out.push('[');
        cells.write_row(&mut out, r, ", ");
        out.push(']');
    }
    out.push_str(&format!("], \"total_rows\": {}}}", t.num_rows()));
    out
}

fn random_aggregates(rng: &mut SeededRng) -> Vec<AggregateSpec> {
    let columns = ["i", "f", "d", "b", "s", "k"];
    (0..1 + rng.index(3))
        .map(|a| {
            let kind = ALL_KINDS[rng.index(ALL_KINDS.len())];
            // `sum`/`avg` over ints partition; over floats they decline.
            let on = match kind {
                AggKind::Sum | AggKind::Avg => ["i", "i", "f"][rng.index(3)],
                _ => columns[rng.index(columns.len())],
            };
            AggregateSpec::new(kind, on, format!("a{a}"))
        })
        .collect()
}

fn random_keys(rng: &mut SeededRng) -> Vec<&'static str> {
    match rng.index(4) {
        0 => vec!["k"],
        1 => vec!["k", "k2"],
        2 => vec!["k2"],
        _ => vec!["k", "ik"],
    }
}

/// A leaf `column <op> literal`, `IN`, or `IS NULL` over any column.
fn random_leaf(rng: &mut SeededRng) -> Expr {
    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    let op = OPS[rng.index(OPS.len())];
    let (column, lit) = match rng.index(8) {
        0 => ("i", Value::Int(rng.int_range(-1_000, 1_000))),
        1 => ("f", Value::Float(rng.int_range(-10, 10) as f64 / 2.0)),
        2 => ("i", Value::Float(rng.int_range(-1_000, 1_000) as f64 + 0.5)),
        3 => ("d", Value::Date(rng.int_range(-800_000, 3_000_000) as i32)),
        4 => ("b", Value::Bool(rng.chance(0.5))),
        5 => ("k", Value::Str(format!("k{:03}", rng.index(40)))),
        6 => ("k2", Value::Str(format!("r{:03}", rng.index(3)))),
        _ => ("s", Value::Str(TEXT[rng.index(TEXT.len())].to_string())),
    };
    match rng.index(5) {
        0 => Expr::IsNull(Box::new(Expr::col(column))),
        1 => {
            let mut list = vec![lit];
            if rng.chance(0.3) {
                list.push(Value::Null);
            }
            Expr::InList(Box::new(Expr::col(column)), list)
        }
        _ => Expr::cmp(op, Expr::col(column), Expr::Literal(lit)),
    }
}

fn random_filter(rng: &mut SeededRng, depth: usize) -> Expr {
    if depth == 0 || rng.chance(0.4) {
        return random_leaf(rng);
    }
    let (a, b) = (random_filter(rng, depth - 1), random_filter(rng, depth - 1));
    match rng.index(3) {
        0 => Expr::And(Box::new(a), Box::new(b)),
        1 => Expr::Or(Box::new(a), Box::new(b)),
        _ => Expr::Not(Box::new(a)),
    }
}

/// Every size of the case's run: the fixed ones, then (in release) one
/// table of 200k rows.
fn sizes(case: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = SIZES.to_vec();
    if !cfg!(debug_assertions) && case == 0 {
        sizes.push(200_000);
    }
    sizes
}

#[test]
fn groupby_every_aggregate_equals_the_single_pass_at_every_morsel_count() {
    let mut rng = SeededRng::new(0x9a27);
    for case in 0..CASES {
        for rows in sizes(case) {
            let t = table(&mut rng, rows);
            let ix = IndexedTable::new(t.clone());
            let cfg = GroupBy::with_aggregates(&random_keys(&mut rng), random_aggregates(&mut rng));
            let filter = random_filter(&mut rng, 2);
            let mask = filter.eval_mask(&t).expect("mask");
            let want = groupby_selected(&t, &cfg, None).expect("scan group-by");
            let want_selected = groupby_selected(&t, &cfg, Some(&mask)).expect("scan group-by");
            for m in MORSELS {
                partition::with_morsels(m, || {
                    if let Some(got) = ix.groupby(&cfg) {
                        assert_eq!(
                            bytes(&got),
                            bytes(&want),
                            "case {case}, {rows} rows, {m} morsels, {cfg:?}"
                        );
                    }
                    if let Some(got) = ix.groupby_selected(&cfg, Some(&mask)) {
                        assert_eq!(
                            bytes(&got),
                            bytes(&want_selected),
                            "selected: case {case}, {rows} rows, {m} morsels"
                        );
                    }
                    if let Some((got, _)) = ix.groupby_where(&cfg, &filter) {
                        assert_eq!(
                            bytes(&got),
                            bytes(&want_selected),
                            "where {filter}: case {case}, {rows} rows, {m} morsels"
                        );
                    }
                });
            }
        }
    }
}

#[test]
fn float_sums_and_averages_decline_the_partitioned_path() {
    let mut rng = SeededRng::new(0xf10a7);
    let t = table(&mut rng, 5_000);
    let ix = IndexedTable::new(t.clone());
    for kind in [AggKind::Sum, AggKind::Avg] {
        let cfg = GroupBy::with_aggregates(&["k"], vec![AggregateSpec::new(kind, "f", "x")]);
        let want = groupby_selected(&t, &cfg, None).expect("scan group-by");
        for m in MORSELS {
            partition::with_morsels(m, || {
                partition::take_verdict();
                let got = ix.groupby(&cfg).expect("a coded key is covered");
                let verdict = partition::take_verdict().expect("recorded");
                assert!(!verdict.partitioned, "{kind:?} at {m} morsels");
                assert_eq!(verdict.reason, Some(Reason::FloatSum));
                assert_eq!(bytes(&got), bytes(&want));
                assert!(ix.groupby_where(&cfg, &random_leaf(&mut rng)).is_none());
            });
        }
    }
    // An integer sum on the same key does partition.
    let cfg = GroupBy::with_aggregates(&["k"], vec![AggregateSpec::new(AggKind::Sum, "i", "x")]);
    partition::with_morsels(4, || {
        partition::take_verdict();
        ix.groupby(&cfg).expect("covered");
        assert!(partition::take_verdict().expect("recorded").partitioned);
    });
}

#[test]
fn first_and_last_keep_row_order_across_morsels() {
    // One group whose first and last rows sit in the first and the last
    // morsel: a merge out of morsel order swaps them.
    let rows = 4_096;
    let t = Table::new(
        Schema::of(&[("k", DataType::Utf8), ("v", DataType::Int64)]),
        vec![
            Column::utf8((0..rows).map(|r| if r % 2 == 0 { "a" } else { "b" })),
            Column::int(0..rows as i64),
        ],
    )
    .expect("table");
    let ix = IndexedTable::new(t.clone());
    let aggs = vec![
        AggregateSpec::new(AggKind::First, "v", "first"),
        AggregateSpec::new(AggKind::Last, "v", "last"),
        AggregateSpec::new(AggKind::Collect, "v", "all"),
    ];
    let cfg = GroupBy::with_aggregates(&["k"], aggs);
    let want = bytes(&groupby_selected(&t, &cfg, None).expect("scan"));
    for m in MORSELS {
        let got = partition::with_morsels(m, || ix.groupby(&cfg)).expect("covered");
        assert_eq!(bytes(&got), want, "{m} morsels");
    }
}

#[test]
fn masks_equal_the_single_pass_for_every_leaf_at_every_morsel_count() {
    let mut rng = SeededRng::new(0x3a5c);
    for case in 0..CASES {
        for rows in sizes(case) {
            let t = table(&mut rng, rows);
            let ix = IndexedTable::new(t.clone());
            for _ in 0..8 {
                let filter = random_filter(&mut rng, 3);
                let want = filter.eval_mask(&t).expect("scan mask");
                let (single, hit) = filter.eval_mask_indexed(&ix).expect("indexed mask");
                assert_eq!(single, want, "{filter}: case {case}, {rows} rows");
                for m in MORSELS {
                    let (got, got_hit) = partition::with_morsels(m, || {
                        filter.eval_mask_indexed(&ix).expect("indexed mask")
                    });
                    assert_eq!(got, want, "{filter}: case {case}, {rows} rows, {m} morsels");
                    assert_eq!(got_hit, hit, "{filter}: index use, {m} morsels");
                }
            }
        }
    }
}

#[test]
fn top_n_and_json_equal_the_single_pass_at_every_morsel_count() {
    let mut rng = SeededRng::new(0x70b);
    for case in 0..CASES {
        for rows in sizes(case) {
            let t = table(&mut rng, rows);
            let ix = IndexedTable::new(t.clone());
            let order = if rng.chance(0.5) {
                SortOrder::Asc
            } else {
                SortOrder::Desc
            };
            let keys = [SortKey {
                column: "k".into(),
                order,
            }];
            let n = rng.index(rows + 2);
            let want_top = sort_limit(&t, &keys, n).expect("scan top-n");
            let want_json = json_single_pass(&t);
            let want_page = json_single_pass(&want_top);
            for m in MORSELS {
                partition::with_morsels(m, || {
                    let top = ix.top_n(&keys, n).expect("a dictionary key is covered");
                    assert_eq!(top.schema().fields(), want_top.schema().fields());
                    assert_eq!(
                        table_to_json(&top),
                        want_page,
                        "top {n} of {rows}, {m} morsels"
                    );
                    assert_eq!(table_to_json(&t), want_json, "{rows} rows, {m} morsels");
                });
            }
        }
    }
}
