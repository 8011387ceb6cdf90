//! Property-style tests over the engine's core invariants.
//!
//! Formerly proptest-based; the offline build environment cannot fetch
//! crates.io, so the same invariants are now exercised with a seeded local
//! RNG (`datagen::SeededRng`) over 64 generated cases each. Failures are
//! reproducible: every case derives from a fixed seed.

use shareinsights::core::Platform;
use shareinsights::datagen::SeededRng;
use shareinsights::engine::baseline::{execute_naive, rowwise_mask};
use shareinsights::engine::compile::{compile, CompileEnv};
use shareinsights::engine::exec::{ExecContext, Executor};
use shareinsights::engine::selection::{Selection, SelectionProvider, StaticSelections};
use shareinsights::engine::task::run_chain;
use shareinsights::engine::TaskRegistry;
use shareinsights::flowfile::parse_flow_file;
use shareinsights::server::table_to_json;
use shareinsights::tabular::agg::AggKind;
use shareinsights::tabular::io::csv::{read_csv, write_csv, CsvOptions};
use shareinsights::tabular::io::record::{read_records, write_records};
use shareinsights::tabular::ops::{
    groupby, join, sort, AggregateSpec, GroupBy, JoinCondition, JoinSpec, SortKey,
};
use shareinsights::tabular::{Bitmap, Row, Table, Value};
use std::time::Instant;

const CASES: usize = 64;

// ---------------------------------------------------------------------------
// Value / table generators
// ---------------------------------------------------------------------------

fn lower_string(r: &mut SeededRng, lo: usize, hi: usize) -> String {
    let len = lo + r.index(hi - lo + 1);
    (0..len)
        .map(|_| (b'a' + r.index(26) as u8) as char)
        .collect()
}

fn printable_string(r: &mut SeededRng, lo: usize, hi: usize) -> String {
    let len = lo + r.index(hi - lo + 1);
    (0..len)
        .map(|_| (b' ' + r.index(95) as u8) as char)
        .collect()
}

/// Values that survive CSV's textual round-trip unambiguously.
fn csv_safe_value(r: &mut SeededRng) -> Value {
    match r.weighted_index(&[3.0, 3.0, 1.0, 1.0]) {
        0 => Value::Int(r.int_range(i64::MIN, i64::MAX)),
        1 => Value::Str(lower_string(r, 1, 8)),
        2 => Value::Null,
        _ => Value::Bool(r.chance(0.5)),
    }
}

/// Any value, including floats (for the binary format, which is exact).
fn any_value(r: &mut SeededRng) -> Value {
    match r.weighted_index(&[3.0, 2.0, 3.0, 1.0, 1.0, 1.0]) {
        0 => Value::Int(r.int_range(i64::MIN, i64::MAX)),
        1 => loop {
            let f = f64::from_bits(r.next_u64());
            if f.is_finite() {
                break Value::Float(f);
            }
        },
        2 => Value::Str(printable_string(r, 0, 12)),
        3 => Value::Null,
        4 => Value::Bool(r.chance(0.5)),
        _ => Value::Date(r.int_range(-100_000, 99_999) as i32),
    }
}

fn small_int(lo: i64, hi_exclusive: i64) -> impl Fn(&mut SeededRng) -> Value {
    move |r| Value::Int(r.int_range(lo, hi_exclusive - 1))
}

/// A table with `cols` homogeneous columns and a row count in `[lo, hi)`.
fn gen_table(
    r: &mut SeededRng,
    lo: usize,
    hi: usize,
    cols: usize,
    value: &dyn Fn(&mut SeededRng) -> Value,
) -> Table {
    let n = lo + r.index(hi - lo);
    let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
    let rows: Vec<Row> = (0..n)
        .map(|_| Row::from_values((0..cols).map(|_| value(r)).collect()))
        .collect();
    // Mixed-type columns unify through the lossy lattice; that can
    // stringify cells, so compare via to_rows() after construction.
    Table::from_rows(&names, &rows).expect("generated tables are rectangular")
}

// ---------------------------------------------------------------------------
// Payload formats
// ---------------------------------------------------------------------------

/// The binary record format round-trips any table exactly.
#[test]
fn record_format_roundtrips() {
    let mut r = SeededRng::new(0xF0F0_0001);
    for _ in 0..CASES {
        let t = gen_table(&mut r, 0, 30, 3, &any_value);
        let bytes = write_records(&t);
        let back = read_records(&bytes).unwrap();
        assert_eq!(t, back);
        assert!(t.schema().same_shape(back.schema()));
    }
}

/// CSV round-trips tables whose cells have unambiguous text forms.
#[test]
fn csv_roundtrips_safe_tables() {
    let mut r = SeededRng::new(0xF0F0_0002);
    for _ in 0..CASES {
        let t = gen_table(&mut r, 0, 30, 3, &csv_safe_value);
        let text = write_csv(&t, ',');
        let back = read_csv(&text, &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), back.num_rows());
        assert_eq!(t.to_rows(), back.to_rows());
    }
}

// ---------------------------------------------------------------------------
// Bitmap laws
// ---------------------------------------------------------------------------

#[test]
fn bitmap_boolean_algebra() {
    let mut r = SeededRng::new(0xF0F0_0003);
    for _ in 0..CASES {
        let bits: Vec<bool> = (0..r.index(200)).map(|_| r.chance(0.5)).collect();
        let a = Bitmap::from_bools(&bits);
        let not_a = a.not();
        assert!(a.and(&not_a).none_set(), "a ∧ ¬a = ∅");
        assert!(a.or(&not_a).all_set() || a.is_empty(), "a ∨ ¬a = ⊤");
        assert_eq!(a.not().not(), a, "double negation");
        assert_eq!(a.count_ones() + not_a.count_ones(), bits.len());
        assert_eq!(a.ones().len(), a.count_ones());
    }
}

// ---------------------------------------------------------------------------
// Operator invariants
// ---------------------------------------------------------------------------

/// Group-by partition law: group counts sum to the row count, and the
/// per-group sums add up to the column total.
#[test]
fn groupby_partitions() {
    let mut r = SeededRng::new(0xF0F0_0004);
    let value = |r: &mut SeededRng| {
        if r.weighted_index(&[2.0, 1.0]) == 0 {
            Value::Int(r.int_range(0, 4))
        } else {
            Value::Null
        }
    };
    for _ in 0..CASES {
        let t = gen_table(&mut r, 0, 60, 2, &value);
        let cfg = GroupBy::with_aggregates(
            &["c0"],
            vec![
                AggregateSpec::new(AggKind::CountAll, "", "n"),
                AggregateSpec::new(AggKind::Sum, "c1", "total"),
            ],
        );
        let out = groupby(&t, &cfg).unwrap();
        let n_sum: i64 = (0..out.num_rows())
            .filter_map(|i| out.value(i, "n").unwrap().as_int())
            .sum();
        assert_eq!(n_sum as usize, t.num_rows());
        let group_total: i64 = (0..out.num_rows())
            .filter_map(|i| out.value(i, "total").unwrap().as_int())
            .sum();
        let direct_total: i64 = (0..t.num_rows())
            .filter_map(|i| t.value(i, "c1").unwrap().as_int())
            .sum();
        assert_eq!(group_total, direct_total);
        // Group keys are unique.
        let keys: std::collections::HashSet<String> = (0..out.num_rows())
            .map(|i| out.value(i, "c0").unwrap().to_string())
            .collect();
        assert_eq!(keys.len(), out.num_rows());
    }
}

/// Join cardinality laws across all conditions.
#[test]
fn join_cardinalities() {
    let mut r = SeededRng::new(0xF0F0_0005);
    for _ in 0..CASES {
        let l = gen_table(&mut r, 0, 25, 2, &small_int(0, 6));
        let rt = gen_table(&mut r, 0, 25, 2, &small_int(0, 6));
        let spec = |c| JoinSpec::on(&["c0"], c);
        let inner = join(&l, &rt, &spec(JoinCondition::Inner)).unwrap();
        let left = join(&l, &rt, &spec(JoinCondition::LeftOuter)).unwrap();
        let right = join(&l, &rt, &spec(JoinCondition::RightOuter)).unwrap();
        let full = join(&l, &rt, &spec(JoinCondition::FullOuter)).unwrap();
        assert!(inner.num_rows() <= l.num_rows() * rt.num_rows());
        assert!(left.num_rows() >= l.num_rows());
        assert!(right.num_rows() >= rt.num_rows());
        assert!(full.num_rows() >= left.num_rows().max(right.num_rows()));
        assert_eq!(
            full.num_rows(),
            left.num_rows() + right.num_rows() - inner.num_rows(),
            "inclusion-exclusion over matches"
        );
    }
}

/// Sort produces an ordered permutation of its input.
#[test]
fn sort_is_ordered_permutation() {
    let mut r = SeededRng::new(0xF0F0_0006);
    for _ in 0..CASES {
        let t = gen_table(&mut r, 0, 50, 2, &any_value);
        let out = sort(&t, &[SortKey::asc("c0"), SortKey::desc("c1")]).unwrap();
        assert_eq!(out.num_rows(), t.num_rows());
        let mut a = t.to_rows();
        let mut b = out.to_rows();
        a.sort();
        b.sort();
        assert_eq!(a, b, "permutation");
        for i in 1..out.num_rows() {
            let prev = out.value(i - 1, "c0").unwrap();
            let cur = out.value(i, "c0").unwrap();
            assert!(prev <= cur, "ordered by c0");
        }
    }
}

// ---------------------------------------------------------------------------
// Executor equivalence (design decision 3)
// ---------------------------------------------------------------------------

/// The tasks `executors_agree` draws its flows from: every task the row
/// baseline runs on its own kernels.
const EXECUTOR_TASKS: &str = r#"
D:
  data: [c0, c1, c2]
  dim: [c0, c1]
T:
  keep:
    type: filter_by
    filter_expression: c1 > 2
  agg:
    type: groupby
    groupby: [c0]
    aggregates:
    - operator: sum
      apply_on: c1
      out_field: total
  order:
    type: sort
    orderby_column: [c0 DESC, c1 ASC]
  top:
    type: topn
    orderby_column: [c1 DESC]
    limit: 3
  top_per:
    type: topn
    groupby: [c0]
    orderby_column: [c1 ASC]
    limit: 2
  top_total:
    type: topn
    orderby_column: [total DESC]
    limit: 2
  dedup:
    type: distinct
    columns: [c0]
  first:
    type: limit
    limit: 5
  look_up:
    type: join
    left: data by c0
    right: dim by c0
    join_condition: @JOIN@
"#;

const EXECUTOR_FLOWS: [&str; 9] = [
    "D.data | T.keep | T.agg",
    "D.data | T.order",
    "D.data | T.top",
    "D.data | T.top_per",
    "D.data | T.agg | T.top_total",
    "D.data | T.dedup",
    "D.data | T.first",
    "(D.data, D.dim) | T.look_up",
    "(D.dim, D.data) | T.look_up",
];

/// Run `src`'s `D.out` through the columnar executor and the naive row
/// baseline, assert the two give the same JSON bytes, rows in the same
/// order, and return the baseline's table.
fn assert_executors_agree(src: &str, inputs: &[(&str, &Table)], what: &str) -> Table {
    let ff = parse_flow_file("p", src).unwrap();
    let reg = TaskRegistry::new();
    let pipeline = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
    let mut ctx = ExecContext::new(shareinsights::connectors::Catalog::new());
    for &(name, t) in inputs {
        ctx = ctx.with_table(name, t.clone());
    }
    let columnar = Executor::default().execute(&pipeline, &ctx).unwrap();
    let naive = execute_naive(&pipeline, &ctx).unwrap();
    let out = naive.table("out").unwrap();
    assert_eq!(
        table_to_json(columnar.table("out").unwrap()),
        table_to_json(out),
        "{what}"
    );
    out.clone()
}

/// The columnar parallel executor and the naive row baseline agree byte
/// for byte on a flow drawn from [`EXECUTOR_FLOWS`], over small integers
/// with some nulls. `data`'s third column is in no sort key, so a sort or
/// top-n that breaks a tie out of row order shows in the bytes.
#[test]
fn executors_agree() {
    let mut r = SeededRng::new(0xF0F0_0007);
    let value = |r: &mut SeededRng| match r.index(10) {
        0 => Value::Null,
        _ => Value::Int(r.int_range(0, 7)),
    };
    for case in 0..CASES * 4 {
        let data = gen_table(&mut r, 1, 60, 3, &value);
        let dim = gen_table(&mut r, 0, 12, 2, &value);
        let flow = *r.pick(&EXECUTOR_FLOWS);
        let join = *r.pick(&["inner", "left outer", "right outer", "full outer"]);
        let src = format!(
            "{}F:\n  +D.out: {flow}\n",
            EXECUTOR_TASKS.replace("@JOIN@", join)
        );
        let what = format!("case {case}: {flow} ({join})");
        assert_executors_agree(&src, &[("data", &data), ("dim", &dim)], &what);
    }
}

/// A join binds its sides by the names its task gives them, not by the
/// order the flow lists them in: with the right object first, both
/// executors put the left object's columns first and keep its unmatched
/// rows under `left outer`.
#[test]
fn join_sides_bind_by_name_in_both_executors() {
    let l = Table::from_rows(
        &["k", "v"],
        &[
            Row::from_values(vec![Value::from("x"), Value::Int(1)]),
            Row::from_values(vec![Value::from("y"), Value::Int(2)]),
        ],
    )
    .unwrap();
    let rt = Table::from_rows(
        &["k", "w"],
        &[
            Row::from_values(vec![Value::from("x"), Value::Int(10)]),
            Row::from_values(vec![Value::from("z"), Value::Int(12)]),
        ],
    )
    .unwrap();
    for condition in ["inner", "left outer", "right outer", "full outer"] {
        let src = format!(
            "D:\n  l: [k, v]\n  r: [k, w]\nT:\n  j:\n    type: join\n    left: l by k\n    \
             right: r by k\n    join_condition: {condition}\nF:\n  +D.out: (D.r, D.l) | T.j\n"
        );
        let out = assert_executors_agree(&src, &[("l", &l), ("r", &rt)], condition);
        assert_eq!(
            out.schema().names(),
            ["k", "v", "k_right", "w"],
            "{condition}"
        );
        if condition == "left outer" {
            let kept: Vec<Value> = (0..out.num_rows())
                .map(|i| out.value(i, "k").unwrap())
                .collect();
            assert_eq!(kept, [Value::from("x"), Value::from("y")], "{condition}");
        }
    }
}

// ---------------------------------------------------------------------------
// Flow-file language
// ---------------------------------------------------------------------------

/// Serialization round-trips generated flow files (flows + tasks).
#[test]
fn flowfile_roundtrips() {
    let mut r = SeededRng::new(0xF0F0_0008);
    for _ in 0..CASES {
        let names: Vec<String> = {
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..1 + r.index(4) {
                set.insert(lower_string(&mut r, 2, 6));
            }
            set.into_iter().collect()
        };
        let spans: Vec<u8> = (0..1 + r.index(2)).map(|_| 1 + r.index(6) as u8).collect();
        let mut src = String::from("D:\n  src_obj: [k, v]\nT:\n");
        for n in &names {
            src.push_str(&format!(
                "  t_{n}:\n    type: filter_by\n    filter_expression: v < 3\n"
            ));
        }
        src.push_str("F:\n");
        for n in &names {
            src.push_str(&format!("  +D.out_{n}: D.src_obj | T.t_{n}\n"));
        }
        src.push_str("W:\n");
        for n in &names {
            src.push_str(&format!(
                "  w_{n}:\n    type: DataGrid\n    source: D.out_{n}\n"
            ));
        }
        src.push_str("L:\n  rows:\n");
        for (i, s) in spans.iter().enumerate() {
            let n = &names[i % names.len()];
            src.push_str(&format!("  - [span{s}: W.w_{n}]\n"));
        }
        let ff = parse_flow_file("gen", &src).unwrap();
        let text = shareinsights::flowfile::to_text(&ff);
        let ff2 = parse_flow_file("gen", &text).unwrap();
        let strip =
            |flows: &[shareinsights::flowfile::Flow]| -> Vec<shareinsights::flowfile::Flow> {
                flows
                    .iter()
                    .map(|f| {
                        let mut f = f.clone();
                        f.line = 0;
                        f
                    })
                    .collect()
            };
        assert_eq!(strip(&ff.flows), strip(&ff2.flows));
        assert_eq!(ff.tasks.len(), ff2.tasks.len());
        assert_eq!(ff.layout.map(|l| l.rows), ff2.layout.map(|l| l.rows));
    }
}

/// Parse → serialize → parse is a *fixed point* on the canonical text for
/// generated valid flow files covering every section (D/T/F/W/L): one trip
/// through the serializer canonicalizes, after which serialization is the
/// identity. This is what lets the collaboration services (§4.5) diff and
/// merge flow files textually.
#[test]
fn flowfile_serialize_is_fixed_point() {
    let mut r = SeededRng::new(0xF0F0_000E);
    for _ in 0..CASES {
        // D: 1-3 source objects, some columns renamed from a source path.
        let n_data = 1 + r.index(3);
        let data_names: Vec<String> = (0..n_data).map(|i| format!("src{i}")).collect();
        let mut src = String::from("D:\n");
        for d in &data_names {
            let cols: Vec<String> = (0..1 + r.index(3))
                .map(|c| {
                    if r.chance(0.3) {
                        format!("c{c} => raw.f{c}")
                    } else {
                        format!("c{c}")
                    }
                })
                .collect();
            src.push_str(&format!("  {d}: [{}]\n", cols.join(", ")));
        }
        for d in &data_names {
            if r.chance(0.7) {
                src.push_str(&format!("D.{d}:\n  source: '{d}.csv'\n  format: csv\n"));
                if r.chance(0.3) {
                    src.push_str("  endpoint: true\n");
                }
                if r.chance(0.3) {
                    src.push_str(&format!("  publish: shared_{d}\n"));
                }
            }
        }
        // T: a mix of task shapes exercising scalar and list params.
        let n_tasks = 1 + r.index(3);
        let task_names: Vec<String> = (0..n_tasks).map(|i| format!("t{i}")).collect();
        src.push_str("T:\n");
        for t in &task_names {
            match r.index(3) {
                0 => src.push_str(&format!(
                    "  {t}:\n    type: filter_by\n    filter_expression: c0 < {}\n",
                    r.int_range(0, 99)
                )),
                1 => src.push_str(&format!(
                    "  {t}:\n    type: limit\n    limit: {}\n",
                    1 + r.index(50)
                )),
                _ => src.push_str(&format!("  {t}:\n    type: groupby\n    groupby: [c0]\n")),
            }
        }
        // F: one flow per task; occasionally a multi-input fan-in.
        src.push_str("F:\n");
        for (i, t) in task_names.iter().enumerate() {
            let plus = if r.chance(0.5) { "+" } else { "" };
            if n_data >= 2 && r.chance(0.3) {
                src.push_str(&format!(
                    "  {plus}D.out{i}: (D.{}, D.{}) | T.{t}\n",
                    data_names[0], data_names[1]
                ));
            } else {
                let input = &data_names[i % data_names.len()];
                src.push_str(&format!("  {plus}D.out{i}: D.{input} | T.{t}\n"));
            }
        }
        // W: widgets over flow outputs plus the occasional static source.
        src.push_str("W:\n");
        for (i, t) in task_names.iter().enumerate() {
            if r.chance(0.25) {
                src.push_str(&format!(
                    "  w{i}:\n    type: Slider\n    source: ['2013-05-0{}', '2013-05-2{}']\n    range: true\n",
                    1 + r.index(9),
                    r.index(8)
                ));
            } else {
                let tail = if r.chance(0.4) {
                    format!(" | T.{t}")
                } else {
                    String::new()
                };
                src.push_str(&format!(
                    "  w{i}:\n    type: DataGrid\n    source: D.out{i}{tail}\n"
                ));
            }
        }
        // L: every widget placed, sometimes under a description.
        src.push_str("L:\n");
        if r.chance(0.5) {
            src.push_str("  description: generated dashboard\n");
        }
        src.push_str("  rows:\n");
        for i in 0..task_names.len() {
            src.push_str(&format!("  - [span{}: W.w{i}]\n", 1 + r.index(12)));
        }

        let ff1 = parse_flow_file("gen", &src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let text1 = shareinsights::flowfile::to_text(&ff1);
        let ff2 = parse_flow_file("gen", &text1).unwrap_or_else(|e| panic!("{e}\n{text1}"));
        let text2 = shareinsights::flowfile::to_text(&ff2);
        assert_eq!(text1, text2, "canonical form is a fixed point for:\n{src}");
        // And a third trip stays put, so the fixed point is stable.
        let ff3 = parse_flow_file("gen", &text2).unwrap();
        assert_eq!(shareinsights::flowfile::to_text(&ff3), text2);
    }
}

/// Expression parser round-trips through Display.
#[test]
fn expr_display_roundtrips() {
    use shareinsights::tabular::expr::parse_expr;
    let mut r = SeededRng::new(0xF0F0_0009);
    for _ in 0..CASES {
        let col = lower_string(&mut r, 1, 6);
        let n = r.int_range(-1000, 999);
        let s = lower_string(&mut r, 0, 6);
        for src in [
            format!("{col} < {n}"),
            format!("{col} == '{s}'"),
            format!("{col} > {n} and {col} contains '{s}'"),
            format!("not ({col} != {n}) or {col} in ['{s}', 'zz']"),
            format!("{col} * 2 + 1 >= {n}"),
        ] {
            let e = parse_expr(&src).unwrap();
            let printed = e.to_string();
            let e2 = parse_expr(&printed).unwrap();
            assert_eq!(e, e2, "via '{printed}'");
        }
    }
}

/// Integers where a comparison through `f64` stops being exact: around
/// 2^53, where `x as f64` rounds, and the ends of `i64`.
const EDGE_INTS: [i64; 6] = [
    i64::MIN,
    -(1 << 53) - 1,
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1,
    i64::MAX,
];

/// Floats at the ends of the IEEE total order `Value::cmp` uses, and the
/// neighbours of [`EDGE_INTS`] as floats.
const EDGE_FLOATS: [f64; 10] = [
    f64::NAN,
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -9_007_199_254_740_992.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    i64::MAX as f64,
    i64::MIN as f64,
];

/// One table for the mask property: Int64 / Float64 / Date / Utf8 / Bool
/// columns with nulls plus an all-null column. `sorted` lays the numeric
/// columns out ascending, so zone maps see disjoint bounds and settle
/// whole zones; otherwise numbers now and then take an edge value. Strings
/// mix words with numeric-looking text.
fn gen_mask_table(r: &mut SeededRng, rows: usize, sorted: bool) -> Table {
    use shareinsights::tabular::{Column, ColumnBuilder, DataType, Field, Schema};
    let mut cols: Vec<ColumnBuilder> = [
        DataType::Int64,
        DataType::Float64,
        DataType::Date,
        DataType::Utf8,
        DataType::Bool,
    ]
    .into_iter()
    .map(ColumnBuilder::new)
    .collect();
    for row in 0..rows {
        let base = if sorted {
            row as i64 / 7
        } else {
            r.int_range(-6, 6)
        };
        let cells = [
            match r.index(12) {
                0 if !sorted => Value::Int(*r.pick(&EDGE_INTS)),
                _ => Value::Int(base),
            },
            match r.index(16) {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(-0.0),
                2 if !sorted => Value::Float(*r.pick(&EDGE_FLOATS)),
                _ => Value::Float(base as f64 + 0.5 * r.index(2) as f64),
            },
            Value::Date(base as i32),
            match r.index(4) {
                0 => Value::Str(format!("{}", r.int_range(-6, 6))),
                1 => Value::Str(format!(" {}.5", r.index(4))),
                _ => Value::Str(format!("k{}", r.index(4))),
            },
            Value::Bool(r.chance(0.5)),
        ];
        for (b, v) in cols.iter_mut().zip(&cells) {
            if r.chance(0.15) {
                b.push_null();
            } else {
                b.push_coerced(v).unwrap();
            }
        }
    }
    let mut columns: Vec<Column> = cols.into_iter().map(ColumnBuilder::finish).collect();
    columns.push(Column::Null { len: rows });
    let fields = ["i", "f", "d", "s", "b", "z"]
        .iter()
        .zip(&columns)
        .map(|(name, c)| Field::new(*name, c.data_type()))
        .collect();
    Table::new(Schema::new(fields).unwrap(), columns).unwrap()
}

/// A random predicate over [`gen_mask_table`]'s columns. Leaves cover
/// every typed kernel (comparison either way round, `IN`, `IS NULL`) with
/// literals (half of them within one of `edges`, ascending) of the
/// column's own type, the *other* numeric type (integral floats among
/// them), [`EDGE_INTS`] and [`EDGE_FLOATS`], numeric-looking strings,
/// and unrelated types (dates and bools facing numbers) — plus the shapes that
/// stay row-wise (arithmetic, which is an error on strings and bools;
/// `contains`; column-to-column; a bare bool column; a null literal).
fn gen_predicate(
    r: &mut SeededRng,
    depth: usize,
    edges: &[i64],
) -> shareinsights::tabular::expr::Expr {
    use shareinsights::tabular::expr::{ArithOp, CmpOp, Expr};
    if depth > 0 && r.chance(0.6) {
        let a = Box::new(gen_predicate(r, depth - 1, edges));
        return match r.index(3) {
            0 => Expr::And(a, Box::new(gen_predicate(r, depth - 1, edges))),
            1 => Expr::Or(a, Box::new(gen_predicate(r, depth - 1, edges))),
            _ => Expr::Not(a),
        };
    }
    let column = |r: &mut SeededRng| Expr::col(*r.pick(&["i", "f", "d", "s", "b", "z"]));
    let literal = |r: &mut SeededRng| -> Value {
        // Mostly the values where a kernel changes its mind, else anywhere.
        let span = edges[edges.len() - 1] + 2;
        let n = if r.chance(0.5) {
            *r.pick(edges) + r.int_range(-1, 1)
        } else {
            r.int_range(-span, span)
        };
        match r.index(11) {
            0 | 1 => Value::Int(n),
            2 => Value::Float(n as f64),
            3 => Value::Float(n as f64 + 0.5),
            4 => Value::Str(format!("{n}")),
            5 => Value::Str(format!("k{}", r.index(5))),
            6 => Value::Date(n as i32),
            7 => Value::Bool(r.chance(0.5)),
            8 => Value::Int(*r.pick(&EDGE_INTS)),
            9 => Value::Float(*r.pick(&EDGE_FLOATS)),
            _ => Value::Null,
        }
    };
    let op = *r.pick(&[
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ]);
    match r.index(10) {
        0..=2 => Expr::cmp(op, column(r), Expr::Literal(literal(r))),
        3 => Expr::cmp(op, Expr::Literal(literal(r)), column(r)),
        4 => Expr::InList(
            Box::new(column(r)),
            (0..r.index(4)).map(|_| literal(r)).collect(),
        ),
        5 => Expr::IsNull(Box::new(column(r))),
        6 => Expr::cmp(
            op,
            Expr::Arith(
                *r.pick(&[ArithOp::Add, ArithOp::Mul, ArithOp::Div]),
                Box::new(column(r)),
                Box::new(Expr::Literal(literal(r))),
            ),
            Expr::Literal(literal(r)),
        ),
        7 => Expr::Contains(Box::new(column(r)), Box::new(Expr::lit("k"))),
        8 => Expr::cmp(op, column(r), column(r)),
        _ => Expr::col("b"),
    }
}

/// The column-at-a-time mask equals a row-at-a-time evaluation of the
/// same predicate bit for bit — with or without indexes behind it — and
/// fails on exactly the same inputs with the same message. The typed leaf
/// kernels build a word from 64 rows and a zone's range at a time, so
/// table lengths include those just off one and two words and one zone.
#[test]
fn vectorised_mask_equals_rowwise_evaluation() {
    const MASK_CASES: usize = if cfg!(debug_assertions) { 60 } else { 2000 };
    use shareinsights::tabular::expr::{CmpOp, Expr};
    use shareinsights::tabular::IndexedTable;
    let mut r = SeededRng::new(0xF0F0_000E);
    let (mut errors, mut index_uses) = (0usize, 0usize);
    let mut check = |e: &Expr, t: &Table, indexed: &IndexedTable| {
        let want = rowwise_mask(e, t);
        let got = e.eval_mask(t).map_err(|e| e.to_string());
        assert_eq!(got, want, "{e} over {} rows", t.num_rows());
        let via_index = e.eval_mask_indexed(indexed).map_err(|e| e.to_string());
        index_uses += usize::from(via_index.as_ref().is_ok_and(|(_, used)| *used));
        assert_eq!(via_index.map(|(m, _)| m), want, "{e} (indexed)");
        errors += usize::from(want.is_err());
    };
    for _ in 0..MASK_CASES {
        let rows = if r.chance(0.05) {
            *r.pick(&[63, 64, 65, 127, 128, 129, 4095, 4096, 4097])
        } else {
            r.index(50)
        };
        let t = gen_mask_table(&mut r, rows, false);
        let indexed = IndexedTable::new(t.clone());
        for _ in 0..8 {
            check(&gen_predicate(&mut r, 3, &[-6, 0, 6]), &t, &indexed);
        }
    }
    // One sorted table spanning two zones (the first ends at row 4095):
    // random predicates, then every operator against the literals on and
    // beside each zone's bounds, where a zone map changes its verdict.
    let rows = 4300;
    let t = gen_mask_table(&mut r, rows, true);
    let indexed = IndexedTable::new(t.clone());
    let edges = [0, 4095 / 7, (rows as i64 - 1) / 7];
    for _ in 0..100 {
        check(&gen_predicate(&mut r, 3, &edges), &t, &indexed);
    }
    for column in ["i", "f", "d"] {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            for n in edges.iter().flat_map(|e| [e - 1, *e, e + 1]) {
                for lit in [
                    Value::Int(n),
                    Value::Float(n as f64 + 0.5),
                    Value::Date(n as i32),
                ] {
                    check(
                        &Expr::cmp(op, Expr::col(column), Expr::Literal(lit)),
                        &t,
                        &indexed,
                    );
                }
            }
        }
    }
    assert!(
        errors > 10,
        "arithmetic on strings should surface errors ({errors})"
    );
    assert!(
        index_uses > 200,
        "dictionary and zone indexes should answer leaves ({index_uses})"
    );
}

// ---------------------------------------------------------------------------
// Dates
// ---------------------------------------------------------------------------

/// Civil-calendar conversion round-trips over a wide day range, is
/// monotone, and formats/parses consistently.
#[test]
fn civil_date_roundtrip() {
    use shareinsights::tabular::datefmt::{civil_from_days, days_from_civil, DatePattern};
    let mut r = SeededRng::new(0xF0F0_000A);
    for _ in 0..CASES * 4 {
        let days = r.int_range(-2_000_000, 1_999_999) as i32;
        let (y, m, d) = civil_from_days(days);
        assert_eq!(days_from_civil(y, m, d), days);
        assert!((1..=12).contains(&m));
        assert!((1..=31).contains(&d));
        let (y2, m2, d2) = civil_from_days(days + 1);
        assert!((y2, m2, d2) > (y, m, d), "monotone");
        if (0..=9999).contains(&y) {
            let pat = DatePattern::compile("yyyy-MM-dd").unwrap();
            let text = format!("{y:04}-{m:02}-{d:02}");
            let parsed = pat.parse(&text).unwrap();
            assert_eq!(parsed.epoch_days(), days);
            assert_eq!(pat.format(&parsed), text);
        }
    }
}

// ---------------------------------------------------------------------------
// Collaboration
// ---------------------------------------------------------------------------

/// §4.5.1's merge claim: edits to *different* named tasks never conflict,
/// whatever the edits are.
#[test]
fn disjoint_task_edits_merge_clean() {
    use shareinsights::collab::merge_texts;
    let mut r = SeededRng::new(0xF0F0_000B);
    for _ in 0..CASES {
        let ours_limit = r.int_range(1, 99) as u32;
        let theirs_limit = r.int_range(1, 99) as u32;
        let base = "T:\n  alpha:\n    type: limit\n    limit: 10\n  beta:\n    type: limit\n    limit: 20\n";
        let ours = base.replace("limit: 10", &format!("limit: {ours_limit}"));
        let theirs = base.replace("limit: 20", &format!("limit: {theirs_limit}"));
        let out = merge_texts("d", base, &ours, &theirs).unwrap();
        assert!(out.is_clean(), "{:?}", out.conflicts);
        let merged = out.merged;
        let ours_s = ours_limit.to_string();
        let theirs_s = theirs_limit.to_string();
        assert_eq!(
            merged.task("alpha").unwrap().params.get_scalar("limit"),
            Some(ours_s.as_str())
        );
        assert_eq!(
            merged.task("beta").unwrap().params.get_scalar("limit"),
            Some(theirs_s.as_str())
        );
    }
}

// ---------------------------------------------------------------------------
// Two execution contexts, one task model (design decision 3)
// ---------------------------------------------------------------------------

/// A widget's interaction flow evaluated through the data cube produces
/// the same table as the engine's chain runner over the batch kernels:
/// the paper's claim that one task model serves both the Hadoop and the
/// JavaScript runtime.
#[test]
fn cube_equals_batch_under_selection() {
    use shareinsights::engine::task::{FilterSource, NamedTask, TaskKind, TaskRuntime};
    use shareinsights::widgets::DataCube;

    let mut r = SeededRng::new(0xF0F0_000C);
    for _ in 0..CASES {
        let t = gen_table(&mut r, 1, 50, 2, &small_int(0, 6));
        let selected = r.int_range(0, 5);
        let tasks = vec![
            NamedTask {
                name: "filter".into(),
                kind: TaskKind::FilterBySource {
                    columns: vec!["c0".into()],
                    source: FilterSource::Widget("list".into()),
                    source_columns: vec!["text".into()],
                },
                fingerprint: None,
            },
            NamedTask {
                name: "agg".into(),
                kind: TaskKind::GroupBy {
                    builtin: GroupBy::with_aggregates(
                        &["c0"],
                        vec![AggregateSpec::new(AggKind::Sum, "c1", "total")],
                    ),
                    custom: vec![],
                },
                fingerprint: None,
            },
        ];
        let selections = StaticSelections::new();
        selections.set(
            "list",
            "text",
            Selection::Values(vec![Value::Int(selected)]),
        );

        // Interactive context.
        let cube = DataCube::new(t.clone());
        let via_cube = cube.eval("w", &tasks, &selections).unwrap();

        // Batch context: the same chain through the engine's runner.
        let lookup = |_: &str| None;
        let rt = TaskRuntime {
            selections: Some(&selections),
            lookup_table: &lookup,
        };
        let input = vec![(None, t)];
        let via_batch = run_chain("w", &tasks, input, &rt, Instant::now(), &mut Vec::new());
        assert_eq!(*via_cube, via_batch.unwrap());
    }
}

/// Case count for [`contexts_agree`]: a thirtieth in debug builds.
const CONTEXT_CASES: usize = if cfg!(debug_assertions) { 60 } else { 2000 };

/// The flows [`contexts_agree`] runs: a row-local chain (`passed`), a
/// group-by with a filter before and after it (`grouped`), a join whose
/// inputs are listed right side first (`joined`), and four
/// widget-filtered chains whose first task the cube can answer from an
/// index: the filter (`picked`), the group-by (`keyed`), the sort
/// (`ordered`), and a filter, sort and limit the cube fuses to a top-n
/// (`ranked`). `W.pick` is declared because a platform save rejects a
/// `filter_source` naming an unknown widget. `@..@` marks the per-case
/// parameters.
const CONTEXT_FLOW: &str = r#"
D:
  facts: [k, day, i, f]
  dim: [k, label]
W:
  pick:
    type: DataGrid
    source: D.facts
T:
  keep:
    type: filter_by
    filter_expression: i > @MIN_I@
  to_month:
    type: map
    operator: date
    transform: day
    input_format: yyyy-MM-dd
    output_format: yyyy-MM
    output: month
  per_key:
    type: groupby
    groupby: [k]
    aggregates:
    - operator: sum
      apply_on: i
      out_field: i_sum
    - operator: sum
      apply_on: f
      out_field: f_sum
    - operator: count
      apply_on: f
      out_field: n
    - operator: avg
      apply_on: f
      out_field: f_avg
  busy:
    type: filter_by
    filter_expression: n > @MIN_N@
  enrich:
    type: join
    left: facts by k
    right: dim by k
    join_condition: @JOIN@
    project:
      facts_k: k
      facts_i: i
      facts_f: f
      dim_label: label
  by_f:
    type: sort
    orderby_column: [f DESC]
  top:
    type: topn
    groupby: [label]
    orderby_column: [i DESC]
    limit: 2
  pick:
    type: filter_by
    filter_by: [k, i]
    filter_source: W.pick
    filter_val: [key, amount]
  pick_key:
    type: filter_by
    filter_by: [k]
    filter_source: W.pick
    filter_val: [key]
  first:
    type: limit
    limit: 3
F:
  +D.passed: D.facts | T.keep | T.to_month
  +D.grouped: D.facts | T.keep | T.per_key | T.busy
  +D.joined: (D.dim, D.facts) | T.enrich | T.by_f | T.top
  +D.picked: D.facts | T.pick | T.per_key
  +D.keyed: D.facts | T.per_key | T.pick_key
  +D.ordered: D.facts | T.by_f | T.pick
  +D.ranked: D.facts | T.pick_key | T.by_f | T.first
"#;

fn context_facts(r: &mut SeededRng, rows: usize) -> Table {
    let rows: Vec<Row> = (0..rows)
        .map(|_| {
            let k = match r.index(8) {
                0 => Value::Null,
                n => Value::Str(format!("k{}", n % 6)),
            };
            let day = format!("2014-0{}-{:02}", 1 + r.index(3), 1 + r.index(28));
            let i = match r.index(10) {
                0 => Value::Null,
                _ => Value::Int(r.int_range(-5, 20)),
            };
            // Tenths are inexact in binary: a float sum taken in another
            // order, or over other rows, shows in the bits.
            let f = match r.index(10) {
                0 => Value::Null,
                _ => Value::Float(r.int_range(-400, 400) as f64 / 8.0 + 0.1 * r.index(3) as f64),
            };
            Row::from_values(vec![k, Value::Str(day), i, f])
        })
        .collect();
    Table::from_rows(&["k", "day", "i", "f"], &rows).unwrap()
}

fn context_dim(r: &mut SeededRng) -> Table {
    let rows: Vec<Row> = (0..1 + r.index(8))
        .map(|_| {
            let k = Value::Str(format!("k{}", r.index(7)));
            Row::from_values(vec![k, Value::Str(format!("L{}", r.index(3)))])
        })
        .collect();
    Table::from_rows(&["k", "label"], &rows).unwrap()
}

/// `t` cut at random points into one to `most` consecutive batches (some
/// may be empty), in row order.
fn micro_batches(r: &mut SeededRng, t: &Table, most: usize) -> Vec<Table> {
    let cut_count = r.index(most);
    let mut cuts: Vec<usize> = (0..cut_count).map(|_| r.index(t.num_rows() + 1)).collect();
    cuts.extend([0, t.num_rows()]);
    cuts.sort_unstable();
    cuts.windows(2)
        .map(|w| t.slice(w[0], w[1] - w[0]))
        .collect()
}

/// `facts` and `dim` cut into micro-batches, each source's in order, the
/// sources interleaved.
fn context_pushes(r: &mut SeededRng, facts: &Table, dim: &Table) -> Vec<(&'static str, Table)> {
    let mut pushes = Vec::new();
    let mut dims = micro_batches(r, dim, 2).into_iter();
    for part in micro_batches(r, facts, 5) {
        if r.chance(0.3) {
            pushes.extend(dims.next().map(|d| ("dim", d)));
        }
        pushes.push(("facts", part));
    }
    pushes.extend(dims.map(|d| ("dim", d)));
    pushes
}

/// `t`'s rows as the body of a push into a source that declares its
/// columns: headerless CSV.
fn push_body(t: &Table) -> String {
    let csv = write_csv(t, ',');
    csv.split_once('\n')
        .map_or(String::new(), |(_, rows)| rows.to_string())
}

/// `t` as a streaming dashboard decodes it from [`push_body`].
fn as_pushed(t: &Table) -> Table {
    let names = t.schema().names().iter().map(|n| n.to_string()).collect();
    let opts = CsvOptions {
        has_header: false,
        column_names: Some(names),
        ..CsvOptions::default()
    };
    read_csv(&push_body(t), &opts).unwrap()
}

/// A streaming dashboard over `flow`, started.
fn streaming(flow: &str) -> Platform {
    let platform = Platform::new();
    platform.save_flow("live", flow).unwrap();
    platform.stream_start("live").unwrap();
    platform
}

/// A selection on one widget column: none, a value set, or a range, of
/// the type of the column it constrains.
fn context_selection(r: &mut SeededRng, cell: fn(i64) -> Value) -> Option<Selection> {
    let cell_in = |r: &mut SeededRng| cell(r.int_range(-2, 12));
    match r.index(3) {
        0 => None,
        1 => Some(Selection::Values(
            (0..1 + r.index(3)).map(|_| cell_in(r)).collect(),
        )),
        _ => {
            let (lo, hi) = (cell_in(r), cell_in(r));
            Some(Selection::Range(lo.clone().min(hi.clone()), lo.max(hi)))
        }
    }
}

/// A [`CONTEXT_FLOW`] case: its parameters drawn from `r`.
fn context_flow(r: &mut SeededRng) -> String {
    CONTEXT_FLOW
        .replace("@MIN_I@", &r.int_range(-6, 12).to_string())
        .replace("@MIN_N@", &r.int_range(0, 3).to_string())
        .replace("@JOIN@", if r.chance(0.5) { "inner" } else { "left outer" })
}

/// One flow file, three execution contexts, equal tables — same schema,
/// same rows in the same order, the same float bits (`Table`'s `==`
/// compares floats by their total-order key, a bijection on bits): the
/// batch executor over whole tables; a streaming dashboard pushed the same
/// rows as CSV in random micro-batches, its sources interleaved, fewer
/// than its sources retain; and, for the widget-filtered chains, the data
/// cube under random value and range selections, against the executor
/// under the same ones.
#[test]
fn contexts_agree() {
    use shareinsights::engine::task::{interpret_task, InterpretEnv};
    use shareinsights::widgets::DataCube;
    use std::sync::Arc;

    let mut r = SeededRng::new(0xF0F0_0010);
    let reg = TaskRegistry::new();
    let mut index_builds = 0;
    for case in 0..CONTEXT_CASES {
        let src = context_flow(&mut r);
        let ff = parse_flow_file("contexts", &src).unwrap();
        let pipeline = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        let rows = r.index(80);
        let facts = as_pushed(&context_facts(&mut r, rows));
        let dim = as_pushed(&context_dim(&mut r));
        let mut ctx = ExecContext::new(shareinsights::connectors::Catalog::new())
            .with_table("facts", facts.clone())
            .with_table("dim", dim.clone());
        let batch = Executor::sequential().execute(&pipeline, &ctx).unwrap();

        // The stream: each source's batches in order, sources interleaved.
        let platform = streaming(&src);
        for (source, part) in context_pushes(&mut r, &facts, &dim) {
            platform
                .stream_push("live", source, &push_body(&part), None)
                .unwrap();
        }
        let stream = platform.dashboard("live").unwrap().endpoint_tables;
        for flow in &pipeline.flows {
            let out = &flow.output;
            assert_eq!(
                stream.get(out),
                batch.table(out),
                "case {case}: stream vs batch, D.{out}"
            );
        }

        // The cube, over the flows' shared input, against the executor
        // under the same selections.
        let selections = StaticSelections::new();
        let (key, amount) = (
            context_selection(&mut r, |n| Value::Str(format!("k{}", n.rem_euclid(7)))),
            context_selection(&mut r, Value::Int),
        );
        for (column, selection) in [("key", key), ("amount", amount)] {
            if let Some(selection) = selection {
                selections.set("pick", column, selection);
            }
        }
        let selections = Arc::new(selections);
        ctx.selections = Some(selections.clone());
        let batch = Executor::sequential().execute(&pipeline, &ctx).unwrap();
        let load = |_: &str| None;
        let env = InterpretEnv {
            registry: &reg,
            load_text: &load,
            all_tasks: &ff.tasks,
        };
        let cube = DataCube::new(facts);
        for out in ["picked", "keyed", "ordered", "ranked"] {
            // The widget's chain as written: the optimizer does not run.
            let flow = ff.flows.iter().find(|f| f.output == out).unwrap();
            let tasks: Vec<_> = flow
                .tasks
                .iter()
                .map(|t| interpret_task(ff.task(t).unwrap(), &env).unwrap())
                .collect();
            let via_cube = cube.eval(out, &tasks, selections.as_ref()).unwrap();
            assert_eq!(
                Some(&*via_cube),
                batch.table(out),
                "case {case}: cube vs batch, D.{out} under {:?} / {:?}",
                selections.selection("pick", "key"),
                selections.selection("pick", "amount"),
            );
        }
        index_builds += cube.index_build_stats().0;
    }
    assert!(
        index_builds > CONTEXT_CASES as u64,
        "the cube's first steps should run through its indexes ({index_builds} builds)"
    );
}

/// Rows a live source retains: the platform's bound, restated here so the
/// property below can model it and, in release builds, cross it.
const STREAM_RETAIN_ROWS: usize = 100_000;

/// At every tick, every endpoint of a streaming dashboard is the batch run
/// over the rows its sources retain: the sources cut at random into
/// micro-batches and interleaved, the retained rows modelled here as every
/// decoded push concatenated and cut to the last [`STREAM_RETAIN_ROWS`],
/// and checked against `Executor::sequential()` after each push. Case 0
/// of a release build pushes past the bound.
#[test]
fn stream_ticks_equal_batch_over_retained_rows() {
    use shareinsights::tabular::Schema;
    use std::collections::BTreeMap;

    let cases = if cfg!(debug_assertions) { 40 } else { 400 };
    let mut r = SeededRng::new(0x57EA_0027);
    let mut crossed = false;
    for case in 0..cases {
        let src = context_flow(&mut r);
        let rows = match case {
            0 if !cfg!(debug_assertions) => STREAM_RETAIN_ROWS + 20_000 + r.index(20_000),
            _ => r.index(80),
        };
        let facts = as_pushed(&context_facts(&mut r, rows));
        let dim = as_pushed(&context_dim(&mut r));
        let platform = streaming(&src);
        let pipeline = platform.compile_dashboard("live").unwrap();
        let mut retained: BTreeMap<&str, Table> = [("facts", &facts), ("dim", &dim)]
            .into_iter()
            .map(|(name, t)| {
                let schema = Schema::all_utf8(&t.schema().names()).unwrap();
                (name, Table::empty(schema))
            })
            .collect();
        let pushes = context_pushes(&mut r, &facts, &dim);
        for (tick, (source, part)) in pushes.into_iter().enumerate() {
            let push = platform
                .stream_push("live", source, &push_body(&part), None)
                .unwrap();
            let held = &retained[source];
            let grown = match held.num_rows() {
                0 => as_pushed(&part),
                _ => held.concat(&as_pushed(&part)).unwrap(),
            };
            let evicted = grown.num_rows().saturating_sub(STREAM_RETAIN_ROWS);
            assert_eq!(push.evicted_rows, evicted, "case {case}, tick {tick}");
            crossed |= evicted > 0;
            retained.insert(source, grown.slice(evicted, STREAM_RETAIN_ROWS));

            let ctx = retained.iter().fold(
                ExecContext::new(shareinsights::connectors::Catalog::new()),
                |ctx, (name, t)| ctx.with_table(*name, t.clone()),
            );
            let batch = Executor::sequential().execute(&pipeline, &ctx).unwrap();
            let installed = platform.dashboard("live").unwrap().endpoint_tables;
            for out in &pipeline.endpoints {
                assert_eq!(
                    installed.get(out),
                    batch.table(out),
                    "case {case}, tick {tick} (into {source}): D.{out}"
                );
            }
        }
    }
    assert_eq!(
        crossed,
        !cfg!(debug_assertions),
        "release crosses the bound"
    );
}

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// Solved layouts never overlap and never exceed the viewport width.
#[test]
fn layout_never_overlaps() {
    use shareinsights::flowfile::ast::{LayoutCell, LayoutDef};
    use shareinsights::layout::{overlaps, solve, Viewport};
    let mut r = SeededRng::new(0xF0F0_000D);
    for _ in 0..CASES {
        let rows: Vec<Vec<u8>> = (0..1 + r.index(4))
            .map(|_| (0..1 + r.index(2)).map(|_| 1 + r.index(6) as u8).collect())
            .collect();
        let mut counter = 0;
        let layout = LayoutDef {
            description: None,
            rows: rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&s| {
                            counter += 1;
                            LayoutCell {
                                span: s,
                                widget: format!("w{counter}"),
                            }
                        })
                        .collect()
                })
                .collect(),
            line: 0,
        };
        for vp in [Viewport::desktop(), Viewport::mobile()] {
            let placements = solve(&layout, &vp).unwrap();
            for p in &placements {
                assert!(p.x + p.width <= vp.width);
            }
            for i in 0..placements.len() {
                for j in i + 1..placements.len() {
                    assert!(!overlaps(&placements[i], &placements[j]));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SQL frontend
// ---------------------------------------------------------------------------

/// The SQL tokenizer/parser/lowering pipeline is total: any input string —
/// printable soup, structured fragments, or mutated valid statements —
/// terminates with either an AST or a spanned diagnostic. No panics, no
/// unbounded recursion.
#[test]
fn sql_parser_is_total() {
    use shareinsights::engine::sql::{lower, parse_select};
    let mut r = SeededRng::new(0xF0F0_000E);
    let seeds = [
        "select a, b from t where a = 'x' and b in (1, 2) group by a order by a desc limit 9",
        "select count(*) from t where x between 0 and 10 or y is not null offset 2",
        "select distinct \"col name\" from t join u on k = k2 -- trailing comment",
    ];
    for case in 0..CASES * 4 {
        let src = match case % 3 {
            0 => printable_string(&mut r, 0, 160),
            1 => {
                // Keyword soup: valid tokens in random order.
                let words = [
                    "select", "from", "where", "group", "by", "order", "limit", "offset", "and",
                    "or", "not", "in", "between", "is", "null", "(", ")", ",", "*", "'s'", "1",
                    "-2.5e3", "t", "sum", "join", "on", "=", "<>", "<=", ";",
                ];
                (0..r.index(30))
                    .map(|_| *r.pick(&words))
                    .collect::<Vec<_>>()
                    .join(" ")
            }
            _ => {
                // A valid statement with random single-char edits.
                let mut s: Vec<char> = r.pick(&seeds).chars().collect();
                for _ in 0..1 + r.index(5) {
                    if s.is_empty() {
                        break;
                    }
                    let i = r.index(s.len());
                    match r.index(3) {
                        0 => s[i] = (b' ' + r.index(95) as u8) as char,
                        1 => {
                            s.remove(i);
                        }
                        _ => s.insert(i, (b' ' + r.index(95) as u8) as char),
                    }
                }
                s.into_iter().collect()
            }
        };
        match parse_select(&src) {
            Ok(stmt) => {
                // Lowering is equally total, and diagnostics carry spans
                // inside the source (line 0 = whole statement).
                if let Err(e) = lower(&src, &stmt) {
                    assert!(e.line <= src.lines().count().max(1), "{src:?}: {e}");
                }
            }
            Err(e) => {
                assert!(!e.message.is_empty(), "{src:?}");
            }
        }
    }
}
