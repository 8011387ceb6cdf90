//! The keyed kernels — group-by, join, distinct, top-n — against the
//! row-wise oracle in `engine::baseline`, the row engine the naive
//! executor runs: a boxed `Row` key per input row with groups in
//! first-seen order, every aggregate input boxed and fed to its
//! `ModelAccumulator`, a nested-loop join. It shares no code with the
//! kernels, which code keys into dense ids and fold typed lanes; the suite
//! holds the two to the same table, cell for cell, float sums bit for bit,
//! rows in the same order.
//!
//! Debug builds run a thirtieth of the cases; CI runs the suite in release
//! too, where the full count takes seconds.

use shareinsights::datagen::SeededRng;
use shareinsights::engine::baseline::{
    execute_naive, rowwise_distinct, rowwise_groupby, rowwise_groupby_batches, rowwise_join,
    rowwise_topn,
};
use shareinsights::engine::{compile, CompileEnv, ExecContext, Executor, TaskRegistry};
use shareinsights::flowfile::parse_flow_file;
use shareinsights::server::table_to_json;
use shareinsights::tabular::agg::AggKind;
use shareinsights::tabular::ops::{
    distinct, groupby_partial, groupby_selected, join, topn, AggregateSpec, GroupBy,
    GroupByPartial, JoinCondition, JoinSpec, ProjectSpec, SortKey, TopN,
};
use shareinsights::tabular::{
    Bitmap, Column, ColumnBuilder, DataType, Field, IndexedTable, Schema, Table, Value,
};
use std::sync::Arc;

const CASES: usize = if cfg!(debug_assertions) { 60 } else { 2000 };

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

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// What a key column holds. Few distinct values each, so groups repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyKind {
    Str,
    /// Small ints and three neighbours above 2^53, which collide as `f64`.
    Int,
    /// Small ints only (not drawn at random: see the join test).
    SmallInt,
    /// Signed zeros, NaN, whole and fractional floats.
    Float,
    Date,
    Bool,
    /// A typed column whose every cell is null.
    TypedNulls,
    /// `Column::Null`.
    NullColumn,
}

const KEY_KINDS: [KeyKind; 7] = [
    KeyKind::Str,
    KeyKind::Int,
    KeyKind::Float,
    KeyKind::Date,
    KeyKind::Bool,
    KeyKind::TypedNulls,
    KeyKind::NullColumn,
];

fn gen_key_cell(r: &mut SeededRng, kind: KeyKind) -> Value {
    const BIG: i64 = 1 << 53;
    match kind {
        KeyKind::Str => Value::Str(r.pick(&["", "a", "b", "añ", "日本"]).to_string()),
        KeyKind::Int => Value::Int(*r.pick(&[-1, 0, 1, 2, BIG, BIG + 1, BIG + 2])),
        KeyKind::SmallInt => Value::Int(r.int_range(-1, 2)),
        KeyKind::Float => {
            Value::Float(*r.pick(&[0.0, -0.0, f64::NAN, 1.0, 2.0, 2.5, -1.5, BIG as f64]))
        }
        KeyKind::Date => Value::Date(r.int_range(0, 3) as i32),
        KeyKind::Bool => Value::Bool(r.chance(0.5)),
        KeyKind::TypedNulls | KeyKind::NullColumn => Value::Null,
    }
}

fn gen_key_column(r: &mut SeededRng, kind: KeyKind, rows: usize, nulls: f64) -> Column {
    let ty = match kind {
        KeyKind::Str | KeyKind::TypedNulls => DataType::Utf8,
        KeyKind::Int | KeyKind::SmallInt => DataType::Int64,
        KeyKind::Float => DataType::Float64,
        KeyKind::Date => DataType::Date,
        KeyKind::Bool => DataType::Bool,
        KeyKind::NullColumn => return Column::Null { len: rows },
    };
    let mut b = ColumnBuilder::new(ty);
    for _ in 0..rows {
        if r.chance(nulls) {
            b.push_null();
        } else {
            b.push_coerced(&gen_key_cell(r, kind)).unwrap();
        }
    }
    b.finish()
}

/// The aggregate inputs: an integer measure, a float measure (fractions
/// whose sum depends on the order of addition, signed zeros, the odd NaN),
/// numeric-looking text, and an integer column that is mostly null.
fn gen_measures(r: &mut SeededRng, rows: usize, nulls: f64) -> Vec<(&'static str, Column)> {
    let mut mi = ColumnBuilder::new(DataType::Int64);
    let mut mf = ColumnBuilder::new(DataType::Float64);
    let mut ms = ColumnBuilder::new(DataType::Utf8);
    let mut mn = ColumnBuilder::new(DataType::Int64);
    fn push(r: &mut SeededRng, b: &mut ColumnBuilder, nulls: f64, v: Value) {
        if r.chance(nulls) {
            b.push_null()
        } else {
            b.push_coerced(&v).unwrap()
        }
    }
    for _ in 0..rows {
        let f = match r.index(14) {
            0 => -0.0,
            1 => f64::NAN,
            _ => r.int_range(-40, 40) as f64 * 0.1,
        };
        let text = match r.index(3) {
            0 => format!("{}", r.int_range(-9, 9)),
            1 => format!(" {}.5 ", r.index(9)),
            _ => format!("{}e1", r.index(4)),
        };
        let (int, rare) = (r.int_range(-5, 5), r.int_range(-5, 5));
        push(r, &mut mi, nulls, Value::Int(int));
        push(r, &mut mf, nulls, Value::Float(f));
        push(r, &mut ms, nulls, Value::Str(text));
        push(r, &mut mn, 0.9, Value::Int(rare));
    }
    vec![
        ("mi", mi.finish()),
        ("mf", mf.finish()),
        ("ms", ms.finish()),
        ("mn", mn.finish()),
    ]
}

fn table_of(columns: Vec<(String, Column)>) -> Table {
    let fields = columns
        .iter()
        .map(|(name, c)| Field::new(name, c.data_type()))
        .collect();
    let columns = columns.into_iter().map(|(_, c)| c).collect();
    Table::new(Schema::new(fields).unwrap(), columns).unwrap()
}

/// Key columns `k0..` of the given kinds, then the four measures.
fn gen_table(r: &mut SeededRng, kinds: &[KeyKind], rows: usize) -> Table {
    let nulls = *r.pick(&[0.0, 0.0, 0.15, 0.5]);
    let mut columns: Vec<(String, Column)> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| (format!("k{i}"), gen_key_column(r, kind, rows, nulls)))
        .collect();
    let measures = gen_measures(r, rows, nulls);
    columns.extend(measures.into_iter().map(|(n, c)| (n.to_string(), c)));
    table_of(columns)
}

fn gen_rows(r: &mut SeededRng) -> usize {
    if r.chance(0.06) {
        0
    } else {
        1 + r.index(70)
    }
}

/// One to `most` key kinds.
fn gen_kinds(r: &mut SeededRng, most: usize) -> Vec<KeyKind> {
    (0..1 + r.index(most))
        .map(|_| *r.pick(&KEY_KINDS))
        .collect()
}

/// No mask, an empty one, a full one, a sparse one.
fn gen_selection(r: &mut SeededRng, rows: usize) -> Option<Bitmap> {
    match r.index(4) {
        0 => None,
        1 => Some(Bitmap::new_cleared(rows)),
        2 => Some(Bitmap::new_set(rows)),
        _ => Some(Bitmap::from_fn(rows, |_| r.chance(0.4))),
    }
}

/// 1–3 keys and 1–4 aggregates of any kind over the measures; `min`,
/// `max`, `first`, `last`, `count_distinct` and `collect` also over key
/// columns. Now and then the only aggregate is a `sum`/`avg` over a key
/// column, which errors for every kind but numbers.
fn gen_groupby(r: &mut SeededRng, key_columns: usize) -> GroupBy {
    let mut keys: Vec<String> = (0..key_columns).map(|i| format!("k{i}")).collect();
    while keys.len() > 1 && r.chance(0.5) {
        keys.remove(r.index(keys.len()));
    }
    let mut aggregates = Vec::new();
    if r.chance(0.06) {
        let kind = *r.pick(&[AggKind::Sum, AggKind::Avg]);
        aggregates.push(AggregateSpec::new(kind, "k0", "a0"));
    } else if !r.chance(0.08) {
        for a in 0..1 + r.index(4) {
            let kind = *r.pick(&ALL_KINDS);
            let numeric = matches!(kind, AggKind::Sum | AggKind::Avg);
            let column = if numeric || r.chance(0.7) {
                r.pick(&["mi", "mf", "ms", "mn"]).to_string()
            } else {
                format!("k{}", r.index(key_columns))
            };
            aggregates.push(AggregateSpec::new(kind, column, format!("a{a}")));
        }
    }
    GroupBy {
        keys,
        aggregates,
        orderby_aggregates: r.chance(0.4),
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Same names, same column types, same cells — floats by their bits.
fn assert_identical(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.schema().names(), want.schema().names(), "{what}");
    assert_eq!(got.num_rows(), want.num_rows(), "{what}: rows");
    for (name, (g, w)) in got
        .schema()
        .names()
        .iter()
        .zip(got.columns().iter().zip(want.columns()))
    {
        assert_eq!(g.data_type(), w.data_type(), "{what}: type of {name}");
        for (row, (a, b)) in g.iter().zip(w.iter()).enumerate() {
            let same = match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => a == b,
            };
            assert!(same, "{what}: {name}[{row}] is {a:?}, want {b:?}");
        }
    }
}

/// Both errors, or both the same table.
fn assert_same_outcome<E: std::fmt::Debug>(
    got: Result<Table, E>,
    want: Result<Table, String>,
    what: &str,
) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert_identical(&got, &want, what),
        (Err(_), Err(_)) => {}
        (got, want) => panic!("{what}: got {got:?}, want {want:?}"),
    }
}

// ---------------------------------------------------------------------------
// Group-by
// ---------------------------------------------------------------------------

/// A key `k0` of `Str` or `Int` cells with 4,096 to 5,119 distinct values,
/// each at least once, in shuffled order over up to twice as many rows,
/// then the four measures: the groups outgrow every small table, so lane
/// growth and the `orderby_aggregates` sort run over thousands of groups.
fn gen_wide_table(r: &mut SeededRng) -> (KeyKind, Table) {
    let distinct = 4096 + r.index(1024);
    let rows = distinct + r.index(distinct);
    let mut keys: Vec<usize> = (0..rows)
        .map(|i| if i < distinct { i } else { r.index(distinct) })
        .collect();
    for i in (1..rows).rev() {
        keys.swap(i, r.index(i + 1));
    }
    let nulls = *r.pick(&[0.0, 0.15]);
    let kind = *r.pick(&[KeyKind::Str, KeyKind::Int]);
    let key = match kind {
        KeyKind::Str => Column::utf8(keys.iter().map(|k| format!("w{k}"))),
        _ => Column::int(keys.iter().map(|&k| k as i64 - 2000)),
    };
    let mut columns = vec![("k0".to_string(), key)];
    let measures = gen_measures(r, rows, nulls);
    columns.extend(measures.into_iter().map(|(n, c)| (n.to_string(), c)));
    (kind, table_of(columns))
}

/// The scan kernel, and the indexed kernel (the same fold over dictionary
/// codes) both over a selection and — with none — through
/// `IndexedTable::groupby`, against the row-wise oracle. One case in 60
/// also runs over a key with thousands of distinct values.
#[test]
fn groupby_matches_the_rowwise_oracle() {
    let mut r = SeededRng::new(0x6B65_7901);
    let mut wide = SeededRng::new(0x6B65_790C);
    for case in 0..CASES * 3 {
        let kinds = gen_kinds(&mut r, 3);
        let rows = gen_rows(&mut r);
        let table = gen_table(&mut r, &kinds, rows);
        let cfg = gen_groupby(&mut r, kinds.len());
        let selection = gen_selection(&mut r, table.num_rows());
        let what = format!("case {case}: {kinds:?} {cfg:?} selection {selection:?}");
        assert_groupby_paths_agree(&table, &cfg, selection.as_ref(), &what);
        if case % 60 == 0 {
            let (kind, table) = gen_wide_table(&mut wide);
            let cfg = gen_groupby(&mut wide, 1);
            let selection = gen_selection(&mut wide, table.num_rows());
            let what = format!("wide case {case}: {kind:?} {cfg:?}");
            assert_groupby_paths_agree(&table, &cfg, selection.as_ref(), &what);
        }
    }
}

fn assert_groupby_paths_agree(
    table: &Table,
    cfg: &GroupBy,
    selection: Option<&Bitmap>,
    what: &str,
) {
    let want = rowwise_groupby(table, cfg, selection);
    let got = groupby_selected(table, cfg, selection);
    assert_same_outcome(got, want.clone(), what);
    // The same kernel fed dictionary codes for its string keys.
    let indexed = IndexedTable::new(table.clone());
    if let Some(got) = indexed.groupby_selected(cfg, selection) {
        assert_same_outcome(
            Ok::<_, String>(got),
            want.clone(),
            &format!("indexed {what}"),
        );
    }
    if selection.is_none() {
        if let Some(got) = indexed.groupby(cfg) {
            assert_same_outcome(
                Ok::<_, String>(got),
                want,
                &format!("indexed groupby {what}"),
            );
        }
    }
}

#[test]
fn a_short_selection_mask_is_an_error() {
    let mut r = SeededRng::new(0x6B65_7902);
    let table = gen_table(&mut r, &[KeyKind::Str], 9);
    let cfg = GroupBy::counting(&["k0"]);
    assert!(groupby_selected(&table, &cfg, Some(&Bitmap::new_set(8))).is_err());
}

/// `table` cut at random points; now and then a batch has its first key
/// or its integer measure re-typed `Int64 → Float64`, as a CSV micro-batch
/// whose cells happen to hold fractions infers it. (Not a key above 2^53:
/// as a float it equals both its integer neighbours, which are not equal
/// to each other, and which group such a key joins is anyone's guess.)
fn gen_batches(r: &mut SeededRng, table: &Table, kinds: &[KeyKind]) -> Vec<Table> {
    let key = table.column("k0").unwrap();
    let widens = kinds[0] == KeyKind::Int && key.iter().all(|v| v.as_int() <= Some(1 << 53));
    let mut cuts: Vec<usize> = (0..r.index(4))
        .map(|_| r.index(table.num_rows() + 1))
        .collect();
    cuts.extend([0, table.num_rows()]);
    cuts.sort_unstable();
    cuts.windows(2)
        .map(|w| {
            let mut batch = table.slice(w[0], w[1] - w[0]);
            let mut retype = |name: &str| {
                let floats = batch.column(name).unwrap().cast(DataType::Float64).unwrap();
                batch = batch.with_column(name, floats.as_ref().clone()).unwrap();
            };
            if widens && r.chance(0.3) {
                retype("k0");
            }
            if r.chance(0.2) {
                retype("mi");
            }
            batch
        })
        .collect()
}

/// An integer `sum` is exact or an error, and one error on every path: the
/// scan kernel, the indexed kernel, partials merged at any split,
/// `run_query` and `run_query_indexed`. Values sit near `±2^62` and the
/// `i64` bounds, so running sums leave the range and come back; `avg`
/// rounds the exact sum once and never errs.
#[test]
fn integer_sums_past_i64_are_one_error_on_every_path() {
    use shareinsights::server::query::{run_query, run_query_indexed, QueryOp};
    use shareinsights::tabular::TabularError;

    const BIG: [i64; 6] = [i64::MAX, i64::MIN, 1 << 62, -(1 << 62), i64::MAX - 1, 3];
    let mut r = SeededRng::new(0x6B65_790A);
    for case in 0..CASES {
        // Case 0 is the reported one: `[i64::MAX, 1]` under one key.
        let (keys, values): (Vec<String>, Vec<i64>) = if case == 0 {
            (vec!["a".into(); 2], vec![i64::MAX, 1])
        } else {
            let groups = 1 + r.index(3);
            (0..1 + r.index(12))
                .map(|_| {
                    let v = if r.chance(0.6) {
                        *r.pick(&BIG)
                    } else {
                        r.int_range(-9, 9)
                    };
                    (format!("g{}", r.index(groups)), v)
                })
                .unzip()
        };
        let nulls = if r.chance(0.7) { 0.0 } else { 0.3 };
        let validity = Bitmap::from_fn(values.len(), |_| !r.chance(nulls));
        let table = table_of(vec![
            ("k".into(), Column::utf8(keys.iter().map(String::as_str))),
            (
                "v".into(),
                Column::Int64 {
                    data: values.clone(),
                    validity,
                },
            ),
        ]);
        let mut aggregates = vec![AggregateSpec::new(AggKind::Sum, "v", "s")];
        if r.chance(0.5) {
            aggregates.push(AggregateSpec::new(AggKind::Count, "v", "n"));
        }
        let cfg = GroupBy::with_aggregates(&["k"], aggregates);
        let what = format!("case {case}: {values:?} {cfg:?}");

        let want = rowwise_groupby(&table, &cfg, None);
        let scan = groupby_selected(&table, &cfg, None);
        assert_same_outcome(scan.clone(), want.clone(), &what);
        if case == 0 {
            assert!(want.is_err(), "{what}");
        }
        let indexed = IndexedTable::new(table.clone());
        let ops = [QueryOp::GroupBy(cfg.clone())];
        let by_query = run_query(&table, &ops);
        let by_index = run_query_indexed(&indexed, &ops).map(|(t, _)| t);
        let split = r.index(table.num_rows() + 1);
        let merged = groupby_partial(&table.slice(0, split), &cfg).and_then(|mut left| {
            left.merge(groupby_partial(
                &table.slice(split, table.num_rows()),
                &cfg,
            )?)?;
            left.into_table()
        });
        match scan {
            Ok(_) => {
                let want = want.unwrap();
                assert_identical(&indexed.groupby(&cfg).expect("indexed"), &want, &what);
                assert_identical(&by_query.unwrap(), &want, &what);
                assert_identical(&by_index.unwrap(), &want, &what);
                assert_identical(&merged.unwrap(), &want, &format!("split {split}, {what}"));
            }
            Err(e) => {
                let overflow = TabularError::Overflow {
                    aggregate: "sum",
                    column: "v".into(),
                };
                assert_eq!(e, overflow, "{what}");
                assert!(indexed.groupby(&cfg).is_none(), "{what}: indexed declines");
                assert_eq!(by_query, Err(overflow.to_string()), "{what}");
                assert_eq!(by_index, Err(overflow.to_string()), "{what}");
                assert_eq!(merged.unwrap_err(), overflow, "split {split}, {what}");
            }
        }

        // `avg` rounds the exact sum once: a float, whatever the integer
        // sum does.
        let avg =
            GroupBy::with_aggregates(&["k"], vec![AggregateSpec::new(AggKind::Avg, "v", "m")]);
        let got = groupby_selected(&table, &avg, None).expect("avg never overflows");
        assert_identical(&got, &rowwise_groupby(&table, &avg, None).unwrap(), &what);
    }
}

/// An `avg` over integers is their exact sum, rounded once, over the
/// count: one pass, partials merged at every split, the indexed kernel and
/// the oracle agree bit for bit. Values sit near `±2^53`, where a running
/// float sum rounds by the order of addition. Case 0 is the reported one:
/// `[2^53, 1, 1, 1]` under one key, whose one-pass float sum read
/// `2251799813685248.0` and whose partials `[2^53]`, `[1, 1, 1]` merged to
/// `2251799813685249.0`.
#[test]
fn an_integer_avg_is_one_rounding_whatever_the_split() {
    const BIG: i64 = 1 << 53;
    let mut r = SeededRng::new(0x6B65_790B);
    for case in 0..CASES {
        let (keys, values): (Vec<String>, Vec<i64>) = if case == 0 {
            (vec!["a".into(); 4], vec![BIG, 1, 1, 1])
        } else {
            let groups = 1 + r.index(2);
            (0..1 + r.index(16))
                .map(|_| {
                    let v = match r.index(4) {
                        0 => BIG + r.int_range(-3, 3),
                        1 => -BIG + r.int_range(-3, 3),
                        _ => r.int_range(-3, 3),
                    };
                    (format!("g{}", r.index(groups)), v)
                })
                .unzip()
        };
        let validity = Bitmap::from_fn(values.len(), |_| case == 0 || !r.chance(0.1));
        let table = table_of(vec![
            ("k".into(), Column::utf8(keys.iter().map(String::as_str))),
            (
                "v".into(),
                Column::Int64 {
                    data: values.clone(),
                    validity,
                },
            ),
        ]);
        let cfg = GroupBy::with_aggregates(
            &["k"],
            vec![
                AggregateSpec::new(AggKind::Avg, "v", "m"),
                AggregateSpec::new(AggKind::Count, "v", "n"),
            ],
        );
        let what = format!("case {case}: {values:?}");
        let one = groupby_selected(&table, &cfg, None).unwrap();
        assert_identical(&one, &rowwise_groupby(&table, &cfg, None).unwrap(), &what);
        if case == 0 {
            assert_eq!(one.value(0, "m").unwrap(), Value::Float(2251799813685249.0));
        }
        let indexed = IndexedTable::new(table.clone());
        assert_identical(&indexed.groupby(&cfg).expect("indexed"), &one, &what);
        for split in 0..=table.num_rows() {
            let mut merged = groupby_partial(&table.slice(0, split), &cfg).unwrap();
            let rest = table.slice(split, table.num_rows() - split);
            merged.merge(groupby_partial(&rest, &cfg).unwrap()).unwrap();
            assert_identical(
                &merged.into_table().unwrap(),
                &one,
                &format!("split {split}, {what}"),
            );
        }
    }
}

#[test]
fn partials_in_batches_match_one_pass() {
    let mut r = SeededRng::new(0x6B65_7903);
    for case in 0..CASES {
        let kinds = gen_kinds(&mut r, 2);
        let rows = gen_rows(&mut r);
        let table = gen_table(&mut r, &kinds, rows);
        let cfg = gen_groupby(&mut r, kinds.len());
        let batches = gen_batches(&mut r, &table, &kinds);
        let what = format!(
            "case {case}: {kinds:?} {cfg:?} in {} batches",
            batches.len()
        );
        let all: Vec<(&Table, Option<&Bitmap>)> = batches.iter().map(|b| (b, None)).collect();
        let want = rowwise_groupby_batches(&all, &cfg);

        // One partial, updated batch by batch.
        let updated = batches
            .iter()
            .try_fold(GroupByPartial::new(cfg.clone()), |mut partial, batch| {
                partial.update(batch).map(|()| partial)
            })
            .and_then(GroupByPartial::into_table);
        assert_same_outcome(updated, want.clone(), &format!("updated, {what}"));

        // One partial per batch, merged in order. A float `sum`/`avg`
        // merged is a sum of sums — another rounding than one running sum
        // (the reason the shard planner declines them) — so those cases
        // are held to the one-pass result only through the update above.
        let reassociates = cfg.aggregates.iter().any(|a| {
            matches!(a.operator, AggKind::Sum | AggKind::Avg)
                && batches.iter().any(|b| {
                    b.column(&a.apply_on)
                        .is_ok_and(|c| c.data_type() != DataType::Int64)
                })
        });
        if reassociates {
            continue;
        }
        let merged = batches
            .iter()
            .try_fold(GroupByPartial::new(cfg.clone()), |mut merged, batch| {
                merged.merge(groupby_partial(batch, &cfg)?).map(|()| merged)
            })
            .and_then(GroupByPartial::into_table);
        assert_same_outcome(merged, want, &format!("merged, {what}"));
    }
}

/// One batch of [`extremes_hold_value_semantics_across_batches`]: a key
/// `k` over four groups — `"none"` never has a measure — and a measure `m`
/// typed `Int64`, `Float64` or `Date` by the batch, with ties across the
/// numeric types (`2` and `2.0`), signed zeros, NaN, the infinities and
/// integers around 2^53, and nulls.
fn gen_extremes_batch(r: &mut SeededRng, ty: DataType, rows: usize, nulls: f64) -> Table {
    const BIG: i64 = 1 << 53;
    let mut k = ColumnBuilder::new(DataType::Utf8);
    let mut m = ColumnBuilder::new(ty);
    for _ in 0..rows {
        let key = *r.pick(&["a", "b", "c", "none"]);
        k.push_str(key);
        if key == "none" || r.chance(nulls) {
            m.push_null();
            continue;
        }
        let cell = match ty {
            DataType::Int64 => Value::Int(match r.index(8) {
                0 => *r.pick(&[BIG - 1, BIG, BIG + 1, i64::MIN, i64::MAX]),
                _ => r.int_range(-3, 3),
            }),
            DataType::Float64 => Value::Float(match r.index(6) {
                0 => *r.pick(&[
                    f64::NAN,
                    -0.0,
                    0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    BIG as f64,
                ]),
                _ => r.int_range(-6, 6) as f64 * 0.5,
            }),
            _ => Value::Date(r.int_range(-3, 3) as i32),
        };
        m.push_coerced(&cell).unwrap();
    }
    table_of(vec![("k".into(), k.finish()), ("m".into(), m.finish())])
}

/// `min`, `max`, `first` and `last` keep typed per-group winners inside a
/// batch and meet what earlier batches (or merged partials) left under
/// boxed `Value` order. One partial updated batch by batch under random
/// selections, and per-batch partials merged in order, equal the boxed
/// one-struct accumulator fed every selected cell — types, float bits and
/// which of two equal values (`Int(2)` or `Float(2.0)`) a tie keeps.
#[test]
fn extremes_hold_value_semantics_across_batches() {
    const EXTREMES: [AggKind; 4] = [AggKind::Min, AggKind::Max, AggKind::First, AggKind::Last];
    let mut r = SeededRng::new(0x6B65_7909);
    let cfg = GroupBy::with_aggregates(
        &["k"],
        EXTREMES
            .iter()
            .map(|&kind| AggregateSpec::new(kind, "m", kind.name()))
            .chain([AggregateSpec::new(AggKind::CountAll, "", "n")])
            .collect(),
    );
    for case in 0..CASES {
        let nulls = *r.pick(&[0.0, 0.3, 1.0]);
        let batches: Vec<(Table, Option<Bitmap>)> = (0..1 + r.index(4))
            .map(|_| {
                let ty = *r.pick(&[DataType::Int64, DataType::Float64, DataType::Date]);
                let rows = gen_rows(&mut r);
                let batch = gen_extremes_batch(&mut r, ty, rows, nulls);
                let selection = gen_selection(&mut r, rows);
                (batch, selection)
            })
            .collect();
        let all: Vec<(&Table, Option<&Bitmap>)> =
            batches.iter().map(|(b, s)| (b, s.as_ref())).collect();
        let want = rowwise_groupby_batches(&all, &cfg);
        let types: Vec<DataType> = batches
            .iter()
            .map(|(b, _)| b.column("m").unwrap().data_type())
            .collect();
        let what = format!("case {case}: {types:?}");

        let mut updated = GroupByPartial::new(cfg.clone());
        for (batch, selection) in &all {
            updated.update_selected(batch, *selection).unwrap();
        }
        assert_same_outcome(
            updated.into_table(),
            want.clone(),
            &format!("updated, {what}"),
        );

        let mut merged = GroupByPartial::new(cfg.clone());
        for (batch, selection) in &all {
            let mut partial = GroupByPartial::new(cfg.clone());
            partial.update_selected(batch, *selection).unwrap();
            merged.merge(partial).unwrap();
        }
        assert_same_outcome(merged.into_table(), want, &format!("merged, {what}"));
    }
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

const CONDITIONS: [JoinCondition; 4] = [
    JoinCondition::Inner,
    JoinCondition::LeftOuter,
    JoinCondition::RightOuter,
    JoinCondition::FullOuter,
];

/// A join input: key columns `k0..`, a payload column `<side>v` and, so
/// that default projections meet a name clash, a shared column `both`.
fn gen_join_side(r: &mut SeededRng, side: &str, kinds: &[KeyKind], rows: usize) -> Table {
    let nulls = *r.pick(&[0.0, 0.1, 0.4]);
    let mut columns: Vec<(String, Column)> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| (format!("k{i}"), gen_key_column(r, kind, rows, nulls)))
        .collect();
    let payload = (0..rows).map(|i| format!("{side}{i}"));
    columns.push((format!("{side}v"), Column::utf8(payload)));
    columns.push(("both".into(), Column::int((0..rows).map(|i| i as i64 % 3))));
    table_of(columns)
}

fn gen_projection(r: &mut SeededRng) -> Vec<ProjectSpec> {
    match r.index(3) {
        0 => Vec::new(),
        1 => vec![
            ProjectSpec::left("lv", "payload"),
            ProjectSpec::right("rv", "looked_up"),
            ProjectSpec::left("k0", "key"),
        ],
        // A case slip the kernel tolerates, and the right key alone.
        _ => vec![
            ProjectSpec::right("K0", "key"),
            ProjectSpec::left("both", "n"),
        ],
    }
}

#[test]
fn join_matches_the_rowwise_oracle() {
    let mut r = SeededRng::new(0x6B65_7904);
    for case in 0..CASES * 2 {
        let left_kinds = gen_kinds(&mut r, 2);
        // Mostly the same key types on both sides; sometimes another one,
        // an integer facing a float among them.
        let right_kinds: Vec<KeyKind> = left_kinds
            .iter()
            .map(|&k| {
                if r.chance(0.8) {
                    k
                } else {
                    *r.pick(&KEY_KINDS)
                }
            })
            .collect();
        // An integer above 2^53 facing a float equals, as a float, both its
        // integer neighbours; which of them a boxed hash map then finds is
        // arbitrary, so ints that face floats stay small.
        let facing = |mine: &[KeyKind], theirs: &[KeyKind]| -> Vec<KeyKind> {
            let exact = |(&m, &t)| match (m, t) {
                (KeyKind::Int, KeyKind::Float) => KeyKind::SmallInt,
                _ => m,
            };
            mine.iter().zip(theirs).map(exact).collect()
        };
        let (left_kinds, right_kinds) = (
            facing(&left_kinds, &right_kinds),
            facing(&right_kinds, &left_kinds),
        );
        let (left_rows, right_rows) = (gen_rows(&mut r), gen_rows(&mut r) / 2);
        let left = gen_join_side(&mut r, "l", &left_kinds, left_rows);
        let right = gen_join_side(&mut r, "r", &right_kinds, right_rows);
        let keys: Vec<String> = (0..left_kinds.len()).map(|i| format!("k{i}")).collect();
        for condition in CONDITIONS {
            let spec = JoinSpec {
                left_keys: keys.clone(),
                right_keys: keys.clone(),
                condition,
                projection: gen_projection(&mut r),
            };
            let what = format!("case {case}: {left_kinds:?} x {right_kinds:?} {spec:?}");
            assert_same_outcome(
                join(&left, &right, &spec),
                rowwise_join(&left, &right, &spec),
                &what,
            );
        }
    }
}

#[test]
fn a_lookup_join_shares_the_left_columns() {
    let mut r = SeededRng::new(0x6B65_7905);
    for case in 0..CASES {
        // The right side holds each distinct non-null left key once, so
        // every left row finds exactly one match — unless the left has
        // null keys, which only a left outer join keeps.
        let kind = *r.pick(&[KeyKind::Str, KeyKind::Int, KeyKind::Date]);
        let rows = 1 + r.index(60);
        let left = gen_join_side(&mut r, "l", &[kind], rows);
        let dim = rowwise_distinct(&left, &["k0"]).unwrap();
        let known = Bitmap::from_fn(dim.num_rows(), |i| !dim.value(i, "k0").unwrap().is_null());
        let dim = dim.filter(&known);
        let labels = Column::utf8((0..dim.num_rows()).map(|i| format!("label{i}")));
        let right = table_of(vec![
            ("k0".into(), dim.column("k0").unwrap().as_ref().clone()),
            ("label".into(), labels),
        ]);
        let left_has_nulls = left.column("k0").unwrap().null_count() > 0;
        for condition in [JoinCondition::Inner, JoinCondition::LeftOuter] {
            let spec = JoinSpec {
                left_keys: vec!["k0".into()],
                right_keys: vec!["k0".into()],
                condition,
                projection: vec![
                    ProjectSpec::left("lv", "payload"),
                    ProjectSpec::left("k0", "key"),
                    ProjectSpec::right("label", "label"),
                ],
            };
            let out = join(&left, &right, &spec).unwrap();
            let what = format!("case {case}: {kind:?} {condition:?}");
            assert_identical(&out, &rowwise_join(&left, &right, &spec).unwrap(), &what);
            let shared = Arc::ptr_eq(out.column("payload").unwrap(), left.column("lv").unwrap());
            let in_place = !left_has_nulls || condition == JoinCondition::LeftOuter;
            assert_eq!(shared, in_place, "{what}: left columns shared");
        }
    }
}

// ---------------------------------------------------------------------------
// Distinct and top-n
// ---------------------------------------------------------------------------

#[test]
fn distinct_matches_the_rowwise_oracle() {
    let mut r = SeededRng::new(0x6B65_7906);
    for case in 0..CASES {
        let kinds = gen_kinds(&mut r, 3);
        let rows = gen_rows(&mut r);
        let table = gen_table(&mut r, &kinds, rows);
        // The whole row, or a subset of the key columns.
        let mut columns: Vec<String> = (0..kinds.len()).map(|i| format!("k{i}")).collect();
        match r.index(3) {
            0 => columns.clear(),
            1 => columns.truncate(1),
            _ => {}
        }
        assert_same_outcome(
            distinct(&table, &columns),
            rowwise_distinct(&table, &columns),
            &format!("case {case}: {kinds:?} on {columns:?}"),
        );
    }
}

#[test]
fn topn_matches_the_rowwise_oracle() {
    let mut r = SeededRng::new(0x6B65_7907);
    for case in 0..CASES {
        let kinds = gen_kinds(&mut r, 2);
        let rows = gen_rows(&mut r);
        let table = gen_table(&mut r, &kinds, rows);
        let groupby: Vec<String> = match r.index(3) {
            0 => Vec::new(),
            _ => (0..kinds.len()).map(|i| format!("k{i}")).collect(),
        };
        // `mi` has eleven values over up to seventy rows: ties everywhere.
        let mut order_by = vec![if r.chance(0.5) {
            SortKey::asc("mi")
        } else {
            SortKey::desc("mi")
        }];
        if r.chance(0.4) {
            order_by.push(SortKey::desc("mf"));
        }
        let largest = rowwise_topn(
            &table,
            &TopN {
                groupby: groupby.clone(),
                order_by: Vec::new(),
                limit: usize::MAX,
            },
        )
        .map(|all| all.num_rows())
        .unwrap_or(0);
        // Around the sizes where a partition is cut and where it is not.
        for limit in [0, 1, largest.saturating_sub(1), largest, largest + 1, 3] {
            let cfg = TopN {
                groupby: groupby.clone(),
                order_by: order_by.clone(),
                limit,
            };
            assert_same_outcome(
                topn(&table, &cfg),
                rowwise_topn(&table, &cfg),
                &format!("case {case}: {kinds:?} {cfg:?}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The engine's row-at-a-time baseline
// ---------------------------------------------------------------------------

/// join → group-by through the columnar executor and through
/// `engine::baseline` (nested-loop join, group-by over boxed rows): the
/// same JSON bytes, groups in the same order.
#[test]
fn the_columnar_executor_agrees_with_the_row_baseline() {
    const FLOW: &str = r#"
D:
  facts: [k0, mi, mf]
  dim: [k0, label]
T:
  look_up:
    type: join
    left: facts by k0
    right: dim by k0
    join_condition: left outer
    project:
      facts_k0: key
      facts_mi: mi
      facts_mf: mf
      dim_label: label
  per_label:
    type: groupby
    groupby: [label, key]
    aggregates:
    - operator: sum
      apply_on: mi
      out_field: total
    - operator: max
      apply_on: mf
      out_field: top
    - operator: count_all
      apply_on: mi
      out_field: n
F:
  +D.out: (D.facts, D.dim) | T.look_up | T.per_label
"#;
    let flow = parse_flow_file("p", FLOW).unwrap();
    let registry = TaskRegistry::new();
    let pipeline = compile(&flow, &CompileEnv::bare(&registry)).unwrap();
    let mut r = SeededRng::new(0x6B65_7908);
    for case in 0..CASES / 4 {
        let kind = *r.pick(&[KeyKind::Str, KeyKind::Int, KeyKind::Bool]);
        let rows = gen_rows(&mut r);
        let facts = gen_table(&mut r, &[kind], rows)
            .project(&["k0", "mi", "mf"])
            .unwrap();
        let keys = rowwise_distinct(&facts, &["k0"]).unwrap();
        let kept = Bitmap::from_fn(keys.num_rows(), |_| r.chance(0.7));
        let keys = keys.filter(&kept);
        let labels = Column::utf8((0..keys.num_rows()).map(|i| format!("label{}", i % 3)));
        let dim = table_of(vec![
            ("k0".into(), keys.column("k0").unwrap().as_ref().clone()),
            ("label".into(), labels),
        ]);
        let ctx = ExecContext::new(shareinsights::connectors::Catalog::new())
            .with_table("facts", facts)
            .with_table("dim", dim);
        let columnar = Executor::default().execute(&pipeline, &ctx).unwrap();
        let naive = execute_naive(&pipeline, &ctx).unwrap();
        assert_eq!(
            table_to_json(columnar.table("out").unwrap()),
            table_to_json(naive.table("out").unwrap()),
            "case {case}: {kind:?}"
        );
    }
}
