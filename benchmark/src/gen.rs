//! Seeded input generation: the fact rows and the operation sequences of
//! every workload are pure functions of `--seed`. The program under test
//! sees only the bytes produced here.

use crate::stats::fnv1a_from;

/// SplitMix64 — small, seedable, and independent of the program's own RNG
/// so that a change there cannot move the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

pub const REGIONS: usize = 16;
/// First generated day (2014-01-01 as days since the Unix epoch).
const DAY0: i32 = 16_071;

/// Columnar fact rows: `key, region, qty, price, day`.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    pub key: Vec<String>,
    pub region: Vec<String>,
    pub qty: Vec<i64>,
    pub price: Vec<f64>,
    pub day: Vec<i32>,
}

pub fn key_name(i: usize) -> String {
    format!("k{i:05}")
}

pub fn region_name(i: usize) -> String {
    format!("r{i:02}")
}

/// `rows` fact rows over `distinct_keys` uniformly drawn keys.
pub fn facts(rng: &mut Rng, rows: usize, distinct_keys: usize) -> Facts {
    let mut f = Facts::default();
    for _ in 0..rows {
        f.key.push(key_name(rng.below(distinct_keys)));
        f.region.push(region_name(rng.below(REGIONS)));
        f.qty.push(1 + rng.below(100) as i64);
        f.price.push(rng.below(100_000) as f64 / 100.0);
        f.day.push(DAY0 + rng.below(365) as i32);
    }
    f
}

/// Civil date of a day count since 1970-01-01 (Hinnant's algorithm).
fn civil(days: i32) -> (i32, u32, u32) {
    let z = i64::from(days) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = (yoe + era * 400 + i64::from(m <= 2)) as i32;
    (y, m, d)
}

impl Facts {
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// CSV text (with header) of `rows`, the day spelled `yyyy-mm-dd`.
    pub fn csv(&self, rows: std::ops::Range<usize>) -> String {
        let mut out = String::with_capacity(rows.len() * 40 + 32);
        out.push_str("key,region,qty,price,day\n");
        for i in rows {
            let (y, m, d) = civil(self.day[i]);
            out.push_str(&format!(
                "{},{},{},{:.2},{y:04}-{m:02}-{d:02}\n",
                self.key[i], self.region[i], self.qty[i], self.price[i]
            ));
        }
        out
    }
}

/// What an operation asks of the program; latencies are reported per shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    Page,
    Filter,
    GroupBy,
    SortLimit,
    Sql,
    Append,
    SaveFlow,
    Run,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Page => "page",
            Shape::Filter => "filter",
            Shape::GroupBy => "groupby",
            Shape::SortLimit => "sort_limit",
            Shape::Sql => "sql",
            Shape::Append => "append",
            Shape::SaveFlow => "save_flow",
            Shape::Run => "run",
        }
    }
}

/// One HTTP request of an operation sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub shape: Shape,
    pub method: &'static str,
    pub target: String,
    pub body: String,
}

impl Op {
    pub fn get(shape: Shape, target: String) -> Op {
        Op {
            shape,
            method: "GET",
            target,
            body: String::new(),
        }
    }

    pub fn send(shape: Shape, method: &'static str, target: String, body: String) -> Op {
        Op {
            shape,
            method,
            target,
            body,
        }
    }

    /// The exact request bytes, optionally tagged with a trace id.
    pub fn wire(&self, trace_id: Option<&str>) -> Vec<u8> {
        let tag: Vec<(&str, &str)> = trace_id.iter().map(|id| ("X-Trace-Id", *id)).collect();
        crate::http::request_bytes(self.method, &self.target, &tag, self.body.as_bytes())
    }
}

/// Hash of an operation list — equal seeds must give equal hashes.
pub fn ops_hash(ops: &[Op]) -> u64 {
    ops.iter().fold(0xcbf2_9ce4_8422_2325, |h, op| {
        let h = fnv1a_from(h, op.method.as_bytes());
        let h = fnv1a_from(h, op.target.as_bytes());
        fnv1a_from(fnv1a_from(h, b"\n"), op.body.as_bytes())
    })
}

/// The 16-request pool `serve_warm` cycles over a small endpoint: browse
/// pages, path-grammar queries of each shape and their SQL spelling.
pub fn warm_pool(rng: &mut Rng, base: &str, dataset: &str, distinct_keys: usize) -> Vec<Op> {
    let path = |shape, tail: String| Op::get(shape, format!("{base}/{tail}"));
    let sql = |body: String| Op::send(Shape::Sql, "POST", format!("{base}/sql"), body);
    let mut pool = vec![
        Op::get(
            Shape::Page,
            format!("{base}?limit=25&offset={}", rng.below(400)),
        ),
        Op::get(
            Shape::Page,
            format!("{base}?limit=50&offset={}", rng.below(400)),
        ),
    ];
    for _ in 0..3 {
        let key = key_name(rng.below(distinct_keys));
        pool.push(path(Shape::Filter, format!("filter/key/{key}")));
    }
    pool.push(path(Shape::GroupBy, "groupby/region/sum/qty".into()));
    pool.push(path(Shape::GroupBy, "groupby/region/count/key".into()));
    pool.push(path(
        Shape::GroupBy,
        format!("groupby/key/sum/qty/limit/{}", 20 + rng.below(40)),
    ));
    for (column, order) in [
        ("qty", "desc"),
        ("price", "asc"),
        ("key", "asc"),
        ("day", "desc"),
    ] {
        let n = 10 + rng.below(50);
        pool.push(path(
            Shape::SortLimit,
            format!("sort/{column}/{order}/limit/{n}"),
        ));
    }
    let (lo, hi) = (1 + rng.below(40), 60 + rng.below(40));
    pool.push(sql(format!(
        "select region, sum(qty) as total, count(*) as n from {dataset} \
         where qty between {lo} and {hi} group by region"
    )));
    pool.push(sql(format!(
        "select key, sum(qty) from {dataset} group by key order by sum_qty desc limit {}",
        5 + rng.below(20)
    )));
    pool.push(sql(format!(
        "select * from {dataset} where region = '{}' and qty > {} limit 30",
        region_name(rng.below(REGIONS)),
        50 + rng.below(40)
    )));
    pool.push(sql(format!(
        "select key, region, price from {dataset} where price < {} order by price asc limit 20",
        10 + rng.below(50)
    )));
    pool
}

/// The cold refreshes of `query_cold`: refresh `i` is four queries in a
/// fixed order, every one distinct within a run so no cache can answer it.
pub struct ColdQueries {
    base: String,
    dataset: String,
    keys: Vec<usize>,
    salt: u64,
}

impl ColdQueries {
    pub fn new(rng: &mut Rng, base: &str, dataset: &str, distinct_keys: usize) -> ColdQueries {
        ColdQueries {
            base: base.to_string(),
            dataset: dataset.to_string(),
            keys: rng.permutation(distinct_keys),
            salt: rng.next_u64(),
        }
    }

    pub fn refresh(&self, i: usize) -> [Op; 4] {
        let mut r = Rng::new(self.salt ^ i as u64);
        let base = &self.base;
        // Past one lap of the key permutation a no-op limit keeps the
        // request text (and so every cache key) distinct.
        let lap = i / self.keys.len();
        let mut filter = format!(
            "{base}/filter/key/{}",
            key_name(self.keys[i % self.keys.len()])
        );
        if lap > 0 {
            filter.push_str(&format!("/limit/{}", 100_000 + lap));
        }
        let order = if i.is_multiple_of(2) { "desc" } else { "asc" };
        let (lo, hi) = (1 + r.below(45), 55 + r.below(45));
        [
            Op::get(Shape::Filter, filter),
            Op::get(
                Shape::GroupBy,
                format!("{base}/groupby/key/sum/qty/limit/{}", 100_000 + i),
            ),
            Op::get(
                Shape::SortLimit,
                format!("{base}/sort/key/{order}/limit/{}", 100 + i),
            ),
            Op::send(
                Shape::Sql,
                "POST",
                format!("{base}/sql"),
                format!(
                    "select region, sum(qty) as total, count(*) as n, max(price) as top \
                     from {} where qty between {lo} and {hi} and price < {} group by region",
                    self.dataset,
                    50_000 + i
                ),
            ),
        ]
    }

    /// The first `refreshes` refreshes, flattened (for the op-list hash).
    pub fn prefix(&self, refreshes: usize) -> Vec<Op> {
        (0..refreshes).flat_map(|i| self.refresh(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_hash(seed: u64) -> u64 {
        let mut rng = Rng::new(seed);
        ops_hash(&ColdQueries::new(&mut rng, "/b/ds/big", "big", 500).prefix(64))
    }

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        assert_eq!(cold_hash(7), cold_hash(7));
        assert_ne!(cold_hash(7), cold_hash(8));
        let pool = |seed| ops_hash(&warm_pool(&mut Rng::new(seed), "/b/ds/small", "small", 500));
        assert_eq!(pool(1), pool(1));
        assert_ne!(pool(1), pool(2));
        let rows = |seed| facts(&mut Rng::new(seed), 50, 10).csv(0..50);
        assert_eq!(rows(3), rows(3));
        assert_ne!(rows(3), rows(4));
    }

    #[test]
    fn cold_queries_never_repeat_within_a_run() {
        let q = ColdQueries::new(&mut Rng::new(1), "/b/ds/big", "big", 50);
        let mut seen = std::collections::HashSet::new();
        for op in q.prefix(200) {
            assert!(seen.insert((op.target.clone(), op.body.clone())), "{op:?}");
        }
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil(0), (1970, 1, 1));
        assert_eq!(civil(DAY0), (2014, 1, 1));
        assert_eq!(civil(DAY0 + 364), (2014, 12, 31));
        assert_eq!(civil(11_016), (2000, 2, 29));
    }
}
