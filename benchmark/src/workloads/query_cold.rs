//! `query_cold`: one connection refreshes a dashboard over a large
//! published endpoint with a warm index — four queries per refresh, every
//! one distinct within the run, so kernels and planners do all the work.

use crate::gen::{self, ColdQueries, Facts, Rng, Shape};
use crate::harness::{self, Cfg, Harvest, PhaseLog, Report};
use crate::http::Conn;
use crate::metrics::per_layer_name;
use crate::stats::{fnv1a, median};
use crate::sut::{self, Mode, Sut, Table};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

const ROWS: usize = 100_000;
const KEYS: usize = 5_000;
const BASE: &str = "/bench/ds/big";
/// Refreshes issued during set-up: the first builds the key index.
const WARM: usize = 2;
/// Refreshes whose bodies are checked against the scan path afterwards.
const VERIFIED: usize = 32;
/// Scan sorts are slow: only this many sort bodies are re-derived.
const VERIFIED_SORTS: usize = 2;

struct Inputs {
    facts: Facts,
    queries: ColdQueries,
}

fn prepare(cfg: &Cfg) -> Inputs {
    let mut rng = Rng::new(cfg.seed);
    let facts = gen::facts(&mut rng, cfg.scaled(ROWS), KEYS);
    let queries = ColdQueries::new(&mut rng, BASE, "big", KEYS);
    Inputs { facts, queries }
}

struct World {
    sut: Sut,
    table: Table,
    queries: ColdQueries,
}

/// Set-up: generate the data, start the service, publish the endpoint and
/// warm its index with `WARM` refreshes.
fn setup(cfg: &Cfg) -> World {
    let inputs = prepare(cfg);
    let sut = Sut::start(Mode::Reactor).expect("service starts");
    sut.create_dashboard("bench");
    let table = sut::fact_table(&inputs.facts, true);
    sut.publish("bench", "big", &table);
    let mut conn = Conn::new(sut.addr());
    for i in 0..WARM {
        for op in inputs.queries.refresh(i) {
            let reply = conn.send(&op.wire(None)).expect("warm-up query");
            assert_eq!(reply.status, 200, "warm-up {} {}", op.method, op.target);
        }
    }
    World {
        sut,
        table,
        queries: inputs.queries,
    }
}

/// Body hashes of one refresh, kept for the oracle check.
type Seen = (usize, [Option<u64>; 4]);

/// Refresh from index `from` until `seconds` have passed; returns the log,
/// the bodies seen and the next unused refresh index.
fn phase(
    world: &World,
    queries: &ColdQueries,
    from: usize,
    seconds: f64,
    mut harvest: Option<&mut Harvest>,
) -> (PhaseLog, Vec<Seen>, usize) {
    let mut conn = Conn::new(world.sut.addr());
    let mut log = PhaseLog::new(4_096);
    let mut seen = Vec::new();
    let started = Instant::now();
    let until = harness::deadline(seconds);
    let mut i = from;
    while Instant::now() < until {
        let tagged = harvest.is_some() && i % 2 == 1;
        let mut hashes = [None; 4];
        let mut times = [0.0; 4];
        let refresh = queries.refresh(i);
        for (slot, op) in refresh.iter().enumerate() {
            let (us, reply) = match harvest.as_deref_mut().filter(|_| tagged) {
                Some(h) => h.send(&mut conn, op),
                None => harness::timed_send(&mut conn, &op.wire(None)),
            };
            hashes[slot] = harness::ok_hash(&reply);
            times[slot] = us;
        }
        for (slot, op) in refresh.iter().enumerate() {
            if hashes[slot].is_some() {
                log.request(op.shape, times[slot]);
            }
        }
        let total: f64 = times.iter().sum();
        log.op(hashes.iter().all(Option::is_some).then_some(total), tagged);
        seen.push((i, hashes));
        i += 1;
    }
    log.finish(started, conn.reconnects);
    (log, seen, i)
}

/// Re-derive the first refreshes' bodies on the scan path over the
/// generator's table and compare hashes.
fn verify(world: &World, queries: &ColdQueries, seen: &[Seen], report: &mut Report) {
    let mut sorts = 0;
    for (i, hashes) in seen.iter().take(VERIFIED) {
        for (op, got) in queries.refresh(*i).iter().zip(hashes) {
            if op.shape == Shape::SortLimit {
                sorts += 1;
                if sorts > VERIFIED_SORTS {
                    continue;
                }
            }
            let want = sut::oracle_body(&world.table, op).map(|b| fnv1a(b.as_bytes()));
            report.ensure(want.as_ref().ok() == got.as_ref(), || {
                format!(
                    "{} {} {} differs from the scan path",
                    op.method, op.target, op.body
                )
            });
        }
    }
}

pub fn timed(cfg: &Cfg) -> Report {
    let mut report = Report::new();
    let started = Instant::now();
    let world = setup(cfg);
    let first_setup_s = started.elapsed().as_secs_f64();
    let before = world.sut.counters();
    let (log, seen, _) = phase(&world, &world.queries, WARM, cfg.seconds, None);
    let delta = world.sut.counters().since(&before);
    let peak = harness::vm_hwm_mib();
    report.ensure(delta.page_hit_ratio() < 0.01, || {
        format!(
            "query_cold must miss every cache, hit ratio {:.4}",
            delta.page_hit_ratio()
        )
    });
    verify(&world, &world.queries, &seen, &mut report);
    report.notes.push(format!(
        "op list hash {:016x}; per-shape p50: filter {:.0}us groupby {:.0}us sort_limit {:.0}us sql {:.0}us",
        gen::ops_hash(&world.queries.prefix(64)),
        log.shape_p50(Shape::Filter),
        log.shape_p50(Shape::GroupBy),
        log.shape_p50(Shape::SortLimit),
        log.shape_p50(Shape::Sql),
    ));
    world.sut.shutdown();
    let more = cfg.more_setups();
    let setup_s = harness::median_setup_s(first_setup_s, more, || setup(cfg), |w| w.sut.shutdown());
    log.end_to_end(&mut report, setup_s, peak);
    report
}

fn shape_metric(prefix: &str, shape: Shape) -> &'static str {
    per_layer_name(&format!("{prefix}{}_us", shape.name())).expect("a metric per query shape")
}

pub fn traced(cfg: &Cfg) -> Report {
    let mut report = Report::new();
    let world = setup(cfg);
    let queries = &world.queries;

    let before = world.sut.counters();
    let mut harvest = Harvest::new(0, 3);
    let (log, seen, next) = phase(&world, queries, WARM, cfg.seconds * 0.6, Some(&mut harvest));
    harness::cache_metrics(&world.sut.counters().since(&before), &mut report);
    verify(&world, queries, &seen, &mut report);
    harness::traced_phase(&log, &harvest, &mut report);

    // The budget of a cold query: the enclosing `Server::handle`, then the
    // same work replayed through the public functions it is made of.
    let mut tracer = Tracer::new();
    let indexed = tracer.time("tabular.index.build", None, 0, || {
        sut::index_build(&world.table)
    });
    let probes = if cfg.quick { 3 } else { 12 };
    let mut by_shape: BTreeMap<Shape, Vec<f64>> = BTreeMap::new();
    let (mut parse_ops, mut parse_sql, mut serialise, mut bytes, mut residual) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut enclosing: BTreeMap<Shape, Vec<f64>> = BTreeMap::new();
    let mut replayed: BTreeMap<Shape, Vec<f64>> = BTreeMap::new();
    let mut index_hits = 0;
    let mut id = 0u32;
    for i in next..next + probes {
        for op in queries.refresh(i) {
            id += 1;
            let wire = op.wire(None);
            let root = tracer.open("op", None, id);
            let request = tracer.time("server.wire.parse", Some(root), id, || {
                sut::wire_parse(&wire)
            });
            let started = Instant::now();
            let response = tracer.time("server.router.handle_cold", Some(root), id, || {
                world.sut.handle(&request)
            });
            let handle_us = started.elapsed().as_secs_f64() * 1e6;
            let served = response.body.clone();
            report.ensure(sut::status_of(&response) == 200, || {
                format!("{} failed in process", op.target)
            });
            tracer.time("server.wire.frame", Some(root), id, || {
                sut::wire_frame(response)
            });

            let replay = tracer.open("replay", Some(root), id);
            let t0 = Instant::now();
            let ops = if op.shape == Shape::Sql {
                tracer.time("engine.sql.parse_lower", Some(replay), id, || {
                    sut::sql_ops(&op.body)
                })
            } else {
                tracer.time("server.query.parse_ops", Some(replay), id, || {
                    sut::path_ops(&op)
                })
            }
            .expect("query parses");
            let t1 = Instant::now();
            let (result, hit) = tracer.time("server.query.indexed", Some(replay), id, || {
                sut::run_indexed(&indexed, &ops)
            });
            let t2 = Instant::now();
            let body = tracer.time("server.json.serialise", Some(replay), id, || {
                sut::to_json(&result)
            });
            let t3 = Instant::now();
            tracer.close(replay);
            tracer.close(root);
            report.ensure(body == served, || {
                format!("{} replay differs from the served body", op.target)
            });

            let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
            if op.shape == Shape::Sql {
                parse_sql.push(us(t0, t1));
            } else {
                parse_ops.push(us(t0, t1));
            }
            by_shape.entry(op.shape).or_default().push(us(t1, t2));
            serialise.push(us(t2, t3));
            bytes.push(body.len() as f64);
            residual.push(handle_us - us(t0, t3));
            enclosing.entry(op.shape).or_default().push(handle_us);
            replayed.entry(op.shape).or_default().push(us(t0, t3));
            index_hits += usize::from(hit);
        }
    }
    for (shape, us) in &by_shape {
        report.set(shape_metric("server.query.indexed_", *shape), median(us));
    }
    harness::span_medians(
        &tracer,
        &[
            "tabular.index.build",
            "server.wire.parse",
            "server.wire.frame",
            "server.router.handle_cold",
        ],
        &mut report,
    );
    report.set("server.query.parse_ops_us", median(&parse_ops));
    report.set("engine.sql.parse_lower_us", median(&parse_sql));
    report.set("server.json.serialise_us", median(&serialise));
    report.set("server.json.body_bytes", median(&bytes));
    report.set("server.router.residual_us", median(&residual));
    // Per shape, the median replay over the median enclosing call; summed
    // over the shapes of a refresh, so one stalled probe cannot tip it.
    let per_refresh =
        |by: &BTreeMap<Shape, Vec<f64>>| by.values().map(|us| median(us)).sum::<f64>();
    report.set(
        "bench.layer_cover_ratio",
        harness::ratio(per_refresh(&replayed), per_refresh(&enclosing)),
    );
    report.notes.push(format!(
        "in-process replay used an index on {index_hits} of {id} queries"
    ));

    // The decline-to-scan path: the same shapes through `run_query`.
    let scans = if cfg.quick { 1 } else { 4 };
    let mut scan_us: BTreeMap<Shape, Vec<f64>> = BTreeMap::new();
    for i in 0..scans {
        for op in queries.refresh(next + probes + i) {
            if op.shape == Shape::SortLimit && i >= VERIFIED_SORTS {
                continue;
            }
            let ops = sut::ops_of(&op).expect("query parses");
            let started = Instant::now();
            std::hint::black_box(tracer.time("server.query.scan", None, 0, || {
                sut::run_scan(&world.table, &ops)
            }));
            scan_us
                .entry(op.shape)
                .or_default()
                .push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    for (shape, us) in &scan_us {
        report.set(shape_metric("server.query.scan_", *shape), median(us));
    }

    // Width 2 against unsharded, on the same cold ops.
    let twin = Sut::sharded_twin("bench", "big", &world.table);
    let mut shard_us: BTreeMap<Shape, Vec<f64>> = BTreeMap::new();
    let mut shard_before = twin.counters();
    let rounds = if cfg.quick { 2 } else { 8 };
    for i in 0..=rounds {
        for op in queries.refresh(next + probes + scans + i) {
            if !matches!(op.shape, Shape::GroupBy | Shape::SortLimit) {
                continue;
            }
            let request = sut::request_of(&op);
            let started = Instant::now();
            let response = tracer.time("server.shard.handle", None, 0, || twin.handle(&request));
            report.ensure(sut::status_of(&response) == 200, || {
                format!("sharded {} failed", op.target)
            });
            shard_us
                .entry(op.shape)
                .or_default()
                .push(started.elapsed().as_secs_f64() * 1e6);
        }
        if i == 0 {
            // The first round loads the shard slices; it is not timed.
            shard_us.clear();
            shard_before = twin.counters();
        }
    }
    report.set(
        "server.shard.groupby_us",
        median(&shard_us[&Shape::GroupBy]),
    );
    report.set(
        "server.shard.sort_limit_us",
        median(&shard_us[&Shape::SortLimit]),
    );
    report.set(
        "server.shard.fallback_ratio",
        twin.counters().since(&shard_before).shard_fallback_ratio(),
    );
    report.notes.push(format!(
        "sort_limit: indexed {:.0}us vs width-2 shards {:.0}us vs scan {:.0}us; \
         groupby: indexed {:.0}us vs width-2 shards {:.0}us",
        median(&by_shape[&Shape::SortLimit]),
        median(&shard_us[&Shape::SortLimit]),
        scan_us.get(&Shape::SortLimit).map_or(0.0, |v| median(v)),
        median(&by_shape[&Shape::GroupBy]),
        median(&shard_us[&Shape::GroupBy]),
    ));
    crate::write_trace("query_cold", &tracer, &mut report);
    world.sut.shutdown();
    report
}
