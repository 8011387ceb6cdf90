//! `serve_warm`: two keep-alive connections cycle a 16-request pool over a
//! small published endpoint; after warm-up every request is a cache hit,
//! so all time is in the wire, the reactor, the router and the cache.

use crate::gen::{self, Facts, Op, Rng};
use crate::harness::{self, Cfg, Harvest, PhaseLog, Report};
use crate::http::Conn;
use crate::stats::fnv1a;
use crate::sut::{self, Mode, Sut};
use crate::trace::Tracer;
use std::time::Instant;

const ROWS: usize = 10_000;
const KEYS: usize = 500;
/// Closed-loop clients: one per core of the 2-core reference box.
const CLIENTS: usize = 2;
const BASE: &str = "/bench/ds/small";

struct Inputs {
    facts: Facts,
    pool: Vec<Op>,
}

fn prepare(cfg: &Cfg) -> Inputs {
    let mut rng = Rng::new(cfg.seed);
    let facts = gen::facts(&mut rng, cfg.scaled(ROWS).max(1_000), KEYS);
    let pool = gen::warm_pool(&mut rng, BASE, "small", KEYS);
    Inputs { facts, pool }
}

struct World {
    sut: Sut,
    pool: Vec<Op>,
    /// The body hash of each pool slot, as served during warm-up.
    expect: Vec<u64>,
    /// Warm-up replies that disagreed with the scan path.
    faults: Vec<String>,
}

/// Set-up: generate the data, start the service, publish the endpoint and
/// fill the caches by requesting the whole pool once, every body checked
/// byte-for-byte against the scan path.
fn setup(cfg: &Cfg, mode: Mode) -> World {
    let Inputs { facts, pool } = prepare(cfg);
    let sut = Sut::start(mode).expect("service starts");
    sut.create_dashboard("bench");
    let table = sut::fact_table(&facts, true);
    sut.publish("bench", "small", &table);
    let mut conn = Conn::new(sut.addr());
    let mut faults = Vec::new();
    let expect = pool
        .iter()
        .map(|op| {
            let reply = conn.send(&op.wire(None));
            let want = sut::oracle_body(&table, op);
            match (&reply, &want) {
                (Ok(r), Ok(body)) if r.status == 200 && r.body == body.as_bytes() => {}
                _ => faults.push(format!(
                    "warm-up of {} {} disagrees with the scan path",
                    op.method, op.target
                )),
            }
            reply.map_or(0, |r| fnv1a(&r.body))
        })
        .collect();
    World {
        sut,
        pool,
        expect,
        faults,
    }
}

/// Ops a client sends in a row with or without an `X-Trace-Id` before it
/// switches, in a traced phase.
const TAG_RUN: usize = 256;

/// Room for this many ops per second and client in a log (the reactor
/// serves about 7,500 per client; a log that runs out of room grows).
const LOG_OPS_PER_S: f64 = 20_000.0;

/// One closed-loop client: cycle the pool from slot `first` for `seconds`,
/// checking status and body hash of every reply. With a harvest (a traced
/// pass), every other run of `TAG_RUN` ops is tagged and per-shape
/// latencies are kept.
fn client(
    world: &World,
    wires: &[Vec<u8>],
    first: usize,
    seconds: f64,
    mut harvest: Option<&mut Harvest>,
) -> PhaseLog {
    let mut conn = Conn::new(world.sut.addr());
    let mut log = PhaseLog::new((seconds * LOG_OPS_PER_S) as usize);
    let started = Instant::now();
    let until = harness::deadline(seconds);
    let mut sent = 0;
    while Instant::now() < until {
        let slot = (first + sent) % world.pool.len();
        let tagged = harvest.is_some() && sent / TAG_RUN % 2 == 1;
        let (us, reply) = match harvest.as_deref_mut().filter(|_| tagged) {
            Some(h) => h.send(&mut conn, &world.pool[slot]),
            None => harness::timed_send(&mut conn, &wires[slot]),
        };
        let ok = harness::ok_hash(&reply) == Some(world.expect[slot]);
        log.op(ok.then_some(us), tagged);
        if ok && harvest.is_some() {
            log.request(world.pool[slot].shape, us);
        }
        sent += 1;
    }
    log.finish(started, conn.reconnects);
    log
}

/// `CLIENTS` keep-alive clients side by side, offset around the pool, for
/// `seconds`; their logs merged.
fn phase(world: &World, seconds: f64, harvest: Option<&mut Harvest>) -> PhaseLog {
    let wires: Vec<Vec<u8>> = world.pool.iter().map(|op| op.wire(None)).collect();
    let mut tagging: Vec<Option<Harvest>> = (0..CLIENTS)
        .map(|c| harvest.is_some().then(|| Harvest::new(c as u64, 251)))
        .collect();
    let mut log = PhaseLog::new((CLIENTS as f64 * seconds * LOG_OPS_PER_S) as usize);
    let started = Instant::now();
    let logs: Vec<PhaseLog> = std::thread::scope(|scope| {
        let wires = &wires;
        let handles: Vec<_> = tagging
            .iter_mut()
            .enumerate()
            .map(|(c, tagging)| {
                let first = c * world.pool.len() / CLIENTS;
                scope.spawn(move || client(world, wires, first, seconds, tagging.as_mut()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for client_log in logs {
        log.absorb(client_log);
    }
    log.finish(started, 0);
    if let Some(total) = harvest {
        for tagged in tagging.into_iter().flatten() {
            total.absorb(tagged);
        }
    }
    log
}

/// Report what the warm-ups of `world` found wrong.
fn warm_faults(world: &mut World, report: &mut Report) {
    for fault in world.faults.drain(..) {
        report.fault(fault);
    }
}

pub fn timed(cfg: &Cfg) -> Report {
    let mut report = Report::new();
    let started = Instant::now();
    let mut world = setup(cfg, Mode::Reactor);
    let first_setup_s = started.elapsed().as_secs_f64();
    warm_faults(&mut world, &mut report);
    let before = world.sut.counters();
    let log = phase(&world, cfg.seconds, None);
    let hit_ratio = world.sut.counters().since(&before).page_hit_ratio();
    report.ensure(hit_ratio >= 0.99, || {
        format!("serve_warm must be served from the cache, hit ratio {hit_ratio:.4}")
    });
    let peak = harness::vm_hwm_mib();
    report.notes.push(format!(
        "op list hash {:016x}, cache hit ratio {hit_ratio:.4}",
        gen::ops_hash(&world.pool)
    ));
    world.sut.shutdown();
    let setup_s = harness::median_setup_s(
        first_setup_s,
        cfg.more_setups(),
        || setup(cfg, Mode::Reactor),
        |w| w.sut.shutdown(),
    );
    log.end_to_end(&mut report, setup_s, peak);
    report
}

pub fn traced(cfg: &Cfg) -> Report {
    let mut report = Report::new();
    let mut world = setup(cfg, Mode::Reactor);
    warm_faults(&mut world, &mut report);

    let before = world.sut.counters();
    let mut harvest = Harvest::new(0, 251);
    let log = phase(&world, cfg.seconds * 0.6, Some(&mut harvest));
    harness::cache_metrics(&world.sut.counters().since(&before), &mut report);
    harness::traced_phase(&log, &harvest, &mut report);

    // The like-with-like base for the reactor's transport share: the same
    // warm sequence through the thread-per-connection core.
    let mut threads = setup(cfg, Mode::Threads);
    warm_faults(&mut threads, &mut report);
    let threads_log = phase(&threads, cfg.seconds * 0.2, None);
    report.failed += threads_log.failed;
    report.set("server.serve.threads_rtt_us", threads_log.p50());
    threads.sut.shutdown();

    // The in-process budget of one warm request: parse, handle, frame.
    let mut tracer = Tracer::new();
    let mut frame_bytes = Vec::new();
    let reps = if cfg.quick { 20 } else { 200 };
    for rep in 0..reps {
        for (slot, op) in world.pool.iter().enumerate() {
            let id = (rep * world.pool.len() + slot) as u32;
            let wire = op.wire(None);
            let root = tracer.open("op", None, id);
            let request = tracer.time("server.wire.parse", Some(root), id, || {
                sut::wire_parse(&wire)
            });
            let response = tracer.time("server.router.handle_hit", Some(root), id, || {
                world.sut.handle(&request)
            });
            let hit = sut::status_of(&response) == 200
                && fnv1a(response.body.as_bytes()) == world.expect[slot];
            report.ensure(hit, || {
                format!(
                    "in-process {} {} differs from the served body",
                    op.method, op.target
                )
            });
            frame_bytes.push(tracer.time("server.wire.frame", Some(root), id, || {
                sut::wire_frame(response)
            }) as f64);
            tracer.close(root);
        }
    }
    let rtt = log.p50();
    let in_process = tracer.median_us("server.wire.parse")
        + tracer.median_us("server.router.handle_hit")
        + tracer.median_us("server.wire.frame");
    harness::span_medians(
        &tracer,
        &[
            "server.wire.parse",
            "server.router.handle_hit",
            "server.wire.frame",
        ],
        &mut report,
    );
    report.set(
        "server.wire.frame_bytes",
        crate::stats::median(&frame_bytes),
    );
    report.set("server.reactor.transport_us", rtt - in_process);
    report.set("bench.layer_cover_ratio", harness::ratio(in_process, rtt));
    report.notes.push(format!(
        "reactor rtt p50 {rtt:.1}us = parse+handle+frame {in_process:.1}us + transport {:.1}us; \
         threads rtt p50 {:.1}us",
        rtt - in_process,
        threads_log.p50()
    ));
    crate::write_trace("serve_warm", &tracer, &mut report);
    world.sut.shutdown();
    report
}
