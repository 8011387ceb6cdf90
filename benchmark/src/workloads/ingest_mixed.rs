//! `ingest_mixed`: writes and reads interleaved on one endpoint. One
//! connection posts a fixed count of append batches; a second issues one
//! cold `groupby` read per acknowledged append. The count is fixed so the
//! table's size trajectory — and with it the cost of every append — is the
//! same on every commit.
//!
//! The batches are small against the base (120 rows onto 120k: the table
//! grows by a sixth over the phase). An append costs O(table) today, so
//! over a table that doubles the latencies form a ramp, and the median of a
//! ramp is the few samples where it crosses the middle: two seconds of the
//! machine, not the phase. On this host a fixed memory-bound kernel runs 20 %
//! slower or faster for seconds at a time; ten such runs spread by 0.10.
//! Over a near-flat trajectory every sample speaks for the median: 0.05.
//!
//! In the timed pass the next append waits for that read's reply. Sent
//! beside the next append instead, a read that lands between the append's
//! table swap and its index merge makes the program drop the warm index
//! (`writer_raced`); the rebuild then takes longer than an append, so every
//! later read lands the same way and the run stays in that regime to its
//! end: append p50 82 or 92 ms, read p50 1.4 or 92 ms, by the luck of one
//! wake-up. A gate cannot rest on that. The traced pass still runs a
//! stretch that way and counts the drops.

use crate::gen::{self, Facts, Op, Rng, Shape};
use crate::harness::{self, Cfg, Harvest, PhaseLog, Report};
use crate::http::{Conn, Reply};
use crate::stats::median;
use crate::sut::{self, Mode, Store, Sut};
use crate::trace::Tracer;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const BASE_ROWS: usize = 120_000;
const BATCH_ROWS: usize = 120;
/// Append batches per second of `--seconds`: at the seed commit a batch
/// takes 90 to 105 ms at these sizes, so the phase lasts two thirds to
/// three quarters of `--seconds`.
const BATCHES_PER_SECOND: f64 = 7.0;
const KEYS: usize = 500;
const INGEST: &str = "/dashboards/bench/ds/events/ingest";
const READ: &str = "/bench/ds/events/groupby/key/sum/qty";

struct Inputs {
    facts: Facts,
    base_csv: String,
    batches: Vec<String>,
}

fn batch_count(cfg: &Cfg) -> usize {
    ((cfg.seconds * BATCHES_PER_SECOND) as usize).max(4)
}

fn prepare(cfg: &Cfg) -> Inputs {
    let mut rng = Rng::new(cfg.seed);
    let (base, rows) = (cfg.scaled(BASE_ROWS), cfg.scaled(BATCH_ROWS));
    let facts = gen::facts(&mut rng, base + batch_count(cfg) * rows, KEYS);
    let base_csv = facts.csv(0..base);
    let batches = (0..batch_count(cfg))
        .map(|b| facts.csv(base + b * rows..base + (b + 1) * rows))
        .collect();
    Inputs {
        facts,
        base_csv,
        batches,
    }
}

/// The cold reads issued after append `b`: the `groupby` whose latency is
/// `client.read_p50_us`, then a key filter (the trailing no-op limit keeps
/// reads that land on one generation from sharing a cache entry).
///
/// Two reads, not one, for `peak_rss_mb`. With one request in flight at a
/// time the reactor's four workers take requests in turn, so with two
/// requests a cycle the appends stay on two of them until a late wake-up
/// shifts the turn, and each worker that has copied the table keeps a
/// table's worth of freed memory in its own malloc arena: the peak was 154
/// to 201 MiB by how far the turn drifted (ten runs spread by 0.16). With
/// three requests a cycle every worker takes appends from the start: 172 to
/// 207 MiB, spread 0.07.
fn read_ops(b: usize) -> [Op; 2] {
    let nonce = 100_000 + b;
    [
        Op::get(Shape::GroupBy, format!("{READ}/limit/{nonce}")),
        Op::get(
            Shape::Filter,
            format!(
                "/bench/ds/events/filter/key/{}/limit/{nonce}",
                gen::key_name(b % KEYS)
            ),
        ),
    ]
}

struct World {
    sut: Sut,
    inputs: Inputs,
    /// The bulk upload's wall time.
    upload: Duration,
}

/// Set-up: generate the rows, then [`load`] them.
fn setup(cfg: &Cfg) -> World {
    load(prepare(cfg))
}

/// Start the service, bulk-upload the base rows through the chunked ingest
/// route and warm the key index with one read.
fn load(inputs: Inputs) -> World {
    let sut = Sut::start(Mode::Reactor).expect("service starts");
    sut.create_dashboard("bench");
    let mut conn = Conn::new(sut.addr());
    let started = Instant::now();
    let reply = conn
        .post_chunked(INGEST, inputs.base_csv.as_bytes(), 256 * 1024)
        .expect("bulk upload");
    let upload = started.elapsed();
    assert_eq!(
        reply.status,
        200,
        "bulk upload: {}",
        String::from_utf8_lossy(&reply.body)
    );
    assert_eq!(conn.get(READ).expect("warm read").status, 200);
    World {
        sut,
        inputs,
        upload,
    }
}

/// What an append acknowledgement must say.
struct Ack {
    generation: f64,
    merged: bool,
    rows_appended: f64,
    total_rows: f64,
}

fn ack_of(reply: &io::Result<Reply>) -> Option<Ack> {
    let reply = reply.as_ref().ok().filter(|r| r.status == 200)?;
    let doc = sut::parse_json(std::str::from_utf8(&reply.body).ok()?)?;
    let num = |key| doc.get(key).and_then(sut::json_num);
    Some(Ack {
        generation: num("generation")?,
        merged: doc.get("index")?.as_str()? == "merged",
        rows_appended: num("rows_appended")?,
        total_rows: num("total_rows")?,
    })
}

/// The two logs of a phase: append batches (the workload's op) and the
/// reads issued between (or beside) them.
struct Mixed {
    appends: PhaseLog,
    reads_us: Vec<f64>,
    read_failures: u64,
    total_rows: f64,
    /// Acknowledgements that said `"index": "cold"`: a read raced the
    /// append and the warm index was dropped instead of merged.
    cold_acks: u64,
}

/// Post `batches` in order on one connection; a second connection reads
/// once per acknowledgement. With `overlap` the next append starts while
/// that read is in flight; without it the append waits for the read's
/// reply (see the module comment). With a harvest, odd batches are tagged
/// and their span trees fetched.
fn phase(
    sut: &Sut,
    batches: &[String],
    rows: usize,
    overlap: bool,
    mut harvest: Option<&mut Harvest>,
) -> Mixed {
    let addr = sut.addr();
    let (acked, to_read) = mpsc::channel::<usize>();
    let (replied, read_done) = mpsc::channel::<()>();
    let mut out = Mixed {
        appends: PhaseLog::new(batches.len()),
        reads_us: Vec::new(),
        read_failures: 0,
        total_rows: 0.0,
        cold_acks: 0,
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut conn = Conn::new(addr);
            let (mut us, mut failures) = (Vec::new(), 0u64);
            for b in to_read {
                let [groupby, filter] = read_ops(b);
                let (t, reply) = harness::timed_send(&mut conn, &groupby.wire(None));
                match harness::ok_hash(&reply) {
                    Some(_) => us.push(t),
                    None => failures += 1,
                }
                let (_, reply) = harness::timed_send(&mut conn, &filter.wire(None));
                failures += u64::from(harness::ok_hash(&reply).is_none());
                let _ = replied.send(());
            }
            (us, failures)
        });
        let mut conn = Conn::new(addr);
        let mut last_generation = 0.0;
        for (b, csv) in batches.iter().enumerate() {
            let op = Op::send(Shape::Append, "POST", INGEST.to_string(), csv.clone());
            let tagged = harvest.is_some() && b % 2 == 1;
            let (us, reply) = match harvest.as_deref_mut().filter(|_| tagged) {
                Some(h) => h.send(&mut conn, &op),
                None => harness::timed_send(&mut conn, &op.wire(None)),
            };
            let ack = ack_of(&reply)
                .filter(|a| a.generation > last_generation && a.rows_appended == rows as f64);
            out.appends.op(ack.is_some().then_some(us), tagged);
            if let Some(a) = ack {
                last_generation = a.generation;
                out.total_rows = a.total_rows;
                out.cold_acks += u64::from(!a.merged);
                if acked.send(b).is_ok() && !overlap {
                    let _ = read_done.recv();
                }
            }
        }
        drop(acked);
        out.appends.finish(started, conn.reconnects);
        let (us, failures) = reader.join().expect("reader thread");
        out.reads_us = us;
        out.read_failures = failures;
    });
    out
}

/// The final state is the same on every commit: check the row count and
/// the full `groupby` body against the scan path over every generated row.
fn verify_final(sut: &Sut, facts: &Facts, rows_sent: usize, total_rows: f64, report: &mut Report) {
    report.ensure(total_rows == rows_sent as f64, || {
        format!("endpoint holds {total_rows} rows, {rows_sent} were sent")
    });
    let sent = Facts {
        key: facts.key[..rows_sent].to_vec(),
        region: facts.region[..rows_sent].to_vec(),
        qty: facts.qty[..rows_sent].to_vec(),
        price: facts.price[..rows_sent].to_vec(),
        day: Vec::new(),
    };
    let op = Op::get(Shape::GroupBy, READ.to_string());
    let want = sut::oracle_body(&sut::fact_table(&sent, false), &op);
    let got = Conn::new(sut.addr()).get(READ);
    match (got, want) {
        (Ok(r), Ok(body)) if r.status == 200 && r.body == body.as_bytes() => {}
        _ => {
            report.fault("final groupby body differs from the scan path over all rows sent".into())
        }
    }
}

pub fn timed(cfg: &Cfg) -> Report {
    let mut report = Report::new();
    let started = Instant::now();
    let World { sut, inputs, .. } = setup(cfg);
    let first_setup_s = started.elapsed().as_secs_f64();
    let mixed = phase(&sut, &inputs.batches, cfg.scaled(BATCH_ROWS), false, None);
    let peak = harness::vm_hwm_mib();
    report.ensure(mixed.read_failures == 0, || {
        format!("{} reads failed", mixed.read_failures)
    });
    verify_final(
        &sut,
        &inputs.facts,
        inputs.facts.len(),
        mixed.total_rows,
        &mut report,
    );
    report.notes.push(format!(
        "{} reads between the appends, read p50 {:.0}us; final table {} rows; \
         {} appends found the index cold",
        mixed.reads_us.len(),
        median(&mixed.reads_us),
        mixed.total_rows,
        mixed.cold_acks
    ));
    sut.shutdown();
    drop(inputs);
    let more = cfg.more_setups();
    let setup_s = harness::median_setup_s(first_setup_s, more, || setup(cfg), |w| w.sut.shutdown());
    mixed.appends.end_to_end(&mut report, setup_s, peak);
    report
}

pub fn traced(cfg: &Cfg) -> Report {
    let mut report = Report::new();
    let rows = cfg.scaled(BATCH_ROWS);
    let inputs = prepare(cfg);
    let body_bytes = inputs.base_csv.len() as f64;

    // Set-up with the resident set sampled throughout the bulk upload.
    let rss_before = harness::vm_rss_bytes();
    let stop = AtomicBool::new(false);
    let (
        World {
            sut,
            inputs,
            upload,
        },
        rss_peak,
    ) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !stop.load(Ordering::SeqCst) {
                peak = peak.max(harness::vm_rss_bytes());
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        let world = load(inputs);
        stop.store(true, Ordering::SeqCst);
        (world, sampler.join().expect("rss sampler"))
    });
    report.set(
        "server.ingest.upload_mb_per_s",
        body_bytes / 1e6 / upload.as_secs_f64(),
    );
    report.set(
        "server.ingest.rss_ratio",
        (rss_peak - rss_before).max(0.0) / body_bytes,
    );

    // Over TCP: the first half of the batches, odd ones tagged; each read
    // is answered before the next append, as in the timed pass.
    let half = inputs.batches.len() / 2;
    let beside = half / 4;
    let before = sut.counters();
    let mut harvest = Harvest::new(0, 1);
    let mixed = phase(
        &sut,
        &inputs.batches[..half - beside],
        rows,
        false,
        Some(&mut harvest),
    );
    harness::traced_phase(&mixed.appends, &harvest, &mut report);
    report.ensure(mixed.read_failures == 0, || {
        format!("{} reads failed", mixed.read_failures)
    });
    report.set("client.read_p50_us", median(&mixed.reads_us));

    // The rest of that half with each read beside the next append: what the
    // timed pass avoids, counted (`server.ingest.cold_rebuilds`).
    let raced = phase(&sut, &inputs.batches[half - beside..half], rows, true, None);
    harness::cache_metrics(&sut.counters().since(&before), &mut report);
    report.attempted += raced.appends.attempted;
    report.failed += raced.appends.failed;
    report.ensure(raced.read_failures == 0, || {
        format!("{} reads beside appends failed", raced.read_failures)
    });
    report.notes.push(format!(
        "{} appends with the read beside the next one: append p50 {:.0}us, read p50 {:.0}us, \
         {} found the index cold",
        raced.appends.attempted,
        raced.appends.p50(),
        median(&raced.reads_us),
        raced.cold_acks
    ));

    // In process: each remaining batch goes through `Server::handle` on
    // the service and, at the same table size, through the public
    // functions an append is made of on a store beside it.
    let mut tracer = Tracer::new();
    let table = sut.endpoint("bench", "events").expect("endpoint exists");
    let store = Store::with_endpoint("bench", "events", table.clone());
    let mut warm = sut::index_build(&table);
    let mut current = table;
    // Per probe, replayed children over the enclosing call.
    let mut cover = Vec::new();
    let mut decoded_rows_per_s = Vec::new();
    let probes = if cfg.quick { 2 } else { 12 };
    for (b, csv) in inputs.batches[half..].iter().take(probes).enumerate() {
        let id = b as u32;
        let op = Op::send(Shape::Append, "POST", INGEST.to_string(), csv.clone());
        let request = sut::request_of(&op);
        let started = Instant::now();
        let response = tracer.time("server.router.handle_ingest", None, id, || {
            sut.handle(&request)
        });
        let enclosing = started.elapsed().as_secs_f64();
        report.ensure(
            sut::status_of(&response) == 200 && response.body.contains("\"merged\""),
            || format!("in-process append {b}: {}", response.body),
        );

        let replay = tracer.open("replay", None, id);
        let started = Instant::now();
        let delta = tracer.time("server.ingest.decode", Some(replay), id, || {
            sut::decode_csv(csv)
        });
        decoded_rows_per_s.push(rows as f64 / started.elapsed().as_secs_f64());
        let append = tracer.open("core.platform.append", Some(replay), id);
        let merged = store.append_endpoint("bench", "events", delta.clone());
        tracer.close(append);
        warm = tracer.time("tabular.index.append_merged", Some(replay), id, || {
            sut::append_merged(&warm, merged.clone())
        });
        cover.push(harness::ratio(started.elapsed().as_secs_f64(), enclosing));
        tracer.close(replay);
        // The suspected O(table) copy inside the append, on its own.
        std::hint::black_box(tracer.time("tabular.table.concat", None, id, || {
            sut::concat(&current, &delta)
        }));
        current = merged;
    }
    harness::span_medians(
        &tracer,
        &[
            "server.router.handle_ingest",
            "server.ingest.decode",
            "core.platform.append",
            "tabular.index.append_merged",
            "tabular.table.concat",
        ],
        &mut report,
    );
    report.set(
        "server.ingest.decode_rows_per_s",
        median(&decoded_rows_per_s),
    );
    report.set("bench.layer_cover_ratio", median(&cover));

    // The read side, in process on the final table.
    let [groupby, _] = read_ops(0);
    let read_ops = sut::path_ops(&groupby).expect("read parses");
    for _ in 0..5 {
        std::hint::black_box(tracer.time("server.query.indexed_groupby", None, 0, || {
            sut::run_indexed(&warm, &read_ops)
        }));
    }
    report.set(
        "server.query.indexed_groupby_us",
        tracer.median_us("server.query.indexed_groupby"),
    );
    report.notes.push(format!(
        "append: handle {:.0}us = decode {:.0}us + platform append {:.0}us (of which concat {:.0}us) \
         + index merge {:.0}us + residual",
        tracer.median_us("server.router.handle_ingest"),
        tracer.median_us("server.ingest.decode"),
        tracer.median_us("core.platform.append"),
        tracer.median_us("tabular.table.concat"),
        tracer.median_us("tabular.index.append_merged"),
    ));
    let held = sut.endpoint("bench", "events").map_or(0, |t| sut::rows(&t));
    let sent = cfg.scaled(BASE_ROWS) + (half + probes.min(inputs.batches.len() - half)) * rows;
    verify_final(&sut, &inputs.facts, sent, held as f64, &mut report);
    crate::write_trace("ingest_mixed", &tracer, &mut report);
    sut.shutdown();
    report
}
