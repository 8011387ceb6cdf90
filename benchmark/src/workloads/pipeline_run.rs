//! `pipeline_run`: the paper's core path. One connection repeats an
//! author cycle — save one of two variants of a flow file, run it, fetch
//! the first page of each of its three endpoints — so parse, validate,
//! compile, CSV decode, execution and publish do all the work.

use crate::gen::{self, Op, Shape};
use crate::harness::{self, Cfg, Harvest, PhaseLog, Report};
use crate::http::Conn;
use crate::stats::{fnv1a, median};
use crate::sut::{self, Mode, Sut};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

const TRANSACTIONS: usize = 20_000;
const DASHBOARD: &str = "b";
const ENDPOINTS: [&str; 3] = ["month_category", "brand_region", "top_brands"];
const PAGE: usize = 50;

/// filter → map(date) → join → groupby → topn, with widget and layout
/// sections; `@MIN_UNITS@` is the constant the two variants differ in.
const FLOW: &str = r#"
D:
  sales: [date, brand, region, units, revenue]
  products: [brand, category, unit_price]
D.sales:
  source: 'sales.csv'
  format: csv
D.products:
  source: 'products.csv'
  format: csv
T:
  big_baskets:
    type: filter_by
    filter_expression: units >= @MIN_UNITS@
  to_month:
    type: map
    operator: date
    transform: date
    input_format: yyyy-MM-dd
    output_format: yyyy-MM
    output: month
  with_category:
    type: join
    left: recent by brand
    right: products by brand
    join_condition: inner
    project:
      recent_month: month
      recent_region: region
      recent_brand: brand
      recent_units: units
      recent_revenue: revenue
      products_category: category
  by_month_category:
    type: groupby
    groupby: [month, category]
    aggregates:
    - operator: sum
      apply_on: revenue
      out_field: revenue
    - operator: sum
      apply_on: units
      out_field: units
  by_brand_region:
    type: groupby
    groupby: [brand, region]
    aggregates:
    - operator: sum
      apply_on: revenue
      out_field: revenue
  top_brands:
    type: topn
    groupby: [region]
    orderby_column: [revenue DESC]
    limit: 3
  cat_names:
    type: distinct
    columns: [category]
  filter_by_category:
    type: filter_by
    filter_by: [category]
    filter_source: W.categories
    filter_val: [text]
F:
  D.recent: D.sales | T.big_baskets | T.to_month
  D.enriched: (D.recent, D.products) | T.with_category
  +D.month_category: D.enriched | T.by_month_category
  +D.brand_region: D.enriched | T.by_brand_region
  +D.top_brands: D.brand_region | T.top_brands
W:
  categories:
    type: List
    source: D.month_category | T.cat_names
    text: category
  monthly:
    type: Bar
    source: D.month_category | T.filter_by_category
    x: month
    y: revenue
L:
  description: Retail author cycle
  rows:
  - [span3: W.categories, span9: W.monthly]
"#;

struct Inputs {
    sales: String,
    products: String,
    /// The two flow-file variants the author alternates between.
    flows: [String; 2],
}

fn prepare(cfg: &Cfg) -> Inputs {
    let (sales, products) = sut::retail_sources(cfg.seed, cfg.scaled(TRANSACTIONS));
    let flows = [3, 4].map(|min| FLOW.replace("@MIN_UNITS@", &min.to_string()));
    Inputs {
        sales,
        products,
        flows,
    }
}

/// The five requests of author cycle `i`.
fn cycle_ops(inputs: &Inputs, i: usize) -> Vec<Op> {
    let mut ops = vec![
        Op::send(
            Shape::SaveFlow,
            "PUT",
            format!("/dashboards/{DASHBOARD}/flow"),
            inputs.flows[i % 2].clone(),
        ),
        Op::send(
            Shape::Run,
            "POST",
            format!("/dashboards/{DASHBOARD}/run"),
            String::new(),
        ),
    ];
    for endpoint in ENDPOINTS {
        ops.push(Op::get(
            Shape::Page,
            format!("/{DASHBOARD}/ds/{endpoint}?limit={PAGE}"),
        ));
    }
    ops
}

struct World {
    sut: Sut,
    inputs: Inputs,
}

/// Set-up: generate the sources, start the service, upload them and run
/// one cycle.
fn setup(cfg: &Cfg) -> World {
    let inputs = prepare(cfg);
    let sut = Sut::start(Mode::Reactor).expect("service starts");
    sut.upload_source(DASHBOARD, "sales.csv", &inputs.sales);
    sut.upload_source(DASHBOARD, "products.csv", &inputs.products);
    let mut conn = Conn::new(sut.addr());
    for op in cycle_ops(&inputs, 0) {
        let reply = conn.send(&op.wire(None)).expect("warm-up cycle");
        assert_eq!(
            reply.status,
            200,
            "warm-up {} {}: {}",
            op.method,
            op.target,
            String::from_utf8_lossy(&reply.body)
        );
    }
    World { sut, inputs }
}

/// The reference: for each variant, the three endpoint pages as the
/// sequential executor computes them. Returns `expect[variant][endpoint]`.
fn expected_pages(sut: &Sut, inputs: &Inputs, report: &mut Report) -> [[u64; 3]; 2] {
    let mut conn = Conn::new(sut.addr());
    let mut expect = [[0u64; 3]; 2];
    for (variant, pages) in expect.iter_mut().enumerate() {
        let save = &cycle_ops(inputs, variant)[0];
        let saved = conn.send(&save.wire(None));
        report.ensure(harness::ok_hash(&saved).is_some(), || {
            format!("saving variant {variant} failed")
        });
        let tables: BTreeMap<String, sut::Table> = sut
            .execute(&sut.compile(DASHBOARD), true)
            .into_iter()
            .collect();
        for (slot, endpoint) in ENDPOINTS.iter().enumerate() {
            match tables.get(*endpoint) {
                Some(t) => pages[slot] = fnv1a(sut::page_json(t, PAGE).as_bytes()),
                None => report.fault(format!("sequential run lacks endpoint {endpoint}")),
            }
        }
    }
    report.ensure(expect[0] != expect[1], || {
        "the two flow variants give equal pages".into()
    });
    expect
}

/// Author cycles from index `from` until `seconds` have passed.
fn phase(
    sut: &Sut,
    inputs: &Inputs,
    expect: &[[u64; 3]; 2],
    from: usize,
    seconds: f64,
    mut harvest: Option<&mut Harvest>,
) -> (PhaseLog, usize) {
    let mut conn = Conn::new(sut.addr());
    let mut log = PhaseLog::new(4_096);
    let started = Instant::now();
    let until = harness::deadline(seconds);
    let mut i = from;
    while Instant::now() < until {
        // Tag cycles in pairs, so that both flow variants are tagged.
        let tagged = harvest.is_some() && i / 2 % 2 == 1;
        let ops = cycle_ops(inputs, i);
        let mut times = Vec::with_capacity(ops.len());
        let mut ok = true;
        for (slot, op) in ops.iter().enumerate() {
            let (us, reply) = match harvest.as_deref_mut().filter(|_| tagged) {
                Some(h) => h.send(&mut conn, op),
                None => harness::timed_send(&mut conn, &op.wire(None)),
            };
            let hash = harness::ok_hash(&reply);
            ok &= match slot {
                0 | 1 => hash.is_some(),
                page => hash == Some(expect[i % 2][page - 2]),
            };
            times.push(us);
        }
        for (op, us) in ops.iter().zip(&times) {
            log.request(op.shape, *us);
        }
        log.op(ok.then_some(times.iter().sum()), tagged);
        i += 1;
    }
    log.finish(started, conn.reconnects);
    (log, i)
}

pub fn timed(cfg: &Cfg) -> Report {
    let mut report = Report::new();
    let started = Instant::now();
    let World { sut, inputs } = setup(cfg);
    let first_setup_s = started.elapsed().as_secs_f64();
    let expect = expected_pages(&sut, &inputs, &mut report);
    let (log, cycles) = phase(&sut, &inputs, &expect, 0, cfg.seconds, None);
    let peak = harness::vm_hwm_mib();
    report.notes.push(format!(
        "op list hash {:016x}; {cycles} cycles; p50 save {:.0}us run {:.0}us page {:.0}us",
        gen::ops_hash(&[cycle_ops(&inputs, 0), cycle_ops(&inputs, 1)].concat()),
        log.shape_p50(Shape::SaveFlow),
        log.shape_p50(Shape::Run),
        log.shape_p50(Shape::Page),
    ));
    sut.shutdown();
    let more = cfg.more_setups();
    let setup_s = harness::median_setup_s(first_setup_s, more, || setup(cfg), |w| w.sut.shutdown());
    log.end_to_end(&mut report, setup_s, peak);
    report
}

pub fn traced(cfg: &Cfg) -> Report {
    let mut report = Report::new();
    let World { sut, inputs } = setup(cfg);
    let expect = expected_pages(&sut, &inputs, &mut report);

    let mut harvest = Harvest::new(0, 3);
    let (log, next) = phase(
        &sut,
        &inputs,
        &expect,
        0,
        cfg.seconds * 0.6,
        Some(&mut harvest),
    );
    harness::traced_phase(&log, &harvest, &mut report);

    // The budget of one author cycle, in process.
    let mut tracer = Tracer::new();
    let probes = if cfg.quick { 2 } else { 16 };
    // Per probe, replayed children over the enclosing call.
    let mut cover = Vec::new();
    let mut by_task: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut rows_in, mut rows_out, mut serialise, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in next..next + probes {
        let id = i as u32;
        let ops = cycle_ops(&inputs, i);
        let root = tracer.open("op", None, id);
        let flow = tracer.time("flowfile.parse", Some(root), id, || {
            sut::parse_flow(DASHBOARD, &ops[0].body)
        });
        tracer.time("flowfile.validate", Some(root), id, || {
            sut::validate_flow(&flow)
        });
        let saved = sut.handle(&sut::request_of(&ops[0]));
        report.ensure(sut::status_of(&saved) == 200, || {
            format!("in-process save {i} failed")
        });

        let started = Instant::now();
        let stats = tracer.time("core.platform.run", Some(root), id, || {
            sut.run_dashboard(DASHBOARD)
        });
        let enclosing = started.elapsed().as_secs_f64();
        for (slot, endpoint) in ENDPOINTS.iter().enumerate() {
            let table = stats
                .endpoints
                .iter()
                .find(|(n, _)| n == endpoint)
                .map(|(_, t)| t);
            let page = table.map(|t| {
                let started = Instant::now();
                let body = tracer.time("server.json.serialise", Some(root), id, || {
                    sut::page_json(t, PAGE)
                });
                serialise.push(started.elapsed().as_secs_f64() * 1e6);
                bytes.push(body.len() as f64);
                fnv1a(body.as_bytes())
            });
            report.ensure(page == Some(expect[i % 2][slot]), || {
                format!("default executor disagrees with the sequential one on {endpoint}")
            });
        }
        for (task, us, r_in, r_out) in &stats.tasks {
            by_task.entry(task.clone()).or_default().push(*us as f64);
            rows_in.push(*r_in as f64);
            rows_out.push(*r_out as f64);
        }

        let replay = tracer.open("replay", Some(root), id);
        let started = Instant::now();
        let pipeline = tracer.time("engine.compile", Some(replay), id, || {
            sut.compile(DASHBOARD)
        });
        std::hint::black_box(tracer.time("engine.exec", Some(replay), id, || {
            sut.execute(&pipeline, false)
        }));
        cover.push(harness::ratio(started.elapsed().as_secs_f64(), enclosing));
        tracer.close(replay);
        tracer.close(root);
        // Bases, outside the replayed budget: the connector decode that
        // execution contains, and the single-thread executor.
        std::hint::black_box(tracer.time("connectors.csv_decode", None, id, || {
            sut.load_sources(&pipeline)
        }));
        std::hint::black_box(
            tracer.time("engine.exec_seq", None, id, || sut.execute(&pipeline, true)),
        );
    }
    harness::span_medians(
        &tracer,
        &[
            "flowfile.parse",
            "flowfile.validate",
            "engine.compile",
            "connectors.csv_decode",
            "engine.exec",
            "engine.exec_seq",
            "core.platform.run",
        ],
        &mut report,
    );
    report.set(
        "core.platform.run_residual_us",
        tracer.median_us("core.platform.run")
            - tracer.median_us("engine.compile")
            - tracer.median_us("engine.exec"),
    );
    // A cycle runs several tasks of one type; report the per-cycle sum.
    let per_cycle = |task: &str| {
        by_task
            .get(task)
            .map_or(0.0, |us| us.iter().sum::<f64>() / probes as f64)
    };
    report.set("engine.op.filter_us", per_cycle("filter_by"));
    report.set("engine.op.map_us", per_cycle("map"));
    report.set("engine.op.join_us", per_cycle("join"));
    report.set("engine.op.groupby_us", per_cycle("groupby"));
    report.set("engine.op.topn_us", per_cycle("topn"));
    report.set(
        "engine.op.rows_in",
        rows_in.iter().sum::<f64>() / probes as f64,
    );
    report.set(
        "engine.op.rows_out",
        rows_out.iter().sum::<f64>() / probes as f64,
    );
    report.set("server.json.serialise_us", median(&serialise));
    report.set("server.json.body_bytes", median(&bytes));
    report.set("bench.layer_cover_ratio", median(&cover));

    // The interactive context on the run's output: a selection the cube
    // has not seen, then the same selection again.
    let runtime = sut.open_dashboard(DASHBOARD);
    for category in ["beverages", "breakfast", "household", "personal-care"] {
        for span in ["widgets.cube.eval_miss", "widgets.cube.eval_hit"] {
            let shown = tracer.time(span, None, 0, || {
                sut::select_and_read(&runtime, "categories", "text", category, "monthly")
            });
            report.ensure(shown > 0, || format!("selecting {category} shows no rows"));
        }
    }
    harness::span_medians(
        &tracer,
        &["widgets.cube.eval_miss", "widgets.cube.eval_hit"],
        &mut report,
    );
    report.notes.push(format!(
        "run {:.0}us = compile {:.0}us + exec {:.0}us (csv decode {:.0}us inside; sequential exec {:.0}us) + residual",
        tracer.median_us("core.platform.run"),
        tracer.median_us("engine.compile"),
        tracer.median_us("engine.exec"),
        tracer.median_us("connectors.csv_decode"),
        tracer.median_us("engine.exec_seq"),
    ));
    crate::write_trace("pipeline_run", &tracer, &mut report);
    sut.shutdown();
    report
}
