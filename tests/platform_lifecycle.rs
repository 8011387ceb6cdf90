//! Platform-level lifecycle integration: many dashboards sharing one
//! platform, telemetry integrity, mode transitions, and the §4.5.3 flow
//! file group benefits exercised as one scenario.

use shareinsights::core::{Platform, RunKind};
use shareinsights::datagen::retail;
use shareinsights::tabular::io::csv::write_csv;
use shareinsights::tabular::Value;

const PRODUCER: &str = r#"
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
  brand_revenue:
    type: groupby
    groupby: [brand]
    aggregates:
    - operator: sum
      apply_on: revenue
      out_field: total_revenue
    - operator: sum
      apply_on: units
      out_field: total_units
  join_category:
    type: join
    left: brand_totals by brand
    right: products by brand
    join_condition: left outer
    project:
      brand_totals_brand: brand
      brand_totals_total_revenue: total_revenue
      brand_totals_total_units: total_units
      products_category: category
F:
  D.brand_totals: D.sales | T.brand_revenue
  +D.brand_catalog: (D.brand_totals, D.products) | T.join_category
  D.brand_catalog:
    publish: brand_catalog
"#;

const CONSUMER: &str = r#"
W:
  categories:
    type: List
    source: D.brand_catalog | T.cat_names
    text: category
  brand_pie:
    type: Pie
    source: D.brand_catalog | T.filter_by_category
    text: brand
    size: total_revenue
T:
  cat_names:
    type: distinct
    columns: [category]
  filter_by_category:
    type: filter_by
    filter_by: [category]
    filter_source: W.categories
    filter_val: [text]
L:
  description: Branderstanding
  rows:
  - [span3: W.categories, span9: W.brand_pie]
"#;

fn seeded_platform() -> Platform {
    let platform = Platform::new();
    let corpus = retail::generate(&retail::RetailConfig {
        transactions: 2_000,
        ..Default::default()
    });
    platform.upload_data("producer", "sales.csv", write_csv(&corpus.sales, ','));
    platform.upload_data("producer", "products.csv", write_csv(&corpus.products, ','));
    platform
}

#[test]
fn producer_consumer_lifecycle_with_telemetry() {
    let platform = seeded_platform();

    // Producer: data-processing mode.
    platform.save_flow("producer", PRODUCER).unwrap();
    assert!(platform
        .dashboard("producer")
        .unwrap()
        .is_data_processing_mode());
    let run = platform.run_dashboard("producer").unwrap();
    assert_eq!(run.published.len(), 1);
    let catalog_rows = run.result.table("brand_catalog").unwrap().num_rows();
    assert_eq!(catalog_rows, 12, "one row per brand");

    // Consumer: consumption mode, resolving the published object.
    platform.save_flow("consumer", CONSUMER).unwrap();
    assert!(platform
        .dashboard("consumer")
        .unwrap()
        .ast
        .is_consumption_mode());
    let dash = platform.open_dashboard("consumer").unwrap();
    let pie = dash.data_of("brand_pie").unwrap();
    assert_eq!(pie.num_rows(), catalog_rows);

    // Interaction narrows the pie to one category.
    dash.select("categories", "text", vec!["beverages".into()])
        .unwrap();
    let pie = dash.data_of("brand_pie").unwrap();
    assert!(pie.num_rows() < catalog_rows && pie.num_rows() > 0);
    for i in 0..pie.num_rows() {
        assert_eq!(pie.value(i, "category").unwrap().to_string(), "beverages");
    }

    // Telemetry recorded the whole session in order.
    let log = platform.log();
    assert_eq!(log.count("producer", RunKind::Save), 1);
    assert_eq!(log.count("producer", RunKind::Run), 1);
    assert_eq!(log.count("consumer", RunKind::Open), 1);
    let usage = log.usage();
    assert!(usage.operators.contains_key("groupby"));
    assert!(usage.widgets.contains_key("Pie"));
}

#[test]
fn consumer_sees_producer_refresh_without_rerunning_flows() {
    // §4.5.3 point 4: consumption dashboards iterate quickly because long
    // flows only run on the producer.
    let platform = seeded_platform();
    platform.save_flow("producer", PRODUCER).unwrap();
    platform.run_dashboard("producer").unwrap();
    platform.save_flow("consumer", CONSUMER).unwrap();

    let before = platform
        .open_dashboard("consumer")
        .unwrap()
        .data_of("brand_pie")
        .unwrap();

    // Producer's data shrinks to two brands; re-run refreshes the snapshot.
    platform.upload_data(
        "producer",
        "sales.csv",
        "date,brand,region,units,revenue\n2014-06-01,Acme Cola,north,3,4.5\n2014-06-02,Zest Tea,south,1,2.0\n",
    );
    platform.run_dashboard("producer").unwrap();

    // Editing the consumer triggers no batch work (it has no flows), yet
    // its view reflects the refreshed shared object.
    platform
        .save_flow("consumer", &format!("{CONSUMER}# tweaked\n"))
        .unwrap();
    let after = platform
        .open_dashboard("consumer")
        .unwrap()
        .data_of("brand_pie")
        .unwrap();
    assert!(before.num_rows() > after.num_rows());
    assert_eq!(after.num_rows(), 2);
}

#[test]
fn meta_and_discovery_close_the_loop() {
    let platform = seeded_platform();
    platform.save_flow("producer", PRODUCER).unwrap();
    platform.run_dashboard("producer").unwrap();

    // Meta-dashboard profiles all five materialised objects.
    let (meta, _) = platform.open_meta_dashboard("producer").unwrap();
    let objects: std::collections::BTreeSet<String> = (0..meta.profile.num_rows())
        .map(|i| meta.profile.value(i, "object").unwrap().to_string())
        .collect();
    for expected in ["sales", "products", "brand_totals", "brand_catalog"] {
        assert!(objects.contains(expected), "{objects:?}");
    }

    // A second dashboard with a 'brand' column discovers the catalog.
    platform.upload_data(
        "marketing",
        "spend.csv",
        "brand,channel,spend\nAcme Cola,tv,100\n",
    );
    platform
        .save_flow(
            "marketing",
            "D:\n  spend: [brand, channel, spend]\nD.spend:\n  source: 'spend.csv'\n  format: csv\nT:\n  t:\n    type: groupby\n    groupby: [brand]\n    aggregates:\n    - operator: sum\n      apply_on: spend\n      out_field: total_spend\nF:\n  +D.spend_by_brand: D.spend | T.t\n",
        )
        .unwrap();
    platform.run_dashboard("marketing").unwrap();
    let suggestions = platform
        .suggest_enrichments("marketing", "spend_by_brand")
        .unwrap();
    assert_eq!(suggestions.len(), 1);
    assert_eq!(suggestions[0].publish_name, "brand_catalog");
    assert!(suggestions[0].join_keys.contains(&"brand".to_string()));
    assert!(
        suggestions[0].key_is_unique,
        "brand is unique in the catalog"
    );
}

#[test]
fn failed_runs_keep_prior_endpoints_intact() {
    let platform = seeded_platform();
    platform.save_flow("producer", PRODUCER).unwrap();
    platform.run_dashboard("producer").unwrap();
    let good_rows = platform
        .dashboard("producer")
        .unwrap()
        .endpoint_tables
        .get("brand_catalog")
        .unwrap()
        .num_rows();

    // Break the data source so the next run fails at load time.
    platform.upload_data(
        "producer",
        "sales.csv",
        "not,a,matching\nheader,count,x,y\n",
    );
    let err = platform.run_dashboard("producer").unwrap_err();
    assert!(err.to_string().contains("sales"), "{err}");

    // The previously materialised endpoint survives for consumers.
    let still = platform
        .dashboard("producer")
        .unwrap()
        .endpoint_tables
        .get("brand_catalog")
        .unwrap()
        .num_rows();
    assert_eq!(still, good_rows);
    // And the failure is in the telemetry error log.
    assert!(platform
        .log()
        .errors()
        .iter()
        .any(|(d, m)| d == "producer" && m.contains("sales")));
}

#[test]
fn many_dashboards_coexist() {
    let platform = seeded_platform();
    platform.save_flow("producer", PRODUCER).unwrap();
    platform.run_dashboard("producer").unwrap();

    // A fork inherits the producer's `publish:` line, so running it
    // verbatim collides with the original's shared-object name — the
    // registry rejects it cleanly instead of silently hijacking.
    platform
        .fork_dashboard("producer", "team_0", "bot")
        .unwrap();
    let err = platform.run_dashboard("team_0").unwrap_err();
    assert!(
        err.to_string().contains("already published"),
        "publish collision surfaces cleanly: {err}"
    );

    // Twenty forks, each independently runnable after dropping the publish
    // (the flows and endpoints are otherwise identical).
    let unpublished = PRODUCER.replace("  D.brand_catalog:\n    publish: brand_catalog\n", "");
    for i in 0..20 {
        let name = format!("team_{i}");
        if i > 0 {
            platform.fork_dashboard("producer", &name, "bot").unwrap();
        }
        platform.save_flow(&name, &unpublished).unwrap();
        let run = platform.run_dashboard(&name).unwrap();
        assert_eq!(
            run.result.table("brand_catalog").unwrap().num_rows(),
            12,
            "{name}"
        );
    }
    assert_eq!(platform.dashboard_names().len(), 21);
}

#[test]
fn value_semantics_survive_the_whole_stack() {
    // A float revenue aggregated through the full stack keeps numeric
    // identity from CSV text to the REST JSON.
    let platform = Platform::new();
    platform.upload_data(
        "p",
        "sales.csv",
        "brand,revenue\nacme,0.125\nacme,0.25\nzest,1.5\n",
    );
    platform
        .save_flow(
            "p",
            "D:\n  sales: [brand, revenue]\nD.sales:\n  source: 'sales.csv'\n  format: csv\nT:\n  t:\n    type: groupby\n    groupby: [brand]\n    aggregates:\n    - operator: sum\n      apply_on: revenue\n      out_field: total\nF:\n  +D.out: D.sales | T.t\n",
        )
        .unwrap();
    let run = platform.run_dashboard("p").unwrap();
    let t = run.result.table("out").unwrap();
    assert_eq!(t.value(0, "total").unwrap(), Value::Float(0.375));

    use shareinsights::server::{Request, Server};
    let server = Server::new(platform);
    let r = server.handle(&Request::get("/p/ds/out/filter/brand/acme"));
    let doc = shareinsights::tabular::io::json::parse_json(&r.body).unwrap();
    assert_eq!(
        doc.path("rows.0.1").unwrap().to_value().as_float(),
        Some(0.375)
    );
}

// ---------------------------------------------------------------------------
// Sources are decoded once per upload
// ---------------------------------------------------------------------------

const TOTALS: &str = r#"
D:
  sales: [brand, units]
D.sales:
  source: 'sales.csv'
  format: csv
T:
  per_brand:
    type: groupby
    groupby: [brand]
    aggregates:
    - operator: sum
      apply_on: units
      out_field: units
F:
  +D.totals: D.sales | T.per_brand
"#;

/// Run `dashboard`; its `totals` rows and whether the `sales` load was a
/// memo hit.
fn run_totals(platform: &Platform, dashboard: &str) -> (Vec<(String, i64)>, bool) {
    let report = platform.run_dashboard(dashboard).unwrap();
    let totals = report.result.table("totals").unwrap();
    let rows = (0..totals.num_rows())
        .map(|i| {
            let units = totals.value(i, "units").unwrap().as_int().unwrap();
            (totals.value(i, "brand").unwrap().to_string(), units)
        })
        .collect();
    let load = &report.result.stats.source_loads[0];
    assert_eq!(load.source, "sales");
    assert!(load.version.is_some(), "an uploaded file names its version");
    (rows, load.memo_hit)
}

#[test]
fn a_source_is_decoded_once_per_upload() {
    let platform = Platform::new();
    platform.create_dashboard("a").unwrap();
    platform.save_flow("a", TOTALS).unwrap();
    platform.upload_data("a", "sales.csv", "brand,units\nacme,1\nacme,2\nzeta,5\n");
    let first: Vec<(String, i64)> = vec![("acme".into(), 3), ("zeta".into(), 5)];

    // The first run decodes; re-running — an edited flow or not — does not.
    assert_eq!(run_totals(&platform, "a"), (first.clone(), false));
    assert_eq!(run_totals(&platform, "a"), (first.clone(), true));
    platform
        .save_flow(
            "a",
            &TOTALS.replace("out_field: units", "out_field:  units"),
        )
        .unwrap();
    assert_eq!(run_totals(&platform, "a"), (first.clone(), true));

    // Other rows under the same path: the next run serves them.
    platform.upload_data("a", "sales.csv", "brand,units\nacme,10\nnova,7\n");
    let second: Vec<(String, i64)> = vec![("acme".into(), 10), ("nova".into(), 7)];
    assert_eq!(run_totals(&platform, "a"), (second.clone(), false));
    assert_eq!(run_totals(&platform, "a"), (second.clone(), true));

    // The very same bytes again are a new upload: one decode, then hits.
    platform.upload_data("a", "sales.csv", "brand,units\nacme,10\nnova,7\n");
    assert_eq!(run_totals(&platform, "a"), (second.clone(), false));
    assert_eq!(run_totals(&platform, "a"), (second, true));
}

#[test]
fn dashboards_with_the_same_relative_path_do_not_share_a_decode() {
    let platform = Platform::new();
    for (dashboard, csv) in [
        ("a", "brand,units\nacme,1\n"),
        ("b", "brand,units\nzeta,9\n"),
    ] {
        platform.create_dashboard(dashboard).unwrap();
        platform.save_flow(dashboard, TOTALS).unwrap();
        platform.upload_data(dashboard, "sales.csv", csv);
    }
    assert_eq!(
        run_totals(&platform, "a"),
        (vec![("acme".into(), 1)], false)
    );
    assert_eq!(
        run_totals(&platform, "b"),
        (vec![("zeta".into(), 9)], false)
    );
    assert_eq!(run_totals(&platform, "a"), (vec![("acme".into(), 1)], true));
    assert_eq!(run_totals(&platform, "b"), (vec![("zeta".into(), 9)], true));
}
