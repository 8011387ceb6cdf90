//! The retail author flow — the shape of the benchmark's `pipeline_run`
//! cycle: filter → map(date) → join → two group-bys → top-n, with widget
//! and layout sections — and the retail corpus it reads.

use shareinsights::datagen::retail;
use shareinsights::tabular::io::csv::write_csv;

/// `@MIN_UNITS@` is the constant the author edits.
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

/// The three endpoints, in the order the author pages them.
pub const ENDPOINTS: [&str; 3] = ["month_category", "brand_region", "top_brands"];

/// The flow with the filter's threshold set to `min_units`.
pub fn flow(min_units: usize) -> String {
    FLOW.replace("@MIN_UNITS@", &min_units.to_string())
}

/// `(sales.csv, products.csv)` of a seeded retail corpus.
pub fn sources(seed: u64, transactions: usize) -> (String, String) {
    let corpus = retail::generate(&retail::RetailConfig {
        seed,
        transactions,
        ..Default::default()
    });
    (
        write_csv(&corpus.sales, ','),
        write_csv(&corpus.products, ','),
    )
}
