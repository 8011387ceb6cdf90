//! The paper's §3 use case: the Apache open-source project analysis
//! dashboard (figure 3).
//!
//! Reproduces the full story:
//! * data from bug tickets, commit history, Stack Overflow traffic and
//!   releases (synthetic, via `shareinsights-datagen`);
//! * a *custom widget* — the weight sliders that set the project activity
//!   index (§3.5: "a custom widget — written using the platform extension
//!   APIs") — implemented through the Widgets extension trait plus a custom
//!   scalar operator computing the weighted index;
//! * widget-to-widget interaction: selecting a project bubble filters the
//!   detail grid (figure 13), expressed as a flow, no event handlers;
//! * the 12-column layout solved for desktop and mobile viewports (§4.1's
//!   operating-environment constraints).
//!
//! Run with: `cargo run --example apache_dashboard`

use shareinsights::core::Platform;
use shareinsights::datagen::apache;
use shareinsights::engine::ext::FnTask;
use shareinsights::flowfile::ast::WidgetDef;
use shareinsights::layout::{solve, Viewport};
use shareinsights::tabular::io::csv::write_csv;
use shareinsights::tabular::{Column, Schema, Table, Value};
use shareinsights::widgets::{RenderNode, WidgetFactory, WidgetRegistry};
use std::sync::Arc;

/// The custom weight-slider widget from figure 3's top row.
struct WeightSliders;

impl WidgetFactory for WeightSliders {
    fn type_name(&self) -> &str {
        "WeightSliders"
    }

    fn validate(
        &self,
        def: &WidgetDef,
        _schema: Option<&Schema>,
    ) -> shareinsights::widgets::Result<()> {
        if def.params.get("weights").is_none() {
            return Err(shareinsights::widgets::WidgetError::Invalid(format!(
                "widget '{}': WeightSliders needs 'weights:'",
                def.name
            )));
        }
        Ok(())
    }

    fn render(&self, def: &WidgetDef, _table: &Table) -> RenderNode {
        let weights = def
            .params
            .get("weights")
            .map(|v| v.scalar_items().join(" | "))
            .unwrap_or_default();
        RenderNode::leaf(
            &def.name,
            "WeightSliders",
            vec![format!(
                "[checkins]==[bugs]==[contributors]==[releases]  ({weights})"
            )],
        )
    }
}

const FLOW: &str = r#"
D:
  svn_jira_summary: [project, year, noOfBugs, noOfCheckins, noOfEmailsTotal]
  releases: [project, year, releases]
  contributors: [project, contributors]
  categories: [project, technology]

D.svn_jira_summary:
  source: 'svn_jira.csv'
  format: csv
D.releases:
  source: 'releases.csv'
  format: csv
D.contributors:
  source: 'contributors.csv'
  format: csv
D.categories:
  source: 'categories.csv'
  format: csv

T:
  get_svn_jira_count:
    type: groupby
    groupby: [project]
    aggregates:
    - operator: sum
      apply_on: noOfCheckins
      out_field: total_checkins
    - operator: sum
      apply_on: noOfBugs
      out_field: total_jira
  total_releases:
    type: groupby
    groupby: [project]
    aggregates:
    - operator: sum
      apply_on: releases
      out_field: total_releases
  join_releases:
    type: join
    left: checkin_jira by project
    right: temp_release_count by project
    join_condition: left outer
    project:
      checkin_jira_project: project
      checkin_jira_total_checkins: total_checkins
      checkin_jira_total_jira: total_jira
      temp_release_count_total_releases: total_releases
  join_contributors:
    type: join
    left: project_stats by project
    right: contributors by project
    join_condition: left outer
    project:
      project_stats_project: project
      project_stats_total_checkins: total_checkins
      project_stats_total_jira: total_jira
      project_stats_total_releases: total_releases
      contributors_contributors: contributors
  join_categories:
    type: join
    left: project_enriched by project
    right: categories by project
    join_condition: left outer
    project:
      project_enriched_project: project
      project_enriched_total_checkins: total_checkins
      project_enriched_total_jira: total_jira
      project_enriched_total_releases: total_releases
      project_enriched_contributors: contributors
      categories_technology: technology
  activity_index:
    type: map
    operator: weighted_index
    transform: project
    output: total_wt

F:
  D.checkin_jira: D.svn_jira_summary | T.get_svn_jira_count
  D.temp_release_count: D.releases | T.total_releases
  D.project_stats: (D.checkin_jira, D.temp_release_count) | T.join_releases
  D.project_enriched: (D.project_stats, D.contributors) | T.join_contributors
  +D.project_data: (D.project_enriched, D.categories) | T.join_categories

W:
  apache_custom_widget:
    type: WeightSliders
    weights: [checkins=2, bugs=1, contributors=1, releases=1]

  project_category_bubble:
    type: BubbleChart
    source: D.project_data | T.compute_index
    text: project
    size: total_wt
    legend_text: technology
    default_selection: true
    default_selection_key: text
    default_selection_value: 'pig'

  project_details:
    type: DataGrid
    source: D.project_data | T.filter_projects

T:
  compute_index:
    type: activity_index_task
  filter_projects:
    type: filter_by
    filter_by: [project]
    filter_source: W.project_category_bubble
    filter_val: [text]

L:
  description: Apache Project Analysis
  rows:
  - [span12: W.apache_custom_widget]
  - [span5: W.project_category_bubble, span7: W.project_details]
"#;

fn main() {
    let platform = Platform::new();

    // --- seed data --------------------------------------------------------
    let corpus = apache::generate(&apache::ApacheConfig::default());
    platform.upload_data(
        "apache",
        "svn_jira.csv",
        write_csv(&corpus.svn_jira_summary, ','),
    );
    platform.upload_data("apache", "releases.csv", write_csv(&corpus.releases, ','));
    platform.upload_data(
        "apache",
        "contributors.csv",
        write_csv(&corpus.contributors, ','),
    );
    platform.upload_data(
        "apache",
        "categories.csv",
        write_csv(&corpus.categories, ','),
    );

    // --- extensions: the activity-index task and the custom widget --------
    // Weights from the custom widget's sliders (the §3 "tweak the weightage
    // given to each of the four parameters").
    let weights = (2.0f64, 1.0f64, 1.0f64, 1.0f64); // checkins, bugs, contributors, releases
    platform.tasks().register_task(Arc::new(FnTask::new(
        "activity_index_task",
        |s: &Schema| {
            s.with_field(shareinsights::tabular::Field::new(
                "total_wt",
                shareinsights::tabular::DataType::Float64,
            ))
            .map_err(|e| shareinsights::engine::EngineError::Internal(e.to_string()))
        },
        move |t: &Table| {
            let num = |col: &str, i: usize| -> f64 {
                t.column(col)
                    .ok()
                    .and_then(|c| c.value(i).as_float())
                    .unwrap_or(0.0)
            };
            let vals: Vec<Value> = (0..t.num_rows())
                .map(|i| {
                    let idx = weights.0 * num("total_checkins", i)
                        + weights.1 * num("total_jira", i)
                        + weights.2 * num("contributors", i)
                        + weights.3 * num("total_releases", i);
                    Value::Float((idx / 100.0).round())
                })
                .collect();
            t.with_column("total_wt", Column::from_values(&vals))
                .map_err(|e| shareinsights::engine::ext::exec_err("activity_index_task", e))
        },
    )));
    let widget_registry: &WidgetRegistry = platform.widgets();
    widget_registry.register(Arc::new(WeightSliders));

    // --- save, run, open ---------------------------------------------------
    platform.save_flow("apache", FLOW).expect("valid flow file");
    let run = platform.run_dashboard("apache").expect("pipeline runs");
    println!(
        "pipeline: {} source rows, {} flows, endpoint bytes {}",
        run.result.stats.source_rows,
        run.result.stats.rows_out.len(),
        run.result.stats.endpoint_bytes
    );

    let dash = platform.open_dashboard("apache").expect("dashboard opens");
    println!("\n--- initial render (no selection) ---");
    println!("{}", dash.render(8).unwrap());

    // --- figure 13: selecting a project updates the details ---------------
    dash.select("project_category_bubble", "text", vec!["spark".into()])
        .unwrap();
    println!("--- after selecting the 'spark' bubble ---");
    println!("{}", dash.render_widget("project_details", 5).unwrap());

    dash.select("project_category_bubble", "text", vec!["kafka".into()])
        .unwrap();
    println!("--- after selecting the 'kafka' bubble ---");
    println!("{}", dash.render_widget("project_details", 5).unwrap());

    // --- layout: desktop vs mobile (§4.1 constraints) ----------------------
    let layout = platform
        .dashboard("apache")
        .unwrap()
        .ast
        .layout
        .clone()
        .expect("has layout");
    println!(
        "--- wireframe ---\n{}",
        shareinsights::layout::wireframe(&layout)
    );
    let desktop = solve(&layout, &Viewport::desktop()).unwrap();
    let mobile = solve(&layout, &Viewport::mobile()).unwrap();
    println!("desktop placements:");
    for p in &desktop {
        println!(
            "  {:<28} x={:<5} y={:<5} {}x{}",
            p.widget, p.x, p.y, p.width, p.height
        );
    }
    println!(
        "mobile collapses to {} stacked full-width cells",
        mobile.len()
    );
}
