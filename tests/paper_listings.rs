//! Fidelity tests: the paper's own flow-file listings (figures 4–16 and the
//! full appendix A.1/A.2) parse, validate and — where data is available —
//! compile and run.

use shareinsights::core::Platform;
use shareinsights::datagen::ipl;
use shareinsights::flowfile::validate::{is_valid, validate_with, ValidateOptions};
use shareinsights::flowfile::{parse_flow_file, validate};
use shareinsights::tabular::io::csv::write_csv;

/// Figures 4+5: data source configuration and schema.
#[test]
fn figure_4_5_data_source() {
    let src = r#"
D:
  stack_summary: [project, question, answer, tags]
D.stack_summary:
  separator: ','
  source: 'stackoverflow.csv'
  format: 'csv'
"#;
    let ff = parse_flow_file("apache", src).unwrap();
    let d = ff.data_object("stack_summary").unwrap();
    assert_eq!(
        d.column_names(),
        vec!["project", "question", "answer", "tags"]
    );
    assert_eq!(d.props.get_scalar("format"), Some("csv"));
}

/// Figure 6: configure data source with provider APIs.
#[test]
fn figure_6_provider_api() {
    let src = r#"
D:
  stack_questions: [
    question => title,
    tags => tags,
  ]
D.stack_questions:
  source: https://api.stackexchange.com/2.2/questions?order=desc&sort=activity&site=stackoverflow
  protocol: http
  format: json
  request_type: get
  http_headers:
    X-Access-Key: XXX
"#;
    let ff = parse_flow_file("apache", src).unwrap();
    let d = ff.data_object("stack_questions").unwrap();
    assert_eq!(d.columns[0].path.as_deref(), Some("title"));
    assert!(d
        .props
        .get("http_headers")
        .and_then(|v| v.as_map())
        .and_then(|m| m.get_scalar("X-Access-Key"))
        .is_some());
}

/// Figure 7: filter task.
#[test]
fn figure_7_filter_task() {
    let src = "T:\n  classification:\n    type: filter_by\n    filter_expression: rating < 3\n";
    let ff = parse_flow_file("t", src).unwrap();
    assert_eq!(ff.task("classification").unwrap().task_type, "filter_by");
}

/// Figure 8: the svn/jira groupby flow, run end to end.
#[test]
fn figure_8_flow_runs() {
    let src = r#"
D:
  svn_jira_summary: [project, year, noOfBugs, noOfCheckins, noOfEmailsTotal]
  checkin_jira_emails: [project, year, total_checkins, total_jira, total_emails]
D.svn_jira_summary:
  source: 'svn_jira.csv'
  format: csv
F:
  D.checkin_jira_emails: D.svn_jira_summary | T.get_svn_jira_count
D.checkin_jira_emails:
  endpoint: true
T:
  get_svn_jira_count:
    type: groupby
    groupby: [project, year]
    aggregates:
    - operator: sum
      apply_on: noOfCheckins
      out_field: total_checkins
    - operator: sum
      apply_on: noOfBugs
      out_field: total_jira
    - operator: sum
      apply_on: noOfEmailsTotal
      out_field: total_emails
"#;
    let platform = Platform::new();
    platform.upload_data(
        "apache",
        "svn_jira.csv",
        "project,year,noOfBugs,noOfCheckins,noOfEmailsTotal\npig,2013,5,100,900\npig,2013,2,60,100\nhive,2014,1,30,50\n",
    );
    platform.save_flow("apache", src).unwrap();
    let run = platform.run_dashboard("apache").unwrap();
    let t = run.result.table("checkin_jira_emails").unwrap();
    assert_eq!(t.num_rows(), 2);
    assert_eq!(t.value(0, "total_emails").unwrap().as_int(), Some(1000));
}

/// Figure 9: the `+` endpoint alias.
#[test]
fn figure_9_endpoint_alias() {
    let src = "D:\n  svn_jira_summary: [a]\nT:\n  get_svn_jira_count:\n    type: groupby\n    groupby: [a]\nF:\n  +D.checkin_jira_emails:\n    D.svn_jira_summary | T.get_svn_jira_count\n";
    let ff = parse_flow_file("t", src).unwrap();
    assert!(ff.flows[0].endpoint_alias);
    assert!(ff.endpoint_objects().contains(&"checkin_jira_emails"));
}

/// Figure 11: intermediate data objects chain flows.
#[test]
fn figure_11_intermediate_objects() {
    let src = r#"
D:
  releases: [project, releases]
  stack_summary: [project, question]
T:
  calculate_total_release:
    type: groupby
    groupby: [project]
    aggregates:
    - operator: sum
      apply_on: releases
      out_field: total
  combine_stack_summary:
    type: join
    left: temp_release_count by project
    right: stack_summary by project
F:
  D.temp_release_count: D.releases
  | T.calculate_total_release
  +D.rel_qa_tags: (D.temp_release_count,
    D.stack_summary
  ) | T.combine_stack_summary
"#;
    let ff = parse_flow_file("t", src).unwrap();
    assert_eq!(ff.flows.len(), 2);
    assert_eq!(
        ff.flows[1].inputs,
        vec!["temp_release_count", "stack_summary"]
    );
    let diags = validate(&ff);
    assert!(is_valid(&diags), "{diags:?}");
}

/// Figures 12+14+15: widget configuration and interaction-as-flow.
#[test]
fn figure_12_14_15_widgets() {
    let src = r#"
D:
  project_data: [project, year, total_wt, technology]
W:
  project_technology_bubble:
    type: BubbleChart
    source: D.project_data | T.aggregate_project_bubbles
    text: project
    size: total_wt
    legend_text: technology
    default_selection: true
    default_selection_key: text
    default_selection_value: 'pig'
  project_name:
    type: HTML
    tag: section
    source: D.project_data | T.filter_projects
T:
  aggregate_project_bubbles:
    type: groupby
    groupby: [project, total_wt, technology]
  filter_projects:
    type: filter_by
    filter_by: [project]
    filter_source: W.project_technology_bubble
    filter_val: [text]
"#;
    let ff = parse_flow_file("t", src).unwrap();
    let diags = validate(&ff);
    assert!(is_valid(&diags), "{diags:?}");
    let w = ff.widget("project_technology_bubble").unwrap();
    assert_eq!(w.params.get_scalar("default_selection_value"), Some("pig"));
}

/// Figure 16: the Apache dashboard layout.
#[test]
fn figure_16_layout() {
    let src = r#"
W:
  apache_custom_widget:
    type: HTML
  year_slider_layout:
    type: HTML
  right_project_info_layout:
    type: HTML
  project_category_bubble:
    type: HTML
  right_sliders_layout:
    type: HTML
L:
  description: Apache Project Analysis
  rows:
  - [span12: W.apache_custom_widget]
  - [span4: W.year_slider_layout, span8: W.right_project_info_layout]
  - [span5: W.project_category_bubble, span7: W.right_sliders_layout]
"#;
    let ff = parse_flow_file("t", src).unwrap();
    let l = ff.layout.as_ref().unwrap();
    assert_eq!(l.rows.len(), 3);
    assert_eq!(l.rows[1][0].span, 4);
    let diags = validate(&ff);
    assert!(is_valid(&diags), "{diags:?}");
}

/// The complete appendix A.1 listing (IPL data-processing dashboard),
/// transcribed from the paper with PDF ligatures repaired (shared with the
/// flow-memo suite).
const APPENDIX_A1: &str = include_str!("common/appendix_a1.flow");

/// Appendix A.2 (the consumption dashboard), transcribed from the paper.
const APPENDIX_A2: &str = r#"
# ---------------------------------------
L:
  description: Clash of Titans
  rows:
  - [span12: W.teams]
  - [span11: W.ipl_duration]
  - [span11: W.relative_teamtweets]
  - [span6: W.word_team_player_tweets,
     span5: W.region_tweets]

# ---------------------------------------
W:
  ipl_duration:
    type: Slider
    source: ['2013-05-02', '2013-05-27']
    static: true
    range: true
    slider_type: date

  relative_teamtweets:
    type: Streamgraph
    source: D.team_tweets |
      T.filter_by_date |
      T.filter_by_team
    x: date
    y: noOfTweets
    color: color
    serie: team
    xAxis:
      type: 'datetime'
    yAxis:
      allowDecimals: false
      min: 0
      max: 25000

  teams:
    type: List
    source: D.dim_teams
    text: team
    image_position: right

  playertweets:
    type: WordCloud
    source: D.player_tweets |
      T.filter_by_date |
      T.filter_by_team |
      T.aggregate_by_player
    text: player
    size: noOfTweets
    show_tooltip: true
    tooltip_text: [player, noOfTweets]

  teamtweets:
    type: WordCloud
    source: D.team_tweets |
      T.filter_by_date |
      T.aggregate_by_team
    text: team
    size: noOfTweets
    show_tooltip: true
    tooltip_text: [team, noOfTweets]

  wordtweets:
    type: WordCloud
    source: D.tagcloud_tweets |
      T.filter_by_date |
      T.aggregate_by_word
    text: word
    size: count
    show_tooltip: true
    tooltip_text: [word, count]

  region_tweets:
    type: MapMarker
    source: D.team_region_tweets |
      T.filter_by_date |
      T.filter_by_team |
      T.aggregate_by_team_region
    country: IND
    markers:
    - marker1:
        type: circle_marker
        latlong_value: point_one
        markersize: noOfTweets
        fill_color: color
        tooltip_text: [
          state,
          team,
          noOfTweets
        ]

  teamtweetstab:
    type: Layout
    rows:
    - [span11: W.teamtweets]
  playertweetstab:
    type: Layout
    rows:
    - [span11: W.playertweets]
  wordtweetstab:
    type: Layout
    rows:
    - [span11: W.wordtweets]

  word_team_player_tweets:
    type: TabLayout
    tabs:
    - name: 'Player'
      body: W.playertweetstab
    - name: 'Word'
      body: W.wordtweetstab
    - name: 'Team'
      body: W.teamtweetstab

# --------------------------------

T:
  aggregate_by_player:
    type: groupby
    groupby: [player]
    aggregates:
    - operator: sum
      apply_on: noOfTweets
      out_field: noOfTweets

  aggregate_by_team:
    type: groupby
    groupby: [team]
    aggregates:
    - operator: sum
      apply_on: noOfTweets
      out_field: noOfTweets

  aggregate_by_word:
    type: groupby
    groupby: [word]
    aggregates:
    - operator: sum
      apply_on: count
      out_field: count
    orderby_aggregates: true

  filter_by_date:
    type: filter_by
    filter_by: [date]
    filter_source: W.ipl_duration

  filter_by_team:
    type: filter_by
    filter_by: [team]
    filter_source: W.teams
    filter_val: [text]

  aggregate_by_team_region:
    type: groupby
    groupby: [team, point_one, state, color]
    aggregates:
    - operator: sum
      apply_on: noOfTweets
      out_field: noOfTweets
"#;

#[test]
fn appendix_a1_parses_and_validates() {
    let ff = parse_flow_file("ipl_processing", APPENDIX_A1).unwrap();
    assert_eq!(ff.flows.len(), 9);
    assert_eq!(ff.tasks.len(), 18);
    assert_eq!(ff.data.len(), 13);
    let diags = validate(&ff);
    // Only "never used" warnings for declared-but-sink objects are
    // acceptable; no errors.
    assert!(is_valid(&diags), "{diags:?}");
    assert!(ff.is_data_processing_mode());
}

#[test]
fn appendix_a2_parses_and_validates_against_a1_shared_objects() {
    let ff = parse_flow_file("ipl_dashboard", APPENDIX_A2).unwrap();
    assert_eq!(ff.widgets.len(), 11);
    assert!(ff.is_consumption_mode());
    // A.2 assumes A.1 published its objects (the appendix preamble says
    // exactly this); with those shared names validation is clean.
    let opts = ValidateOptions {
        shared_data: vec![
            "team_tweets".into(),
            "player_tweets".into(),
            "tagcloud_tweets".into(),
            "team_region_tweets".into(),
            "dim_teams".into(),
        ],
        ..Default::default()
    };
    let diags = validate_with(&ff, &opts);
    assert!(is_valid(&diags), "{diags:?}");
}

/// The full A.1 → A.2 flow group compiles AND runs end to end on generated
/// tweets, then drives the figure-17 interactions.
#[test]
fn appendix_flow_group_end_to_end() {
    let platform = Platform::new();
    let corpus = ipl::generate(&ipl::IplConfig {
        tweets: 800,
        ..Default::default()
    });
    platform.upload_data(
        "ipl_processing",
        "tweets.json",
        corpus.tweets_ndjson.clone(),
    );
    platform.upload_data("ipl_processing", "players.txt", corpus.players_dict.clone());
    platform.upload_data("ipl_processing", "teams.csv", corpus.teams_dict.clone());
    platform.upload_data(
        "ipl_processing",
        "team_players.csv",
        write_csv(&corpus.team_players, ','),
    );
    platform.upload_data(
        "ipl_processing",
        "dim_teams.csv",
        write_csv(&corpus.dim_teams, ','),
    );
    platform.upload_data(
        "ipl_processing",
        "lat_long.csv",
        write_csv(&corpus.lat_long, ','),
    );

    // A.1 with source details + publishes appended (the appendix assumes
    // them; §3.7.1/figure 19 show the pattern).
    let a1 = format!(
        "{APPENDIX_A1}
D.ipl_tweets:
  source: 'tweets.json'
  format: json
D.team_players:
  source: 'team_players.csv'
  format: csv
D.dim_teams:
  source: 'dim_teams.csv'
  format: csv
  publish: dim_teams
D.lat_long:
  source: 'lat_long.csv'
  format: csv
D.player_tweets:
  endpoint: true
  publish: player_tweets
D.team_tweets:
  endpoint: true
  publish: team_tweets
D.team_region_tweets:
  endpoint: true
  publish: team_region_tweets
D.tagcloud_tweets:
  endpoint: true
  publish: tagcloud_tweets
"
    );
    platform.save_flow("ipl_processing", &a1).unwrap();
    let run = platform.run_dashboard("ipl_processing").unwrap();
    assert!(run.published.len() >= 4, "{:?}", run.published);
    let team_tweets = run.result.table("team_tweets").unwrap();
    assert!(team_tweets.num_rows() > 0);
    assert_eq!(
        team_tweets.schema().names(),
        vec![
            "date",
            "team_fullName",
            "noOfTweets",
            "team",
            "sort_order",
            "color"
        ]
    );

    // dim_teams is a raw source; publish it via the registry for A.2's
    // teams list (sources aren't flow outputs, so publish directly).
    platform
        .publish_registry()
        .publish(
            "dim_teams",
            "ipl_processing",
            "dim_teams",
            corpus.dim_teams.schema().clone(),
            Some(corpus.dim_teams.clone()),
        )
        .unwrap();

    platform.save_flow("ipl_dashboard", APPENDIX_A2).unwrap();
    let dash = platform.open_dashboard("ipl_dashboard").unwrap();

    // Initial render (slider default range covers the tournament).
    let tree = dash.render(5).unwrap();
    assert!(tree.count() >= 11, "all widgets render: {}", tree.count());

    // Figure 17 interaction: select CSK, narrow dates.
    dash.select("teams", "text", vec!["CSK".into()]).unwrap();
    dash.set_range("ipl_duration", "2013-05-02".into(), "2013-05-10".into())
        .unwrap();
    let stream = dash.data_of("relative_teamtweets").unwrap();
    assert!(stream.num_rows() > 0, "CSK tweets in range");
    for i in 0..stream.num_rows() {
        assert_eq!(stream.value(i, "team").unwrap().to_string(), "CSK");
        let date = stream.value(i, "date").unwrap().to_string();
        assert!(
            ("2013-05-02".."2013-05-11").contains(&date.as_str()),
            "{date}"
        );
    }
}
