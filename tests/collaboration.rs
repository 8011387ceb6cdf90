//! Cross-crate integration: the §4.5 collaboration story — branch, edit in
//! parallel, merge, run — plus the flow-file-group workflow over the REST
//! surface.

use shareinsights::collab::{merge_texts, Repository};
use shareinsights::core::Platform;
use shareinsights::server::{Method, Request, Server};

const BASE: &str = r#"
D:
  sales: [region, brand, revenue]
D.sales:
  source: 'sales.csv'
  format: csv
T:
  by_region:
    type: groupby
    groupby: [region]
    aggregates:
    - operator: sum
      apply_on: revenue
      out_field: total
F:
  +D.region_totals: D.sales | T.by_region
"#;

/// Two analysts branch from the same dashboard, edit different sections,
/// and the merged file runs.
#[test]
fn branch_edit_merge_run() {
    // Analyst A adds a widget; analyst B tightens the aggregation.
    let ours =
        format!("{BASE}W:\n  totals_grid:\n    type: DataGrid\n    source: D.region_totals\n");
    let theirs = BASE.replace(
        "    - operator: sum\n      apply_on: revenue\n      out_field: total\n",
        "    - operator: sum\n      apply_on: revenue\n      out_field: total\n    - operator: count\n      apply_on: brand\n      out_field: brands\n",
    );

    let repo = Repository::new("retail");
    let base_commit = repo.commit("main", "alice", "base", BASE);
    repo.branch("bob-branch", "main").unwrap();
    repo.commit("main", "alice", "add grid", &ours);
    let bob_head = repo.commit("bob-branch", "bob", "count brands", &theirs);

    // Find the merge base through the store, then merge section-aware.
    let lca = repo
        .merge_base(&repo.head("main").unwrap().id, &bob_head)
        .unwrap();
    assert_eq!(lca.id, base_commit);
    let outcome = merge_texts("retail", &lca.content, &ours, &theirs).unwrap();
    assert!(outcome.is_clean(), "{:?}", outcome.conflicts);
    let merged_text = outcome.text();
    repo.commit_merge("main", "alice", "merge bob", &merged_text, &bob_head)
        .unwrap();
    assert_eq!(repo.head("main").unwrap().parents.len(), 2);

    // The merged flow file carries both edits and runs.
    let platform = Platform::new();
    platform.upload_data(
        "retail",
        "sales.csv",
        "region,brand,revenue\nnorth,acme,10\nnorth,zest,5\nsouth,acme,7\n",
    );
    platform.save_flow("retail", &merged_text).unwrap();
    let run = platform.run_dashboard("retail").unwrap();
    let t = run.result.table("region_totals").unwrap();
    assert_eq!(t.schema().names(), vec!["region", "total", "brands"]);
    assert_eq!(t.value(0, "brands").unwrap().as_int(), Some(2));
    let dash = platform.open_dashboard("retail").unwrap();
    assert!(dash.widget("totals_grid").is_some());
}

/// Conflicting same-task edits surface as conflicts with section labels.
#[test]
fn conflicting_edits_reported() {
    let ours = BASE.replace("groupby: [region]", "groupby: [region, brand]");
    let theirs = BASE.replace("groupby: [region]", "groupby: [brand]");
    let outcome = merge_texts("retail", BASE, &ours, &theirs).unwrap();
    assert_eq!(outcome.conflicts.len(), 1);
    assert_eq!(outcome.conflicts[0].section, 'T');
    assert_eq!(outcome.conflicts[0].item, "by_region");
}

/// The producer/consumer flow-file group over the REST surface, including
/// shared-object refresh after a new producer run.
#[test]
fn flow_group_refresh_over_rest() {
    let platform = Platform::new();
    platform.upload_data(
        "producer",
        "sales.csv",
        "region,brand,revenue\nnorth,acme,10\n",
    );
    let producer_flow = format!("{BASE}  D.region_totals:\n    publish: region_totals\n");
    let server = Server::new(platform);

    let r = server
        .handle(&Request::new(Method::Put, "/dashboards/producer/flow").with_body(&producer_flow));
    assert!(r.is_ok(), "{}", r.body);
    assert!(server
        .handle(&Request::new(Method::Post, "/dashboards/producer/run"))
        .is_ok());

    // Consumer dashboard reads the shared object by name.
    let consumer_flow = r#"
W:
  grid:
    type: DataGrid
    source: D.region_totals
"#;
    let r = server
        .handle(&Request::new(Method::Put, "/dashboards/consumer/flow").with_body(consumer_flow));
    assert!(r.is_ok(), "{}", r.body);
    let dash = server.platform().open_dashboard("consumer").unwrap();
    assert_eq!(dash.data_of("grid").unwrap().num_rows(), 1);

    // Producer's data grows; a re-run refreshes the shared snapshot and the
    // consumer sees the new rows (§4.5.3 point 3: long flows run once, by
    // the producer).
    server.platform().upload_data(
        "producer",
        "sales.csv",
        "region,brand,revenue\nnorth,acme,10\nsouth,zest,4\neast,brio,2\n",
    );
    assert!(server
        .handle(&Request::new(Method::Post, "/dashboards/producer/run"))
        .is_ok());
    let dash = server.platform().open_dashboard("consumer").unwrap();
    assert_eq!(dash.data_of("grid").unwrap().num_rows(), 3);

    // The group is tracked.
    let group = server
        .platform()
        .publish_registry()
        .group_of("region_totals");
    assert!(group.contains(&"producer".to_string()));
    assert!(group.contains(&"consumer".to_string()));
}

/// Forks inherit everything and diverge independently (§5.2.2 obs. 3).
#[test]
fn forked_dashboards_diverge() {
    let platform = Platform::new();
    platform.upload_data("template", "sales.csv", "region,brand,revenue\nn,a,1\n");
    platform.save_flow("template", BASE).unwrap();
    platform.fork_dashboard("template", "team_a", "a").unwrap();
    platform.fork_dashboard("template", "team_b", "b").unwrap();

    // team_a extends; team_b keeps the sample. Both run independently.
    let extended = format!("{BASE}W:\n  g:\n    type: DataGrid\n    source: D.region_totals\n");
    platform.save_flow("team_a", &extended).unwrap();
    assert!(platform.run_dashboard("team_a").is_ok());
    assert!(platform.run_dashboard("team_b").is_ok());
    assert!(
        platform.dashboard("team_a").unwrap().flow_bytes()
            > platform.dashboard("team_b").unwrap().flow_bytes()
    );
    // Template unchanged.
    assert_eq!(&*platform.dashboard("template").unwrap().text, BASE);
}
