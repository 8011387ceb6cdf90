//! Figure extraction: the series behind figures 31, 32 and 35 of the
//! paper, read from a simulated event's platform telemetry.

use crate::simulate::HackathonOutcome;
use shareinsights_core::RunKind;

/// Figure 31 — "Platform usage": operator and widget popularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig31Series {
    /// `(operator, uses)` descending.
    pub operators: Vec<(String, usize)>,
    /// `(widget type, uses)` descending.
    pub widgets: Vec<(String, usize)>,
}

/// Figure 32 — "Does practice matter?": one point per team.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig32Point {
    /// Team number.
    pub team: usize,
    /// Practice runs (x-axis).
    pub practice_runs: usize,
    /// Competition runs (y-axis).
    pub competition_runs: usize,
    /// Finalist marker.
    pub finalist: bool,
    /// Winner marker.
    pub winner: bool,
}

/// Figure 35 — "Fork to go": starting flow-file size per team.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig35Bar {
    /// Team number.
    pub team: usize,
    /// Flow-file size (bytes) at competition start.
    pub size_bytes: usize,
    /// The dataset whose sample was forked.
    pub dataset: String,
}

/// All three figures.
#[derive(Debug, Clone)]
pub struct Figures {
    /// Figure 31.
    pub fig31: Fig31Series,
    /// Figure 32.
    pub fig32: Vec<Fig32Point>,
    /// Figure 35.
    pub fig35: Vec<Fig35Bar>,
}

/// Extract all figures from an outcome.
pub fn extract(outcome: &HackathonOutcome) -> Figures {
    let usage = outcome.platform.log().usage();
    let fig31 = Fig31Series {
        operators: usage
            .top_operators()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        widgets: usage
            .top_widgets()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    };
    let fig32 = outcome
        .teams
        .iter()
        .map(|t| Fig32Point {
            team: t.team.number,
            practice_runs: outcome
                .platform
                .log()
                .count(&t.team.name, RunKind::Run)
                .min(t.practice_runs + t.competition_runs),
            competition_runs: t.competition_runs,
            finalist: t.finalist,
            winner: t.winner,
        })
        .collect();
    let fig35 = outcome
        .teams
        .iter()
        .map(|t| Fig35Bar {
            team: t.team.number,
            size_bytes: t.starting_bytes,
            dataset: outcome.datasets[t.team.dataset].name.to_string(),
        })
        .collect();
    Figures {
        fig31,
        fig32,
        fig35,
    }
}

impl Figures {
    /// Render figure 31 as aligned text (for EXPERIMENTS.md and the bench
    /// output).
    pub fn fig31_text(&self) -> String {
        let mut out = String::from("Figure 31 — platform usage\n  operators:\n");
        for (op, n) in &self.fig31.operators {
            out.push_str(&format!("    {op:<22} {n:>6} {}\n", bar(*n)));
        }
        out.push_str("  widgets:\n");
        for (w, n) in &self.fig31.widgets {
            out.push_str(&format!("    {w:<22} {n:>6} {}\n", bar(*n)));
        }
        out
    }

    /// Render figure 32 as a text scatter.
    pub fn fig32_text(&self) -> String {
        let mut out =
            String::from("Figure 32 — practice vs competition runs (F=finalist, W=winner)\n");
        let mut points = self.fig32.clone();
        points.sort_by_key(|p| std::cmp::Reverse(p.practice_runs));
        for p in &points {
            let marker = if p.winner {
                "W"
            } else if p.finalist {
                "F"
            } else {
                " "
            };
            out.push_str(&format!(
                "  team {:>2} {marker}  practice {:>3}  competition {:>3}\n",
                p.team, p.practice_runs, p.competition_runs
            ));
        }
        out
    }

    /// Render figure 35 as text bars.
    pub fn fig35_text(&self) -> String {
        let mut out = String::from("Figure 35 — fork-to-go starting sizes (bytes)\n");
        for b in &self.fig35 {
            out.push_str(&format!(
                "  team {:>2} ({:<16}) {:>6} {}\n",
                b.team,
                b.dataset,
                b.size_bytes,
                bar(b.size_bytes / 64)
            ));
        }
        out
    }
}

fn bar(n: usize) -> String {
    "#".repeat(n.min(60))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{run_hackathon, HackathonConfig};

    fn outcome() -> HackathonOutcome {
        run_hackathon(&HackathonConfig {
            seed: 21,
            teams: 12,
            max_practice_runs: 6.0,
            max_competition_runs: 5.0,
        })
    }

    #[test]
    fn fig31_filter_and_groupby_dominate() {
        // The paper's figure 31 shows group/filter among the most popular
        // operators — our pipelines share that shape.
        let figs = extract(&outcome());
        let top3: Vec<&str> = figs
            .fig31
            .operators
            .iter()
            .take(3)
            .map(|(k, _)| k.as_str())
            .collect();
        assert!(
            top3.contains(&"groupby"),
            "groupby in top-3 operators: {top3:?}"
        );
        assert!(!figs.fig31.widgets.is_empty());
        // Descending order.
        for w in figs.fig31.operators.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn fig32_has_one_point_per_team() {
        let out = outcome();
        let figs = extract(&out);
        assert_eq!(figs.fig32.len(), 12);
        assert_eq!(figs.fig32.iter().filter(|p| p.winner).count(), 3);
        assert_eq!(figs.fig32.iter().filter(|p| p.finalist).count(), 7);
    }

    #[test]
    fn fig35_sizes_are_fork_sizes() {
        let out = outcome();
        let figs = extract(&out);
        assert_eq!(figs.fig35.len(), 12);
        for b in &figs.fig35 {
            assert!(b.size_bytes > 200, "team {} starts non-empty", b.team);
        }
        // Teams on the same dataset start at the same size (same sample).
        use std::collections::BTreeMap;
        let mut by_dataset: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for b in &figs.fig35 {
            by_dataset
                .entry(b.dataset.as_str())
                .or_default()
                .push(b.size_bytes);
        }
        for (ds, sizes) in by_dataset {
            assert!(
                sizes.iter().all(|&s| s == sizes[0]),
                "{ds} forks equal: {sizes:?}"
            );
        }
    }

    #[test]
    fn text_renderings_are_nonempty() {
        let figs = extract(&outcome());
        assert!(figs.fig31_text().contains("groupby"));
        assert!(figs.fig32_text().contains("practice"));
        assert!(figs.fig35_text().contains("team"));
    }
}
