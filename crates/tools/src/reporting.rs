//! Analysis of materialized round metrics (Sec. 7.4).
//!
//! "As soon as an FL round closes, that round's aggregated model
//! parameters and metrics are written to the server storage location
//! chosen by the model engineer. […] The FL system provides analysis
//! tools for model engineers to load these metrics into standard Python
//! numerical data science packages for visualization and exploration."
//!
//! Here the analysis tool is a typed view over the coordinator's
//! materialized `(task, round, summaries)` records, with CSV export for
//! external tooling.

use fl_core::RoundId;
use fl_ml::metrics::MetricSummary;

/// A flattened row of one metric of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Source task name (annotated metadata, Sec. 7.4).
    pub task: String,
    /// Round number within the task.
    pub round: RoundId,
    /// Metric name.
    pub metric: String,
    /// Device reports summarized.
    pub count: u64,
    /// Mean of device reports.
    pub mean: f64,
    /// Approximate median (P² sketch).
    pub p50: Option<f64>,
    /// Approximate 90th percentile.
    pub p90: Option<f64>,
}

/// Flattens materialized metrics into rows.
pub fn flatten(records: &[(String, RoundId, Vec<MetricSummary>)]) -> Vec<MetricRow> {
    let mut rows = Vec::new();
    for (task, round, summaries) in records {
        for s in summaries {
            rows.push(MetricRow {
                task: task.clone(),
                round: *round,
                metric: s.name.clone(),
                count: s.moments.count(),
                mean: s.moments.mean(),
                p50: s.p50.estimate(),
                p90: s.p90.estimate(),
            });
        }
    }
    rows
}

/// The per-round trajectory of one metric's mean for one task, ordered by
/// round — what a model engineer plots first.
pub fn trajectory(
    records: &[(String, RoundId, Vec<MetricSummary>)],
    task: &str,
    metric: &str,
) -> Vec<(RoundId, f64)> {
    let mut points: Vec<(RoundId, f64)> = records
        .iter()
        .filter(|(t, _, _)| t == task)
        .filter_map(|(_, round, summaries)| {
            summaries
                .iter()
                .find(|s| s.name == metric)
                .map(|s| (*round, s.moments.mean()))
        })
        .collect();
    points.sort_by_key(|(r, _)| *r);
    points
}

/// Renders rows as CSV (header + records) for external analysis.
// fl-lint: allow(test-only-pub): paper Sec. 7 model-engineer tools (DESIGN.md Sec. 3, fl-tools)
pub fn to_csv(rows: &[MetricRow]) -> String {
    let mut out = String::from("task,round,metric,count,mean,p50,p90\n");
    for r in rows {
        let fmt_opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.6}"));
        out.push_str(&format!(
            "{},{},{},{},{:.6},{},{}\n",
            r.task,
            r.round.0,
            r.metric,
            r.count,
            r.mean,
            fmt_opt(r.p50),
            fmt_opt(r.p90),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<(String, RoundId, Vec<MetricSummary>)> {
        let mut out = Vec::new();
        for round in 1..=3u64 {
            let mut loss = MetricSummary::new("loss");
            let mut acc = MetricSummary::new("accuracy");
            for i in 0..10 {
                loss.push(1.0 / round as f64 + i as f64 * 0.01);
                acc.push(0.5 + round as f64 * 0.1);
            }
            out.push(("train".to_string(), RoundId(round), vec![loss, acc]));
        }
        out
    }

    #[test]
    fn flatten_produces_one_row_per_metric() {
        let rows = flatten(&records());
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.count == 10));
        assert!(rows.iter().any(|r| r.metric == "loss"));
        assert!(rows.iter().any(|r| r.metric == "accuracy"));
    }

    #[test]
    fn trajectory_is_ordered_and_filtered() {
        let t = trajectory(&records(), "train", "loss");
        assert_eq!(t.len(), 3);
        assert!(t[0].1 > t[1].1 && t[1].1 > t[2].1, "loss decreases: {t:?}");
        assert!(trajectory(&records(), "nope", "loss").is_empty());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&flatten(&records()));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "task,round,metric,count,mean,p50,p90");
        assert_eq!(lines.len(), 7);
        assert!(lines[1].starts_with("train,1,"));
    }
}
