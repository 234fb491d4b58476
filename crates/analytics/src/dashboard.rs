//! ASCII dashboard rendering.
//!
//! The paper's analytics are "aggregated and presented in dashboards";
//! this module renders time series as terminal charts, used by the
//! `figures` binary to draw the reproduction's versions of Figs. 5–9.

/// Renders a single series as a horizontal-bar chart, one row per bucket.
///
/// `labels` (optional) annotates each bucket, e.g. with the hour of day.
pub fn bar_chart(title: &str, values: &[f64], labels: Option<&[String]>, width: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if values.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    for (i, &v) in values.iter().enumerate() {
        let label = labels
            .and_then(|l| l.get(i).cloned())
            .unwrap_or_else(|| format!("{i:>3}"));
        let bar_len = ((v / max) * width as f64).round().max(0.0) as usize;
        out.push_str(&format!(
            "  {label:>8} |{} {v:.1}\n",
            "█".repeat(bar_len.min(width))
        ));
    }
    out
}

/// Renders a compact sparkline (one character per bucket) for inline
/// summaries.
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let t = ((v - min) / span * 7.0).round() as usize;
            TICKS[t.min(7)]
        })
        .collect()
}

/// Renders two aligned series (e.g. Fig. 6's participating vs waiting
/// devices) as paired sparklines with ranges.
pub fn dual_series(title: &str, name_a: &str, a: &[f64], name_b: &str, b: &[f64]) -> String {
    let range = |v: &[f64]| {
        if v.is_empty() {
            return "-".to_string();
        }
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        format!("[{min:.0}..{max:.0}]")
    };
    format!(
        "{title}\n  {name_a:>14} {} {}\n  {name_b:>14} {} {}\n",
        sparkline(a),
        range(a),
        sparkline(b),
        range(b),
    )
}

/// Renders a histogram of values into `bins` equal-width bins — Fig. 8's
/// distribution charts.
pub fn histogram(title: &str, values: &[f64], bins: usize, width: usize) -> String {
    if values.is_empty() || bins == 0 {
        return format!("{title}\n  (no data)\n");
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    let mut counts = vec![0usize; bins];
    for &v in values {
        let b = (((v - min) / span) * bins as f64) as usize;
        counts[b.min(bins - 1)] += 1;
    }
    let labels: Vec<String> = (0..bins)
        .map(|b| format!("{:.0}", min + span * (b as f64 + 0.5) / bins as f64))
        .collect();
    bar_chart(
        title,
        &counts.iter().map(|&c| c as f64).collect::<Vec<_>>(),
        Some(&labels),
        width,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chart_scales_to_max() {
        let chart = bar_chart("t", &[1.0, 2.0, 4.0], None, 8);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines[0], "t");
        let bars: Vec<usize> = lines[1..].iter().map(|l| l.matches('█').count()).collect();
        assert_eq!(bars, vec![2, 4, 8]);
    }

    #[test]
    fn bar_chart_handles_empty() {
        assert!(bar_chart("t", &[], None, 10).contains("no data"));
    }

    #[test]
    fn sparkline_spans_ticks() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s.chars().count(), 8);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn histogram_bins_cover_range() {
        let values = vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let h = histogram("h", &values, 2, 10);
        // Two bins: 3 low values, 3 high values → equal bars.
        let lines: Vec<&str> = h.lines().collect();
        let bars: Vec<usize> = lines[1..].iter().map(|l| l.matches('█').count()).collect();
        assert_eq!(bars.len(), 2);
        assert_eq!(bars[0], bars[1]);
    }

    #[test]
    fn dual_series_shows_both_ranges() {
        let out = dual_series("d", "participating", &[1.0, 8.0], "waiting", &[2.0, 4.0]);
        assert!(out.contains("participating"));
        assert!(out.contains("[1..8]"));
        assert!(out.contains("[2..4]"));
    }
}
