//! Session-shape aggregation (Sec. 5, Table 1).
//!
//! "We chart counts of these sequence visualizations in our dashboards,
//! which allows us to quickly distinguish between different types of
//! issues."
//!
//! [`SessionShapeTable`] counts session-shape strings across the fleet and
//! renders the distribution table of Table 1.

use std::collections::HashMap;
use std::fmt;

/// A fleet-wide histogram of session shapes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionShapeTable {
    counts: HashMap<String, u64>,
    total: u64,
}

impl SessionShapeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SessionShapeTable::default()
    }

    /// Records a shape string directly (for pre-aggregated feeds); a shape
    /// already in the table is counted without allocating.
    pub fn record_shape(&mut self, shape: &str) {
        match self.counts.get_mut(shape) {
            Some(count) => *count += 1,
            None => {
                self.counts.insert(shape.to_owned(), 1);
            }
        }
        self.total += 1;
    }

    /// Rows sorted by descending count: `(shape, count, percent)`.
    pub fn rows(&self) -> Vec<(String, u64, f64)> {
        let mut rows: Vec<(String, u64, f64)> = self
            .counts
            .iter()
            .map(|(shape, &count)| {
                (
                    shape.clone(),
                    count,
                    100.0 * count as f64 / self.total.max(1) as f64,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }
}

impl fmt::Display for SessionShapeTable {
    /// Renders in the format of Table 1.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>12} {:>8}",
            "Session Shape", "Count", "Percent"
        )?;
        for (shape, count, pct) in self.rows() {
            writeln!(f, "{shape:<14} {count:>12} {pct:>7.0}%")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_core::events::DeviceEvent;

    fn session(events: &[DeviceEvent]) -> String {
        events.iter().map(DeviceEvent::glyph).collect()
    }

    impl SessionShapeTable {
        fn count(&self, shape: &str) -> u64 {
            self.counts.get(shape).copied().unwrap_or(0)
        }

        fn fraction(&self, shape: &str) -> f64 {
            self.count(shape) as f64 / self.total as f64
        }
    }

    #[test]
    fn counts_and_fractions() {
        let mut table = SessionShapeTable::new();
        let ok = session(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::TrainingCompleted,
            DeviceEvent::UploadStarted,
            DeviceEvent::UploadCompleted,
        ]);
        let interrupted = session(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::Interrupted,
        ]);
        for _ in 0..3 {
            table.record_shape(&ok);
        }
        table.record_shape(&interrupted);
        assert_eq!(table.total, 4);
        assert_eq!(table.count("-v[]+^"), 3);
        assert!((table.fraction("-v[]+^") - 0.75).abs() < 1e-12);
        assert!((table.fraction("-v[!") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rows_sorted_by_count() {
        let mut table = SessionShapeTable::new();
        table.record_shape("-v[!");
        table.record_shape("-v[]+^");
        table.record_shape("-v[]+^");
        let rows = table.rows();
        assert_eq!(rows[0].0, "-v[]+^");
        assert_eq!(rows[0].1, 2);
        assert!((rows[0].2 - 66.666).abs() < 0.1);
    }

    #[test]
    fn display_matches_table_1_format() {
        let mut table = SessionShapeTable::new();
        table.record_shape("-v[]+^");
        let rendered = table.to_string();
        assert!(rendered.contains("Session Shape"));
        assert!(rendered.contains("-v[]+^"));
        assert!(rendered.contains("100%"));
    }

    #[test]
    fn empty_table_is_harmless() {
        let table = SessionShapeTable::new();
        assert!(table.rows().is_empty());
        assert!(table.to_string().contains("Session Shape"));
    }
}
