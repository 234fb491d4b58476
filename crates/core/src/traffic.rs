//! Server network-traffic accounting (Fig. 9, Appendix A).
//!
//! "Fig. 9 illustrates the asymmetry in server network traffic,
//! specifically that download from server dominates upload. […] each device
//! downloads both an FL task plan and current global model (plan size is
//! comparable with the global model) whereas it uploads only updates to the
//! global model; the model updates are inherently more compressible."
//!
//! [`TrafficCounter`] tallies bytes by category for the fleet simulator
//! (`fl_sim::fleet`), which models FIG9 without links; live links count
//! what they send in `fl_wire::WireStats`.

use std::fmt;

/// What a transfer carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// FL plan sent to a device (download).
    Plan,
    /// Global-model checkpoint sent to a device (download).
    Checkpoint,
    /// Model update reported by a device (upload).
    Update,
    /// Device metrics reported alongside updates (upload).
    Metrics,
}

/// Byte tallies per kind.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TrafficCounter {
    plan_bytes: u64,
    checkpoint_bytes: u64,
    update_bytes: u64,
    metrics_bytes: u64,
}

impl TrafficCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        TrafficCounter::default()
    }

    /// Records a transfer of `bytes` of the given kind.
    pub fn record(&mut self, kind: TrafficKind, bytes: usize) {
        let bytes = bytes as u64;
        match kind {
            TrafficKind::Plan => self.plan_bytes += bytes,
            TrafficKind::Checkpoint => self.checkpoint_bytes += bytes,
            TrafficKind::Update => self.update_bytes += bytes,
            TrafficKind::Metrics => self.metrics_bytes += bytes,
        }
    }

    /// Total bytes sent server → devices.
    pub fn download_bytes(&self) -> u64 {
        self.plan_bytes + self.checkpoint_bytes
    }

    /// Total bytes sent devices → server.
    pub fn upload_bytes(&self) -> u64 {
        self.update_bytes + self.metrics_bytes
    }

    /// Download ÷ upload ratio (∞ ⇒ `f64::INFINITY`, 0/0 ⇒ 0).
    pub fn asymmetry(&self) -> f64 {
        let up = self.upload_bytes();
        let down = self.download_bytes();
        if up == 0 {
            if down == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            down as f64 / up as f64
        }
    }

    /// Plan bytes downloaded.
    pub fn plan_bytes(&self) -> u64 {
        self.plan_bytes
    }

    /// Checkpoint bytes downloaded.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes
    }

    /// Update bytes uploaded.
    pub fn update_bytes(&self) -> u64 {
        self.update_bytes
    }
}

/// Prints the two control-message tallies the counter once kept as 0:
/// the fleet reports' `Debug` is pinned by `tests/render_digests.txt`.
impl fmt::Debug for TrafficCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrafficCounter")
            .field("plan_bytes", &self.plan_bytes)
            .field("checkpoint_bytes", &self.checkpoint_bytes)
            .field("update_bytes", &self.update_bytes)
            .field("metrics_bytes", &self.metrics_bytes)
            .field("control_download_bytes", &0u64)
            .field("control_upload_bytes", &0u64)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_kind() {
        let mut t = TrafficCounter::new();
        t.record(TrafficKind::Plan, 1000);
        t.record(TrafficKind::Checkpoint, 1000);
        t.record(TrafficKind::Update, 400);
        t.record(TrafficKind::Metrics, 100);
        assert_eq!(t.download_bytes(), 2000);
        assert_eq!(t.upload_bytes(), 500);
    }

    #[test]
    fn asymmetry_reflects_paper_shape() {
        // Plan ≈ model; update compressed 4×: download should dominate.
        let mut t = TrafficCounter::new();
        let model = 4_000_000;
        t.record(TrafficKind::Plan, model);
        t.record(TrafficKind::Checkpoint, model);
        t.record(TrafficKind::Update, model / 4);
        assert!(t.asymmetry() > 4.0);
    }

    #[test]
    fn asymmetry_edge_cases() {
        let t = TrafficCounter::new();
        assert_eq!(t.asymmetry(), 0.0);
        let mut t = TrafficCounter::new();
        t.record(TrafficKind::Plan, 1);
        assert!(t.asymmetry().is_infinite());
    }
}
