//! Device phase events and session shapes (Sec. 5, Table 1).
//!
//! "We also log an event for every state in a training round, and use these
//! logs to generate ASCII visualizations of the sequence of state
//! transitions happening across all devices."
//!
//! Table 1's legend: `-` = FL server checkin, `v` = downloaded plan,
//! `[` = training started, `]` = training completed, `+` = upload started,
//! `^` = upload completed, `#` = upload rejected, `!` = interrupted,
//! `*` = error.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One state transition in a device's training-round session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceEvent {
    /// Device checked in with the FL server.
    CheckIn,
    /// Plan (and checkpoint) downloaded.
    PlanDownloaded,
    /// On-device training started.
    TrainingStarted,
    /// On-device training completed.
    TrainingCompleted,
    /// Result upload started.
    UploadStarted,
    /// Result upload completed and accepted.
    UploadCompleted,
    /// Result upload rejected (reporting window already closed).
    UploadRejected,
    /// Session interrupted (device left the idle/charging state, was
    /// aborted by the server, or lost connectivity).
    Interrupted,
    /// An error occurred (computation or network).
    Error,
}

impl DeviceEvent {
    /// The single-character glyph used in session-shape strings (Table 1).
    pub fn glyph(&self) -> char {
        match self {
            DeviceEvent::CheckIn => '-',
            DeviceEvent::PlanDownloaded => 'v',
            DeviceEvent::TrainingStarted => '[',
            DeviceEvent::TrainingCompleted => ']',
            DeviceEvent::UploadStarted => '+',
            DeviceEvent::UploadCompleted => '^',
            DeviceEvent::UploadRejected => '#',
            DeviceEvent::Interrupted => '!',
            DeviceEvent::Error => '*',
        }
    }
}

impl fmt::Display for DeviceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.glyph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(events: &[DeviceEvent]) -> String {
        events.iter().map(DeviceEvent::glyph).collect()
    }

    #[test]
    fn successful_session_shape_matches_table_1() {
        let log = shape(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::TrainingCompleted,
            DeviceEvent::UploadStarted,
            DeviceEvent::UploadCompleted,
        ]);
        assert_eq!(log, "-v[]+^");
    }

    #[test]
    fn rejected_upload_shape_matches_table_1() {
        let log = shape(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::TrainingCompleted,
            DeviceEvent::UploadStarted,
            DeviceEvent::UploadRejected,
        ]);
        assert_eq!(log, "-v[]+#");
    }

    #[test]
    fn interrupted_shape_matches_table_1() {
        let log = shape(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::Interrupted,
        ]);
        assert_eq!(log, "-v[!");
    }

    #[test]
    fn paper_example_shapes_from_sec_5() {
        // "-v[]+*": trained fine, upload failed (network issue).
        let network_issue = shape(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::TrainingCompleted,
            DeviceEvent::UploadStarted,
            DeviceEvent::Error,
        ]);
        assert_eq!(network_issue, "-v[]+*");
        // "-v[*": failed right after loading the model (model issue).
        let model_issue = shape(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::Error,
        ]);
        assert_eq!(model_issue, "-v[*");
    }
}
