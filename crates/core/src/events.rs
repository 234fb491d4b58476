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

    /// Whether the event terminates a session.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            DeviceEvent::UploadCompleted
                | DeviceEvent::UploadRejected
                | DeviceEvent::Interrupted
                | DeviceEvent::Error
        )
    }
}

impl fmt::Display for DeviceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.glyph())
    }
}

/// The ordered event log of one device's participation in one round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionLog {
    events: Vec<(u64, DeviceEvent)>,
}

impl SessionLog {
    /// Creates an empty session log.
    pub fn new() -> Self {
        SessionLog::default()
    }

    /// Records an event at the given time. Events after a terminal event
    /// are ignored (the session is over).
    pub fn record(&mut self, now_ms: u64, event: DeviceEvent) {
        if self.is_finished() {
            return;
        }
        self.events.push((now_ms, event));
    }

    /// The events recorded so far.
    pub fn events(&self) -> impl Iterator<Item = &(u64, DeviceEvent)> {
        self.events.iter()
    }

    /// Whether the session has reached a terminal event.
    pub fn is_finished(&self) -> bool {
        self.events.last().is_some_and(|(_, e)| e.is_terminal())
    }

    /// The session-shape string, e.g. `-v[]+^` (Table 1).
    pub fn shape(&self) -> String {
        self.events.iter().map(|(_, e)| e.glyph()).collect()
    }
}

impl fmt::Display for SessionLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(events: &[DeviceEvent]) -> SessionLog {
        let mut log = SessionLog::new();
        for (i, &e) in events.iter().enumerate() {
            log.record(i as u64 * 100, e);
        }
        log
    }

    #[test]
    fn successful_session_shape_matches_table_1() {
        let log = log_of(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::TrainingCompleted,
            DeviceEvent::UploadStarted,
            DeviceEvent::UploadCompleted,
        ]);
        assert_eq!(log.shape(), "-v[]+^");
        assert!(log.is_finished());
    }

    #[test]
    fn rejected_upload_shape_matches_table_1() {
        let log = log_of(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::TrainingCompleted,
            DeviceEvent::UploadStarted,
            DeviceEvent::UploadRejected,
        ]);
        assert_eq!(log.shape(), "-v[]+#");
    }

    #[test]
    fn interrupted_shape_matches_table_1() {
        let log = log_of(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::Interrupted,
        ]);
        assert_eq!(log.shape(), "-v[!");
    }

    #[test]
    fn paper_example_shapes_from_sec_5() {
        // "-v[]+*": trained fine, upload failed (network issue).
        let network_issue = log_of(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::TrainingCompleted,
            DeviceEvent::UploadStarted,
            DeviceEvent::Error,
        ]);
        assert_eq!(network_issue.shape(), "-v[]+*");
        // "-v[*": failed right after loading the model (model issue).
        let model_issue = log_of(&[
            DeviceEvent::CheckIn,
            DeviceEvent::PlanDownloaded,
            DeviceEvent::TrainingStarted,
            DeviceEvent::Error,
        ]);
        assert_eq!(model_issue.shape(), "-v[*");
    }

    #[test]
    fn events_after_terminal_are_ignored() {
        let mut log = log_of(&[DeviceEvent::CheckIn, DeviceEvent::Error]);
        log.record(999, DeviceEvent::UploadCompleted);
        assert_eq!(log.shape(), "-*");
    }
}
