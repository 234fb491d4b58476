//! The per-round phase state machine (Sec. 2.2, Fig. 1).
//!
//! A round advances through **Selection** (devices check in until the
//! over-selected target is reached or the selection window times out),
//! **Configuration** (plan + checkpoint pushed to the selected devices —
//! modeled as the instant of transition, with traffic recorded), and
//! **Reporting** (updates accepted until the goal count is reached, then
//! remaining devices are aborted; late reporters are rejected; the window
//! ends the round).
//!
//! The machine is purely deterministic and explicitly clocked: every
//! mutation takes `now_ms`, and [`RoundState::next_deadline`] says when
//! the next timeout is due. `fl-sim` drives it with virtual time; the
//! live actor server stamps each message with elapsed wall time and ticks
//! the round itself when that deadline passes with no message.

use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{DeviceId, RoundId};

/// Current phase of the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for devices to check in.
    Selection,
    /// Waiting for participants to report updates.
    Reporting,
    /// Terminal: the round committed.
    Committed,
    /// Terminal: the round was abandoned.
    Abandoned,
}

impl Phase {
    /// Whether the round has reached a terminal phase (committed or
    /// abandoned) and will never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(self, Phase::Committed | Phase::Abandoned)
    }
}

/// Response to a device checking in during Selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckinResponse {
    /// The device participates in this round.
    Selected,
    /// The device is *already* a participant of this round (duplicate
    /// check-in, e.g. a retry after a dropped response). Idempotent: the
    /// device keeps its slot and should proceed with the configuration it
    /// was (or is being re-) sent, rather than being pace-steered away.
    AlreadySelected,
    /// The round is not selecting (full or not in Selection).
    NotSelecting,
}

/// Response to a device report during Reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportResponse {
    /// The update was accepted into the aggregate.
    Accepted,
    /// The goal was already reached; the device's work is discarded and
    /// the device is told to abort ("aborted" in Fig. 7).
    Aborted,
    /// The reporting window has closed ("upload rejected", `#` in Table 1).
    RejectedLate,
    /// The device was not a participant of this round.
    NotParticipant,
}

/// Observable state transitions, consumed by analytics.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundEvent {
    /// The round moved from Selection to Reporting (devices configured).
    Configured {
        /// Time of the transition.
        at_ms: u64,
        /// Number of devices configured.
        participants: usize,
    },
    /// The round reached a terminal state.
    Finished {
        /// Time of the transition.
        at_ms: u64,
        /// Outcome with counts.
        outcome: RoundOutcome,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParticipantState {
    Configured { at_ms: u64 },
    Reported { participation_ms: u64 },
    Aborted { participation_ms: u64 },
    RejectedLate { participation_ms: u64 },
    DroppedOut { participation_ms: u64 },
}

/// One round's state machine.
#[derive(Debug, Clone)]
pub struct RoundState {
    /// Which round this is.
    pub round: RoundId,
    config: RoundConfig,
    phase: Phase,
    started_at_ms: u64,
    configured_at_ms: Option<u64>,
    finished_at_ms: Option<u64>,
    /// Devices checked in during Selection, sorted by id; configuration
    /// moves them to `participants`.
    checked_in: Vec<DeviceId>,
    /// The configured devices, sorted by id, and their states. The set is
    /// fixed at configuration and later calls only change states, so a
    /// lookup is a binary search.
    participants: Vec<(DeviceId, ParticipantState)>,
    reported: usize,
    aborted: usize,
    dropped: usize,
    rejected_late: usize,
    events: Vec<RoundEvent>,
}

impl RoundState {
    /// Opens the Selection phase at `now_ms`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`RoundConfig::validate`]).
    pub fn begin(round: RoundId, config: RoundConfig, now_ms: u64) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` precondition: configs are validated when authored \
                      (RoundConfig::validate); an invalid one reaching `begin` is a programming \
                      error, not a runtime condition a round could recover from"
        )]
        config
            .validate()
            .unwrap_or_else(|why| panic!("invalid round config: {why}"));
        RoundState {
            round,
            config,
            phase: Phase::Selection,
            started_at_ms: now_ms,
            configured_at_ms: None,
            finished_at_ms: None,
            checked_in: Vec::new(),
            participants: Vec::new(),
            reported: 0,
            aborted: 0,
            dropped: 0,
            rejected_late: 0,
            events: Vec::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Devices configured into the round (empty during Selection).
    pub fn participants(&self) -> Vec<DeviceId> {
        self.participants.iter().map(|&(d, _)| d).collect()
    }

    /// Whether `device` was configured into the round (never during
    /// Selection).
    pub fn is_participant(&self, device: DeviceId) -> bool {
        self.participants
            .binary_search_by_key(&device, |&(d, _)| d)
            .is_ok()
    }

    /// `device`'s state, if it was configured into the round.
    fn state_of(&mut self, device: DeviceId) -> Option<&mut ParticipantState> {
        let i = self
            .participants
            .binary_search_by_key(&device, |&(d, _)| d)
            .ok()?;
        Some(&mut self.participants[i].1)
    }

    /// Events emitted so far (drained by the caller).
    pub fn drain_events(&mut self) -> Vec<RoundEvent> {
        std::mem::take(&mut self.events)
    }

    /// A device checks in during Selection. Duplicate check-ins (retries)
    /// are idempotent: an already-selected device is answered
    /// [`CheckinResponse::AlreadySelected`] — while its slot is still live
    /// — instead of being pace-steered away from a round it belongs to.
    pub fn on_checkin(&mut self, device: DeviceId, now_ms: u64) -> CheckinResponse {
        match self.phase {
            Phase::Selection => {
                // Sorted on insert: membership is a binary search.
                let Err(at) = self.checked_in.binary_search(&device) else {
                    return CheckinResponse::AlreadySelected;
                };
                self.checked_in.insert(at, device);
                if self.checked_in.len() >= self.config.selection_target() {
                    self.configure(now_ms);
                }
                CheckinResponse::Selected
            }
            Phase::Reporting => {
                // A retrying participant whose slot is still open keeps it
                // (the caller re-sends the configuration); one in a
                // terminal per-device state gets nothing new.
                if matches!(
                    self.state_of(device),
                    Some(ParticipantState::Configured { .. })
                ) {
                    CheckinResponse::AlreadySelected
                } else {
                    CheckinResponse::NotSelecting
                }
            }
            Phase::Committed | Phase::Abandoned => CheckinResponse::NotSelecting,
        }
    }

    /// The first `now_ms` at which [`RoundState::on_tick`] moves the
    /// round on: the end of the selection window during Selection, of the
    /// reporting window during Reporting; `None` once terminal.
    pub fn next_deadline(&self) -> Option<u64> {
        match self.phase {
            Phase::Selection => Some(self.started_at_ms + self.config.selection_timeout_ms),
            // Reporting is only entered from Configuration, which stamps
            // `configured_at_ms`; if the stamp is somehow missing, fall
            // back to the round start so the window still closes instead
            // of panicking or hanging forever.
            Phase::Reporting => Some(
                self.configured_at_ms.unwrap_or(self.started_at_ms) + self.config.report_window_ms,
            ),
            Phase::Committed | Phase::Abandoned => None,
        }
    }

    /// Clock tick: applies the selection/reporting timeout once
    /// [`RoundState::next_deadline`] is due.
    pub fn on_tick(&mut self, now_ms: u64) {
        if self.next_deadline().is_none_or(|due| now_ms < due) {
            return;
        }
        if self.phase == Phase::Reporting {
            self.close_reporting(now_ms);
        } else if self.checked_in.len() >= self.config.min_to_start() {
            self.configure(now_ms);
        } else {
            self.finish(
                now_ms,
                RoundOutcome::AbandonedInSelection {
                    checked_in: self.checked_in.len(),
                    required: self.config.min_to_start(),
                },
            );
        }
    }

    /// A participant reports its update at `now_ms`.
    pub fn on_report(&mut self, device: DeviceId, now_ms: u64) -> ReportResponse {
        let reporting = self.phase == Phase::Reporting;
        let goal_reached = self.reported >= self.config.goal_count;
        let Some(state) = self.state_of(device) else {
            return ReportResponse::NotParticipant;
        };
        let ParticipantState::Configured { at_ms } = *state else {
            // Already terminal. After the window closed, a device the
            // server aborted or dropped may still attempt its upload; the
            // server rejects it (Table 1 `#`).
            return if reporting {
                ReportResponse::NotParticipant
            } else {
                ReportResponse::RejectedLate
            };
        };
        let participation_ms = now_ms.saturating_sub(at_ms);
        if !reporting {
            // After the window closed, reports are late.
            *state = ParticipantState::RejectedLate { participation_ms };
            self.rejected_late += 1;
            ReportResponse::RejectedLate
        } else if !goal_reached {
            *state = ParticipantState::Reported { participation_ms };
            self.reported += 1;
            if self.reported >= self.config.goal_count {
                self.close_reporting(now_ms);
            }
            ReportResponse::Accepted
        } else {
            *state = ParticipantState::Aborted { participation_ms };
            self.aborted += 1;
            ReportResponse::Aborted
        }
    }

    /// A participant dropped out (error, network failure, eligibility
    /// change) at `now_ms`.
    pub fn on_dropout(&mut self, device: DeviceId, now_ms: u64) {
        if let Some(state) = self.state_of(device) {
            if let ParticipantState::Configured { at_ms } = *state {
                let participation_ms = now_ms.saturating_sub(at_ms);
                *state = ParticipantState::DroppedOut { participation_ms };
                self.dropped += 1;
            }
        }
    }

    fn configure(&mut self, now_ms: u64) {
        self.phase = Phase::Reporting;
        self.configured_at_ms = Some(now_ms);
        // The check-ins are sorted, so the table comes out sorted.
        self.participants = std::mem::take(&mut self.checked_in)
            .into_iter()
            .map(|d| (d, ParticipantState::Configured { at_ms: now_ms }))
            .collect();
        self.events.push(RoundEvent::Configured {
            at_ms: now_ms,
            participants: self.participants.len(),
        });
    }

    fn close_reporting(&mut self, now_ms: u64) {
        // Outstanding devices are aborted by the server (participation time
        // capped, Fig. 8).
        for (_, state) in &mut self.participants {
            if let ParticipantState::Configured { at_ms } = *state {
                let participation_ms = now_ms.saturating_sub(at_ms).min(self.config.device_cap_ms);
                *state = ParticipantState::Aborted { participation_ms };
                self.aborted += 1;
            }
        }
        let outcome = if self.reported >= self.config.goal_count
            || self.reported >= self.config.min_to_start()
        {
            RoundOutcome::Committed {
                incorporated: self.reported,
                aborted: self.aborted,
                dropped_out: self.dropped,
            }
        } else {
            RoundOutcome::AbandonedInReporting {
                reported: self.reported,
                required: self.config.min_to_start(),
            }
        };
        self.finish(now_ms, outcome);
    }

    fn finish(&mut self, now_ms: u64, outcome: RoundOutcome) {
        self.phase = if outcome.is_committed() {
            Phase::Committed
        } else {
            Phase::Abandoned
        };
        self.finished_at_ms = Some(now_ms);
        self.events.push(RoundEvent::Finished {
            at_ms: now_ms,
            outcome,
        });
    }

    /// The outcome, if the round is finished.
    pub fn outcome(&self) -> Option<RoundOutcome> {
        self.events.iter().rev().find_map(|e| match e {
            RoundEvent::Finished { outcome, .. } => Some(*outcome),
            _ => None,
        })
    }

    /// Wall-clock duration of the round so far / total (Fig. 8's "round
    /// execution time": configuration → finish).
    pub fn run_time_ms(&self) -> Option<u64> {
        match (self.configured_at_ms, self.finished_at_ms) {
            (Some(s), Some(e)) => Some(e.saturating_sub(s)),
            _ => None,
        }
    }

    /// Per-device participation times with their final states, for the
    /// Fig. 8 distribution.
    pub fn participation_times(&self) -> Vec<(DeviceId, &'static str, u64)> {
        self.participants
            .iter()
            .filter_map(|&(d, s)| match s {
                ParticipantState::Reported { participation_ms } => {
                    Some((d, "completed", participation_ms))
                }
                ParticipantState::Aborted { participation_ms } => {
                    Some((d, "aborted", participation_ms))
                }
                ParticipantState::DroppedOut { participation_ms } => {
                    Some((d, "dropped", participation_ms))
                }
                ParticipantState::RejectedLate { participation_ms } => {
                    Some((d, "rejected", participation_ms))
                }
                ParticipantState::Configured { .. } => None,
            })
            .collect()
    }

    /// Counters: (reported, aborted, dropped, rejected-late).
    pub fn counters(&self) -> (usize, usize, usize, usize) {
        (
            self.reported,
            self.aborted,
            self.dropped,
            self.rejected_late,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn config(goal: usize) -> RoundConfig {
        RoundConfig {
            goal_count: goal,
            overselection: 1.3,
            min_goal_fraction: 0.8,
            selection_timeout_ms: 10_000,
            report_window_ms: 30_000,
            device_cap_ms: 25_000,
        }
    }

    fn fill_selection(r: &mut RoundState, n: usize, t: u64) {
        for i in 0..n {
            assert_eq!(
                r.on_checkin(DeviceId(i as u64), t),
                CheckinResponse::Selected
            );
        }
    }

    /// Ticks `r` just before and at its `next_deadline`, which must be
    /// exactly the first `now_ms` that moves it on.
    fn tick_at_deadline(r: &mut RoundState, due: u64) {
        assert_eq!(r.next_deadline(), Some(due));
        let phase = r.phase();
        r.on_tick(due - 1);
        assert_eq!(r.phase(), phase, "moved before its deadline");
        r.on_tick(due);
        assert_ne!(r.phase(), phase, "did not move at its deadline");
    }

    #[test]
    fn reaching_target_configures_immediately() {
        let mut r = RoundState::begin(RoundId(1), config(10), 0);
        fill_selection(&mut r, 13, 100); // 1.3 × 10
        assert_eq!(r.phase(), Phase::Reporting);
        assert_eq!(r.participants().len(), 13);
        let events = r.drain_events();
        assert!(matches!(
            events[0],
            RoundEvent::Configured {
                participants: 13,
                ..
            }
        ));
    }

    #[test]
    fn selection_timeout_with_enough_starts_round() {
        let mut r = RoundState::begin(RoundId(1), config(10), 0);
        fill_selection(&mut r, 9, 100); // ≥ 8 (min fraction 0.8)
        assert_eq!(r.phase(), Phase::Selection);
        tick_at_deadline(&mut r, 10_000);
        assert_eq!(r.phase(), Phase::Reporting);
        assert_eq!(r.participants().len(), 9);
        // The reporting window runs from the configuration.
        assert_eq!(r.next_deadline(), Some(10_000 + 30_000));
    }

    #[test]
    fn selection_timeout_without_enough_abandons() {
        let mut r = RoundState::begin(RoundId(1), config(10), 0);
        fill_selection(&mut r, 3, 100);
        tick_at_deadline(&mut r, 10_000);
        assert_eq!(r.phase(), Phase::Abandoned);
        assert_eq!(r.next_deadline(), None);
        assert_eq!(
            r.outcome(),
            Some(RoundOutcome::AbandonedInSelection {
                checked_in: 3,
                required: 8
            })
        );
    }

    #[test]
    fn goal_reached_commits_and_aborts_stragglers() {
        let mut r = RoundState::begin(RoundId(1), config(4), 0);
        fill_selection(&mut r, 6, 100); // target ⌈5.2⌉ = 6
        assert_eq!(r.phase(), Phase::Reporting);
        let devices = r.participants();
        // 4 devices report (goal) — the rest get aborted.
        for d in devices.iter().take(3) {
            assert_eq!(r.on_report(*d, 5_000), ReportResponse::Accepted);
        }
        assert_eq!(r.phase(), Phase::Reporting);
        assert_eq!(r.on_report(devices[3], 6_000), ReportResponse::Accepted);
        assert_eq!(r.phase(), Phase::Committed);
        assert_eq!(r.next_deadline(), None);
        assert_eq!(
            r.outcome(),
            Some(RoundOutcome::Committed {
                incorporated: 4,
                aborted: 2,
                dropped_out: 0
            })
        );
        // A straggler reporting after commit is rejected late.
        assert_eq!(r.on_report(devices[4], 7_000), ReportResponse::RejectedLate);
    }

    #[test]
    fn report_window_timeout_commits_if_min_reached() {
        let mut r = RoundState::begin(RoundId(1), config(10), 0);
        fill_selection(&mut r, 13, 100);
        let devices = r.participants();
        for d in devices.iter().take(8) {
            // exactly min_to_start
            r.on_report(*d, 5_000);
        }
        tick_at_deadline(&mut r, 100 + 30_000);
        assert_eq!(r.next_deadline(), None);
        assert!(matches!(
            r.outcome(),
            Some(RoundOutcome::Committed {
                incorporated: 8,
                ..
            })
        ));
    }

    #[test]
    fn report_window_timeout_abandons_if_too_few() {
        let mut r = RoundState::begin(RoundId(1), config(10), 0);
        fill_selection(&mut r, 13, 100);
        let devices = r.participants();
        for d in devices.iter().take(3) {
            r.on_report(*d, 5_000);
        }
        r.on_tick(100 + 30_000);
        assert_eq!(
            r.outcome(),
            Some(RoundOutcome::AbandonedInReporting {
                reported: 3,
                required: 8
            })
        );
    }

    #[test]
    fn dropouts_are_counted() {
        let mut r = RoundState::begin(RoundId(1), config(4), 0);
        fill_selection(&mut r, 6, 100);
        let devices = r.participants();
        r.on_dropout(devices[0], 2_000);
        r.on_dropout(devices[1], 3_000);
        for d in devices.iter().skip(2) {
            r.on_report(*d, 5_000);
        }
        assert_eq!(
            r.outcome(),
            Some(RoundOutcome::Committed {
                incorporated: 4,
                aborted: 0,
                dropped_out: 2
            })
        );
    }

    #[test]
    fn participation_times_are_capped_for_aborted() {
        let mut r = RoundState::begin(RoundId(1), config(4), 0);
        fill_selection(&mut r, 6, 0);
        let devices = r.participants();
        for d in devices.iter().take(3) {
            r.on_report(*d, 5_000);
        }
        // Window closes; 3 outstanding are aborted with capped times.
        r.on_tick(30_000);
        for (_, state, t) in r.participation_times() {
            if state == "aborted" {
                assert!(t <= 25_000, "participation {t} exceeds cap");
            }
        }
    }

    #[test]
    fn checkins_after_configuration_are_turned_away() {
        let mut r = RoundState::begin(RoundId(1), config(4), 0);
        fill_selection(&mut r, 6, 0);
        assert_eq!(
            r.on_checkin(DeviceId(999), 200),
            CheckinResponse::NotSelecting
        );
    }

    /// Regression (satellite 2): a duplicate check-in from an
    /// already-selected device — a retry after a lost response — must be
    /// answered idempotently, not `NotSelecting` (which pace-steered the
    /// participant away from a round it belongs to).
    #[test]
    fn duplicate_checkin_is_idempotent() {
        let mut r = RoundState::begin(RoundId(1), config(10), 0);
        assert_eq!(r.on_checkin(DeviceId(1), 0), CheckinResponse::Selected);
        assert_eq!(
            r.on_checkin(DeviceId(1), 0),
            CheckinResponse::AlreadySelected
        );
        // The duplicate did not consume a second selection slot.
        assert_eq!(r.checked_in.len(), 1);
    }

    /// Regression (satellite 2, Reporting phase): a participant retrying
    /// its check-in after configuration keeps its slot while it is live,
    /// and is turned away once its per-device state is terminal.
    #[test]
    fn duplicate_checkin_during_reporting_keeps_slot() {
        let mut r = RoundState::begin(RoundId(1), config(4), 0);
        fill_selection(&mut r, 6, 100);
        assert_eq!(r.phase(), Phase::Reporting);
        let devices = r.participants();
        // Still configured → idempotent re-admission.
        assert_eq!(
            r.on_checkin(devices[0], 200),
            CheckinResponse::AlreadySelected
        );
        // After it reports, its slot is spent.
        assert_eq!(r.on_report(devices[0], 5_000), ReportResponse::Accepted);
        assert_eq!(
            r.on_checkin(devices[0], 6_000),
            CheckinResponse::NotSelecting
        );
        // A stranger is still turned away.
        assert_eq!(
            r.on_checkin(DeviceId(999), 200),
            CheckinResponse::NotSelecting
        );
    }

    #[test]
    fn non_participant_report_is_flagged() {
        let mut r = RoundState::begin(RoundId(1), config(4), 0);
        fill_selection(&mut r, 6, 0);
        assert_eq!(
            r.on_report(DeviceId(999), 1_000),
            ReportResponse::NotParticipant
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Checkin(u8),
            Report(u8),
            Dropout(u8),
            Tick(u32),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u8..40).prop_map(Op::Checkin),
                (0u8..40).prop_map(Op::Report),
                (0u8..40).prop_map(Op::Dropout),
                (0u32..60_000).prop_map(Op::Tick),
            ]
        }

        /// The round as it kept its participants before the sorted table:
        /// a `BTreeMap` from device to state, every transition as it was.
        /// The oracle the table is checked against.
        struct BTreeRound {
            config: RoundConfig,
            phase: Phase,
            started_at_ms: u64,
            configured_at_ms: Option<u64>,
            checked_in: BTreeSet<DeviceId>,
            participants: std::collections::BTreeMap<DeviceId, ParticipantState>,
            counters: (usize, usize, usize, usize),
            outcome: Option<RoundOutcome>,
        }

        impl BTreeRound {
            fn begin(config: RoundConfig) -> Self {
                BTreeRound {
                    config,
                    phase: Phase::Selection,
                    started_at_ms: 0,
                    configured_at_ms: None,
                    checked_in: BTreeSet::new(),
                    participants: Default::default(),
                    counters: (0, 0, 0, 0),
                    outcome: None,
                }
            }

            fn on_checkin(&mut self, device: DeviceId, now_ms: u64) -> CheckinResponse {
                match self.phase {
                    Phase::Selection => {
                        if !self.checked_in.insert(device) {
                            return CheckinResponse::AlreadySelected;
                        }
                        if self.checked_in.len() >= self.config.selection_target() {
                            self.configure(now_ms);
                        }
                        CheckinResponse::Selected
                    }
                    Phase::Reporting => match self.participants.get(&device) {
                        Some(ParticipantState::Configured { .. }) => {
                            CheckinResponse::AlreadySelected
                        }
                        _ => CheckinResponse::NotSelecting,
                    },
                    Phase::Committed | Phase::Abandoned => CheckinResponse::NotSelecting,
                }
            }

            fn on_tick(&mut self, now_ms: u64) {
                let due = match self.phase {
                    Phase::Selection => self.started_at_ms + self.config.selection_timeout_ms,
                    Phase::Reporting => {
                        self.configured_at_ms.unwrap_or(0) + self.config.report_window_ms
                    }
                    Phase::Committed | Phase::Abandoned => return,
                };
                if now_ms < due {
                    return;
                }
                if self.phase == Phase::Reporting {
                    self.close_reporting(now_ms);
                } else if self.checked_in.len() >= self.config.min_to_start() {
                    self.configure(now_ms);
                } else {
                    self.phase = Phase::Abandoned;
                    self.outcome = Some(RoundOutcome::AbandonedInSelection {
                        checked_in: self.checked_in.len(),
                        required: self.config.min_to_start(),
                    });
                }
            }

            fn on_report(&mut self, device: DeviceId, now_ms: u64) -> ReportResponse {
                let state = self.participants.get(&device).copied();
                if self.phase != Phase::Reporting {
                    return match state {
                        Some(ParticipantState::Configured { at_ms }) => {
                            let participation_ms = now_ms.saturating_sub(at_ms);
                            self.participants.insert(
                                device,
                                ParticipantState::RejectedLate { participation_ms },
                            );
                            self.counters.3 += 1;
                            ReportResponse::RejectedLate
                        }
                        Some(_) => ReportResponse::RejectedLate,
                        None => ReportResponse::NotParticipant,
                    };
                }
                let Some(ParticipantState::Configured { at_ms }) = state else {
                    return ReportResponse::NotParticipant;
                };
                let participation_ms = now_ms.saturating_sub(at_ms);
                if self.counters.0 < self.config.goal_count {
                    self.participants
                        .insert(device, ParticipantState::Reported { participation_ms });
                    self.counters.0 += 1;
                    if self.counters.0 >= self.config.goal_count {
                        self.close_reporting(now_ms);
                    }
                    ReportResponse::Accepted
                } else {
                    self.participants
                        .insert(device, ParticipantState::Aborted { participation_ms });
                    self.counters.1 += 1;
                    ReportResponse::Aborted
                }
            }

            fn on_dropout(&mut self, device: DeviceId, now_ms: u64) {
                if let Some(ParticipantState::Configured { at_ms }) = self.participants.get(&device)
                {
                    let participation_ms = now_ms.saturating_sub(*at_ms);
                    self.participants
                        .insert(device, ParticipantState::DroppedOut { participation_ms });
                    self.counters.2 += 1;
                }
            }

            fn configure(&mut self, now_ms: u64) {
                self.phase = Phase::Reporting;
                self.configured_at_ms = Some(now_ms);
                for &d in &self.checked_in {
                    self.participants
                        .insert(d, ParticipantState::Configured { at_ms: now_ms });
                }
            }

            fn close_reporting(&mut self, now_ms: u64) {
                for state in self.participants.values_mut() {
                    if let ParticipantState::Configured { at_ms } = *state {
                        let participation_ms =
                            now_ms.saturating_sub(at_ms).min(self.config.device_cap_ms);
                        *state = ParticipantState::Aborted { participation_ms };
                        self.counters.1 += 1;
                    }
                }
                let (reported, aborted, dropped_out, _) = self.counters;
                let outcome = if reported >= self.config.goal_count
                    || reported >= self.config.min_to_start()
                {
                    RoundOutcome::Committed {
                        incorporated: reported,
                        aborted,
                        dropped_out,
                    }
                } else {
                    RoundOutcome::AbandonedInReporting {
                        reported,
                        required: self.config.min_to_start(),
                    }
                };
                self.phase = if outcome.is_committed() {
                    Phase::Committed
                } else {
                    Phase::Abandoned
                };
                self.outcome = Some(outcome);
            }

            fn participation_times(&self) -> Vec<(DeviceId, &'static str, u64)> {
                self.participants
                    .iter()
                    .filter_map(|(&d, s)| match *s {
                        ParticipantState::Reported { participation_ms } => {
                            Some((d, "completed", participation_ms))
                        }
                        ParticipantState::Aborted { participation_ms } => {
                            Some((d, "aborted", participation_ms))
                        }
                        ParticipantState::DroppedOut { participation_ms } => {
                            Some((d, "dropped", participation_ms))
                        }
                        ParticipantState::RejectedLate { participation_ms } => {
                            Some((d, "rejected", participation_ms))
                        }
                        ParticipantState::Configured { .. } => None,
                    })
                    .collect()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Under ANY event sequence: counters never exceed the
            /// participant count, terminal phases are absorbing, and a
            /// committed outcome's parts sum to at most the participants.
            #[test]
            fn invariants_hold_under_arbitrary_event_sequences(
                ops in proptest::collection::vec(op_strategy(), 1..120),
            ) {
                let mut r = RoundState::begin(RoundId(1), config(5), 0);
                let mut now = 0u64;
                let mut finished_phase: Option<Phase> = None;
                for op in ops {
                    match op {
                        Op::Checkin(d) => {
                            let _ = r.on_checkin(DeviceId(u64::from(d)), now);
                        }
                        Op::Report(d) => {
                            let _ = r.on_report(DeviceId(u64::from(d)), now);
                        }
                        Op::Dropout(d) => r.on_dropout(DeviceId(u64::from(d)), now),
                        Op::Tick(dt) => {
                            now += u64::from(dt);
                            r.on_tick(now);
                        }
                    }
                    let participants = r.participants().len();
                    let (reported, aborted, dropped, rejected) = r.counters();
                    prop_assert!(reported + aborted + dropped + rejected <= participants,
                        "counter overflow");
                    match finished_phase {
                        Some(p) => prop_assert_eq!(r.phase(), p, "terminal phase changed"),
                        None => {
                            if matches!(r.phase(), Phase::Committed | Phase::Abandoned) {
                                finished_phase = Some(r.phase());
                            }
                        }
                    }
                }
                if let Some(RoundOutcome::Committed { incorporated, aborted, dropped_out }) = r.outcome() {
                    let participants = r.participants().len();
                    prop_assert!(incorporated + aborted + dropped_out <= participants);
                    prop_assert!(incorporated >= r.config.min_to_start()
                        || incorporated >= r.config.goal_count);
                }
            }

            /// The sorted table answers every call as the `BTreeMap` one
            /// did, and ends with the same participation times, under any
            /// sequence.
            #[test]
            fn the_sorted_table_answers_as_the_btree_map_did(
                ops in proptest::collection::vec(op_strategy(), 1..160),
                goal in 1usize..12,
            ) {
                let mut r = RoundState::begin(RoundId(1), config(goal), 0);
                let mut model = BTreeRound::begin(config(goal));
                let mut now = 0u64;
                for op in ops {
                    match op {
                        Op::Checkin(d) => {
                            let d = DeviceId(u64::from(d));
                            prop_assert_eq!(r.on_checkin(d, now), model.on_checkin(d, now));
                        }
                        Op::Report(d) => {
                            let d = DeviceId(u64::from(d));
                            prop_assert_eq!(r.on_report(d, now), model.on_report(d, now));
                        }
                        Op::Dropout(d) => {
                            let d = DeviceId(u64::from(d));
                            r.on_dropout(d, now);
                            model.on_dropout(d, now);
                        }
                        Op::Tick(dt) => {
                            now += u64::from(dt);
                            r.on_tick(now);
                            model.on_tick(now);
                        }
                    }
                    prop_assert_eq!(r.phase(), model.phase);
                    prop_assert_eq!(r.counters(), model.counters);
                    prop_assert_eq!(r.outcome(), model.outcome);
                    prop_assert_eq!(
                        r.participants(),
                        model.participants.keys().copied().collect::<Vec<_>>()
                    );
                    prop_assert_eq!(r.participation_times(), model.participation_times());
                }
            }

            /// Participation times never exceed the device cap for
            /// aborted devices, under any sequence.
            #[test]
            fn aborted_participation_respects_cap(
                ops in proptest::collection::vec(op_strategy(), 1..120),
            ) {
                let mut r = RoundState::begin(RoundId(1), config(5), 0);
                let mut now = 0u64;
                for op in ops {
                    match op {
                        Op::Checkin(d) => { let _ = r.on_checkin(DeviceId(u64::from(d)), now); }
                        Op::Report(d) => { let _ = r.on_report(DeviceId(u64::from(d)), now); }
                        Op::Dropout(d) => r.on_dropout(DeviceId(u64::from(d)), now),
                        Op::Tick(dt) => { now += u64::from(dt); r.on_tick(now); }
                    }
                }
                if r.outcome().is_some() {
                    for (_, state, t) in r.participation_times() {
                        if state == "aborted" {
                            prop_assert!(t <= r.config.device_cap_ms);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn run_time_spans_configuration_to_finish() {
        let mut r = RoundState::begin(RoundId(1), config(4), 0);
        fill_selection(&mut r, 6, 1_000);
        let devices = r.participants();
        for d in devices.iter().take(4) {
            r.on_report(*d, 9_000);
        }
        assert_eq!(r.run_time_ms(), Some(8_000));
    }
}
