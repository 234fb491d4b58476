//! Fleet-dynamics simulation: Figs. 5–9 and Table 1.
//!
//! Drives the real `fl-server` round state machine and pace steering with
//! an event-driven fleet of simulated devices under the diurnal
//! availability model ([`crate::availability`]) and heterogeneous
//! network/compute profiles ([`crate::network`]). No actual ML runs here —
//! payload sizes and per-device work are parameters — which is what lets a
//! 20k-device, multi-day simulation finish in seconds while the *protocol
//! dynamics* (selection, over-selection, straggler discard, drop-outs,
//! pace steering back-pressure) are all real code paths.

use crate::availability::{DiurnalAvailability, EligibleGauge};
use crate::des::EventQueue;
use crate::network::NetworkModel;
use crate::{DAY_MS, HOUR_MS};
use fl_analytics::sessions::SessionShapeTable;
use fl_analytics::timeseries::TimeSeries;
use fl_core::plan::{CodecSpec, ModelSpec};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::traffic::{TrafficCounter, TrafficKind};
use fl_core::{DeviceId, FlCheckpoint, FlPlan, RoundId};
use fl_ml::rng;
use fl_server::pace::PaceSteering;
use fl_server::round::{CheckinResponse, Phase, ReportResponse, RoundEvent, RoundState};
use fl_server::wire::WireMessage;
use rand::RngExt;

/// The representative FIG9 workload: an embedding language model of
/// ~1.4 M parameters (the paper's LSTM scale) whose update uploads int8
/// block-quantized (Sec. 5's ~4× compression).
pub const FIG9_MODEL: ModelSpec = ModelSpec::EmbeddingLm {
    vocab: 10_000,
    dim: 70,
    seed: 42,
};
/// The FIG9 upload codec.
pub const FIG9_CODEC: CodecSpec = CodecSpec::Quantize { block: 256 };

/// Measures FIG9's per-participant payload sizes from real `fl-wire`
/// frames rather than analytic estimates: returns
/// `(plan_bytes, checkpoint_bytes, update_bytes)` where the download is
/// the [`WireMessage::PlanAndCheckpoint`] frame for `model` (the plan's
/// share is the frame minus the nested checkpoint blob, so frame
/// framing/header overhead is charged to the plan) and the upload is the
/// [`WireMessage::UpdateReport`] frame carrying the codec-compressed
/// update. Each is the length `fl_wire::encode` gives the message
/// (`fl_wire::encoded_len`), read without building the frame, which for
/// the download is ~11 MB beside the model.
pub fn measured_payload_sizes(model: ModelSpec, codec: CodecSpec) -> (usize, usize, usize) {
    let (download, checkpoint_bytes, upload) = fig9_frames(model, codec);
    let plan_bytes = fl_server::wire::encoded_len(&download).saturating_sub(checkpoint_bytes);
    (
        plan_bytes,
        checkpoint_bytes,
        fl_server::wire::encoded_len(&upload),
    )
}

/// The download [`measured_payload_sizes`] measures for `model` and
/// `codec`, its checkpoint's encoded size, and the upload.
fn fig9_frames(model: ModelSpec, codec: CodecSpec) -> (WireMessage, usize, WireMessage) {
    let params = vec![0.0f32; model.num_params()];
    let upload = WireMessage::UpdateReport {
        device: DeviceId(0),
        round: RoundId(1),
        attempt: 1,
        update_bytes: codec.build().encode(&params),
        weight: 1,
        loss: 0.0,
        accuracy: 0.0,
        population: fl_core::PopulationName::new("fleet/train"),
    };
    let checkpoint = FlCheckpoint::new("fleet/train", RoundId(1), params);
    let checkpoint_bytes = checkpoint.encoded_size();
    let download = WireMessage::PlanAndCheckpoint {
        plan: Box::new(FlPlan::standard_training(model, 1, 16, 0.1, codec)),
        checkpoint: Box::new(checkpoint),
        population: fl_core::PopulationName::new("fleet/train"),
    };
    (download, checkpoint_bytes, upload)
}

/// Fleet simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of devices in the fleet.
    pub devices: u64,
    /// Simulated duration in days.
    pub days: u64,
    /// Round configuration (goal count, over-selection, windows).
    pub round: RoundConfig,
    /// Encoded FL-plan size in bytes (paper: comparable to the model).
    pub plan_bytes: usize,
    /// Encoded checkpoint size in bytes.
    pub checkpoint_bytes: usize,
    /// Encoded (compressed) update size in bytes.
    pub update_bytes: usize,
    /// Training examples processed per device per round (sets compute
    /// time through the device's speed profile).
    pub work_units: u64,
    /// Base check-in period while eligible (pace steering stretches it).
    pub checkin_period_ms: u64,
    /// Transient failure probability per participation.
    pub failure_probability: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        // Payload sizes are measured from real encoded `fl-wire` frames
        // for the FIG9 workload, not estimated: ~1.4M params land near
        // 5.6 MB plan/checkpoint downloads and a ~1.4 MB quantized
        // upload, but the exact numbers come from the codec.
        let (plan_bytes, checkpoint_bytes, update_bytes) =
            measured_payload_sizes(FIG9_MODEL, FIG9_CODEC);
        FleetConfig {
            devices: 20_000,
            days: 3,
            round: RoundConfig::default(),
            plan_bytes,
            checkpoint_bytes,
            update_bytes,
            work_units: 60_000, // ≈2 min median compute ("each round takes about 2–3 minutes")
            checkin_period_ms: 60_000,
            failure_probability: 0.03,
            seed: 42,
        }
    }
}

/// Per-round statistics (Fig. 7 rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Round sequence number.
    pub seq: u64,
    /// Virtual time the round finished.
    pub finished_at_ms: u64,
    /// Outcome with counters.
    pub outcome: RoundOutcome,
    /// Configuration → finish duration.
    pub run_time_ms: u64,
    /// Hour-of-day (0–23) at finish.
    pub hour_of_day: u64,
}

/// Everything the fleet simulation measures.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The configuration that produced this report.
    pub config: FleetConfig,
    /// Participating devices (in-flight in a round), sampled gauge.
    pub participating: TimeSeries,
    /// Eligible-but-waiting devices, sampled gauge (Fig. 6).
    pub waiting: TimeSeries,
    /// Devices entering participation per bucket (the paper's
    /// "participating devices over a 24 hours period" count).
    pub participating_starts: TimeSeries,
    /// Successful round completions per bucket (Figs. 5–6 bottom).
    pub completions: TimeSeries,
    /// Per-round stats (Fig. 7).
    pub rounds: Vec<RoundStats>,
    /// Participation times of completed devices (Fig. 8).
    pub participation_completed_ms: Vec<u64>,
    /// Participation times of aborted devices (Fig. 8).
    pub participation_aborted_ms: Vec<u64>,
    /// Round run times (Fig. 8).
    pub round_run_times_ms: Vec<u64>,
    /// Session-shape distribution (Table 1).
    pub sessions: SessionShapeTable,
    /// Server traffic (Fig. 9).
    pub traffic: TrafficCounter,
    /// Total check-ins accepted/rejected at the selector layer.
    pub checkins: (u64, u64),
    /// Device drop-out events per bucket (device-side view, independent of
    /// whether the round was still open when the drop-out fired).
    pub dropout_events: TimeSeries,
}

impl FleetReport {
    /// Overall drop-out fraction among configured devices (paper: 6–10%).
    pub fn dropout_rate(&self) -> f64 {
        let (mut dropped, mut total) = (0usize, 0usize);
        for r in &self.rounds {
            if let RoundOutcome::Committed {
                incorporated,
                aborted,
                dropped_out,
            } = r.outcome
            {
                dropped += dropped_out;
                total += incorporated + aborted + dropped_out;
            }
        }
        if total == 0 {
            0.0
        } else {
            dropped as f64 / total as f64
        }
    }

    /// Mean drop-out counts by day/night (Fig. 7's diurnal correlation).
    /// Day = 09:00–21:00 local.
    pub fn dropout_by_daypart(&self) -> (f64, f64) {
        let mut day = (0u64, 0u64); // (dropped, rounds)
        let mut night = (0u64, 0u64);
        for r in &self.rounds {
            if let RoundOutcome::Committed { dropped_out, .. } = r.outcome {
                let slot = if (9..21).contains(&r.hour_of_day) {
                    &mut day
                } else {
                    &mut night
                };
                slot.0 += dropped_out as u64;
                slot.1 += 1;
            }
        }
        (
            day.0 as f64 / day.1.max(1) as f64,
            night.0 as f64 / night.1.max(1) as f64,
        )
    }

    /// Device-side drop-out *rate* (drop-outs per participating device)
    /// split by day (09:00–21:00) and night, from the event streams —
    /// the measurement behind Fig. 7's "drop out rate is higher during
    /// the day time".
    pub fn dropout_rate_by_daypart(&self) -> (f64, f64) {
        let buckets_per_day = (crate::DAY_MS / self.dropout_events.bucket_ms()) as usize;
        let drops = self.dropout_events.sums();
        let starts = self.participating_starts.sums();
        let mut day = (0.0f64, 0.0f64); // (dropouts, starts)
        let mut night = (0.0f64, 0.0f64);
        for i in 0..drops.len().max(starts.len()) {
            let hour = (i % buckets_per_day) * 24 / buckets_per_day;
            let slot = if (9..21).contains(&hour) {
                &mut day
            } else {
                &mut night
            };
            slot.0 += drops.get(i).copied().unwrap_or(0.0);
            slot.1 += starts.get(i).copied().unwrap_or(0.0);
        }
        (day.0 / day.1.max(1.0), night.0 / night.1.max(1.0))
    }

    /// Committed rounds count.
    pub fn committed_rounds(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.outcome.is_committed())
            .count()
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A device wakes up and attempts a check-in. `until_ms` is the end of
    /// the eligibility window the wake-up was scheduled into, or, for a
    /// pace-steering retry, of the one the device was turned away in: an
    /// event that fires before it need not ask again.
    Checkin { device: u32, until_ms: u32 },
    /// A selected device finishes training + upload.
    Report { device: u32, round_seq: u32 },
    /// A selected device drops out (eligibility change or failure).
    Dropout {
        device: u32,
        round_seq: u32,
        reason: DropReason,
    },
    /// Round phase timeout check.
    RoundTick { round_seq: u32 },
    /// Periodic gauge sampling.
    Sample,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DropReason {
    EligibilityChange,
    TransientFailure,
}

/// Table 1's session shapes, one literal per way a participation ends: the
/// [`fl_core::DeviceEvent::glyph`]s of the device events it stands for
/// (`shape_literals_are_the_device_events_glyphs`).
const UPLOADED: &str = "-v[]+^";
const REJECTED: &str = "-v[]+#";
const INTERRUPTED: &str = "-v[!";
const FAILED: &str = "-v[*";

struct ActiveRound {
    seq: u32,
    state: RoundState,
    /// Participants, in check-in order.
    participants: Vec<u32>,
}

/// The most devices a fleet may have: an event names a device in 32 bits.
const MAX_DEVICES: u64 = 1 << 32;

/// The most days a run may last: its end, `days * DAY_MS`, is a time of
/// 32 bits, as is every time an event carries.
const MAX_DAYS: u64 = u32::MAX as u64 / DAY_MS;

/// The fleet's event queue: every time of a run fits 32 bits of ms, so
/// its far tier stores them in 32.
type Queue = EventQueue<Event, u32>;

/// Bytes a pending event takes where a run's peak of them waits, the
/// queue's far tier: its due time in 32 bits and the event.
pub const PENDING_EVENT_BYTES: usize = Queue::FAR_ENTRY_BYTES;

/// Runs the fleet simulation.
///
/// # Panics
///
/// As [`run_counting_events`].
pub fn run(config: &FleetConfig) -> FleetReport {
    run_counting_events(config).0
}

/// Runs the fleet simulation, and counts the events it processed and the
/// most that were ever pending at once.
///
/// # Panics
///
/// Panics when the fleet has more than 2^32 devices, or when the run is
/// longer than 49 days, past `u32::MAX` ms: an event names a device, and
/// carries a time, in 32 bits.
pub fn run_counting_events(config: &FleetConfig) -> (FleetReport, u64, usize) {
    assert!(
        config.devices <= MAX_DEVICES,
        "a fleet has at most 2^32 devices, not {}",
        config.devices
    );
    assert!(
        config.days <= MAX_DAYS,
        "a fleet runs at most {MAX_DAYS} days, not {}",
        config.days
    );
    let horizon = config.days * DAY_MS;
    let availability = DiurnalAvailability::us_centric(config.seed);
    let network = NetworkModel::new(config.seed ^ 0xBEEF, config.failure_probability);
    let pace = PaceSteering::new(
        config.checkin_period_ms,
        config.round.selection_target() as u64,
    );
    let mut rng = rng::seeded(config.seed ^ 0xF1EE7);
    let mut queue = Queue::until(horizon);

    let bucket = 30 * 60_000; // 30-minute buckets for the time series
    let mut report = FleetReport {
        config: *config,
        participating: TimeSeries::new("participating", bucket, 0),
        waiting: TimeSeries::new("waiting", bucket, 0),
        participating_starts: TimeSeries::new("participating starts", bucket, 0),
        completions: TimeSeries::new("round completions", bucket, 0),
        rounds: Vec::new(),
        participation_completed_ms: Vec::new(),
        participation_aborted_ms: Vec::new(),
        round_run_times_ms: Vec::new(),
        sessions: SessionShapeTable::new(),
        traffic: TrafficCounter::new(),
        checkins: (0, 0),
        dropout_events: TimeSeries::new("dropouts", bucket, 0),
    };

    // Bootstrap: every device schedules its first wake-up up to four
    // check-in periods after its first eligibility window opens (which can
    // be after a short window has closed again). Every device draws its
    // jitter; only a wake-up inside the run asks for its window's end.
    for id in 0..config.devices {
        if let Some(w) = availability.next_window_lazily(id, 0) {
            let jitter = rng.random_range(0..config.checkin_period_ms * 4);
            let at_ms = w.start_ms + jitter;
            if at_ms <= horizon {
                let until_ms = checkin_until(w.end_ms());
                let device = u32::try_from(id).expect("the fleet's size was checked");
                queue.schedule_at(at_ms, Event::Checkin { device, until_ms });
            }
        }
    }
    queue.schedule_at(0, Event::Sample);

    // The first round opens immediately.
    let mut round_seq: u32 = 0;
    let mut active = ActiveRound {
        seq: 0,
        state: RoundState::begin(RoundId(1), config.round, 0),
        participants: Vec::new(),
    };
    queue.schedule_at(
        config.round.selection_timeout_ms,
        Event::RoundTick { round_seq: 0 },
    );

    // In-flight device count (the "participating" gauge): a device counts
    // from its selection until its Report, its Dropout or its round's
    // abandonment in Selection, whichever is its one way out.
    let mut in_flight: u64 = 0;
    // Subsample for the eligibility gauge (full fleet would be O(n) per
    // sample; 1k devices give ±3% accuracy).
    let mut gauge = EligibleGauge::new(&availability, config.devices.min(1_000));

    let download_bytes = config.plan_bytes + config.checkpoint_bytes;

    // Helper closures are avoided (borrow discipline); the loop handles
    // everything inline.
    while let Some((now, event)) = queue.next_before(horizon) {
        match event {
            Event::Sample => {
                let eligible_frac = gauge.fraction(now);
                let eligible_total = eligible_frac * config.devices as f64;
                report.participating.record(now, in_flight as f64);
                report
                    .waiting
                    .record(now, (eligible_total - in_flight as f64).max(0.0));
                queue.schedule_in(10 * 60_000, Event::Sample);
            }
            Event::Checkin { device, until_ms } => {
                let id = u64::from(device);
                // The end of the window the device is in now.
                let until_ms = if now < u64::from(until_ms) {
                    // Scheduled at or after the window's start: still inside.
                    debug_assert_eq!(availability.next_eligible_at(id, now), Some(now));
                    until_ms
                } else {
                    match availability.next_window(id, now) {
                        Some(w) if w.contains(now) => checkin_until(w.end_ms),
                        wake => {
                            // Missed its window; wake at the next one (a
                            // window starting at `now` would contain it, so
                            // `wake` starts after `now`).
                            if let Some(w) = wake {
                                let jitter = rng.random_range(0..config.checkin_period_ms);
                                let until_ms = checkin_until(w.end_ms);
                                queue.schedule_at(
                                    w.start_ms + jitter,
                                    Event::Checkin { device, until_ms },
                                );
                            }
                            continue;
                        }
                    }
                };
                let response = active.state.on_checkin(DeviceId(id), now);
                match response {
                    CheckinResponse::Selected => {
                        report.checkins.0 += 1;
                        active.participants.push(device);
                        in_flight += 1;
                    }
                    // Idempotent duplicate: the device already holds a
                    // slot; nothing new to count or schedule.
                    CheckinResponse::AlreadySelected => {}
                    CheckinResponse::NotSelecting => {
                        report.checkins.1 += 1;
                        // Pace steering: come back later. A retry that
                        // fires before the window it was turned away in
                        // ends is still inside it and need not ask again.
                        let retry = pace.suggest_reconnect(now, config.devices, 1.0, &mut rng);
                        queue.schedule_at(retry, Event::Checkin { device, until_ms });
                    }
                }
            }
            Event::Report {
                device,
                round_seq: seq,
            } => {
                if seq != active.seq {
                    // Round long gone; treat as a late upload against the
                    // already-closed round: rejected, Table 1 `#`.
                    report.sessions.record_shape(REJECTED);
                    report
                        .traffic
                        .record(TrafficKind::Update, config.update_bytes);
                    in_flight -= 1;
                    schedule_next_checkin(
                        &mut queue,
                        &availability,
                        device,
                        now,
                        config.checkin_period_ms,
                        &mut rng,
                    );
                    continue;
                }
                let response = active.state.on_report(DeviceId(u64::from(device)), now);
                report
                    .traffic
                    .record(TrafficKind::Update, config.update_bytes);
                report.traffic.record(TrafficKind::Metrics, 64);
                in_flight -= 1;
                report.sessions.record_shape(match response {
                    ReportResponse::Accepted => UPLOADED,
                    _ => REJECTED,
                });
                schedule_next_checkin(
                    &mut queue,
                    &availability,
                    device,
                    now,
                    config.checkin_period_ms,
                    &mut rng,
                );
            }
            Event::Dropout {
                device,
                round_seq: seq,
                reason,
            } => {
                if seq == active.seq {
                    active.state.on_dropout(DeviceId(u64::from(device)), now);
                }
                report.dropout_events.increment(now);
                in_flight -= 1;
                report.sessions.record_shape(match reason {
                    DropReason::EligibilityChange => INTERRUPTED,
                    DropReason::TransientFailure => FAILED,
                });
                schedule_next_checkin(
                    &mut queue,
                    &availability,
                    device,
                    now,
                    config.checkin_period_ms,
                    &mut rng,
                );
            }
            Event::RoundTick { round_seq: seq } => {
                if seq == active.seq {
                    active.state.on_tick(now);
                    // Keep ticking through the reporting window.
                    if active.state.phase() == Phase::Reporting {
                        queue.schedule_in(
                            config.round.report_window_ms.min(10_000),
                            Event::RoundTick { round_seq: seq },
                        );
                    } else if active.state.phase() == Phase::Selection {
                        queue.schedule_in(
                            config.round.selection_timeout_ms,
                            Event::RoundTick { round_seq: seq },
                        );
                    }
                }
            }
        }

        // Process round transitions after every event.
        for round_event in active.state.drain_events() {
            match round_event {
                RoundEvent::Configured {
                    at_ms,
                    participants,
                } => {
                    report
                        .participating_starts
                        .record(at_ms, participants as f64);
                    // Configuration: every participant downloads plan +
                    // checkpoint, then trains; schedule each one's fate.
                    for &device in &active.participants {
                        let id = u64::from(device);
                        report.traffic.record(TrafficKind::Plan, config.plan_bytes);
                        report
                            .traffic
                            .record(TrafficKind::Checkpoint, config.checkpoint_bytes);
                        let latency = network.round_latency_ms(
                            id,
                            download_bytes,
                            config.work_units,
                            config.update_bytes,
                        );
                        let done_at = at_ms + latency;
                        if network.attempt_fails(id, u64::from(active.seq)) {
                            // Transient failure partway through.
                            let frac = 0.2 + 0.6 * rng.random::<f64>();
                            queue.schedule_at(
                                at_ms + (latency as f64 * frac) as u64,
                                Event::Dropout {
                                    device,
                                    round_seq: active.seq,
                                    reason: DropReason::TransientFailure,
                                },
                            );
                        } else if let Some(w) = availability.current_window(id, at_ms) {
                            if w.end_ms < done_at {
                                // Eligibility ends mid-training: the
                                // daytime drop-out mechanism.
                                queue.schedule_at(
                                    w.end_ms,
                                    Event::Dropout {
                                        device,
                                        round_seq: active.seq,
                                        reason: DropReason::EligibilityChange,
                                    },
                                );
                            } else {
                                queue.schedule_at(
                                    done_at,
                                    Event::Report {
                                        device,
                                        round_seq: active.seq,
                                    },
                                );
                            }
                        } else {
                            // Window already over at configuration time.
                            queue.schedule_at(
                                at_ms + 1,
                                Event::Dropout {
                                    device,
                                    round_seq: active.seq,
                                    reason: DropReason::EligibilityChange,
                                },
                            );
                        }
                    }
                    debug_assert_eq!(participants, active.participants.len());
                    // First reporting tick.
                    queue.schedule_in(
                        10_000,
                        Event::RoundTick {
                            round_seq: active.seq,
                        },
                    );
                }
                RoundEvent::Finished { at_ms, outcome } => {
                    if let Some(run) = active.state.run_time_ms() {
                        report.round_run_times_ms.push(run);
                    }
                    for (_, state, t) in active.state.participation_times() {
                        match state {
                            "completed" => report.participation_completed_ms.push(t),
                            "aborted" => report.participation_aborted_ms.push(t),
                            _ => {}
                        }
                    }
                    if outcome.is_committed() {
                        report.completions.increment(at_ms);
                    }
                    report.rounds.push(RoundStats {
                        seq: u64::from(active.seq),
                        finished_at_ms: at_ms,
                        outcome,
                        run_time_ms: active.state.run_time_ms().unwrap_or(0),
                        hour_of_day: (at_ms / HOUR_MS) % 24,
                    });
                    // A round abandoned in Selection configured nobody: its
                    // devices hold no event, so each is sent to wake again.
                    // Those of any other round hold a Report or a Dropout.
                    if let RoundOutcome::AbandonedInSelection { .. } = outcome {
                        for &device in &active.participants {
                            in_flight -= 1;
                            schedule_next_checkin(
                                &mut queue,
                                &availability,
                                device,
                                at_ms,
                                config.checkin_period_ms,
                                &mut rng,
                            );
                        }
                    }
                    // Open the next round immediately (selection is
                    // continuous — Sec. 4.3 pipelining).
                    round_seq = round_seq
                        .checked_add(1)
                        .expect("a run has under 2^32 rounds");
                    let round_id = RoundId(u64::from(round_seq) + 1);
                    active = ActiveRound {
                        seq: round_seq,
                        state: RoundState::begin(round_id, config.round, at_ms),
                        participants: Vec::new(),
                    };
                    queue.schedule_at(
                        at_ms + config.round.selection_timeout_ms,
                        Event::RoundTick { round_seq },
                    );
                }
            }
        }
    }

    (report, queue.processed(), queue.peak_len())
}

fn schedule_next_checkin(
    queue: &mut Queue,
    availability: &DiurnalAvailability,
    device: u32,
    now: u64,
    period_ms: u64,
    rng: &mut rand::rngs::StdRng,
) {
    let jitter = rng.random_range(0..period_ms.max(1));
    let target = now + period_ms + jitter;
    if let Some(w) = availability.next_window(u64::from(device), target) {
        let at_ms = if w.contains(target) {
            target
        } else {
            w.start_ms + jitter
        };
        let until_ms = checkin_until(w.end_ms);
        queue.schedule_at(at_ms, Event::Checkin { device, until_ms });
    }
}

/// A check-in's `until_ms` for a window that ends at `end_ms`, in 32 bits:
/// one that ends later ends at `u32::MAX` ms, which no event of a run, all
/// of them due before it, can tell apart.
fn checkin_until(end_ms: u64) -> u32 {
    u32::try_from(end_ms).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig {
            devices: 1_500,
            days: 1,
            round: RoundConfig {
                goal_count: 30,
                overselection: 1.3,
                min_goal_fraction: 0.7,
                selection_timeout_ms: 20 * 60_000,
                report_window_ms: 10 * 60_000,
                device_cap_ms: 8 * 60_000,
            },
            plan_bytes: 100_000,
            checkpoint_bytes: 100_000,
            update_bytes: 25_000,
            work_units: 300,
            checkin_period_ms: 60_000,
            failure_probability: 0.05,
            seed: 7,
        }
    }

    #[test]
    fn fleet_completes_rounds() {
        let report = run(&small_config());
        assert!(
            report.committed_rounds() >= 5,
            "only {} rounds committed",
            report.committed_rounds()
        );
        assert!(report.checkins.0 > 0 && report.checkins.1 > 0);
    }

    #[test]
    fn dropout_rate_is_in_paper_band() {
        let report = run(&small_config());
        let rate = report.dropout_rate();
        // The paper reports 6–10%; with our 5% transient failures plus
        // eligibility-change drop-outs we should land in a loose band.
        assert!(
            (0.02..0.25).contains(&rate),
            "dropout rate {rate} out of plausible band"
        );
    }

    #[test]
    fn sessions_are_dominated_by_success() {
        let report = run(&small_config());
        let rows = report.sessions.rows();
        assert!(rows.iter().map(|(_, count, _)| count).sum::<u64>() > 100);
        let ok = rows
            .iter()
            .find(|(shape, _, _)| shape == "-v[]+^")
            .unwrap()
            .2;
        assert!(ok > 0.5, "success fraction {ok}");
    }

    #[test]
    fn traffic_is_download_dominated() {
        let report = run(&small_config());
        let ratio = report.traffic.asymmetry();
        assert!(ratio > 2.0, "asymmetry {ratio}");
    }

    #[test]
    fn diurnal_oscillation_is_visible() {
        let mut config = small_config();
        config.days = 2;
        let report = run(&config);
        // Hourly participating-device counts swing by a factor of a few
        // between night peak and day trough (paper: ~4x).
        let swing = report.participating_starts.peak_to_trough();
        assert!(
            swing.is_some_and(|s| s > 2.0),
            "participating swing {swing:?}"
        );
    }

    #[test]
    fn daytime_dropout_rate_exceeds_night() {
        let mut config = small_config();
        config.days = 2;
        let report = run(&config);
        let (day, night) = report.dropout_rate_by_daypart();
        assert!(
            day > night,
            "expected higher daytime drop-out rate: day {day:.4}, night {night:.4}"
        );
    }

    #[test]
    fn participation_times_are_capped() {
        let report = run(&small_config());
        let cap = small_config().round.device_cap_ms;
        for &t in &report.participation_aborted_ms {
            assert!(t <= cap);
        }
        assert!(!report.participation_completed_ms.is_empty());
    }

    #[test]
    fn devices_of_a_round_abandoned_in_selection_check_in_again() {
        // The default fleet's goal is out of reach in a night's first
        // minutes: its first rounds are abandoned with devices checked in.
        // Those devices must come back, or none is left to commit a round
        // with and none is ever turned away.
        let report = run(&FleetConfig {
            days: 1,
            ..FleetConfig::default()
        });
        assert!(report.committed_rounds() >= 1, "no round committed");
        assert!(report.checkins.1 > 0, "no check-in turned away");
    }

    #[test]
    fn fig9_payloads_are_measured_from_real_frames() {
        let (plan, checkpoint, update) = measured_payload_sizes(FIG9_MODEL, FIG9_CODEC);
        let model_bytes = FIG9_MODEL.num_params() * 4;
        // The checkpoint download carries every f32 parameter plus its
        // own versioned header; the plan is about model-sized (the graph
        // payload is physically in the frame).
        assert!(
            checkpoint >= model_bytes,
            "checkpoint {checkpoint} < {model_bytes}"
        );
        let ratio = plan as f64 / model_bytes as f64;
        assert!((0.8..1.5).contains(&ratio), "plan/model ratio {ratio}");
        // The int8-quantized upload really compresses (~4× vs f32) but
        // still carries at least a byte per parameter.
        assert!(update < model_bytes / 2, "update {update} did not compress");
        assert!(
            update > FIG9_MODEL.num_params() / 2,
            "update {update} implausibly small"
        );
        // Measured, deterministic: the same workload frames identically,
        // and the frames the encoder builds have the lengths read.
        assert_eq!(
            (plan, checkpoint, update),
            measured_payload_sizes(FIG9_MODEL, FIG9_CODEC)
        );
        let (download, _, upload) = fig9_frames(FIG9_MODEL, FIG9_CODEC);
        let encoded = |msg| {
            fl_server::wire::encode(msg)
                .expect("the frame encodes")
                .len()
        };
        assert_eq!(
            (encoded(&download), encoded(&upload)),
            (plan + checkpoint, update)
        );
    }

    #[test]
    fn an_event_is_12_bytes() {
        // In the queue's heap an event is 16 + 12 bytes, 32 with padding.
        assert_eq!(std::mem::size_of::<Event>(), 12);
    }

    #[test]
    #[should_panic(expected = "at most 2^32 devices, not 4294967297")]
    fn a_fleet_of_more_than_2_pow_32_devices_is_refused() {
        // Refused before its availability model or its queue is built.
        run(&FleetConfig {
            devices: MAX_DEVICES + 1,
            ..small_config()
        });
    }

    #[test]
    fn shape_literals_are_the_device_events_glyphs() {
        use fl_core::DeviceEvent::*;
        let trained = [
            CheckIn,
            PlanDownloaded,
            TrainingStarted,
            TrainingCompleted,
            UploadStarted,
        ];
        let started = [CheckIn, PlanDownloaded, TrainingStarted];
        for (literal, events, end) in [
            (UPLOADED, &trained[..], UploadCompleted),
            (REJECTED, &trained[..], UploadRejected),
            (INTERRUPTED, &started[..], Interrupted),
            (FAILED, &started[..], Error),
        ] {
            let shape: String = events.iter().chain([&end]).map(|e| e.glyph()).collect();
            assert_eq!(literal, shape);
        }
    }

    #[test]
    fn a_far_entry_is_a_32_bit_time_and_the_event() {
        // A million pending events are 16 MB: the far tier keeps no `seq`,
        // and a due time in 32 bits.
        assert_eq!(PENDING_EVENT_BYTES, 16);
        assert_eq!(std::mem::size_of::<(u32, Event)>(), 16);
    }

    #[test]
    #[should_panic(expected = "at most 49 days, not 50")]
    fn a_run_of_50_days_is_refused() {
        // 50 days is 4 320 000 000 ms, past u32::MAX: refused before its
        // availability model or its queue is built.
        run(&FleetConfig {
            days: 50,
            ..small_config()
        });
    }

    #[test]
    fn a_window_that_ends_past_u32_max_ends_at_it() {
        // The longest run ends at 4 233 600 000 ms, before u32::MAX.
        assert_eq!(checkin_until(MAX_DAYS * DAY_MS), 4_233_600_000);
        assert_eq!(checkin_until(u64::from(u32::MAX) + 1), u32::MAX);
        assert_eq!(checkin_until(u64::MAX), u32::MAX);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&small_config());
        let b = run(&small_config());
        assert_eq!(a.committed_rounds(), b.committed_rounds());
        assert_eq!(a.checkins, b.checkins);
        assert_eq!(a.sessions, b.sessions);
    }
}
