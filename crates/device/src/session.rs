//! One device session (Sec. 3, with the device half of Sec. 2.3): check
//! in, take the Configuration, report, and wait for the verdict.
//!
//! [`DeviceSession`] is a sans-IO type-state over [`Checkin`] →
//! [`Configured`] → [`Reported`]. Each step takes the one reply the
//! session waits for (or the timeout) and returns the next state, or how
//! the session [`End`]ed. It sends nothing and never sleeps:
//! [`DeviceSession::exchange`] is the one blocking driver, over a `send`
//! and a `recv` closure, so any transport fits under it. Backoff is not
//! decided here: a turned-away check-in ends the session carrying the
//! reply, which the caller hands to its own
//! [`crate::ConnectivityManager::on_wire_reply`].
//!
//! The report goes out under the `(round, attempt)` at-most-once key: the
//! Configuration's checkpoint round, at attempt 1, since a device trains
//! once per round. A silent ack loss re-sends the *same* key, and the
//! server's ledger replays the original verdict instead of summing the
//! update twice. A pinned refusal of the key ends the session.
//!
//! Each step is offered by its own state only, so reporting before the
//! Configuration does not compile:
//!
//! ```compile_fail,E0599
//! use fl_core::DeviceId;
//! use fl_device::session::{DeviceSession, Payload};
//! let session = DeviceSession::new(DeviceId(1), "pop");
//! // `report` is offered by `DeviceSession<Configured>` only.
//! let _ = session.report(Payload::Identity(&[]), 1, 0.0, 0.0);
//! ```
//!
//! and neither does reporting twice:
//!
//! ```compile_fail,E0382
//! use fl_device::session::{Configured, DeviceSession, Payload};
//! fn report_twice(session: DeviceSession<Configured>) {
//!     let _ = session.report(Payload::Identity(&[]), 1, 0.0, 0.0);
//!     // The first `report` consumed the session.
//!     let _ = session.report(Payload::Identity(&[]), 1, 0.0, 0.0);
//! }
//! ```

use fl_core::plan::{CodecSpec, FlPlan};
use fl_core::{DeviceId, FlCheckpoint, PopulationName, RoundId};
use fl_ml::fixedpoint::{FixedPointEncoder, FixedPointError};
use fl_wire::{WireError, WireMessage};
use std::time::Duration;

/// Bound on [`DeviceSession::exchange`]'s wait for the reply to a
/// check-in.
pub const CONFIG_WAIT: Duration = Duration::from_secs(10);
/// Bound on the sends of one report, the first included. At a ~10 %
/// per-frame fault rate running it out is negligible.
pub const MAX_SENDS: u32 = 10;
/// Bound on the replies a reported session waits through that are not
/// its verdict.
pub const MAX_STRAYS: u32 = 64;

/// A device's session with one population's server, in state `S`.
#[derive(Debug)]
pub struct DeviceSession<S> {
    device: DeviceId,
    population: PopulationName,
    state: S,
}

/// Checked in: the next reply is the Configuration, or a turn-away.
#[derive(Debug)]
pub struct Checkin;

/// Configured: train on the plan and checkpoint, then
/// [`DeviceSession::report`].
#[derive(Debug)]
pub struct Configured {
    plan: Box<FlPlan>,
    checkpoint: Box<FlCheckpoint>,
}

/// Reported: waiting for the verdict on [`DeviceSession::frame`].
#[derive(Debug)]
pub struct Reported {
    frame: WireMessage,
    key: (RoundId, u32),
    sends: u32,
    strays: u32,
}

/// A device's update, as its report frame carries it.
#[derive(Debug)]
pub enum Payload<'a> {
    /// Identity-coded, in an `UpdateReport`.
    Identity(&'a [f32]),
    /// Fixed-point field elements, in a `SecAggReport`: 8 bytes per
    /// coordinate, the Sec. 6 bandwidth premium.
    Field(&'a [f32]),
    /// Bytes the plan's codec already wrote (what
    /// [`crate::FlRuntime::execute`] returns), in an `UpdateReport`.
    Encoded(Vec<u8>),
}

/// The server accepted the report under the session's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accepted {
    /// The key's attempt number.
    pub attempt: u32,
    /// Sends of the report, the first included.
    pub sends: u32,
    /// Replies waited through that were not the verdict.
    pub strays: u32,
}

/// How a session ended without an accepted report.
#[derive(Debug, Clone, PartialEq)]
pub enum End {
    /// Not selected (pace steering): come back at `retry_at_ms`, absolute
    /// ms. The reply is for the caller's retry discipline.
    ComeBackLater {
        /// The server's reconnect time.
        retry_at_ms: u64,
        /// The `ComeBackLater` frame.
        reply: WireMessage,
    },
    /// Turned away by admission control: come back at `retry_at_ms`.
    Shed {
        /// The server's reconnect time.
        retry_at_ms: u64,
        /// The `Shed` frame.
        reply: WireMessage,
    },
    /// A Configuration whose checkpoint length is not the plan's
    /// `expected_dim`.
    DimensionMismatch { checkpoint: usize, plan: usize },
    /// Any other reply to the check-in.
    Unexpected(WireMessage),
    /// The update does not fit the fixed-point range.
    Encode(FixedPointError),
    /// The server pinned a refusal of the session's key.
    Rejected,
    /// [`MAX_SENDS`] sends went unanswered.
    SendsSpent,
    /// More than [`MAX_STRAYS`] replies were not the verdict.
    Strays,
    /// The link failed under [`DeviceSession::exchange`].
    Link(WireError),
}

/// A report frame under the `(round, attempt)` at-most-once key. Every
/// device, simulated or live, uploads through this one constructor.
pub fn report_frame(
    device: DeviceId,
    population: &PopulationName,
    (round, attempt): (RoundId, u32),
    payload: Payload<'_>,
    (weight, loss, accuracy): (u64, f64, f64),
) -> Result<WireMessage, FixedPointError> {
    let population = population.clone();
    let update_bytes = match payload {
        Payload::Identity(update) => CodecSpec::Identity.build().encode(update),
        Payload::Encoded(bytes) => bytes,
        Payload::Field(update) => {
            return Ok(WireMessage::SecAggReport {
                device,
                round,
                attempt,
                field_vector: FixedPointEncoder::default_for_updates().encode(update)?,
                weight,
                loss,
                accuracy,
                population,
            })
        }
    };
    Ok(WireMessage::UpdateReport {
        device,
        round,
        attempt,
        update_bytes,
        weight,
        loss,
        accuracy,
        population,
    })
}

impl<S> DeviceSession<S> {
    fn then<T>(self, state: T) -> DeviceSession<T> {
        DeviceSession {
            device: self.device,
            population: self.population,
            state,
        }
    }
}

impl DeviceSession<Checkin> {
    /// A session of `device` for `population`; send [`Self::checkin`].
    pub fn new(device: DeviceId, population: impl Into<PopulationName>) -> Self {
        DeviceSession {
            device,
            population: population.into(),
            state: Checkin,
        }
    }

    /// The check-in frame.
    pub fn checkin(&self) -> WireMessage {
        WireMessage::CheckinRequest {
            device: self.device,
            population: self.population.clone(),
        }
    }

    /// Takes the reply to the check-in.
    pub fn on_reply(self, reply: WireMessage) -> Result<DeviceSession<Configured>, End> {
        match reply {
            WireMessage::PlanAndCheckpoint {
                plan, checkpoint, ..
            } => {
                let (checkpoint_len, dim) = (checkpoint.len(), plan.server.expected_dim);
                if checkpoint_len != dim {
                    return Err(End::DimensionMismatch {
                        checkpoint: checkpoint_len,
                        plan: dim,
                    });
                }
                Ok(self.then(Configured { plan, checkpoint }))
            }
            WireMessage::ComeBackLater { retry_at_ms, .. } => {
                Err(End::ComeBackLater { retry_at_ms, reply })
            }
            WireMessage::Shed { retry_at_ms, .. } => Err(End::Shed { retry_at_ms, reply }),
            other => Err(End::Unexpected(other)),
        }
    }

    /// Runs the session to its end over a blocking link: sends the
    /// check-in, waits up to [`CONFIG_WAIT`] for the Configuration, hands
    /// it to `train` for the report, sends that, and waits `ack_wait` at
    /// a time for the verdict, re-sending the same key after each silent
    /// wait.
    pub fn exchange<T>(
        self,
        mut send: impl FnMut(&WireMessage) -> Result<T, WireError>,
        mut recv: impl FnMut(Duration) -> Result<WireMessage, WireError>,
        ack_wait: Duration,
        train: impl FnOnce(DeviceSession<Configured>) -> Result<DeviceSession<Reported>, End>,
    ) -> Result<Accepted, End> {
        send(&self.checkin()).map_err(End::Link)?;
        let reply = recv(CONFIG_WAIT).map_err(End::Link)?;
        let mut session = train(self.on_reply(reply)?)?;
        send(session.frame()).map_err(End::Link)?;
        loop {
            match recv(ack_wait) {
                Ok(reply) => {
                    if let Some(accepted) = session.on_reply(reply)? {
                        return Ok(accepted);
                    }
                }
                Err(WireError::Timeout) => {
                    session.on_timeout()?;
                    send(session.frame()).map_err(End::Link)?;
                }
                Err(e) => return Err(End::Link(e)),
            }
        }
    }
}

impl DeviceSession<Configured> {
    /// The plan to run.
    pub fn plan(&self) -> &FlPlan {
        &self.state.plan
    }

    /// The checkpoint to train from.
    pub fn checkpoint(&self) -> &FlCheckpoint {
        &self.state.checkpoint
    }

    /// Builds the report of `payload` under the Configuration's key; send
    /// [`DeviceSession::frame`] next.
    pub fn report(
        self,
        payload: Payload<'_>,
        weight: u64,
        loss: f64,
        accuracy: f64,
    ) -> Result<DeviceSession<Reported>, End> {
        let key = (self.state.checkpoint.round, 1);
        let metrics = (weight, loss, accuracy);
        let frame = report_frame(self.device, &self.population, key, payload, metrics)
            .map_err(End::Encode)?;
        Ok(self.then(Reported {
            frame,
            key,
            sends: 1,
            strays: 0,
        }))
    }
}

impl DeviceSession<Reported> {
    /// The report frame, to send and to re-send.
    pub fn frame(&self) -> &WireMessage {
        &self.state.frame
    }

    /// Takes a reply while waiting for the verdict: the acceptance, or
    /// `None` to keep waiting. An ack for another key (a ghost born of
    /// in-flight corruption, or the keyless refusal of a frame the
    /// integrity trailer killed) and a re-pushed Configuration are
    /// strays.
    pub fn on_reply(&mut self, reply: WireMessage) -> Result<Option<Accepted>, End> {
        let state = &mut self.state;
        match reply {
            WireMessage::ReportAck {
                accepted,
                round,
                attempt,
                ..
            } if (round, attempt) == state.key => {
                if !accepted {
                    return Err(End::Rejected);
                }
                Ok(Some(Accepted {
                    attempt,
                    sends: state.sends,
                    strays: state.strays,
                }))
            }
            _ if state.strays == MAX_STRAYS => Err(End::Strays),
            _ => {
                state.strays += 1;
                Ok(None)
            }
        }
    }

    /// No verdict within the wait: re-send [`Self::frame`], same key.
    pub fn on_timeout(&mut self) -> Result<(), End> {
        if self.state.sends == MAX_SENDS {
            return Err(End::SendsSpent);
        }
        self.state.sends += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConnectivityManager;
    use fl_core::plan::ModelSpec;
    use std::collections::VecDeque;

    /// The logistic model's parameter count: `dim · classes + classes`.
    const DIM: usize = 6;

    /// A Configuration for round `round` whose checkpoint holds `params`
    /// parameters (the plan's dimension is [`DIM`]).
    fn configuration(round: u64, params: usize) -> WireMessage {
        let spec = ModelSpec::Logistic {
            dim: 2,
            classes: 2,
            seed: 0,
        };
        WireMessage::PlanAndCheckpoint {
            plan: Box::new(FlPlan::standard_training(
                spec,
                1,
                8,
                0.1,
                CodecSpec::Identity,
            )),
            checkpoint: Box::new(FlCheckpoint::new("t", RoundId(round), vec![0.0; params])),
            population: "pop".into(),
        }
    }

    fn ack(accepted: bool, round: u64, attempt: u32) -> WireMessage {
        WireMessage::ReportAck {
            accepted,
            round: RoundId(round),
            attempt,
            population: "pop".into(),
        }
    }

    fn configured() -> DeviceSession<Configured> {
        DeviceSession::new(DeviceId(7), "pop")
            .on_reply(configuration(3, DIM))
            .expect("a Configuration of the plan's dimension")
    }

    fn reported() -> DeviceSession<Reported> {
        configured()
            .report(Payload::Identity(&[0.5; DIM]), 1, 0.4, 0.9)
            .expect("an Identity report encodes")
    }

    #[test]
    fn a_checkin_answered_by_a_configuration_is_configured() {
        let session = DeviceSession::new(DeviceId(7), "pop");
        assert_eq!(
            session.checkin(),
            WireMessage::CheckinRequest {
                device: DeviceId(7),
                population: "pop".into(),
            }
        );
        let session = session.on_reply(configuration(3, DIM)).unwrap();
        assert_eq!(session.plan().server.expected_dim, DIM);
        assert_eq!(session.checkpoint().round, RoundId(3));
    }

    #[test]
    fn a_turn_away_ends_the_session_with_the_reply_for_the_backoff() {
        let policy = fl_core::RetryPolicy::default();
        let mut rng = fl_ml::rng::seeded(1);
        let come_back = WireMessage::ComeBackLater {
            retry_at_ms: 90_000,
            population: "pop".into(),
        };
        let shed = WireMessage::Shed {
            retry_at_ms: 300_000,
            population: "pop".into(),
        };
        for (reply, at) in [(come_back, 90_000), (shed, 300_000)] {
            let end = DeviceSession::new(DeviceId(7), "pop")
                .on_reply(reply.clone())
                .unwrap_err();
            let carried = match end {
                End::ComeBackLater { retry_at_ms, reply } | End::Shed { retry_at_ms, reply } => {
                    assert_eq!(retry_at_ms, at);
                    reply
                }
                other => panic!("expected a turn-away, got {other:?}"),
            };
            assert_eq!(carried, reply);
            // The caller's own discipline decides when to come back.
            let decision = ConnectivityManager::new(policy.clone())
                .on_wire_reply(0, &carried, &mut rng)
                .expect("a turn-away is a rejection");
            assert!(decision.effective_at_ms() >= at);
        }
    }

    #[test]
    fn a_configuration_of_the_wrong_dimension_is_refused() {
        let end = DeviceSession::new(DeviceId(7), "pop")
            .on_reply(configuration(3, DIM - 1))
            .unwrap_err();
        assert_eq!(
            end,
            End::DimensionMismatch {
                checkpoint: DIM - 1,
                plan: DIM,
            }
        );
    }

    #[test]
    fn any_other_reply_to_a_checkin_is_unexpected() {
        let end = DeviceSession::new(DeviceId(7), "pop")
            .on_reply(ack(true, 3, 1))
            .unwrap_err();
        assert_eq!(end, End::Unexpected(ack(true, 3, 1)));
    }

    #[test]
    fn the_report_goes_out_under_the_configurations_key() {
        let session = reported();
        let identity = report_frame(
            DeviceId(7),
            &"pop".into(),
            (RoundId(3), 1),
            Payload::Identity(&[0.5; DIM]),
            (1, 0.4, 0.9),
        );
        assert_eq!(Ok(session.frame().clone()), identity);
        // The runtime's own encoding of the same update is the same frame.
        let encoded = CodecSpec::Identity.build().encode(&[0.5; DIM]);
        let configured = configured();
        let session = configured.report(Payload::Encoded(encoded), 1, 0.4, 0.9);
        assert_eq!(Ok(session.unwrap().frame().clone()), identity);
    }

    #[test]
    fn a_non_finite_field_update_is_an_encode_error() {
        let end = configured()
            .report(Payload::Field(&[f32::NAN; DIM]), 1, 0.4, 0.9)
            .unwrap_err();
        assert_eq!(end, End::Encode(FixedPointError::NonFinite));
    }

    #[test]
    fn its_own_ack_accepts_and_its_own_refusal_rejects() {
        let accepted = Accepted {
            attempt: 1,
            sends: 1,
            strays: 0,
        };
        assert_eq!(reported().on_reply(ack(true, 3, 1)), Ok(Some(accepted)));
        assert_eq!(reported().on_reply(ack(false, 3, 1)), Err(End::Rejected));
    }

    #[test]
    fn ghost_and_keyless_acks_and_a_repushed_configuration_are_strays() {
        let mut session = reported();
        for stray in [ack(true, 3, 2), ack(false, 0, 0), configuration(3, DIM)] {
            assert_eq!(session.on_reply(stray), Ok(None));
        }
        let accepted = session.on_reply(ack(true, 3, 1)).unwrap().unwrap();
        assert_eq!(accepted.strays, 3);
    }

    #[test]
    fn timeouts_resend_the_same_frame_up_to_the_send_bound() {
        let mut session = reported();
        let first = session.frame().clone();
        for _ in 1..MAX_SENDS {
            session.on_timeout().expect("within the send bound");
            assert_eq!(session.frame(), &first);
        }
        assert_eq!(session.on_timeout(), Err(End::SendsSpent));
        let accepted = session.on_reply(ack(true, 3, 1)).unwrap().unwrap();
        assert_eq!(accepted.sends, MAX_SENDS);
    }

    #[test]
    fn the_stray_bound_ends_the_session() {
        let mut session = reported();
        for _ in 0..MAX_STRAYS {
            assert_eq!(session.on_reply(ack(true, 0, 0)), Ok(None));
        }
        assert_eq!(session.on_reply(ack(true, 0, 0)), Err(End::Strays));
    }

    #[test]
    fn exchange_drives_a_session_over_two_closures() {
        let mut replies = VecDeque::from([
            Ok(configuration(3, DIM)),
            Err(WireError::Timeout),
            Ok(ack(true, 0, 0)),
            Ok(ack(true, 3, 1)),
        ]);
        let mut sent = Vec::new();
        let accepted = DeviceSession::new(DeviceId(7), "pop").exchange(
            |frame| {
                sent.push(frame.clone());
                Ok(())
            },
            |_| replies.pop_front().expect("a scripted reply"),
            Duration::from_millis(1),
            |session| session.report(Payload::Identity(&[0.5; DIM]), 1, 0.4, 0.9),
        );
        assert_eq!(
            accepted,
            Ok(Accepted {
                attempt: 1,
                sends: 2,
                strays: 1,
            })
        );
        assert_eq!(sent.len(), 3, "check-in, report, resend");
        assert_eq!(sent[0], DeviceSession::new(DeviceId(7), "pop").checkin());
        assert_eq!(sent[1], sent[2]);

        let dead = DeviceSession::new(DeviceId(7), "pop").exchange(
            |_| Ok(()),
            |_| Err(WireError::Closed),
            Duration::from_millis(1),
            |_| unreachable!("never configured"),
        );
        assert_eq!(dead, Err(End::Link(WireError::Closed)));
    }

    #[test]
    fn report_frames_are_pinned() {
        use Payload::{Field, Identity};
        let pop = PopulationName::new("pin/pop");
        let update: Vec<f32> = (0..10).map(|i| i as f32 * 0.125 - 0.5).collect();
        let frames = [
            // `scenario`'s plain report: no update at all.
            report_frame(
                DeviceId(7),
                &pop,
                (RoundId(3), 1),
                Identity(&[]),
                (4, 0.9, 0.5),
            ),
            report_frame(
                DeviceId(7),
                &pop,
                (RoundId(3), 2),
                Identity(&update),
                (4, 0.9, 0.5),
            ),
            report_frame(
                DeviceId(9),
                &pop,
                (RoundId(5), 1),
                Field(&update[..4]),
                (1, 0.4, 0.9),
            ),
        ];
        let frames: Vec<String> = frames.iter().map(|f| hex(f.as_ref().unwrap())).collect();
        assert_eq!(frames, PINNED);
    }

    /// The encoded frame as lowercase hex.
    fn hex(frame: &WireMessage) -> String {
        let bytes = fl_wire::encode(frame).expect("a report frame encodes");
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// What the three frames above encode to: an empty `UpdateReport`, an
    /// Identity-coded one at dimension 10, and a `SecAggReport` at
    /// dimension 4.
    const PINNED: [&str; 3] = [
        "465706053d00000007000000000000000300000000000000010000000400000000000000cdcccccccc\
         ccec3f000000000000e03f0400000000000000070070696e2f706f702afc92a303d3e03a",
        "465706056500000007000000000000000300000000000000020000000400000000000000cdcccccccc\
         ccec3f000000000000e03f2c0000000a000000000000bf0000c0be000080be000000be000000000000\
         003e0000803e0000c03e0000003f0000203f070070696e2f706f7040e053b4edf39f86",
        "4657060b59000000090000000000000005000000000000000100000001000000000000009a99999999\
         99d93fcdccccccccccec3f040000000000fe00000000000080fe00000000000000ff00000000000080\
         ff0000000000070070696e2f706f709c4fd958a6f32506",
    ];
}
