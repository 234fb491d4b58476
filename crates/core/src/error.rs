//! The shared error type for protocol-level operations.

use std::fmt;

/// Errors produced by `fl-core` operations and re-used by the server and
/// device crates.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A checkpoint byte stream is malformed.
    MalformedCheckpoint(String),
    /// An update's dimension does not match the accumulator/model.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Provided dimension.
        actual: usize,
    },
    /// An update with zero weight was submitted.
    ZeroWeightUpdate,
    /// A round was finalized without reaching its minimum participant count.
    InsufficientParticipants {
        /// Devices that reported in time.
        reported: usize,
        /// Minimum required.
        required: usize,
    },
    /// A plan references a runtime version the transform registry cannot
    /// lower to.
    UnsupportedVersion {
        /// The version requested.
        requested: u32,
        /// The oldest version reachable through transformations.
        oldest_supported: u32,
    },
    /// A task or population lookup failed.
    UnknownTask(String),
    /// A persistent-storage write failed (Sec. 4.2: the round's result is
    /// lost but the previously committed checkpoint remains authoritative;
    /// the coordinator must not advance round state past the failure).
    StorageFailure(String),
    /// An internal invariant was violated. Surfaced as an error (the
    /// round is abandoned and its resources reclaimed, Sec. 2.2) rather
    /// than a panic, so a bad round cannot take down the control plane.
    InvariantViolated(String),
    /// A SecAgg contribution carries a value its group's sum in
    /// `Z_{2^32}` cannot hold: a coordinate above the fixed-point grid,
    /// or a weight too large to sum over a group.
    OutOfRange {
        /// What the value is (`"coordinate"` or `"weight"`).
        what: &'static str,
        /// The value received.
        value: u64,
        /// The largest value accepted.
        max: u64,
    },
    /// Underlying ML error.
    Ml(fl_ml::MlError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MalformedCheckpoint(why) => write!(f, "malformed checkpoint: {why}"),
            CoreError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "update dimension mismatch: expected {expected}, got {actual}"
                )
            }
            CoreError::ZeroWeightUpdate => write!(f, "update has zero weight"),
            CoreError::InsufficientParticipants { reported, required } => write!(
                f,
                "round abandoned: {reported} devices reported, {required} required"
            ),
            CoreError::UnsupportedVersion {
                requested,
                oldest_supported,
            } => write!(
                f,
                "runtime version {requested} unsupported (oldest reachable: {oldest_supported})"
            ),
            CoreError::UnknownTask(name) => write!(f, "unknown task or population: {name}"),
            CoreError::StorageFailure(why) => write!(f, "checkpoint storage failure: {why}"),
            CoreError::InvariantViolated(what) => write!(f, "invariant violated: {what}"),
            CoreError::OutOfRange { what, value, max } => {
                write!(f, "{what} {value} out of range (at most {max})")
            }
            CoreError::Ml(e) => write!(f, "ml error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Ml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fl_ml::MlError> for CoreError {
    fn from(e: fl_ml::MlError) -> Self {
        CoreError::Ml(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CoreError::InsufficientParticipants {
            reported: 3,
            required: 10,
        };
        assert!(e.to_string().contains("3 devices"));
        let e = CoreError::from(fl_ml::MlError::EmptyBatch);
        assert!(e.to_string().contains("ml error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
