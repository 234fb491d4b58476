//! Secure Aggregation error type.

use std::fmt;

/// Errors from the Secure Aggregation protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecAggError {
    /// Fewer live participants than the reconstruction threshold.
    BelowThreshold {
        /// Live participants.
        alive: usize,
        /// Required threshold.
        threshold: usize,
    },
    /// A message arrived from or for an unknown participant.
    UnknownParticipant(u32),
    /// A share payload failed to decrypt or parse.
    BadShare,
    /// Input vector has the wrong dimension.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Provided dimension.
        actual: usize,
    },
    /// The server asked a client to reveal both the self-mask seed and the
    /// mask secret key of the same device — forbidden, as it would let the
    /// server unmask that device's individual input.
    ConflictingReveal(u32),
    /// Shamir reconstruction failed (inconsistent or insufficient shares).
    ReconstructionFailed(u32),
    /// Duplicate message from the same participant in one round.
    DuplicateMessage(u32),
    /// The input coordinate at this index is not an element of the ring
    /// `Z_{2^32}` the vectors are masked and summed in.
    OutOfRing(usize),
}

impl fmt::Display for SecAggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecAggError::BelowThreshold { alive, threshold } => {
                write!(
                    f,
                    "participants below threshold: {alive} alive, {threshold} required"
                )
            }
            SecAggError::UnknownParticipant(id) => write!(f, "unknown participant {id}"),
            SecAggError::BadShare => write!(f, "share payload failed to decrypt or parse"),
            SecAggError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "input dimension mismatch: expected {expected}, got {actual}"
                )
            }
            SecAggError::ConflictingReveal(id) => write!(
                f,
                "refusing to reveal both self-mask and key shares for participant {id}"
            ),
            SecAggError::ReconstructionFailed(id) => {
                write!(f, "failed to reconstruct secret of participant {id}")
            }
            SecAggError::DuplicateMessage(id) => {
                write!(f, "duplicate message from participant {id}")
            }
            SecAggError::OutOfRing(i) => write!(f, "input coordinate {i} is not below 2^32"),
        }
    }
}

impl std::error::Error for SecAggError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SecAggError::BelowThreshold {
            alive: 2,
            threshold: 3
        }
        .to_string()
        .contains("2 alive"));
        assert!(SecAggError::ConflictingReveal(7).to_string().contains('7'));
    }
}
