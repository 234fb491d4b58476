//! FL checkpoints (Sec. 2.1).
//!
//! "The server next sends to each participant the current global model
//! parameters and any other necessary state as an *FL checkpoint*
//! (essentially the serialized state of a TensorFlow session)."
//!
//! Our checkpoint is a named, versioned flat parameter vector with a
//! compact binary wire format, so download/upload byte counts (Fig. 9) are
//! measured on real encodings rather than estimates.

use crate::{CoreError, RoundId};
use serde::{Deserialize, Serialize};

/// Magic bytes identifying the checkpoint wire format.
const MAGIC: &[u8; 4] = b"FLCK";
/// Wire-format version.
const WIRE_VERSION: u8 = 1;

/// The serialized state of the global model, exchanged between server and
/// devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlCheckpoint {
    /// Name of the FL task this checkpoint belongs to.
    pub task_name: String,
    /// Round that produced these parameters.
    pub round: RoundId,
    /// Flat model parameters.
    params: Vec<f32>,
}

impl FlCheckpoint {
    /// Creates a checkpoint.
    pub fn new(task_name: impl Into<String>, round: RoundId, params: Vec<f32>) -> Self {
        FlCheckpoint {
            task_name: task_name.into(),
            round,
            params,
        }
    }

    /// The flat parameters.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Consumes the checkpoint, returning the parameters.
    pub fn into_params(self) -> Vec<f32> {
        self.params
    }

    /// Moves the parameters out, leaving the task name and round behind
    /// over an empty parameter vector.
    pub fn take_params(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.params)
    }

    /// Encodes to the compact binary wire format.
    // fl-lint: allow(test-only-pub): tests/properties.rs round-trips checkpoints through it
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size());
        self.write_to(&mut out);
        out
    }

    /// Appends the binary wire format to `out` — what [`Self::to_bytes`]
    /// returns, written in place so an enclosing frame needs no
    /// intermediate copy.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let name = self.task_name.as_bytes();
        out.extend_from_slice(MAGIC);
        out.push(WIRE_VERSION);
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.round.0.to_le_bytes());
        out.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        let start = out.len();
        out.resize(start + self.params.len() * 4, 0);
        let (slots, _) = out[start..].as_chunks_mut::<4>();
        for (slot, p) in slots.iter_mut().zip(&self.params) {
            *slot = p.to_le_bytes();
        }
    }

    /// Decodes from the binary wire format.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedCheckpoint`] on truncation, bad magic,
    /// unknown wire version, or invalid UTF-8 in the task name.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let bad = |why: &str| CoreError::MalformedCheckpoint(why.to_string());
        let (header, rest) = bytes
            .split_first_chunk::<7>()
            .ok_or_else(|| bad("too short for header"))?;
        if &header[..4] != MAGIC {
            return Err(bad("bad magic"));
        }
        if header[4] != WIRE_VERSION {
            return Err(bad("unknown wire version"));
        }
        let name_len = u16::from_le_bytes([header[5], header[6]]) as usize;
        let (name_bytes, rest) = rest
            .split_at_checked(name_len)
            .ok_or_else(|| bad("truncated name"))?;
        let task_name = std::str::from_utf8(name_bytes)
            .map_err(|_| bad("task name is not UTF-8"))?
            .to_string();
        let (round, rest) = rest
            .split_first_chunk::<8>()
            .ok_or_else(|| bad("truncated round"))?;
        let (count, rest) = rest
            .split_first_chunk::<4>()
            .ok_or_else(|| bad("truncated count"))?;
        // The count is the peer's claim: hold it against the bytes that
        // are actually present before sizing anything by it.
        let count = u32::from_le_bytes(*count) as usize;
        let values = rest
            .as_chunks::<4>()
            .0
            .get(..count)
            .ok_or_else(|| bad("truncated params"))?;
        Ok(FlCheckpoint {
            task_name,
            round: RoundId(u64::from_le_bytes(*round)),
            params: values.iter().map(|p| f32::from_le_bytes(*p)).collect(),
        })
    }

    /// Size of the encoded checkpoint in bytes (without encoding it).
    pub fn encoded_size(&self) -> usize {
        4 + 1 + 2 + self.task_name.len() + 8 + 4 + self.params.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_bytes() {
        let ck = FlCheckpoint::new("nwp-train", RoundId(17), vec![1.0, -2.5, 0.0, 1e-9]);
        let bytes = ck.to_bytes();
        assert_eq!(bytes.len(), ck.encoded_size());
        let back = FlCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn empty_params_round_trip() {
        let ck = FlCheckpoint::new("t", RoundId(0), vec![]);
        let back = FlCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.len(), 0);
    }

    #[test]
    fn detects_bad_magic() {
        let mut bytes = FlCheckpoint::new("t", RoundId(0), vec![1.0]).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            FlCheckpoint::from_bytes(&bytes),
            Err(CoreError::MalformedCheckpoint(_))
        ));
    }

    #[test]
    fn detects_truncation_at_every_boundary() {
        let full = FlCheckpoint::new("task", RoundId(3), vec![1.0, 2.0]).to_bytes();
        for cut in [0, 3, 6, 8, 12, 16, full.len() - 1] {
            assert!(
                FlCheckpoint::from_bytes(&full[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn hostile_param_count_is_refused_before_allocating() {
        // 30 bytes claiming `u32::MAX` parameters (16 GiB if believed).
        let mut bytes = FlCheckpoint::new("t", RoundId(0), vec![0.0; 2]).to_bytes();
        let count_at = bytes.len() - 2 * 4 - 4;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.resize(30, 0);
        assert_eq!(
            FlCheckpoint::from_bytes(&bytes),
            Err(CoreError::MalformedCheckpoint("truncated params".into()))
        );
    }

    #[test]
    fn write_to_appends_what_to_bytes_returns() {
        let ck = FlCheckpoint::new("nwp-train", RoundId(17), vec![1.0, -2.5, 0.0, 1e-9]);
        let mut out = vec![0xAA, 0xBB];
        ck.write_to(&mut out);
        assert_eq!(out[..2], [0xAA, 0xBB]);
        assert_eq!(out[2..], ck.to_bytes());
    }

    #[test]
    fn detects_wrong_wire_version() {
        let mut bytes = FlCheckpoint::new("t", RoundId(0), vec![]).to_bytes();
        bytes[4] = 99;
        assert!(FlCheckpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn into_params_moves_data() {
        let ck = FlCheckpoint::new("t", RoundId(1), vec![3.0, 4.0]);
        assert_eq!(ck.into_params(), vec![3.0, 4.0]);
    }
}
