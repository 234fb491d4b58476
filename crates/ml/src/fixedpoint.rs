//! Fixed-point encoding of real vectors into the ring `Z_{2^32}`.
//!
//! Secure Aggregation (Sec. 6) sums *ring elements*, so real-valued model
//! updates must be mapped into `Z_{2^32}` first: clip to `[-clip, clip]`,
//! scale to an integer grid, and shift to be non-negative. Summation of
//! up to `max_summands` encoded vectors is then exact in the ring (no
//! wraparound) and decodes to the sum of the clipped inputs up to grid
//! resolution.
//!
//! The ring is the one `fl-secagg` masks and sums vectors in. An encoded
//! value is below `2^32` and is handed over as a `u64`, the width of a
//! `SecAggReport` coordinate on the wire.

use std::fmt;

/// The size of the ring `Z_{2^32}` encoded vectors are summed in.
const RING: u128 = 1 << 32;

/// Errors from fixed-point encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum FixedPointError {
    /// Parameters would overflow the ring when `max_summands` vectors are added.
    WouldOverflow {
        /// Required headroom in ring elements.
        required: u128,
    },
    /// Non-finite input value.
    NonFinite,
}

impl fmt::Display for FixedPointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixedPointError::WouldOverflow { required } => {
                write!(
                    f,
                    "encoding would overflow the ring (requires {required} elements)"
                )
            }
            FixedPointError::NonFinite => write!(f, "input contains a non-finite value"),
        }
    }
}

impl std::error::Error for FixedPointError {}

/// A fixed-point encoder for a known maximum number of summands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPointEncoder {
    clip: f64,
    resolution_bits: u32,
    max_summands: u64,
}

impl FixedPointEncoder {
    /// Creates an encoder.
    ///
    /// * `clip` — values are clamped to `[-clip, clip]` before encoding;
    /// * `resolution_bits` — the grid has `2^resolution_bits` steps per unit;
    /// * `max_summands` — the number of encoded vectors that may be summed
    ///   in the ring without wrapping.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::WouldOverflow`] if `max_summands` times
    /// the largest encoded value (`2·⌈clip·2^resolution_bits⌉`) is `2^32`
    /// or more.
    pub fn new(
        clip: f64,
        resolution_bits: u32,
        max_summands: u64,
    ) -> Result<Self, FixedPointError> {
        assert!(clip > 0.0, "clip must be positive");
        assert!(max_summands > 0, "max_summands must be positive");
        // The offset, half the largest encoded value.
        let half = clip * f64::from(2u32).powi(resolution_bits as i32);
        if !half.is_finite() || 2.0 * half >= u64::MAX as f64 {
            return Err(FixedPointError::WouldOverflow {
                required: u128::MAX,
            });
        }
        let required = 2 * half.ceil() as u128 * u128::from(max_summands);
        if required >= RING {
            return Err(FixedPointError::WouldOverflow { required });
        }
        Ok(FixedPointEncoder {
            clip,
            resolution_bits,
            max_summands,
        })
    }

    /// A sensible default for FL updates: clip 64.0 (weighted deltas
    /// `n·(w−w₀)` scale with the local example count), 18 resolution
    /// bits, up to 127 summands: a value is at most `2·64·2¹⁸ = 2²⁵`, and
    /// `127·2²⁵ < 2³²`. The summands are one SecAgg group, an Aggregator
    /// shard's devices: the Master merges the shards' unmasked sums.
    pub fn default_for_updates() -> Self {
        FixedPointEncoder::new(64.0, 18, 127).expect("default parameters fit the ring")
    }

    /// The largest value [`Self::encode`] returns, that of `clip`.
    pub fn max_encoded(&self) -> u64 {
        2 * self.offset()
    }

    /// The most encoded vectors that sum in the ring without wrapping.
    pub fn max_summands(&self) -> u64 {
        self.max_summands
    }

    /// Grid scale factor (`2^resolution_bits`).
    fn scale(&self) -> f64 {
        f64::from(2u32).powi(self.resolution_bits as i32)
    }

    /// Offset added to make encoded values non-negative.
    fn offset(&self) -> u64 {
        (self.clip * self.scale()).ceil() as u64
    }

    /// Encodes one value on a grid of `scale` steps per unit shifted by
    /// `offset` (this encoder's [`Self::scale`] and [`Self::offset`], which
    /// a vector's worth of values computes once).
    fn encode_on_grid(&self, x: f32, scale: f64, offset: i64) -> Result<u64, FixedPointError> {
        if !x.is_finite() {
            return Err(FixedPointError::NonFinite);
        }
        let clipped = f64::from(x).clamp(-self.clip, self.clip);
        Ok(((clipped * scale).round() as i64 + offset) as u64)
    }

    /// Encodes one value into the ring.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::NonFinite`] for NaN/infinite input.
    // fl-lint: allow(test-only-pub): per-value reference for the codec in tests/properties.rs
    pub fn encode_value(&self, x: f32) -> Result<u64, FixedPointError> {
        self.encode_on_grid(x, self.scale(), self.offset() as i64)
    }

    /// Encodes a vector into ring elements.
    ///
    /// # Errors
    ///
    /// Returns an error on non-finite inputs.
    pub fn encode(&self, xs: &[f32]) -> Result<Vec<u64>, FixedPointError> {
        let (scale, offset) = (self.scale(), self.offset() as i64);
        xs.iter()
            .map(|&x| self.encode_on_grid(x, scale, offset))
            .collect()
    }

    /// The total offset carried by a sum of `summands` encoded values.
    ///
    /// # Panics
    ///
    /// Panics if `summands` exceeds [`FixedPointEncoder::max_summands`].
    fn sum_offset(&self, summands: u64) -> i128 {
        assert!(
            summands <= self.max_summands,
            "decode called with more summands than encoder supports"
        );
        (u128::from(self.offset()) * u128::from(summands)) as i128
    }

    /// Decodes one summed element given the grid `scale` and the sum's
    /// [`Self::sum_offset`].
    fn decode_on_grid(v: u32, scale: f64, sum_offset: i128) -> f32 {
        ((i128::from(v) - sum_offset) as f64 / scale) as f32
    }

    /// Decodes a ring element that is the sum of `summands` encoded values.
    ///
    /// # Panics
    ///
    /// Panics if `summands` exceeds [`FixedPointEncoder::max_summands`].
    // fl-lint: allow(test-only-pub): per-value reference for the codec in tests/properties.rs
    pub fn decode_sum_value(&self, v: u32, summands: u64) -> f32 {
        Self::decode_on_grid(v, self.scale(), self.sum_offset(summands))
    }

    /// Decodes a summed vector.
    ///
    /// # Panics
    ///
    /// Panics if `summands` exceeds the configured maximum.
    pub fn decode_sum(&self, vs: &[u32], summands: u64) -> Vec<f32> {
        let (scale, offset) = (self.scale(), self.sum_offset(summands));
        vs.iter()
            .map(|&v| Self::decode_on_grid(v, scale, offset))
            .collect()
    }

    /// Worst-case absolute decode error per summand (half a grid step).
    pub fn per_summand_error(&self) -> f64 {
        0.5 / self.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An encoded value (or a sum within the headroom) as the ring element
    /// it is.
    fn ring(v: u64) -> u32 {
        u32::try_from(v).unwrap()
    }

    #[test]
    fn round_trips_single_values() {
        let enc = FixedPointEncoder::new(4.0, 16, 100).unwrap();
        for x in [-3.9f32, -1.0, 0.0, 0.5, 3.9] {
            let v = ring(enc.encode_value(x).unwrap());
            let back = enc.decode_sum_value(v, 1);
            assert!((back - x).abs() < 1e-3, "{x} -> {back}");
        }
    }

    #[test]
    fn clips_out_of_range_values() {
        let enc = FixedPointEncoder::new(1.0, 16, 10).unwrap();
        let v = ring(enc.encode_value(100.0).unwrap());
        assert!((enc.decode_sum_value(v, 1) - 1.0).abs() < 1e-3);
        let v = ring(enc.encode_value(-100.0).unwrap());
        assert!((enc.decode_sum_value(v, 1) + 1.0).abs() < 1e-3);
    }

    #[test]
    fn sums_decode_to_sum_of_inputs() {
        // 2·4·2^20 = 2^23 a value, so 511 summands fit below 2^32.
        let enc = FixedPointEncoder::new(4.0, 20, 511).unwrap();
        let xs = [0.25f32, -1.5, 3.0, 0.125];
        let encoded: Vec<u32> = xs
            .iter()
            .map(|&x| ring(enc.encode_value(x).unwrap()))
            .collect();
        // Within the headroom the ring sum never wraps.
        let ring_sum = encoded
            .iter()
            .try_fold(0u32, |s, &v| s.checked_add(v))
            .unwrap();
        let back = enc.decode_sum_value(ring_sum, xs.len() as u64);
        let expect: f32 = xs.iter().sum();
        assert!((back - expect).abs() < 1e-3, "{back} vs {expect}");
        // At the headroom: 511 summands of `clip` do not wrap either.
        let top = ring(enc.encode_value(4.0).unwrap());
        let full = (0..511).try_fold(0u32, |s, _| s.checked_add(top)).unwrap();
        assert_eq!(enc.decode_sum_value(full, 511), 511.0 * 4.0);
    }

    #[test]
    fn rejects_overflowing_parameters() {
        assert!(matches!(
            FixedPointEncoder::new(1e12, 32, u64::MAX / 2),
            Err(FixedPointError::WouldOverflow { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let enc = FixedPointEncoder::default_for_updates();
        assert_eq!(enc.encode_value(f32::NAN), Err(FixedPointError::NonFinite));
        assert_eq!(
            enc.encode_value(f32::INFINITY),
            Err(FixedPointError::NonFinite)
        );
    }

    #[test]
    fn default_encoder_fits_field() {
        let enc = FixedPointEncoder::default_for_updates();
        // A `round_secagg` shard group of 16 fits, and so does
        // `bench_secagg`'s single group of 64.
        assert_eq!(enc.max_summands(), 127);
        // Encoded max value times max summands stays under the ring size.
        let max_encoded = enc.encode_value(1e9).unwrap();
        assert_eq!(max_encoded, 1 << 25);
        assert_eq!(enc.max_encoded(), max_encoded);
        assert!(u128::from(max_encoded) * u128::from(enc.max_summands) < RING);
        // One more summand would reach 2^32.
        assert_eq!(
            FixedPointEncoder::new(64.0, 18, 128),
            Err(FixedPointError::WouldOverflow { required: RING })
        );
    }

    #[test]
    fn vector_encode_decode() {
        let enc = FixedPointEncoder::new(2.0, 18, 4).unwrap();
        let a = [0.5f32, -0.25, 1.0];
        let b = [0.1f32, 0.2, -0.9];
        let ea = enc.encode(&a).unwrap();
        let eb = enc.encode(&b).unwrap();
        let sum: Vec<u32> = ea.iter().zip(&eb).map(|(x, y)| ring(x + y)).collect();
        let decoded = enc.decode_sum(&sum, 2);
        for ((x, y), d) in a.iter().zip(&b).zip(&decoded) {
            assert!((x + y - d).abs() < 1e-3);
        }
    }

    #[test]
    fn vector_forms_equal_the_per_value_forms_bit_for_bit() {
        let enc = FixedPointEncoder::default_for_updates();
        let xs: Vec<f32> = (-700..700).map(|i| i as f32 * 0.0937).collect();
        let encoded = enc.encode(&xs).unwrap();
        let per_value: Vec<u64> = xs.iter().map(|&x| enc.encode_value(x).unwrap()).collect();
        assert_eq!(encoded, per_value);
        let sums: Vec<u32> = encoded.iter().map(|v| ring(v * 3)).collect();
        let decoded = enc.decode_sum(&sums, 3);
        for (&v, d) in sums.iter().zip(&decoded) {
            assert_eq!(d.to_bits(), enc.decode_sum_value(v, 3).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "more summands")]
    fn decode_rejects_excess_summands() {
        let enc = FixedPointEncoder::new(1.0, 8, 2).unwrap();
        let _ = enc.decode_sum_value(0, 3);
    }
}
