//! Model-update compression (Sec. 11, *Bandwidth*).
//!
//! The paper: "To reduce the bandwidth necessary, we implement compression
//! techniques such as those of Konečný et al. (2016b) and Caldas et al.
//! (2018)." Those works propose (a) probabilistic/uniform quantization and
//! (b) structured or sketched (random-mask subsampled) updates where the
//! mask is regenerated from a shared seed so only the kept values travel.
//!
//! This module implements both as composable [`UpdateCodec`]s, plus the
//! identity codec for baselines. Codecs are lossy; tests bound the error.
//! Encoded sizes drive the Figure 9 traffic asymmetry experiment (model
//! updates "are inherently more compressible compared to the global model").

use std::fmt;

/// Error from decoding a compressed update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream is shorter than its header claims.
    Truncated,
    /// The header is malformed or has an unknown tag.
    BadHeader,
    /// The decoded length does not match what the caller expected.
    LengthMismatch {
        /// Expected vector length.
        expected: usize,
        /// Length found in the stream.
        actual: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream is truncated"),
            CodecError::BadHeader => write!(f, "compressed stream has a malformed header"),
            CodecError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "decoded length mismatch: expected {expected}, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A lossy vector codec for model updates.
pub trait UpdateCodec {
    /// Encodes an update into bytes.
    fn encode(&self, update: &[f32]) -> Vec<u8>;

    /// Decodes bytes back into a vector of length `len`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the stream is malformed or the length
    /// does not match.
    fn decode(&self, bytes: &[u8], len: usize) -> Result<Vec<f32>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(bytes, len, &mut out)?;
        Ok(out)
    }

    /// [`UpdateCodec::decode`] into a caller-owned vector, replacing its
    /// contents: an aggregator folding a stream of updates keeps one
    /// scratch vector instead of allocating a model-sized one per device.
    ///
    /// # Errors
    ///
    /// As [`UpdateCodec::decode`]; `out` is then unspecified.
    fn decode_into(&self, bytes: &[u8], len: usize, out: &mut Vec<f32>) -> Result<(), CodecError>;

    /// Adds the update `bytes` encode, of length `sum.len()`, into `sum`
    /// coordinate by coordinate (`sum[i] += update[i]`, in index order),
    /// or leaves `sum` untouched and returns the error
    /// [`UpdateCodec::decode`] would. A streaming aggregator folds each
    /// update in with this: the default decodes into `scratch` and adds
    /// from there, and a codec whose wire form is the vector itself adds
    /// straight from `bytes`.
    ///
    /// # Errors
    ///
    /// As [`UpdateCodec::decode`].
    fn add_into(
        &self,
        bytes: &[u8],
        sum: &mut [f32],
        scratch: &mut Vec<f32>,
    ) -> Result<(), CodecError> {
        self.decode_into(bytes, sum.len(), scratch)?;
        for (s, v) in sum.iter_mut().zip(scratch.iter()) {
            *s += v;
        }
        Ok(())
    }

    /// Human-readable codec name for reports.
    fn name(&self) -> &'static str;
}

/// The update length an encoded stream declares, which every codec here
/// writes first as a little-endian `u32`; `None` for a stream too short to
/// hold it. Decoding checks it against the caller's length before anything
/// else.
pub fn encoded_len(bytes: &[u8]) -> Option<usize> {
    get_u32(bytes, 0).ok().map(|n| n as usize)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> Result<u32, CodecError> {
    let slice = bytes.get(at..at + 4).ok_or(CodecError::Truncated)?;
    Ok(u32::from_le_bytes(slice.try_into().unwrap()))
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_f32(bytes: &[u8], at: usize) -> Result<f32, CodecError> {
    let slice = bytes.get(at..at + 4).ok_or(CodecError::Truncated)?;
    Ok(f32::from_le_bytes(slice.try_into().unwrap()))
}

/// Lossless pass-through codec: 4 bytes per coordinate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityCodec;

impl IdentityCodec {
    /// The `len` little-endian `f32` coordinates of `bytes`, checked
    /// against the count prefix.
    fn values(bytes: &[u8], len: usize) -> Result<&[[u8; 4]], CodecError> {
        let n = get_u32(bytes, 0)? as usize;
        if n != len {
            return Err(CodecError::LengthMismatch {
                expected: len,
                actual: n,
            });
        }
        bytes[4..]
            .as_chunks::<4>()
            .0
            .get(..n)
            .ok_or(CodecError::Truncated)
    }
}

impl UpdateCodec for IdentityCodec {
    fn encode(&self, update: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + update.len() * 4);
        put_u32(&mut out, update.len() as u32);
        for &v in update {
            put_f32(&mut out, v);
        }
        out
    }

    fn decode_into(&self, bytes: &[u8], len: usize, out: &mut Vec<f32>) -> Result<(), CodecError> {
        // Size nothing before the bytes for `len` values are known to be
        // present.
        let values = IdentityCodec::values(bytes, len)?;
        out.clear();
        out.extend(values.iter().map(|v| f32::from_le_bytes(*v)));
        Ok(())
    }

    /// Adds straight from `bytes`, which hold the vector itself: no
    /// decoded copy, and `scratch` is not touched.
    fn add_into(
        &self,
        bytes: &[u8],
        sum: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) -> Result<(), CodecError> {
        let values = IdentityCodec::values(bytes, sum.len())?;
        for (s, v) in sum.iter_mut().zip(values) {
            *s += f32::from_le_bytes(*v);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

/// Uniform int8 quantization with per-block scale.
///
/// Coordinates are grouped into blocks; each block stores its max-abs scale
/// as f32 and one signed byte per coordinate — a ~4× size reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizeCodec {
    block: usize,
}

impl QuantizeCodec {
    /// Creates a quantizer with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        QuantizeCodec { block }
    }
}

impl Default for QuantizeCodec {
    fn default() -> Self {
        QuantizeCodec::new(256)
    }
}

impl UpdateCodec for QuantizeCodec {
    fn encode(&self, update: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + update.len() + update.len() / self.block * 4 + 4);
        put_u32(&mut out, update.len() as u32);
        put_u32(&mut out, self.block as u32);
        for chunk in update.chunks(self.block) {
            let scale = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            put_f32(&mut out, scale);
            for &v in chunk {
                let q = if scale == 0.0 {
                    0i8
                } else {
                    (v / scale * 127.0).round().clamp(-127.0, 127.0) as i8
                };
                out.push(q as u8);
            }
        }
        out
    }

    fn decode_into(&self, bytes: &[u8], len: usize, out: &mut Vec<f32>) -> Result<(), CodecError> {
        let n = get_u32(bytes, 0)? as usize;
        let block = get_u32(bytes, 4)? as usize;
        if n != len {
            return Err(CodecError::LengthMismatch {
                expected: len,
                actual: n,
            });
        }
        if block == 0 {
            return Err(CodecError::BadHeader);
        }
        out.clear();
        out.reserve(n);
        let mut at = 8usize;
        let mut remaining = n;
        while remaining > 0 {
            let k = remaining.min(block);
            let scale = get_f32(bytes, at)?;
            at += 4;
            let vals = bytes.get(at..at + k).ok_or(CodecError::Truncated)?;
            at += k;
            for &b in vals {
                out.push(f32::from(b as i8) / 127.0 * scale);
            }
            remaining -= k;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "int8-quantize"
    }
}

/// Seeded random-mask subsampling (the "sketched update" of Konečný et al.).
///
/// A pseudo-random mask keeps a fraction of coordinates; kept values are
/// scaled by `1/keep_fraction` so the update is unbiased in expectation.
/// Because the mask derives from a seed shared with the server, only the
/// seed and kept values are transmitted — no indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsampleCodec {
    keep_fraction: f64,
    seed: u64,
}

impl SubsampleCodec {
    /// Creates a subsampling codec.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep_fraction <= 1`.
    pub fn new(keep_fraction: f64, seed: u64) -> Self {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep fraction must be in (0, 1]"
        );
        SubsampleCodec {
            keep_fraction,
            seed,
        }
    }

    fn mask(&self, len: usize) -> Vec<bool> {
        let mut rng = crate::rng::seeded(self.seed);
        (0..len)
            .map(|_| rand::RngExt::random::<f64>(&mut rng) < self.keep_fraction)
            .collect()
    }
}

impl UpdateCodec for SubsampleCodec {
    fn encode(&self, update: &[f32]) -> Vec<u8> {
        let mask = self.mask(update.len());
        let mut out = Vec::new();
        put_u32(&mut out, update.len() as u32);
        out.extend_from_slice(&self.seed.to_le_bytes());
        let kept: Vec<f32> = update
            .iter()
            .zip(&mask)
            .filter_map(|(&v, &m)| m.then_some(v))
            .collect();
        put_u32(&mut out, kept.len() as u32);
        for v in kept {
            put_f32(&mut out, v);
        }
        out
    }

    fn decode_into(&self, bytes: &[u8], len: usize, out: &mut Vec<f32>) -> Result<(), CodecError> {
        let n = get_u32(bytes, 0)? as usize;
        if n != len {
            return Err(CodecError::LengthMismatch {
                expected: len,
                actual: n,
            });
        }
        let seed_bytes = bytes.get(4..12).ok_or(CodecError::Truncated)?;
        let seed = u64::from_le_bytes(seed_bytes.try_into().unwrap());
        let kept_n = get_u32(bytes, 12)? as usize;
        let codec = SubsampleCodec::new(self.keep_fraction, seed);
        let mask = codec.mask(n);
        if mask.iter().filter(|&&m| m).count() != kept_n {
            return Err(CodecError::BadHeader);
        }
        let scale = 1.0 / self.keep_fraction as f32;
        out.clear();
        out.resize(n, 0.0);
        let mut at = 16usize;
        for (slot, &m) in out.iter_mut().zip(&mask) {
            if m {
                *slot = get_f32(bytes, at)? * scale;
                at += 4;
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "seeded-subsample"
    }
}

/// Subsample-then-quantize pipeline: the full Konečný et al. recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineCodec {
    subsample: SubsampleCodec,
    quantize: QuantizeCodec,
}

impl PipelineCodec {
    /// Creates the composed codec.
    pub fn new(keep_fraction: f64, seed: u64, block: usize) -> Self {
        PipelineCodec {
            subsample: SubsampleCodec::new(keep_fraction, seed),
            quantize: QuantizeCodec::new(block),
        }
    }
}

impl UpdateCodec for PipelineCodec {
    fn encode(&self, update: &[f32]) -> Vec<u8> {
        let mask = self.subsample.mask(update.len());
        let kept: Vec<f32> = update
            .iter()
            .zip(&mask)
            .filter_map(|(&v, &m)| m.then_some(v))
            .collect();
        let mut out = Vec::new();
        put_u32(&mut out, update.len() as u32);
        out.extend_from_slice(&self.subsample.seed.to_le_bytes());
        out.extend(self.quantize.encode(&kept));
        out
    }

    fn decode_into(&self, bytes: &[u8], len: usize, out: &mut Vec<f32>) -> Result<(), CodecError> {
        let n = get_u32(bytes, 0)? as usize;
        if n != len {
            return Err(CodecError::LengthMismatch {
                expected: len,
                actual: n,
            });
        }
        let seed_bytes = bytes.get(4..12).ok_or(CodecError::Truncated)?;
        let seed = u64::from_le_bytes(seed_bytes.try_into().unwrap());
        let codec = SubsampleCodec::new(self.subsample.keep_fraction, seed);
        let mask = codec.mask(n);
        let kept_n = mask.iter().filter(|&&m| m).count();
        let kept = self.quantize.decode(&bytes[12..], kept_n)?;
        let scale = 1.0 / self.subsample.keep_fraction as f32;
        out.clear();
        out.resize(n, 0.0);
        let mut it = kept.into_iter();
        for (slot, &m) in out.iter_mut().zip(&mask) {
            if m {
                *slot = it.next().ok_or(CodecError::Truncated)? * scale;
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "subsample+int8"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compression report for an update vector under a codec.
    #[derive(Debug, Clone, PartialEq)]
    struct CompressionReport {
        /// Codec name.
        codec: &'static str,
        /// Uncompressed size in bytes (4 per coordinate).
        raw_bytes: usize,
        /// Encoded size in bytes.
        encoded_bytes: usize,
        /// Relative L2 reconstruction error.
        relative_error: f64,
    }

    impl CompressionReport {
        /// `raw / encoded` compression ratio.
        fn ratio(&self) -> f64 {
            self.raw_bytes as f64 / self.encoded_bytes.max(1) as f64
        }
    }

    /// Encodes, decodes, and measures a codec on an update vector.
    ///
    /// # Errors
    ///
    /// Propagates decode errors (which indicate a codec bug).
    fn measure<C: UpdateCodec>(codec: &C, update: &[f32]) -> Result<CompressionReport, CodecError> {
        let encoded = codec.encode(update);
        let decoded = codec.decode(&encoded, update.len())?;
        let err: f64 = update
            .iter()
            .zip(&decoded)
            .map(|(a, b)| f64::from(a - b) * f64::from(a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = update
            .iter()
            .map(|a| f64::from(*a) * f64::from(*a))
            .sum::<f64>()
            .sqrt();
        Ok(CompressionReport {
            codec: codec.name(),
            raw_bytes: update.len() * 4,
            encoded_bytes: encoded.len(),
            relative_error: if norm == 0.0 { 0.0 } else { err / norm },
        })
    }

    fn sample_update(n: usize) -> Vec<f32> {
        let mut rng = crate::rng::seeded(21);
        (0..n)
            .map(|_| crate::rng::normal_with_std(&mut rng, 0.05) as f32)
            .collect()
    }

    #[test]
    fn identity_round_trips_exactly() {
        let u = sample_update(1000);
        let c = IdentityCodec;
        let decoded = c.decode(&c.encode(&u), u.len()).unwrap();
        assert_eq!(u, decoded);
    }

    #[test]
    fn quantize_shrinks_4x_with_small_error() {
        let u = sample_update(10_000);
        let report = measure(&QuantizeCodec::default(), &u).unwrap();
        assert!(report.ratio() > 3.5, "ratio {}", report.ratio());
        assert!(
            report.relative_error < 0.01,
            "err {}",
            report.relative_error
        );
    }

    #[test]
    fn subsample_is_unbiased_in_expectation() {
        let u = vec![1.0f32; 10_000];
        let c = SubsampleCodec::new(0.25, 7);
        let decoded = c.decode(&c.encode(&u), u.len()).unwrap();
        let mean: f64 = decoded.iter().map(|&v| f64::from(v)).sum::<f64>() / u.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn subsample_shrinks_proportionally() {
        let u = sample_update(10_000);
        let report = measure(&SubsampleCodec::new(0.1, 3), &u).unwrap();
        // ~10% of coordinates at 4 bytes each.
        assert!(report.ratio() > 8.0, "ratio {}", report.ratio());
    }

    #[test]
    fn pipeline_compounds_ratios() {
        let u = sample_update(100_000);
        let report = measure(&PipelineCodec::new(0.25, 11, 256), &u).unwrap();
        // 4× from subsampling times ~4× from int8.
        assert!(report.ratio() > 12.0, "ratio {}", report.ratio());
        assert!(report.relative_error < 2.0);
    }

    #[test]
    fn truncated_stream_errors() {
        let u = sample_update(100);
        let c = QuantizeCodec::default();
        let enc = c.encode(&u);
        assert_eq!(c.decode(&enc[..10], 100), Err(CodecError::Truncated));
    }

    #[test]
    fn decode_into_replaces_a_dirty_scratch_for_every_codec() {
        let u = sample_update(1_000);
        let codecs: [&dyn UpdateCodec; 4] = [
            &IdentityCodec,
            &QuantizeCodec::default(),
            &SubsampleCodec::new(0.25, 7),
            &PipelineCodec::new(0.25, 11, 64),
        ];
        for codec in codecs {
            let enc = codec.encode(&u);
            let mut scratch = vec![9.0f32; 3_000];
            codec.decode_into(&enc, u.len(), &mut scratch).unwrap();
            assert_eq!(
                scratch,
                codec.decode(&enc, u.len()).unwrap(),
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn add_into_matches_decode_then_add_for_every_codec() {
        let u = sample_update(1_000);
        let base = sample_update(1_000);
        let codecs: [&dyn UpdateCodec; 4] = [
            &IdentityCodec,
            &QuantizeCodec::default(),
            &SubsampleCodec::new(0.25, 7),
            &PipelineCodec::new(0.25, 11, 64),
        ];
        for codec in codecs {
            let enc = codec.encode(&u);
            let decoded = codec.decode(&enc, u.len()).unwrap();
            let expected: Vec<f32> = base.iter().zip(&decoded).map(|(b, d)| b + d).collect();
            let mut sum = base.clone();
            codec.add_into(&enc, &mut sum, &mut Vec::new()).unwrap();
            assert_eq!(sum, expected, "{}", codec.name());
            // A stream of another length leaves the sum as it was.
            let mut short = base[..999].to_vec();
            assert!(codec.add_into(&enc, &mut short, &mut Vec::new()).is_err());
            assert_eq!(short, base[..999], "{}", codec.name());
        }
    }

    #[test]
    fn identity_stream_shorter_than_its_count_is_truncated() {
        let mut enc = IdentityCodec.encode(&[1.0, 2.0, 3.0]);
        enc.truncate(4 + 2 * 4 + 3);
        assert_eq!(IdentityCodec.decode(&enc, 3), Err(CodecError::Truncated));
    }

    #[test]
    fn wrong_length_errors() {
        let u = sample_update(100);
        let c = IdentityCodec;
        let enc = c.encode(&u);
        assert!(matches!(
            c.decode(&enc, 99),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn zero_update_round_trips() {
        let u = vec![0.0f32; 500];
        for report in [
            measure(&QuantizeCodec::default(), &u).unwrap(),
            measure(&SubsampleCodec::new(0.5, 1), &u).unwrap(),
        ] {
            assert_eq!(report.relative_error, 0.0);
        }
    }
}
