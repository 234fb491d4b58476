//! Aggregators and the Master Aggregator (Sec. 4.2, Sec. 6).
//!
//! "Master Aggregators manage the rounds of each FL task. In order to
//! scale with the number of devices and update size, they make dynamic
//! decisions to spawn one or more Aggregators to which work is delegated."
//!
//! Each [`AggregatorShard`] folds incoming updates into a streaming
//! [`FedAvgAccumulator`]; nothing per-device is retained. When Secure
//! Aggregation is enabled, "we run an instance of Secure Aggregation on
//! each Aggregator actor to aggregate inputs from that Aggregator's
//! devices into an intermediate sum; FL tasks define a parameter k so that
//! all updates are securely aggregated over groups of size at least k. The
//! Master Aggregator then further aggregates the intermediate aggregators'
//! results into a final aggregate for the round, without Secure
//! Aggregation."
//!
//! A device's update reaches its shard in the buffer the socket read
//! filled: the Coordinator's round opens the device's report frame once,
//! and an accepted one goes on to the Master with what that parse read
//! ([`ReportRoute`]); the Master routes it by device to the device's
//! shard; the shard folds the payload where it lies
//! ([`AggregatorShard::accept_forwarded`]): an Identity update is added
//! into the shard's sum straight from the frame, and only a codec that
//! must decode first, DP clipping or SecAgg staging goes through one
//! scratch vector the shard keeps for the round. The Master's merge
//! starts from the first non-empty shard's sum. In the live tree the
//! frame is moved along
//! ([`ForwardedReport`] in [`MasterMsg::Update`]), and everything else on
//! the Coordinator → Master → shard path is a typed message
//! ([`MasterMsg`], [`ShardMsg`]): these are actors of one process, and a
//! round closes with one [`MasterMsg::Finalize`] — the same for plain
//! and SecAgg rounds — answered by one [`MergeOutcome`].
//!
//! The struct [`MasterAggregator`] is the Master the in-process drivers
//! (the chaos and training simulators) run, and the single-threaded
//! reference the actor tree is tested against bit for bit. The two share
//! the routing function, the fold dispatch
//! ([`AggregatorShard::accept_forwarded`]) and the closed-shards →
//! [`MergeOutcome`] routine.

use crate::live::CoordMsg;
use fl_actors::{Actor, ActorRef, Context as ActorContext, Flow, Reply};
use fl_core::aggregation::FedAvgAccumulator;
use fl_core::plan::CodecSpec;
use fl_core::privacy::DpConfig;
use fl_core::{CoreError, DeviceId};
use fl_ml::fixedpoint::FixedPointEncoder;
use fl_secagg::protocol::{run_instance, SecAggConfig};
use fl_secagg::SecAggError;
use std::collections::BTreeMap;

/// How a Master Aggregator shards a round's devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationPlan {
    /// Update dimension.
    pub dim: usize,
    /// Maximum devices handled by one Aggregator shard.
    pub max_per_shard: usize,
    /// Secure Aggregation minimum group size `k`; `None` = plain
    /// aggregation.
    pub secagg_k: Option<usize>,
    /// Server-side DP-FedAvg: clip every update at the shard, perturb the
    /// final sum at the master (Sec. 6, footnote 2).
    pub dp: Option<DpConfig>,
}

impl AggregationPlan {
    /// Plain aggregation with the given shard capacity.
    pub fn plain(dim: usize, max_per_shard: usize) -> Self {
        AggregationPlan {
            dim,
            max_per_shard,
            secagg_k: None,
            dp: None,
        }
    }

    /// Adds the DP-FedAvg mechanism to this plan.
    pub fn with_dp(mut self, dp: DpConfig) -> Self {
        self.dp = Some(dp);
        self
    }

    /// Secure aggregation over groups of at least `k`.
    pub fn with_secagg(dim: usize, max_per_shard: usize, k: usize) -> Self {
        AggregationPlan {
            dim,
            max_per_shard,
            secagg_k: Some(k),
            dp: None,
        }
    }

    /// Number of shards the Master Aggregator spawns for `expected`
    /// devices (dynamic decision, Sec. 4.2). At least one; with SecAgg the
    /// shard size must stay ≥ k so every group meets the minimum.
    pub fn shard_count(&self, expected: usize) -> usize {
        let by_capacity = expected.div_ceil(self.max_per_shard.max(1)).max(1);
        if let Some(k) = self.secagg_k {
            // Don't create shards smaller than k.
            let max_shards = (expected / k.max(1)).max(1);
            by_capacity.min(max_shards)
        } else {
            by_capacity
        }
    }
}

/// One ephemeral Aggregator: a streaming accumulator for its assigned
/// devices. Plain mode folds decoded updates immediately; SecAgg mode
/// buffers *fixed-point-encoded masked contributions* via the secagg
/// protocol run at shard close.
#[derive(Debug)]
pub struct AggregatorShard {
    accumulator: FedAvgAccumulator,
    codec: CodecSpec,
    /// L2 clip applied to each decoded update (DP-FedAvg).
    clip_norm: Option<f32>,
    /// SecAgg staging: device → its *encoded field vector* in the ring
    /// `Z_{2^32}` (the vector a device would send masked), 4 B a
    /// coordinate: `dim + 1` entries, the weight last. [`Self::close`]
    /// hands these vectors to the protocol, whose clients mask them in
    /// place. `None` in plain mode.
    secagg_inputs: Option<BTreeMap<DeviceId, Vec<u32>>>,
    /// The task's minimum SecAgg group size `k`; the shard aborts its
    /// round if dropouts leave its group smaller. `None` in plain mode.
    secagg_k: Option<usize>,
    encoder: FixedPointEncoder,
    dim: usize,
    /// The update being folded, where `accept` needs it decoded (a codec
    /// whose wire form is not the vector itself, DP clipping, SecAgg
    /// staging): one vector, so a shard allocates a model's worth once,
    /// not per device.
    scratch: Vec<f32>,
}

impl AggregatorShard {
    /// Creates a shard; `secagg` carries the task's minimum group size
    /// `k` when Secure Aggregation is enabled.
    pub fn new(dim: usize, codec: CodecSpec, secagg: Option<usize>) -> Self {
        AggregatorShard::with_clip(dim, codec, secagg, None)
    }

    /// Creates a shard with an optional DP clip norm.
    pub fn with_clip(
        dim: usize,
        codec: CodecSpec,
        secagg: Option<usize>,
        clip_norm: Option<f32>,
    ) -> Self {
        AggregatorShard {
            accumulator: FedAvgAccumulator::new(dim),
            codec,
            clip_norm,
            secagg_inputs: secagg.map(|_| BTreeMap::new()),
            secagg_k: secagg,
            encoder: FixedPointEncoder::default_for_updates(),
            dim,
            scratch: Vec::new(),
        }
    }

    /// Number of devices folded/staged so far.
    pub fn contributors(&self) -> usize {
        match &self.secagg_inputs {
            Some(staged) => staged.len(),
            None => self.accumulator.contributors(),
        }
    }

    /// Accepts one device's *encoded* update bytes plus its weight.
    ///
    /// Plain mode: fold immediately (streaming, in-memory), where the
    /// bytes lie unless the codec must decode first
    /// ([`FedAvgAccumulator::accumulate_encoded`]); with DP clipping, the
    /// decoded and clipped update.
    /// SecAgg mode: fixed-point-encode the update and stage it with its
    /// weight for the protocol run, as [`AggregatorShard::accept_field`].
    ///
    /// # Errors
    ///
    /// Decode failures, dimension mismatches, or (SecAgg mode) a weight
    /// [`AggregatorShard::accept_field`] refuses.
    pub fn accept(
        &mut self,
        device: DeviceId,
        update_bytes: &[u8],
        weight: u64,
    ) -> Result<(), CoreError> {
        let codec = self.codec.build();
        if self.clip_norm.is_none() && self.secagg_inputs.is_none() {
            return self.accumulator.accumulate_encoded(
                &*codec,
                update_bytes,
                weight,
                &mut self.scratch,
            );
        }
        codec
            .decode_into(update_bytes, self.dim, &mut self.scratch)
            .map_err(|e| CoreError::MalformedCheckpoint(e.to_string()))?;
        if let Some(clip) = self.clip_norm {
            // DP-FedAvg: bound each device's contribution before it joins
            // the (ephemeral) aggregate. Done identically on the SecAgg
            // path, where the device would clip before masking.
            fl_core::privacy::clip_l2(&mut self.scratch, clip);
        }
        if self.secagg_inputs.is_none() {
            // One device's update is a sum of one.
            return self
                .accumulator
                .accumulate_presummed(&self.scratch, weight, 1);
        }
        let encoded = self
            .encoder
            .encode(&self.scratch)
            .map_err(|e| CoreError::MalformedCheckpoint(e.to_string()))?;
        self.stage_field(device, encoded.into_iter(), weight)
    }

    /// Accepts one device's *already fixed-point-encoded* vector — the
    /// unmasked payload a [`fl_wire::WireMessage::SecAggReport`] carries
    /// (the shard runs both halves of the protocol, see
    /// [`AggregatorShard::close`]) — plus its weight. SecAgg mode only.
    ///
    /// Every value is checked as it is staged, so a group's sum in
    /// `Z_{2^32}` cannot wrap: a coordinate must be on the encoder's grid
    /// (at most [`FixedPointEncoder::max_encoded`]), and a weight at most
    /// `(2^32 − 1) / max_summands`, so a group of up to
    /// [`FixedPointEncoder::max_summands`] devices sums its weights
    /// exactly. A larger group aborts at [`AggregatorShard::close`]. The
    /// `u64` coordinates (a `SecAggReport`'s width) are staged narrowed to
    /// the ring, 4 B each, in the pass that checks them.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] for a coordinate or weight past those
    /// bounds, dimension mismatches, or a vector offered to a plain shard.
    pub fn accept_field(
        &mut self,
        device: DeviceId,
        field: &[u64],
        weight: u64,
    ) -> Result<(), CoreError> {
        self.stage_field(device, field.iter().copied(), weight)
    }

    /// Accepts one forwarded report: folds (an `UpdateReport`'s clear
    /// bytes) or stages (a `SecAggReport`'s field vector) the payload
    /// `route` locates, where it lies in `frame`. The struct
    /// [`MasterAggregator`] and the [`AggregatorActor`] both take reports
    /// through here.
    ///
    /// # Errors
    ///
    /// As [`AggregatorShard::accept`] / [`AggregatorShard::accept_field`],
    /// or a payload span outside the frame.
    pub fn accept_forwarded(&mut self, route: &ReportRoute, frame: &[u8]) -> Result<(), CoreError> {
        let Some(payload) = frame.get(route.payload.clone()) else {
            return Err(CoreError::MalformedCheckpoint(
                "payload outside its frame".into(),
            ));
        };
        if route.field {
            let coordinates = payload.as_chunks::<8>().0;
            self.stage_field(
                route.device,
                coordinates.iter().map(|c| u64::from_le_bytes(*c)),
                route.weight,
            )
        } else {
            self.accept(route.device, payload, route.weight)
        }
    }

    /// [`AggregatorShard::accept_field`] over any source of coordinates,
    /// so a report frame's little-endian field bytes are staged straight
    /// from the frame, and [`AggregatorShard::accept`]'s encoded update.
    fn stage_field(
        &mut self,
        device: DeviceId,
        field: impl ExactSizeIterator<Item = u64> + Clone,
        weight: u64,
    ) -> Result<(), CoreError> {
        let Some(staged) = &mut self.secagg_inputs else {
            return Err(CoreError::MalformedCheckpoint(
                "field vector offered to a plain (non-SecAgg) shard".to_string(),
            ));
        };
        if field.len() != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                actual: field.len(),
            });
        }
        // Narrowed into a sized slice, which the pass vectorises; an
        // `extend` whose closure also folds the check did not (10.8 against
        // 3.8 µs a 4 112-coordinate report).
        let mut v = vec![0; self.dim + 1];
        check_secagg_input(&self.encoder, weight, field, Some(&mut v[..self.dim]))?;
        // The weight is at most `(2^32 − 1) / max_summands`.
        v[self.dim] = weight as u32;
        staged.insert(device, v);
        Ok(())
    }

    /// Closes the shard and returns its intermediate accumulator.
    ///
    /// In SecAgg mode this runs the four-round protocol over the staged
    /// devices (each a simulated client): `advertise_dropouts` vanish
    /// after advertising keys (cheap exclusion, no recovery needed) and
    /// `share_dropouts` vanish after sharing (their pairwise masks are
    /// reconstructed from the survivors' shares). What the shard decodes
    /// is the unmasked *sum*, but the privacy property is simulated, not
    /// held: `stage_field` keeps every device's unmasked vector until
    /// this call, which runs all n clients and the server in-process and
    /// hands each client its staged vector by value, to be masked where
    /// it lies: a close copies no input.
    /// ROADMAP item 3 (devices mask, the shard is the server half only) is
    /// the change that makes "the server never touches an individual
    /// update" true.
    ///
    /// At the `round_secagg` shard shape (16 devices, 4 113 coordinates,
    /// threshold 11, one share-stage drop-out) one close is ~0.5 ms on a
    /// 2-core AVX-512 x86-64 box, about 0.6 of it its 270 mask streams in
    /// `Z_{2^32}`: 240 of them are the clients' own, which
    /// item 3 moves onto the devices. Its 514 exponentiations (key pairs,
    /// batched agreements, one Lagrange inversion) are ~0.1 ms, and the
    /// rest is ring passes and share handling (`bench_secagg`'s
    /// `instance` row).
    ///
    /// # Errors
    ///
    /// [`ShardError::BelowThreshold`] when dropouts strand the group
    /// below the task minimum `k` or below the protocol's reconstruction
    /// threshold, and [`ShardError::GroupTooLarge`] when more devices
    /// would commit than the encoder's sum holds — clean per-shard
    /// aborts, never a silent mis-sum. Other SecAgg protocol failures
    /// surface as [`ShardError::SecAgg`].
    pub fn close(
        self,
        advertise_dropouts: &[DeviceId],
        share_dropouts: &[DeviceId],
        secagg_seed: u64,
    ) -> Result<FedAvgAccumulator, ShardError> {
        match self.secagg_inputs {
            None => Ok(self.accumulator),
            Some(staged) => {
                let devices: Vec<DeviceId> = staged.keys().copied().collect();
                let n = devices.len();
                if n == 0 {
                    return Ok(self.accumulator);
                }
                // `devices` is a `BTreeMap`'s keys: sorted.
                let position = |d: &DeviceId| devices.binary_search(d).ok().map(|i| i as u32);
                let adv_set: std::collections::BTreeSet<u32> =
                    advertise_dropouts.iter().filter_map(position).collect();
                let share_set: std::collections::BTreeSet<u32> = share_dropouts
                    .iter()
                    .filter_map(position)
                    .filter(|i| !adv_set.contains(i))
                    .collect();
                let alive = n - adv_set.len() - share_set.len();
                // Sticky device→shard routing can strand a group below
                // the task minimum k after dropouts (Sec. 6). That is a
                // typed per-shard abort: the round commits from the
                // surviving ≥ k groups only. The protocol itself needs two
                // devices, whatever k a task sets.
                if let Some(k) = self.secagg_k {
                    let required = k.max(2);
                    if alive < required {
                        return Err(ShardError::BelowThreshold { alive, required });
                    }
                }
                // `shard_count` keeps every group at k or more, so a group
                // can outgrow the summands its sum in `Z_{2^32}` holds.
                let max = self.encoder.max_summands() as usize;
                if alive > max {
                    return Err(ShardError::GroupTooLarge {
                        committed: alive,
                        max,
                    });
                }
                // Threshold: 2/3 of the group, at least 2 (the paper's
                // protocol is robust to a significant fraction dropping).
                let threshold = ((2 * n).div_ceil(3)).max(2).min(n);
                let config = SecAggConfig::new(threshold, self.dim + 1);
                let adv_idx: Vec<u32> = adv_set.into_iter().collect();
                let share_idx: Vec<u32> = share_set.into_iter().collect();
                let ring_inputs = staged.into_values();
                let sum = run_instance(config, ring_inputs, &adv_idx, &share_idx, secagg_seed)
                    .map_err(|e| match e {
                        SecAggError::BelowThreshold { alive, threshold } => {
                            ShardError::BelowThreshold {
                                alive,
                                required: threshold,
                            }
                        }
                        other => ShardError::SecAgg(other),
                    })?;
                let committed = alive;
                let weight_sum = u64::from(sum[self.dim]);
                let delta_sum = self.encoder.decode_sum(&sum[..self.dim], committed as u64);
                let mut acc = FedAvgAccumulator::new(self.dim);
                acc.accumulate_presummed(&delta_sum, weight_sum, committed)
                    .map_err(ShardError::Core)?;
                Ok(acc)
            }
        }
    }
}

/// At which SecAgg protocol stage a device vanished (Sec. 6): an
/// advertise-stage dropout is excluded cheaply before masks exist, while
/// a share-stage dropout's pairwise masks must be reconstructed from the
/// survivors' Shamir shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropStage {
    /// Dropped after advertising keys, before sharing them.
    Advertise,
    /// Dropped after sharing keys (the expensive recovery path).
    Share,
}

/// Errors from closing a shard.
#[derive(Debug)]
pub enum ShardError {
    /// Dropouts left the shard's SecAgg group with fewer live devices
    /// than required (the task minimum `k`, or the protocol's
    /// reconstruction threshold). The shard aborts cleanly; the round
    /// commits from the surviving shards.
    BelowThreshold {
        /// Devices still alive in the group.
        alive: usize,
        /// The minimum the group needed.
        required: usize,
    },
    /// More devices would commit to the shard's SecAgg group than the
    /// fixed-point encoder's sum in `Z_{2^32}` holds. The shard aborts
    /// cleanly, as for [`ShardError::BelowThreshold`].
    GroupTooLarge {
        /// Devices that would commit.
        committed: usize,
        /// The encoder's most summands.
        max: usize,
    },
    /// The Secure Aggregation protocol failed for a non-threshold reason.
    SecAgg(SecAggError),
    /// Aggregation error.
    Core(CoreError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::BelowThreshold { alive, required } => write!(
                f,
                "secagg group below threshold: {alive} alive, {required} required; shard aborted"
            ),
            ShardError::GroupTooLarge { committed, max } => write!(
                f,
                "secagg group too large: {committed} would commit, {max} fit; shard aborted"
            ),
            ShardError::SecAgg(e) => write!(f, "secure aggregation failed: {e}"),
            ShardError::Core(e) => write!(f, "aggregation failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// A committed round's result from the Master Aggregator: the new
/// parameters plus how the shards fared.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// New global parameters after applying the merged average.
    pub params: Vec<f32>,
    /// Devices whose contributions made the commit.
    pub contributors: usize,
    /// SecAgg shards whose group fell below threshold (or grew past the
    /// encoder's summands) and were excluded from the merge (Sec. 6: the
    /// round commits from the surviving ≥ k groups only).
    pub shard_aborts: usize,
}

/// The Master Aggregator: routes devices to shards, merges intermediate
/// results, applies the final average.
#[derive(Debug)]
pub struct MasterAggregator {
    plan: AggregationPlan,
    shards: Vec<AggregatorShard>,
    secagg_seed: u64,
}

impl MasterAggregator {
    /// Creates a master for an expected number of devices, spawning shards
    /// per the plan.
    pub fn new(plan: AggregationPlan, codec: CodecSpec, expected: usize, secagg_seed: u64) -> Self {
        let count = plan.shard_count(expected);
        let clip = plan.dp.map(|dp| dp.clip_norm);
        let shards = (0..count)
            .map(|_| AggregatorShard::with_clip(plan.dim, codec, plan.secagg_k, clip))
            .collect();
        MasterAggregator {
            plan,
            shards,
            secagg_seed,
        }
    }

    /// Number of shards spawned.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Accepts one device report, routing it to the device's shard
    /// (devices stick to one shard — one SecAgg instance each).
    ///
    /// # Errors
    ///
    /// Decode/dimension errors from the shard.
    pub fn accept(
        &mut self,
        device: DeviceId,
        update_bytes: &[u8],
        weight: u64,
    ) -> Result<(), CoreError> {
        let idx = shard_of(device, self.shards.len());
        self.shards[idx].accept(device, update_bytes, weight)
    }

    /// Accepts one device's pre-encoded SecAgg field vector, routing it
    /// to the device's shard exactly as [`MasterAggregator::accept`]
    /// would the clear bytes.
    ///
    /// # Errors
    ///
    /// Dimension errors from the shard, or SecAgg not enabled.
    pub fn accept_field(
        &mut self,
        device: DeviceId,
        field: &[u64],
        weight: u64,
    ) -> Result<(), CoreError> {
        let idx = shard_of(device, self.shards.len());
        self.shards[idx].accept_field(device, field, weight)
    }

    /// Accepts one forwarded report frame, routing it to the device's
    /// shard exactly as the [`MasterAggregatorActor`] routes a
    /// [`MasterMsg::Update`].
    ///
    /// # Errors
    ///
    /// As [`AggregatorShard::accept_forwarded`].
    pub fn accept_forwarded(&mut self, route: &ReportRoute, frame: &[u8]) -> Result<(), CoreError> {
        let idx = shard_of(route.device, self.shards.len());
        self.shards[idx].accept_forwarded(route, frame)
    }

    /// Total devices accepted across shards.
    pub fn contributors(&self) -> usize {
        self.shards.iter().map(AggregatorShard::contributors).sum()
    }

    /// Closes all shards (running SecAgg per shard when enabled), merges
    /// the intermediate accumulators "without Secure Aggregation", and
    /// returns the new global parameters plus the per-shard abort count.
    ///
    /// A shard whose SecAgg group fell below threshold, or grew past the
    /// encoder's summands, aborts cleanly and is excluded — the round
    /// still commits from the surviving shards. Only other protocol
    /// failures fail the round.
    ///
    /// # Errors
    ///
    /// [`ShardError::BelowThreshold`] or [`ShardError::GroupTooLarge`]
    /// when *every* shard aborted,
    /// non-threshold shard failures, or
    /// [`CoreError::ZeroWeightUpdate`] if nothing was aggregated.
    pub fn finalize(
        self,
        current_params: &[f32],
        advertise_dropouts: &[DeviceId],
        share_dropouts: &[DeviceId],
    ) -> Result<MergeOutcome, ShardError> {
        let seed = self.secagg_seed;
        // The merge allocates nothing (it adds into the first non-empty
        // shard's sum), so each shard is closed as the merge reaches it.
        let closed =
            self.shards.into_iter().enumerate().map(|(i, shard)| {
                shard.close(advertise_dropouts, share_dropouts, shard_seed(seed, i))
            });
        merge_closed(self.plan, seed, closed, current_params)
    }

    /// Decomposes the master into its parts — `(plan, shards, secagg
    /// seed)` — for actor-based driving, where each shard runs on its own
    /// [`AggregatorActor`] thread and the merge happens in the
    /// [`MasterAggregatorActor`].
    pub fn into_parts(self) -> (AggregationPlan, Vec<AggregatorShard>, u64) {
        (self.plan, self.shards, self.secagg_seed)
    }
}

/// The SecAgg seed for shard `index` of a master seeded with
/// `master_seed` (distinct per shard, deterministic per round).
fn shard_seed(master_seed: u64, index: usize) -> u64 {
    master_seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The shard a device's reports go to: a pure function of the device and
/// the round's shard count, so a device sticks to one shard (one SecAgg
/// instance) for as long as the count is fixed — which it is, per round.
fn shard_of(device: DeviceId, shard_count: usize) -> usize {
    (device.0 % shard_count.max(1) as u64) as usize
}

/// The Master Aggregator's final step, from closed shards to the round's
/// result — shared by the struct ([`MasterAggregator::finalize`]) and
/// actor ([`MasterAggregatorActor`]) drivers so both commit identical
/// bytes. `closed` yields each surviving shard's close result in shard
/// order (a crashed shard yields nothing). A below-threshold or
/// too-large group is a counted abort and the merge proceeds without it;
/// any other shard
/// failure fails the round. The surviving sums are merged "without
/// Secure Aggregation", optionally perturbed (DP), and applied to
/// `current_params`.
fn merge_closed(
    plan: AggregationPlan,
    secagg_seed: u64,
    closed: impl IntoIterator<Item = Result<FedAvgAccumulator, ShardError>>,
    current_params: &[f32],
) -> Result<MergeOutcome, ShardError> {
    // The merge starts from the first non-empty sum rather than from a
    // fresh zeroed vector, which the caller's thread would fault in. That
    // adds nothing it leaves out: a shard's sum started from +0.0, so it
    // holds no -0.0 and no signalling NaN, the two values `0.0 + x` would
    // change.
    let mut merged: Option<FedAvgAccumulator> = None;
    let mut shard_aborts = 0usize;
    let mut last_abort = None;
    for shard in closed {
        match shard {
            Ok(sum) if sum.contributors() > 0 => match &mut merged {
                Some(merged) => merged.merge(&sum).map_err(ShardError::Core)?,
                None => merged = Some(sum),
            },
            Ok(_) => {}
            Err(e @ (ShardError::BelowThreshold { .. } | ShardError::GroupTooLarge { .. })) => {
                shard_aborts += 1;
                last_abort = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    // Every group aborted (or was empty): surface the abort rather than
    // a generic zero-weight merge error.
    let mut merged = match (merged, last_abort) {
        (Some(merged), _) => merged,
        (None, Some(abort)) => return Err(abort),
        (None, None) => return Err(ShardError::Core(CoreError::ZeroWeightUpdate)),
    };
    if let Some(dp) = plan.dp {
        // One calibrated Gaussian perturbation of the round's sum.
        let mut noise_rng = fl_ml::rng::seeded(dp.noise_seed ^ secagg_seed);
        merged.perturb(dp.sigma(), &mut noise_rng);
    }
    let contributors = merged.contributors();
    let params = merged.apply_to(current_params).map_err(ShardError::Core)?;
    Ok(MergeOutcome {
        params,
        contributors,
        shard_aborts,
    })
}

/// What the Coordinator's one parse of an accepted report frame read for
/// the Master: whom to route it by, and where its payload lies — so the
/// payload is folded where it already lies.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRoute {
    /// The reporting device.
    pub device: DeviceId,
    /// The device's example count (FedAvg weight).
    pub weight: u64,
    /// Where the payload sits in the frame
    /// ([`fl_wire::ReportRef::payload_span`]).
    pub payload: std::ops::Range<usize>,
    /// Whether the payload is a [`fl_wire::WireMessage::SecAggReport`]'s
    /// fixed-point field vector (one little-endian `u64` coordinate per
    /// model parameter) rather than an
    /// [`fl_wire::WireMessage::UpdateReport`]'s codec-encoded update.
    pub field: bool,
}

impl ReportRoute {
    /// The route of the report `report` opened.
    pub(crate) fn of(report: &fl_wire::ReportRef<'_>) -> Self {
        ReportRoute {
            device: report.device,
            weight: report.weight,
            payload: report.payload_span(),
            field: matches!(report.payload, fl_wire::ReportPayload::Field(_)),
        }
    }
}

/// One device's report as the Coordinator hands it to the Master and the
/// Master to a shard: the device's own frame, moved (the Coordinator has
/// verified it), with its route.
#[derive(Debug)]
pub struct ForwardedReport {
    /// What the Coordinator's parse read of `frame`.
    pub route: ReportRoute,
    /// The verified report frame.
    pub frame: Vec<u8>,
}

/// The bounds [`AggregatorShard::accept_field`] holds a SecAgg input to,
/// so a group's sum in `Z_{2^32}` cannot wrap: a weight of at most
/// `(2^32 − 1) / max_summands` and every coordinate on `encoder`'s grid.
/// The round's parse applies them before its ack
/// ([`crate::coordinator::ActiveRound::on_report`]), a shard again as it
/// stages: once the weight has passed, `narrowed` (one element per
/// coordinate) gets every coordinate as a ring element in the same pass
/// that checks them, also when the check then fails.
///
/// # Errors
///
/// [`CoreError::OutOfRange`] naming the weight or the first coordinate
/// past its bound.
pub(crate) fn check_secagg_input<I>(
    encoder: &FixedPointEncoder,
    weight: u64,
    coordinates: I,
    narrowed: Option<&mut [u32]>,
) -> Result<(), CoreError>
where
    I: IntoIterator<Item = u64>,
    I::IntoIter: Clone,
{
    let max_weight = u64::from(u32::MAX) / encoder.max_summands();
    if weight > max_weight {
        return Err(CoreError::OutOfRange {
            what: "weight",
            value: weight,
            max: max_weight,
        });
    }
    let max = encoder.max_encoded();
    let mut coordinates = coordinates.into_iter();
    // No coordinate exceeds the OR of them all, which one branch-free pass
    // takes: it clears a vector with no coordinate at the top of the grid
    // in a quarter of the time a compare per coordinate does. Only a vector
    // it cannot clear is searched.
    let all = match narrowed {
        Some(ring) => ring
            .iter_mut()
            .zip(coordinates.clone())
            .fold(0, |all, (element, value)| {
                *element = value as u32;
                all | value
            }),
        None => coordinates.clone().fold(0, |all, value| all | value),
    };
    if all <= max {
        return Ok(());
    }
    match coordinates.find(|&value| value > max) {
        Some(value) => Err(CoreError::OutOfRange {
            what: "coordinate",
            value,
            max,
        }),
        None => Ok(()),
    }
}

/// Messages handled by one [`AggregatorActor`] shard.
#[derive(Debug)]
pub enum ShardMsg {
    /// One device's report for this shard, plain or SecAgg.
    Accept(ForwardedReport),
    /// Close the shard: run SecAgg (when enabled) minus the staged
    /// dropouts and answer with [`MasterMsg::Closed`], carrying the
    /// intermediate accumulator — or the typed [`ShardError`] if the
    /// group fell below threshold. The actor stops after answering —
    /// shards are ephemeral, they die with the round. A shard that dies
    /// first, or refuses the `Close` dead, still answers once: `reply`'s
    /// drop sends a `Closed` with no result.
    Close {
        /// This shard's index in its Master, echoed in the answer.
        shard: usize,
        /// How many [`ShardMsg::Accept`]s the Master sent this shard. All
        /// are in the mailbox before the `Close`, but delivery may put one
        /// behind it, so the shard holds the `Close` until it has handled
        /// this many.
        routed: u64,
        /// Devices that vanished after advertising keys.
        advertise_dropouts: Vec<DeviceId>,
        /// Devices that vanished after sharing keys.
        share_dropouts: Vec<DeviceId>,
        /// The Master's mailbox, for the [`MasterMsg::Closed`] answer.
        reply: Reply<MasterMsg>,
    },
}

/// One Aggregator of the paper's actor tree (Sec. 4.1/4.2): an ephemeral
/// actor wrapping an [`AggregatorShard`], spawned by its
/// [`MasterAggregatorActor`] parent at round start and dead by round end.
#[derive(Debug)]
pub struct AggregatorActor {
    shard: Option<AggregatorShard>,
    secagg_seed: u64,
    /// [`ShardMsg::Accept`]s handled so far.
    accepted: u64,
    /// The [`ShardMsg::Close`] received, held until `accepted` reaches its
    /// `routed` count.
    close: Option<ShardMsg>,
}

impl AggregatorActor {
    /// Wraps a shard with its per-shard SecAgg seed.
    pub fn new(shard: AggregatorShard, secagg_seed: u64) -> Self {
        AggregatorActor {
            shard: Some(shard),
            secagg_seed,
            accepted: 0,
            close: None,
        }
    }

    /// Closes the shard and answers the held `Close`, if there is one.
    fn finish_close(&mut self) {
        if let (
            Some(sum),
            Some(ShardMsg::Close {
                shard,
                advertise_dropouts,
                share_dropouts,
                reply,
                ..
            }),
        ) = (self.shard.take(), self.close.take())
        {
            let result = sum.close(&advertise_dropouts, &share_dropouts, self.secagg_seed);
            reply.send(MasterMsg::Closed {
                shard,
                result: Some(result),
            });
        }
    }
}

impl Actor for AggregatorActor {
    type Msg = ShardMsg;

    fn handle(&mut self, msg: ShardMsg, _ctx: &mut ActorContext<ShardMsg>) -> Flow {
        match msg {
            ShardMsg::Accept(report) => {
                self.accepted += 1;
                let refused = self
                    .shard
                    .as_mut()
                    .and_then(|shard| shard.accept_forwarded(&report.route, &report.frame).err());
                if let Some(error) = refused {
                    // The round refused before its ack every report whose
                    // shape, range or weight a shard refuses, so only an
                    // update whose bytes do not decode is refused here:
                    // its contribution is lost, as a decode failure inside
                    // one Aggregator loses it, without failing the round.
                    debug_assert!(
                        matches!(error, CoreError::MalformedCheckpoint(_)),
                        "the round acked a report its shard refuses: {error}"
                    );
                }
                // Folded or staged: the frame's bytes are spent.
                fl_wire::recycle(report.frame);
            }
            close @ ShardMsg::Close { .. } => self.close = Some(close),
        }
        match self.close {
            Some(ShardMsg::Close { routed, .. }) if self.accepted >= routed => {
                self.finish_close();
                Flow::Stop
            }
            _ => Flow::Continue,
        }
    }

    /// The mailbox ended with the `Close` still short of reports (one was
    /// lost on the way): close with what is staged.
    fn on_stop(&mut self) {
        self.finish_close();
    }
}

/// Messages handled by a [`MasterAggregatorActor`].
///
/// The Coordinator, the Master and its shards are ephemeral, in-memory
/// actors of one process (Sec. 4.1-4.2), so this hop is typed: the only
/// frames on it are the devices' own report frames, forwarded. A future
/// multi-process split would frame this hop together with the transport
/// that carries it.
#[derive(Debug)]
pub enum MasterMsg {
    /// One device's contribution: the device's own verified
    /// [`fl_wire::WireMessage::UpdateReport`] (clear bytes) or
    /// [`fl_wire::WireMessage::SecAggReport`] (fixed-point field vector)
    /// frame, forwarded by the Coordinator once its round accepted it,
    /// with what the round's parse read from it — the upload is
    /// neither re-encoded nor re-opened for this hop. The Master routes
    /// it by device, moved, to the device's shard.
    Update(ForwardedReport),
    /// Close the round, plain and SecAgg alike (a plain round is the
    /// case with nothing to unmask): once `expected_contributors`
    /// updates have been routed, send every shard its
    /// [`ShardMsg::Close`]; once every shard has answered, merge the
    /// survivors' intermediate sums over `current_params`, in shard
    /// order, and answer with one [`CoordMsg::Merged`] — its
    /// [`MergeOutcome::shard_aborts`] counts the SecAgg shards that
    /// aborted. The actor (and its shard children)
    /// stop afterwards. The Master needs a live reference to itself for
    /// its shards' answers, so the Coordinator keeps its reference until
    /// `Merged` arrives.
    Finalize {
        /// The committed global parameters the merge starts from.
        current_params: Vec<f32>,
        /// How many [`MasterMsg::Update`]s this finalize covers: one per
        /// report the Coordinator accepted. The mailbox does not promise
        /// to deliver them ahead of the finalize, so the Master holds its
        /// shards open until it has routed this many — an update
        /// overtaken in delivery would otherwise vanish from a sum the
        /// Coordinator already acked and counted, or strand its SecAgg
        /// group below threshold.
        expected_contributors: u64,
        /// Devices lost before sharing SecAgg keys (excluded outright).
        advertise_dropouts: Vec<DeviceId>,
        /// Devices lost after sharing keys (masks reconstructed).
        share_dropouts: Vec<DeviceId>,
        /// The Coordinator's mailbox, for the [`CoordMsg::Merged`] answer;
        /// a Master that dies first answers with the failure.
        reply: Reply<CoordMsg>,
    },
    /// Shard `shard`'s answer to its [`ShardMsg::Close`]: its sum or
    /// typed failure, or `None` when the shard died without answering
    /// (its devices are lost, not the round).
    Closed {
        /// The shard's index.
        shard: usize,
        /// What the shard's close returned, if it ran.
        result: Option<Result<FedAvgAccumulator, ShardError>>,
    },
    /// The round ended without a commit (abandoned, evaluation-only):
    /// stop, dropping the shard children so they drain and die.
    Abort,
}

/// The Master Aggregator of the paper's actor tree (Sec. 4.1/4.2): an
/// ephemeral per-round actor that spawns one child [`AggregatorActor`]
/// per shard ("dynamic decisions to spawn one or more Aggregators to
/// which work is delegated"), routes device reports to them, and merges
/// their intermediate results at round end.
///
/// Failure semantics (Sec. 4.2): a shard child that crashes mid-round
/// loses its devices' contributions, but [`MasterMsg::Finalize`] still
/// merges the surviving shards and the round commits. A surviving SecAgg
/// shard whose group fell below threshold or grew past the encoder's
/// summands is a counted abort; only every
/// group aborting, or another protocol failure inside a surviving shard,
/// fails the round.
#[derive(Debug)]
pub struct MasterAggregatorActor {
    plan: AggregationPlan,
    secagg_seed: u64,
    /// Shard structs staged for spawning, drained in `on_start`.
    staged: Vec<AggregatorShard>,
    /// Child actor handles, filled by `on_start`. Dropping these (stop or
    /// death) closes the children's mailboxes, which reaps them.
    shards: Vec<ActorRef<ShardMsg>>,
    /// [`ShardMsg::Accept`]s sent to each shard, which its
    /// [`ShardMsg::Close`] carries.
    routed: Vec<u64>,
    /// Updates drained from the mailbox so far. Compared against
    /// [`MasterMsg::Finalize`]'s `expected_contributors` to defer a
    /// finalize that overtook in-flight updates.
    forwarded: u64,
    /// Bounds finalize deferrals so a miscounted (or lost) update can
    /// only delay the round, never hang it: once spent, the finalize
    /// proceeds with whatever is staged — the pre-barrier semantics.
    defer_budget: u32,
    /// The finalize waiting for its shards' answers.
    closing: Option<Closing>,
}

/// A [`MasterMsg::Finalize`] between its `Close`s and its merge.
#[derive(Debug)]
struct Closing {
    current_params: Vec<f32>,
    reply: Reply<CoordMsg>,
    /// Each shard's answer, by index, as it arrives.
    closed: Vec<Option<Result<FedAvgAccumulator, ShardError>>>,
    /// Shards yet to answer.
    pending: usize,
}

impl MasterAggregatorActor {
    /// Builds the actor from the round's [`MasterAggregator`]; the shard
    /// children spawn when the actor starts.
    pub fn new(master: MasterAggregator) -> Self {
        let (plan, staged, secagg_seed) = master.into_parts();
        MasterAggregatorActor {
            plan,
            secagg_seed,
            staged,
            shards: Vec::new(),
            routed: Vec::new(),
            forwarded: 0,
            defer_budget: 100_000,
            closing: None,
        }
    }

    /// Once every shard has answered the finalize, merges the survivors
    /// in shard order, answers the Coordinator and stops.
    fn merge_when_closed(&mut self) -> Flow {
        let Some(closing) = self.closing.take_if(|c| c.pending == 0) else {
            return Flow::Continue;
        };
        let survivors = closing.closed.into_iter().flatten();
        let merged = merge_closed(
            self.plan,
            self.secagg_seed,
            survivors,
            &closing.current_params,
        )
        .map_err(|e| CoreError::MalformedCheckpoint(e.to_string()));
        closing.reply.send(CoordMsg::Merged(merged));
        Flow::Stop
    }
}

impl Actor for MasterAggregatorActor {
    type Msg = MasterMsg;

    fn on_start(&mut self, ctx: &mut ActorContext<MasterMsg>) {
        for (i, shard) in self.staged.drain(..).enumerate() {
            let child = ctx.spawn_child(
                format!("agg-{i}"),
                AggregatorActor::new(shard, shard_seed(self.secagg_seed, i)),
            );
            self.shards.push(child);
            self.routed.push(0);
        }
    }

    fn handle(&mut self, msg: MasterMsg, ctx: &mut ActorContext<MasterMsg>) -> Flow {
        // The finalize barrier: re-enqueue a finalize behind the
        // still-undelivered updates until all expected ones are routed
        // (schedule exploration permutes exactly this order). With no
        // self reference the mailbox is already draining: finalize with
        // what is staged.
        if let MasterMsg::Finalize {
            expected_contributors,
            ..
        } = &msg
        {
            if self.forwarded < *expected_contributors && self.defer_budget > 0 {
                if let Some(me) = ctx.self_ref() {
                    self.defer_budget -= 1;
                    // Cannot fail while this handler runs — the actor
                    // holds its mailbox's receiving end. If it did, the
                    // dropped reply sender fails the round cleanly.
                    let _ = me.send(msg);
                    return Flow::Continue;
                }
            }
        }
        match msg {
            MasterMsg::Update(report) => {
                self.forwarded += 1;
                let idx = shard_of(report.route.device, self.shards.len());
                if let Some(shard) = self.shards.get(idx) {
                    // A dead shard loses this contribution; the round
                    // continues on the survivors.
                    if shard.send(ShardMsg::Accept(report)).is_ok() {
                        self.routed[idx] += 1;
                    }
                }
                Flow::Continue
            }
            MasterMsg::Finalize {
                current_params,
                advertise_dropouts,
                share_dropouts,
                reply,
                ..
            } => {
                // With no reference left to this Master no shard could
                // answer; dropping `reply` fails the commit.
                let Some(me) = ctx.self_ref() else {
                    return Flow::Stop;
                };
                let shards = std::mem::take(&mut self.shards);
                let routed = std::mem::take(&mut self.routed);
                self.closing = Some(Closing {
                    current_params,
                    reply,
                    closed: shards.iter().map(|_| None).collect(),
                    pending: shards.len(),
                });
                for (shard, (actor, routed)) in shards.into_iter().zip(routed).enumerate() {
                    // A shard that is already dead refuses the `Close`,
                    // and the dropped reply answers for it at once.
                    let _ = actor.send(ShardMsg::Close {
                        shard,
                        routed,
                        advertise_dropouts: advertise_dropouts.clone(),
                        share_dropouts: share_dropouts.clone(),
                        reply: Reply::new(
                            me.clone(),
                            MasterMsg::Closed {
                                shard,
                                result: None,
                            },
                        ),
                    });
                }
                self.merge_when_closed()
            }
            MasterMsg::Closed { shard, result } => {
                if let Some(closing) = &mut self.closing {
                    if let Some(slot) = closing.closed.get_mut(shard) {
                        *slot = result;
                        closing.pending -= 1;
                    }
                }
                self.merge_when_closed()
            }
            MasterMsg::Abort => Flow::Stop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_ml::optim::WeightedUpdate;

    fn encode(update: &[f32], codec: CodecSpec) -> Vec<u8> {
        codec.build().encode(update)
    }

    #[test]
    fn shard_count_scales_with_devices() {
        let plan = AggregationPlan::plain(10, 100);
        assert_eq!(plan.shard_count(50), 1);
        assert_eq!(plan.shard_count(100), 1);
        assert_eq!(plan.shard_count(101), 2);
        assert_eq!(plan.shard_count(1000), 10);
    }

    #[test]
    fn secagg_shards_respect_group_minimum() {
        let plan = AggregationPlan::with_secagg(10, 100, 50);
        // 120 devices / capacity 100 → 2 shards of 60 ≥ k=50. OK.
        assert_eq!(plan.shard_count(120), 2);
        // 60 devices: capacity would allow 1 shard; k forces ≤ 1 shard.
        assert_eq!(plan.shard_count(60), 1);
        // 450 devices, capacity 100 → 5 shards of 90 ≥ 50.
        assert_eq!(plan.shard_count(450), 5);
    }

    #[test]
    fn plain_master_matches_direct_fedavg() {
        let dim = 8;
        let codec = CodecSpec::Identity;
        let mut master = MasterAggregator::new(AggregationPlan::plain(dim, 3), codec, 10, 1);
        assert!(master.shard_count() > 1);
        let mut reference = FedAvgAccumulator::new(dim);
        for i in 0..10u64 {
            let update: Vec<f32> = (0..dim).map(|d| (i as f32) * 0.1 + d as f32).collect();
            let weight = i + 1;
            master
                .accept(DeviceId(i), &encode(&update, codec), weight)
                .unwrap();
            reference
                .accumulate(WeightedUpdate {
                    delta: update,
                    weight,
                })
                .unwrap();
        }
        let current = vec![1.0f32; dim];
        let out = master.finalize(&current, &[], &[]).unwrap();
        assert_eq!(out.contributors, 10);
        assert_eq!(out.shard_aborts, 0);
        let expected = reference.apply_to(&current).unwrap();
        for (a, b) in out.params.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_codec_round_trips_through_master() {
        let dim = 64;
        let codec = CodecSpec::Quantize { block: 32 };
        let mut master = MasterAggregator::new(AggregationPlan::plain(dim, 100), codec, 5, 2);
        for i in 0..5u64 {
            let update: Vec<f32> = (0..dim)
                .map(|d| ((d + i as usize) as f32).sin() * 0.1)
                .collect();
            master
                .accept(DeviceId(i), &encode(&update, codec), 10)
                .unwrap();
        }
        let out = master.finalize(&vec![0.0; dim], &[], &[]).unwrap();
        assert_eq!(out.contributors, 5);
        // Quantization error is small relative to update magnitude.
        assert!(out.params.iter().all(|p| p.abs() < 0.2));
        assert!(out.params.iter().any(|p| p.abs() > 1e-4));
    }

    #[test]
    fn secagg_master_sums_match_plain_within_quantization() {
        let dim = 16;
        let codec = CodecSpec::Identity;
        let updates: Vec<Vec<f32>> = (0..8)
            .map(|i| (0..dim).map(|d| 0.01 * (i * dim + d) as f32).collect())
            .collect();

        let run = |secagg: bool| -> Vec<f32> {
            let plan = if secagg {
                AggregationPlan::with_secagg(dim, 100, 4)
            } else {
                AggregationPlan::plain(dim, 100)
            };
            let mut master = MasterAggregator::new(plan, codec, 8, 3);
            for (i, u) in updates.iter().enumerate() {
                master
                    .accept(DeviceId(i as u64), &encode(u, codec), 5)
                    .unwrap();
            }
            master.finalize(&vec![0.0; dim], &[], &[]).unwrap().params
        };

        let plain = run(false);
        let secure = run(true);
        for (a, b) in plain.iter().zip(&secure) {
            assert!((a - b).abs() < 1e-3, "plain {a} vs secagg {b}");
        }
    }

    #[test]
    fn secagg_tolerates_dropouts_below_threshold() {
        let dim = 4;
        let codec = CodecSpec::Identity;
        let plan = AggregationPlan::with_secagg(dim, 100, 4);
        let mut master = MasterAggregator::new(plan, codec, 9, 7);
        for i in 0..9u64 {
            let update = vec![0.5f32; dim];
            master
                .accept(DeviceId(i), &encode(&update, codec), 2)
                .unwrap();
        }
        // Two of nine drop after staging (within the 1/3 tolerance).
        let out = master
            .finalize(&vec![0.0; dim], &[], &[DeviceId(3), DeviceId(6)])
            .unwrap();
        assert_eq!(out.contributors, 7);
        assert_eq!(out.shard_aborts, 0);
        // Mean delta of survivors is still 0.5/2-weighted: each update is
        // 0.5 with weight 2, so the average delta = (7*0.5)/(7*2) = 0.25.
        for p in out.params {
            assert!((p - 0.25).abs() < 1e-3, "{p}");
        }
    }

    #[test]
    fn secagg_advertise_dropouts_commit_same_sum_as_share_dropouts() {
        // The recovery path differs (cheap exclusion vs. share
        // reconstruction) but the committed sum must not.
        let dim = 4;
        let codec = CodecSpec::Identity;
        let run = |advertise: &[DeviceId], share: &[DeviceId]| -> MergeOutcome {
            let plan = AggregationPlan::with_secagg(dim, 100, 4);
            let mut master = MasterAggregator::new(plan, codec, 9, 7);
            for i in 0..9u64 {
                master
                    .accept(DeviceId(i), &encode(&vec![0.5f32; dim], codec), 2)
                    .unwrap();
            }
            master.finalize(&vec![0.0; dim], advertise, share).unwrap()
        };
        let dropped = [DeviceId(3), DeviceId(6)];
        let via_advertise = run(&dropped, &[]);
        let via_share = run(&[], &dropped);
        assert_eq!(via_advertise.contributors, 7);
        assert_eq!(via_advertise.params, via_share.params);
        // A device listed at both stages is counted once (advertise wins).
        let via_both = run(&dropped, &dropped);
        assert_eq!(via_both.contributors, 7);
        assert_eq!(via_both.params, via_advertise.params);
    }

    #[test]
    fn secagg_fails_when_dropouts_exceed_tolerance() {
        let dim = 4;
        let codec = CodecSpec::Identity;
        let plan = AggregationPlan::with_secagg(dim, 100, 4);
        let mut master = MasterAggregator::new(plan, codec, 6, 7);
        for i in 0..6u64 {
            master
                .accept(DeviceId(i), &encode(&vec![0.1; dim], codec), 1)
                .unwrap();
        }
        // 3 of 6 drop: the single group is stranded below k=4, and with
        // every shard aborted the round surfaces the typed abort.
        let result = master.finalize(
            &vec![0.0; dim],
            &[],
            &[DeviceId(0), DeviceId(1), DeviceId(2)],
        );
        assert!(matches!(
            result,
            Err(ShardError::BelowThreshold {
                alive: 3,
                required: 4
            })
        ));
    }

    #[test]
    fn secagg_group_above_k_but_below_protocol_threshold_aborts() {
        let dim = 4;
        let codec = CodecSpec::Identity;
        // k=2 is easily met, but dropping 4 of 9 leaves 5 alive against a
        // reconstruction threshold of ceil(2·9/3) = 6.
        let plan = AggregationPlan::with_secagg(dim, 100, 2);
        let mut master = MasterAggregator::new(plan, codec, 9, 7);
        for i in 0..9u64 {
            master
                .accept(DeviceId(i), &encode(&vec![0.1; dim], codec), 1)
                .unwrap();
        }
        let dropped: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        let result = master.finalize(&vec![0.0; dim], &[], &dropped);
        assert!(matches!(
            result,
            Err(ShardError::BelowThreshold {
                alive: 5,
                required: 6
            })
        ));
    }

    #[test]
    fn secagg_group_of_one_aborts_instead_of_panicking() {
        // A task may set k below the protocol's minimum group of two.
        for k in [0, 1] {
            let mut shard = AggregatorShard::new(4, CodecSpec::Identity, Some(k));
            shard.accept_field(DeviceId(0), &[1; 4], 1).unwrap();
            assert!(matches!(
                shard.close(&[], &[], 7),
                Err(ShardError::BelowThreshold {
                    alive: 1,
                    required: 2
                })
            ));
        }
        // Three devices over three single-device groups: every one aborts.
        let plan = AggregationPlan::with_secagg(4, 1, 1);
        let mut master = MasterAggregator::new(plan, CodecSpec::Identity, 3, 7);
        for i in 0..3u64 {
            master.accept_field(DeviceId(i), &[1; 4], 1).unwrap();
        }
        assert!(matches!(
            master.finalize(&[0.0; 4], &[], &[]),
            Err(ShardError::BelowThreshold {
                alive: 1,
                required: 2
            })
        ));
    }

    /// A `SecAggReport` frame for `device`, routed as the Coordinator
    /// routes an accepted one.
    fn secagg_frame(device: u64, field_vector: Vec<u64>, weight: u64) -> (ReportRoute, Vec<u8>) {
        let frame = fl_wire::encode(&fl_wire::WireMessage::SecAggReport {
            device: DeviceId(device),
            round: fl_core::RoundId(1),
            attempt: 1,
            field_vector,
            weight,
            loss: 0.5,
            accuracy: 0.5,
            population: "pop".into(),
        })
        .unwrap();
        let route = ReportRoute::of(&fl_wire::ReportRef::parse(&frame).unwrap());
        (route, frame)
    }

    /// The shard sums `SecAggReport`s in `Z_{2^32}`, so it checks each
    /// one first: a coordinate past the fixed-point grid (`p − 1`, which
    /// the prime field the vectors were once summed in read as −1, or
    /// one grid step too many) and a weight that cannot be summed over a
    /// group are refused with a typed error, and the round commits the
    /// exact average of the other reports.
    #[test]
    fn hostile_secagg_reports_are_refused_and_the_rest_commit_exactly() {
        let dim = 4;
        let encoder = FixedPointEncoder::default_for_updates();
        let mut master = MasterAggregator::new(
            AggregationPlan::with_secagg(dim, 100, 4),
            CodecSpec::Identity,
            8,
            7,
        );
        // Six honest devices, on the grid, so the average is exact.
        let update = |i: u64| [0.25 * i as f32, -0.5, 64.0, -64.0];
        for i in 0..6u64 {
            let (route, frame) = secagg_frame(i, encoder.encode(&update(i)).unwrap(), 4);
            master.accept_forwarded(&route, &frame).unwrap();
        }
        let max = encoder.max_encoded();
        let max_weight = u64::from(u32::MAX) / encoder.max_summands();
        let honest = encoder.encode(&update(1)).unwrap();
        for value in [(1 << 61) - 2, max + 1, u64::MAX] {
            let mut hostile = honest.clone();
            hostile[1] = value;
            let (route, frame) = secagg_frame(6, hostile, 4);
            assert!(matches!(
                master.accept_forwarded(&route, &frame),
                Err(CoreError::OutOfRange { what: "coordinate", value: v, max: m })
                    if v == value && m == max
            ));
        }
        let (route, frame) = secagg_frame(7, honest.clone(), max_weight + 1);
        assert!(matches!(
            master.accept_forwarded(&route, &frame),
            Err(CoreError::OutOfRange { what: "weight", max: m, .. }) if m == max_weight
        ));
        // The largest weight a group can sum is accepted, on both paths.
        let mut shard = AggregatorShard::new(dim, CodecSpec::Identity, Some(2));
        shard
            .accept_field(DeviceId(0), &honest, max_weight)
            .unwrap();
        let bytes = encode(&update(1), CodecSpec::Identity);
        shard.accept(DeviceId(1), &bytes, max_weight).unwrap();
        assert!(matches!(
            shard.accept(DeviceId(2), &bytes, max_weight + 1),
            Err(CoreError::OutOfRange { what: "weight", .. })
        ));

        let out = master.finalize(&[0.0; 4], &[], &[]).unwrap();
        assert_eq!(out.contributors, 6);
        assert_eq!(out.shard_aborts, 0);
        // Σ_i update(i) / Σ weights = [0.25·15, −3, 384, −384] / 24.
        assert_eq!(out.params, [0.15625, -0.125, 16.0, -16.0]);
    }

    /// A group with more devices than the encoder's sum in `Z_{2^32}`
    /// holds aborts its shard with a typed error instead of wrapping, and
    /// the round commits from the other shards.
    #[test]
    fn a_group_past_the_encoders_summands_aborts_its_shard() {
        let dim = 2;
        let max = FixedPointEncoder::default_for_updates().max_summands() as usize;
        let field = FixedPointEncoder::default_for_updates()
            .encode(&[0.5, -0.5])
            .unwrap();
        // Two shards, device % 2: shard 0 gets one device past the
        // summands, shard 1 gets eight.
        let plan = AggregationPlan::with_secagg(dim, 2 * max, 4);
        let mut master = MasterAggregator::new(plan, CodecSpec::Identity, 4 * max, 7);
        assert_eq!(master.shard_count(), 2);
        for i in 0..=max as u64 {
            master.accept_field(DeviceId(2 * i), &field, 1).unwrap();
        }
        for i in 0..8u64 {
            master.accept_field(DeviceId(2 * i + 1), &field, 1).unwrap();
        }
        let out = master.finalize(&[0.0; 2], &[], &[]).unwrap();
        assert_eq!(out.shard_aborts, 1);
        assert_eq!(out.contributors, 8);
        assert_eq!(out.params, [0.5, -0.5]);

        let mut shard = AggregatorShard::new(dim, CodecSpec::Identity, Some(4));
        for d in 0..=max as u64 {
            shard.accept_field(DeviceId(d), &field, 1).unwrap();
        }
        assert!(matches!(
            shard.close(&[], &[], 7),
            Err(ShardError::GroupTooLarge { committed, max: m }) if committed == max + 1 && m == max
        ));
    }

    #[test]
    fn below_k_shard_aborts_and_round_commits_from_survivors() {
        let dim = 4;
        let codec = CodecSpec::Identity;
        // 8 devices over 2 shards (capacity 4, k=2); sticky routing
        // device % 2 puts odd devices on shard 1.
        let plan = AggregationPlan::with_secagg(dim, 4, 2);
        let mut master = MasterAggregator::new(plan, codec, 8, 7);
        assert_eq!(master.shard_count(), 2);
        for i in 0..8u64 {
            master
                .accept(DeviceId(i), &encode(&vec![0.5f32; dim], codec), 2)
                .unwrap();
        }
        // Shard 1 loses 3 of its 4 devices → 1 alive < k=2: it must
        // abort cleanly while shard 0 commits all 4 of its devices.
        let out = master
            .finalize(
                &vec![0.0; dim],
                &[],
                &[DeviceId(1), DeviceId(3), DeviceId(5)],
            )
            .unwrap();
        assert_eq!(out.shard_aborts, 1);
        assert_eq!(out.contributors, 4);
        // The surviving shard's average is untainted by the aborted
        // group: each update is 0.5 at weight 2 → mean delta 0.25.
        for p in out.params {
            assert!((p - 0.25).abs() < 1e-3, "{p}");
        }
    }

    #[test]
    fn accept_field_matches_clear_accept_path() {
        let dim = 8;
        let codec = CodecSpec::Identity;
        let encoder = FixedPointEncoder::default_for_updates();
        let updates: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..dim).map(|d| 0.01 * (i * dim + d) as f32).collect())
            .collect();
        let plan = AggregationPlan::with_secagg(dim, 100, 3);

        let mut clear = MasterAggregator::new(plan, codec, 6, 3);
        let mut field = MasterAggregator::new(plan, codec, 6, 3);
        for (i, u) in updates.iter().enumerate() {
            clear
                .accept(DeviceId(i as u64), &encode(u, codec), 5)
                .unwrap();
            let v = encoder.encode(u).unwrap();
            field.accept_field(DeviceId(i as u64), &v, 5).unwrap();
        }
        let a = clear.finalize(&vec![0.0; dim], &[], &[]).unwrap();
        let b = field.finalize(&vec![0.0; dim], &[], &[]).unwrap();
        assert_eq!(a, b, "field-vector ingestion drifted from clear path");
    }

    #[test]
    fn accept_field_rejects_plain_shards_and_bad_dims() {
        let mut plain =
            MasterAggregator::new(AggregationPlan::plain(4, 10), CodecSpec::Identity, 2, 1);
        assert!(plain.accept_field(DeviceId(0), &[1, 2, 3, 4], 1).is_err());
        let mut secure = MasterAggregator::new(
            AggregationPlan::with_secagg(4, 10, 2),
            CodecSpec::Identity,
            2,
            1,
        );
        assert!(secure.accept_field(DeviceId(0), &[1, 2, 3], 1).is_err());
        assert!(secure.accept_field(DeviceId(0), &[1, 2, 3, 4], 1).is_ok());
    }

    #[test]
    fn dp_clipping_bounds_each_contribution() {
        use fl_core::privacy::DpConfig;
        let dim = 4;
        let codec = CodecSpec::Identity;
        let plan = AggregationPlan::plain(dim, 100).with_dp(DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 0.0,
            noise_seed: 9,
        });
        let mut master = MasterAggregator::new(plan, codec, 2, 1);
        // One enormous update and one tiny one, equal weights.
        master
            .accept(DeviceId(0), &encode(&[100.0, 0.0, 0.0, 0.0], codec), 1)
            .unwrap();
        master
            .accept(DeviceId(1), &encode(&[0.0, 0.1, 0.0, 0.0], codec), 1)
            .unwrap();
        let out = master.finalize(&vec![0.0; dim], &[], &[]).unwrap();
        // The huge update was clipped to L2 norm 1: average[0] = 0.5.
        let params = out.params;
        assert!((params[0] - 0.5).abs() < 1e-5, "clipped mean {}", params[0]);
        assert!((params[1] - 0.05).abs() < 1e-5);
    }

    #[test]
    fn dp_noise_is_seeded_and_zero_noise_matches_plain() {
        use fl_core::privacy::DpConfig;
        let dim = 8;
        let codec = CodecSpec::Identity;
        let update = vec![0.1f32; dim];
        let run = |dp: Option<DpConfig>| -> Vec<f32> {
            let mut plan = AggregationPlan::plain(dim, 100);
            if let Some(dp) = dp {
                plan = plan.with_dp(dp);
            }
            let mut master = MasterAggregator::new(plan, codec, 4, 1);
            for i in 0..4u64 {
                master
                    .accept(DeviceId(i), &encode(&update, codec), 5)
                    .unwrap();
            }
            master.finalize(&vec![0.0; dim], &[], &[]).unwrap().params
        };
        let plain = run(None);
        // Huge clip + zero noise: identical to plain aggregation.
        let dp_zero = run(Some(DpConfig {
            clip_norm: 1e6,
            noise_multiplier: 0.0,
            noise_seed: 7,
        }));
        assert_eq!(plain, dp_zero);
        // Non-zero noise perturbs, deterministically per seed.
        let noisy_a = run(Some(DpConfig {
            clip_norm: 1e6,
            noise_multiplier: 0.5,
            noise_seed: 7,
        }));
        let noisy_b = run(Some(DpConfig {
            clip_norm: 1e6,
            noise_multiplier: 0.5,
            noise_seed: 7,
        }));
        let noisy_c = run(Some(DpConfig {
            clip_norm: 1e6,
            noise_multiplier: 0.5,
            noise_seed: 8,
        }));
        assert_eq!(noisy_a, noisy_b);
        assert_ne!(noisy_a, noisy_c);
        assert_ne!(noisy_a, plain);
    }

    #[test]
    fn malformed_update_bytes_are_rejected() {
        let mut master =
            MasterAggregator::new(AggregationPlan::plain(4, 10), CodecSpec::Identity, 2, 1);
        assert!(master.accept(DeviceId(0), &[1, 2, 3], 1).is_err());
    }

    #[test]
    fn empty_master_finalize_errors() {
        let master =
            MasterAggregator::new(AggregationPlan::plain(4, 10), CodecSpec::Identity, 2, 1);
        assert!(matches!(
            master.finalize(&[0.0; 4], &[], &[]),
            Err(ShardError::Core(CoreError::ZeroWeightUpdate))
        ));
    }

    /// Coordinates whose sums are easy to get subtly wrong: signed zeros,
    /// subnormals, infinities and NaN payloads, beside ordinary values.
    const SPECIAL_BITS: [u32; 12] = [
        0x8000_0000, // -0.0
        0x0000_0000, // +0.0
        0x0000_0001, // the smallest subnormal
        0x807F_FFFF, // the largest negative subnormal
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x7FC0_0000, // a quiet NaN
        0x7FA0_0001, // a signalling NaN with a payload
        0xFFC1_2345, // a negative quiet NaN with a payload
        0x3F80_0000, // 1.0
        0x7F7F_FFFF, // f32::MAX
        0x0080_0000, // f32::MIN_POSITIVE
    ];

    /// Device `i`'s update over `3 * SPECIAL_BITS.len()` coordinates:
    /// the specials rotated by device, then device 0's specials where
    /// every other device sends -0.0, then -0.0 from everyone.
    fn special_update(i: usize) -> Vec<f32> {
        let n = SPECIAL_BITS.len();
        (0..3 * n)
            .map(|d| match d / n {
                0 => f32::from_bits(SPECIAL_BITS[(d + i) % n]),
                1 if i == 0 => f32::from_bits(SPECIAL_BITS[d - n]),
                _ => -0.0,
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A shard folding Identity report frames sums exactly what decoding
    /// each update and adding it does, bit for bit.
    #[test]
    fn identity_fold_matches_decode_then_accumulate_bit_for_bit() {
        let dim = 3 * SPECIAL_BITS.len();
        let mut shard = AggregatorShard::new(dim, CodecSpec::Identity, None);
        let mut reference = FedAvgAccumulator::new(dim);
        for i in 0..6 {
            let update = special_update(i);
            let frame = fl_wire::encode(&fl_wire::WireMessage::UpdateReport {
                device: DeviceId(i as u64),
                round: fl_core::RoundId(1),
                attempt: 1,
                update_bytes: encode(&update, CodecSpec::Identity),
                weight: i as u64 + 1,
                loss: 0.5,
                accuracy: 0.5,
                population: "pop".into(),
            })
            .unwrap();
            let route = ReportRoute::of(&fl_wire::ReportRef::parse(&frame).unwrap());
            shard.accept_forwarded(&route, &frame).unwrap();
            let decoded = CodecSpec::Identity
                .build()
                .decode(&encode(&update, CodecSpec::Identity), dim)
                .unwrap();
            reference
                .accumulate_presummed(&decoded, i as u64 + 1, 1)
                .unwrap();
        }
        let folded = shard.close(&[], &[], 0).unwrap();
        assert_eq!(folded.contributors(), 6);
        assert_eq!(folded.total_weight(), reference.total_weight());
        assert_eq!(
            bits(&folded.average_delta().unwrap()),
            bits(&reference.average_delta().unwrap())
        );
    }

    /// A wrong count prefix and a truncated payload are refused with the
    /// codec's typed error, and leave the shard's sum as it was.
    #[test]
    fn identity_fold_keeps_its_typed_errors() {
        let dim = 8;
        let codec = CodecSpec::Identity;
        let malformed =
            |e: fl_ml::compress::CodecError| CoreError::MalformedCheckpoint(e.to_string());
        let mut shard = AggregatorShard::new(dim, codec, None);
        assert_eq!(
            shard.accept(DeviceId(0), &encode(&vec![1.0; dim - 1], codec), 1),
            Err(malformed(fl_ml::compress::CodecError::LengthMismatch {
                expected: dim,
                actual: dim - 1,
            }))
        );
        let mut truncated = encode(&vec![1.0; dim], codec);
        truncated.truncate(truncated.len() - 3);
        assert_eq!(
            shard.accept(DeviceId(1), &truncated, 1),
            Err(malformed(fl_ml::compress::CodecError::Truncated))
        );
        assert_eq!(shard.contributors(), 0);
        shard
            .accept(DeviceId(2), &encode(&plain_update(2), codec), 4)
            .unwrap();
        let mut reference = FedAvgAccumulator::new(dim);
        reference
            .accumulate_presummed(&plain_update(2), 4, 1)
            .unwrap();
        assert_eq!(shard.close(&[], &[], 0).unwrap(), reference);
    }

    /// The Master's params are the zero-started sum of the non-empty
    /// shards' sums applied to the current params, bit for bit, with one,
    /// two or three of three shards holding reports (-0.0 entries in the
    /// updates and the params included).
    #[test]
    fn merge_of_one_two_or_three_shards_is_bit_identical() {
        let dim = 3 * SPECIAL_BITS.len();
        let codec = CodecSpec::Identity;
        let current: Vec<f32> = (0..dim)
            .map(|d| if d % 2 == 0 { -0.0 } else { 0.25 })
            .collect();
        for filled in 1..=3 {
            let mut master = MasterAggregator::new(AggregationPlan::plain(dim, 3), codec, 9, 1);
            assert_eq!(master.shard_count(), 3);
            let mut shards = vec![FedAvgAccumulator::new(dim); 3];
            // Device `i` goes to shard `i % 3`; only the first `filled`
            // shards are sent anything.
            for i in (0..9).filter(|i| i % 3 < filled) {
                let update = special_update(i);
                master
                    .accept(DeviceId(i as u64), &encode(&update, codec), i as u64 + 1)
                    .unwrap();
                shards[i % 3]
                    .accumulate_presummed(&update, i as u64 + 1, 1)
                    .unwrap();
            }
            let mut merged = FedAvgAccumulator::new(dim);
            for shard in shards.iter().filter(|s| s.contributors() > 0) {
                merged.merge(shard).unwrap();
            }
            let out = master.finalize(&current, &[], &[]).unwrap();
            assert_eq!(out.contributors, 3 * filled);
            assert_eq!(
                bits(&out.params),
                bits(&merged.apply_to(&current).unwrap()),
                "{filled} non-empty shard(s)"
            );
        }
    }

    /// A merge with no contribution keeps its errors: the abort when
    /// every non-empty shard aborted (the last one's), beside an empty
    /// shard too, and `ZeroWeightUpdate` when nothing was reported.
    #[test]
    fn merge_keeps_the_abort_and_zero_weight_errors() {
        let dim = 4;
        let codec = CodecSpec::Identity;
        let secagg = |reporting: &[u64], dropped: &[u64]| {
            let mut master =
                MasterAggregator::new(AggregationPlan::with_secagg(dim, 4, 2), codec, 8, 7);
            assert_eq!(master.shard_count(), 2);
            for &i in reporting {
                master
                    .accept(DeviceId(i), &encode(&vec![0.5; dim], codec), 2)
                    .unwrap();
            }
            let dropped: Vec<DeviceId> = dropped.iter().copied().map(DeviceId).collect();
            master.finalize(&vec![0.0; dim], &[], &dropped)
        };
        // Both groups lose 3 of 4.
        assert!(matches!(
            secagg(&[0, 1, 2, 3, 4, 5, 6, 7], &[0, 1, 2, 3, 4, 5]),
            Err(ShardError::BelowThreshold {
                alive: 1,
                required: 2
            })
        ));
        // Shard 0 aborts, shard 1 was sent nothing.
        assert!(matches!(
            secagg(&[0, 2, 4, 6], &[0, 2, 4]),
            Err(ShardError::BelowThreshold {
                alive: 1,
                required: 2
            })
        ));
        let plain = MasterAggregator::new(AggregationPlan::plain(dim, 2), codec, 4, 1);
        assert!(matches!(
            plain.finalize(&vec![0.0; dim], &[], &[]),
            Err(ShardError::Core(CoreError::ZeroWeightUpdate))
        ));
    }

    use fl_actors::{ActorSystem, DeathReason, FaultAction, FaultInjector, ScriptedFaults};

    /// A `Finalize` reply to a stand-in Coordinator, and that
    /// Coordinator's mailbox.
    fn merged_reply() -> (Reply<CoordMsg>, crossbeam::channel::Receiver<CoordMsg>) {
        let (coordinator, mailbox) = ActorRef::detached("coordinator");
        let dead = CoreError::InvariantViolated("master aggregator died mid-round".into());
        (
            Reply::new(coordinator, CoordMsg::Merged(Err(dead))),
            mailbox,
        )
    }

    /// The one answer a stand-in Coordinator got.
    fn merged(mailbox: &crossbeam::channel::Receiver<CoordMsg>) -> Result<MergeOutcome, String> {
        match mailbox.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(CoordMsg::Merged(merged)) => merged.map_err(|e| e.to_string()),
            other => panic!("expected a merge, got {other:?}"),
        }
    }

    fn plain_master() -> MasterAggregator {
        MasterAggregator::new(AggregationPlan::plain(8, 3), CodecSpec::Identity, 10, 1)
    }

    fn plain_update(i: u64) -> Vec<f32> {
        (0..8).map(|d| (i as f32) * 0.1 + d as f32).collect()
    }

    /// Device `i`'s `UpdateReport` frame for a [`plain_master`] round.
    fn plain_frame(i: u64) -> Vec<u8> {
        fl_wire::encode(&fl_wire::WireMessage::UpdateReport {
            device: DeviceId(i),
            round: fl_core::RoundId(1),
            attempt: 1,
            update_bytes: encode(&plain_update(i), CodecSpec::Identity),
            weight: i + 1,
            loss: 0.5,
            accuracy: 0.5,
            population: "pop".into(),
        })
        .expect("test frame encodes")
    }

    /// Drives one round through the actor tree (master + shard children
    /// on the system's workers): `frames` are forwarded as `Update`s with
    /// the `Finalize` sent ahead of `frames[finalize_at..]`, `enqueued`
    /// runs once the whole round is in the master's mailbox, and the
    /// merge the Master answers with is returned.
    fn drive_master_actor(
        system: &ActorSystem,
        master: MasterAggregator,
        frames: Vec<Vec<u8>>,
        finalize_at: usize,
        finalize: impl FnOnce(Reply<CoordMsg>) -> MasterMsg,
        enqueued: impl FnOnce(),
    ) -> Result<MergeOutcome, String> {
        let actor = system.spawn("master", MasterAggregatorActor::new(master));
        let (reply, mailbox) = merged_reply();
        let mut round: Vec<MasterMsg> = frames
            .into_iter()
            .map(|frame| {
                // What the Coordinator's parse reads before it forwards.
                let report = fl_wire::ReportRef::parse(&frame).expect("test frame opens");
                let route = ReportRoute::of(&report);
                MasterMsg::Update(ForwardedReport { route, frame })
            })
            .collect();
        round.insert(finalize_at, finalize(reply));
        for msg in round {
            actor.send(msg).unwrap();
        }
        enqueued();
        let result = merged(&mailbox);
        // Held until the answer, as the Coordinator holds its reference.
        drop(actor);
        system.join();
        result
    }

    /// A plain round of `updates` devices whose `Finalize`, expecting
    /// `expected` of them, is sent ahead of the frames from `finalize_at`.
    fn drive_plain_round(
        system: &ActorSystem,
        updates: u64,
        finalize_at: usize,
        expected: u64,
        enqueued: impl FnOnce(),
    ) -> Result<MergeOutcome, String> {
        drive_master_actor(
            system,
            plain_master(),
            (0..updates).map(plain_frame).collect(),
            finalize_at,
            |reply| MasterMsg::Finalize {
                current_params: vec![1.0f32; 8],
                expected_contributors: expected,
                advertise_dropouts: Vec::new(),
                share_dropouts: Vec::new(),
                reply,
            },
            enqueued,
        )
    }

    /// A plain round of `updates` devices, in mailbox order.
    fn drive_plain_round_in_order(
        system: &ActorSystem,
        updates: u64,
    ) -> Result<MergeOutcome, String> {
        drive_plain_round(system, updates, updates as usize, updates, || ())
    }

    /// The actor tree (master + shard children over real threads) commits
    /// byte-identical parameters to the struct driver, and every actor in
    /// the tree dies with the round (observable via obituaries).
    #[test]
    fn actor_master_matches_struct_master_and_dies_with_round() {
        let mut reference = plain_master();
        assert!(reference.shard_count() > 1);
        for frame in (0..10u64).map(plain_frame) {
            let route = ReportRoute::of(&fl_wire::ReportRef::parse(&frame).unwrap());
            reference.accept_forwarded(&route, &frame).unwrap();
        }
        let expected = reference.finalize(&[1.0f32; 8], &[], &[]).unwrap();

        let system = ActorSystem::new();
        let merged = drive_plain_round_in_order(&system, 10).unwrap();
        assert_eq!(merged, expected, "actor and struct drivers disagree");

        // The whole ephemeral subtree is dead: master + 4 shards, all
        // normal deaths.
        let obits: Vec<_> = system.deaths().try_iter().collect();
        let names: Vec<&str> = obits.iter().map(|o| o.name.as_str()).collect();
        assert!(names.contains(&"master"), "{names:?}");
        for i in 0..4 {
            let shard = format!("master/agg-{i}");
            assert!(names.iter().any(|n| **n == shard), "{names:?}");
        }
        assert!(obits.iter().all(|o| o.reason == DeathReason::Normal));
    }

    /// Sec. 4.2: an Aggregator crash loses its devices' contributions but
    /// the Master still merges the surviving shards and the round commits,
    /// whether the shard dies on its first report or on its `Close` (its
    /// dropped reply answers for it).
    #[test]
    fn shard_crash_loses_its_devices_but_finalize_succeeds() {
        // 10 devices round-robin over 4 shards: shard 1 owns devices 1, 5
        // and 9 (three accepts, then its Close), and the survivors carry
        // the other 7.
        for nth in [1, 4] {
            let system = ActorSystem::new();
            system.install_fault_injector(std::sync::Arc::new(ScriptedFaults::new().with(
                "master/agg-1",
                nth,
                FaultAction::Crash,
            )));
            let merged = drive_plain_round_in_order(&system, 10).unwrap();
            assert_eq!(merged.contributors, 7, "crash on delivery {nth}");
            assert!(merged.params.iter().all(|p| p.is_finite()));
            let panicked: Vec<_> = system
                .deaths()
                .try_iter()
                .filter(|o| matches!(o.reason, DeathReason::Panicked(_)))
                .map(|o| o.name)
                .collect();
            assert_eq!(panicked, vec!["master/agg-1".to_string()]);
        }
    }

    /// Holds the master's first delivery until the test has enqueued the
    /// whole round, so the mailbox order under test is forced, not raced.
    struct HoldFirstDelivery(std::sync::Barrier);

    impl FaultInjector for HoldFirstDelivery {
        fn on_deliver(&self, actor: &str, seq: u64) -> FaultAction {
            if actor == "master" && seq == 1 {
                self.0.wait();
            }
            FaultAction::Deliver
        }
    }

    /// Drives a plain round whose `Finalize` expects 10 updates and
    /// reaches the master ahead of every one of `updates` frames.
    fn drive_plain_round_finalize_first(updates: u64) -> MergeOutcome {
        let system = ActorSystem::new();
        let gate = std::sync::Arc::new(HoldFirstDelivery(std::sync::Barrier::new(2)));
        system.install_fault_injector(gate.clone());
        drive_plain_round(&system, updates, 0, 10, || {
            gate.0.wait();
        })
        .unwrap()
    }

    /// The finalize barrier guards plain rounds too: a `Finalize` that
    /// overtakes every update the Coordinator accepted waits for them
    /// and commits the same bytes as the in-order round — it used to
    /// close the shards empty and fail the round.
    #[test]
    fn plain_finalize_that_overtakes_its_updates_still_merges_them() {
        let in_order = drive_plain_round_in_order(&ActorSystem::new(), 10).unwrap();
        let overtaken = drive_plain_round_finalize_first(10);
        assert_eq!(overtaken.contributors, 10);
        assert_eq!(overtaken, in_order);
    }

    /// The barrier is bounded: an update that never arrives delays the
    /// finalize until the deferral budget is spent, then the round
    /// merges what is staged.
    #[test]
    fn plain_finalize_proceeds_when_an_update_never_arrives() {
        let merged = drive_plain_round_finalize_first(9);
        assert_eq!(merged.contributors, 9);
        assert_eq!(
            merged,
            drive_plain_round_in_order(&ActorSystem::new(), 9).unwrap()
        );
    }

    /// Holds the shard's first delivery until the test has enqueued both
    /// reports and the `Close`, then sends that report behind the
    /// `Close`, as schedule exploration may while the Master still holds
    /// the shard's reference.
    struct ReorderFirstDelivery(std::sync::Barrier);

    impl FaultInjector for ReorderFirstDelivery {
        fn on_deliver(&self, actor: &str, seq: u64) -> FaultAction {
            if actor == "shard" && seq == 1 {
                self.0.wait();
                return FaultAction::Reorder;
            }
            FaultAction::Deliver
        }
    }

    /// Regression: a shard used to close on `Close` with a report its
    /// Master had routed to it still behind the `Close` in its mailbox,
    /// and that report vanished from the sum.
    #[test]
    fn shard_close_waits_for_every_routed_report() {
        let system = ActorSystem::new();
        let gate = std::sync::Arc::new(ReorderFirstDelivery(std::sync::Barrier::new(2)));
        system.install_fault_injector(gate.clone());
        let shard = AggregatorShard::new(8, CodecSpec::Identity, None);
        let shard = system.spawn("shard", AggregatorActor::new(shard, 1));
        for frame in (0..2u64).map(plain_frame) {
            let route = ReportRoute::of(&fl_wire::ReportRef::parse(&frame).unwrap());
            shard
                .send(ShardMsg::Accept(ForwardedReport { route, frame }))
                .unwrap();
        }
        let (master, closed) = ActorRef::detached("master");
        shard
            .send(ShardMsg::Close {
                shard: 0,
                routed: 2,
                advertise_dropouts: Vec::new(),
                share_dropouts: Vec::new(),
                reply: Reply::new(
                    master,
                    MasterMsg::Closed {
                        shard: 0,
                        result: None,
                    },
                ),
            })
            .unwrap();
        gate.0.wait();
        let answer = closed
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap();
        drop(shard);
        system.join();
        let MasterMsg::Closed {
            shard: 0,
            result: Some(Ok(sum)),
        } = answer
        else {
            panic!("expected shard 0's sum, got {answer:?}");
        };
        assert_eq!(sum.contributors(), 2);
    }

    /// Drives a SecAgg round (8 devices over 2 shards, k = 2) through
    /// the actor tree on forwarded `SecAggReport` frames.
    fn drive_secagg_round(share_dropouts: Vec<DeviceId>) -> Result<MergeOutcome, String> {
        let dim = 4;
        let encoder = FixedPointEncoder::default_for_updates();
        let master = MasterAggregator::new(
            AggregationPlan::with_secagg(dim, 4, 2),
            CodecSpec::Identity,
            8,
            7,
        );
        let frames = (0..8u64)
            .map(|i| {
                fl_wire::encode(&fl_wire::WireMessage::SecAggReport {
                    device: DeviceId(i),
                    round: fl_core::RoundId(1),
                    attempt: 1,
                    field_vector: encoder.encode(&vec![0.5f32; dim]).unwrap(),
                    weight: 2,
                    loss: 0.5,
                    accuracy: 0.5,
                    population: "pop".into(),
                })
                .expect("test frame encodes")
            })
            .collect();
        drive_master_actor(
            &ActorSystem::new(),
            master,
            frames,
            8,
            |reply| MasterMsg::Finalize {
                current_params: vec![0.0f32; dim],
                expected_contributors: 8,
                advertise_dropouts: Vec::new(),
                share_dropouts,
                reply,
            },
            || (),
        )
    }

    /// The live actor tree counts one abort per below-threshold SecAgg
    /// shard in its one reply, and the committed sum covers the
    /// surviving ≥ k group only.
    #[test]
    fn actor_secagg_round_counts_one_abort_per_stranded_shard() {
        // Shard 1 (odd devices) loses 3 of 4 → below k=2 → abort; shard
        // 0 commits its 4 devices untouched.
        let merged = drive_secagg_round(vec![DeviceId(1), DeviceId(3), DeviceId(5)]).unwrap();
        assert_eq!(merged.shard_aborts, 1);
        assert_eq!(merged.contributors, 4);
        for p in merged.params {
            assert!((p - 0.25).abs() < 1e-3, "{p}");
        }
    }

    /// With no dropouts the SecAgg actor round commits all devices and
    /// counts no aborts.
    #[test]
    fn actor_secagg_round_commits_clean_cohort_without_aborts() {
        let merged = drive_secagg_round(Vec::new()).unwrap();
        assert_eq!(merged.shard_aborts, 0);
        assert_eq!(merged.contributors, 8);
        for p in merged.params {
            assert!((p - 0.25).abs() < 1e-3, "{p}");
        }
    }

    /// Every SecAgg group stranded below threshold fails the round with
    /// the typed abort as the reason.
    #[test]
    fn actor_secagg_round_fails_when_every_shard_aborts() {
        // 6 of 8 devices (3 per shard) vanish: both groups fall to 1
        // alive, below k=2.
        let reason = drive_secagg_round((0..6).map(DeviceId).collect()).unwrap_err();
        assert!(reason.contains("below threshold"), "{reason}");
    }
}
