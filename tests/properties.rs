//! Cross-crate property-based tests: the invariants the system's
//! correctness rests on, checked over randomized inputs.

use federated::core::aggregation::FedAvgAccumulator;
use federated::core::plan::{CodecSpec, FlPlan, ModelSpec};
use federated::core::{FlCheckpoint, RoundId};
use federated::ml::fixedpoint::FixedPointEncoder;
use federated::ml::optim::WeightedUpdate;
use federated::secagg::field;
use federated::secagg::protocol::{run_instance, SecAggConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SecAgg's defining property: for any input vectors and any drop-out
    /// pattern that leaves at least the threshold alive, the unmasked sum
    /// equals the plaintext sum of the committed devices' inputs.
    #[test]
    fn secagg_sum_equals_plaintext_under_any_dropout(
        n in 4usize..9,
        dim in 1usize..12,
        seed in 0u64..500,
        drop_mask in proptest::collection::vec(any::<bool>(), 9),
        values in proptest::collection::vec(0u64..1 << 32, 9 * 12),
    ) {
        let threshold = (2 * n).div_ceil(3).max(2);
        let config = SecAggConfig::new(threshold, dim);
        let inputs: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..dim).map(|d| values[i * 12 + d]).collect())
            .collect();
        // Cap drop-outs so the threshold survives.
        let max_drops = n - threshold;
        let dropped: Vec<u32> = (0..n as u32)
            .filter(|&i| drop_mask[i as usize])
            .take(max_drops)
            .collect();
        let sum = run_instance(config, &inputs, &[], &dropped, seed).unwrap();
        // The plaintext sum in the ring `Z_{2^32}` the inputs are masked
        // in: any ring element is a valid input, and the sum wraps.
        let mut expected = vec![0u32; dim];
        for (i, input) in inputs.iter().enumerate() {
            if dropped.contains(&(i as u32)) {
                continue;
            }
            for (e, &v) in expected.iter_mut().zip(input) {
                *e = e.wrapping_add(v as u32);
            }
        }
        prop_assert_eq!(sum, expected);
    }

    /// Streaming aggregation is associative: splitting a stream of updates
    /// across any number of shards and merging yields the same result as
    /// one accumulator, bit-for-bit on the counters and within float
    /// tolerance on the sums.
    #[test]
    fn fedavg_sharding_is_associative(
        dim in 1usize..8,
        weights in proptest::collection::vec(1u64..50, 2..20),
        split in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let mut r = federated::ml::rng::seeded(seed);
        use rand::RngExt;
        let updates: Vec<WeightedUpdate> = weights
            .iter()
            .map(|&w| WeightedUpdate {
                delta: (0..dim).map(|_| r.random::<f32>() - 0.5).collect(),
                weight: w,
            })
            .collect();
        let mut reference = FedAvgAccumulator::new(dim);
        for u in &updates {
            reference.accumulate(u.clone()).unwrap();
        }
        let mut shards: Vec<FedAvgAccumulator> =
            (0..split).map(|_| FedAvgAccumulator::new(dim)).collect();
        for (i, u) in updates.iter().enumerate() {
            shards[i % split].accumulate(u.clone()).unwrap();
        }
        let mut merged = FedAvgAccumulator::new(dim);
        for s in &shards {
            merged.merge(s).unwrap();
        }
        prop_assert_eq!(merged.contributors(), reference.contributors());
        prop_assert_eq!(merged.total_weight(), reference.total_weight());
        let a = merged.average_delta().unwrap();
        let b = reference.average_delta().unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Codec round-trips: identity is exact; the quantizer's relative
    /// error is bounded; the pipeline never panics and preserves length.
    #[test]
    fn codecs_round_trip_with_bounded_error(
        values in proptest::collection::vec(-10.0f32..10.0, 1..300),
        keep in 1u32..4,
        seed in 0u64..100,
    ) {
        use federated::ml::compress::{IdentityCodec, QuantizeCodec, UpdateCodec};
        let id = IdentityCodec;
        prop_assert_eq!(
            id.decode(&id.encode(&values), values.len()).unwrap(),
            values.clone()
        );
        let q = QuantizeCodec::new(64);
        let decoded = q.decode(&q.encode(&values), values.len()).unwrap();
        for chunk in values.chunks(64).zip(decoded.chunks(64)) {
            let scale = chunk.0.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (a, b) in chunk.0.iter().zip(chunk.1) {
                prop_assert!((a - b).abs() <= scale / 127.0 + 1e-6);
            }
        }
        let spec = CodecSpec::Pipeline {
            keep: f64::from(keep) * 0.25,
            seed,
            block: 32,
        };
        let codec = spec.build();
        let decoded = codec.decode(&codec.encode(&values), values.len()).unwrap();
        prop_assert_eq!(decoded.len(), values.len());
    }

    /// Fixed-point encoding: summing any K ≤ max_summands encoded values in
    /// the ring and decoding recovers the clipped-sum within K grid steps.
    #[test]
    fn fixedpoint_sums_are_exact_to_grid(
        values in proptest::collection::vec(-7.9f32..7.9, 1..40),
    ) {
        let enc = FixedPointEncoder::new(8.0, 16, 64).unwrap();
        let encoded: Vec<u64> = values
            .iter()
            .map(|&v| enc.encode_value(v).unwrap())
            .collect();
        let mut sum = 0u32;
        for &e in &encoded {
            sum = sum.wrapping_add(u32::try_from(e).unwrap());
        }
        let decoded = enc.decode_sum_value(sum, values.len() as u64);
        let expected: f64 = values.iter().map(|&v| f64::from(v)).sum();
        let tolerance = enc.per_summand_error() * 2.0 * values.len() as f64 + 1e-6;
        prop_assert!(
            (f64::from(decoded) - expected).abs() <= tolerance,
            "decoded {} expected {} tol {}",
            decoded, expected, tolerance
        );
    }

    /// Checkpoints survive arbitrary parameter contents and task names.
    #[test]
    fn checkpoints_round_trip(
        name in "[a-z]{1,20}(/[a-z]{1,10})?",
        round in 0u64..10_000,
        params in proptest::collection::vec(any::<f32>(), 0..200),
    ) {
        // NaN != NaN breaks equality; compare bit patterns instead.
        let ck = FlCheckpoint::new(name.clone(), RoundId(round), params.clone());
        let back = FlCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        prop_assert_eq!(back.task_name.clone(), name);
        prop_assert_eq!(back.round, RoundId(round));
        let a: Vec<u32> = params.iter().map(|p| p.to_bits()).collect();
        let b: Vec<u32> = back.params().iter().map(|p| p.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// Plan lowering: for every hyperparameter combination, lowering to
    /// any supported version yields a plan whose required version fits and
    /// that contains no op newer than the target.
    #[test]
    fn plan_lowering_respects_target_version(
        epochs in 1usize..6,
        batch in 1usize..64,
        version in 1u32..4,
    ) {
        let plan = FlPlan::standard_training(
            ModelSpec::Logistic { dim: 4, classes: 2, seed: 0 },
            epochs,
            batch,
            0.1,
            CodecSpec::Identity,
        );
        let lowered = plan.device.lower_to_version(version).unwrap();
        prop_assert!(lowered.required_version() <= version);
        for op in &lowered.ops {
            prop_assert!(op.min_version() <= version);
        }
    }

    /// Field arithmetic: the laws SecAgg depends on, over random elements.
    #[test]
    fn field_laws(a in 0u64..field::PRIME, b in 0u64..field::PRIME) {
        prop_assert_eq!(field::add(a, field::sub(0, a)), 0);
        prop_assert_eq!(field::sub(field::add(a, b), b), a);
        if a != 0 {
            prop_assert_eq!(field::mul(a, field::inv(a)), 1);
        }
        prop_assert_eq!(field::mul(a, b), field::mul(b, a));
    }
}
