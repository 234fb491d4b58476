//! SecAgg sharding gate: regression-gates the quadratic-cost mitigation
//! of Sec. 6. Per-case lines go to stderr and the JSON document to
//! stdout; nothing is written to disk, so the committed
//! `BENCH_secagg.json` is refreshed by a redirect:
//!
//! ```text
//! cargo run --release -q -p fl-bench --bin bench_secagg > BENCH_secagg.json
//! ```
//!
//! SecAgg's cost is quadratic in the group size (every pair of devices
//! exchanges a mask seed, and every dropout costs a reconstruction per
//! peer), which is why the paper runs the protocol per Aggregator shard
//! over fixed-size groups and merges the unmasked sums without SecAgg.
//! This bench drives the real `MasterAggregator` finalize path both
//! ways — one group of N devices vs. N devices split into fixed groups
//! of 16 — and exits non-zero unless the sharded layout stays
//! [`gate::SECAGG_MIN_SPEEDUP`] times cheaper at the largest cohort, so a
//! change that silently routes everyone into one group fails
//! `scripts/check.sh`.
//!
//! The `kernel` row prices one mask draw at the `round_secagg` client
//! shape (16 streams over 4 113 coordinates), so a change in a SecAgg
//! instance's cost can be attributed to the mask kernel or not: the
//! dispatched `keys::apply_masks`, its portable instantiation, and the
//! per-stream loop it replaced (one pass and one `rng::seeded` generator
//! per stream). It carries no floor.

use fl_bench::gate::{self, SecAggCase as Case};
use fl_core::plan::CodecSpec;
use fl_core::DeviceId;
use fl_secagg::field::{self, PRIME};
use fl_secagg::keys::{self, MaskStream};
use fl_server::aggregator::{AggregationPlan, MasterAggregator};
use rand::RngExt;
use std::hint::black_box;
use std::time::Instant;

/// Model dimension for every case — small enough that the pairwise mask
/// machinery, not the vector arithmetic, dominates.
const DIM: usize = 32;
/// The fixed per-shard group size of the mitigated layout.
const GROUP: usize = 16;
/// Devices per shard needed for the group to survive (k ≤ GROUP).
const K: usize = 8;

/// Runs one full SecAgg round over `devices` clients with the given
/// shard capacity and returns the finalize wall time in milliseconds.
fn finalize_ms(devices: usize, max_per_shard: usize, seed: u64) -> f64 {
    let encoder = fl_ml::fixedpoint::FixedPointEncoder::default_for_updates();
    let field = encoder
        .encode(&vec![0.01f32; DIM])
        .expect("bench delta fits the fixed-point range");
    let mut master = MasterAggregator::new(
        AggregationPlan::with_secagg(DIM, max_per_shard, K),
        CodecSpec::Identity,
        devices,
        seed,
    );
    for d in 0..devices as u64 {
        master
            .accept_field(DeviceId(d), &field, 1)
            .expect("bench contribution is staged");
    }
    let start = Instant::now();
    let out = master
        .finalize(&vec![0.0f32; DIM], &[], &[])
        .expect("bench round commits");
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(out.contributors, devices, "keep the work observable");
    elapsed
}

/// Best-of-`iters` timing — the minimum is the least noisy statistic
/// for a CPU-bound micro-benchmark.
fn best_ms(devices: usize, max_per_shard: usize, iters: u32) -> f64 {
    (0..iters)
        .map(|i| finalize_ms(devices, max_per_shard, 11 + u64::from(i)))
        .fold(f64::INFINITY, f64::min)
}

/// Mask streams and coordinates of the kernel row: one `round_secagg`
/// client's self mask and 15 pairwise masks over 4 112 coordinates plus
/// the weight.
const KERNEL_STREAMS: u64 = 16;
const KERNEL_DIM: usize = 4113;

/// The per-stream loop `keys::apply_masks` replaced: one pass over `acc`
/// per `(seed, subtract)` stream, `op` inlined into each.
fn per_stream_loop(acc: &mut [u64], streams: &[(u64, bool)]) {
    fn apply_mask(acc: &mut [u64], seed: u64, op: impl Fn(u64, u64) -> u64) {
        let mut r = fl_ml::rng::seeded(seed);
        for x in acc {
            *x = op(*x, r.random_range(0..PRIME));
        }
    }
    for &(seed, subtract) in streams {
        if subtract {
            apply_mask(acc, seed, field::sub);
        } else {
            apply_mask(acc, seed, field::add);
        }
    }
}

/// Best-of-seven ns per draw of each kernel at the kernel shape, the
/// kernels taking turns so a slow spell of the host reaches all of them.
fn kernel_ns_per_draw() -> [f64; 3] {
    let plan: Vec<(u64, bool)> = (0..KERNEL_STREAMS).map(|s| (s, s % 2 == 1)).collect();
    let streams: Vec<MaskStream> = plan
        .iter()
        .map(|&(s, sub)| {
            if sub {
                MaskStream::sub(s)
            } else {
                MaskStream::add(s)
            }
        })
        .collect();
    type Kernel<'a> = &'a dyn Fn(&mut [u64]);
    let kernels: [Kernel; 3] = [
        &|acc| keys::apply_masks(acc, &streams),
        &|acc| keys::apply_masks_portable(acc, &streams),
        &|acc| per_stream_loop(acc, &plan),
    ];
    const REPS: u32 = 100;
    let draws = f64::from(REPS) * (KERNEL_STREAMS as usize * KERNEL_DIM) as f64;
    let mut acc = vec![0u64; KERNEL_DIM];
    let mut best = [f64::INFINITY; 3];
    for _ in 0..7 {
        for (kernel, best) in kernels.iter().zip(&mut best) {
            let start = Instant::now();
            for _ in 0..REPS {
                kernel(black_box(&mut acc));
            }
            *best = best.min(start.elapsed().as_secs_f64() * 1e9 / draws);
        }
    }
    black_box(&acc);
    best
}

fn main() -> Result<(), String> {
    let cases: Vec<Case> = [16usize, 32, 64]
        .iter()
        .map(|&devices| {
            // One warm-up pass per layout, then the measured passes.
            let _ = finalize_ms(devices, devices, 3);
            let _ = finalize_ms(devices, GROUP, 3);
            let single_group_ms = best_ms(devices, devices, 5);
            let sharded_ms = best_ms(devices, GROUP, 5);
            eprintln!(
                "secagg {devices:>3} devices: one group {single_group_ms:>8.2} ms, \
                 groups of {GROUP} {sharded_ms:>8.2} ms ({:.1}x)",
                single_group_ms / sharded_ms
            );
            Case {
                devices,
                single_group_ms,
                sharded_ms,
            }
        })
        .collect();

    let [dispatched, portable, per_stream] = kernel_ns_per_draw();
    #[cfg(target_arch = "x86_64")]
    let avx512f = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512f = false;
    eprintln!(
        "mask kernel, {KERNEL_STREAMS} streams x {KERNEL_DIM}: dispatched {dispatched:.2} ns a draw \
         (avx512f {avx512f}), portable {portable:.2}, per-stream loop {per_stream:.2}"
    );

    let rows: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"devices\": {}, \"single_group_ms\": {:.3}, \"sharded_ms\": {:.3}, \
                 \"speedup\": {:.2}}}",
                c.devices,
                c.single_group_ms,
                c.sharded_ms,
                c.single_group_ms / c.sharded_ms,
            )
        })
        .collect();
    println!(
        "{{\n  \"bench\": \"secagg_sharding\",\n  \"dim\": {DIM},\n  \
         \"group_size\": {GROUP},\n  \"secagg_k\": {K},\n  \"cases\": [\n{}\n  ],\n  \
         \"kernel\":\n    {{\"streams\": {KERNEL_STREAMS}, \"dim\": {KERNEL_DIM}, \"avx512f\": {avx512f}, \
         \"dispatched_ns_per_draw\": {dispatched:.3}, \"portable_ns_per_draw\": {portable:.3}, \
         \"per_stream_loop_ns_per_draw\": {per_stream:.3}}}\n}}",
        rows.join(",\n")
    );

    gate::secagg(&cases)
}
