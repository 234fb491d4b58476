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

use fl_bench::gate::{self, SecAggCase as Case};
use fl_core::plan::CodecSpec;
use fl_core::DeviceId;
use fl_server::aggregator::{AggregationPlan, MasterAggregator};
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
         \"group_size\": {GROUP},\n  \"secagg_k\": {K},\n  \"cases\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    );

    gate::secagg(&cases)
}
