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
//!
//! The `instance` row is one `round_secagg` shard's close: a SecAgg
//! instance of 16 devices over 4 113 coordinates, threshold 11, one
//! device gone after sharing keys. It prints the best time, the
//! exponentiations the instance ran (`field::exponentiations`) and the
//! mask kernel's share of the time: the instance's 270 streams of 4 113
//! draws at the kernel row's dispatched cost, over the instance time.
//! Its exponentiations must be exactly [`gate::SECAGG_INSTANCE_POW`].
//!
//! The `staged` row is the bytes one `round_secagg` shard group stages:
//! 16 devices' 4 112-coordinate field vectors accepted by one SecAgg
//! `AggregatorShard`, counted by this binary's global allocator over
//! every allocation of [`LARGE`] bytes or more the staging makes. It must
//! be exactly [`gate::SECAGG_STAGED_BYTES`], a ring element of 4 B per
//! coordinate and weight, so staging at a wider width fails the gate.

use fl_bench::gate::{self, SecAggCase as Case};
use fl_core::plan::CodecSpec;
use fl_core::DeviceId;
use fl_secagg::field;
use fl_secagg::keys::{self, MaskStream};
use fl_secagg::protocol::{run_instance, SecAggConfig};
use fl_server::aggregator::{AggregationPlan, AggregatorShard, MasterAggregator};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Allocations of this size or more are the `staged` row's: a model's
/// worth, not a map node.
const LARGE: usize = 4096;

/// Bytes of every allocation of [`LARGE`] or more so far.
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// [`System`], adding up the bytes of the large allocations.
struct Counting;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is an atomic and allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

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
        .encode(&[0.01f32; DIM])
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
        .finalize(&[0.0f32; DIM], &[], &[])
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

/// The per-stream loop `keys::apply_masks` replaced, in the ring: one
/// pass over `acc` per `(seed, subtract)` stream, two coordinates per
/// `rng::seeded` step, `op` inlined into each.
fn per_stream_loop(acc: &mut [u32], streams: &[(u64, bool)]) {
    fn apply_mask(acc: &mut [u32], seed: u64, op: impl Fn(u32, u32) -> u32) {
        let mut r = fl_ml::rng::seeded(seed);
        for pair in acc.chunks_mut(2) {
            let word = r.next_u64();
            for (x, m) in pair.iter_mut().zip([word as u32, (word >> 32) as u32]) {
                *x = op(*x, m);
            }
        }
    }
    for &(seed, subtract) in streams {
        if subtract {
            apply_mask(acc, seed, u32::wrapping_sub);
        } else {
            apply_mask(acc, seed, u32::wrapping_add);
        }
    }
}

/// Ns per draw of each kernel at the kernel shape, one timing each in
/// turn (`main` takes the best of seven turns).
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
    type Kernel<'a> = &'a dyn Fn(&mut [u32]);
    let kernels: [Kernel; 3] = [
        &|acc| keys::apply_masks(acc, &streams),
        &|acc| keys::apply_masks_portable(acc, &streams),
        &|acc| per_stream_loop(acc, &plan),
    ];
    const REPS: u32 = 100;
    let draws = f64::from(REPS) * (KERNEL_STREAMS as usize * KERNEL_DIM) as f64;
    let mut acc = vec![0u32; KERNEL_DIM];
    let ns = kernels.map(|kernel| {
        let start = Instant::now();
        for _ in 0..REPS {
            kernel(black_box(&mut acc));
        }
        start.elapsed().as_secs_f64() * 1e9 / draws
    });
    black_box(&acc);
    ns
}

/// The instance row's shape: devices, threshold and share-stage drop-outs
/// of one `round_secagg` shard, over [`KERNEL_DIM`] coordinates.
const INSTANCE_DEVICES: usize = 16;
const INSTANCE_THRESHOLD: usize = 11;
const INSTANCE_DROPOUTS: usize = 1;

/// Mask streams of one instance: `c` committed devices each apply
/// `m + 1` (a self mask and `m − 1` pairwise), and the server removes `c`
/// self masks and `c` residuals per drop-out (DESIGN.md Sec. 9).
const fn instance_streams() -> usize {
    let (m, s) = (INSTANCE_DEVICES, INSTANCE_DROPOUTS);
    let c = m - s;
    c * (m + 1 + s)
}

/// Best-of-`runs` milliseconds of one shard-shape instance, and the
/// exponentiations one instance runs.
fn time_instance(runs: u32) -> (f64, u64) {
    let config = SecAggConfig::new(INSTANCE_THRESHOLD, KERNEL_DIM);
    let inputs: Vec<Vec<u64>> = (0..INSTANCE_DEVICES as u64)
        .map(|i| (0..KERNEL_DIM as u64).map(|d| i * 1000 + d).collect())
        .collect();
    let dropped: Vec<u32> = (0..INSTANCE_DROPOUTS as u32).collect();
    let mut best = f64::INFINITY;
    let mut exponentiations = 0;
    for seed in 0..u64::from(runs) {
        let before = field::exponentiations();
        let start = Instant::now();
        let sum = run_instance(config, &inputs, &[], &dropped, seed).expect("the instance commits");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        exponentiations = field::exponentiations() - before;
        black_box(sum);
    }
    (best, exponentiations)
}

/// Bytes of [`LARGE`] allocations one `round_secagg` shard group's
/// staging makes: [`INSTANCE_DEVICES`] field vectors of
/// [`KERNEL_DIM`]` − 1` coordinates into one SecAgg shard.
fn staged_bytes() -> usize {
    let dim = KERNEL_DIM - 1;
    let field = fl_ml::fixedpoint::FixedPointEncoder::default_for_updates()
        .encode(&vec![0.01f32; dim])
        .expect("bench delta fits the fixed-point range");
    let mut shard = AggregatorShard::new(dim, CodecSpec::Identity, Some(K));
    let before = LARGE_BYTES.load(Ordering::Relaxed);
    for d in 0..INSTANCE_DEVICES as u64 {
        shard
            .accept_field(DeviceId(d), &field, 1)
            .expect("bench contribution is staged");
    }
    let bytes = LARGE_BYTES.load(Ordering::Relaxed) - before;
    black_box(shard);
    bytes
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

    // The kernels and the instance take turns, so a slow spell of the
    // host reaches all of them and the kernel's share compares like with
    // like.
    let _ = time_instance(20);
    let (mut kernel, mut instance_ms, mut pow) = ([f64::INFINITY; 3], f64::INFINITY, 0);
    for _ in 0..7 {
        for (best, ns) in kernel.iter_mut().zip(kernel_ns_per_draw()) {
            *best = best.min(ns);
        }
        let (ms, exponentiations) = time_instance(40);
        instance_ms = instance_ms.min(ms);
        pow = exponentiations;
    }
    let [dispatched, portable, per_stream] = kernel;
    #[cfg(target_arch = "x86_64")]
    let avx512f = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512f = false;
    eprintln!(
        "mask kernel, {KERNEL_STREAMS} streams x {KERNEL_DIM}: dispatched {dispatched:.2} ns a draw \
         (avx512f {avx512f}), portable {portable:.2}, per-stream loop {per_stream:.2}"
    );

    let staged = staged_bytes();
    eprintln!(
        "staged, {INSTANCE_DEVICES} devices x {KERNEL_DIM}: {staged} B in allocations of \
         {LARGE} B or more"
    );

    let streams = instance_streams();
    let kernel_share = (streams * KERNEL_DIM) as f64 * dispatched / (instance_ms * 1e6);
    eprintln!(
        "instance, {INSTANCE_DEVICES} devices x {KERNEL_DIM}, t {INSTANCE_THRESHOLD}, \
         {INSTANCE_DROPOUTS} share drop-out: {instance_ms:.3} ms, {pow} exponentiations, \
         {streams} streams, mask kernel {:.0} % of it",
        kernel_share * 1e2
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
         \"per_stream_loop_ns_per_draw\": {per_stream:.3}}},\n  \"instance\":\n    \
         {{\"devices\": {INSTANCE_DEVICES}, \"dim\": {KERNEL_DIM}, \"threshold\": {INSTANCE_THRESHOLD}, \
         \"share_dropouts\": {INSTANCE_DROPOUTS}, \"best_ms\": {instance_ms:.3}, \"pow\": {pow}, \
         \"streams\": {streams}, \"kernel_share\": {kernel_share:.2}}},\n  \"staged\":\n    \
         {{\"devices\": {INSTANCE_DEVICES}, \"dim\": {KERNEL_DIM}, \"bytes\": {staged}}}\n}}",
        rows.join(",\n")
    );

    gate::secagg(
        &cases,
        &gate::SecAggShard {
            pow,
            staged_bytes: staged,
        },
    )
}
