//! Federated Analytics (Sec. 11, *Federated Computation*).
//!
//! ```text
//! cargo run --release --example federated_analytics
//! ```
//!
//! "We aim to generalize our system from Federated Learning to Federated
//! Computation […]. One application area we are seeing is in Federated
//! Analytics, which would allow us to monitor aggregate device statistics
//! without logging raw device data to the cloud."
//!
//! This example exercises that future-work direction with the pieces the
//! platform already provides: each device computes a local histogram of a
//! private on-device statistic (daily app-usage minutes), and the server
//! learns only the *population histogram* via Secure Aggregation — no
//! device's individual histogram is ever visible, and drop-outs are
//! tolerated mid-protocol. No ML anywhere, as the paper promises ("this
//! paper contains no explicit mentioning of any ML logic").

use federated::ml::rng;
use federated::secagg::protocol::{run_instance, SecAggConfig};
use rand::RngExt;

const BUCKETS: usize = 10; // usage histogram: 0-30, 30-60, …, 270+ minutes

fn device_histogram(device: u64, seed: u64) -> Vec<u64> {
    // Each device's private usage pattern: log-normal-ish minutes per day
    // over a simulated week.
    let mut r = rng::seeded_stream(seed, device);
    let mut hist = vec![0u64; BUCKETS];
    for _day in 0..7 {
        let minutes = (60.0 * (rng::normal(&mut r) * 0.7 + 1.5).exp().min(8.0)).max(0.0);
        let bucket = ((minutes / 30.0) as usize).min(BUCKETS - 1);
        hist[bucket] += 1;
    }
    hist
}

fn main() {
    let devices = 60u32;
    let threshold = 40;
    let config = SecAggConfig::new(threshold, BUCKETS);
    println!(
        "federated analytics: {devices} devices, {BUCKETS}-bucket usage histogram, SecAgg threshold {threshold}\n"
    );

    let inputs: Vec<Vec<u64>> = (0..u64::from(devices))
        .map(|d| device_histogram(d, 2026))
        .collect();

    // A handful of devices drop out mid-protocol, as phones do.
    let mut drop_rng = rng::seeded(7);
    let dropped: Vec<u32> = (0..devices)
        .filter(|_| drop_rng.random::<f64>() < 0.1)
        .collect();
    println!("drop-outs during the protocol: {dropped:?}");

    let sum = run_instance(config, &inputs, &[], &dropped, 99).expect("protocol succeeds");

    // Verify against the plaintext sum of committed devices (the server
    // cannot do this — only the simulation harness can).
    let mut expected = vec![0u32; BUCKETS];
    for (i, h) in inputs.iter().enumerate() {
        if dropped.contains(&(i as u32)) {
            continue;
        }
        for (e, &v) in expected.iter_mut().zip(h) {
            *e += v as u32;
        }
    }
    assert_eq!(sum, expected);

    println!("\npopulation histogram (device-days per usage bucket), learned via SecAgg only:");
    let max = *sum.iter().max().unwrap() as f64;
    for (b, &count) in sum.iter().enumerate() {
        let bar = "█".repeat((count as f64 / max * 40.0) as usize);
        println!("  {:>3}-{:<3} min |{bar} {count}", b * 30, (b + 1) * 30);
    }
    println!(
        "\nthe server never saw any individual device's histogram; {} of {devices} devices contributed",
        devices as usize - dropped.len()
    );
}
