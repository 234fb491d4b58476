//! Secure Aggregation walkthrough (Sec. 6).
//!
//! ```text
//! cargo run --release --example secure_aggregation
//! ```
//!
//! Runs the four-round protocol message by message over a cohort of
//! devices, with drop-outs at two different stages, and verifies that the
//! server learns exactly the sum of the committed devices' updates — and
//! nothing about any individual one. Then demonstrates the same protocol
//! embedded in the aggregation hierarchy (per-Aggregator groups of size
//! ≥ k).

use federated::core::plan::CodecSpec;
use federated::core::DeviceId;
use federated::ml::fixedpoint::FixedPointEncoder;
use federated::secagg::protocol::{SecAggClient, SecAggConfig, SecAggServer};
use federated::server::aggregator::{AggregationPlan, MasterAggregator};

fn main() {
    let n: u32 = 8;
    let dim = 6;
    let config = SecAggConfig::new(5, dim); // threshold 5 of 8
    println!(
        "Secure Aggregation: {n} devices, threshold {}, dim {dim}\n",
        5
    );

    let clients: Vec<_> = (0..n).map(|id| SecAggClient::new(id, config, 42)).collect();
    let mut server = SecAggServer::new(config);

    // Round 0 — AdvertiseKeys.
    for c in &clients {
        server.collect_advertisement(c.advertisement()).unwrap();
    }
    let (mut server, broadcast) = server.finish_advertising().unwrap();
    println!("round 0: {} devices advertised key pairs", broadcast.len());

    // Round 1 — ShareKeys. Device 6 vanishes before sharing.
    let mut sharing = Vec::new();
    for c in clients.into_iter().filter(|c| c.id() != 6) {
        let (c, shares) = c.share_keys(&broadcast).unwrap();
        server.collect_shares(shares).unwrap();
        sharing.push(c);
    }
    let (mut server, routed) = server.finish_sharing().unwrap();
    println!("round 1: shares routed; device 6 dropped before sharing (excluded cleanly)");

    // Round 2 — Commit: each device opens the shares routed to it and
    // masks its input. Device 3 vanishes after sharing keys: its pairwise
    // masks are already baked into others' inputs and must be
    // reconstructed away.
    let inputs: Vec<Vec<u64>> = (0..n)
        .map(|i| (0..dim).map(|d| u64::from(i) * 100 + d as u64).collect())
        .collect();
    let mut committed = Vec::new();
    for c in sharing.into_iter().filter(|c| c.id() != 3) {
        let (incoming, input) = (&routed[&c.id()], &inputs[c.id() as usize]);
        let (c, masked) = c.commit(incoming, input).unwrap();
        server.collect_masked(masked).unwrap();
        committed.push(c);
    }
    let (mut server, request) = server.finish_commit().unwrap();
    println!(
        "round 2: {} masked inputs committed; device 3 dropped after sharing",
        request.committed.len()
    );

    // Round 3 — Finalization.
    for c in committed {
        server.collect_reveals(c.unmask(&request).unwrap()).unwrap();
    }
    let sum = server.finalize().unwrap();
    let expected: Vec<u32> = (0..dim)
        .map(|d| {
            (0..n)
                .filter(|&i| i != 6 && i != 3)
                .map(|i| i * 100 + d as u32)
                .sum()
        })
        .collect();
    println!("round 3: unmasked sum = {sum:?}");
    assert_eq!(
        sum, expected,
        "sum must equal the committed devices' plaintext sum"
    );
    println!("verified: server learned exactly the sum, with two drop-outs survived\n");

    // Hierarchy: 12 devices, SecAgg groups of at least 4 (Sec. 6's
    // parameter k), merged by the Master Aggregator without SecAgg.
    let dim = 16;
    let plan = AggregationPlan::with_secagg(dim, 6, 4);
    let mut master = MasterAggregator::new(plan, CodecSpec::Identity, 12, 99);
    println!(
        "hierarchical: 12 devices -> {} SecAgg groups (k = 4)",
        master.shard_count()
    );
    let encoder = FixedPointEncoder::default_for_updates();
    println!(
        "fixed-point grid: ±64.0 range, {:.1e} resolution",
        encoder.per_summand_error()
    );
    let update = vec![0.5f32; dim];
    let encoded = CodecSpec::Identity.build().encode(&update);
    for i in 0..12u64 {
        master.accept(DeviceId(i), &encoded, 10).unwrap();
    }
    let outcome = master
        .finalize(&vec![0.0; dim], &[], &[DeviceId(7)])
        .unwrap();
    println!(
        "master merged {} contributors (1 share-stage dropout); mean delta {:.4} (expected 0.05)",
        outcome.contributors, outcome.params[0]
    );
}
