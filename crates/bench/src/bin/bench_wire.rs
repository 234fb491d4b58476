//! Wire-codec throughput gate: `UpdateReport` encode/decode at 1k,
//! 100k, and 1M parameters. Per-case lines go to stderr and the JSON
//! document to stdout; nothing is written to disk, so the committed
//! `BENCH_wire.json` is refreshed by a redirect:
//!
//! ```text
//! cargo run --release -q -p fl-bench --bin bench_wire > BENCH_wire.json
//! ```
//!
//! The payload is the codec's real frame for an f32 update of the given
//! parameter count (4 B/param under `CodecSpec::Identity`, the
//! worst-case upload), so the numbers bound how much CPU a Selector
//! burns framing/deframing the FIG9 upload path.
//!
//! The `digest` row prices the frame digest on its own: ns at 64 B and
//! 1 KiB (the narrow regime), GB/s at 33 KB (a `round_secagg` report) and
//! 1 MiB (the wide regime), for the dispatched `fl_wire::checksum` and its
//! portable build.
//!
//! The `configuration_fanout` row sends one `round_secagg`-sized
//! Configuration (a 4 112-param model) through
//! `WireSink::send_configuration` to 64 in-memory devices and decodes it
//! on each: ns per device, the best of seven passes. It carries no gate.
//!
//! The `configuration_tcp` row sends ten Configurations of one
//! `round_plain_tcp`-sized plan (262 208 params) down one loopback
//! connection and decodes each: the bytes of the first (full) and of a
//! warm one (exact), and ns per device, the best of seven passes.
//!
//! The run exits non-zero when the 1M-parameter frame encodes or decodes
//! below [`gate::WIRE_FLOOR_MB_PER_S`], which a digest that walks the
//! frame a byte at a time cannot reach, or when a CPU with AVX2 runs the
//! dispatched 1 MiB digest under [`gate::DIGEST_MIN_SPEEDUP`] times the
//! portable build (a lost `#[target_feature]`), or when a warm
//! Configuration on a TCP connection carries more than its checkpoint,
//! population and [`gate::CONFIGURATION_ENVELOPE`] (the plan sent again).

use fl_bench::gate::{self, ConfigurationTcp, DigestRow, WireCase as Case};
use fl_core::checkpoint::FlCheckpoint;
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::{DeviceId, PopulationName, RoundId};
use fl_server::wire::{self, WireMessage};
use fl_wire::{ChannelTransport, FaultScript, FaultyTransport, TcpTransport, Transport};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An `UpdateReport` carrying an f32 update of `params` parameters: 4
/// bytes each, patterned so decode copies real data.
fn report(params: usize) -> WireMessage {
    WireMessage::UpdateReport {
        device: DeviceId(7),
        round: RoundId(1),
        attempt: 1,
        update_bytes: (0..params * 4).map(|i| (i % 251) as u8).collect(),
        weight: 42,
        loss: 0.25,
        accuracy: 0.75,
        population: PopulationName::new("bench/pop"),
    }
}

fn bench_case(params: usize, iters: u32) -> Case {
    let msg = report(params);
    let frame = wire::encode(&msg).expect("bench frame encodes");
    let frame_bytes = frame.len();

    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..iters {
        sink = sink.wrapping_add(wire::encode(&msg).expect("bench frame encodes").len());
    }
    let encode_ns = start.elapsed().as_nanos() as f64 / f64::from(iters);

    let start = Instant::now();
    for _ in 0..iters {
        let decoded = wire::decode(&frame).expect("bench frame decodes");
        if let WireMessage::UpdateReport { update_bytes, .. } = decoded {
            sink = sink.wrapping_add(update_bytes.len());
        }
    }
    let decode_ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
    assert!(sink > 0, "keep the work observable");

    let mb_per_s = |ns: f64| frame_bytes as f64 / (ns / 1e9) / 1e6;
    Case {
        params,
        frame_bytes,
        iters,
        encode_ns_per_frame: encode_ns,
        encode_mb_per_s: mb_per_s(encode_ns),
        decode_ns_per_frame: decode_ns,
        decode_mb_per_s: mb_per_s(decode_ns),
    }
}

/// Measures what the [`FaultyTransport`] wrapper costs on the send
/// path when its script is clean (every frame delivered): the price a
/// chaos harness pays per frame just for the seeded fault bookkeeping.
/// Returns ns per send through the plain and the wrapped transport.
fn bench_faulty_overhead(params: usize, iters: u32) -> (f64, f64) {
    let msg = report(params);

    let bench_send = |t: &dyn Transport| {
        let start = Instant::now();
        let mut sink = 0usize;
        for _ in 0..iters {
            sink = sink.wrapping_add(t.send(&msg).expect("bench send"));
        }
        assert!(sink > 0, "keep the work observable");
        start.elapsed().as_nanos() as f64 / f64::from(iters)
    };

    let (plain, _drain_plain) = ChannelTransport::pair();
    let plain_ns = bench_send(&plain);
    let (inner, _drain_faulty) = ChannelTransport::pair();
    let faulty = FaultyTransport::new(inner, FaultScript::clean());
    (plain_ns, bench_send(&faulty))
}

/// Devices the `configuration_fanout` row sends one Configuration to.
const FANOUT_DEVICES: usize = 64;

/// One round's Configuration download as `round_secagg` frames it (a
/// 256 x 16 Logistic model, 4 112 params), sent through a sink of each
/// of [`FANOUT_DEVICES`] channel links and decoded on every device end,
/// `rounds` times a pass. Returns the frame's size and the best pass's
/// ns per device.
fn configuration_fanout(rounds: u32) -> (usize, f64) {
    let model = ModelSpec::Logistic {
        dim: 256,
        classes: 16,
        seed: 0,
    };
    let frame = Arc::new(
        wire::encode(&WireMessage::PlanAndCheckpoint {
            plan: Box::new(FlPlan::standard_training(
                model,
                1,
                16,
                0.1,
                CodecSpec::Identity,
            )),
            checkpoint: Box::new(FlCheckpoint::new(
                "train",
                RoundId(3),
                vec![0.25; model.num_params()],
            )),
            population: PopulationName::new("bench/p0"),
        })
        .expect("the Configuration encodes"),
    );
    let links: Vec<_> = (0..FANOUT_DEVICES)
        .map(|_| {
            let (device, server) = ChannelTransport::pair();
            (device, server.sink())
        })
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..rounds {
            for (_, sink) in &links {
                let full = || Ok(Arc::clone(&frame));
                let slim = || Ok(Arc::default());
                sink.send_configuration(0, slim, full)
                    .expect("the device end is open");
            }
            for (device, _) in &links {
                let decoded = device
                    .recv_timeout(Duration::ZERO)
                    .expect("the frame is queued");
                black_box(decoded);
            }
        }
        let per_device = (rounds as usize * FANOUT_DEVICES) as f64;
        best = best.min(start.elapsed().as_nanos() as f64 / per_device);
    }
    (frame.len(), best)
}

/// Configurations the `configuration_tcp` row sends down one connection.
const TCP_CONFIGURATIONS: u64 = 10;

/// [`TCP_CONFIGURATIONS`] Configurations of one `round_plain_tcp`-shaped
/// plan (a 4 096 x 64 Logistic model, 262 208 params; its graph payload
/// is as large as the model), each with its round's checkpoint, sent
/// through a sink of one loopback connection and decoded at the other
/// end, in seven passes of a fresh connection each. Returns the row: the
/// bytes of the first Configuration and of the last (the same in every
/// pass), and the best pass's ns per Configuration.
fn configuration_tcp() -> ConfigurationTcp {
    let model = ModelSpec::Logistic {
        dim: 4096,
        classes: 64,
        seed: 0,
    };
    let plan = FlPlan::standard_training(model, 1, 16, 0.1, CodecSpec::Identity);
    let population = PopulationName::new("bench/p0");
    let digest = wire::plan_digest(&plan);
    let checkpoints: Vec<FlCheckpoint> = (0..TCP_CONFIGURATIONS)
        .map(|round| FlCheckpoint::new("train", RoundId(round), vec![0.25; model.num_params()]))
        .collect();
    let mut sent = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let stream =
            std::net::TcpStream::connect(listener.local_addr().expect("address")).expect("connect");
        let device = TcpTransport::new(stream).expect("wrap the stream");
        let server = TcpTransport::new(listener.accept().expect("accept").0).expect("wrap");
        let start = Instant::now();
        sent = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                for _ in &checkpoints {
                    black_box(
                        device
                            .recv_timeout(Duration::from_secs(30))
                            .expect("a Configuration"),
                    );
                }
            });
            let sink = server.sink();
            let (mut slim, mut full) = (Arc::<Vec<u8>>::default(), Arc::<Vec<u8>>::default());
            let sent: Vec<usize> = checkpoints
                .iter()
                .map(|checkpoint| {
                    let slim = || {
                        let buf = Arc::make_mut(&mut slim);
                        wire::encode_plan_digest_and_checkpoint_into(
                            digest,
                            checkpoint,
                            &population,
                            buf,
                        )?;
                        Ok(Arc::clone(&slim))
                    };
                    let full = || {
                        let buf = Arc::make_mut(&mut full);
                        wire::encode_plan_and_checkpoint_into(&plan, checkpoint, &population, buf)?;
                        Ok(Arc::clone(&full))
                    };
                    sink.send_configuration(digest, slim, full)
                        .expect("the device end is open")
                })
                .collect();
            reader.join().expect("the reader");
            sent
        });
        best = best.min(start.elapsed().as_nanos() as f64 / TCP_CONFIGURATIONS as f64);
    }
    ConfigurationTcp {
        model_params: model.num_params(),
        full_bytes: sent[0],
        warm_bytes: sent[sent.len() - 1],
        checkpoint_bytes: checkpoints[0].encoded_size(),
        population_bytes: population.as_str().len(),
        ns_per_device: best,
    }
}

/// The digest row's buffer sizes, how many digests one timed pass takes
/// at each, and the reading's name: ns at 64 B and 1 KiB (the narrow
/// regime), GB/s at 33 KB and 1 MiB (the wide one).
const DIGEST_SIZES: [(usize, u32, &str); 4] = [
    (64, 100_000, "ns_64b"),
    (1024, 20_000, "ns_1kib"),
    (33_000, 2_000, "gb_per_s_33kb"),
    (1 << 20, 100, "gb_per_s_1mib"),
];

/// Best of seven at each of [`DIGEST_SIZES`], in its unit, for the
/// dispatched digest and the portable build (in that order), the two
/// taking turns so a slow spell of the host reaches both.
fn digest_row() -> [[f64; 4]; 2] {
    let bytes: Vec<u8> = (0..1usize << 20).map(|i| (i % 251) as u8).collect();
    let builds: [fn(&[u8]) -> u64; 2] = [fl_wire::checksum, fl_wire::checksum_portable];
    let mut best = [[f64::INFINITY; 4]; 2];
    for _ in 0..7 {
        for (build, best) in builds.iter().zip(&mut best) {
            for (&(len, reps, _), best) in DIGEST_SIZES.iter().zip(best) {
                let start = Instant::now();
                for _ in 0..reps {
                    black_box(build(black_box(&bytes[..len])));
                }
                *best = best.min(start.elapsed().as_secs_f64() * 1e9 / f64::from(reps));
            }
        }
    }
    for row in &mut best {
        for (&(len, _, _), ns) in DIGEST_SIZES.iter().zip(row).skip(2) {
            *ns = len as f64 / *ns;
        }
    }
    best
}

fn main() -> Result<(), String> {
    let cases: Vec<Case> = [(1_000usize, 4_000u32), (100_000, 400), (1_000_000, 40)]
        .iter()
        .map(|&(params, iters)| {
            // One warm-up pass per size, then the measured pass.
            let _ = bench_case(params, iters.min(8));
            let case = bench_case(params, iters);
            eprintln!(
                "UpdateReport {:>9} params ({:>9} B frame): encode {:>8.1} MB/s, decode {:>8.1} MB/s",
                case.params, case.frame_bytes, case.encode_mb_per_s, case.decode_mb_per_s
            );
            case
        })
        .collect();
    // One warm-up pass, then the measured pass — same discipline as the
    // codec cases above.
    let (params, iters) = (1_000, 4_000);
    let _ = bench_faulty_overhead(params, 8);
    let (plain_ns, faulty_ns) = bench_faulty_overhead(params, iters);
    eprintln!(
        "FaultyTransport (clean script) {params:>6} params: plain {plain_ns:>8.1} ns/send, faulty {faulty_ns:>8.1} ns/send ({:+.1} ns overhead)",
        faulty_ns - plain_ns
    );

    let (config_bytes, fanout_ns) = configuration_fanout(50);
    eprintln!(
        "Configuration fan-out ({config_bytes} B frame, {FANOUT_DEVICES} channel devices): \
         {fanout_ns:.0} ns per device"
    );

    let tcp = configuration_tcp();
    eprintln!(
        "Configuration over TCP ({} params, {TCP_CONFIGURATIONS} down one connection): first \
         {} B, warm {} B, {:.0} ns per device",
        tcp.model_params, tcp.full_bytes, tcp.warm_bytes, tcp.ns_per_device
    );

    let [dispatched, portable] = digest_row();
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512) = (false, false);
    let builds = [("dispatched", dispatched), ("portable", portable)];
    for (build, r) in builds {
        eprintln!(
            "digest {build} (avx2 {avx2}, avx512 {avx512}): {:.1} ns at 64 B, {:.1} ns at 1 KiB, \
             {:.1} GB/s at 33 KB, {:.1} GB/s at 1 MiB",
            r[0], r[1], r[2], r[3]
        );
    }
    let digest = DigestRow {
        avx2,
        dispatched_gb_per_s: dispatched[3],
        portable_gb_per_s: portable[3],
    };
    let digest_fields: Vec<String> = builds
        .iter()
        .flat_map(|(build, r)| {
            DIGEST_SIZES
                .iter()
                .zip(r)
                .map(move |((_, _, name), x)| format!("\"{build}_{name}\": {x:.2}"))
        })
        .collect();

    let rows: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"params\": {}, \"frame_bytes\": {}, \"iters\": {}, \
                 \"encode_ns_per_frame\": {:.0}, \"encode_mb_per_s\": {:.1}, \
                 \"decode_ns_per_frame\": {:.0}, \"decode_mb_per_s\": {:.1}}}",
                c.params,
                c.frame_bytes,
                c.iters,
                c.encode_ns_per_frame,
                c.encode_mb_per_s,
                c.decode_ns_per_frame,
                c.decode_mb_per_s,
            )
        })
        .collect();
    println!(
        "{{\n  \"bench\": \"wire_codec\",\n  \"protocol_version\": {},\n  \
         \"message\": \"UpdateReport\",\n  \"cases\": [\n{}\n  ],\n  \
         \"faulty_transport_overhead\": {{\"params\": {params}, \"iters\": {iters}, \
         \"plain_ns_per_send\": {plain_ns:.0}, \"faulty_ns_per_send\": {faulty_ns:.0}, \
         \"overhead_ns_per_send\": {:.0}}},\n  \"configuration_fanout\": {{\"devices\": \
         {FANOUT_DEVICES}, \"frame_bytes\": {config_bytes}, \"ns_per_device\": {fanout_ns:.0}}},\n  \
         \"configuration_tcp\":\n    {{\"model_params\": {}, \"configurations\": {TCP_CONFIGURATIONS}, \
         \"full_bytes\": {}, \"warm_bytes\": {}, \"checkpoint_bytes\": {}, \"population_bytes\": {}, \
         \"ns_per_device\": {:.0}}},\n  \"digest\":\n    {{\"avx2\": {avx2}, \
         \"avx512\": {avx512}, {}}}\n}}",
        wire::PROTOCOL_VERSION,
        rows.join(",\n"),
        faulty_ns - plain_ns,
        tcp.model_params,
        tcp.full_bytes,
        tcp.warm_bytes,
        tcp.checkpoint_bytes,
        tcp.population_bytes,
        tcp.ns_per_device,
        digest_fields.join(", "),
    );

    gate::wire(&cases)?;
    gate::digest(&digest)?;
    gate::configuration_tcp(&tcp)
}
