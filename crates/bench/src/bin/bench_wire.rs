//! Wire-codec throughput bench: `UpdateReport` encode/decode at 1k,
//! 100k, and 1M parameters, emitting `BENCH_wire.json` at the repo
//! root.
//!
//! ```text
//! cargo run --release -p fl-bench --bin bench_wire
//! ```
//!
//! The payload is the codec's real frame for an f32 update of the given
//! parameter count (4 B/param under `CodecSpec::Identity`, the
//! worst-case upload), so the numbers bound how much CPU a Selector
//! burns framing/deframing the FIG9 upload path.
//!
//! The run is also a gate: it exits non-zero when the 1M-parameter frame
//! encodes or decodes below [`FLOOR_MB_PER_S`], which a digest that walks
//! the frame a byte at a time cannot reach.

use fl_core::{DeviceId, PopulationName, RoundId};
use fl_server::wire::{self, WireMessage};
use fl_wire::{ChannelTransport, FaultScript, FaultyTransport, Transport};
use std::time::Instant;

/// Floor for the 1M-parameter encode and decode. The word-at-a-time v4
/// digest runs several times above it; the byte-serial v3 digest ran at
/// under half of it (the `before` rows).
const FLOOR_MB_PER_S: f64 = 1_500.0;

/// The rows this bench recorded at protocol v3 (FNV-1a trailer, body
/// encoded into its own vector and copied into the frame), kept in the
/// output as the `before` of the v4 rows.
const V3_ROWS: &str = r#"    {"params": 1000, "frame_bytes": 4075, "iters": 4000, "encode_ns_per_frame": 6061, "encode_mb_per_s": 672.3, "decode_ns_per_frame": 5149, "decode_mb_per_s": 791.4},
    {"params": 100000, "frame_bytes": 400075, "iters": 400, "encode_ns_per_frame": 534144, "encode_mb_per_s": 749.0, "decode_ns_per_frame": 508396, "decode_mb_per_s": 786.9},
    {"params": 1000000, "frame_bytes": 4000075, "iters": 40, "encode_ns_per_frame": 5830984, "encode_mb_per_s": 686.0, "decode_ns_per_frame": 5814357, "decode_mb_per_s": 688.0}
"#;

struct Case {
    params: usize,
    frame_bytes: usize,
    iters: u32,
    encode_ns_per_frame: f64,
    encode_mb_per_s: f64,
    decode_ns_per_frame: f64,
    decode_mb_per_s: f64,
}

fn bench_case(params: usize, iters: u32) -> Case {
    // 4 bytes per f32 parameter, patterned so decode copies real data.
    let update_bytes: Vec<u8> = (0..params * 4).map(|i| (i % 251) as u8).collect();
    let msg = WireMessage::UpdateReport {
        device: DeviceId(7),
        round: RoundId(1),
        attempt: 1,
        update_bytes,
        weight: 42,
        loss: 0.25,
        accuracy: 0.75,
        population: PopulationName::new("bench/pop"),
    };
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

struct FaultyOverhead {
    params: usize,
    iters: u32,
    plain_ns_per_send: f64,
    faulty_ns_per_send: f64,
    overhead_ns_per_send: f64,
}

/// Measures what the [`FaultyTransport`] wrapper costs on the send
/// path when its script is clean (every frame delivered): the price a
/// chaos harness pays per frame just for the seeded fault bookkeeping.
fn bench_faulty_overhead(params: usize, iters: u32) -> FaultyOverhead {
    let update_bytes: Vec<u8> = (0..params * 4).map(|i| (i % 251) as u8).collect();
    let msg = WireMessage::UpdateReport {
        device: DeviceId(7),
        round: RoundId(1),
        attempt: 1,
        update_bytes,
        weight: 42,
        loss: 0.25,
        accuracy: 0.75,
        population: PopulationName::new("bench/pop"),
    };

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
    let faulty_ns = bench_send(&faulty);

    FaultyOverhead {
        params,
        iters,
        plain_ns_per_send: plain_ns,
        faulty_ns_per_send: faulty_ns,
        overhead_ns_per_send: faulty_ns - plain_ns,
    }
}

fn main() {
    let cases: Vec<Case> = [(1_000usize, 4_000u32), (100_000, 400), (1_000_000, 40)]
        .iter()
        .map(|&(params, iters)| {
            // One warm-up pass per size, then the measured pass.
            let _ = bench_case(params, iters.min(8));
            let case = bench_case(params, iters);
            println!(
                "UpdateReport {:>9} params ({:>9} B frame): encode {:>8.1} MB/s, decode {:>8.1} MB/s",
                case.params, case.frame_bytes, case.encode_mb_per_s, case.decode_mb_per_s
            );
            case
        })
        .collect();

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"wire_codec\",\n");
    json.push_str(&format!(
        "  \"protocol_version\": {},\n",
        wire::PROTOCOL_VERSION
    ));
    json.push_str("  \"message\": \"UpdateReport\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"params\": {}, \"frame_bytes\": {}, \"iters\": {}, \
             \"encode_ns_per_frame\": {:.0}, \"encode_mb_per_s\": {:.1}, \
             \"decode_ns_per_frame\": {:.0}, \"decode_mb_per_s\": {:.1}}}{}\n",
            c.params,
            c.frame_bytes,
            c.iters,
            c.encode_ns_per_frame,
            c.encode_mb_per_s,
            c.decode_ns_per_frame,
            c.decode_mb_per_s,
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    // One warm-up pass, then the measured pass — same discipline as the
    // codec cases above.
    let _ = bench_faulty_overhead(1_000, 8);
    let faulty = bench_faulty_overhead(1_000, 4_000);
    println!(
        "FaultyTransport (clean script) {:>6} params: plain {:>8.1} ns/send, faulty {:>8.1} ns/send ({:+.1} ns overhead)",
        faulty.params, faulty.plain_ns_per_send, faulty.faulty_ns_per_send, faulty.overhead_ns_per_send
    );
    json.push_str("  ],\n");
    json.push_str("  \"before\": {\"protocol_version\": 3, \"cases\": [\n");
    json.push_str(V3_ROWS);
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"faulty_transport_overhead\": {{\"params\": {}, \"iters\": {}, \
         \"plain_ns_per_send\": {:.0}, \"faulty_ns_per_send\": {:.0}, \
         \"overhead_ns_per_send\": {:.0}}}\n",
        faulty.params,
        faulty.iters,
        faulty.plain_ns_per_send,
        faulty.faulty_ns_per_send,
        faulty.overhead_ns_per_send
    ));
    json.push_str("}\n");

    // Anchor at the workspace root regardless of the invocation cwd.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    std::fs::write(out, &json).expect("write BENCH_wire.json");
    println!("wrote {out}");

    let largest = cases.last().expect("three cases");
    let slowest = largest.encode_mb_per_s.min(largest.decode_mb_per_s);
    if slowest < FLOOR_MB_PER_S {
        eprintln!(
            "bench_wire: {} params moved at {slowest:.1} MB/s, under the {FLOOR_MB_PER_S} MB/s floor",
            largest.params
        );
        std::process::exit(1);
    }
}
