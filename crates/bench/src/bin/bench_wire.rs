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
//! The run exits non-zero when the 1M-parameter frame encodes or decodes
//! below [`gate::WIRE_FLOOR_MB_PER_S`], which a digest that walks the
//! frame a byte at a time cannot reach.

use fl_bench::gate::{self, WireCase as Case};
use fl_core::{DeviceId, PopulationName, RoundId};
use fl_server::wire::{self, WireMessage};
use fl_wire::{ChannelTransport, FaultScript, FaultyTransport, Transport};
use std::time::Instant;

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
         \"overhead_ns_per_send\": {:.0}}}\n}}",
        wire::PROTOCOL_VERSION,
        rows.join(",\n"),
        faulty_ns - plain_ns
    );

    gate::wire(&cases)
}
