//! Transport behavior: the channel pair, the TCP link, sinks, and the
//! byte counters FIG9's measured bandwidth rests on.

use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::{DeviceId, FlCheckpoint, PopulationName, RoundId};
use fl_wire::{
    decode, encode, encode_plan_and_checkpoint_into, encode_plan_digest_and_checkpoint_into,
    encoded_len, plan_digest, ChannelTransport, FaultScript, FaultyTransport, FrameFault,
    TcpTransport, Transport, WireError, WireMessage, WireSink,
};
use std::cell::Cell;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

fn pop() -> PopulationName {
    PopulationName::new("transport/pop")
}

fn ack(accepted: bool) -> WireMessage {
    WireMessage::ReportAck {
        accepted,
        round: RoundId(1),
        attempt: 1,
        population: pop(),
    }
}

#[test]
fn channel_pair_duplex_roundtrip_with_stats() {
    let (device, server) = ChannelTransport::pair();
    let checkin = WireMessage::CheckinRequest {
        device: DeviceId(7),
        population: pop(),
    };
    let sent = device.send(&checkin).unwrap();
    assert_eq!(sent, encoded_len(&checkin));

    let got = server.recv_timeout(WAIT).unwrap();
    assert_eq!(got, checkin);

    let reply = WireMessage::ComeBackLater {
        retry_at_ms: 60_000,
        population: pop(),
    };
    server.send(&reply).unwrap();
    assert_eq!(device.recv_timeout(WAIT).unwrap(), reply);

    let d = device.stats();
    let s = server.stats();
    assert_eq!(d.frames_sent, 1);
    assert_eq!(d.bytes_sent, sent as u64);
    assert_eq!(s.frames_received, 1);
    assert_eq!(s.bytes_received, sent as u64);
    assert_eq!(s.frames_sent, 1);
    assert_eq!(d.frames_received, 1);
}

#[test]
fn sink_counts_against_its_endpoint_and_survives_clone() {
    let (device, server) = ChannelTransport::pair();
    let sink = server.sink();
    let sink2 = sink.clone();
    sink.send(&ack(true)).unwrap();
    sink2.send(&ack(false)).unwrap();
    assert_eq!(server.stats().frames_sent, 2);
    assert_eq!(device.recv_timeout(WAIT).unwrap(), ack(true));
    assert_eq!(device.recv_timeout(WAIT).unwrap(), ack(false));
}

#[test]
fn null_sink_discards() {
    let sink = fl_wire::WireSink::null();
    assert_eq!(sink.send(&ack(true)).unwrap(), 0);
}

#[test]
fn channel_close_and_timeout_are_typed() {
    let (device, server) = ChannelTransport::pair();
    assert_eq!(
        device.recv_timeout(Duration::from_millis(10)).unwrap_err(),
        WireError::Timeout
    );
    assert!(device.try_recv().unwrap().is_none());
    drop(server);
    assert_eq!(
        device
            .send(&WireMessage::CheckinRequest {
                device: DeviceId(1),
                population: pop(),
            })
            .unwrap_err(),
        WireError::Closed
    );
    assert_eq!(device.recv_timeout(WAIT).unwrap_err(), WireError::Closed);
}

#[test]
fn tcp_roundtrip_over_loopback() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let server_side = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let t = TcpTransport::new(stream).unwrap();
        let msg = t.recv_timeout(WAIT).unwrap();
        assert_eq!(
            msg,
            WireMessage::CheckinRequest {
                device: DeviceId(99),
                population: pop(),
            }
        );
        // Reply through a sink, as the actor-side server code does.
        t.sink()
            .send(&WireMessage::Shed {
                retry_at_ms: 500,
                population: pop(),
            })
            .unwrap();
        t.stats()
    });

    let client = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
    let sent = client
        .send(&WireMessage::CheckinRequest {
            device: DeviceId(99),
            population: pop(),
        })
        .unwrap();
    assert_eq!(
        client.recv_timeout(WAIT).unwrap(),
        WireMessage::Shed {
            retry_at_ms: 500,
            population: pop(),
        }
    );

    let server_stats = server_side.join().unwrap();
    assert_eq!(server_stats.frames_received, 1);
    assert_eq!(server_stats.bytes_received, sent as u64);
    assert_eq!(server_stats.frames_sent, 1);
    assert_eq!(client.stats().frames_received, 1);
}

#[test]
fn tcp_never_timeout_blocks_until_the_frame_arrives() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    let server = TcpTransport::new(stream).unwrap();
    // `Instant::now() + Duration::MAX` overflows: no deadline, not a panic.
    let waiter = std::thread::spawn(move || client.recv_timeout(Duration::MAX));
    server.send(&ack(true)).unwrap();
    assert_eq!(waiter.join().unwrap().unwrap(), ack(true));
}

#[test]
fn tcp_split_write_resumes_mid_frame() {
    // A frame that arrives in two TCP segments with a pause in between
    // must survive an intervening receive timeout: the partial bytes are
    // kept and the next call completes the same frame (no desync, no
    // loss).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
    let (mut raw, _) = listener.accept().unwrap();

    let msg = WireMessage::CheckinRequest {
        device: DeviceId(0xFEED),
        population: pop(),
    };
    let frame = encode(&msg).unwrap();
    let split = frame.len() / 2;
    raw.write_all(&frame[..split]).unwrap();
    raw.flush().unwrap();

    // Timeout lands mid-frame; the half-read bytes must not be thrown
    // away or misparsed as a fresh header on the next call.
    assert_eq!(
        client.recv_timeout(Duration::from_millis(50)).unwrap_err(),
        WireError::Timeout
    );

    raw.write_all(&frame[split..]).unwrap();
    raw.flush().unwrap();
    assert_eq!(client.recv_timeout(WAIT).unwrap(), msg);
    assert_eq!(client.stats().frames_received, 1);
    assert_eq!(client.stats().frames_corrupt, 0);
}

#[test]
fn tcp_kept_buffers_carry_nothing_from_one_frame_to_the_next() {
    // Both halves keep their buffer across messages. A long frame, a
    // short one and a long one again — decoded in place, taken whole for
    // a gateway, decoded in place — must each arrive as sent: no stale
    // tail of the long frame may leak into the short one's bytes.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    let server = TcpTransport::new(stream).unwrap();

    let long = |fill: u8| WireMessage::UpdateReport {
        device: DeviceId(1),
        round: RoundId(1),
        attempt: 1,
        update_bytes: vec![fill; 100_000],
        weight: 1,
        loss: 0.5,
        accuracy: 0.5,
        population: pop(),
    };
    let sender = std::thread::spawn(move || {
        for msg in [long(0xAA), ack(true), ack(false), long(0xBB)] {
            client.send(&msg).unwrap();
        }
        client
    });
    assert_eq!(server.recv_timeout(WAIT).unwrap(), long(0xAA));
    assert_eq!(
        server.recv_frame_timeout(WAIT).unwrap(),
        encode(&ack(true)).unwrap()
    );
    assert_eq!(server.recv_timeout(WAIT).unwrap(), ack(false));
    assert_eq!(server.recv_timeout(WAIT).unwrap(), long(0xBB));
    let client = sender.join().unwrap();
    assert_eq!(server.stats().frames_received, 4);
    assert_eq!(server.stats().bytes_received, client.stats().bytes_sent);
}

/// A connected TCP pair: a transport on each end.
fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let (client, raw) = tcp_raw_pair();
    (client, TcpTransport::new(raw).unwrap())
}

/// A transport on one end of a TCP pair and the raw stream on the other,
/// for tests that put bytes on the wire by hand.
fn tcp_raw_pair() -> (TcpTransport, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    (
        TcpTransport::new(stream).unwrap(),
        listener.accept().unwrap().0,
    )
}

/// An upload whose frame is `len` payload bytes of `fill` plus framing.
fn report_of(fill: u8, len: usize) -> WireMessage {
    WireMessage::UpdateReport {
        device: DeviceId(u64::from(fill)),
        round: RoundId(3),
        attempt: 1,
        update_bytes: vec![fill; len],
        weight: 1,
        loss: 0.5,
        accuracy: 0.5,
        population: pop(),
    }
}

#[test]
fn tcp_large_frames_of_mixed_sizes_arrive_byte_identical() {
    // Megabyte frames, a 300 KB one between them, twice over: taken whole
    // for a gateway, then decoded in place. Each must arrive exactly as
    // sent whichever buffer the receive put it in.
    let (client, server) = tcp_pair();
    let messages = [
        report_of(0x11, 1_000_000),
        report_of(0x22, 300_000),
        report_of(0x33, 1_000_000),
    ];
    let to_send = messages.clone();
    let sender = std::thread::spawn(move || {
        for msg in to_send.iter().chain(&to_send) {
            client.send(msg).unwrap();
        }
        client
    });
    for msg in &messages {
        let frame = server.recv_frame_timeout(WAIT).unwrap();
        assert_eq!(frame.len(), encoded_len(msg));
        assert!(
            frame == encode(msg).unwrap(),
            "frame differs from what was sent"
        );
    }
    for msg in &messages {
        assert!(
            server.recv_timeout(WAIT).unwrap() == *msg,
            "message differs"
        );
    }
    let client = sender.join().unwrap();
    assert_eq!(server.stats().frames_received, 6);
    assert_eq!(server.stats().bytes_received, client.stats().bytes_sent);
    assert_eq!(server.stats().frames_corrupt, 0);
}

#[test]
fn tcp_large_frame_in_three_pieces_resumes_across_timeouts() {
    // Header, half the body, the rest: a receive times out after the
    // header and again mid-body, and the third call completes the frame.
    let (client, mut raw) = tcp_raw_pair();
    let msg = report_of(0x44, 1_000_000);
    let frame = encode(&msg).unwrap();
    let (go, wait) = crossbeam::channel::unbounded::<()>();
    let writer = std::thread::spawn(move || {
        let mid = frame.len() / 2;
        for (i, piece) in [&frame[..8], &frame[8..mid], &frame[mid..]]
            .into_iter()
            .enumerate()
        {
            if i > 0 {
                wait.recv().unwrap();
            }
            raw.write_all(piece).unwrap();
            raw.flush().unwrap();
        }
        raw
    });
    for _ in 0..2 {
        assert_eq!(
            client.recv_timeout(Duration::from_millis(50)).unwrap_err(),
            WireError::Timeout
        );
        go.send(()).unwrap();
    }
    assert!(
        client.recv_timeout(WAIT).unwrap() == msg,
        "resumed frame differs"
    );
    let _raw = writer.join().unwrap();
    assert_eq!(client.stats().frames_received, 1);
    assert_eq!(client.stats().frames_corrupt, 0);
}

#[test]
fn tcp_garbage_header_after_a_large_frame_is_typed() {
    let (client, mut raw) = tcp_raw_pair();
    let msg = report_of(0x55, 1_000_000);
    let frame = encode(&msg).unwrap();
    let writer = std::thread::spawn(move || {
        raw.write_all(&frame).unwrap();
        raw.write_all(b"XXGARBAG").unwrap();
        raw.flush().unwrap();
        raw
    });
    assert!(client.recv_frame_timeout(WAIT).unwrap() == encode(&msg).unwrap());
    assert!(matches!(
        client.recv_timeout(WAIT).unwrap_err(),
        WireError::BadMagic { .. }
    ));
    let _raw = writer.join().unwrap();
    assert_eq!(client.stats().frames_received, 1);
    assert_eq!(client.stats().frames_corrupt, 1);
}

/// One round's Configuration of a plan (a graph payload of `graph`
/// bytes) and a checkpoint of round `round`, as a sender holds it: the
/// plan's digest, the slim frame, the full frame, and the message.
struct Round {
    digest: u64,
    slim: Arc<Vec<u8>>,
    full: Arc<Vec<u8>>,
    message: WireMessage,
}

fn configuration(graph: usize, round: u64) -> Round {
    let model = ModelSpec::Logistic {
        dim: 64,
        classes: 4,
        seed: 3,
    };
    let mut plan = FlPlan::standard_training(model, 1, 8, 0.1, CodecSpec::Identity);
    plan.device.graph_payload_bytes = graph;
    let checkpoint = FlCheckpoint::new("t", RoundId(round), vec![round as f32; model.num_params()]);
    let digest = plan_digest(&plan);
    let mut slim = Vec::new();
    encode_plan_digest_and_checkpoint_into(digest, &checkpoint, &pop(), &mut slim).unwrap();
    let mut full = Vec::new();
    encode_plan_and_checkpoint_into(&plan, &checkpoint, &pop(), &mut full).unwrap();
    Round {
        digest,
        slim: Arc::new(slim),
        full: Arc::new(full),
        message: WireMessage::PlanAndCheckpoint {
            plan: Box::new(plan),
            checkpoint: Box::new(checkpoint),
            population: pop(),
        },
    }
}

/// Sends `round` through `sink`; returns the bytes sent and whether the
/// sink asked for the full frame. A sink asks for exactly one frame, the
/// one it sends.
fn send(sink: &WireSink, round: &Round) -> (usize, bool) {
    let (slim_asked, full_asked) = (Cell::new(false), Cell::new(false));
    let slim = || {
        slim_asked.set(true);
        Ok(Arc::clone(&round.slim))
    };
    let full = || {
        full_asked.set(true);
        Ok(Arc::clone(&round.full))
    };
    let sent = sink.send_configuration(round.digest, slim, full).unwrap();
    if sent > 0 {
        assert_ne!(slim_asked.get(), full_asked.get());
    }
    (sent, full_asked.get())
}

#[test]
fn a_tcp_link_sends_a_plan_once_then_names_it_by_digest() {
    let (client, server) = tcp_pair();
    let sink = server.sink();
    let [a1, a2, a3] = [1, 2, 3].map(|round| configuration(50_000, round));
    let [b4, b5] = [4, 5].map(|round| configuration(60_000, round));
    assert_ne!(a1.digest, b4.digest);
    assert!(a1.slim.len() < a1.full.len() - 50_000);
    // A fresh connection is sent the plan; the next Configuration of the
    // same plan names it, and decodes as the full frame does per device.
    let mut expect = Vec::new();
    for (round, whole) in [(&a1, true), (&a2, false), (&a3, false)] {
        let len = if whole {
            round.full.len()
        } else {
            round.slim.len()
        };
        assert_eq!(
            send(&sink, round),
            (len, whole),
            "round {}",
            expect.len() + 1
        );
        expect.push(len);
        let got = client.recv_timeout(WAIT).unwrap();
        assert!(got == round.message && got == decode(&round.full).unwrap());
    }
    // A changed plan goes whole again, and so does each switch between two
    // plans; a repeat after a switch is slim.
    for (round, whole) in [
        (&b4, true),
        (&b5, false),
        (&a1, true),
        (&b4, true),
        (&b4, false),
    ] {
        let len = if whole {
            round.full.len()
        } else {
            round.slim.len()
        };
        assert_eq!(send(&sink, round), (len, whole));
        expect.push(len);
        assert!(client.recv_timeout(WAIT).unwrap() == round.message);
    }
    // The counters hold exactly the bytes written.
    let bytes: u64 = expect.iter().map(|&len| len as u64).sum();
    assert_eq!(server.stats().frames_sent, expect.len() as u64);
    assert_eq!(server.stats().bytes_sent, bytes);
    assert_eq!(client.stats().bytes_received, bytes);
    assert_eq!(client.stats().frames_corrupt, 0);
}

#[test]
fn a_full_configuration_sent_another_way_makes_the_link_send_the_plan_again() {
    let (client, server) = tcp_pair();
    let sink = server.sink();
    let (a1, b2, a3) = (
        configuration(5_000, 1),
        configuration(6_000, 2),
        configuration(5_000, 3),
    );
    assert_eq!(send(&sink, &a1), (a1.full.len(), true));
    // The peer now holds plan B, which the link did not record.
    sink.send(&b2.message).unwrap();
    assert_eq!(send(&sink, &a3), (a3.full.len(), true));
    server.send_frame_bytes(&b2.full).unwrap();
    assert_eq!(send(&sink, &b2), (b2.full.len(), true));
    for round in [&a1, &b2, &a3, &b2, &b2] {
        assert!(client.recv_timeout(WAIT).unwrap() == round.message);
    }
    assert_eq!(client.stats().frames_corrupt, 0);
}

#[test]
fn a_slim_configuration_without_its_plan_is_a_typed_error() {
    let (client, mut raw) = tcp_raw_pair();
    let (a1, b2, b3) = (
        configuration(5_000, 1),
        configuration(6_000, 2),
        configuration(6_000, 3),
    );
    let refused = Err(WireError::Malformed {
        what: "plan digest names no plan this connection carried",
    });
    // Outside a connection, and on a connection that holds no plan.
    assert_eq!(decode(&a1.slim), refused);
    raw.write_all(&a1.slim).unwrap();
    assert_eq!(client.recv_timeout(WAIT), refused);
    // On a connection that holds another plan.
    raw.write_all(&b2.full).unwrap();
    raw.write_all(&a1.slim).unwrap();
    raw.write_all(&b3.slim).unwrap();
    assert!(client.recv_timeout(WAIT).unwrap() == b2.message);
    assert_eq!(client.recv_timeout(WAIT), refused);
    assert!(client.recv_timeout(WAIT).unwrap() == b3.message);
    assert_eq!(client.stats().frames_corrupt, 2);
    assert_eq!(client.stats().frames_received, 4);
}

#[test]
fn a_channel_link_is_always_queued_the_full_frame() {
    let (device, server) = ChannelTransport::pair();
    let sink = server.sink();
    let (a1, a2) = (configuration(5_000, 1), configuration(5_000, 2));
    for round in [&a1, &a1, &a2] {
        assert_eq!(send(&sink, round), (round.full.len(), true));
        assert_eq!(device.recv_frame_timeout(WAIT).unwrap(), *round.full);
    }
    let bytes = 2 * a1.full.len() + a2.full.len();
    assert_eq!(server.stats().bytes_sent, bytes as u64);
    assert_eq!(
        send(&WireSink::null(), &a1),
        (0, false),
        "a null sink asks for no frame"
    );
}

#[test]
fn tcp_garbage_header_is_typed_and_counted() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
    let (mut raw, _) = listener.accept().unwrap();

    // Eight bytes that are not a frame header: the read must fail with
    // a typed error (the caller resets the connection), count one
    // corrupt frame, and not poison a later clean frame.
    raw.write_all(b"XXGARBAG").unwrap();
    raw.flush().unwrap();
    assert!(matches!(
        client.recv_timeout(WAIT).unwrap_err(),
        WireError::BadMagic { .. }
    ));
    assert_eq!(client.stats().frames_corrupt, 1);

    let msg = WireMessage::ComeBackLater {
        retry_at_ms: 7,
        population: pop(),
    };
    raw.write_all(&encode(&msg).unwrap()).unwrap();
    raw.flush().unwrap();
    assert_eq!(client.recv_timeout(WAIT).unwrap(), msg);
}

#[test]
fn faulty_transport_drop_dup_delay_disconnect_semantics() {
    let (device, server) = ChannelTransport::pair();
    let faulty = FaultyTransport::new(
        device,
        FaultScript::scripted(
            9,
            vec![
                FrameFault::Drop,
                FrameFault::Duplicate,
                FrameFault::Delay,
                FrameFault::Deliver,
                FrameFault::Disconnect,
            ],
        ),
    );
    let m = |id: u64| WireMessage::CheckinRequest {
        device: DeviceId(id),
        population: pop(),
    };

    // Drop: the sender sees success, the peer sees nothing.
    assert_eq!(faulty.send(&m(1)).unwrap(), encoded_len(&m(1)));
    // Duplicate: one send, two arrivals.
    faulty.send(&m(2)).unwrap();
    // Delay: held until the next send, which overtakes it.
    faulty.send(&m(3)).unwrap();
    faulty.send(&m(4)).unwrap();
    // Disconnect: this send and all later ones fail closed.
    assert_eq!(faulty.send(&m(5)).unwrap_err(), WireError::Closed);
    assert_eq!(faulty.send(&m(6)).unwrap_err(), WireError::Closed);

    assert_eq!(server.recv_timeout(WAIT).unwrap(), m(2));
    assert_eq!(server.recv_timeout(WAIT).unwrap(), m(2));
    assert_eq!(server.recv_timeout(WAIT).unwrap(), m(4));
    assert_eq!(
        server.recv_timeout(WAIT).unwrap(),
        m(3),
        "reordered past m(4)"
    );
    assert!(server.try_recv().unwrap().is_none());

    let stats = faulty.fault_stats();
    assert_eq!(stats.dropped, 1);
    assert_eq!(stats.duplicated, 1);
    assert_eq!(stats.delayed, 1);
    assert_eq!(stats.delivered, 1);
    assert_eq!(stats.disconnects, 2);
}

#[test]
fn faulty_transport_corruption_is_typed_and_counted_at_the_peer() {
    let (device, server) = ChannelTransport::pair();
    let faulty = FaultyTransport::new(
        device,
        FaultScript::scripted(
            77,
            vec![
                FrameFault::Corrupt,
                FrameFault::Truncate,
                FrameFault::Deliver,
            ],
        ),
    );
    for _ in 0..3 {
        faulty.send(&ack(true)).unwrap();
    }
    // The mangled frames surface as typed errors or decode to some
    // *other* valid message (a flipped byte can land on a don't-care
    // bit) — never a panic — and the clean frame after them still
    // arrives intact. The truncated frame in particular can never
    // decode.
    let mut typed_errors = 0;
    let mut intact = 0;
    let mut mutated = 0;
    loop {
        match server.try_recv() {
            Ok(None) => break,
            Ok(Some(msg)) if msg == ack(true) => intact += 1,
            Ok(Some(_)) => mutated += 1,
            Err(_) => typed_errors += 1,
        }
    }
    assert_eq!(intact, 1, "the clean frame survives its mangled neighbors");
    assert_eq!(typed_errors + mutated, 2);
    assert!(typed_errors >= 1, "the truncated frame cannot decode");
    assert_eq!(server.stats().frames_corrupt, typed_errors);
}

#[test]
fn fault_scripts_replay_identically_per_seed() {
    let run = |seed: u64| {
        let (device, server) = ChannelTransport::pair();
        let script = [
            FrameFault::Corrupt,
            FrameFault::Drop,
            FrameFault::Truncate,
            FrameFault::Duplicate,
            FrameFault::Delay,
            FrameFault::Deliver,
        ]
        .repeat(10);
        let faulty = FaultyTransport::new(device, FaultScript::scripted(seed, script));
        for i in 0..64u64 {
            let _ = faulty.send(&WireMessage::CheckinRequest {
                device: DeviceId(i),
                population: pop(),
            });
        }
        faulty.flush_delayed().unwrap();
        let mut trace = Vec::new();
        loop {
            match server.try_recv() {
                Ok(None) => break,
                outcome => trace.push(format!("{outcome:?}")),
            }
        }
        (faulty.fault_stats(), trace)
    };
    assert_eq!(run(1234), run(1234), "same seed, same mangling");
    assert_ne!(
        run(1234).1,
        run(5678).1,
        "different seeds mangle differently"
    );
}

#[test]
fn tcp_peer_close_is_typed() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    drop(stream);
    drop(listener);
    assert_eq!(client.recv_timeout(WAIT).unwrap_err(), WireError::Closed);
}
