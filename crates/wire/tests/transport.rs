//! Transport behavior: the channel pair, the TCP link, sinks, and the
//! byte counters FIG9's measured bandwidth rests on.

use fl_core::{DeviceId, PopulationName, RoundId};
use fl_wire::{
    encode, encoded_len, ChannelTransport, FaultScript, FaultyTransport, FrameFault,
    TcpTransport, Transport, WireError, WireMessage,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
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
        client
            .recv_timeout(Duration::from_millis(50))
            .unwrap_err(),
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
    (TcpTransport::new(stream).unwrap(), listener.accept().unwrap().0)
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
        assert!(frame == encode(msg).unwrap(), "frame differs from what was sent");
    }
    for msg in &messages {
        assert!(server.recv_timeout(WAIT).unwrap() == *msg, "message differs");
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
        for (i, piece) in [&frame[..8], &frame[8..mid], &frame[mid..]].into_iter().enumerate() {
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
    assert!(client.recv_timeout(WAIT).unwrap() == msg, "resumed frame differs");
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

#[test]
fn sink_send_frame_puts_the_given_bytes_on_either_link() {
    // One encode, many peers: `send_frame` must deliver exactly the
    // bytes `send` would have, and count them the same.
    let msg = WireMessage::ComeBackLater {
        retry_at_ms: 9,
        population: pop(),
    };
    let frame = encode(&msg).unwrap();

    let (device, server) = ChannelTransport::pair();
    assert_eq!(server.sink().send_frame(&frame.clone().into()).unwrap(), frame.len());
    assert_eq!(device.recv_frame_timeout(WAIT).unwrap(), frame);
    assert_eq!(server.stats().bytes_sent, frame.len() as u64);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    let server = TcpTransport::new(stream).unwrap();
    let sink = server.sink();
    sink.send_frame(&frame.clone().into()).unwrap();
    sink.send(&msg).unwrap();
    assert_eq!(client.recv_frame_timeout(WAIT).unwrap(), frame);
    assert_eq!(client.recv_timeout(WAIT).unwrap(), msg);
    assert_eq!(server.stats().frames_sent, 2);
    assert_eq!(server.stats().bytes_sent, 2 * frame.len() as u64);
    assert_eq!(fl_wire::WireSink::null().send_frame(&frame.clone().into()).unwrap(), 0);
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
    assert_eq!(server.recv_timeout(WAIT).unwrap(), m(3), "reordered past m(4)");
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
            vec![FrameFault::Corrupt, FrameFault::Truncate, FrameFault::Deliver],
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
        let faulty = FaultyTransport::new(device, FaultScript::seeded(seed, 400));
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
    assert_ne!(run(1234).0, run(5678).0, "different seeds diverge");
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
