//! Tier-1 lock audit: run representative workloads from every crate
//! that holds locks — the live actor tree, the registry,
//! schedule-explored rounds, a framed TCP upload — inside one process,
//! then assert the global fl-race [`LockGraph`] stayed acyclic and
//! rank-clean.
//! Unlike a deadlocking run, a *potential* deadlock (both orders of a
//! lock pair, each observed on some thread, even if never
//! concurrently) is visible here as a graph cycle.
//!
//! The inverted-order fixture builds the bug the gate exists to catch
//! on a *private* graph (`Mutex::new_in`), so the deliberate cycle
//! never pollutes the global gate the first tests assert over.

use fl_race::{LockGraph, Mutex, Site};

/// Exercise the real stack: two explored live rounds (different
/// delivery schedules) plus a framed TCP upload, all feeding the
/// global lock graph, which must stay acyclic with zero rank violations.
#[test]
fn workspace_lock_graph_is_acyclic() {
    // Live topology under two delivery schedules: Selector actor,
    // Coordinator actor, Master Aggregator subtree, shared checkpoint
    // store, locking-service registry, global admission budget, and
    // overload telemetry all take their locks here.
    for seed in [0u64, 42] {
        let report = fl_sim::live::run(None, seed, false);
        assert!(
            report.is_clean(),
            "seed {seed} violations: {:?}",
            report.violations
        );
    }
    // Framed TCP: a megabyte upload is read into a spare frame buffer
    // under the read half's lock, and its last owner gives it back.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let stream = std::net::TcpStream::connect(listener.local_addr().expect("address"));
    let client = fl_wire::TcpTransport::new(stream.expect("connect")).expect("client");
    let server = fl_wire::TcpTransport::new(listener.accept().expect("accept").0).expect("server");
    let upload = fl_wire::WireMessage::UpdateReport {
        device: fl_core::DeviceId(1),
        round: fl_core::RoundId(1),
        attempt: 1,
        update_bytes: vec![7; 1 << 20],
        weight: 1,
        loss: 0.5,
        accuracy: 0.5,
        population: fl_core::PopulationName::new("audit/tcp"),
    };
    let sender = std::thread::spawn(move || fl_wire::Transport::send(&client, &upload));
    let frame = server.recv_frame_timeout(std::time::Duration::from_secs(5));
    fl_wire::recycle(frame.expect("the upload arrives"));
    sender
        .join()
        .expect("sender thread")
        .expect("the upload is sent");

    let graph = LockGraph::global();
    assert!(
        graph.site_count() >= 6,
        "expected the workloads to register most rank-table sites, saw {}:\n{}",
        graph.site_count(),
        graph.render()
    );
    // The one intentional nesting in the workspace (obituary publish /
    // replay) must be present — proof the audit watched real traffic.
    assert!(
        graph.has_edge("actors/system.obituary_log", "actors/system.subscribers"),
        "expected the obituary-log -> subscribers edge:\n{}",
        graph.render()
    );
    assert!(
        graph.has_edge("wire/transport.tcp_read", "wire/transport.spares"),
        "expected the TCP read -> spare buffers edge:\n{}",
        graph.render()
    );
    let violations = graph.rank_violations();
    assert!(
        violations.is_empty(),
        "rank violations:\n{violations:#?}\n{}",
        graph.render()
    );
    assert!(
        graph.is_acyclic(),
        "potential deadlock cycles:\n{}",
        graph.render()
    );
}

/// The gate must *detect* the bug class it guards against: a lock pair
/// taken in both orders — on one thread, never deadlocking — shows up
/// as a cycle and two rank violations on its (private) graph.
#[test]
fn inverted_lock_order_fixture_is_flagged() {
    const LEFT: Site = Site::new("fixture/inverted.left", 100);
    const RIGHT: Site = Site::new("fixture/inverted.right", 101);
    let graph = LockGraph::new();
    let left = Mutex::new_in(LEFT, &graph, 0u64);
    let right = Mutex::new_in(RIGHT, &graph, 0u64);

    // Order 1 (rank-correct): left (100) then right (101).
    {
        let a = left.lock();
        let b = right.lock();
        drop(b);
        drop(a);
    }
    // Order 2 (inverted): right then left — the classic AB/BA hazard.
    // No deadlock happens (same thread, sequential), but the graph now
    // holds both edges.
    {
        let b = right.lock();
        let a = left.lock();
        drop(a);
        drop(b);
    }

    assert!(!graph.is_acyclic(), "AB/BA pair must form a cycle");
    let cycles = graph.cycles();
    assert_eq!(cycles.len(), 1, "{cycles:#?}");
    assert_eq!(
        cycles[0].sites,
        vec!["fixture/inverted.left", "fixture/inverted.right"]
    );
    // The inverted acquisition also breaks the static rank order.
    let violations = graph.rank_violations();
    assert_eq!(violations.len(), 1, "{violations:#?}");
    assert_eq!(violations[0].held, "fixture/inverted.right");
    assert_eq!(violations[0].acquired, "fixture/inverted.left");
    // The report names the hazard even though nothing ever deadlocked.
    let rendered = graph.render();
    assert!(rendered.contains("potential deadlock"), "{rendered}");
    assert!(rendered.contains("fixture/inverted.left"), "{rendered}");
}

/// Identical lock histories must render byte-identically — a failing
/// audit is a reproducible artifact, not a flaky snapshot.
#[test]
fn identical_histories_render_byte_identically() {
    const A: Site = Site::new("fixture/render.a", 110);
    const B: Site = Site::new("fixture/render.b", 111);
    let build = || {
        let graph = LockGraph::new();
        let a = Mutex::new_in(A, &graph, ());
        let b = Mutex::new_in(B, &graph, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
        graph.render()
    };
    assert_eq!(build(), build());
}
