//! Tier-1 lock audit: run representative workloads from every crate
//! that holds locks — the live actor tree, the registry,
//! schedule-explored rounds, a SecAgg round, a round over a wire-fault
//! script, a framed TCP upload, a large frame through a faulty in-memory
//! link — inside one process, then assert the global fl-race
//! [`LockGraph`] is exactly the expected one: every product lock [`Site`]
//! reached, and no nesting but the three the workspace means. Any new nesting fails here, rank-correct or not
//! and through any call chain; so would an inverted pair, as a graph
//! cycle (both orders of a lock pair, each observed on some thread, even
//! if never concurrently) and a rank violation.
//!
//! The fixtures build what the gate exists to catch on *private* graphs
//! (`Mutex::new_in`), so their deliberate nestings never pollute the
//! global graph the first test asserts over.

use fl_race::{LockGraph, Mutex, Site};

/// Every product lock site with its rank (DESIGN.md Sec. 7's table).
const SITES: [(&str, u16); 14] = [
    ("actors/system.actor", 5),
    ("actors/system.obituary_log", 10),
    ("actors/system.subscribers", 12),
    ("actors/system.workers", 20),
    ("actors/system.timers", 21),
    ("actors/system.injector", 22),
    ("actors/registry.locking_service", 30),
    ("server/storage.checkpoint_store", 50),
    ("server/live.overload_metrics", 60),
    ("server/shedding.global_budget", 62),
    ("wire/fault.script", 68),
    ("wire/transport.tcp_read", 70),
    ("wire/transport.tcp_write", 72),
    ("wire/transport.spares", 74),
];

/// Every nesting in the workspace, `(held, acquired)`: the obituary
/// publish / replay (`actors/src/system.rs`), a TCP read into a spare
/// frame buffer, and a faulty transport's in-memory send of a frame of
/// 16 KiB or more, copied into a spare under the fault script's lock
/// (`wire/src/fault.rs`; the audit's large frame through a faulty channel
/// link takes it).
const EDGES: [(&str, &str); 3] = [
    ("actors/system.obituary_log", "actors/system.subscribers"),
    ("wire/transport.tcp_read", "wire/transport.spares"),
    ("wire/fault.script", "wire/transport.spares"),
];

/// How `graph` differs from [`SITES`] and [`EDGES`], one line each;
/// empty when it is exactly them.
fn differences(graph: &LockGraph) -> Vec<String> {
    let rendered = graph.render();
    let mut out = Vec::new();
    for (name, rank) in SITES {
        let line = format!("site {name} rank={rank}");
        if !rendered.lines().any(|l| l == line) {
            out.push(format!("{name} (rank {rank}) not observed"));
        }
    }
    let sites = graph.site_count();
    if sites != SITES.len() {
        out.push(format!("{sites} sites, want {}", SITES.len()));
    }
    for (from, to) in EDGES {
        if !graph.has_edge(from, to) {
            out.push(format!("edge {from} -> {to} not observed"));
        }
    }
    let edges = graph.edge_count();
    if edges != EDGES.len() {
        out.push(format!("{edges} edges, want {}", EDGES.len()));
    }
    out
}

/// Exercise the real stack: two explored live rounds (different
/// delivery schedules), a SecAgg round, a round over a wire-fault
/// script, a framed TCP upload and a large frame through a faulty
/// in-memory link, all feeding the global lock graph, which must be
/// exactly [`SITES`] and [`EDGES`], acyclic, with zero rank violations.
#[test]
fn workspace_lock_graph_is_acyclic() {
    // Live topology under two delivery schedules: Selector actor,
    // Coordinator actor, Master Aggregator subtree, shared checkpoint
    // store, locking-service registry, global admission budget, and
    // overload telemetry all take their locks here. Then the same tree
    // closing SecAgg groups, and one whose device links run a seeded
    // fault script (each device's `FaultyTransport` takes its script's
    // lock per send).
    for (wire_seed, schedule_seed, secagg) in [
        (None, 0u64, false),
        (None, 42, false),
        (None, 0, true),
        (Some(3), 0, false),
    ] {
        let report = fl_sim::live::run(wire_seed, schedule_seed, secagg);
        assert!(
            report.is_clean(),
            "wire {wire_seed:?}, schedule {schedule_seed}, secagg {secagg} violations: {:?}",
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
    // A faulty in-memory link: a delivered frame of 16 KiB or more is
    // copied into a spare frame buffer under the fault script's lock.
    let (device, server) = fl_wire::ChannelTransport::pair();
    let faulty = fl_wire::FaultyTransport::new(device, fl_wire::FaultScript::clean());
    let frame = vec![7; 1 << 14];
    fl_wire::Transport::send_frame_bytes(&faulty, &frame).expect("the frame is sent");
    let frame = server.recv_frame_timeout(std::time::Duration::from_secs(5));
    fl_wire::recycle(frame.expect("the frame arrives"));

    let graph = LockGraph::global();
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
    let differences = differences(graph);
    assert!(
        differences.is_empty(),
        "the lock graph is not the expected one: {differences:#?}\n{}",
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

/// A nesting that breaks no rank and closes no cycle still fails the
/// gate when it is not one of [`EDGES`]: here the checkpoint store (50)
/// held while the overload metrics (60) are taken.
#[test]
fn unlisted_rank_correct_nesting_is_flagged() {
    let graph = LockGraph::new();
    let locks: Vec<Mutex<()>> = SITES
        .iter()
        .map(|&(name, rank)| Mutex::new_in(Site::new(name, rank), &graph, ()))
        .collect();
    let lock = |name: &str| {
        let at = SITES.iter().position(|&(site, _)| site == name);
        &locks[at.expect("a listed site")]
    };
    for l in &locks {
        drop(l.lock());
    }
    for (from, to) in EDGES {
        let held = lock(from).lock();
        drop(lock(to).lock());
        drop(held);
    }
    assert_eq!(differences(&graph), Vec::<String>::new());

    let held = lock("server/storage.checkpoint_store").lock();
    drop(lock("server/live.overload_metrics").lock());
    drop(held);
    assert!(graph.is_acyclic(), "{}", graph.render());
    assert!(graph.rank_violations().is_empty(), "{}", graph.render());
    assert_eq!(differences(&graph), ["4 edges, want 3"]);
    assert!(graph.has_edge(
        "server/storage.checkpoint_store",
        "server/live.overload_metrics"
    ));
}
