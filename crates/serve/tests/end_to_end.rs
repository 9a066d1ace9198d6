//! End-to-end serve tests: the resident state repairs correctly, and
//! the framed request plane carries mutations and queries faithfully
//! across a real Unix socket.

use cmg_check::oracles::{half_approx_certificate, proper_coloring, valid_matching};
use cmg_coloring::Coloring;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{generators, CsrGraph, MutationBatch};
use cmg_matching::Matching;
use cmg_net::frame::encode_frame;
use cmg_net::{Ctrl, Frame, NetError};
use cmg_serve::{
    RepairAck, RepairMode, ServeClient, ServeConfig, ServeState, Server, ServerConfig,
};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

fn weighted_grid() -> CsrGraph {
    assign_weights(
        &generators::grid2d(16, 16),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        42,
    )
}

fn check_served(g: &CsrGraph, mate: &[u32], colors: &[u32]) {
    let m = Matching::from_mates(mate.to_vec());
    valid_matching(g, &m).expect("served matching valid");
    half_approx_certificate(g, &m).expect("served matching locally dominant");
    proper_coloring(g, &Coloring::from_colors(colors.to_vec())).expect("served coloring proper");
}

#[test]
fn warm_repairs_track_a_cold_recompute() {
    let g0 = weighted_grid();
    let mut state = ServeState::new(&g0, ServeConfig::default()).expect("initial load");

    // A few small batches: deletes break matched edges, inserts create
    // newly dominant ones, reweights shuffle local dominance.
    let streams = [
        MutationBatch::new().delete(0, 1).insert(0, 17, 2.5).clone(),
        MutationBatch::new()
            .reweight(17, 18, 3.0)
            .insert(100, 118, 1.9)
            .clone(),
        MutationBatch::new()
            .delete(100, 101)
            .delete(118, 119)
            .clone(),
    ];
    for batch in &streams {
        let report = state.apply(batch).expect("batch accepted");
        assert_eq!(report.mode, RepairMode::Repair, "small batch repairs warm");
        let (mate, colors) = (state.matching(), state.coloring());
        check_served(&state.graph(), mate.mates(), colors.colors());
    }

    // Distinct weights: the warm-repaired matching must equal the
    // unique greedy matching a from-scratch run computes.
    let final_g = state.graph();
    let cold = ServeState::new(&final_g, ServeConfig::default()).expect("cold run");
    assert_eq!(
        state.matching().mates(),
        cold.matching().mates(),
        "warm repair must equal the from-scratch matching"
    );
}

#[test]
fn oversized_batches_fall_through_to_recompute() {
    let g0 = weighted_grid();
    let cfg = ServeConfig {
        recompute_threshold: 0.01,
        ..Default::default()
    };
    let mut state = ServeState::new(&g0, cfg).expect("initial load");
    // Reweight a whole row of the grid: far more than 1% dirty.
    let mut batch = MutationBatch::new();
    for c in 0..15u32 {
        batch.reweight(c, c + 1, 10.0 + c as f64);
    }
    let report = state.apply(&batch).expect("batch accepted");
    assert_eq!(report.mode, RepairMode::Recompute);
    assert_eq!(state.recomputes, 1);
    let (mate, colors) = (state.matching(), state.coloring());
    check_served(&state.graph(), mate.mates(), colors.colors());
}

#[test]
fn rejected_batches_leave_the_graph_and_results_untouched() {
    let g0 = weighted_grid();
    let mut state = ServeState::new(&g0, ServeConfig::default()).expect("initial load");
    let before_mate = state.matching().mates().to_vec();
    let before_edges = state.num_edges();
    // A self-loop is invalid; the whole batch must be rejected even
    // though the first op alone would be fine.
    let mut batch = MutationBatch::new();
    batch.insert(0, 17, 1.0).insert(5, 5, 1.0);
    assert!(state.apply(&batch).is_err());
    assert_eq!(state.num_edges(), before_edges);
    assert_eq!(state.matching().mates(), &before_mate[..]);
    assert_eq!(state.batches, 0, "rejected batches are not counted");
}

#[test]
fn request_plane_round_trips_mutations_and_queries() {
    let g0 = weighted_grid();
    let socket = std::env::temp_dir().join(format!("cmg-serve-e2e-{}.sock", std::process::id()));
    let server = Server::bind(
        &g0,
        ServerConfig {
            socket: socket.clone(),
            serve: ServeConfig::default(),
        },
    )
    .expect("server binds");
    let handle = std::thread::spawn(move || server.run());

    let mut client =
        ServeClient::connect(&socket, Duration::from_secs(5)).expect("client connects");

    // Mutate, then read back the repaired state through the wire.
    let mut batch = MutationBatch::new();
    batch.delete(0, 1).insert(0, 17, 2.5);
    let ack = client.mutate(&batch).expect("mutate round-trips");
    let RepairAck::Done { mode, .. } = ack else {
        panic!("valid batch must be absorbed, got {ack:?}");
    };
    assert_eq!(mode, 0, "small batch absorbs as a warm repair");

    let mate = client.matching().expect("matching query");
    let colors = client.coloring().expect("coloring query");

    // The served result must be consistent on the mutated graph.
    let mut final_g = cmg_graph::MutableGraph::from_csr(&g0);
    final_g.apply(&batch).expect("same batch applies locally");
    let final_g = final_g.rebuild();
    check_served(&final_g, &mate, &colors);

    // Point lookups agree with the full vectors.
    assert_eq!(
        client.mate_of(0).expect("mate_of"),
        (mate[0] != cmg_graph::NO_VERTEX).then_some(mate[0])
    );
    assert_eq!(client.color_of(0).expect("color_of"), colors[0]);

    // Deleting a matched edge really unmatched-or-rematched vertex 0.
    assert_ne!(mate[0], 1, "deleted edge cannot stay matched");

    let summary = client.summary().expect("summary query");
    assert_eq!(summary.n, final_g.num_vertices() as u64);
    assert_eq!(summary.m, final_g.num_edges() as u64);
    assert_eq!(summary.batches, 1);
    assert_eq!(summary.repairs, 1);

    // An undecodable-as-a-batch mutation is rejected whole over the
    // wire without killing the session.
    let mut bad = MutationBatch::new();
    bad.insert(3, 3, 1.0);
    assert!(matches!(
        client
            .mutate(&bad)
            .expect("rejection is an ack, not an error"),
        RepairAck::Rejected { code: 1 }
    ));

    client.shutdown_server().expect("shutdown");
    let summary = handle
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
    assert_eq!(summary.sessions, 1);
    assert_eq!(summary.batches, 1, "rejected batch not counted");
    assert!(summary.mutate_micros.count() == 2, "both mutates timed");
    assert!(summary.render().contains("p99"));
}

#[test]
fn sessions_are_serial_and_state_survives_between_them() {
    let g0 = weighted_grid();
    let socket =
        std::env::temp_dir().join(format!("cmg-serve-sessions-{}.sock", std::process::id()));
    let server = Server::bind(
        &g0,
        ServerConfig {
            socket: socket.clone(),
            serve: ServeConfig::default(),
        },
    )
    .expect("server binds");
    let handle = std::thread::spawn(move || server.run());

    // Session 1 mutates and leaves.
    let mut c1 = ServeClient::connect(&socket, Duration::from_secs(5)).expect("c1");
    let mut batch = MutationBatch::new();
    batch.insert(0, 17, 9.0);
    c1.mutate(&batch).expect("mutate");
    c1.end_session().expect("end");

    // Session 2 observes session 1's writes.
    let mut c2 = ServeClient::connect(&socket, Duration::from_secs(5)).expect("c2");
    let summary = c2.summary().expect("summary");
    assert_eq!(summary.batches, 1, "state persists across sessions");
    assert_eq!(
        c2.mate_of(0).expect("mate_of"),
        Some(17),
        "weight-9 edge dominates everything around vertex 0"
    );
    c2.shutdown_server().expect("shutdown");

    let summary = handle.join().expect("thread").expect("clean exit");
    assert_eq!(summary.sessions, 2);
}

#[test]
fn a_failed_session_ends_that_session_not_the_server() {
    let g0 = assign_weights(
        &generators::grid2d(8, 8),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        42,
    );
    let reference = ServeState::new(&g0, ServeConfig::default())
        .expect("reference load")
        .matching();
    let socket = std::env::temp_dir().join(format!("cmg-serve-failed-{}.sock", std::process::id()));
    let server = Server::bind(
        &g0,
        ServerConfig {
            socket: socket.clone(),
            serve: ServeConfig::default(),
        },
    )
    .expect("server binds");
    let handle = std::thread::spawn(move || server.run());
    let next_client_is_served = || {
        let mut c = ServeClient::connect(&socket, Duration::from_secs(5)).expect("next client");
        assert_eq!(c.summary().expect("summary").n, 64);
        assert_eq!(c.matching().expect("matching"), reference.mates());
        c.end_session().expect("end");
    };
    // The server hangs up on a failed session: the client reads EOF.
    let hung_up = |mut raw: UnixStream| {
        assert!(matches!(raw.read(&mut [0u8; 1]), Ok(0) | Err(_)));
    };

    // A point query for a vertex outside the graph.
    let mut c = ServeClient::connect(&socket, Duration::from_secs(5)).expect("client");
    assert!(matches!(c.mate_of(64), Err(NetError::Protocol { .. })));
    drop(c);
    next_client_is_served();

    // A garbage frame: a length prefix past the 64 MiB cap.
    let mut raw = UnixStream::connect(&socket).expect("raw client");
    raw.write_all(&[0xff; 16]).expect("garbage");
    hung_up(raw);
    next_client_is_served();

    // A query frame whose payload is no query.
    let mut raw = UnixStream::connect(&socket).expect("raw client");
    let frame = Frame::with_payload(Ctrl::Query { query_id: 0 }, vec![99u8].into());
    raw.write_all(&encode_frame(0, &frame)).expect("bad query");
    hung_up(raw);
    next_client_is_served();

    // A client gone mid-frame.
    let mut raw = UnixStream::connect(&socket).expect("raw client");
    let frame = Frame::with_payload(Ctrl::MutateBatch { batch_id: 0 }, vec![0u8; 90].into());
    let wire = encode_frame(0, &frame);
    raw.write_all(&wire[..wire.len() / 2])
        .expect("half a frame");
    drop(raw);
    next_client_is_served();

    assert!(socket.exists(), "the socket file stays while serving");
    ServeClient::connect(&socket, Duration::from_secs(5))
        .expect("last client")
        .shutdown_server()
        .expect("shutdown");
    let summary = handle
        .join()
        .expect("server thread")
        .expect("failed sessions do not fail the server");
    assert_eq!((summary.sessions, summary.failed_sessions), (9, 4));
    assert_eq!(summary.batches, 0);
    assert!(summary.render().contains("9 sessions (4 failed)"));
    // The summary keeps the last failure's reason: the client that left
    // half a frame behind.
    let why = summary.last_failure.clone().expect("a reason is kept");
    assert!(why.contains("stream closed mid-frame"), "{why}");
    assert!(summary
        .render()
        .contains(&format!("last failed session: {why}")));
    assert_eq!(
        summary
            .to_json()
            .get("last_failure")
            .and_then(|j| j.as_str()),
        Some(why.as_str())
    );
    assert!(!socket.exists(), "the socket file goes with the server");
}

#[test]
fn a_graph_without_vertices_is_not_served() {
    let empty = cmg_graph::GraphBuilder::with_capacity(0, 0).build();
    assert!(matches!(
        ServeState::new(&empty, ServeConfig::default()),
        Err(NetError::Protocol { .. })
    ));
}
