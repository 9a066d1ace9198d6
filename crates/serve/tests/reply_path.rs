//! The full-vector reply path: what the server encodes, the client
//! decodes back to the served vector, byte for byte the frame the
//! record-at-a-time encoder wrote, into one exact-size allocation, and
//! a reply that is not one record per vertex in vertex order is a typed
//! error.

use cmg_graph::util::vertex_priority;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{generators, CsrGraph, NO_VERTEX};
use cmg_net::frame::{encode_frame, read_frame};
use cmg_net::{Ctrl, Frame, NetError};
use cmg_runtime::WireMessage;
use cmg_serve::{
    FullVector, ServeClient, ServeConfig, ServeQuery, ServeReply, ServeState, Server, ServerConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Counts the bytes and calls each thread requests, so that tests
/// running on other threads of this binary do not disturb a measurement.
struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = REQUESTED.try_with(|r| r.set((r.get().0 + bytes, r.get().1 + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three arguments are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes and calls requested from the allocator by this thread while
/// `f` ran.
fn requested<R>(f: impl FnOnce() -> R) -> ((usize, usize), R) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    let after = REQUESTED.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// The reply as the record-at-a-time encoder wrote it: one
/// `ServeReply` per vertex.
fn records(kind: FullVector, values: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    for (v, &x) in (0u32..).zip(values) {
        match kind {
            FullVector::Matching => ServeReply::Mate { v, mate: x },
            FullVector::Coloring => ServeReply::Color { v, color: x },
        }
        .encode(&mut out);
    }
    out
}

fn encoded(kind: FullVector, values: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    kind.encode(values, &mut out);
    out
}

fn socket(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cmg-reply-{name}-{}.sock", std::process::id()))
}

fn grid(side: usize) -> CsrGraph {
    assign_weights(
        &generators::grid2d(side, side),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        11,
    )
}

#[test]
fn random_vectors_round_trip_through_encode_and_decode() {
    for n in [1usize, 2, 7, 1000, 4096] {
        let draw = |v: usize, seed: u64| vertex_priority(v as u64, seed ^ n as u64);
        // A quarter unmatched, the rest anywhere in the graph.
        let mates: Vec<u32> = (0..n)
            .map(|v| match draw(v, 1) % 4 {
                0 => NO_VERTEX,
                _ => (draw(v, 2) % n as u64) as u32,
            })
            .collect();
        let colors: Vec<u32> = (0..n).map(|v| draw(v, 3) as u32).collect();
        for (kind, values) in [
            (FullVector::Matching, &mates),
            (FullVector::Coloring, &colors),
        ] {
            let bytes = encoded(kind, values);
            assert_eq!(bytes, records(kind, values), "{kind:?} n={n}: wire bytes");
            assert_eq!(
                kind.decode(&bytes).expect("decodes"),
                *values,
                "{kind:?} n={n}"
            );
        }
    }
}

#[test]
fn served_vectors_arrive_whole_and_in_the_record_encoders_bytes() {
    let g0 = grid(16);
    let reference = ServeState::new(&g0, ServeConfig::default()).expect("reference load");
    let (mates, colors) = (reference.matching(), reference.coloring());

    let path = socket("served");
    let server = Server::bind(
        &g0,
        ServerConfig {
            socket: path.clone(),
            serve: ServeConfig::default(),
        },
    )
    .expect("server binds");
    let handle = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&path, Duration::from_secs(5)).expect("client connects");
    assert_eq!(client.matching().expect("matching"), mates.mates());
    assert_eq!(client.coloring().expect("coloring"), colors.colors());
    client.end_session().expect("end");

    // The raw reply frames, read off the socket whole, equal the frames
    // the copy-through-`Bytes` path built from one record per vertex.
    let mut raw = UnixStream::connect(&path).expect("raw connect");
    for (seq, (query, kind, values)) in [
        (ServeQuery::Matching, FullVector::Matching, mates.mates()),
        (ServeQuery::Coloring, FullVector::Coloring, colors.colors()),
    ]
    .into_iter()
    .enumerate()
    {
        let mut q = Vec::new();
        query.encode(&mut q);
        let ctrl = Ctrl::Query {
            query_id: 40 + seq as u64,
        };
        raw.write_all(&encode_frame(
            seq as u64,
            &Frame::with_payload(ctrl, q.into()),
        ))
        .expect("send");
        let want = encode_frame(
            seq as u64,
            &Frame::with_payload(
                Ctrl::QueryReply {
                    query_id: 40 + seq as u64,
                },
                records(kind, values).into(),
            ),
        );
        let mut got = vec![0u8; want.len()];
        raw.read_exact(&mut got).expect("whole reply frame");
        assert!(got == want, "{query:?}: reply frame bytes moved");
    }
    drop(raw);

    let client = ServeClient::connect(&path, Duration::from_secs(5)).expect("reconnect");
    client.shutdown_server().expect("shutdown");
    let summary = handle.join().expect("server thread").expect("clean exit");
    assert_eq!((summary.sessions, summary.failed_sessions), (3, 0));
    assert_eq!(summary.last_failure, None);
    assert!(!summary.render().contains("last failed session"));
}

/// Payloads a full-vector reply must not be decoded from, each built
/// from a valid three-vertex reply.
fn hostile(kind: FullVector) -> Vec<(&'static str, Vec<u8>)> {
    let good = encoded(kind, &[2, NO_VERTEX, 0]);
    let other = match kind {
        FullVector::Matching => FullVector::Coloring,
        FullVector::Coloring => FullVector::Matching,
    };
    let mut summary = good[..9].to_vec();
    ServeReply::Summary {
        n: 3,
        m: 2,
        matched: 1,
        weight: 1.5,
        colors: 2,
        batches: 0,
        repairs: 0,
        recomputes: 0,
    }
    .encode(&mut summary);
    let mut unknown_tag = good.clone();
    unknown_tag[9] = 9;
    let swapped = [&good[..9], &good[18..], &good[9..18]].concat();
    let repeated = [&good[..18], &good[9..18]].concat();
    let skipped = [&good[..9], &good[18..]].concat();
    let mut trailing = good.clone();
    trailing.extend_from_slice(&[0, 3, 0]);
    vec![
        ("no records", Vec::new()),
        ("truncated last record", good[..good.len() - 1].to_vec()),
        ("a lone byte", good[..1].to_vec()),
        (
            "the other vector's records",
            encoded(other, &[2, NO_VERTEX, 0]),
        ),
        ("a summary record", summary),
        ("an unknown tag", unknown_tag),
        ("vertices out of order", swapped),
        ("a vertex repeated", repeated),
        ("a vertex skipped", skipped),
        ("trailing bytes", trailing),
    ]
}

#[test]
fn hostile_replies_are_typed_errors() {
    for kind in [FullVector::Matching, FullVector::Coloring] {
        assert_eq!(
            kind.decode(&encoded(kind, &[2, NO_VERTEX, 0])).ok(),
            Some(vec![2, NO_VERTEX, 0])
        );
        for (what, payload) in hostile(kind) {
            match kind.decode(&payload) {
                Err(NetError::Protocol { detail }) => {
                    assert!(
                        detail.starts_with(&format!("{kind:?} reply")),
                        "{what}: {detail}"
                    )
                }
                other => panic!("{kind:?}, {what}: expected a protocol error, got {other:?}"),
            }
        }
    }
}

#[test]
fn the_client_refuses_hostile_replies_and_keeps_its_session() {
    // A stand-in server that answers each query with the next payload
    // of the table, then one good reply.
    let path = socket("hostile");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind");
    let mut replies = hostile(FullVector::Matching);
    replies.push(("good", encoded(FullVector::Matching, &[2, NO_VERTEX, 0])));
    let count = replies.len();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        for (seq, (_, payload)) in replies.into_iter().enumerate() {
            let (_, frame) = read_frame(&mut reader).expect("read").expect("a query");
            let Ctrl::Query { query_id } = frame.ctrl else {
                panic!("expected a query, got {:?}", frame.ctrl);
            };
            let reply = Frame::with_payload(Ctrl::QueryReply { query_id }, payload.into());
            writer
                .write_all(&encode_frame(seq as u64, &reply))
                .expect("reply");
        }
    });
    let mut client = ServeClient::connect(&path, Duration::from_secs(5)).expect("connect");
    for i in 0..count - 1 {
        assert!(
            matches!(client.matching(), Err(NetError::Protocol { .. })),
            "hostile reply {i} must be a protocol error"
        );
    }
    assert_eq!(client.matching().expect("good reply"), [2, NO_VERTEX, 0]);
    fake.join().expect("stand-in server");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn decoding_allocates_the_vector_alone() {
    let mut calls = Vec::new();
    for side in [64usize, 256] {
        let n = side * side;
        let values: Vec<u32> = (0..n as u32).map(|v| v ^ 1).collect();
        for kind in [FullVector::Matching, FullVector::Coloring] {
            let payload = encoded(kind, &values);
            let ((bytes, n_calls), decoded) = requested(|| kind.decode(&payload));
            assert_eq!(decoded.expect("decodes"), values);
            assert_eq!(bytes, 4 * n, "{kind:?} at {side}²: bytes allocated");
            calls.push(n_calls);
        }
    }
    assert!(
        calls.iter().all(|&c| c == calls[0]),
        "allocator calls {calls:?}"
    );
}
