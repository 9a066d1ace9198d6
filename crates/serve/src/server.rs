//! The serving loop: a Unix-domain listener speaking the framed v5
//! session protocol over a resident [`ServeState`].
//!
//! One client session at a time (requests within a session are
//! strictly ordered — a query observes every batch acknowledged
//! before it, which is the consistency contract DESIGN.md §13
//! promises). [`Ctrl::SessionEnd`] closes the connection and the
//! state lives on for the next client; [`Ctrl::Shutdown`] stops the
//! server and returns the run's latency summary.
//!
//! Latency accounting: every `MutateBatch` is timed around the whole
//! absorb (decode through repair) and recorded in a log-scaled
//! histogram, likewise every `Query`; the summary reports p50/p99 in
//! microseconds (`cmg serve --json` writes it out).

use crate::protocol::{batch_of, RepairAck, ServeOp, ServeQuery, ServeReply};
use crate::state::{RepairReport, ServeConfig, ServeState};
use bytes::{Bytes, BytesMut};
use cmg_graph::CsrGraph;
use cmg_net::frame::{read_frame, write_frame};
use cmg_net::{Ctrl, Frame, NetError};
use cmg_obs::metrics::LogHistogram;
use cmg_obs::Json;
use cmg_runtime::message::decode_all;
use cmg_runtime::WireMessage;
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Instant;

/// Server-side configuration: where to listen and how to serve.
pub struct ServerConfig {
    /// Unix-domain socket path to bind (removed first if stale).
    pub socket: PathBuf,
    /// The resident state's configuration.
    pub serve: ServeConfig,
}

/// What a finished serving run measured.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Client sessions served.
    pub sessions: u64,
    /// Mutation batches absorbed.
    pub batches: u64,
    /// ... by warm-start repair.
    pub repairs: u64,
    /// ... by full recompute.
    pub recomputes: u64,
    /// Fleet passes that fell back in-process (net mode).
    pub fleet_failures: u64,
    /// Batch-absorb latency, microseconds.
    pub mutate_micros: LogHistogram,
    /// Query latency, microseconds.
    pub query_micros: LogHistogram,
}

impl ServeSummary {
    /// The human-readable latency lines (the CI smoke job greps the
    /// `p99` token out of this).
    pub fn render(&self) -> String {
        format!(
            "served {} sessions, {} batches ({} repaired, {} recomputed{})\n\
             mutate latency: p50 {:.0} us, p99 {:.0} us, max {} us over {} batches\n\
             query latency:  p50 {:.0} us, p99 {:.0} us, max {} us over {} queries",
            self.sessions,
            self.batches,
            self.repairs,
            self.recomputes,
            if self.fleet_failures > 0 {
                format!(", {} fleet fallbacks", self.fleet_failures)
            } else {
                String::new()
            },
            self.mutate_micros.p50(),
            self.mutate_micros.p99(),
            self.mutate_micros.max(),
            self.mutate_micros.count(),
            self.query_micros.p50(),
            self.query_micros.p99(),
            self.query_micros.max(),
            self.query_micros.count(),
        )
    }

    /// The summary as JSON (what `cmg serve --json` writes).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sessions".into(), Json::UInt(self.sessions)),
            ("batches".into(), Json::UInt(self.batches)),
            ("repairs".into(), Json::UInt(self.repairs)),
            ("recomputes".into(), Json::UInt(self.recomputes)),
            ("fleet_failures".into(), Json::UInt(self.fleet_failures)),
            (
                "mutate_p50_us".into(),
                Json::Float(self.mutate_micros.p50()),
            ),
            (
                "mutate_p99_us".into(),
                Json::Float(self.mutate_micros.p99()),
            ),
            ("mutate_max_us".into(), Json::UInt(self.mutate_micros.max())),
            ("query_p50_us".into(), Json::Float(self.query_micros.p50())),
            ("query_p99_us".into(), Json::Float(self.query_micros.p99())),
        ])
    }
}

/// A running server bound to its socket. Constructing it performs the
/// expensive part — load, partition, initial cold compute — so a
/// caller can bind first and signal readiness before blocking in
/// [`Server::run`].
pub struct Server {
    listener: UnixListener,
    state: ServeState,
    socket: PathBuf,
    sessions: u64,
    mutate_micros: LogHistogram,
    query_micros: LogHistogram,
}

impl Server {
    /// Loads `g0`, computes the initial results, and binds the socket.
    pub fn bind(g0: &CsrGraph, cfg: ServerConfig) -> Result<Server, NetError> {
        let state = ServeState::new(g0, cfg.serve)?;
        // A stale socket file from a dead server would fail the bind.
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)
            .map_err(|e| NetError::io("binding the serve socket", e))?;
        Ok(Server {
            listener,
            state,
            socket: cfg.socket,
            sessions: 0,
            mutate_micros: LogHistogram::default(),
            query_micros: LogHistogram::default(),
        })
    }

    /// Serves client sessions until one sends [`Ctrl::Shutdown`], then
    /// returns the latency summary. The socket file is removed on the
    /// way out.
    pub fn run(mut self) -> Result<ServeSummary, NetError> {
        let mut shutdown = false;
        while !shutdown {
            let (stream, _) = self
                .listener
                .accept()
                .map_err(|e| NetError::io("accepting a serve client", e))?;
            self.sessions += 1;
            shutdown = self.session(stream)?;
        }
        let _ = std::fs::remove_file(&self.socket);
        let _ = self.state.close();
        Ok(ServeSummary {
            sessions: self.sessions,
            batches: self.state.batches,
            repairs: self.state.repairs,
            recomputes: self.state.recomputes,
            fleet_failures: self.state.fleet_failures,
            mutate_micros: self.mutate_micros,
            query_micros: self.query_micros,
        })
    }

    /// One client session. Returns `true` when the client asked the
    /// whole server to shut down.
    fn session(&mut self, stream: UnixStream) -> Result<bool, NetError> {
        // Buffered reads: a frame's length and body arrive in one
        // `read(2)`. Replies go straight to the socket through
        // `get_mut`, one `write_all` each.
        let mut stream = BufReader::new(stream);
        let mut seq = 0u64;
        loop {
            let frame = match read_frame(&mut stream)? {
                Some((_, frame)) => frame,
                // A vanished client ends its session, not the server.
                None => return Ok(false),
            };
            match frame.ctrl {
                Ctrl::MutateBatch { batch_id } => {
                    let started = Instant::now();
                    let ack = self.absorb(&frame.payload);
                    let micros = started.elapsed().as_micros() as u64;
                    self.mutate_micros.record(micros);
                    let ack = match ack {
                        PendingAck::Done(report) => report.ack(micros),
                        PendingAck::Rejected { code } => RepairAck::Rejected { code },
                    };
                    reply(
                        stream.get_mut(),
                        &mut seq,
                        Ctrl::MutateAck { batch_id },
                        encode_one(&ack),
                    )?;
                }
                Ctrl::Query { query_id } => {
                    let started = Instant::now();
                    let answer = self.answer(&frame.payload)?;
                    self.query_micros
                        .record(started.elapsed().as_micros() as u64);
                    reply(
                        stream.get_mut(),
                        &mut seq,
                        Ctrl::QueryReply { query_id },
                        answer,
                    )?;
                }
                Ctrl::SessionEnd => return Ok(false),
                Ctrl::Shutdown => return Ok(true),
                other => {
                    return Err(NetError::protocol(format!(
                        "unexpected request frame {other:?}"
                    )))
                }
            }
        }
    }

    /// Decodes and absorbs one mutation batch.
    fn absorb(&mut self, payload: &Bytes) -> PendingAck {
        let Some(ops) = decode_all::<ServeOp>(payload.clone()) else {
            return PendingAck::Rejected { code: 2 };
        };
        match self.state.apply(&batch_of(&ops)) {
            Ok(report) => PendingAck::Done(report),
            Err(_) => PendingAck::Rejected { code: 1 },
        }
    }

    /// Answers one query with a reply bundle.
    fn answer(&mut self, payload: &Bytes) -> Result<Bytes, NetError> {
        let queries = decode_all::<ServeQuery>(payload.clone())
            .ok_or_else(|| NetError::protocol("undecodable query payload"))?;
        let [query] = queries[..] else {
            return Err(NetError::protocol(format!(
                "a query frame carries exactly one query, got {}",
                queries.len()
            )));
        };
        // A full-vector reply is n fixed-width records: size it once
        // rather than doubling the buffer up to ~9n bytes.
        let n = self.state.num_vertices();
        let mut buf = BytesMut::with_capacity(match query {
            ServeQuery::Matching => n * ServeReply::Mate { v: 0, mate: 0 }.encoded_len(),
            ServeQuery::Coloring => n * ServeReply::Color { v: 0, color: 0 }.encoded_len(),
            _ => 0,
        });
        match query {
            ServeQuery::MateOf { v } => {
                self.check_vertex(v)?;
                ServeReply::Mate {
                    v,
                    mate: self.state.mate_of(v),
                }
                .encode(&mut buf);
            }
            ServeQuery::ColorOf { v } => {
                self.check_vertex(v)?;
                ServeReply::Color {
                    v,
                    color: self.state.color_of(v),
                }
                .encode(&mut buf);
            }
            ServeQuery::Matching => {
                for v in 0..n as u32 {
                    ServeReply::Mate {
                        v,
                        mate: self.state.mate_of(v),
                    }
                    .encode(&mut buf);
                }
            }
            ServeQuery::Coloring => {
                for v in 0..n as u32 {
                    ServeReply::Color {
                        v,
                        color: self.state.color_of(v),
                    }
                    .encode(&mut buf);
                }
            }
            ServeQuery::Summary => {
                // All read from the resident state in place: a summary
                // of a repair-only stream must not trigger a CSR repack
                // or copy a vector.
                ServeReply::Summary {
                    n: self.state.num_vertices() as u64,
                    m: self.state.num_edges() as u64,
                    matched: self.state.matched_pairs() as u64,
                    weight: self.state.matched_weight(),
                    colors: self.state.num_colors() as u32,
                    batches: self.state.batches,
                    repairs: self.state.repairs,
                    recomputes: self.state.recomputes,
                }
                .encode(&mut buf);
            }
        }
        Ok(buf.freeze())
    }

    fn check_vertex(&self, v: u32) -> Result<(), NetError> {
        if (v as usize) < self.state.num_vertices() {
            Ok(())
        } else {
            Err(NetError::protocol(format!(
                "query for vertex {v} outside the graph"
            )))
        }
    }
}

enum PendingAck {
    Done(RepairReport),
    Rejected { code: u8 },
}

fn encode_one(msg: &impl WireMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(msg.encoded_len());
    msg.encode(&mut buf);
    buf.freeze()
}

fn reply(
    stream: &mut UnixStream,
    seq: &mut u64,
    ctrl: Ctrl,
    payload: Bytes,
) -> Result<(), NetError> {
    write_frame(stream, *seq, &Frame::with_payload(ctrl, payload))?;
    *seq += 1;
    Ok(())
}
