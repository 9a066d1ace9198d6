//! The serving loop: a Unix-domain listener speaking the framed v5
//! session protocol over a resident [`ServeState`].
//!
//! One client session at a time (requests within a session are
//! strictly ordered — a query observes every batch acknowledged
//! before it, which is the consistency contract DESIGN.md §13
//! promises). [`Ctrl::SessionEnd`] closes the connection and the
//! state lives on for the next client; [`Ctrl::Shutdown`] stops the
//! server and returns the run's latency summary. A session that fails
//! (a garbage frame, a query outside the graph, a client gone
//! mid-frame) ends that session alone: the server counts it, keeps
//! the last failure's reason for the summary, and accepts the next
//! client.
//!
//! Every reply is encoded once, straight into the session's output
//! buffer behind a reserved frame header ([`append_frame`]), and
//! written from it with one `write_all`; the buffer keeps its capacity,
//! so a full-vector reply after the first allocates nothing.
//!
//! Latency accounting: every `MutateBatch` is timed around the whole
//! absorb (decode through repair) and recorded in a log-scaled
//! histogram, likewise every `Query`; the summary reports p50/p99 in
//! microseconds (`cmg serve --json` writes it out).

use crate::protocol::{
    batch_of, decode_one, FullVector, RepairAck, ServeOp, ServeQuery, ServeReply,
};
use crate::state::{RepairReport, ServeConfig, ServeState};
use bytes::Bytes;
use cmg_graph::CsrGraph;
use cmg_net::frame::{append_frame, read_frame};
use cmg_net::{Ctrl, NetError};
use cmg_obs::metrics::LogHistogram;
use cmg_obs::Json;
use cmg_runtime::message::decode_all;
use cmg_runtime::WireMessage;
use std::io::{BufReader, Write};
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
    /// ... of which ended on an error (a malformed or out-of-range
    /// request, a client gone mid-frame) instead of `SessionEnd`.
    pub failed_sessions: u64,
    /// Why the last failed session failed.
    pub last_failure: Option<String>,
    /// Mutation batches absorbed.
    pub batches: u64,
    /// ... by warm-start repair.
    pub repairs: u64,
    /// ... by full recompute.
    pub recomputes: u64,
    /// Batch-absorb latency, microseconds.
    pub mutate_micros: LogHistogram,
    /// Query latency, microseconds.
    pub query_micros: LogHistogram,
}

impl ServeSummary {
    /// The human-readable latency lines (the CI smoke job greps the
    /// `p99` token and the last failure's reason out of this).
    pub fn render(&self) -> String {
        format!(
            "served {} sessions{}, {} batches ({} repaired, {} recomputed)\n{}\
             mutate latency: p50 {:.0} us, p99 {:.0} us, max {} us over {} batches\n\
             query latency:  p50 {:.0} us, p99 {:.0} us, max {} us over {} queries",
            self.sessions,
            if self.failed_sessions > 0 {
                format!(" ({} failed)", self.failed_sessions)
            } else {
                String::new()
            },
            self.batches,
            self.repairs,
            self.recomputes,
            match &self.last_failure {
                Some(why) => format!("last failed session: {why}\n"),
                None => String::new(),
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
            ("failed_sessions".into(), Json::UInt(self.failed_sessions)),
            (
                "last_failure".into(),
                self.last_failure.clone().map_or(Json::Null, Json::Str),
            ),
            ("batches".into(), Json::UInt(self.batches)),
            ("repairs".into(), Json::UInt(self.repairs)),
            ("recomputes".into(), Json::UInt(self.recomputes)),
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
/// expensive part — load and initial cold compute — so a
/// caller can bind first and signal readiness before blocking in
/// [`Server::run`].
pub struct Server {
    listener: UnixListener,
    state: ServeState,
    socket: PathBuf,
    sessions: u64,
    failed_sessions: u64,
    last_failure: Option<String>,
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
            failed_sessions: 0,
            last_failure: None,
            mutate_micros: LogHistogram::default(),
            query_micros: LogHistogram::default(),
        })
    }

    /// Serves client sessions until one sends [`Ctrl::Shutdown`], then
    /// returns the latency summary. The socket file is removed on the
    /// way out. Fails only if accepting a client fails; a failed
    /// session is counted in [`ServeSummary::failed_sessions`].
    pub fn run(mut self) -> Result<ServeSummary, NetError> {
        let served = self.serve();
        let _ = std::fs::remove_file(&self.socket);
        served?;
        Ok(ServeSummary {
            sessions: self.sessions,
            failed_sessions: self.failed_sessions,
            last_failure: self.last_failure,
            batches: self.state.batches,
            repairs: self.state.repairs,
            recomputes: self.state.recomputes,
            mutate_micros: self.mutate_micros,
            query_micros: self.query_micros,
        })
    }

    /// Accepts sessions until one asks for shutdown.
    fn serve(&mut self) -> Result<(), NetError> {
        loop {
            let (stream, _) = self
                .listener
                .accept()
                .map_err(|e| NetError::io("accepting a serve client", e))?;
            self.sessions += 1;
            match self.session(stream) {
                Ok(true) => return Ok(()),
                Ok(false) => {}
                // The failed request changed nothing: a query only
                // reads, and a batch is absorbed whole or rejected
                // before it is acknowledged.
                Err(e) => {
                    self.failed_sessions += 1;
                    self.last_failure = Some(e.to_string());
                }
            }
        }
    }

    /// One client session. Returns `true` when the client asked the
    /// whole server to shut down.
    fn session(&mut self, stream: UnixStream) -> Result<bool, NetError> {
        // Buffered reads: a frame's length and body arrive in one
        // `read(2)`. Replies go straight to the socket through
        // `get_mut`, one `write_all` each.
        let mut stream = BufReader::new(stream);
        let mut out = Vec::new();
        let mut seq = 0u64;
        loop {
            let frame = match read_frame(&mut stream)? {
                Some((_, frame)) => frame,
                // A vanished client ends its session, not the server.
                None => return Ok(false),
            };
            out.clear();
            let ctrl = match frame.ctrl {
                Ctrl::MutateBatch { batch_id } => {
                    let started = Instant::now();
                    let ack = self.absorb(&frame.payload);
                    let micros = started.elapsed().as_micros() as u64;
                    self.mutate_micros.record(micros);
                    let ack = match ack {
                        PendingAck::Done(report) => report.ack(micros),
                        PendingAck::Rejected { code } => RepairAck::Rejected { code },
                    };
                    let ctrl = Ctrl::MutateAck { batch_id };
                    append_frame(&mut out, seq, ctrl, |p| ack.encode(p));
                    ctrl
                }
                Ctrl::Query { query_id } => {
                    let started = Instant::now();
                    let ctrl = Ctrl::QueryReply { query_id };
                    append_frame(&mut out, seq, ctrl, |p| self.answer(&frame.payload, p))?;
                    self.query_micros
                        .record(started.elapsed().as_micros() as u64);
                    ctrl
                }
                Ctrl::SessionEnd => return Ok(false),
                Ctrl::Shutdown => return Ok(true),
                other => {
                    return Err(NetError::protocol(format!(
                        "unexpected request frame {other:?}"
                    )))
                }
            };
            stream
                .get_mut()
                .write_all(&out)
                .map_err(|e| NetError::io(format!("writing {ctrl:?} frame"), e))?;
            seq += 1;
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

    /// Answers one query, appending its reply records to `out`.
    fn answer(&self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), NetError> {
        match decode_one(payload, "query")? {
            ServeQuery::MateOf { v } => {
                self.check_vertex(v)?;
                ServeReply::Mate {
                    v,
                    mate: self.state.mate_of(v),
                }
                .encode(out);
            }
            ServeQuery::ColorOf { v } => {
                self.check_vertex(v)?;
                ServeReply::Color {
                    v,
                    color: self.state.color_of(v),
                }
                .encode(out);
            }
            ServeQuery::Matching => FullVector::Matching.encode(self.state.mates(), out),
            ServeQuery::Coloring => FullVector::Coloring.encode(self.state.colors(), out),
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
                .encode(out);
            }
        }
        Ok(())
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
