//! The client half of the request plane: a blocking connection that
//! speaks the framed serve protocol request-by-request.
//!
//! Every call sends one frame and reads exactly one reply frame, so a
//! client sees its own writes: a query issued after [`ServeClient::mutate`]
//! returns observes the repaired result.

use crate::protocol::{decode_one, ops_of, FullVector, RepairAck, ServeQuery, ServeReply};
use bytes::Bytes;
use cmg_graph::{MutationBatch, NO_VERTEX};
use cmg_net::frame::{append_frame, read_frame};
use cmg_net::{connect_with_backoff, Ctrl, NetError};
use cmg_runtime::WireMessage;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// The Summary query's answer, decoded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceSummary {
    /// Vertices in the graph.
    pub n: u64,
    /// Undirected edges currently present.
    pub m: u64,
    /// Matched pairs.
    pub matched: u64,
    /// Total matched weight.
    pub weight: f64,
    /// Colors in use.
    pub colors: u32,
    /// Mutation batches absorbed.
    pub batches: u64,
    /// ... of which warm-start repairs.
    pub repairs: u64,
    /// ... of which full recomputes.
    pub recomputes: u64,
}

/// A connected serve client.
pub struct ServeClient {
    /// Reads are buffered (a reply's length and body arrive in one
    /// `read(2)`); requests are written straight to the socket.
    stream: BufReader<UnixStream>,
    /// Each request is encoded into this buffer, frame header first,
    /// and written from it with one `write_all`.
    out: Vec<u8>,
    seq: u64,
    next_batch: u64,
    next_query: u64,
}

impl ServeClient {
    /// Dials the server's socket with capped backoff (the server may
    /// still be loading its graph when the client starts).
    pub fn connect(socket: &Path, total: Duration) -> Result<ServeClient, NetError> {
        let stream = connect_with_backoff(
            socket,
            Duration::from_millis(10),
            Duration::from_millis(250),
            total,
        )?;
        Ok(ServeClient {
            stream: BufReader::new(stream),
            out: Vec::new(),
            seq: 0,
            next_batch: 0,
            next_query: 0,
        })
    }

    /// Sends one mutation batch and blocks until the server has
    /// absorbed it. `Ok` carries the server's repair report; a
    /// rejected batch (graph untouched) comes back as a protocol-level
    /// `Ok(RepairAck::Rejected { .. })`, not an error.
    pub fn mutate(&mut self, batch: &MutationBatch) -> Result<RepairAck, NetError> {
        let batch_id = self.next_batch;
        self.next_batch += 1;
        let ops = ops_of(batch);
        self.send(Ctrl::MutateBatch { batch_id }, |out| {
            ops.iter().for_each(|op| op.encode(out))
        })?;
        let (ctrl, payload) = self.recv()?;
        match ctrl {
            Ctrl::MutateAck { batch_id: got } if got == batch_id => {
                decode_one(&payload, "mutate ack")
            }
            other => Err(NetError::protocol(format!(
                "expected MutateAck {{ batch_id: {batch_id} }}, got {other:?}"
            ))),
        }
    }

    /// Current mate of `v`, or `None` if unmatched.
    pub fn mate_of(&mut self, v: u32) -> Result<Option<u32>, NetError> {
        match self.query_one(ServeQuery::MateOf { v })? {
            ServeReply::Mate { mate, .. } if mate == NO_VERTEX => Ok(None),
            ServeReply::Mate { mate, .. } => Ok(Some(mate)),
            other => Err(NetError::protocol(format!(
                "expected a Mate reply, got {other:?}"
            ))),
        }
    }

    /// Current color of `v`.
    pub fn color_of(&mut self, v: u32) -> Result<u32, NetError> {
        match self.query_one(ServeQuery::ColorOf { v })? {
            ServeReply::Color { color, .. } => Ok(color),
            other => Err(NetError::protocol(format!(
                "expected a Color reply, got {other:?}"
            ))),
        }
    }

    /// The whole served matching as a mate vector (`NO_VERTEX` =
    /// unmatched), indexed by vertex.
    pub fn matching(&mut self) -> Result<Vec<u32>, NetError> {
        FullVector::Matching.decode(&self.query(ServeQuery::Matching)?)
    }

    /// The whole served coloring as a color vector, indexed by vertex.
    pub fn coloring(&mut self) -> Result<Vec<u32>, NetError> {
        FullVector::Coloring.decode(&self.query(ServeQuery::Coloring)?)
    }

    /// Service counters and current result sizes.
    pub fn summary(&mut self) -> Result<ServiceSummary, NetError> {
        match self.query_one(ServeQuery::Summary)? {
            ServeReply::Summary {
                n,
                m,
                matched,
                weight,
                colors,
                batches,
                repairs,
                recomputes,
            } => Ok(ServiceSummary {
                n,
                m,
                matched,
                weight,
                colors,
                batches,
                repairs,
                recomputes,
            }),
            other => Err(NetError::protocol(format!(
                "expected a Summary reply, got {other:?}"
            ))),
        }
    }

    /// Ends this session; the server stays up for the next client.
    pub fn end_session(mut self) -> Result<(), NetError> {
        self.send(Ctrl::SessionEnd, |_| ())
    }

    /// Asks the server to shut down after this session.
    pub fn shutdown_server(mut self) -> Result<(), NetError> {
        self.send(Ctrl::Shutdown, |_| ())
    }

    /// Sends one query and returns its reply's payload.
    fn query(&mut self, q: ServeQuery) -> Result<Bytes, NetError> {
        let query_id = self.next_query;
        self.next_query += 1;
        self.send(Ctrl::Query { query_id }, |out| q.encode(out))?;
        let (ctrl, payload) = self.recv()?;
        match ctrl {
            Ctrl::QueryReply { query_id: got } if got == query_id => Ok(payload),
            other => Err(NetError::protocol(format!(
                "expected QueryReply {{ query_id: {query_id} }}, got {other:?}"
            ))),
        }
    }

    fn query_one(&mut self, q: ServeQuery) -> Result<ServeReply, NetError> {
        decode_one(&self.query(q)?, "query reply")
    }

    fn send(
        &mut self,
        ctrl: Ctrl,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), NetError> {
        self.out.clear();
        append_frame(&mut self.out, self.seq, ctrl, write_payload);
        self.stream
            .get_mut()
            .write_all(&self.out)
            .map_err(|e| NetError::io(format!("writing {ctrl:?} frame"), e))?;
        self.seq += 1;
        Ok(())
    }

    fn recv(&mut self) -> Result<(Ctrl, Bytes), NetError> {
        match read_frame(&mut self.stream)? {
            Some((_, frame)) => Ok((frame.ctrl, frame.payload)),
            None => Err(NetError::protocol(
                "server closed the connection mid-request",
            )),
        }
    }
}
