//! The client half of the request plane: a blocking connection that
//! speaks the framed serve protocol request-by-request.
//!
//! Every call sends one frame and reads exactly one reply frame, so a
//! client sees its own writes: a query issued after [`ServeClient::mutate`]
//! returns observes the repaired result.

use crate::protocol::{ops_of, RepairAck, ServeQuery, ServeReply};
use bytes::{Bytes, BytesMut};
use cmg_graph::{MutationBatch, NO_VERTEX};
use cmg_net::frame::{read_frame, write_frame};
use cmg_net::{connect_with_backoff, Ctrl, Frame, NetError};
use cmg_runtime::message::decode_all;
use cmg_runtime::WireMessage;
use std::io::BufReader;
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
        let payload = encode_bundle(&ops_of(batch));
        self.send(Ctrl::MutateBatch { batch_id }, payload)?;
        let (ctrl, payload) = self.recv()?;
        match ctrl {
            Ctrl::MutateAck { batch_id: got } if got == batch_id => {
                let acks = decode_all::<RepairAck>(payload)
                    .ok_or_else(|| NetError::protocol("undecodable mutate ack"))?;
                match acks[..] {
                    [ack] => Ok(ack),
                    _ => Err(NetError::protocol("mutate ack carries exactly one record")),
                }
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
        let replies = self.query(ServeQuery::Matching)?;
        let mut mate = vec![NO_VERTEX; replies.len()];
        for r in replies {
            match r {
                ServeReply::Mate { v, mate: m } => {
                    *mate.get_mut(v as usize).ok_or_else(|| {
                        NetError::protocol(format!("matching reply names vertex {v} out of range"))
                    })? = m;
                }
                other => {
                    return Err(NetError::protocol(format!(
                        "expected Mate records, got {other:?}"
                    )))
                }
            }
        }
        Ok(mate)
    }

    /// The whole served coloring as a color vector, indexed by vertex.
    pub fn coloring(&mut self) -> Result<Vec<u32>, NetError> {
        let replies = self.query(ServeQuery::Coloring)?;
        let mut colors = vec![0u32; replies.len()];
        for r in replies {
            match r {
                ServeReply::Color { v, color } => {
                    *colors.get_mut(v as usize).ok_or_else(|| {
                        NetError::protocol(format!("coloring reply names vertex {v} out of range"))
                    })? = color;
                }
                other => {
                    return Err(NetError::protocol(format!(
                        "expected Color records, got {other:?}"
                    )))
                }
            }
        }
        Ok(colors)
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
        self.send(Ctrl::SessionEnd, Bytes::new())
    }

    /// Asks the server to shut down after this session.
    pub fn shutdown_server(mut self) -> Result<(), NetError> {
        self.send(Ctrl::Shutdown, Bytes::new())
    }

    fn query(&mut self, q: ServeQuery) -> Result<Vec<ServeReply>, NetError> {
        let query_id = self.next_query;
        self.next_query += 1;
        self.send(Ctrl::Query { query_id }, encode_bundle(&[q]))?;
        let (ctrl, payload) = self.recv()?;
        match ctrl {
            Ctrl::QueryReply { query_id: got } if got == query_id => {
                decode_all::<ServeReply>(payload)
                    .ok_or_else(|| NetError::protocol("undecodable query reply"))
            }
            other => Err(NetError::protocol(format!(
                "expected QueryReply {{ query_id: {query_id} }}, got {other:?}"
            ))),
        }
    }

    fn query_one(&mut self, q: ServeQuery) -> Result<ServeReply, NetError> {
        let replies = self.query(q)?;
        match replies[..] {
            [r] => Ok(r),
            _ => Err(NetError::protocol(format!(
                "expected one reply record, got {}",
                replies.len()
            ))),
        }
    }

    fn send(&mut self, ctrl: Ctrl, payload: Bytes) -> Result<(), NetError> {
        write_frame(
            self.stream.get_mut(),
            self.seq,
            &Frame::with_payload(ctrl, payload),
        )?;
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

fn encode_bundle<M: WireMessage>(msgs: &[M]) -> Bytes {
    let mut buf = BytesMut::new();
    for m in msgs {
        m.encode(&mut buf);
    }
    buf.freeze()
}
