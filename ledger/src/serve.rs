//! `serve_mixed_stream`: the serving path under a closed loop.
//!
//! `Server::bind` on a 256 × 256 grid with the default `ServeConfig`
//! (4 ranks, in-process), one `ServeClient` on a Unix socket, and a
//! stream of segments. A segment is one bulk batch that dirties more
//! than a quarter of the vertices — so the server takes its recompute
//! fallback — followed by 999 mixed operations: 60 % mutate batches
//! of 1–3 ops (insert / delete / reweight), 39 % point queries, 1 %
//! full-vector queries. Writes sit beside reads on one state, and the
//! matching and coloring layers run as *repair* rather than cold, so a
//! gain for one use that costs the other shows. The grid is 16× the
//! `serve_stream` fixture, which makes per-batch O(n) terms visible.
//!
//! The harness keeps a mirror `MutableGraph` of the stream. After each
//! bulk batch and at the end of each segment it rebuilds the mirror and
//! checks the served matching (valid, certified, bit-identical to a
//! cold sequential run) and coloring (proper). In traced segments it
//! also replays the server's five repair calls on the mirror, which
//! times them from outside and must land on the served answers.

use crate::checks::{half_approx_certificate, proper_coloring};
use crate::harness::{timed, Harness, RepTimes, Workload};
use crate::host::CpuClock;
use crate::stats::{median, nearest_rank};
use cmg_coloring::{invalidate_colors, repair_frontier_colors};
use cmg_graph::generators;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{MutableGraph, MutationBatch, VertexId, NO_VERTEX};
use cmg_matching::{invalidate, repair_frontier, Matching};
use cmg_net::NetError;
use cmg_serve::{RepairAck, ServeClient, ServeConfig, ServeSummary, Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

/// Mixed operations run during set-up, before anything is timed.
const WARMUP_OPS: usize = 500;

/// Round-trip times and ack counters of the plain (untraced) segments.
#[derive(Default)]
struct Log {
    mutate_us: Vec<f64>,
    server_us: Vec<f64>,
    query_us: Vec<f64>,
    fullquery_ms: Vec<f64>,
    recompute_ms: Vec<f64>,
    ops_per_s: Vec<f64>,
    dirty_matching: Vec<f64>,
    dirty_coloring: Vec<f64>,
    repairs: Vec<f64>,
}

/// One operation of the mixed stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A batch of 1–3 mutations.
    Mutate(MutationBatch),
    /// `mate_of(v)` (`matching`) or `color_of(v)`.
    Point { matching: bool, v: VertexId },
    /// The whole matching (`matching`) or coloring vector.
    Full { matching: bool },
}

/// The seeded operation stream over a `side × side` grid: everything
/// the client sends is drawn from here, in order.
pub struct Stream {
    side: usize,
    rng: SmallRng,
}

impl Stream {
    /// The stream `seed` gives.
    pub fn new(side: usize, seed: u64) -> Stream {
        Stream {
            side,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A random interior grid vertex (it has a right, a lower and a
    /// lower-right neighbor id).
    fn vertex(&mut self) -> VertexId {
        let r = self.rng.random_range(0..self.side - 1);
        let c = self.rng.random_range(0..self.side - 1);
        (r * self.side + c) as VertexId
    }

    /// The next mixed operation: 60 % small batches, 39 % point
    /// queries, 1 % full-vector queries.
    ///
    /// A batch is 1–3 ops: deletes target grid edges (possibly already
    /// gone — a counted no-op), inserts add short diagonals, reweights
    /// shuffle local dominance. Weights are fresh 53-bit draws, so they
    /// stay distinct and the greedy matching unique.
    pub fn next_op(&mut self) -> Op {
        let class = self.rng.random_range(0u32..100);
        if class >= 60 {
            let matching = self.rng.random::<bool>();
            return if class < 99 {
                let v = self
                    .rng
                    .random_range(0..(self.side * self.side) as VertexId);
                Op::Point { matching, v }
            } else {
                Op::Full { matching }
            };
        }
        let side = self.side as VertexId;
        let mut batch = MutationBatch::new();
        for _ in 0..self.rng.random_range(1usize..4) {
            let v = self.vertex();
            match self.rng.random_range(0u32..3) {
                0 => batch.insert(v, v + side + 1, self.rng.random::<f64>()),
                1 => {
                    let other = if self.rng.random::<bool>() {
                        v + 1
                    } else {
                        v + side
                    };
                    batch.delete(v, other)
                }
                _ => batch.reweight(v, v + 1, self.rng.random::<f64>()),
            };
        }
        Op::Mutate(batch)
    }

    /// Reweights n/3 random horizontal edges: upwards of 40 % of the
    /// vertices become dirty, well past the 25 % recompute threshold.
    pub fn bulk_batch(&mut self) -> MutationBatch {
        let mut batch = MutationBatch::new();
        for _ in 0..self.side * self.side / 3 {
            let v = self.vertex();
            batch.reweight(v, v + 1, self.rng.random::<f64>());
        }
        batch
    }
}

/// A running server, its client, and the harness's mirror of both.
struct Live {
    client: ServeClient,
    server: JoinHandle<Result<ServeSummary, NetError>>,
    stream: Stream,
    mirror: MutableGraph,
    /// The served answers as of the last verification, advanced by the
    /// mirror replay while `in_step`.
    mate: Vec<VertexId>,
    colors: Vec<u32>,
    in_step: bool,
    acks: u64,
}

/// The workload.
pub struct Serve {
    side: usize,
    segment_ops: usize,
    seed: u64,
    socket: PathBuf,
    live: Option<Live>,
    log: Log,
}

impl Serve {
    /// 256 × 256 vertices and 1,000-op segments (32 × 32 and 300 under
    /// `--smoke`).
    pub fn new(h: &Harness) -> Serve {
        Serve {
            side: if h.smoke { 32 } else { 256 },
            segment_ops: if h.smoke { 300 } else { 1_000 },
            seed: h.seed,
            socket: h.scratch.path("serve.sock"),
            live: None,
            log: Log::default(),
        }
    }

    /// Sends one small batch; in a traced segment also replays the
    /// server's repair on the mirror. Returns the round-trip seconds.
    fn mutate(&mut self, h: &mut Harness, live: &mut Live, batch: &MutationBatch) -> f64 {
        let (dt, ack) = timed(|| {
            h.tracer
                .time("serve.mutate_s", || live.client.mutate(batch))
        });
        live.acks += 1;
        let outcome = match ack {
            Ok(RepairAck::Done {
                mode,
                dirty_matching,
                dirty_coloring,
                micros,
                ..
            }) => {
                if !h.tracing() {
                    self.log.mutate_us.push(dt * 1e6);
                    self.log.server_us.push(micros as f64);
                    self.log.dirty_matching.push(dirty_matching as f64);
                    self.log.dirty_coloring.push(dirty_coloring as f64);
                }
                if mode == 0 {
                    Ok(())
                } else {
                    Err("a small batch was absorbed by recompute".to_string())
                }
            }
            Ok(RepairAck::Rejected { code }) => Err(format!("valid batch rejected ({code})")),
            Err(e) => Err(e.to_string()),
        };
        h.check("small batch is repaired", outcome);

        if !h.tracing() {
            let applied = live.mirror.apply(batch).map(drop);
            h.check("mirror applies the batch", applied);
            live.in_step = false;
            return dt;
        }
        // The same five public calls `ServeState::apply` composes.
        let seed = ServeConfig::default().coloring.seed;
        let (apply_s, applied) = timed(|| {
            h.tracer
                .time("graph.mirror_apply", || live.mirror.apply(batch).map(drop))
        });
        h.check("mirror applies the batch", applied);
        let span = h.tracer.enter("matching.mirror_repair");
        let (inv_m, retained) = timed(|| invalidate(&live.mirror, &live.mate, batch));
        let (rep_m, mate) = timed(|| repair_frontier(&live.mirror, &retained));
        h.tracer.exit(span);
        let span = h.tracer.enter("coloring.mirror_repair");
        let (inv_c, retained) =
            timed(|| invalidate_colors(&live.mirror, &live.colors, batch, seed));
        let (rep_c, colors) = timed(|| repair_frontier_colors(&live.mirror, &retained, seed));
        h.tracer.exit(span);
        live.mate = mate;
        live.colors = colors;
        h.layer("graph.mutable_apply_us", apply_s * 1e6);
        h.layer("matching.invalidate_us", inv_m * 1e6);
        h.layer("matching.repair_us", rep_m * 1e6);
        h.layer("coloring.invalidate_us", inv_c * 1e6);
        h.layer("coloring.repair_us", rep_c * 1e6);
        h.layer(
            "serve.state_apply_p50_us",
            (apply_s + inv_m + rep_m + inv_c + rep_c) * 1e6,
        );
        dt
    }

    /// One full-vector query. Returns the round-trip seconds.
    fn full_query(&mut self, h: &mut Harness, live: &mut Live, matching: bool) -> f64 {
        let n = self.side * self.side;
        let (dt, got) = timed(|| {
            h.tracer.time("serve.fullquery_s", || {
                if matching {
                    live.client.matching().map(|v| v.len())
                } else {
                    live.client.coloring().map(|v| v.len())
                }
            })
        });
        if !h.tracing() {
            self.log.fullquery_ms.push(dt * 1e3);
        }
        let outcome = match got {
            Ok(len) if len == n => Ok(()),
            Ok(len) => Err(format!("{len} records for {n} vertices")),
            Err(e) => Err(e.to_string()),
        };
        h.check("full-vector query answers", outcome);
        dt
    }

    /// One point query, checked against the mirror's answers while they
    /// are in step with the server. Returns the round-trip seconds.
    fn point_query(
        &mut self,
        h: &mut Harness,
        live: &mut Live,
        matching: bool,
        v: VertexId,
    ) -> f64 {
        let (dt, got) = timed(|| {
            h.tracer.time("serve.query_s", || {
                if matching {
                    live.client.mate_of(v).map(|m| m.unwrap_or(NO_VERTEX))
                } else {
                    live.client.color_of(v)
                }
            })
        });
        if !h.tracing() {
            self.log.query_us.push(dt * 1e6);
        }
        let expected = if matching {
            live.mate[v as usize]
        } else {
            live.colors[v as usize]
        };
        let outcome = match got {
            Ok(x) if live.in_step && x != expected => {
                Err(format!("vertex {v}: served {x}, mirror {expected}"))
            }
            Ok(_) => Ok(()),
            Err(e) => Err(e.to_string()),
        };
        h.check("point query answers", outcome);
        dt
    }

    /// `count` mixed operations; returns the summed round-trip seconds.
    fn mixed_ops(&mut self, h: &mut Harness, live: &mut Live, count: usize) -> f64 {
        let mut waited = 0.0;
        for _ in 0..count {
            waited += match live.stream.next_op() {
                Op::Mutate(batch) => self.mutate(h, live, &batch),
                Op::Point { matching, v } => self.point_query(h, live, matching, v),
                Op::Full { matching } => self.full_query(h, live, matching),
            };
        }
        waited
    }

    /// Fetches both served vectors and checks them against the mirror.
    fn verify(&mut self, h: &mut Harness, live: &mut Live, when: &str) {
        let fetched = live
            .client
            .matching()
            .and_then(|m| live.client.coloring().map(|c| (m, c)));
        let (mate, colors) = match fetched {
            Ok(both) => both,
            Err(e) => {
                h.check(
                    &format!("{when}: served vectors are fetched"),
                    Err(e.to_string()),
                );
                return;
            }
        };
        let (rebuild_s, g) = timed(|| live.mirror.rebuild());
        h.layer("graph.rebuild_ms", rebuild_s * 1e3);
        let served = Matching::from_mates(mate);
        h.check(
            &format!("{when}: served matching is valid"),
            served.validate(&g),
        );
        h.check(
            &format!("{when}: served matching carries the half-approximation certificate"),
            half_approx_certificate(&g, served.mates()),
        );
        let cold = cmg_matching::seq::greedy(&g);
        h.check(
            &format!("{when}: served matching is bit-identical to a cold run"),
            if cold.mates() == served.mates() {
                Ok(())
            } else {
                Err("mate vectors differ".into())
            },
        );
        h.check(
            &format!("{when}: served coloring is proper"),
            proper_coloring(&g, &colors),
        );
        if live.in_step {
            h.check(
                &format!("{when}: mirror replay landed on the served answers"),
                if live.mate == served.mates() && live.colors == colors {
                    Ok(())
                } else {
                    Err("replayed and served vectors differ".into())
                },
            );
        }
        live.mate = served.mates().to_vec();
        live.colors = colors;
        live.in_step = true;
    }

    /// Shuts the server down and joins its thread.
    fn stop(&mut self, h: &mut Harness) {
        let Some(live) = self.live.take() else {
            return;
        };
        let stopped = live
            .client
            .shutdown_server()
            .map_err(|e| e.to_string())
            .and_then(|()| match live.server.join() {
                Ok(Ok(summary)) if summary.batches == live.acks => Ok(()),
                Ok(Ok(summary)) => Err(format!(
                    "server absorbed {} batches, client saw {} acks",
                    summary.batches, live.acks
                )),
                Ok(Err(e)) => Err(e.to_string()),
                Err(_) => Err("server thread panicked".into()),
            });
        h.check("server shuts down with every batch accounted for", stopped);
    }
}

impl Workload for Serve {
    fn setup(&mut self, h: &mut Harness) {
        self.stop(h);
        let g0 = assign_weights(
            &generators::grid2d(self.side, self.side),
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            self.seed,
        );
        let (bind_s, bound) = timed(|| {
            Server::bind(
                &g0,
                ServerConfig {
                    socket: self.socket.clone(),
                    serve: ServeConfig::default(),
                },
            )
        });
        if h.traced_run {
            h.samples.push("serve.bind_s", bind_s);
        }
        let connected = bound.and_then(|server| {
            let handle = std::thread::spawn(move || server.run());
            ServeClient::connect(&self.socket, Duration::from_secs(10)).map(|c| (c, handle))
        });
        let (client, server) = match connected {
            Ok(pair) => pair,
            Err(e) => {
                h.check("server binds and the client connects", Err(e.to_string()));
                return;
            }
        };
        let n = g0.num_vertices();
        let mut live = Live {
            client,
            server,
            stream: Stream::new(self.side, self.seed),
            mirror: MutableGraph::from_csr(&g0),
            mate: vec![NO_VERTEX; n],
            colors: vec![0; n],
            in_step: false,
            acks: 0,
        };
        self.mixed_ops(h, &mut live, WARMUP_OPS.min(self.segment_ops));
        self.verify(h, &mut live, "after warm-up");
        // Only the timed region's round trips are reported.
        self.log = Log::default();
        self.live = Some(live);
    }

    fn rep(&mut self, h: &mut Harness) -> RepTimes {
        let Some(mut live) = self.live.take() else {
            h.check("server is up before the segment", Err("it is not".into()));
            return RepTimes::default();
        };
        let segment = h.tracer.enter("core.rep");

        let cpu = CpuClock::now();
        let batch = live.stream.bulk_batch();
        let (bulk_s, ack) = timed(|| {
            h.tracer
                .time("serve.bulk_mutate", || live.client.mutate(&batch))
        });
        let mut cpu_s = CpuClock::now().since(&cpu).total_s();
        live.acks += 1;
        h.check(
            "bulk batch is absorbed by the recompute fallback",
            match ack {
                Ok(RepairAck::Done { mode: 1, .. }) => Ok(()),
                Ok(other) => Err(format!("{other:?}")),
                Err(e) => Err(e.to_string()),
            },
        );
        let applied = live.mirror.apply(&batch).map(drop);
        h.check("mirror applies the bulk batch", applied);
        live.in_step = false;
        let check = h.tracer.enter("check.verify_serve_s");
        self.verify(h, &mut live, "after the bulk batch");
        h.tracer.exit(check);

        let cpu = CpuClock::now();
        let (before_repairs, ops) = (self.log.mutate_us.len(), self.segment_ops - 1);
        let mixed_s = self.mixed_ops(h, &mut live, ops);
        cpu_s += CpuClock::now().since(&cpu).total_s();
        let check = h.tracer.enter("check.verify_serve_s");
        self.verify(h, &mut live, "at the end of the segment");
        h.tracer.exit(check);
        h.tracer.exit(segment);

        if !h.tracing() {
            self.log.recompute_ms.push(bulk_s * 1e3);
            self.log
                .ops_per_s
                .push(self.segment_ops as f64 / (bulk_s + mixed_s));
            self.log
                .repairs
                .push((self.log.mutate_us.len() - before_repairs) as f64);
        }
        self.live = Some(live);
        RepTimes {
            // Closed loop: the time the client spent waiting on the server.
            answer_wall_s: bulk_s + mixed_s,
            solve_wall_s: bulk_s,
            cpu_s,
        }
    }

    fn finish(&mut self, h: &mut Harness) {
        self.stop(h);
        if !h.traced_run {
            return;
        }
        let log = &self.log;
        let mut push = |name: &str, v: f64| h.samples.push(name, v);
        let (client_p50, server_p50) = (median(&log.mutate_us), median(&log.server_us));
        push("serve.mutate_p50_us", client_p50);
        push("serve.mutate_p99_us", nearest_rank(&log.mutate_us, 0.99));
        push("serve.mutate_server_p50_us", server_p50);
        push("serve.socket_codec_p50_us", client_p50 - server_p50);
        push("serve.query_p50_us", median(&log.query_us));
        push("serve.query_p99_us", nearest_rank(&log.query_us, 0.99));
        push("serve.fullquery_p50_ms", median(&log.fullquery_ms));
        push("serve.recompute_p50_ms", median(&log.recompute_ms));
        push("serve.ops_per_s", median(&log.ops_per_s));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        push("serve.dirty_matching_mean", mean(&log.dirty_matching));
        push("serve.dirty_coloring_mean", mean(&log.dirty_coloring));
        push("serve.repairs", median(&log.repairs));
    }
}
