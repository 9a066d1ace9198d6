//! The sweep's cells, digests, relations and pinned digest file, shared by
//! `tests/sweep.rs` and the named tests that each run a share of its small
//! tier (`owner`, `check_small_tier`); `tests/sweep.rs` describes the sweep.

use cmg_check::explore::schedule_fingerprint;
use cmg_check::{oracles, ObservedMatching};
use cmg_coloring::dist::ConflictScope;
use cmg_coloring::{assemble_coloring, Coloring, ColoringConfig, CommVariant};
use cmg_coloring::{DistColoring, JonesPlassmann};
use cmg_graph::generators::{circuit_like, erdos_renyi, grid2d, star};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::CsrGraph;
use cmg_matching::{assemble_mates, DistMatching, Matching};
use cmg_net::{NetConfig, NetTask};
use cmg_obs::{CollectingRecorder, Fnv1a};
use cmg_partition::simple::{block_partition, grid2d_partition, hash_partition};
use cmg_partition::DistGraph;
use cmg_runtime::snapshot::restore_encoded;
use cmg_runtime::{encode_snapshot, CostModel, DeliveryPolicy, EngineConfig, RankProgram};
use cmg_runtime::{Rank, RankCtx, RunStats, SimEngine, Status, ThreadedEngine};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sweep.digests");
/// Key prefix of the full tier's roll-up lines.
pub const FULL: &str = "full/";
/// Priority seed of distance-2 and Jones–Plassmann.
const SEED: u64 = 7;

#[derive(Clone, Copy, PartialEq)]
pub enum Program {
    Match,
    D1(CommVariant, usize),
    D2(usize),
    Jp,
    /// The [`Tokens`] workload at a seed, with `sync_rounds` on or off;
    /// it ignores the graph.
    Tokens(u64, bool),
}

/// A delivery policy; `Delay(src, k)` holds rank `min(src, p − 1)`'s
/// mail k rounds ([`LAST`] names the last rank at every p).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Order {
    Arrival,
    Random(u64),
    Reverse,
    Lifo,
    Delay(u32, u64),
}

pub const LAST: u32 = u32::MAX;

/// The one list of delivery policies, for p ranks: arrival, reverse,
/// LIFO, a 2-round hold of each rank in turn and `randoms` seeded merges
/// on Weyl-sequence seeds.
fn orders(p: u32, randoms: u64) -> Vec<Order> {
    let mut out = vec![Order::Arrival, Order::Reverse, Order::Lifo];
    out.extend((0..p).map(|src| Order::Delay(src, 2)));
    let weyl = |i: u64| Order::Random(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    out.extend((1..=randoms).map(weyl));
    out
}

/// How a cell's graph is split: contiguous blocks, hashed, or the √p × √p
/// tiles of a square grid graph.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Part {
    Block,
    Hash,
    Tiles,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Engine {
    Sim,
    Dense,
    Threaded,
    Net,
}

#[derive(Clone, Copy, PartialEq)]
pub struct Cell {
    pub program: Program,
    /// Index into [`graphs`].
    pub graph: usize,
    pub p: u32,
    pub part: Part,
    pub order: Order,
    pub free_link: bool,
    pub checkpoint: u64,
    pub restored: bool,
    pub engine: Engine,
    /// Pinned within its group's roll-up line ([`Cell::group`]), not on
    /// a line of its own.
    pub battery: bool,
}

/// `(engine, order, free_link, checkpoint, restored)`.
pub type Variant = (Engine, Order, bool, u64, bool);

/// Weighted graphs, so matching and colouring share them. Integer weights
/// tie; the path leaves a rank empty at p = 4; the edgeless graph has no
/// work at all. The last two are the small tier's adversarial batteries',
/// the second with tied weights, where only the id tie-break makes the
/// matching unique.
pub fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let uniform = |g, seed| assign_weights(&g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, seed);
    let integer = |g, max, seed| assign_weights(&g, WeightScheme::Integer { max }, seed);
    vec![
        ("er60", uniform(erdos_renyi(60, 180, 3), 3)),
        ("grid8", uniform(grid2d(8, 8), 1)),
        ("circuit", integer(circuit_like(120, 4), 8, 4)),
        ("star", uniform(star(24), 2)),
        ("path3", uniform(grid2d(1, 3), 1)),
        ("edgeless", CsrGraph::empty(5)),
        ("er32", uniform(erdos_renyi(32, 96, 11), 11)),
        ("er48", integer(erdos_renyi(48, 192, 12), 4, 12)),
    ]
}

impl Cell {
    pub fn key(&self, graphs: &[(&str, CsrGraph)]) -> String {
        let order = format!("{:?}", self.order).replace(' ', "");
        self.key_at(graphs, &order, &format!("{:?}", self.engine))
    }

    /// A battery cell's roll-up line: its key with `*` as order and engine.
    fn group(&self, graphs: &[(&str, CsrGraph)]) -> Option<String> {
        self.battery.then(|| self.key_at(graphs, "*", "*"))
    }

    fn key_at(&self, graphs: &[(&str, CsrGraph)], order: &str, engine: &str) -> String {
        let prog = match self.program {
            Program::Match => "match".to_string(),
            Program::D1(comm, s) => format!("d1-{comm:?}-s{s}"),
            Program::D2(s) => format!("d2-s{s}"),
            Program::Jp => "jp".to_string(),
            Program::Tokens(seed, sync) => format!("tokens{seed}{}", ["", "-sync"][sync as usize]),
        };
        let link = if self.free_link { "free" } else { "bgp" };
        let start = if self.restored { "restored" } else { "fresh" };
        let (graph, p, part, k) = (graphs[self.graph].0, self.p, self.part, self.checkpoint);
        format!("{prog}/{graph}/p{p}/{part:?}/{order}/{link}/ck{k}/{start}/{engine}").to_lowercase()
    }

    fn with(mut self, change: impl FnOnce(&mut Cell)) -> Cell {
        change(&mut self);
        self
    }

    /// The cell this one must equal: `(cell, on which digest, relation)`.
    /// A checkpointed threaded or net cell equals its `ck0` twin, which
    /// equals the simulator's; a simulated cell under any order gives its
    /// `arrival` twin's answer where the answer is order-free: always for
    /// matching, for distance-1 colouring when every phase is one
    /// superstep (`superstep_size ≥ n`), for distance-2 colouring too
    /// (its recolour set is sorted before the next phase colours it).
    fn partner(self, n: usize) -> Option<(Cell, Over, &'static str)> {
        let order_free = match self.program {
            Program::Match => true,
            Program::D1(_, s) | Program::D2(s) => s >= n,
            Program::Jp | Program::Tokens(..) => false,
        };
        let ck0 = self.with(|c| c.checkpoint = 0);
        let fresh = self.with(|c| c.restored = false);
        let sim = self.with(|c| c.engine = Engine::Sim);
        let arrival = self.with(|c| c.order = Order::Arrival);
        match self.engine {
            _ if self.checkpoint > 0 => Some((ck0, Over::Full, "checkpointed ≢ ck0")),
            _ if self.restored => Some((fresh, Over::Full, "restored ≢ fresh")),
            Engine::Dense => Some((sim, Over::Full, "dense reference ≢ scheduled")),
            Engine::Sim if order_free && self.order != Order::Arrival => {
                Some((arrival, Over::Answer, "answer ≢ arrival"))
            }
            Engine::Sim => None,
            _ => Some((sim, Over::Cross, "engine ≢ sim")),
        }
    }
}

/// The digest a relation compares.
#[derive(Clone, Copy, PartialEq)]
enum Over {
    Full,
    Cross,
    Answer,
}

/// Every `programs` × `places` × `variants` cell an engine can run:
/// the threaded and net engines take no delivery order, and net no free
/// link, restored start, distance-2 or token workload.
pub fn cells(
    programs: &[Program],
    places: &[(usize, u32, Part)],
    variants: &[Variant],
) -> Vec<Cell> {
    let mut out = Vec::new();
    for &program in programs {
        for &(graph, p, part) in places {
            for &(engine, order, free_link, checkpoint, restored) in variants {
                let local = matches!(engine, Engine::Sim | Engine::Dense);
                let off_net = free_link
                    || restored
                    || matches!(program, Program::D2(_) | Program::Tokens(..));
                if (!local && order != Order::Arrival) || (engine == Engine::Net && off_net) {
                    continue;
                }
                let order = match order {
                    Order::Delay(src, k) => Order::Delay(src.min(p - 1), k),
                    order => order,
                };
                out.push(Cell {
                    program,
                    graph,
                    p,
                    part,
                    order,
                    free_link,
                    checkpoint,
                    restored,
                    engine,
                    battery: false,
                });
            }
        }
    }
    out
}

/// Every `programs` × `places` cell on the simulator's free link under
/// every order of [`orders`], pinned as one roll-up line per group.
fn battery(programs: &[Program], places: &[(usize, u32, Part)], randoms: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for &place in places {
        let sim = |order| (Engine::Sim, order, true, 0, false);
        let variants: Vec<Variant> = orders(place.1, randoms).into_iter().map(sim).collect();
        out.extend(cells(programs, &[place], &variants));
    }
    out.iter_mut().for_each(|c| c.battery = true);
    out
}

pub fn small_tier() -> Vec<Cell> {
    use Engine::*;
    use Order::*;
    use Part::*;
    let programs = [
        Program::Match,
        Program::D1(CommVariant::Neighbor, 1),
        Program::D1(CommVariant::Fiac, 4),
        Program::D1(CommVariant::Fiab, 4),
        Program::D2(4),
        Program::Jp,
    ];
    let placements = [(0, 3, Hash), (1, 4, Block), (4, 4, Block)];
    let variants = [
        (Sim, Arrival, false, 0, false),
        (Sim, Arrival, false, 1, false),
        (Sim, Arrival, false, 0, true),
        (Dense, Arrival, false, 0, false),
        (Sim, Reverse, true, 0, false),
        (Dense, Reverse, true, 0, false),
        (Sim, Delay(LAST, 2), true, 0, false),
        (Dense, Delay(LAST, 2), true, 0, false),
        (Sim, Arrival, true, 0, false),
        (Sim, Random(1), false, 0, false),
        (Sim, Reverse, true, 1, false),
        (Sim, Lifo, false, 0, false),
        (Threaded, Arrival, false, 0, false),
        (Threaded, Arrival, false, 1, false),
        (Threaded, Arrival, true, 0, false),
    ];
    let mut all = cells(&programs, &placements, &variants);
    let net = [0, 1].map(|k| (Net, Arrival, false, k, false));
    all.extend(cells(&programs, &placements[..1], &net));
    // Tied weights at p = 8 on a block partition, on every engine.
    let wide = [
        (Sim, Arrival, false, 0, false),
        (Sim, Arrival, false, 1, false),
        (Threaded, Arrival, false, 0, false),
        net[0],
        net[1],
    ];
    all.extend(cells(&[programs[0], programs[3]], &[(2, 8, Block)], &wide));
    // The policy batteries: a 4-rank 8×8 grid on 2×2 tiles (147 orders)
    // for matching and sub-phase colouring; two random graphs for
    // matching and colouring in bulk-synchronous and one-vertex supersteps.
    let d1 = |s| Program::D1(CommVariant::Neighbor, s);
    all.extend(battery(&[Program::Match, d1(4)], &[(1, 4, Tiles)], 140));
    let adversarial = [Program::Match, d1(1000), d1(1)];
    all.extend(battery(&adversarial, &[(6, 5, Hash), (7, 3, Hash)], 16));
    // Token workloads, scheduled against the dense reference: bundled on
    // the Blue Gene/P link, and one packet per message on the free link,
    // where every send arrives at once. Pinned as battery groups too.
    let mut tokens = Vec::new();
    for sync in [false, true] {
        tokens.extend([1, 2].map(|seed| Program::Tokens(seed, sync)));
    }
    let mut variants = Vec::new();
    for order in [Arrival, Random(1), Reverse, Lifo, Delay(LAST, 2)] {
        for free_link in [false, true] {
            variants.extend([Sim, Dense].map(|e| (e, order, free_link, 0, false)));
        }
    }
    let mut tokens = cells(&tokens, &[(5, 3, Block), (5, 8, Block)], &variants);
    tokens.iter_mut().for_each(|c| c.battery = true);
    all.extend(tokens);
    all
}

/// A cell's digests: `full` over all it observes, `cross` over what every
/// engine reports alike (answer, rounds, every rank's traffic), `answer`,
/// and the simulator's delivery [`schedule_fingerprint`].
#[derive(Clone, Copy)]
pub struct Digests {
    full: u64,
    cross: u64,
    answer: u64,
    schedule: u64,
}

/// Every engine's matching is valid and carries the ½-approximation
/// certificate. (A failed `cmg-check` oracle panics with its name, and
/// [`run_all`] names the cell.)
fn fold_matching(h: &mut Fnv1a, g: &CsrGraph, m: &Matching, weight: f64) {
    oracles::valid_matching(g, m).expect("valid matching");
    oracles::half_approx_certificate(g, m).expect("½-approximation certificate");
    m.mates().iter().for_each(|&v| h.u64(u64::from(v)));
    h.u64(weight.to_bits());
}

/// A proper colouring has no conflicts, so its phases are its summary.
fn fold_coloring(h: &mut Fnv1a, g: &CsrGraph, c: &Coloring, phases: u32) {
    oracles::proper_coloring(g, c).expect("proper coloring");
    c.colors().iter().for_each(|&v| h.u64(u64::from(v)));
    h.u64(u64::from(phases));
}

/// Folds a finished rank set: the answer and summary as every engine
/// reports them, then each rank's counters only in-process engines see.
trait Answer: RankProgram + Sized {
    fn answer(qs: &[Self], g: &CsrGraph, h: &mut Fnv1a);

    fn counters(&self, _h: &mut Fnv1a) {}
}

impl Answer for ObservedMatching {
    fn answer(qs: &[Self], g: &CsrGraph, h: &mut Fnv1a) {
        let shares = qs.iter().map(|q| q.inner.local_mates());
        let m =
            Matching::from_mates(assemble_mates(g.num_vertices(), shares).expect("ranks agree"));
        // Ledger first: an unanswered request leaves a rank unresolved too.
        oracles::request_ledger(qs, &m).expect("request ledger");
        oracles::matching_quiescence(qs, false).expect("quiescence");
        let weight = qs.iter().map(|q| q.inner.local_matched_weight()).sum();
        fold_matching(h, g, &m, weight);
    }
}

impl<S: ConflictScope> Answer for DistColoring<S> {
    fn answer(qs: &[Self], g: &CsrGraph, h: &mut Fnv1a) {
        oracles::coloring_quiescence(qs, false).expect("quiescence");
        let phases = qs.iter().map(|q| q.phases_executed).max().unwrap_or(0);
        fold_coloring(h, g, &assemble_coloring(qs, g.num_vertices()), phases);
    }

    fn counters(&self, h: &mut Fnv1a) {
        h.u64(u64::from(self.phases_executed));
        h.u64(self.total_recolored);
    }
}

/// Jones–Plassmann has no speculative phases: it reports 0, as on net.
impl Answer for JonesPlassmann {
    fn answer(qs: &[Self], g: &CsrGraph, h: &mut Fnv1a) {
        fold_coloring(h, g, &assemble_coloring(qs, g.num_vertices()), 0);
    }
}

/// A random messaging workload of [`Program::Tokens`]: each of the
/// first few ranks starts a few tokens that hop to pseudo-random peers, a
/// few copies per hop, until their time to live runs out; every rank
/// stays `Active` for its first rounds even without mail, and charges
/// some work each step. The seed draws each of those numbers.
#[derive(Clone)]
pub struct Tokens {
    seed: u64,
    received: u64,
}

type Token = (u32, u32);

impl Tokens {
    /// Knob `i` of the workload's shape, below `m`.
    fn knob(&self, i: u64, m: u64) -> u32 {
        let x = (self.seed * 8 + i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((x >> 33) % m) as u32
    }

    fn peer(ctx: &RankCtx<Token>, salt: u32) -> Rank {
        let x = (u64::from(ctx.rank()) << 32 | u64::from(salt)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((x ^ x >> 31) % u64::from(ctx.num_ranks())) as Rank
    }

    fn status(&self, ctx: &mut RankCtx<Token>) -> Status {
        ctx.charge(self.knob(0, 3).into());
        let active = ctx.round() <= self.knob(1, 4).into();
        if active {
            Status::Active
        } else {
            Status::Idle
        }
    }
}

impl RankProgram for Tokens {
    type Msg = Token;
    cmg_runtime::trivial_snapshot!();

    fn on_start(&mut self, ctx: &mut RankCtx<Token>) -> Status {
        if ctx.rank() <= self.knob(2, 3) {
            for t in 0..=self.knob(3, 3) {
                ctx.send(Self::peer(ctx, t), &(2 + self.knob(4, 4), t));
            }
        }
        self.status(ctx)
    }

    fn on_round(
        &mut self,
        inbox: &mut Vec<(Rank, Vec<Token>)>,
        ctx: &mut RankCtx<Token>,
    ) -> Status {
        for (ttl, tag) in inbox.drain(..).flat_map(|(_, msgs)| msgs) {
            self.received += 1;
            ctx.charge(1);
            for f in (0..=self.knob(5, 2)).filter(|_| ttl > 0) {
                let dst = Self::peer(ctx, tag.wrapping_add(f).wrapping_mul(31));
                ctx.send(dst, &(ttl - 1, tag.wrapping_add(f)));
            }
        }
        self.status(ctx)
    }
}

impl Answer for Tokens {
    fn answer(qs: &[Self], _g: &CsrGraph, h: &mut Fnv1a) {
        qs.iter().for_each(|q| h.u64(q.received));
    }
}

/// Finishes the digests from the folded answer (`cross`) and everything
/// else a run observed but its stats (`full`).
fn finish(answer: Fnv1a, mut full: Fnv1a, stats: &RunStats, schedule: u64) -> Digests {
    let mut cross = answer;
    cross.u64(stats.rounds);
    full.u64(stats.rounds);
    for r in &stats.per_rank {
        let sent = [r.packets_sent, r.messages_sent, r.bytes_sent];
        let received = [r.packets_received, r.messages_received, r.bytes_received];
        for x in sent.into_iter().chain(received) {
            cross.u64(x);
            full.u64(x);
        }
        for x in [r.work, r.rounds_active, r.virtual_time.to_bits()] {
            full.u64(x);
        }
    }
    Digests {
        full: full.finish(),
        cross: cross.finish(),
        answer: answer.finish(),
        schedule,
    }
}

fn run_local<P: Answer>(
    cell: &Cell,
    g: &CsrGraph,
    parts: Vec<DistGraph>,
    make: impl Fn(DistGraph) -> P,
) -> Digests {
    let mut programs: Vec<P> = parts.into_iter().map(make).collect();
    if cell.restored {
        let restore = |q: P| {
            let mut bytes = Vec::new();
            encode_snapshot(&q.snapshot(), &mut bytes);
            restore_encoded(q.meta(), &bytes).expect("snapshot decodes")
        };
        programs = programs.into_iter().map(restore).collect();
    }
    let cfg = EngineConfig {
        cost: if cell.free_link {
            CostModel::compute_only()
        } else {
            CostModel::blue_gene_p()
        },
        bundling: !cell.free_link,
        sync_rounds: matches!(cell.program, Program::Tokens(_, true)),
        delivery: cell.order.policy(),
        record_trace: true,
        max_rounds: 100_000,
        checkpoint_every: cell.checkpoint,
        ..Default::default()
    };
    let (programs, stats, trace, events) = if cell.engine == Engine::Threaded {
        let r = ThreadedEngine::new(programs, cfg).run();
        assert!(!r.hit_round_cap, "round cap");
        (r.programs, r.stats, Vec::new(), None)
    } else {
        let (recorder, handle) = CollectingRecorder::shared();
        let engine = SimEngine::new(programs, cfg.with_recorder(handle));
        let r = match cell.engine {
            Engine::Dense => engine.run_dense_reference(),
            _ => engine.run(),
        };
        assert!(!r.hit_round_cap, "round cap");
        let events = recorder.take();
        oracles::message_conservation(&r.stats, &events).expect("conservation");
        // Distance-2's middles can make a vertex that kept its colour lose
        // to a recoloured one, so its count may grow before it ends at 0.
        if let Program::D1(..) = cell.program {
            oracles::conflicts_monotone(&events).expect("conflicts monotone");
        }
        (r.programs, r.stats, r.trace, Some(events))
    };
    let mut answer = Fnv1a::new();
    P::answer(&programs, g, &mut answer);
    let mut full = answer;
    programs.iter().for_each(|q| q.counters(&mut full));
    for t in trace {
        let vt = t.max_virtual_time.to_bits();
        for x in [t.round, t.ranks_stepped, t.packets, t.messages, t.bytes, vt] {
            full.u64(x);
        }
    }
    let events = events.unwrap_or_default();
    events.iter().for_each(|e| full.event(e));
    finish(answer, full, &stats, schedule_fingerprint(&events))
}

fn run_net(cell: &Cell, g: &CsrGraph, parts: Vec<DistGraph>) -> Digests {
    let task = match cell.program {
        Program::Match => NetTask::Matching,
        Program::D1(comm, s) => NetTask::Coloring(d1_config(comm, s)),
        Program::Jp => NetTask::JonesPlassmann { seed: SEED },
        Program::D2(_) | Program::Tokens(..) => unreachable!("no net task"),
    };
    let cfg = NetConfig {
        checkpoint_every: cell.checkpoint,
        ..Default::default()
    };
    let out = cmg_net::run_task(parts, task, &cfg).expect("net run");
    let (n, mut answer) = (g.num_vertices(), Fnv1a::new());
    if cell.program == Program::Match {
        let (m, weight) = out.matching(n).expect("one matching");
        fold_matching(&mut answer, g, &m, weight);
    } else {
        let (c, phases, conflicts) = out.coloring(n).expect("one coloring");
        assert_eq!(conflicts, 0, "a proper coloring reports no conflicts");
        fold_coloring(&mut answer, g, &c, phases);
    }
    finish(answer, answer, &out.stats, 0)
}

fn d1_config(comm: CommVariant, superstep_size: usize) -> ColoringConfig {
    ColoringConfig {
        comm,
        superstep_size,
        ..Default::default()
    }
}

impl Order {
    fn policy(self) -> DeliveryPolicy {
        match self {
            Order::Arrival => DeliveryPolicy::Arrival,
            Order::Random(seed) => DeliveryPolicy::RandomPermutation { seed },
            Order::Reverse => DeliveryPolicy::ReverseRank,
            Order::Lifo => DeliveryPolicy::Lifo,
            Order::Delay(src, rounds) => DeliveryPolicy::DelayRank { src, rounds },
        }
    }
}

fn run_cell(cell: &Cell, graphs: &[(&str, CsrGraph)]) -> Digests {
    let (g, p) = (&graphs[cell.graph].1, cell.p);
    let partition = match cell.part {
        Part::Block => block_partition(g.num_vertices(), p),
        Part::Hash => hash_partition(g.num_vertices(), p, 5),
        Part::Tiles => {
            let (side, q) = (g.num_vertices().isqrt(), p.isqrt());
            grid2d_partition(side, side, q, q)
        }
    };
    let parts = DistGraph::build_all(g, &partition);
    match cell.program {
        _ if cell.engine == Engine::Net => run_net(cell, g, parts),
        Program::Match => run_local(cell, g, parts, |dg| {
            ObservedMatching::new(DistMatching::new(dg))
        }),
        Program::D1(comm, s) => {
            let cfg = d1_config(comm, s);
            run_local(cell, g, parts, |dg| DistColoring::new(dg, cfg))
        }
        Program::D2(s) => run_local(cell, g, parts, |dg| DistColoring::distance2(dg, s, SEED)),
        Program::Jp => run_local(cell, g, parts, |dg| JonesPlassmann::new(dg, SEED)),
        Program::Tokens(seed, _) => run_local(cell, g, parts, |_| Tokens { seed, received: 0 }),
    }
}

/// Runs `cells` on every core; digests come back in cell order whatever
/// the thread count. A cell that panics is named before the panic goes on.
pub fn run_all(cells: &[Cell], graphs: &[(&str, CsrGraph)]) -> Vec<Digests> {
    let run = |cell: &Cell| {
        catch_unwind(AssertUnwindSafe(|| run_cell(cell, graphs))).unwrap_or_else(|panic| {
            eprintln!("panicked: {}", cell.key(graphs));
            resume_unwind(panic)
        })
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs: Vec<Vec<Digests>> = std::thread::scope(|scope| {
        let share = |w| cells.iter().skip(w).step_by(workers).map(run).collect();
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || share(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a cell panicked"))
            .collect()
    });
    (0..cells.len())
        .map(|i| runs[i % workers][i / workers])
        .collect()
}

/// Checks every cell's relation, and that a second run of the cells
/// `rerun` picks gives the same digests; one line per violation. A
/// partner that is not among `cells` is read from `pinned` when the
/// relation is over the full digest, and run otherwise.
pub fn relations(
    cells: &[Cell],
    digests: &[Digests],
    graphs: &[(&str, CsrGraph)],
    pinned: &BTreeMap<String, u64>,
    rerun: impl Fn(&Cell) -> bool,
) -> Vec<String> {
    let partner = |c: &Cell| c.partner(graphs[c.graph].1.num_vertices());
    let keys: Vec<String> = cells.iter().map(|c| c.key(graphs)).collect();
    let mut index: HashMap<String, Digests> = keys.iter().cloned().zip(digests.to_vec()).collect();
    let mut missing = BTreeMap::new();
    for (twin, over, _) in cells.iter().filter_map(partner) {
        let key = twin.key(graphs);
        if !index.contains_key(&key) && (over != Over::Full || !pinned.contains_key(&key)) {
            missing.insert(key, twin);
        }
    }
    let twins: Vec<Cell> = missing.into_values().collect();
    let twin_keys = twins.iter().map(|c| c.key(graphs));
    index.extend(twin_keys.zip(run_all(&twins, graphs)));
    let mut bad = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let Some((twin, over, relation)) = partner(cell) else {
            continue;
        };
        let pick = |d: &Digests| match over {
            Over::Full => d.full,
            Over::Cross => d.cross,
            Over::Answer => d.answer,
        };
        let key = twin.key(graphs);
        let b = index.get(&key).map_or_else(|| pinned[&key], pick);
        let a = pick(&digests[i]);
        if a != b {
            bad.push(format!("{relation}: {} {a:016x}, {key} {b:016x}", keys[i]));
        }
    }
    let again: Vec<usize> = (0..cells.len()).filter(|&i| rerun(&cells[i])).collect();
    let subset: Vec<Cell> = again.iter().map(|&i| cells[i]).collect();
    for (&i, b) in again.iter().zip(run_all(&subset, graphs)) {
        let (a, b, key) = (digests[i].full, b.full, &keys[i]);
        if a != b {
            bad.push(format!("second run ≢ first: {key} {a:016x} then {b:016x}"));
        }
    }
    bad
}

/// The digest file's lines of one tier: the full tier's keys start with
/// [`FULL`].
pub fn pinned(full: bool) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    let lines = text.lines().filter(|l| !l.starts_with('#'));
    let parse = |line: &str| {
        let (key, hex) = line.rsplit_once(' ').expect("`cell digest` line");
        let digest = u64::from_str_radix(hex, 16).expect("hex digest");
        (key.to_string(), digest)
    };
    let mut tier: BTreeMap<_, _> = lines.map(parse).collect();
    tier.retain(|key, _| key.starts_with(FULL) == full);
    tier
}

/// Serializes read-modify-write of the digest file across the two tiers.
#[expect(
    clippy::disallowed_types,
    reason = "test threads take this lock alone, around the digest file"
)]
static GOLDEN_FILE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Under `UPDATE_GOLDEN`, rewrites the file's lines of `got`'s tier with
/// `got` and returns nothing. Otherwise returns one line per changed or
/// new cell of `got` and, given the tier's keys `all`, per pinned cell of
/// the tier gone from it.
pub fn pin(got: Vec<(String, u64)>, all: Option<&[String]>) -> Vec<String> {
    let _lock = GOLDEN_FILE.lock().unwrap_or_else(|e| e.into_inner());
    let full = got.first().is_some_and(|(k, _)| k.starts_with(FULL));
    let mut mine = pinned(full);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut out = String::from(
            "# One `cell digest` line per small-tier cell of tests/sweep.rs or battery\n\
             # group (`*` order and engine), then one roll-up per (program, engine)\n\
             # of its full tier. Regenerate with UPDATE_GOLDEN=1.\n",
        );
        let got: BTreeMap<_, _> = got.into_iter().collect();
        let (small, rollups) = if full {
            (pinned(false), got)
        } else {
            (got, pinned(true))
        };
        for (key, d) in small.iter().chain(&rollups) {
            out.push_str(&format!("{key} {d:016x}\n"));
        }
        std::fs::write(GOLDEN, out).expect("write digest file");
        return Vec::new();
    }
    let mut diff = Vec::new();
    for (key, new) in got {
        match mine.remove(&key) {
            Some(old) if old == new => {}
            Some(old) => diff.push(format!("changed: {key} {old:016x} -> {new:016x}")),
            None => diff.push(format!("new: {key} {new:016x}")),
        }
    }
    if let Some(all) = all {
        mine.retain(|key, _| !all.contains(key));
        diff.extend(
            mine.iter()
                .map(|(key, old)| format!("gone: {key} {old:016x}")),
        );
    }
    diff
}

/// [`pin`]s `cells` one line each, or one line per `group` (FNV-1a over
/// its cells' keys and full digests); a group of tiled cells must also
/// show 100 distinct delivery schedules ([`schedule_fingerprint`]).
pub fn pin_cells(
    cells: &[Cell],
    digests: &[Digests],
    graphs: &[(&str, CsrGraph)],
    group: impl Fn(&Cell) -> Option<String>,
    all: Option<&[String]>,
) -> Vec<String> {
    let (mut got, mut problems) = (Vec::new(), Vec::new());
    let mut groups: BTreeMap<String, (Fnv1a, BTreeSet<u64>, bool)> = BTreeMap::new();
    for (cell, d) in cells.iter().zip(digests) {
        let key = cell.key(graphs);
        let Some(group) = group(cell) else {
            got.push((key, d.full));
            continue;
        };
        let (h, schedules, tiles) = groups.entry(group).or_default();
        h.bytes(key.as_bytes());
        h.u64(d.full);
        schedules.insert(d.schedule);
        *tiles = cell.part == Part::Tiles;
    }
    for (group, (h, schedules, tiles)) in groups {
        let n = schedules.len();
        if tiles && n < 100 {
            problems.push(format!("{group}: {n} distinct schedules < 100"));
        }
        got.push((group, h.finish()));
    }
    problems.extend(pin(got, all));
    problems
}

pub fn fail_on(problems: &[String]) {
    problems.iter().for_each(|line| eprintln!("{line}"));
    let n = problems.len();
    assert!(
        n == 0,
        "{n} sweep problems; UPDATE_GOLDEN=1 re-pins an intended change"
    );
}

/// Threaded and net cells: the OS schedules their ranks, so a second run
/// is a relation of its own.
pub fn os_scheduled(cell: &Cell) -> bool {
    matches!(cell.engine, Engine::Threaded | Engine::Net)
}

/// The small-tier test of `tests/sweep.rs`, which runs the cells no named
/// slice below takes and, under `UPDATE_GOLDEN`, the whole tier.
pub const REST: &str = "small_tier_matches_the_pinned_digests";

/// The test that runs a small-tier cell. The named tests split the tier,
/// so each cell runs once per `cargo test`: a threaded or net cell at
/// `ck0` shares its test with the simulator cell it must equal on answer
/// and traffic, and every other relation reads its partner's pinned
/// digest when another test runs the partner.
pub fn owner(c: &Cell) -> &'static str {
    use Engine::*;
    use Program::*;
    if c.battery {
        return match c.program {
            Tokens(..) if c.free_link => "equal_arrival_times_keep_delivery_order",
            Tokens(..) => "scheduler_matches_dense_reference",
            Match if c.part == Part::Tiles => "matching_oracles_hold_on_over_100_interleavings",
            _ if c.part == Part::Tiles => "coloring_oracles_hold_on_over_100_interleavings",
            D1(_, 1) => "subphase_supersteps_stay_valid_under_adversarial_schedules",
            _ => "answers_survive_adversarial_schedules",
        };
    }
    if c.checkpoint > 0 && c.engine != Net {
        return match (c.engine, c.program) {
            (Threaded, _) => "threaded_snapshot_equivalence",
            (_, Match) => "matching_snapshot_equivalence",
            (_, D1(..)) => "coloring_snapshot_equivalence",
            (_, D2(_)) => "d2_snapshot_equivalence",
            (_, Jp) => "jp_snapshot_equivalence",
            (_, Tokens(..)) => REST,
        };
    }
    let engines =
        c.engine == Net || (c.engine != Dense && c.order == Order::Arrival && !c.restored);
    match c.program {
        _ if c.engine == Dense => "parallel_sim_is_bit_identical",
        Match if engines => "matching_identical_across_all_three_engines",
        D1(..) if engines => "coloring_identical_across_all_three_engines",
        Jp if engines => "jones_plassmann_identical_on_net_engine",
        D2(_) if engines => "zero_interval_is_ignored",
        D2(_) => "distance2_runs_are_pinned",
        _ if c.restored => REST,
        _ => "sim_runs_are_reproducible",
    }
}

/// Runs the small-tier cells [`owner`] gives `slice`, checks their
/// relations, a second run of the cells `rerun` picks and every digest
/// against the pinned file. Under `UPDATE_GOLDEN` only [`REST`] runs: the
/// whole tier, re-pinned.
pub fn check_small_tier(slice: &str, rerun: impl Fn(&Cell) -> bool) {
    let (graphs, tier) = (graphs(), small_tier());
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update && slice != REST {
        return;
    }
    let cells: Vec<Cell> = tier
        .iter()
        .copied()
        .filter(|c| update || owner(c) == slice)
        .collect();
    assert!(!cells.is_empty(), "no cell is {slice}'s");
    let digests = run_all(&cells, &graphs);
    let mut problems = relations(&cells, &digests, &graphs, &pinned(false), rerun);
    let line = |c: &Cell| c.group(&graphs).unwrap_or_else(|| c.key(&graphs));
    let all: Vec<String> = tier.iter().map(line).collect();
    let all = (slice == REST).then_some(&all[..]);
    problems.extend(pin_cells(
        &cells,
        &digests,
        &graphs,
        |c| c.group(&graphs),
        all,
    ));
    fail_on(&problems);
}
