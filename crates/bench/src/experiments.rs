//! The experiment table: every table, figure, ablation and extension of
//! EXPERIMENTS.md is one [`Experiment`] — a `run` that returns what the
//! experiment prints *as data* ([`Section`]s of typed [`Cell`]s) and a
//! `check` that asserts its shape claim on those exact values.
//! `bin/repro.rs` prints and checks them; nothing here writes a file.
//!
//! All timings are *simulated* (Blue Gene/P cost model) and therefore
//! bit-reproducible on any host, which is what lets the checks be exact.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "experiments fail fast by design: an invalid matching or coloring, or a check \
              naming a column the table lacks, aborts the run with a contextual message"
)]

use crate::setup::{self, Scale};
use cmg_coloring::distance2::{greedy_d2, validate_d2};
use cmg_coloring::seq::Ordering;
use cmg_coloring::{assemble_coloring, DistColoring, Distance2};
use cmg_core::prelude::*;
use cmg_core::report::{fmt_count, fmt_time, Table};
use cmg_graph::generators::grid2d;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_matching::dist::assemble_matching;
use cmg_matching::{exact, seq, DistMatching};
use cmg_partition::grid2d_dist;
use cmg_partition::simple::{
    bfs_partition, block_partition, grid2d_partition, square_processor_grid,
};
use cmg_runtime::SimEngine;

/// One table cell: its column, the text the table prints and the exact
/// value behind it (`NaN` for a label) — a row is built once, and checked
/// on what was measured rather than on what was rounded for display.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Header of the column the cell belongs to.
    pub col: &'static str,
    /// What the table prints.
    pub text: String,
    /// The value the text was formatted from.
    pub value: f64,
}

impl Cell {
    /// A cell printing `text` for `value`.
    pub fn new(col: &'static str, text: String, value: f64) -> Cell {
        Cell { col, text, value }
    }

    /// A label.
    pub fn text(col: &'static str, s: impl Into<String>) -> Cell {
        Cell::new(col, s.into(), f64::NAN)
    }

    /// A plain integer.
    pub fn int(col: &'static str, n: impl TryInto<u64>) -> Cell {
        let n = n.try_into().ok().expect("count fits u64");
        Cell::new(col, n.to_string(), n as f64)
    }

    /// An integer with thousands separators.
    pub fn count(col: &'static str, n: u64) -> Cell {
        Cell::new(col, fmt_count(n), n as f64)
    }

    /// Simulated seconds, printed in engineering units.
    pub fn time(col: &'static str, seconds: f64) -> Cell {
        Cell::new(col, fmt_time(seconds), seconds)
    }

    /// A float printed with `decimals` places.
    pub(crate) fn fixed(col: &'static str, x: f64, decimals: usize) -> Cell {
        Cell::new(col, format!("{x:.decimals$}"), x)
    }
}

/// A table row; every row of a section has the same columns.
pub type Row = Vec<Cell>;

/// How two rows' values in one column must relate: `f64::lt`, `f64::le`
/// or `f64::eq` (bit-equal: the simulated outputs are exact).
pub type Rel = fn(&f64, &f64) -> bool;

/// One printed block of an experiment: caption, table, trailing notes.
#[derive(Clone, Debug)]
pub struct Section {
    /// Lines above the table.
    pub caption: String,
    /// Data rows (at least one; the first names the columns).
    pub rows: Vec<Row>,
    /// Lines below the table (the paper's expectation), or empty.
    pub notes: &'static str,
}

impl Section {
    /// Index of column `name`; panics if a check names a missing column.
    fn col(&self, name: &str) -> usize {
        let found = self.rows[0].iter().position(|c| c.col == name);
        found.unwrap_or_else(|| panic!("no column {name:?}"))
    }

    /// `Err` naming both rows unless `rel(a[col], b[col])`.
    fn require(&self, a: &Row, rel: Rel, b: &Row, col: &str) -> Verdict {
        let (x, y) = (&a[self.col(col)], &b[self.col(col)]);
        let (xt, yt) = (x.text.trim(), y.text.trim());
        let what = format!("{col} {xt} against {yt} of `{}`", label(b));
        ensure(rel(&x.value, &y.value), a, &what)
    }
}

impl std::fmt::Display for Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header: Vec<&str> = self.rows[0].iter().map(|c| c.col).collect();
        let mut t = Table::new(&header);
        for row in &self.rows {
            t.row(&row.iter().map(|c| c.text.clone()).collect::<Vec<_>>());
        }
        write!(f, "{}\n{t}\n", self.caption)?;
        if !self.notes.is_empty() {
            writeln!(f, "{}", self.notes)?;
        }
        Ok(())
    }
}

/// A check's verdict: `Err` names the offending row.
pub type Verdict = Result<(), String>;

/// One entry of the experiment table.
pub struct Experiment {
    /// Name, as `repro --only` takes it and EXPERIMENTS.md cites it.
    pub name: &'static str,
    /// Runs the experiment at a scale and returns what it prints.
    pub run: fn(Scale) -> Vec<Section>,
    /// The shape claim EXPERIMENTS.md makes for the experiment.
    pub check: fn(&[Section]) -> Verdict,
}

/// Every experiment, in EXPERIMENTS.md / `repro_output.txt` order.
#[rustfmt::skip] // a table: one entry per line
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1_1", run: table1_1, check: check_table1_1 },
    Experiment { name: "table5_1", run: table5_1, check: check_table5_1 },
    Experiment { name: "fig5_1", run: fig5_1, check: check_fig5_1 },
    Experiment { name: "fig5_2", run: fig5_2, check: check_fig5_2 },
    Experiment { name: "fig5_3", run: fig5_3, check: check_fig5_3 },
    Experiment { name: "fig5_4", run: fig5_4, check: check_fig5_4 },
    Experiment { name: "ablation_bundling", run: bundling, check: check_bundling },
    Experiment { name: "ablation_comm_variants", run: comm_variants, check: check_comm_variants },
    Experiment { name: "ablation_superstep", run: superstep, check: check_superstep },
    Experiment { name: "ablation_jp", run: jones_plassmann, check: check_jones_plassmann },
    Experiment { name: "ablation_weight_dist", run: weight_dist, check: check_weight_dist },
    Experiment { name: "ablation_sync", run: sync_async, check: check_sync_async },
    Experiment { name: "ext_distance2", run: distance2, check: check_distance2 },
    Experiment { name: "quality_vs_p", run: quality_vs_p, check: check_quality_vs_p },
];

/// A row's leading cells, enough to find it in the printed table.
fn label(row: &Row) -> String {
    let cells: Vec<&str> = row.iter().take(3).map(|c| c.text.trim()).collect();
    cells.join(" | ")
}

/// `Err` naming `row` unless `ok`.
fn ensure(ok: bool, row: &Row, what: &str) -> Verdict {
    if ok {
        Ok(())
    } else {
        Err(format!("row `{}`: {what}", label(row)))
    }
}

/// `Err` unless every row relates to the row above it as `rel` in `col`.
fn each_step(s: &Section, rel: Rel, col: &str) -> Verdict {
    let mut steps = s.rows.windows(2);
    steps.try_for_each(|w| s.require(&w[1], rel, &w[0], col))
}

/// Side of the square grid the ablations run on.
fn ablation_grid_side(scale: Scale) -> usize {
    scale.pick(256, 512, 1024)
}

/// Runs `case` on the coloring ablations' two inputs at each rank count:
/// the `k × k` grid under a uniform 2-D distribution, then the circuit
/// graph under 1-D blocks (the high-cut regime of Fig 5.4).
fn coloring_cases(
    scale: Scale,
    k: usize,
    ranks: &[u32],
    mut case: impl FnMut(&'static str, &CsrGraph, u32, &Partition),
) {
    let (grid, circuit) = (grid2d(k, k), setup::circuit_coloring_graph(scale));
    for &p in ranks {
        let (pr, pc) = square_processor_grid(p);
        case("grid", &grid, p, &grid2d_partition(k, k, pr, pc));
    }
    for &p in ranks {
        let part = block_partition(circuit.num_vertices(), p);
        case("circuit", &circuit, p, &part);
    }
}

/// Table 1.1 — quality of the ½-approximation matching relative to the
/// optimal solution, on bipartite graphs.
fn table1_1(scale: Scale) -> Vec<Section> {
    let row = |(name, graph): (&str, BipartiteGraph)| {
        let g = graph.to_general();
        let approx = seq::local_dominant(&g);
        approx.validate(&g).expect("invalid matching");
        let (w, opt) = (approx.weight(&g), exact::max_weight_bipartite(&graph));
        let quality = if opt.weight > 0.0 {
            100.0 * w / opt.weight
        } else {
            100.0
        };
        vec![
            Cell::text("Matrix", name),
            Cell::int("#Vertices", g.num_vertices()),
            Cell::int("#Edges", g.num_edges()),
            Cell::fixed("Approx W", w, 2),
            Cell::fixed("Optimal W", opt.weight, 2),
            Cell::new("Quality", format!("{quality:.2}%"), quality),
        ]
    };
    let instances = setup::table1_instances(scale);
    vec![Section {
        caption: format!(
            "Table 1.1: quality of the half-approximation matching\n\
             (synthetic stand-ins for the UF matrices; scale {scale:?})\n"
        ),
        rows: instances.into_iter().map(row).collect(),
        notes: "Paper: quality 99.36%–100.00% across the six matrices.",
    }]
}

/// Every ratio ≥ 99 %, the least diagonally dominant stand-in lowest.
fn check_table1_1(s: &[Section]) -> Verdict {
    let (s, q) = (&s[0], s[0].col("Quality"));
    let hamrle = s.rows.iter().find(|r| r[0].text == "Hamrle3-like");
    let hamrle = hamrle.expect("Hamrle3 stand-in present");
    for row in &s.rows {
        ensure(row[q].value >= 99.0, row, "quality below 99 %")?;
        s.require(hamrle, f64::le, row, "Quality")?;
    }
    Ok(())
}

/// Table 5.1 — overview of the experimental setup: inputs, distributions,
/// rank ranges, and the achieved partition quality of the circuit graphs.
fn table5_1(scale: Scale) -> Vec<Section> {
    let (b, weak) = setup::weak_scaling_series(scale);
    let (k_small, (k_big, p_big)) = (weak[0].0, weak[weak.len() - 1]);
    let (k, grid_ranks) = setup::strong_scaling_grid_series(scale);
    let p_max = *setup::circuit_rank_series(scale).last().expect("ranks");
    let gm = setup::circuit_matching_graph(scale);
    let gc = setup::circuit_coloring_graph(scale);
    let cut_m = multilevel_partition(&gm, p_max, 11).quality(&gm);
    let cut_c = block_partition(gc.num_vertices(), p_max).quality(&gc);
    let (cut_m, cut_c) = (cut_m.cut_fraction, cut_c.cut_fraction);

    let uniform = || Cell::text("Distribution", "Uniform 2D");
    let cut = |how: &str, cut: f64| {
        let text = format!("{how}, {:.0}% cut)", 100.0 * cut);
        Cell::new("Distribution", text, cut)
    };
    let row = |[figure, problem, scaling]: [&str; 3], input: String, dist, max_ranks: u32| {
        vec![
            Cell::text("Figure", figure),
            Cell::text("Problem", problem),
            Cell::text("Scaling", scaling),
            Cell::text("Input graph", input),
            dist,
            Cell::int("Max ranks", max_ranks),
        ]
    };
    let grids = format!("k×k grids, {k_small}²–{k_big}² ({b}² per rank)");
    let (stats_m, stats_c) = (GraphStats::of(&gm), GraphStats::of(&gc));
    let both = "matching & coloring";
    let rows = vec![
        row(["Fig 5.1", both, "Weak"], grids, uniform(), p_big),
        row(
            ["Fig 5.2", both, "Strong"],
            format!("{k} × {k} grid"),
            uniform(),
            grid_ranks[grid_ranks.len() - 1],
        ),
        row(
            ["Fig 5.3", "matching", "Strong"],
            format!("circuit-like [{stats_m}]"),
            cut("multilevel (METIS-like", cut_m),
            p_max,
        ),
        row(
            ["Fig 5.4", "coloring", "Strong"],
            format!("circuit-like [{stats_c}]"),
            cut("1-D blocks (ParMETIS-like", cut_c),
            p_max,
        ),
    ];
    vec![Section {
        caption: format!("Table 5.1: experimental setup overview (scale {scale:?})\n"),
        rows,
        notes: "Paper: METIS 6% cut / ParMETIS 40% cut at 4,096 ranks;\n\
                grids 8,000²–32,000² (250² per rank) on up to 16,384 ranks.",
    }]
}

/// The paper's two cut regimes: the matching input's multilevel
/// distribution cuts fewer edges than the coloring input's 1-D blocks.
fn check_table5_1(s: &[Section]) -> Verdict {
    s[0].require(&s[0].rows[2], f64::lt, &s[0].rows[3], "Distribution")
}

/// Figure 5.1 — weak scaling of matching (top) and coloring (bottom) on
/// five-point grids, uniform 2-D distribution. The grid is generated
/// distributed (the global graph is never built), as in the paper.
fn fig5_1(scale: Scale) -> Vec<Section> {
    let (b, series) = setup::weak_scaling_series(scale);
    let engine = Engine::default_simulated();
    let (mut top, mut bottom) = (Vec::new(), Vec::new());
    let (mut flat_m, mut flat_c) = (None, None);
    for (k, p) in series {
        let side = (p as f64).sqrt() as u32;
        let grid = Cell::text("Grid", format!("{k} x {k}"));

        let m = run_matching_parts(grid2d_dist(k, k, side, side, Some(7)), &engine);
        top.push(vec![
            grid.clone(),
            Cell::int("Ranks", p),
            Cell::time("Actual", m.simulated_time),
            Cell::time("Ideal", *flat_m.get_or_insert(m.simulated_time)),
            Cell::fixed("Matching W", m.weight, 1),
        ]);

        let parts = grid2d_dist(k, k, side, side, None);
        let c = run_coloring_parts(parts, ColoringConfig::default(), &engine);
        assert_eq!(c.conflicts, 0, "invalid coloring");
        bottom.push(vec![
            grid,
            Cell::int("Ranks", p),
            Cell::time("Actual", c.simulated_time),
            Cell::time("Ideal", *flat_c.get_or_insert(c.simulated_time)),
            Cell::int("Colors", c.coloring.num_colors()),
            Cell::int("Phases", c.phases),
        ]);
    }
    vec![
        Section {
            caption: format!(
                "Figure 5.1: weak scaling on k×k grids ({b}² per rank, uniform 2D)\n\n\
                 Top: matching"
            ),
            rows: top,
            notes: "",
        },
        Section {
            caption: "Bottom: coloring".into(),
            rows: bottom,
            notes: "Paper: both curves stay within ~2x of flat across 1,024 -> 16,384 ranks.",
        },
    ]
}

/// Weak-scaling drift: both curves within 2× of flat over the 16× range.
fn check_fig5_1(s: &[Section]) -> Verdict {
    for section in s {
        let (a, i) = (section.col("Actual"), section.col("Ideal"));
        for row in &section.rows {
            let drift = row[a].value / row[i].value;
            ensure(drift <= 2.0, row, "more than 2x off flat")?;
        }
    }
    Ok(())
}

/// The first three cells of a strong-scaling row: rank count, simulated
/// time, and the ideal `1/p` curve through the series' first point
/// (`work` carries that point's `time × p` from row to row).
fn scaling_cells(p: u32, time: f64, work: &mut Option<f64>, cols: [&'static str; 2]) -> Row {
    let ideal = *work.get_or_insert(time * p as f64) / p as f64;
    vec![
        Cell::int("Ranks", p),
        Cell::time(cols[0], time),
        Cell::time(cols[1], ideal),
    ]
}

/// Figure 5.2 — strong scaling of matching (top) and coloring (bottom)
/// on one five-point grid, uniform 2-D distribution.
fn fig5_2(scale: Scale) -> Vec<Section> {
    let (k, ranks) = setup::strong_scaling_grid_series(scale);
    let engine = Engine::default_simulated();
    let (mut top, mut bottom) = (Vec::new(), Vec::new());
    let (mut work_m, mut work_c, mut weight) = (None, None, None);
    for p in ranks {
        let (pr, pc) = square_processor_grid(p);

        let m = run_matching_parts(grid2d_dist(k, k, pr, pc, Some(7)), &engine);
        // §5.2 invariant: the weight must not depend on the rank count.
        let w0 = *weight.get_or_insert(m.weight);
        assert!((m.weight - w0).abs() < 1e-6, "weight changed with p");
        let cols = ["Matching actual", "Matching ideal"];
        top.push(scaling_cells(p, m.simulated_time, &mut work_m, cols));

        let parts = grid2d_dist(k, k, pr, pc, None);
        let c = run_coloring_parts(parts, ColoringConfig::default(), &engine);
        assert_eq!(c.conflicts, 0, "invalid coloring");
        let cols = ["Coloring actual", "Coloring ideal"];
        let mut row = scaling_cells(p, c.simulated_time, &mut work_c, cols);
        row.push(Cell::int("Colors", c.coloring.num_colors()));
        bottom.push(row);
    }
    vec![
        Section {
            caption: format!(
                "Figure 5.2: strong scaling on a {k} x {k} grid (uniform 2D)\n\nTop: matching"
            ),
            rows: top,
            notes: "",
        },
        Section {
            caption: "Bottom: coloring".into(),
            rows: bottom,
            notes: "Paper: near-linear decrease (log-log straight line) 512 -> 16,384 ranks.",
        },
    ]
}

/// Strong scaling with the knee at the top: every doubling still speeds
/// both algorithms up, matching ends within 1.5× of ideal over the 32×
/// range, and coloring is the one that flattens first.
fn check_fig5_2(s: &[Section]) -> Verdict {
    let mut off_ideal = Vec::new();
    for section in s {
        each_step(section, f64::lt, section.rows[0][1].col)?;
        let last = &section.rows[section.rows.len() - 1];
        off_ideal.push(last[1].value / last[2].value);
    }
    let last = &s[0].rows[s[0].rows.len() - 1];
    ensure(off_ideal[0] <= 1.5, last, "over 1.5x off ideal")?;
    let first_to_flatten = off_ideal[0] > off_ideal[1];
    ensure(!first_to_flatten, last, "flattens before coloring")
}

/// The frame Figures 5.3 and 5.4 share: one circuit-like graph strong-
/// scaled over the rank series. `run` returns a rank count's partition,
/// simulated time and trailing cells.
fn circuit_scaling(
    scale: Scale,
    g: &CsrGraph,
    [title, partition, notes]: [&'static str; 3],
    mut run: impl FnMut(u32) -> (Partition, f64, Vec<Cell>),
) -> Vec<Section> {
    let mut work = None;
    let row = |p| {
        let (part, time, tail) = run(p);
        let cut = 100.0 * part.quality(g).cut_fraction;
        let mut row = scaling_cells(p, time, &mut work, ["Actual", "Ideal"]);
        row.push(Cell::fixed("Cut %", cut, 1));
        row.extend(tail);
        row
    };
    let ranks = setup::circuit_rank_series(scale);
    vec![Section {
        caption: format!(
            "{title} on a circuit-like graph\n({} vertices, {} edges; {partition} partition)\n",
            g.num_vertices(),
            g.num_edges()
        ),
        rows: ranks.into_iter().map(row).collect(),
        notes,
    }]
}

/// Figure 5.3 — strong scaling of matching on a circuit-simulation graph
/// under the METIS-like multilevel partitioner (low edge cut).
fn fig5_3(scale: Scale) -> Vec<Section> {
    let g = setup::circuit_matching_graph(scale);
    let engine = Engine::default_simulated();
    let run = |p| {
        let part = multilevel_partition(&g, p, 11);
        let m = run_matching(&g, &part, &engine);
        m.matching.validate(&g).expect("invalid matching");
        let weight = Cell::fixed("Matching W", m.matching.weight(&g), 1);
        (part, m.simulated_time, vec![weight])
    };
    let text = [
        "Figure 5.3: strong scaling of matching",
        "multilevel METIS-like",
        "Paper: near-linear to ~1,024 ranks, degrading at 4,096 (6% cut);\n\
         matching weight identical at every rank count.",
    ];
    circuit_scaling(scale, &g, text, run)
}

/// Shared shape of Figs 5.3/5.4: the first doubling of ranks, where the
/// cut is lowest, pays off by ≥ 1.5×, and the cut grows with p.
fn check_circuit_scaling(s: &Section) -> Verdict {
    let t = s.col("Actual");
    let gain = s.rows[0][t].value / s.rows[1][t].value;
    ensure(gain >= 1.5, &s.rows[1], "first doubling gains under 1.5x")?;
    each_step(s, f64::ge, "Cut %")
}

/// Good-but-sub-ideal scaling all the way up, and the §5.2 invariant:
/// the matching weight is bit-identical at every rank count.
fn check_fig5_3(s: &[Section]) -> Verdict {
    check_circuit_scaling(&s[0])?;
    each_step(&s[0], f64::lt, "Actual")?;
    each_step(&s[0], f64::eq, "Matching W")
}

/// Figure 5.4 — strong scaling of coloring on a circuit-simulation graph
/// under a deliberately poorer (ParMETIS-like, high edge cut) distribution.
fn fig5_4(scale: Scale) -> Vec<Section> {
    let g = setup::circuit_coloring_graph(scale);
    let engine = Engine::default_simulated();
    let run = |p| {
        let part = block_partition(g.num_vertices(), p);
        let c = run_coloring(&g, &part, ColoringConfig::default(), &engine);
        c.coloring.validate(&g).expect("invalid coloring");
        let colors = Cell::int("Colors", c.coloring.num_colors());
        let tail = vec![colors, Cell::int("Phases", c.phases)];
        (part, c.simulated_time, tail)
    };
    let text = [
        "Figure 5.4: strong scaling of coloring",
        "1-D block ParMETIS-like",
        "Paper: scaling degrades earlier than Fig 5.3 (40% cut at 4,096 ranks);\n\
         colors stay near the serial greedy count.",
    ];
    circuit_scaling(scale, &g, text, run)
}

/// Scales while the cut is low, then flattens: by the last doubling the
/// gain is gone (< 1.5×). Color counts stay within a band of 2.
fn check_fig5_4(s: &[Section]) -> Verdict {
    check_circuit_scaling(&s[0])?;
    let (rows, t, c) = (&s[0].rows, s[0].col("Actual"), s[0].col("Colors"));
    let last = rows.len() - 1;
    let gain = rows[last - 1][t].value / rows[last][t].value;
    ensure(gain < 1.5, &rows[last], "still scaling at the top")?;
    let colors = rows.iter().map(|r| r[c].value);
    let fewest = colors.fold(f64::INFINITY, f64::min);
    let banded = |r: &Row| ensure(r[c].value <= fewest + 2.0, r, "colors vary by more than 2");
    rows.iter().try_for_each(banded)
}

/// The traffic columns of the communication ablations.
fn traffic_cells(stats: &RunStats) -> [Cell; 3] {
    [
        Cell::count("Messages", stats.total_messages()),
        Cell::count("Packets", stats.total_packets()),
        Cell::count("Bytes", stats.total_bytes()),
    ]
}

/// Ablation A — message bundling (§3.3), the aggregation of same-
/// destination messages that sets the paper's matching apart: on vs off.
fn bundling(scale: Scale) -> Vec<Section> {
    let k = ablation_grid_side(scale);
    let grid = setup::uniform_weights(&grid2d(k, k), 3);
    let circuit = setup::circuit_matching_graph(scale);
    let mut rows = Vec::new();
    for (name, g) in [("grid", &grid), ("circuit", &circuit)] {
        for p in [16u32, 64, 256] {
            let part = if name == "grid" {
                let (pr, pc) = square_processor_grid(p);
                grid2d_partition(k, k, pr, pc)
            } else {
                multilevel_partition(g, p, 5)
            };
            for bundling in [true, false] {
                let cfg = EngineConfig {
                    bundling,
                    ..Default::default()
                };
                let run = run_matching(g, &part, &Engine::Simulated(cfg));
                let mode = if bundling { "on" } else { "off" };
                let mut row = vec![
                    Cell::text("Input", name),
                    Cell::int("Ranks", p),
                    Cell::text("Bundling", mode),
                ];
                row.extend(traffic_cells(&run.stats));
                row.push(Cell::time("Sim time", run.simulated_time));
                rows.push(row);
            }
        }
    }
    vec![Section {
        caption: "Ablation A: message bundling in distributed matching\n".into(),
        rows,
        notes: "Expected: identical messages/bytes, far fewer packets with bundling,\n\
                and a large simulated-time win (each packet pays the α latency).",
    }]
}

/// Bundling on vs off: equal messages and bytes, fewer packets, lower
/// simulated time, at every input and rank count.
fn check_bundling(s: &[Section]) -> Verdict {
    for pair in s[0].rows.chunks(2) {
        let (on, off) = (&pair[0], &pair[1]);
        s[0].require(on, f64::eq, off, "Messages")?;
        s[0].require(on, f64::eq, off, "Bytes")?;
        s[0].require(on, f64::lt, off, "Packets")?;
        s[0].require(on, f64::lt, off, "Sim time")?;
    }
    Ok(())
}

/// Ablation B — coloring communication variants (§4.2): the paper's new
/// neighbor-customized scheme vs FIAC (to all ranks) vs FIAB (broadcast).
fn comm_variants(scale: Scale) -> Vec<Section> {
    let k = ablation_grid_side(scale);
    let mut rows = Vec::new();
    coloring_cases(scale, k, &[16, 64, 256], |name, g, p, part| {
        for (variant, comm) in [
            ("NEW", CommVariant::Neighbor),
            ("FIAC", CommVariant::Fiac),
            ("FIAB", CommVariant::Fiab),
        ] {
            let cfg = ColoringConfig {
                comm,
                ..Default::default()
            };
            let run = run_coloring(g, part, cfg, &Engine::default_simulated());
            run.coloring.validate(g).expect("invalid coloring");
            let mut row = vec![
                Cell::text("Input", name),
                Cell::int("Ranks", p),
                Cell::text("Variant", variant),
            ];
            row.extend(traffic_cells(&run.stats));
            row.push(Cell::time("Sim time", run.simulated_time));
            row.push(Cell::int("Colors", run.coloring.num_colors()));
            rows.push(row);
        }
    });
    vec![Section {
        caption: "Ablation B: coloring communication variants (NEW vs FIAC vs FIAB)\n".into(),
        rows,
        notes: "Expected: NEW < FIAC in messages (same volume); FIAB worst in volume;\n\
                the gap widens with the rank count — §4.2's scalability argument.",
    }]
}

/// NEW < FIAC < FIAB in messages and simulated time; packets and bytes
/// never the other way round (FIAC and FIAB address the same ranks, so
/// their packet counts tie; at 16 ranks on 1-D blocks all three do).
fn check_comm_variants(s: &[Section]) -> Verdict {
    for triple in s[0].rows.chunks(3) {
        for pair in triple.windows(2) {
            s[0].require(&pair[0], f64::lt, &pair[1], "Messages")?;
            s[0].require(&pair[0], f64::lt, &pair[1], "Sim time")?;
            s[0].require(&pair[0], f64::le, &pair[1], "Packets")?;
            s[0].require(&pair[0], f64::le, &pair[1], "Bytes")?;
        }
    }
    Ok(())
}

/// Ablation C — superstep size (§4.1: "How large should the superstep
/// size s be?"): small `s` sends many small messages, huge `s` conflicts.
fn superstep(scale: Scale) -> Vec<Section> {
    let g = setup::circuit_coloring_graph(scale);
    let p = 64u32;
    let part = block_partition(g.num_vertices(), p);
    let row = |s: usize| {
        let cfg = ColoringConfig {
            superstep_size: s,
            ..Default::default()
        };
        let programs: Vec<DistColoring> = DistGraph::build_all(&g, &part)
            .into_iter()
            .map(|dg| DistColoring::new(dg, cfg))
            .collect();
        let result = SimEngine::new(programs, EngineConfig::default()).run();
        assert!(!result.hit_round_cap);
        let coloring = assemble_coloring(&result.programs, g.num_vertices());
        coloring.validate(&g).expect("invalid coloring");
        let phases = result.programs.iter().map(|q| q.phases_executed).max();
        let recolored: u64 = result.programs.iter().map(|q| q.total_recolored).sum();
        vec![
            Cell::int("s", s),
            Cell::int("Phases", phases.unwrap_or(0)),
            Cell::int("Conflicts", recolored),
            Cell::count("Packets", result.stats.total_packets()),
            Cell::time("Sim time", result.stats.makespan()),
            Cell::int("Colors", coloring.num_colors()),
        ]
    };
    vec![Section {
        caption: format!(
            "Ablation C: superstep size sweep (circuit-like graph, {p} ranks, {} vertices)\n",
            g.num_vertices()
        ),
        rows: [1, 10, 100, 1000, 10000].into_iter().map(row).collect(),
        notes: "Expected: s ≈ 1000 balances packet count against conflict phases —\n\
                the paper's recommendation for well-partitioned graphs.",
    }]
}

/// The fastest superstep size lies in [100, 1000].
fn check_superstep(s: &[Section]) -> Verdict {
    let t = s[0].col("Sim time");
    let by_time = |a: &&Row, b: &&Row| a[t].value.total_cmp(&b[t].value);
    let best = s[0].rows.iter().min_by(by_time).expect("rows");
    let in_range = (100.0..=1000.0).contains(&best[0].value);
    ensure(in_range, best, "optimum outside s in [100, 1000]")
}

/// Ablation D — speculative framework vs the Jones–Plassmann MIS baseline
/// (§4.1: the framework "uses provably fewer or at most as many rounds").
fn jones_plassmann(scale: Scale) -> Vec<Section> {
    let k = ablation_grid_side(scale);
    let engine = Engine::default_simulated();
    let mut rows = Vec::new();
    coloring_cases(scale, k, &[16, 64, 256], |name, g, p, part| {
        let spec = run_coloring(g, part, ColoringConfig::default(), &engine);
        let jp = run_jones_plassmann(g, part, 9, &engine);
        for (algorithm, run) in [("speculative", &spec), ("jones-plassmann", &jp)] {
            run.coloring.validate(g).expect("invalid coloring");
            rows.push(vec![
                Cell::text("Input", name),
                Cell::int("Ranks", p),
                Cell::text("Algorithm", algorithm),
                Cell::int("Rounds", run.phases),
                Cell::count("Messages", run.stats.total_messages()),
                Cell::time("Sim time", run.simulated_time),
                Cell::int("Colors", run.coloring.num_colors()),
            ]);
        }
    });
    vec![Section {
        caption: "Ablation D: speculative framework vs Jones-Plassmann (MIS)\n".into(),
        rows,
        notes: "Expected: the speculative framework converges in a handful of phases\n\
                while JP needs rounds proportional to priority-path lengths.",
    }]
}

/// The framework never needs more rounds than Jones–Plassmann.
fn check_jones_plassmann(s: &[Section]) -> Verdict {
    let mut pairs = s[0].rows.chunks(2);
    pairs.try_for_each(|pair| s[0].require(&pair[0], f64::le, &pair[1], "Rounds"))
}

/// Ablation E — weight distributions vs matching rounds (§3.3: the
/// outer-loop iteration count "depends on the distribution of weights on
/// the edges"), plus the per-round drain of the uniform case.
fn weight_dist(scale: Scale) -> Vec<Section> {
    let k = ablation_grid_side(scale);
    let grid = grid2d(k, k);
    let part = grid2d_partition(k, k, 8, 8);
    let (mut rows, mut drain) = (Vec::new(), Vec::new());
    for (name, scheme) in [
        ("uniform", WeightScheme::Uniform { lo: 0.0, hi: 1.0 }),
        ("integer(4)", WeightScheme::Integer { max: 4 }),
        ("all-equal", WeightScheme::Equal(1.0)),
        ("degree-sum", WeightScheme::DegreeSum),
    ] {
        let g = assign_weights(&grid, scheme, 5);
        let programs: Vec<DistMatching> = DistGraph::build_all(&g, &part)
            .into_iter()
            .map(DistMatching::new)
            .collect();
        let cfg = EngineConfig {
            record_trace: true,
            ..Default::default()
        };
        let result = SimEngine::new(programs, cfg).run();
        assert!(!result.hit_round_cap);
        let m = assemble_matching(&result.programs, g.num_vertices());
        m.validate(&g).expect("invalid matching");
        rows.push(vec![
            Cell::text("Weights", name),
            Cell::int("Rounds", result.stats.rounds),
            Cell::count("Messages", result.stats.total_messages()),
            Cell::time("Sim time", result.stats.makespan()),
            Cell::fixed("Weight", m.weight(&g), 1),
        ]);
        if name == "uniform" {
            let round = |tr: &cmg_runtime::RoundTrace| {
                vec![
                    Cell::int("Round", tr.round),
                    Cell::int("Active ranks", tr.ranks_stepped),
                    Cell::count("Messages", tr.messages),
                    Cell::count("Bytes", tr.bytes),
                ]
            };
            drain = result.trace.iter().map(round).collect();
        }
    }
    vec![
        Section {
            caption: format!(
                "Ablation E: weight distribution vs outer-loop rounds ({k} x {k} grid, 64 ranks)\n"
            ),
            rows,
            notes: "",
        },
        Section {
            caption: "Per-round drain (uniform weights):".into(),
            rows: drain,
            notes: "Expected: structured/tied weights need more rounds than uniform\n\
                    random weights (which settle most boundary edges immediately).",
        },
    ]
}

/// Uniform random weights need the fewest outer-loop rounds and the
/// correlated degree-sum chains strictly more than any other scheme,
/// and the uniform case's per-round traffic only ever drains.
fn check_weight_dist(s: &[Section]) -> Verdict {
    let (uniform, degree_sum) = (&s[0].rows[0], &s[0].rows[3]);
    for row in &s[0].rows[..3] {
        s[0].require(uniform, f64::le, row, "Rounds")?;
        s[0].require(row, f64::lt, degree_sum, "Rounds")?;
    }
    each_step(&s[1], f64::le, "Messages")
}

/// Ablation F — synchronous vs asynchronous supersteps (§4.1). Sync
/// models a barrier after every engine round (stragglers stall everyone);
/// async lets each rank progress on whatever has arrived.
fn sync_async(scale: Scale) -> Vec<Section> {
    let k = ablation_grid_side(scale);
    let circuit = setup::circuit_coloring_graph(scale);
    let mut rows = Vec::new();
    for p in [16u32, 64, 256] {
        for sync in [false, true] {
            let engine = Engine::Simulated(EngineConfig {
                sync_rounds: sync,
                ..Default::default()
            });
            let mut push = |input: &str, time: f64, colors: usize, phases: u32| {
                rows.push(vec![
                    Cell::text("Input", input),
                    Cell::int("Ranks", p),
                    Cell::text("Mode", if sync { "sync" } else { "async" }),
                    Cell::time("Sim time", time),
                    Cell::int("Colors", colors),
                    Cell::int("Phases", phases),
                ]);
            };

            let (pr, pc) = square_processor_grid(p);
            let parts = grid2d_dist(k, k, pr, pc, None);
            let run = run_coloring_parts(parts, ColoringConfig::default(), &engine);
            assert_eq!(run.conflicts, 0, "invalid coloring");
            let colors = run.coloring.num_colors();
            push("grid", run.simulated_time, colors, run.phases);

            let part = block_partition(circuit.num_vertices(), p);
            let run = run_coloring(&circuit, &part, ColoringConfig::default(), &engine);
            run.coloring.validate(&circuit).expect("invalid coloring");
            let colors = run.coloring.num_colors();
            push("circuit", run.simulated_time, colors, run.phases);
        }
    }
    vec![Section {
        caption: "Ablation F: synchronous vs asynchronous supersteps (coloring)\n".into(),
        rows,
        notes: "Expected: async at least as fast as sync (identical results);\n\
                the gap grows with rank count and imbalance — why the paper's\n\
                recommended variants run supersteps asynchronously.",
    }]
}

/// Async at least as fast as sync, with the same colors and phases.
fn check_sync_async(s: &[Section]) -> Verdict {
    for per_p in s[0].rows.chunks(4) {
        for (fast, slow) in [(&per_p[0], &per_p[2]), (&per_p[1], &per_p[3])] {
            s[0].require(fast, f64::le, slow, "Sim time")?;
            s[0].require(fast, f64::eq, slow, "Colors")?;
            s[0].require(fast, f64::eq, slow, "Phases")?;
        }
    }
    Ok(())
}

/// Extension — distributed distance-2 coloring (what Jacobian/Hessian
/// compression needs) against sequential greedy d2 across rank counts.
fn distance2(scale: Scale) -> Vec<Section> {
    let k = ablation_grid_side(scale) / 2;
    let mut rows = Vec::new();
    coloring_cases(scale, k, &[1, 16, 64, 256], |name, g, p, part| {
        let seq_colors = greedy_d2(g, Ordering::Natural).num_colors();
        let programs: Vec<DistColoring<Distance2>> = DistGraph::build_all(g, part)
            .into_iter()
            .map(|dg| DistColoring::distance2(dg, 1000, 7))
            .collect();
        let result = SimEngine::new(programs, EngineConfig::default()).run();
        assert!(!result.hit_round_cap, "d2 did not quiesce");
        let coloring = assemble_coloring(&result.programs, g.num_vertices());
        validate_d2(&coloring, g).expect("invalid d2 coloring");
        let phases = result.programs.iter().map(|q| q.phases_executed).max();
        let recolored: u64 = result.programs.iter().map(|q| q.total_recolored).sum();
        rows.push(vec![
            Cell::text("Input", name),
            Cell::int("Ranks", p),
            Cell::int("Colors", coloring.num_colors()),
            Cell::int("Seq colors", seq_colors),
            Cell::int("Phases", phases.unwrap_or(0)),
            Cell::int("Recolored", recolored),
            Cell::count("Messages", result.stats.total_messages()),
            Cell::time("Sim time", result.stats.makespan()),
        ]);
    });
    vec![Section {
        caption: "Extension: distributed distance-2 coloring\n".into(),
        rows,
        notes: "Expected: color counts near the sequential greedy-d2 baseline,\n\
                convergence within a handful of phases, scaling like Fig 5.4.",
    }]
}

/// One rank reproduces sequential greedy-d2 exactly; no rank count needs
/// more than twice its colors.
fn check_distance2(s: &[Section]) -> Verdict {
    let s = &s[0];
    let (p, c, q) = (s.col("Ranks"), s.col("Colors"), s.col("Seq colors"));
    for row in &s.rows {
        let same = row[c].value == row[q].value;
        ensure(same || row[p].value > 1.0, row, "differs from sequential")?;
        let ratio = row[c].value / row[q].value;
        ensure(ratio <= 2.0, row, "over 2x the sequential colors")?;
    }
    Ok(())
}

/// Quality invariants vs rank count (§5.2's closing observations):
/// matching weight *identical* at every p; colors near serial greedy.
fn quality_vs_p(scale: Scale) -> Vec<Section> {
    let gm = setup::circuit_matching_graph(scale);
    let gc = setup::circuit_coloring_graph(scale);
    let engine = Engine::default_simulated();
    let seq_colors = cmg_coloring::seq::greedy(&gc, Ordering::Natural).num_colors();
    let seq_weight = seq::local_dominant(&gm).weight(&gm);
    let row = |p| {
        let m = run_matching(&gm, &multilevel_partition(&gm, p, 3), &engine);
        let w = m.matching.weight(&gm);
        let same = (w - seq_weight).abs() < 1e-6;
        let verdict = if same { "yes" } else { "NO" };

        let part = bfs_partition(&gc, p);
        let c = run_coloring(&gc, &part, ColoringConfig::default(), &engine);
        c.coloring.validate(&gc).expect("invalid coloring");
        vec![
            Cell::int("Ranks", p),
            Cell::fixed("Matching W", w, 4),
            Cell::new("= serial?", verdict.into(), f64::from(same)),
            Cell::int("Colors", c.coloring.num_colors()),
            Cell::int("Serial colors", seq_colors),
        ]
    };
    vec![Section {
        caption: format!("Quality vs rank count (circuit-like graphs, scale {scale:?})\n"),
        rows: [1u32, 4, 16, 64, 256].into_iter().map(row).collect(),
        notes: "Paper: matching weight constant in p; colors ≈ serial greedy.",
    }]
}

/// Matching weight equal to `seq::local_dominant`'s at every p; colors
/// within serial ± 2.
fn check_quality_vs_p(s: &[Section]) -> Verdict {
    let w = s[0].col("= serial?");
    let (c, q) = (s[0].col("Colors"), s[0].col("Serial colors"));
    for row in &s[0].rows {
        ensure(row[w].value == 1.0, row, "weight differs from sequential")?;
        let off = (row[c].value - row[q].value).abs();
        ensure(off <= 2.0, row, "colors off serial by more than 2")?;
    }
    Ok(())
}
