//! `sim_weak_p4k`: the paper's weak-scaling regime on the simulation
//! engine — a fixed 16 × 16 subgrid per rank, 64 × 64 = 4,096 ranks,
//! built rank by rank with no global graph.
//!
//! Per-rank fixed costs (4,096 × halo and program init, allocation, the
//! active-set scheduler, collectives) are the whole host cost here; the
//! kernels are negligible per rank. It is also the source of the
//! simulated makespans, which are cost-model seconds and are reported
//! apart from every host time.

use crate::harness::{Harness, RepClock, RepTimes, Workload};
use crate::host::CpuClock;
use cmg_coloring::{ColoringConfig, DistColoring};
use cmg_matching::DistMatching;
use cmg_partition::grid2d_dist;
use cmg_runtime::{EngineConfig, SchedStats, SimEngine};
use std::time::Instant;

/// Vertices per rank along one side.
const SUBGRID: usize = 16;

/// What must repeat exactly from one repetition to the next.
#[derive(Clone, Debug, PartialEq)]
struct Fixed {
    weight_bits: u64,
    cardinality: usize,
    match_makespan_bits: u64,
    colors: u32,
    phases: u32,
    color_makespan_bits: u64,
}

/// The workload.
pub struct SimWeak {
    /// Ranks along one side of the processor grid.
    side: u32,
    seed: u64,
    first: Option<Fixed>,
}

impl SimWeak {
    /// 64 × 64 ranks (8 × 8 under `--smoke`).
    pub fn new(h: &Harness) -> SimWeak {
        SimWeak {
            side: if h.smoke { 8 } else { 64 },
            seed: h.seed,
            first: None,
        }
    }

    /// Scheduler counters and host time of the repetition's two
    /// simulated runs together.
    fn sched_layers(h: &mut Harness, both: &[SchedStats; 2], run_s: f64) {
        let sum = |f: fn(&SchedStats) -> u64| both.iter().map(f).sum::<u64>() as f64;
        let (rounds, steps) = (sum(|s| s.rounds), sum(|s| s.worklist_total));
        h.layer("runtime.sim.rounds", rounds);
        h.layer("runtime.sim.ranks_skipped", sum(|s| s.ranks_skipped_total));
        if rounds > 0.0 && steps > 0.0 {
            h.layer("runtime.sim.worklist_mean", steps / rounds);
            h.layer("runtime.sim.us_per_rank_round", run_s * 1e6 / steps);
        }
    }
}

impl Workload for SimWeak {
    /// There is no input to generate: set-up is the warm-up repetition,
    /// whose answers become the ones every later repetition must equal.
    fn setup(&mut self, h: &mut Harness) {
        self.first = None;
        self.rep(h);
    }

    fn rep(&mut self, h: &mut Harness) -> RepTimes {
        let clock = RepClock::start();
        let sys0 = CpuClock::now();
        let k = SUBGRID * self.side as usize;
        let (pr, pc) = (self.side, self.side);
        let rep_span = h.tracer.enter("core.rep");
        let mut solve_wall_s = 0.0;

        // Matching on the weighted grid.
        let parts = h.tracer.time("partition.grid_dist_s", || {
            grid2d_dist(k, k, pr, pc, Some(self.seed))
        });
        let solve = Instant::now();
        let span = h.tracer.enter("core.match_solve_s");
        let programs: Vec<DistMatching> = h.tracer.time("matching.init_s", || {
            parts.into_iter().map(DistMatching::new).collect()
        });
        let cfg = EngineConfig::default().with_recorder(h.recorder());
        let t = Instant::now();
        let result = h
            .tracer
            .time("runtime.sim.run_s", || SimEngine::new(programs, cfg).run());
        let mut run_s = t.elapsed().as_secs_f64();
        let match_sched = result.sched.clone();
        let (weight, cardinality, conserved) = h.tracer.time("check.verify_match_s", || {
            (
                result
                    .programs
                    .iter()
                    .map(DistMatching::local_matched_weight)
                    .sum::<f64>(),
                result
                    .programs
                    .iter()
                    .map(DistMatching::local_matched_edges)
                    .sum::<usize>(),
                result.stats.conservation_violation(),
            )
        });
        let match_makespan = result.stats.makespan();
        h.check(
            "simulated matching quiesces and conserves its traffic",
            match conserved {
                _ if result.hit_round_cap => Err("hit the round cap".into()),
                Some(violation) => Err(violation),
                None => Ok(()),
            },
        );
        h.layer("runtime.sim.match_makespan_s", match_makespan);
        h.layer("matching.rounds", result.stats.rounds as f64);
        h.layer("matching.messages", result.stats.total_messages() as f64);
        h.layer("matching.work_units", result.stats.total_work() as f64);
        h.layer("matching.weight", weight);
        h.layer("matching.cardinality", cardinality as f64);
        let mut events = h.drain_events().len();
        let (msgs, packets, bytes) = (
            result.stats.total_messages(),
            result.stats.total_packets(),
            result.stats.total_bytes(),
        );
        h.tracer.time("matching.teardown_s", || drop(result));
        h.tracer.exit(span);
        solve_wall_s += solve.elapsed().as_secs_f64();

        // Coloring on the unweighted grid; the seed picks the priorities.
        let parts = h
            .tracer
            .time("partition.grid_dist_s", || grid2d_dist(k, k, pr, pc, None));
        let solve = Instant::now();
        let span = h.tracer.enter("core.color_solve_s");
        let config = ColoringConfig {
            seed: ColoringConfig::default().seed ^ self.seed,
            ..Default::default()
        };
        let programs: Vec<DistColoring> = h.tracer.time("coloring.init_s", || {
            parts
                .into_iter()
                .map(|dg| DistColoring::new(dg, config))
                .collect()
        });
        let cfg = EngineConfig::default().with_recorder(h.recorder());
        let t = Instant::now();
        let result = h
            .tracer
            .time("runtime.sim.run_s", || SimEngine::new(programs, cfg).run());
        run_s += t.elapsed().as_secs_f64();
        Self::sched_layers(h, &[match_sched, result.sched.clone()], run_s);
        let (conflicts, colors, phases, recolored, conserved) =
            h.tracer.time("check.verify_color_s", || {
                let p = &result.programs;
                (
                    p.iter()
                        .map(DistColoring::local_conflict_count)
                        .sum::<usize>(),
                    p.iter()
                        .filter_map(DistColoring::max_local_color)
                        .max()
                        .map_or(0, |c| c + 1),
                    p.iter().map(|p| p.phases_executed).max().unwrap_or(0),
                    p.iter().map(|p| p.total_recolored).sum::<u64>(),
                    result.stats.conservation_violation(),
                )
            });
        let color_makespan = result.stats.makespan();
        h.check(
            "simulated coloring is conflict-free, quiesces and conserves its traffic",
            match conserved {
                _ if result.hit_round_cap => Err("hit the round cap".into()),
                _ if conflicts > 0 => Err(format!("{conflicts} conflict edges remain")),
                Some(violation) => Err(violation),
                None => Ok(()),
            },
        );
        h.layer("runtime.sim.color_makespan_s", color_makespan);
        h.layer("coloring.rounds", result.stats.rounds as f64);
        h.layer("coloring.phases", f64::from(phases));
        h.layer("coloring.messages", result.stats.total_messages() as f64);
        h.layer("coloring.colors", f64::from(colors));
        let n = (k * k) as f64;
        h.layer("coloring.recolor_ratio", n / (n + recolored as f64));
        let msgs = msgs + result.stats.total_messages();
        let packets = packets + result.stats.total_packets();
        h.layer("runtime.messages", msgs as f64);
        h.layer("runtime.packets", packets as f64);
        h.layer("runtime.bytes", (bytes + result.stats.total_bytes()) as f64);
        if packets > 0 {
            h.layer("runtime.bundle_ratio", msgs as f64 / packets as f64);
        }
        events += h.drain_events().len();
        h.layer("obs.events", events as f64);
        h.tracer.time("coloring.teardown_s", || drop(result));
        h.tracer.exit(span);
        solve_wall_s += solve.elapsed().as_secs_f64();
        h.tracer.exit(rep_span);
        // Kernel-mode CPU of the whole repetition (10 ms ticks).
        h.layer("runtime.sim.sys_cpu_s", CpuClock::now().since(&sys0).sys_s);

        // No global graph to validate against: the answers and both
        // simulated makespans must instead repeat bit for bit.
        let now = Fixed {
            weight_bits: weight.to_bits(),
            cardinality,
            match_makespan_bits: match_makespan.to_bits(),
            colors,
            phases,
            color_makespan_bits: color_makespan.to_bits(),
        };
        let first = self.first.get_or_insert_with(|| now.clone());
        let same = if *first == now {
            Ok(())
        } else {
            Err(format!("first {first:?}, now {now:?}"))
        };
        h.check("answers and simulated makespans repeat exactly", same);

        RepTimes {
            answer_wall_s: clock.wall_s(),
            solve_wall_s,
            cpu_s: clock.cpu_s(),
        }
    }
}
