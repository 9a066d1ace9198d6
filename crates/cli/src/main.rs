//! `cmg` — command-line interface to the matching/coloring toolkit.
//!
//! ```text
//! cmg gen   --kind grid2d --rows 64 --cols 64 --weights uniform -o g.mtx
//! cmg stats --input g.mtx
//! cmg partition --input g.mtx --parts 16 --method multilevel
//! cmg match --input g.mtx --parts 16 --method multilevel --engine sim
//! cmg color --input g.mtx --parts 16 --distance 2
//! ```

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("gen") => commands::gen(&argv[1..]),
        Some("stats") => commands::stats(&argv[1..]),
        Some("partition") => commands::partition(&argv[1..]),
        Some("match") => commands::matching(&argv[1..]),
        Some("color") => commands::coloring(&argv[1..]),
        Some("run") => commands::run_demo(&argv[1..]),
        Some("serve") => commands::serve(&argv[1..]),
        Some("client") => commands::client(&argv[1..]),
        Some("trace") => commands::trace(&argv[1..]),
        Some("analyze") => commands::analyze(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    println!(
        "cmg — distributed-memory matching & coloring (IPPS 2011 reproduction)

USAGE: cmg <command> [options]

COMMANDS
  gen        generate a synthetic graph and write it to a file
             --kind grid2d|grid3d|circuit|rmat|erdos  --rows R --cols C
             --n N --seed S --weights none|uniform|integer|equal
             -o FILE   (.mtx = Matrix Market, anything else = edge list)
  stats      print size/degree statistics of a graph file
             --input FILE
  partition  partition a graph and report the cut quality
             --input FILE --parts K --method multilevel|block|bfs|random|hash
             [--seed S]
  match      run the distributed ½-approximation matching
             --input FILE [--parts K] [--method …] [--engine sim|threaded|net]
             [--no-bundling] [--seq greedy|local-dominant|path-growing|suitor]
  color      run the distributed speculative coloring
             --input FILE [--parts K] [--method …] [--engine sim|threaded|net]
             [--distance 1|2] [--superstep S] [--comm new|fiac|fiab]
  run        matching + coloring on a fig5-style grid in one command
             [--engine sim|threaded|net] [--ranks N] [--rows R --cols C]
             [--seed S] [--input FILE] [--verify] [--checkpoint-interval K]
             (--engine net runs each rank as its own OS process over
             Unix-domain sockets; --verify cross-checks the results
             bit-for-bit against the simulated engine;
             --checkpoint-interval K snapshots every rank every K rounds —
             on the net engine the supervisor then respawns and replays
             the fleet from the last checkpoint if a worker dies)
  serve      long-lived incremental matching/coloring service: load and
             partition once, then absorb mutation batches by warm-start
             repair and answer queries over a Unix socket
             --socket PATH [--input FILE | --rows R --cols C --seed S]
             [--ranks N] [--threshold F] [--engine sim|net] [--json FILE]
             (--engine net keeps a resident multi-process worker fleet
             for cold passes; warm repairs always run in-process;
             --json writes the shutdown summary — counts and p50/p99
             latencies — as JSON)
  client     drive a running cmg serve
             --socket PATH [--mutations FILE] [--mate V] [--color V]
             [--summary] [--shutdown]
             (the mutations file has one `insert U V W` / `delete U V` /
             `reweight U V W` per line, blank lines separate batches;
             --shutdown stops the server after this session)
  trace      analyze a recorded trace: per-round critical path
             trace report --input FILE [--json FILE]
             (FILE is a --trace-out Chrome trace or an --events-out
             JSONL stream; --json writes the machine-readable report)
  analyze    whole-workspace interprocedural static analysis over
             crates/*/src: blocking-reachability from reactor entry
             points, wire-protocol drift, lock-order deadlock cycles,
             transitive hot-path allocation
             [--repo ROOT] [--json FILE]   (exit 1 on violations)

OBSERVABILITY (match and color)
  --trace-out FILE    Chrome trace_event JSON (load in Perfetto or
                      chrome://tracing; one track per rank)
  --events-out FILE   raw structured event stream, one JSON object per line
  --metrics-out FILE  aggregated counters/gauges/histograms as JSONL
  --report-out FILE   run report (.json = machine-readable, else text)

Graphs are read in Matrix Market coordinate format (*.mtx) or whitespace
edge lists (`u v [w]`, zero-based)."
    );
}
