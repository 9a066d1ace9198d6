//! Matrix Market round trip: write a graph out, read it back in both of
//! the paper's representations (bipartite for matching, adjacency for
//! coloring) and process each. Drop a real UF matrix (e.g. `G3_circuit`)
//! at the given path to run the pipeline on it.
//!
//! Run with: `cargo run --release --example matrix_io [path/to/matrix.mtx]`

use cmg::prelude::*;
use cmg_graph::generators::grid2d;
use cmg_graph::io;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_matching::seq;
use cmg_partition::simple::bfs_partition;

fn main() {
    let mtx_bytes: Vec<u8> = match std::env::args().nth(1) {
        Some(path) => {
            println!("reading {path}");
            std::fs::read(path).expect("cannot read matrix file")
        }
        None => {
            // No file given: synthesize one in-memory so the example is
            // self-contained.
            let g = assign_weights(
                &grid2d(40, 40),
                WeightScheme::Uniform { lo: 0.1, hi: 1.0 },
                5,
            );
            let mut buf = Vec::new();
            io::write_matrix_market(&g, &mut buf).expect("write failed");
            println!("no file given; generated a 40x40 grid matrix in memory");
            buf
        }
    };

    let matrix = io::read_matrix_market(&mtx_bytes[..]).expect("parse failed");
    println!(
        "matrix: {} x {}, {} entry lines (symmetric: {})",
        matrix.rows,
        matrix.cols,
        matrix.entries.len(),
        matrix.symmetric
    );

    // Bipartite representation → matching (Table 1.1's pipeline).
    let bip = matrix.to_bipartite();
    let general = bip.to_general();
    let m = seq::local_dominant(&general);
    m.validate(&general).expect("invalid matching");
    println!(
        "bipartite matching: {} edges, weight {:.3}",
        m.cardinality(),
        m.weight(&general)
    );

    // Adjacency representation → distributed coloring (Fig 5.4's
    // pipeline), if square.
    if matrix.rows == matrix.cols {
        let adj = matrix.to_adjacency();
        let part = bfs_partition(&adj, 8);
        let run = cmg::run_coloring(
            &adj,
            &part,
            ColoringConfig::default(),
            &Engine::default_simulated(),
        );
        run.coloring.validate(&adj).expect("invalid coloring");
        println!(
            "adjacency coloring: {} colors in {} phases over 8 ranks",
            run.coloring.num_colors(),
            run.phases
        );
    }
}
