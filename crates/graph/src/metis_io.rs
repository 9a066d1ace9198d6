//! METIS graph file format (the format the paper's partitioning tools
//! consume): 1-based adjacency lists, optional edge weights.
//!
//! Format reference: first line `n m [fmt]` where `fmt` is `1` when edge
//! weights are present (`001`); line `i` then lists the neighbors of
//! vertex `i` (1-based), each followed by its weight when weighted.
//! Comment lines start with `%`.

use crate::io::{bad, parse_err, parse_tok, parse_usize};
use crate::io::{IoError, Lines, Tokens, MAX_RESERVE};
use crate::{CsrGraph, GraphBuilder, VertexId, Weight, NO_VERTEX};
use std::io::{Read, Write};

/// Reads a METIS graph file.
pub fn read_metis(reader: impl Read) -> Result<CsrGraph, IoError> {
    // Blank lines are meaningful (isolated vertices); only comments are
    // skipped. The header is the first non-comment, non-blank line.
    let mut lines = Lines::new(reader);
    let header = lines
        .next_data_line(b'%')?
        .ok_or_else(|| parse_err("empty file"))?;
    let mut fields = Tokens(header);
    let (Some(n), Some(m)) = (fields.next(), fields.next()) else {
        return Err(bad("bad header", header));
    };
    let n = parse_usize(n)
        .filter(|&n| n < NO_VERTEX as usize)
        .ok_or_else(|| bad("bad vertex count", n))?;
    let m = parse_usize(m).ok_or_else(|| bad("bad edge count", m))?;
    let fmt = fields.next().unwrap_or(b"0");
    let weighted = fmt.ends_with(b"1");
    // Vertex weights/sizes (fmt 1xx) are not supported here.
    if fmt.len() > 3 || fmt.iter().any(|b| !b"01".contains(b)) || fmt.len() == 3 && fmt[0] == b'1' {
        return Err(bad("unsupported fmt field", fmt));
    }

    let mut b = GraphBuilder::with_capacity(n, m.min(MAX_RESERVE));
    let mut row = 0usize;
    while let Some(line) = lines.next_line()? {
        let mut toks = Tokens(line).peekable();
        if toks.peek().is_some_and(|t| t[0] == b'%') {
            continue;
        }
        if row >= n {
            return Err(parse_err("more adjacency lines than vertices"));
        }
        while let Some(t) = toks.next() {
            let u = parse_usize(t).ok_or_else(|| bad("bad neighbor", t))?;
            if u == 0 || u > n {
                return Err(parse_err(format!("neighbor {u} out of range")));
            }
            let (v, u) = (row as VertexId, (u - 1) as VertexId);
            if weighted {
                let wt = toks
                    .next()
                    .ok_or_else(|| parse_err("missing edge weight"))?;
                let w: Weight = parse_tok(wt).ok_or_else(|| bad("bad weight", wt))?;
                b.add_edge(v, u, w);
            } else {
                b.add_edge_unweighted(v, u);
            }
        }
        row += 1;
    }
    if row != n {
        return Err(parse_err(format!(
            "expected {n} adjacency lines, found {row}"
        )));
    }
    let g = b.build();
    if g.num_edges() != m {
        return Err(parse_err(format!(
            "header claims {m} edges, file contains {}",
            g.num_edges()
        )));
    }
    Ok(g)
}

/// Writes a graph in METIS format (with edge weights if present).
pub fn write_metis(g: &CsrGraph, mut w: impl Write) -> Result<(), IoError> {
    let weighted = g.is_weighted();
    writeln!(
        w,
        "{} {}{}",
        g.num_vertices(),
        g.num_edges(),
        if weighted { " 001" } else { "" }
    )?;
    for v in 0..g.num_vertices() as VertexId {
        let mut first = true;
        for (u, wt) in g.neighbors_weighted(v) {
            if !first {
                write!(w, " ")?;
            }
            first = false;
            if weighted {
                write!(w, "{} {}", u + 1, wt)?;
            } else {
                write!(w, "{}", u + 1)?;
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid2d;
    use crate::weights::{assign_weights, WeightScheme};

    const SAMPLE: &str = "% a comment\n4 3\n2 3\n1\n1 4\n3\n";

    #[test]
    fn reads_unweighted_sample() {
        let g = read_metis(SAMPLE.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.has_edge(2, 3));
        g.validate().unwrap();
    }

    #[test]
    fn round_trip_unweighted() {
        let g = grid2d(5, 7);
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        assert_eq!(read_metis(&buf[..]).unwrap(), g);
    }

    #[test]
    fn round_trip_weighted() {
        let g = assign_weights(&grid2d(4, 4), WeightScheme::Integer { max: 9 }, 2);
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let g2 = read_metis(&buf[..]).unwrap();
        assert_eq!(g2, g);
        assert!(g2.is_weighted());
    }

    #[test]
    fn rejects_inconsistencies() {
        // neighbor out of range
        assert!(read_metis("2 1\n3\n\n".as_bytes()).is_err());
        // edge count mismatch
        assert!(read_metis("3 5\n2\n1 3\n2\n".as_bytes()).is_err());
        // too many rows
        assert!(read_metis("1 0\n\n2\n".as_bytes()).is_err());
        // empty file
        assert!(read_metis("".as_bytes()).is_err());
    }

    #[test]
    fn isolated_vertices_are_blank_lines() {
        let g = read_metis("3 1\n2\n1\n\n".as_bytes()).unwrap();
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.num_edges(), 1);
    }
}
