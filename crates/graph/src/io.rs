//! Graph file I/O: Matrix Market coordinate format (the UF Sparse Matrix
//! Collection's native format, so the paper's real matrices can be dropped
//! in when available) and a simple whitespace edge-list format.
//!
//! Every reader here and in [`crate::metis_io`] sits on one byte-level
//! scanner: `Lines` pulls fixed-size blocks straight from the `impl
//! Read` and hands out one line at a time as a slice of its buffer,
//! `Tokens` splits a line in place and `parse_usize` is a digit loop.
//! Nothing is allocated per line and only value tokens are checked for
//! UTF-8. Pass the file itself: a `BufReader` around it only adds a copy.

use crate::builder::csr_from_edges;
use crate::{BipartiteGraph, CsrGraph, GraphBuilder, VertexId, Weight, NO_VERTEX};
use std::io::{ErrorKind, Read, Write};

/// Errors raised while parsing graph files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic problem, with a human-readable description.
    Parse(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

pub(crate) fn parse_err(msg: impl Into<String>) -> IoError {
    IoError::Parse(msg.into())
}

/// `what: text` as a parse error; `text` is file bytes and may not be
/// UTF-8.
pub(crate) fn bad(what: &str, text: &[u8]) -> IoError {
    parse_err(format!("{what}: {}", String::from_utf8_lossy(text).trim()))
}

/// Bytes asked of the reader per refill; only a longer line grows the
/// buffer.
const BLOCK: usize = 64 << 10;

/// The most elements reserved on the word of a count read from a file;
/// beyond it vectors grow as the data actually arrives.
pub(crate) const MAX_RESERVE: usize = 1 << 22;

/// Line scanner over one refillable byte block.
///
/// Invariant: `buf[start..end]` holds the bytes read and not yet handed
/// out, and `buf[start..scanned]` contains no `\n`. A line cut by the
/// block edge is carried over — moved to the front of the buffer —
/// before the next read appends to it, so every line is handed out
/// contiguous and every byte is searched once.
pub(crate) struct Lines<R> {
    reader: R,
    buf: Vec<u8>,
    start: usize,
    scanned: usize,
    end: usize,
}

impl<R: Read> Lines<R> {
    pub(crate) fn new(reader: R) -> Self {
        Lines {
            reader,
            buf: vec![0; BLOCK],
            start: 0,
            scanned: 0,
            end: 0,
        }
    }

    /// Position in `buf` of the next line, without its `\n` (a final
    /// line needs none); `None` at end of input.
    fn next_span(&mut self) -> Result<Option<std::ops::Range<usize>>, IoError> {
        loop {
            let fresh = &self.buf[self.scanned..self.end];
            if let Some(i) = fresh.iter().position(|&b| b == b'\n') {
                let span = self.start..self.scanned + i;
                self.start = span.end + 1;
                self.scanned = self.start;
                return Ok(Some(span));
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            self.scanned = self.end;
            if self.end == self.buf.len() {
                self.buf.resize(2 * self.end, 0);
            }
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    let last = self.start..self.end;
                    self.start = self.end;
                    return Ok(Some(last).filter(|span| !span.is_empty()));
                }
                Ok(k) => self.end += k,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The next line, blank ones included.
    pub(crate) fn next_line(&mut self) -> Result<Option<&[u8]>, IoError> {
        Ok(self.next_span()?.map(|span| &self.buf[span]))
    }

    /// The next line that is neither blank nor starts with `comment`,
    /// from its first non-blank byte.
    pub(crate) fn next_data_line(&mut self, comment: u8) -> Result<Option<&[u8]>, IoError> {
        while let Some(span) = self.next_span()? {
            let line = &self.buf[span.clone()];
            let lead = line.iter().take_while(|&&b| is_space(b)).count();
            if lead < line.len() && line[lead] != comment {
                return Ok(Some(&self.buf[span.start + lead..span.end]));
            }
        }
        Ok(None)
    }
}

/// ASCII whitespace as `char::is_whitespace` sees it (`\r` among it, so
/// CRLF files need no special case).
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// The whitespace-separated tokens of a line, in place.
pub(crate) struct Tokens<'a>(pub(crate) &'a [u8]);

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let lo = self.0.iter().position(|&b| !is_space(b))?;
        let rest = &self.0[lo..];
        let len = rest.iter().position(|&b| is_space(b)).unwrap_or(rest.len());
        self.0 = &rest[len..];
        Some(&rest[..len])
    }
}

/// `str::parse` on a token that need not be UTF-8.
pub(crate) fn parse_tok<T: std::str::FromStr>(tok: &[u8]) -> Option<T> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

/// An all-digits token by a byte loop; anything else (`+5`, overflow,
/// junk) gets `str::parse`'s verdict.
pub(crate) fn parse_usize(tok: &[u8]) -> Option<usize> {
    tok.iter()
        .try_fold(0usize, |x, &b| {
            let digit = usize::from(b.wrapping_sub(b'0'));
            (digit < 10).then_some(())?;
            x.checked_mul(10)?.checked_add(digit)
        })
        .or_else(|| parse_tok(tok))
}

/// A sparse matrix read from Matrix Market coordinate format.
#[derive(Clone, Debug)]
pub struct CoordinateMatrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// `(row, col, value)` entries, zero-based.
    pub entries: Vec<(VertexId, VertexId, Weight)>,
    /// Whether the header declared `symmetric`.
    pub symmetric: bool,
}

impl CoordinateMatrix {
    /// Interprets the matrix as the **bipartite graph** of its nonzero
    /// pattern (rows = left vertices, columns = right) with `|value|` as
    /// edge weight — the representation Table 1.1 uses.
    pub fn to_bipartite(&self) -> BipartiteGraph {
        BipartiteGraph::from_edges(
            self.rows,
            self.cols,
            self.entries.iter().map(|&(r, c, v)| (r, c, v.abs())),
        )
    }

    /// Interprets a square matrix as the **adjacency graph** of `A + Aᵀ`
    /// (off-diagonal pattern), weight `|value|` — the representation the
    /// coloring experiments use.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn to_adjacency(&self) -> CsrGraph {
        assert_eq!(
            self.rows, self.cols,
            "adjacency graph needs a square matrix"
        );
        // An entry that mirrors the one before it (how a `symmetric` file
        // is stored) is the same edge at the same weight: building would
        // only collapse the pair again.
        let edges = || {
            let entries = self.entries.iter().enumerate();
            entries.filter_map(|(i, &(r, c, v))| {
                let mirror = i > 0 && self.entries[i - 1] == (c, r, v);
                (r != c && !mirror).then_some((r, c, v.abs()))
            })
        };
        csr_from_edges(self.rows, edges().next().is_some(), edges)
    }
}

/// Reads a Matrix Market `coordinate` file (`real`, `integer` or `pattern`;
/// `general` or `symmetric`).
pub fn read_matrix_market(reader: impl Read) -> Result<CoordinateMatrix, IoError> {
    let mut lines = Lines::new(reader);
    let header = match lines.next_line()? {
        Some(line) => String::from_utf8_lossy(line).to_lowercase(),
        None => return Err(parse_err("empty file")),
    };
    if !header.starts_with("%%matrixmarket") {
        return Err(parse_err("missing %%MatrixMarket header"));
    }
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 5 || fields[1] != "matrix" || fields[2] != "coordinate" {
        return Err(parse_err(format!("unsupported header: {header}")));
    }
    let pattern = fields[3] == "pattern";
    if !matches!(fields[3], "real" | "integer" | "pattern") {
        return Err(parse_err(format!("unsupported field type: {}", fields[3])));
    }
    let symmetric = fields[4] == "symmetric";
    if !matches!(fields[4], "general" | "symmetric") {
        return Err(parse_err(format!("unsupported symmetry: {}", fields[4])));
    }

    let size_line = lines
        .next_data_line(b'%')?
        .ok_or_else(|| parse_err("missing size line"))?;
    let mut dims = Tokens(size_line).map(parse_usize);
    let (Some(Some(rows)), Some(Some(cols)), Some(Some(nnz)), None) =
        (dims.next(), dims.next(), dims.next(), dims.next())
    else {
        return Err(bad("bad size line", size_line));
    };
    if rows.max(cols) >= NO_VERTEX as usize {
        return Err(bad("dimensions exceed the vertex id range", size_line));
    }

    // `nnz` is the file's claim: reserve on it up to a cap, and hold the
    // entry lines to it once they are counted.
    let mut entries = Vec::with_capacity(nnz.min(MAX_RESERVE));
    let mut seen = 0usize;
    while let Some(line) = lines.next_data_line(b'%')? {
        let mut toks = Tokens(line);
        let mut index = || toks.next().and_then(parse_usize);
        let (Some(r), Some(c)) = (index(), index()) else {
            return Err(bad("bad entry", line));
        };
        let v: Weight = if pattern {
            1.0
        } else {
            toks.next()
                .and_then(parse_tok)
                .ok_or_else(|| bad("bad value", line))?
        };
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(bad("entry out of range", line));
        }
        seen += 1;
        entries.push(((r - 1) as VertexId, (c - 1) as VertexId, v));
        if symmetric && r != c {
            entries.push(((c - 1) as VertexId, (r - 1) as VertexId, v));
        }
    }
    if seen != nnz {
        return Err(parse_err(format!(
            "size line declares {nnz} entries, file has {seen}"
        )));
    }
    Ok(CoordinateMatrix {
        rows,
        cols,
        entries,
        symmetric,
    })
}

/// Writes a graph as a Matrix Market symmetric coordinate file.
pub fn write_matrix_market(g: &CsrGraph, mut w: impl Write) -> Result<(), IoError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real symmetric")?;
    writeln!(
        w,
        "{} {} {}",
        g.num_vertices(),
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v, wt) in g.edges() {
        // Lower triangle, 1-based: row > col.
        writeln!(w, "{} {} {}", v + 1, u + 1, wt)?;
    }
    Ok(())
}

/// Reads a whitespace edge list: lines of `u v [w]`, zero-based ids,
/// `#`-comments allowed. `n` is inferred as max id + 1.
pub fn read_edge_list(reader: impl Read) -> Result<CsrGraph, IoError> {
    let mut lines = Lines::new(reader);
    let mut b = GraphBuilder::new(0);
    while let Some(line) = lines.next_data_line(b'#')? {
        let mut toks = Tokens(line);
        // `n` becomes the largest id + 1 and has to stay below `NO_VERTEX`.
        let fits = |id: &usize| *id < NO_VERTEX as usize - 1;
        let mut id = || toks.next().and_then(parse_usize).filter(fits);
        let (Some(u), Some(v)) = (id(), id()) else {
            return Err(bad("bad line", line));
        };
        let w: Weight = match toks.next() {
            Some(t) => parse_tok(t).ok_or_else(|| bad("bad weight", line))?,
            None => 1.0,
        };
        b.grow_to(u.max(v) + 1);
        b.add_edge(u as VertexId, v as VertexId, w);
    }
    Ok(b.build())
}

/// Writes a graph as a `u v w` edge list.
pub fn write_edge_list(g: &CsrGraph, mut w: impl Write) -> Result<(), IoError> {
    for (u, v, wt) in g.edges() {
        writeln!(w, "{u} {v} {wt}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid2d;
    use crate::weights::{assign_weights, WeightScheme};

    const MM_GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 4 3\n\
        1 1 2.5\n\
        2 3 -1.0\n\
        3 4 4.0\n";

    const MM_SYMMETRIC: &str = "%%MatrixMarket matrix coordinate real symmetric\n\
        3 3 3\n\
        1 1 1.0\n\
        2 1 2.0\n\
        3 2 3.0\n";

    #[test]
    fn read_general_matrix() {
        let m = read_matrix_market(MM_GENERAL.as_bytes()).unwrap();
        assert_eq!((m.rows, m.cols), (3, 4));
        assert_eq!(m.entries.len(), 3);
        assert!(!m.symmetric);
        let bg = m.to_bipartite();
        assert_eq!(bg.num_edges(), 3);
        assert_eq!(bg.neighbor_weights(1), &[1.0]); // |-1.0|
    }

    #[test]
    fn read_symmetric_matrix_to_adjacency() {
        let m = read_matrix_market(MM_SYMMETRIC.as_bytes()).unwrap();
        assert!(m.symmetric);
        let g = m.to_adjacency();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2); // diagonal dropped
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        g.validate().unwrap();
    }

    #[test]
    fn pattern_matrices_get_unit_values() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.entries, vec![(0, 1, 1.0)]);
    }

    #[test]
    fn reject_bad_header() {
        assert!(read_matrix_market("hello\n1 1 0\n".as_bytes()).is_err());
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes())
                .is_err()
        );
    }

    #[test]
    fn reject_out_of_range_entry() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_round_trip() {
        let g = assign_weights(&grid2d(4, 4), WeightScheme::Uniform { lo: 0.5, hi: 1.5 }, 7);
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let g2 = read_matrix_market(&buf[..]).unwrap().to_adjacency();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_round_trip() {
        let g = assign_weights(&grid2d(3, 5), WeightScheme::Integer { max: 9 }, 1);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_unweighted_and_comments() {
        let src = "# comment\n0 1\n1 2\n";
        let g = read_edge_list(src.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }
}
