//! Graph file I/O: Matrix Market coordinate format (the UF Sparse Matrix
//! Collection's native format, so the paper's real matrices can be dropped
//! in when available) and a simple whitespace edge-list format.
//!
//! Headers, size lines and METIS files ([`crate::metis_io`]) go through
//! `Lines`, which reads blocks straight from the `impl Read` and hands out
//! lines as slices of its buffer; `Tokens` splits a line in place. A
//! coordinate body is parsed by `Lines::read_body` on all cores. Nothing is
//! allocated per line. Pass the file itself, not a `BufReader` around it.

use crate::builder::csr_from_edges;
use crate::{BipartiteGraph, CsrGraph, VertexId, Weight, NO_VERTEX};
use std::io::{ErrorKind, Read, Write};
use std::iter::once;

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

/// Bytes asked of the reader per refill, and per block of a coordinate
/// body; only a longer line grows the buffer.
const BLOCK: usize = 64 << 10;
const BODY_BLOCK: usize = 1 << 20;

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

    /// Parses the rest of the input as a coordinate body into `out`, a block at a time: a
    /// block's pieces (≥ a quarter block) at once, the first here, the rest on scoped threads
    /// into `spare` vectors appended in order. The first failing piece's error wins.
    fn read_body(mut self, body: Body, cut: Cut, out: &mut Vec<Entry>) -> Result<(), IoError> {
        let ((block, pieces), buf) = (cut, &mut self.buf);
        buf.truncate(self.end);
        buf.drain(..self.start);
        let mut spare = vec![Vec::new(); pieces - 1];
        loop {
            // Top `buf` up to a block (a long carried line doubles it); what a
            // failed read left is parsed before its error, as by line.
            let want = block.saturating_sub(buf.len()).max(buf.len());
            buf.reserve(want);
            let read = self.reader.by_ref().take(want as u64).read_to_end(buf);
            // At end of input the last line needs no `\n`.
            let eof = matches!(read, Ok(0));
            let newline = buf.iter().rposition(|&b| eof || b == b'\n');
            let whole = newline.map_or(0, |i| i + 1);
            let k = (whole / (block / 4).max(1)).clamp(1, pieces);
            let mut head = &buf[..whole];
            spare.iter_mut().for_each(Vec::clear);
            std::thread::scope(|scope| {
                let mut helpers = Vec::with_capacity(k - 1);
                for (i, v) in (1..k).zip(&mut spare).rev() {
                    let piece;
                    (head, piece) = head.split_at(next_line(head, i * whole / k));
                    helpers.push(scope.spawn(move || body.parse(piece, v)));
                }
                let first = body.parse(head, out);
                helpers.into_iter().rev().fold(first, |verdict, h| {
                    verdict.and(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                })
            })?;
            spare.iter().for_each(|v| out.extend_from_slice(v));
            if read? == 0 {
                return Ok(());
            }
            buf.drain(..whole);
        }
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
    match digits(tok, 0) {
        Some((x, end)) if end == tok.len() => Some(x),
        _ => parse_tok(tok),
    }
}

/// The number the digits at `s[at..]` spell and where they stop, if any.
fn digits(s: &[u8], mut at: usize) -> Option<(usize, usize)> {
    let start = at;
    let mut x = 0usize;
    while let Some(d) = s.get(at).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        x = x.checked_mul(10)?.checked_add(usize::from(d))?;
        at += 1;
    }
    (at > start).then_some((x, at))
}

/// Past the space or tab at `s[at]`.
fn gap(s: &[u8], at: usize) -> Option<usize> {
    matches!(s.get(at), Some(b' ' | b'\t')).then_some(at + 1)
}

/// Where the line after the one at `s[at..]` starts (or `s` ends).
fn next_line(s: &[u8], at: usize) -> usize {
    let len = s[at..].iter().position(|&b| b == b'\n');
    len.map_or(s.len(), |len| at + len + 1)
}

type Entry = (VertexId, VertexId, Weight);

/// A coordinate body's grammar: Matrix Market `(rows, cols, pattern)` — 1-based ids in range, a
/// value unless `pattern`, `%` comments — or edge list: 0-based, optional weight, `#` comments.
#[derive(Clone, Copy)]
enum Body {
    Matrix(usize, usize, bool),
    EdgeList,
}

impl Body {
    /// The entry of one data line by the token path: every layout the
    /// format allows, and every error.
    fn entry(self, line: &[u8]) -> Result<Entry, IoError> {
        let mut toks = Tokens(line);
        if let Body::Matrix(rows, cols, pattern) = self {
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
            return Ok(((r - 1) as VertexId, (c - 1) as VertexId, v));
        }
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
        Ok((u as VertexId, v as VertexId, w))
    }

    /// The line at `s[at..]` in one pass if writers' shape (digits, blank,
    /// digits, blank, value unless `pattern`; ids in range): its entry and
    /// the next line's start. Else `entry` judges it.
    fn fast(self, s: &[u8], at: usize) -> Option<(Entry, usize)> {
        let (r, at) = digits(s, at)?;
        let (c, mut at) = digits(s, gap(s, at)?)?;
        let (r, c, pattern) = match self {
            Body::Matrix(rows, cols, pattern) => {
                let (r, c) = (r.wrapping_sub(1), c.wrapping_sub(1));
                (r < rows && c < cols).then_some((r, c, pattern))?
            }
            Body::EdgeList => (r.max(c) < NO_VERTEX as usize - 1).then_some((r, c, false))?,
        };
        let mut v = 1.0;
        if !pattern {
            let start = gap(s, at)?;
            at = start + s[start..].iter().take_while(|&&b| !is_space(b)).count();
            v = parse_tok(&s[start..at])?;
        }
        // The last token ends at a blank; `entry` too ignores what follows.
        s.get(at).is_none_or(|&b| is_space(b)).then_some(())?;
        Some(((r as VertexId, c as VertexId, v), next_line(s, at)))
    }

    /// Appends the entries of the data lines of `s` to `out`, up to the
    /// first bad one.
    fn parse(self, s: &[u8], out: &mut Vec<Entry>) -> Result<(), IoError> {
        let comment = [b'#', b'%'][usize::from(matches!(self, Body::Matrix(..)))];
        let mut at = 0;
        while at < s.len() {
            if let Some((entry, next)) = self.fast(s, at) {
                out.push(entry);
                at = next;
                continue;
            }
            let line = &s[at..next_line(s, at)];
            at += line.len();
            if Tokens(line).next().is_some_and(|tok| tok[0] != comment) {
                out.push(self.entry(line)?);
            }
        }
        Ok(())
    }
}

/// `(block, pieces)`: bytes read at a time, most pieces a block is cut into.
type Cut = (usize, usize);

fn host_cut() -> Cut {
    let cores = std::thread::available_parallelism();
    (BODY_BLOCK, cores.map_or(1, usize::from))
}

/// A sparse matrix read from Matrix Market coordinate format.
#[derive(Clone, Debug)]
pub struct CoordinateMatrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// `(row, col, value)`, zero-based, one per entry line; mirrors are implied.
    pub entries: Vec<(VertexId, VertexId, Weight)>,
    /// Whether the header declared `symmetric`: each entry implies its mirror.
    pub symmetric: bool,
}

impl CoordinateMatrix {
    /// Interprets the matrix as the **bipartite graph** of its nonzero
    /// pattern (rows = left vertices, columns = right) with `|value|` as
    /// edge weight — the representation Table 1.1 uses.
    pub fn to_bipartite(&self) -> BipartiteGraph {
        let mirror = |&(r, c, v): &Entry| (self.symmetric && r != c).then_some((c, r, v));
        let all = self.entries.iter().flat_map(|e| once(*e).chain(mirror(e)));
        BipartiteGraph::from_edges(self.rows, self.cols, all.map(|(r, c, v)| (r, c, v.abs())))
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
        // Mirrors need no expanding: the build inserts both directions.
        let edges = || {
            let off_diagonal = self.entries.iter().filter(|&&(r, c, _)| r != c);
            off_diagonal.map(|&(r, c, v)| (r, c, v.abs()))
        };
        csr_from_edges(self.rows, edges().next().is_some(), edges)
    }
}

/// Reads a Matrix Market `coordinate` file (`real`, `integer` or `pattern`;
/// `general` or `symmetric`).
pub fn read_matrix_market(reader: impl Read) -> Result<CoordinateMatrix, IoError> {
    read_matrix_market_with(reader, host_cut())
}

fn read_matrix_market_with(reader: impl Read, cut: Cut) -> Result<CoordinateMatrix, IoError> {
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
    lines.read_body(Body::Matrix(rows, cols, pattern), cut, &mut entries)?;
    if entries.len() != nnz {
        return Err(parse_err(format!(
            "size line declares {nnz} entries, file has {}",
            entries.len()
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
    read_edge_list_with(reader, host_cut())
}

fn read_edge_list_with(reader: impl Read, cut: Cut) -> Result<CsrGraph, IoError> {
    let mut list = Vec::new();
    Lines::new(reader).read_body(Body::EdgeList, cut, &mut list)?;
    let n = list.iter().map(|&(u, v, _)| u.max(v) as usize + 1).max();
    let edges = || list.iter().copied().filter(|&(u, v, _)| u != v);
    let weighted = edges().next().is_some();
    Ok(csr_from_edges(n.unwrap_or(0), weighted, edges))
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
    use crate::GraphBuilder;
    use proptest::prelude::*;

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
        // One entry per line; the mirrors are implied.
        assert_eq!(m.entries, [(0, 0, 1.0), (1, 0, 2.0), (2, 1, 3.0)]);
        assert_eq!(m.to_bipartite().num_edges(), 5);
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

    /// The Matrix Market reader as it was before bodies were read in
    /// blocks: one line at a time through `Lines`, every line by the token
    /// path, a `symmetric` file's mirrors stored behind each entry.
    fn line_at_a_time_matrix_market(
        reader: impl Read,
    ) -> Result<(usize, usize, Vec<Entry>, bool), IoError> {
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
        Ok((rows, cols, entries, symmetric))
    }

    /// The edge-list reader as it was before bodies were read in blocks
    /// (it raised the builder's vertex count line by line; building on
    /// the largest id + 1 is the same graph).
    fn line_at_a_time_edge_list(reader: impl Read) -> Result<CsrGraph, IoError> {
        let mut lines = Lines::new(reader);
        let mut edges = Vec::new();
        while let Some(line) = lines.next_data_line(b'#')? {
            let mut toks = Tokens(line);
            let fits = |id: &usize| *id < NO_VERTEX as usize - 1;
            let mut id = || toks.next().and_then(parse_usize).filter(fits);
            let (Some(u), Some(v)) = (id(), id()) else {
                return Err(bad("bad line", line));
            };
            let w: Weight = match toks.next() {
                Some(t) => parse_tok(t).ok_or_else(|| bad("bad weight", line))?,
                None => 1.0,
            };
            edges.push((u as VertexId, v as VertexId, w));
        }
        let n = edges.iter().map(|&(u, v, _)| u.max(v) as usize + 1).max();
        let mut b = GraphBuilder::new(n.unwrap_or(0));
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        Ok(b.build())
    }

    /// Hands back 1–7 bytes per `read`, so that the header leaves little
    /// behind in `Lines` and the body arrives block by block.
    struct Trickle<'a>(&'a [u8], u64);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 = self.1.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (1 + (self.1 >> 33) as usize % 7)
                .min(buf.len())
                .min(self.0.len());
            buf[..k].copy_from_slice(&self.0[..k]);
            self.0 = &self.0[k..];
            Ok(k)
        }
    }

    /// One entry line in one of the layouts the formats tolerate: tabs,
    /// leading blanks, `+` signs, trailing tokens, `%`/`#` and blank lines
    /// before it, an exponent. `value` is empty for a pattern line.
    fn dress(style: u8, comment: char, eol: &str, (r, c): (u32, u32), value: &str) -> String {
        match style % 6 {
            0 => format!("{r} {c} {value}{eol}"),
            1 => format!("{r}\t{c}\t{value}{eol}"),
            2 => format!("  \t+{r}\t{c}   {value} trailing tokens{eol}"),
            3 => format!("{comment}{eol}{r} +{c} {value}\t{eol}"),
            4 => {
                let plus = if value.is_empty() { "" } else { "+" };
                format!("{eol} \t{eol}0{r} {c} {plus}{value}{eol}")
            }
            _ => format!(" {comment} not an entry{eol}{r}  {c}  {value}  {eol}"),
        }
    }

    /// Lines that are errors in one grammar or both, or valid entries
    /// (blanks other than spaces and tabs, a pattern file's ignored value)
    /// the size line did not count.
    const BAD: [&[u8]; 17] = [
        b"1",
        b"x 1 1.0",
        b"1 1.5 1.0",
        b"1 -1 1.0",
        b"1 99999999999999999999 1.0",
        b"1 1",
        b"1 1 1.0.0",
        b"1 1 heavy",
        b"99 1 1.0",
        b"1 0 1.0",
        b"1x 1 2.0",
        b"\xff 1 1.0",
        b"1 1 \xc3\x28",
        b"4294967295 0",
        b"0 4294967294 1",
        b"1 2\r3",
        b"1\x0b2 3",
    ];

    /// A body as `(line, entry)` pairs plus the lines to inject.
    type Case = (Vec<(u8, (u32, u32), i32)>, Vec<(usize, usize)>);

    fn cases() -> impl Strategy<Value = Case> {
        let value = (0u32..24).prop_map(|v| v as i32 - 12);
        let line = (any::<u8>(), (1u32..6, 1u32..6), value);
        let injected = collection::vec((any::<usize>(), 0..BAD.len()), 0..3);
        (collection::vec(line, 0..40), injected)
    }

    /// `body` with the `BAD` lines of `injected` spliced in before the
    /// lines at (their index mod the line count + 1).
    fn splice(mut body: Vec<Vec<u8>>, injected: &[(usize, usize)], eol: &str) -> Vec<u8> {
        for &(at, bad) in injected {
            let line = [BAD[bad], eol.as_bytes()].concat();
            body.insert(at % (body.len() + 1), line);
        }
        body.concat()
    }

    fn verdict<T>(r: Result<T, IoError>) -> Result<T, String> {
        r.map_err(|e| e.to_string())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn blocks_and_pieces_read_what_the_line_reader_reads(
            (lines, injected) in cases(),
            field in 0usize..3,
            symmetric in any::<bool>(),
            crlf in any::<bool>(),
            final_eol in any::<bool>(),
            trickle in any::<bool>(),
            (block, pieces) in (1usize..98, 1usize..8),
        ) {
            let eol = if crlf { "\r\n" } else { "\n" };
            let field = ["real", "integer", "pattern"][field];
            let sym = if symmetric { "symmetric" } else { "general" };
            let mut text = format!("%%MatrixMarket matrix coordinate {field} {sym}{eol}% c{eol}");
            text += &format!("5 5 {}{eol}", lines.len());
            let body = lines.iter().map(|&(style, ids, v)| {
                let value = match field {
                    "pattern" => String::new(),
                    "integer" => format!("{v}"),
                    _ if style % 2 == 0 => format!("{}", f64::from(v) / 4.0),
                    _ => format!("{:e}", f64::from(v) / 4.0),
                };
                // `+` only in front of a non-negative value.
                let style = if v < 0 && style % 6 == 4 { 0 } else { style };
                dress(style, '%', eol, ids, &value).into_bytes()
            });
            let mut text = [text.into_bytes(), splice(body.collect(), &injected, eol)].concat();
            if !final_eol && text.ends_with(eol.as_bytes()) {
                text.truncate(text.len() - eol.len());
            }

            let model = verdict(line_at_a_time_matrix_market(&text[..])).map(|(rows, cols, e, sym)| {
                // Keep each entry line's own entry: skip the mirror behind
                // an off-diagonal one.
                let mut kept = Vec::new();
                let mut i = 0;
                while i < e.len() {
                    kept.push(e[i]);
                    i += if sym && e[i].0 != e[i].1 { 2 } else { 1 };
                }
                (rows, cols, kept, sym)
            });
            let got = match trickle {
                true => read_matrix_market_with(Trickle(&text, 1), (block, pieces)),
                false => read_matrix_market_with(&text[..], (block, pieces)),
            };
            let got = verdict(got).map(|m| (m.rows, m.cols, m.entries, m.symmetric));
            prop_assert_eq!(got, model);
        }

        #[test]
        fn edge_lists_in_blocks_and_pieces_read_as_line_by_line(
            (lines, injected) in cases(),
            crlf in any::<bool>(),
            trickle in any::<bool>(),
            (block, pieces) in (1usize..98, 1usize..8),
        ) {
            let eol = if crlf { "\r\n" } else { "\n" };
            let body = lines.iter().map(|&(style, (u, v), w)| {
                let w = match style % 3 {
                    0 => String::new(),
                    1 => format!("{}", f64::from(w.abs()) / 4.0),
                    _ => format!("{:e}", f64::from(w.abs())),
                };
                dress(style / 3, '#', eol, (u - 1, v - 1), &w).into_bytes()
            });
            let text = splice(body.collect(), &injected, eol);
            let model = verdict(line_at_a_time_edge_list(&text[..]));
            let got = match trickle {
                true => read_edge_list_with(Trickle(&text, 1), (block, pieces)),
                false => read_edge_list_with(&text[..], (block, pieces)),
            };
            prop_assert_eq!(verdict(got), model);
        }
    }
}
