//! The ingest path from outside: the three readers behind a `Read` that
//! hands back a few bytes at a time, files dressed in everything the
//! formats tolerate, every malformed file as a typed error, and
//! `GraphBuilder::build` against a map model.

use cmg_graph::io::{self, IoError};
use cmg_graph::metis_io::{read_metis, write_metis};
use cmg_graph::{CsrGraph, GraphBuilder, VertexId, Weight};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::Read;

/// Hands back 1–7 bytes per `read`, so that every line is cut by a
/// "block edge" somewhere.
struct Trickle<'a> {
    data: &'a [u8],
    state: u64,
}

fn trickle(data: &[u8]) -> Trickle<'_> {
    Trickle { data, state: 1 }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let k = (1 + (self.state >> 33) as usize % 7)
            .min(buf.len())
            .min(self.data.len());
        buf[..k].copy_from_slice(&self.data[..k]);
        self.data = &self.data[k..];
        Ok(k)
    }
}

type Edges = Vec<(VertexId, VertexId, Weight)>;

/// Random edge multisets on `n` vertices: duplicates, both orientations,
/// self-loops, no order; weights from a small set so duplicates disagree.
fn edge_multisets() -> impl Strategy<Value = (usize, Edges)> {
    (1usize..14).prop_flat_map(|n| {
        let id = 0..n as VertexId;
        let edge = (id.clone(), id, 1u32..6).prop_map(|(u, v, w)| (u, v, f64::from(w) / 4.0));
        (Just(n), collection::vec(edge, 0..60))
    })
}

fn build(n: usize, edges: &Edges) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// `g` as a Matrix Market file wearing what the format tolerates: CRLF
/// or LF, blank and `%` lines between entries, tabs and leading spaces,
/// `+` signs, trailing extra tokens, no final newline. `style` picks.
fn dressed_matrix_market(g: &CsrGraph, style: u64) -> Vec<u8> {
    let eol = if style & 1 == 0 { "\n" } else { "\r\n" };
    let n = g.num_vertices();
    let mut s = format!("%%MatrixMarket MATRIX coordinate Real symmetric{eol}");
    s += &format!(
        "% written by a test{eol}{eol}  {n}\t{n} +{}{eol}",
        g.num_edges()
    );
    for (k, (u, v, w)) in g.edges().enumerate() {
        match (style >> 1).wrapping_add(k as u64) % 5 {
            0 => s += &format!("{} {} {w}{eol}", v + 1, u + 1),
            1 => s += &format!("  \t+{}\t{}   {w} trailing tokens{eol}", v + 1, u + 1),
            2 => s += &format!("%{eol}{} +{} {w}\t{eol}", v + 1, u + 1),
            3 => s += &format!("{eol} \t{eol}{} {} +{w}{eol}", v + 1, u + 1),
            _ => s += &format!(" % not an entry{eol}0{} {} {w:e}{eol}", v + 1, u + 1),
        }
    }
    if style & 64 != 0 {
        s.truncate(s.len() - eol.len());
    }
    s.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn builder_agrees_with_a_map_model((n, edges) in edge_multisets(), unweighted in 0u32..3) {
        // unweighted: 0 = every edge weighted, 1 = every third one not, 2 = none weighted.
        let mut b = GraphBuilder::new(n);
        let mut model: BTreeMap<(VertexId, VertexId), Weight> = BTreeMap::new();
        let mut any_weight = false;
        for (k, &(u, v, w)) in edges.iter().enumerate() {
            let plain = unweighted == 2 || (unweighted == 1 && k % 3 == 0);
            if plain {
                b.add_edge_unweighted(u, v);
            } else {
                b.add_edge(u, v, w);
            }
            if u != v {
                any_weight |= !plain;
                let slot = model.entry((u.min(v), u.max(v))).or_insert(0.0);
                *slot = slot.max(if plain { 1.0 } else { w });
            }
        }
        prop_assert_eq!(b.num_buffered_edges(), edges.iter().filter(|e| e.0 != e.1).count());
        let g = b.build();
        g.validate().unwrap();
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.is_weighted(), any_weight);
        let want: Edges = model
            .into_iter()
            .map(|((u, v), w)| (u, v, if any_weight { w } else { 1.0 }))
            .collect();
        prop_assert_eq!(g.edges().collect::<Edges>(), want);
    }

    #[test]
    fn matrix_market_survives_any_dress_and_any_read_size(
        (n, edges) in edge_multisets(),
        style in any::<u64>(),
    ) {
        let g = build(n, &edges);
        let mut plain = Vec::new();
        io::write_matrix_market(&g, &mut plain).unwrap();
        for text in [plain, dressed_matrix_market(&g, style)] {
            let m = io::read_matrix_market(trickle(&text)).unwrap();
            prop_assert!(m.symmetric);
            prop_assert_eq!((m.rows, m.cols), (n, n));
            prop_assert_eq!(m.to_adjacency(), g.clone());
            let all_at_once = io::read_matrix_market(&text[..]).unwrap();
            prop_assert_eq!(all_at_once.entries, m.entries);
        }
    }

    #[test]
    fn edge_list_and_metis_survive_any_read_size((n, edges) in edge_multisets(), crlf in any::<bool>()) {
        let g = build(n, &edges);
        let eol = |text: Vec<u8>| match crlf {
            true => String::from_utf8(text).unwrap().replace('\n', "\r\n").into_bytes(),
            false => text,
        };

        let mut text = b"# u v w\n\n".to_vec();
        io::write_edge_list(&g, &mut text).unwrap();
        let back = io::read_edge_list(trickle(&eol(text))).unwrap();
        // The edge list carries no vertex count: trailing isolated
        // vertices are not written.
        let seen = g.edges().map(|(_, v, _)| v as usize + 1).max().unwrap_or(0);
        prop_assert_eq!(back.num_vertices(), seen);
        prop_assert_eq!(back.edges().collect::<Edges>(), g.edges().collect::<Edges>());

        let mut text = b"% a comment\n".to_vec();
        write_metis(&g, &mut text).unwrap();
        prop_assert_eq!(read_metis(trickle(&eol(text))).unwrap(), g);
    }
}

#[test]
fn a_line_longer_than_the_block_is_carried_whole() {
    let g = build(5, &vec![(0, 1, 0.5), (3, 1, 2.0), (4, 0, 1.5)]);
    let mut text = Vec::new();
    io::write_matrix_market(&g, &mut text).unwrap();
    // A 200 kB comment after the size line, and an entry line padded as far.
    let newlines = text.iter().enumerate().filter(|(_, &b)| b == b'\n');
    let size_line_end = newlines.map(|(i, _)| i + 1).nth(1).unwrap();
    let mut long = text[..size_line_end].to_vec();
    long.push(b'%');
    long.resize(long.len() + 200_000, b'x');
    long.push(b'\n');
    long.resize(long.len() + 200_000, b' ');
    long.extend_from_slice(&text[size_line_end..]);
    assert_eq!(
        io::read_matrix_market(trickle(&long))
            .unwrap()
            .to_adjacency(),
        g
    );
    assert_eq!(io::read_matrix_market(&long[..]).unwrap().to_adjacency(), g);
}

const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n";

#[test]
fn adjacency_of_a_general_matrix_keeps_the_heavier_triangle() {
    // Both triangles at different weights, a diagonal entry, and an entry
    // repeated as its own mirror's mirror.
    let body = "3 3 6\n1 2 1.0\n2 1 -3.0\n2 2 9.0\n3 1 2.0\n1 3 2.0\n3 1 2.0\n";
    let m = io::read_matrix_market(format!("{GENERAL}{body}").as_bytes()).unwrap();
    assert_eq!(m.entries.len(), 6);
    let g = m.to_adjacency();
    g.validate().unwrap();
    assert_eq!(g.edges().collect::<Edges>(), [(0, 1, 3.0), (0, 2, 2.0)]);
}

#[test]
fn bipartite_graph_of_a_symmetric_file_is_pinned() {
    // 300 lower-triangle lines on 40 vertices: diagonal entries, repeated
    // positions at other weights, negative values, mirrors implied.
    let mut state = 7u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut text = String::from("%%MatrixMarket matrix coordinate real symmetric\n40 40 300\n");
    for _ in 0..300 {
        let r = 1 + next(40);
        let c = 1 + next(r);
        let v = (next(2000) as f64 - 1000.0) / 7.0;
        text += &format!("{r} {c} {v}\n");
    }
    let bg = io::read_matrix_market(text.as_bytes())
        .unwrap()
        .to_bipartite();
    // FNV-1a over the shape and every (left, right, weight bits) edge.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = [bg.num_left() as u64, bg.num_right() as u64];
    let edges = bg
        .edges()
        .flat_map(|(l, r, w)| [u64::from(l), u64::from(r), w.to_bits()]);
    for word in words.into_iter().chain(edges) {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    assert_eq!((bg.num_edges(), h), (457, 0x0864_8024_8ac1_4251));
}

fn parse_error(text: &[u8]) -> String {
    match io::read_matrix_market(text) {
        Err(IoError::Parse(msg)) => msg,
        other => panic!("{:?} gave {other:?}", String::from_utf8_lossy(text)),
    }
}

#[test]
fn malformed_matrix_market_is_a_parse_error_never_a_panic() {
    for (body, what) in [
        // Header and size line.
        ("", "empty file"),
        ("hello\n1 1 0\n", "missing %%MatrixMarket header"),
        (
            "%%MatrixMarket matrix array real general\n1 1 0\n",
            "unsupported header",
        ),
        (
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
            "unsupported field type",
        ),
        (
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
            "unsupported symmetry",
        ),
    ] {
        assert!(parse_error(body.as_bytes()).starts_with(what), "{body:?}");
    }
    for (body, what) in [
        ("", "missing size line"),
        ("% only\n\n% comments\n", "missing size line"),
        ("2 2\n", "bad size line"),
        ("2 2 1 7\n1 1 1.0\n", "bad size line"),
        ("2 x 1\n1 1 1.0\n", "bad size line"),
        ("2 2 -1\n", "bad size line"),
        ("2 2 99999999999999999999\n", "bad size line"),
        // Entries.
        ("2 2 1\n1\n", "bad entry"),
        ("2 2 1\nx 1 1.0\n", "bad entry"),
        ("2 2 1\n1 1.5 1.0\n", "bad entry"),
        ("2 2 1\n1 -1 1.0\n", "bad entry"),
        ("2 2 1\n1 99999999999999999999 1.0\n", "bad entry"),
        ("2 2 1\n1 1\n", "bad value"),
        ("2 2 1\n1 1 1.0.0\n", "bad value"),
        ("2 2 1\n3 1 1.0\n", "entry out of range"),
        ("2 2 1\n1 0 1.0\n", "entry out of range"),
        // The size line lies.
        ("3 3 1152921504606846975\n1 1 1.0\n", "size line declares"),
        ("3 3 10000000000\n1 1 1.0\n", "size line declares"),
        ("3 3 2\n1 1 1.0\n", "size line declares"),
        ("3 3 1\n1 1 1.0\n2 2 1.0\n", "size line declares"),
        ("4294967296 3 0\n", "dimensions exceed"),
        ("3 4294967295 0\n", "dimensions exceed"),
    ] {
        let text = format!("{GENERAL}{body}");
        assert!(parse_error(text.as_bytes()).starts_with(what), "{body:?}");
    }
    // Bytes that are not UTF-8: an error inside an entry, ignored inside
    // a comment.
    for entry in [&b"\xff 1 1.0\n"[..], b"1 1 \xc3\x28\n", b"1 \xe2\x82 2.0\n"] {
        let text = [GENERAL.as_bytes(), b"2 2 1\n", entry].concat();
        assert!(parse_error(&text).starts_with("bad "));
    }
    let text = [GENERAL.as_bytes(), b"% \xff\xfe\n2 2 1\n1 2 3.0\n"].concat();
    assert_eq!(
        io::read_matrix_market(&text[..]).unwrap().entries,
        [(0, 1, 3.0)]
    );
}

#[test]
fn malformed_edge_lists_and_metis_files_are_parse_errors() {
    for text in [
        "0\n",
        "0 x\n",
        "0 1 heavy\n",
        "0 4294967295\n",
        "0 4294967294\n",
        "0 -1\n",
        "\u{ff}",
    ] {
        assert!(
            matches!(io::read_edge_list(text.as_bytes()), Err(IoError::Parse(_))),
            "{text:?}"
        );
    }
    for text in [
        "",
        "% nothing\n",
        "3\n",
        "x 1\n",
        "4294967295 0\n",
        "2 1 100\n",
        "2 1 2\n",
        "2 1 1\n2\n1 0.5\n",
        "2 1 1\n2 0.5\n1 x\n",
        "2 1\n2\n1 3\n",
        "2 1152921504606846975\n2\n1\n",
    ] {
        assert!(
            matches!(read_metis(text.as_bytes()), Err(IoError::Parse(_))),
            "{text:?}"
        );
    }
}

#[test]
fn a_failing_reader_is_an_io_error() {
    struct Broken;
    impl Read for Broken {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
    }
    let text = format!("{GENERAL}2 2 1\n");
    let cut = text.as_bytes().chain(Broken);
    assert!(matches!(io::read_matrix_market(cut), Err(IoError::Io(_))));
    assert!(matches!(io::read_edge_list(Broken), Err(IoError::Io(_))));
    assert!(matches!(read_metis(Broken), Err(IoError::Io(_))));
}
