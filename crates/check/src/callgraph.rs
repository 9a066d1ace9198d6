//! Conservative name-resolution call graph over the [`crate::parse`] IR.
//!
//! Nodes are every parsed [`FnItem`] in the workspace; edges are call
//! sites resolved by name with the following policy, tuned to keep the
//! graph *useful* (few false edges) while staying *conservative* (no
//! resolvable workspace call is dropped):
//!
//! * **Typed receivers first.** A method call whose receiver chain
//!   resolves to a type — `self` (the enclosing impl), a typed
//!   parameter, a struct field walked through the field tables, or a
//!   simple `let x = Type::…` local — resolves only within that type's
//!   impls. A generic parameter (`S`, `T`) is no type: it fans out. A typed receiver that matches no workspace method is
//!   external (std/shim) and produces no edge: `tx.send(…)` on an
//!   `mpsc::Sender` never resolves to `LinkWriter::send`.
//! * **Untyped receivers fan out, minus builtins.** With no type hint
//!   the call resolves to every workspace method of that name — unless
//!   the name is on the std-builtin deny list (`push`, `get`, `iter`,
//!   `map`, …), where a workspace hit is overwhelmingly a false edge.
//! * **Free calls prefer proximity.** `helper()` resolves to free fns
//!   named `helper` in the same file if any, else the same crate, else
//!   the whole workspace. `module::helper()` prefers files whose stem
//!   is `module`. `Type::helper()` resolves within `Type`'s impls only,
//!   `Self::helper()` within the enclosing impl's type.
//!
//! Edge order (and therefore every downstream report) is deterministic:
//! nodes are ordered by (path, declaration order) and candidate sets
//! are kept sorted.

use crate::parse::{Callee, FnItem, ParsedFile};
use std::collections::BTreeMap;

/// A node handle into [`CallGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(pub usize);

/// One resolved call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Callee node.
    pub to: FnId,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
    /// Statement ordinal of the call site within the caller's body.
    pub stmt: u32,
}

/// Method names assumed to be std/builtin when the receiver type is
/// unknown: a same-named workspace method is overwhelmingly a false
/// edge, so these never fan out.
pub const BUILTIN_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "map",
    "filter",
    "filter_map",
    "collect",
    "extend",
    "clone",
    "to_vec",
    "to_string",
    "to_owned",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "is_some",
    "is_none",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "as_raw_fd",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    "split",
    "splitn",
    "trim",
    "parse",
    "min",
    "max",
    "abs",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "checked_sub",
    "checked_add",
    "take",
    "replace",
    "swap",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "dedup",
    "drain",
    "clear",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "keys",
    "values",
    "values_mut",
    "enumerate",
    "zip",
    "rev",
    "fold",
    "sum",
    "product",
    "count",
    "any",
    "all",
    "find",
    "position",
    "next",
    "peekable",
    "peek",
    "last",
    "first",
    "copied",
    "cloned",
    "flatten",
    "flat_map",
    "chars",
    "bytes",
    "lines",
    "to_le_bytes",
    "from_le_bytes",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "fmt",
    "default",
    "into",
    "from",
    "try_into",
    "try_from",
    "abs_diff",
    "min_by_key",
    "max_by_key",
    "retain",
    "truncate",
    "resize",
    "windows",
    "chunks",
    "elapsed",
    "duration_since",
    "as_micros",
    "as_millis",
    "as_secs",
    "subsec_micros",
    "is_err",
    "is_ok",
    "map_err",
    "and_then",
    "or_else",
    "ok_or",
    "ok_or_else",
    "kind",
    "to_ascii_lowercase",
    "trim_start",
    "trim_end",
    "split_whitespace",
    "matches",
    "skip",
    "step_by",
    "sorted",
    "get_or_insert_with",
];

/// The whole-workspace parse result.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<ParsedFile>,
}

impl Workspace {
    /// Parses `(path, source)` pairs. Order-insensitive: files are
    /// sorted by path so downstream ids are stable.
    pub fn parse(sources: &[(String, String)]) -> Self {
        let mut files: Vec<ParsedFile> = sources
            .iter()
            .map(|(p, s)| crate::parse::parse_file(p, s))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Looks up the declared field type on a struct.
    fn field_type(&self, ty: &str, field: &str) -> Option<&str> {
        self.files
            .iter()
            .flat_map(|f| &f.structs)
            .find(|s| s.name == ty)
            .and_then(|s| {
                s.fields
                    .iter()
                    .find(|(n, _)| n == field)
                    .map(|(_, t)| t.as_str())
            })
    }

    /// The field's type when exactly one struct in the workspace has a
    /// field of that name (the global fallback when the owner struct
    /// could not be resolved).
    fn unique_field_type(&self, field: &str) -> Option<&str> {
        let mut tys: Vec<&str> = self
            .files
            .iter()
            .flat_map(|f| &f.structs)
            .flat_map(|s| &s.fields)
            .filter(|(n, _)| n == field)
            .map(|(_, t)| t.as_str())
            .collect();
        tys.sort_unstable();
        tys.dedup();
        match tys.as_slice() {
            [one] => Some(one),
            _ => None,
        }
    }
}

/// The crate segment of a repo-relative path (`crates/net/src/…` → `net`).
fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(c)) => c,
        _ => "",
    }
}

/// The file stem (`crates/net/src/proto.rs` → `proto`).
fn stem_of(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("")
}

/// The call graph: every workspace fn, with resolved call edges.
pub struct CallGraph<'w> {
    ws: &'w Workspace,
    /// Node id → (file index, fn index).
    nodes: Vec<(usize, usize)>,
    /// Node id → outgoing edges, in call-site order.
    edges: Vec<Vec<Edge>>,
}

impl<'w> CallGraph<'w> {
    /// Builds the graph. Deterministic for a given workspace.
    pub fn build(ws: &'w Workspace) -> Self {
        let mut nodes = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (gi, _) in file.fns.iter().enumerate() {
                nodes.push((fi, gi));
            }
        }
        // name → free-fn nodes; (qual, name) → method nodes;
        // name → method nodes (any qual).
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, &(fi, gi)) in nodes.iter().enumerate() {
            let item = &ws.files[fi].fns[gi];
            match &item.qual {
                None => free.entry(&item.name).or_default().push(id),
                Some(q) => {
                    methods
                        .entry((q.as_str(), item.name.as_str()))
                        .or_default()
                        .push(id);
                    methods_by_name.entry(&item.name).or_default().push(id);
                }
            }
        }
        let mut graph = CallGraph {
            ws,
            edges: vec![Vec::new(); nodes.len()],
            nodes,
        };
        for id in 0..graph.nodes.len() {
            let (fi, gi) = graph.nodes[id];
            let file = &ws.files[fi];
            let item = &file.fns[gi];
            let mut out = Vec::new();
            for call in &item.calls {
                let mut targets: Vec<usize> = match &call.callee {
                    Callee::Free { name } => {
                        Self::nearest(ws, &graph.nodes, free.get(name.as_str()), fi)
                    }
                    Callee::ModQualified { module, name } => {
                        let all = free.get(name.as_str());
                        let in_module: Vec<usize> = all
                            .map(|v| {
                                v.iter()
                                    .copied()
                                    .filter(|&t| {
                                        stem_of(&ws.files[graph.nodes[t].0].path) == module
                                    })
                                    .collect()
                            })
                            .unwrap_or_default();
                        if in_module.is_empty() {
                            Self::nearest(ws, &graph.nodes, all, fi)
                        } else {
                            in_module
                        }
                    }
                    Callee::TypeQualified { ty, name } => {
                        // `Self::f()` names the enclosing impl's type.
                        let ty = match (ty.as_str(), &item.qual) {
                            ("Self", Some(q)) => q.as_str(),
                            (ty, _) => ty,
                        };
                        methods
                            .get(&(ty, name.as_str()))
                            .cloned()
                            .unwrap_or_default()
                    }
                    Callee::Method { chain, name } => match Self::receiver_type(ws, item, chain) {
                        Some(ty) => methods
                            .get(&(ty.as_str(), name.as_str()))
                            .cloned()
                            .unwrap_or_default(),
                        None if BUILTIN_METHODS.contains(&name.as_str()) => Vec::new(),
                        None => methods_by_name
                            .get(name.as_str())
                            .cloned()
                            .unwrap_or_default(),
                    },
                };
                targets.sort_unstable();
                targets.dedup();
                for t in targets {
                    out.push(Edge {
                        to: FnId(t),
                        line: call.line,
                        stmt: call.stmt,
                    });
                }
            }
            graph.edges[id] = out;
        }
        graph
    }

    /// Proximity filter for free-fn candidates: same file, else same
    /// crate, else everything.
    fn nearest(
        ws: &Workspace,
        nodes: &[(usize, usize)],
        candidates: Option<&Vec<usize>>,
        caller_file: usize,
    ) -> Vec<usize> {
        let Some(cands) = candidates else {
            return Vec::new();
        };
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&t| nodes[t].0 == caller_file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let caller_crate = crate_of(&ws.files[caller_file].path);
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&t| crate_of(&ws.files[nodes[t].0].path) == caller_crate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        cands.clone()
    }

    /// Resolves a receiver chain to a type name, walking field tables.
    fn receiver_type(ws: &Workspace, item: &FnItem, chain: &[String]) -> Option<String> {
        let (head, fields) = chain.split_first()?;
        let mut ty: String = if head == "self" {
            item.qual.clone()?
        } else if let Some(p) = item.params.iter().find(|p| &p.name == head) {
            p.outer.clone()
        } else if let Some((_, t)) = item.lets.iter().find(|(n, _)| n == head) {
            t.clone()
        } else if fields.is_empty() {
            return None;
        } else {
            // Unknown head but a field path follows: fall through to
            // the unique-field lookup on the last segment.
            return ws
                .unique_field_type(fields.last().map(String::as_str).unwrap_or(""))
                .map(str::to_string);
        };
        for f in fields {
            ty = match ws.field_type(&ty, f) {
                Some(t) => t.to_string(),
                None => return ws.unique_field_type(f).map(str::to_string),
            };
        }
        // A one-letter type is a generic parameter: no concrete type.
        (ty.len() > 1).then_some(ty)
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The fn item behind a node.
    pub fn item(&self, id: FnId) -> &FnItem {
        let (fi, gi) = self.nodes[id.0];
        &self.ws.files[fi].fns[gi]
    }

    /// The path of the file declaring a node.
    pub fn path(&self, id: FnId) -> &str {
        &self.ws.files[self.nodes[id.0].0].path
    }

    /// Outgoing edges of a node, in call-site order.
    pub fn edges(&self, id: FnId) -> &[Edge] {
        &self.edges[id.0]
    }

    /// All node ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = FnId> {
        (0..self.nodes.len()).map(FnId)
    }

    /// A stable human-readable label: `path#Qual::name` / `path#name`.
    pub fn label(&self, id: FnId) -> String {
        let item = self.item(id);
        match &item.qual {
            Some(q) => format!("{}#{}::{}", self.path(id), q, item.name),
            None => format!("{}#{}", self.path(id), item.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Workspace::parse(&owned)
    }

    fn edge_labels(g: &CallGraph, from_label: &str) -> Vec<String> {
        let id = g
            .ids()
            .find(|&i| g.label(i) == from_label)
            .unwrap_or_else(|| panic!("no node {from_label}"));
        g.edges(id).iter().map(|e| g.label(e.to)).collect()
    }

    #[test]
    fn typed_receiver_resolves_within_its_impl_only() {
        let w = ws(&[(
            "crates/net/src/demo.rs",
            "
struct Asm;
impl Asm {
    fn feed(&self) {}
}
struct Link { asm: Asm }
impl Link {
    fn pump(&self) { self.asm.feed(); }
}
struct Other;
impl Other {
    fn feed(&self) {}
}
",
        )]);
        let g = CallGraph::build(&w);
        assert_eq!(
            edge_labels(&g, "crates/net/src/demo.rs#Link::pump"),
            vec!["crates/net/src/demo.rs#Asm::feed"]
        );
    }

    #[test]
    fn typed_external_receiver_produces_no_edge() {
        // `tx` is a Sender — external. Must NOT fan out to Link::send.
        let w = ws(&[(
            "crates/net/src/demo.rs",
            "
struct Link;
impl Link {
    fn send(&self) {}
}
fn pump(tx: &Sender<u8>) { tx.send(); }
",
        )]);
        let g = CallGraph::build(&w);
        assert!(edge_labels(&g, "crates/net/src/demo.rs#pump").is_empty());
    }

    #[test]
    fn untyped_receiver_fans_out_except_builtins() {
        let w = ws(&[(
            "crates/net/src/demo.rs",
            "
struct A;
impl A {
    fn relay(&self) {}
    fn push(&self, _x: u8) {}
}
fn f() {
    let x = opaque();
    x.relay();
    x.push(1);
}
",
        )]);
        let g = CallGraph::build(&w);
        let labels = edge_labels(&g, "crates/net/src/demo.rs#f");
        assert_eq!(labels, vec!["crates/net/src/demo.rs#A::relay"]);
    }

    #[test]
    fn free_calls_prefer_same_file_then_crate() {
        let w = ws(&[
            (
                "crates/net/src/a.rs",
                "fn run() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/net/src/b.rs", "fn helper() {}\n"),
            (
                "crates/runtime/src/c.rs",
                "fn helper() {}\nfn cross() { helper(); }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert_eq!(
            edge_labels(&g, "crates/net/src/a.rs#run"),
            vec!["crates/net/src/a.rs#helper"]
        );
        assert_eq!(
            edge_labels(&g, "crates/runtime/src/c.rs#cross"),
            vec!["crates/runtime/src/c.rs#helper"]
        );
    }

    #[test]
    fn module_qualified_calls_match_file_stem() {
        let w = ws(&[
            ("crates/net/src/proto.rs", "pub fn encode() {}\n"),
            ("crates/runtime/src/other.rs", "pub fn encode() {}\n"),
            ("crates/net/src/worker.rs", "fn go() { proto::encode(); }\n"),
        ]);
        let g = CallGraph::build(&w);
        assert_eq!(
            edge_labels(&g, "crates/net/src/worker.rs#go"),
            vec!["crates/net/src/proto.rs#encode"]
        );
    }

    #[test]
    fn field_chain_walks_struct_tables() {
        let w = ws(&[(
            "crates/net/src/demo.rs",
            "
struct Asm;
impl Asm {
    fn next_frame(&self) {}
}
struct State { asm: Asm }
fn drain(s: &mut State) { s.asm.next_frame(); }
",
        )]);
        let g = CallGraph::build(&w);
        assert_eq!(
            edge_labels(&g, "crates/net/src/demo.rs#drain"),
            vec!["crates/net/src/demo.rs#Asm::next_frame"]
        );
    }

    #[test]
    fn graph_is_deterministic_under_input_order() {
        let files = [
            ("crates/x/src/a.rs", "fn f() { g(); h(); }\nfn g() {}\n"),
            ("crates/x/src/b.rs", "fn h() {}\nfn g() {}\n"),
        ];
        let mut rev = files;
        rev.reverse();
        let w1 = ws(&files);
        let w2 = ws(&rev);
        let g1 = CallGraph::build(&w1);
        let g2 = CallGraph::build(&w2);
        let dump = |g: &CallGraph| {
            g.ids()
                .map(|i| {
                    format!(
                        "{} -> {:?}",
                        g.label(i),
                        g.edges(i).iter().map(|e| g.label(e.to)).collect::<Vec<_>>()
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(dump(&g1), dump(&g2));
    }
}
