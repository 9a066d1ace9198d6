//! `cmg-analyze`: whole-workspace interprocedural rules over the
//! [`crate::callgraph`] call graph.
//!
//! Three rules, each a property no compiler lint or test checks:
//!
//! * **`blocking-reachability`** — no call path from a reactor entry
//!   point (any fn in `crates/net/src/reactor*`) or a
//!   `// nonblocking: begin` fenced region may reach a blocking API
//!   (`read`/`write`/`lock`/`recv`/`sleep`/`connect`/`join`/…). The
//!   full call path is reported. A fence marker that does not pair up
//!   (a `begin` never closed, a `begin` inside an open fence, an `end`
//!   with nothing open) is a finding too, so a deleted marker cannot
//!   switch the check off.
//! * **`lock-order`** — per-fn Mutex acquisition facts are propagated
//!   over the call graph into a lock-ordering graph; cycles are
//!   reported as potential deadlocks with one witness per edge.
//! * **`test-only`** — a non-test fn or enum variant in `crates/*/src`
//!   that nothing reachable from a root calls or builds: only tests use
//!   it. The roots are every `fn main` (`crates/*/src/bin`, a crate's
//!   `main.rs`, `examples/`) and every fn under `ledger/src`. What the
//!   graph cannot see being called counts as reached: a method of a
//!   `trait` or a trait `impl` (`dyn` and generic dispatch), a `const` /
//!   `static` initializer, and a method named like a std one.
//!
//! DESIGN.md §11 names the gate that replaced each retired rule.
//!
//! ## Soundness caveats
//!
//! The analysis is name-resolution based, not type-checked: trait
//! dispatch through `dyn`/generics is invisible, a function pointer is a
//! call only where it is named, and a typed receiver whose type has no
//! workspace impl is assumed external. Lock identities conflate instances
//! that share a field name or type (and re-entrant acquisition of the
//! *same* identity is deliberately not reported, because instance
//! aliasing would make it noisy). An untyped method call resolves to
//! every workspace method of its name, so `test-only` under-reports. It
//! cannot see a call or a variant that only a macro expansion writes.
//! Uniform repo idiom plus the reasoned allowlist absorb the residue.

use crate::callgraph::{CallGraph, FnId, Workspace, BUILTIN_METHODS};
use crate::parse::{in_line_spans, FnItem};
use cmg_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Which analyze rule fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnalyzeRule {
    /// Call path from a nonblocking region to a blocking API.
    BlockingReachability,
    /// Cycle in the interprocedural lock-ordering graph.
    LockOrder,
    /// Fn or enum variant that no binary, example or ledger fn reaches.
    TestOnly,
}

impl AnalyzeRule {
    /// Stable identifier used in reports and the allowlist.
    pub fn name(self) -> &'static str {
        match self {
            AnalyzeRule::BlockingReachability => "blocking-reachability",
            AnalyzeRule::LockOrder => "lock-order",
            AnalyzeRule::TestOnly => "test-only",
        }
    }

    /// All rules, for report summaries.
    pub fn all() -> [AnalyzeRule; 3] {
        [
            AnalyzeRule::BlockingReachability,
            AnalyzeRule::LockOrder,
            AnalyzeRule::TestOnly,
        ]
    }
}

/// One frame of a reported call path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathFrame {
    /// Fn label (`path#Qual::name`).
    pub label: String,
    /// 1-based line of the call site (or offending token, for the
    /// final frame).
    pub line: usize,
}

/// One analyze finding.
#[derive(Clone, Debug)]
pub struct AnalyzeViolation {
    /// The rule that fired.
    pub rule: AnalyzeRule,
    /// File anchoring the finding.
    pub path: String,
    /// 1-based anchor line.
    pub line: usize,
    /// The anchoring item (`Qual::fn`, fn name, or enum name).
    pub item: String,
    /// Human-readable description.
    pub message: String,
    /// Call path from entry to sink (empty for non-path findings).
    pub call_path: Vec<PathFrame>,
}

impl fmt::Display for AnalyzeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.path,
            self.line,
            self.rule.name(),
            self.item,
            self.message
        )?;
        for frame in &self.call_path {
            write!(f, "\n    via {}:{}", frame.label, frame.line)?;
        }
        Ok(())
    }
}

/// A vetted analyze exemption. `prefix` matches the violation's path,
/// or `path#item` for item-scoped entries.
#[derive(Clone, Debug)]
pub struct AnalyzeAllow {
    /// Path or `path#item` prefix.
    pub prefix: &'static str,
    /// The exempted rule name (see [`AnalyzeRule::name`]).
    pub rule: &'static str,
    /// Why the exemption is sound.
    pub reason: &'static str,
}

/// The set of vetted analyze exemptions.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeAllowlist {
    /// The entries, in match order.
    pub entries: Vec<AnalyzeAllow>,
}

/// `test-only` exemptions, `(path or path#item prefix, why tests are its
/// only users by design)`: oracles, references and fixtures tests compare
/// against, and the knobs only tests turn (delivery orders, faults).
#[rustfmt::skip] // a table: one entry per line
const TEST_SUPPORT: &[(&str, &str)] = &[
    ("crates/check/src/explore.rs", "the schedule explorer"),
    ("crates/check/src/oracles.rs", "the protocol oracles"),
    ("crates/check/src/observed.rs", "the oracles' view of a matching run"),
    ("crates/matching/src/exact.rs", "the exact optimum the approximations are held to"),
    ("crates/graph/src/generators.rs", "fixture families; random bipartite inputs of the exact oracle"),
    ("crates/graph/src/csr.rs#CsrGraph::empty", "the edgeless fixture"),
    ("crates/partition/src/partition.rs#Partition::single", "the one-part fixture"),
    ("crates/matching/src/matching.rs#Matching::", "oracle queries: partner, edges, maximality"),
    ("crates/coloring/src/coloring.rs#Coloring::is_complete", "an oracle query"),
    ("crates/matching/src/dist.rs#DistMatching::", "a rank's slice and termination, for the oracles"),
    ("crates/coloring/src/dist.rs#DistColoring::", "a rank's slice and termination, for the oracles"),
    ("crates/runtime/src/sim.rs#SimEngine::run_dense_reference", "the scheduler's dense reference"),
    ("crates/runtime/src/sim.rs#SimEngine::dense_step_all", "the dense reference's step"),
    ("crates/runtime/src/delivery.rs#DeliveryPolicy::", "the sweep's adversarial delivery orders"),
    ("crates/runtime/src/program.rs#RankCtx::self_sends", "shows the explorer a self-send was scheduled"),
    ("crates/net/src/supervisor.rs#KillSpec::", "scripted worker deaths for the fault tests"),
    ("crates/net/src/supervisor.rs#NetSession::", "the fault tests observe and re-arm a resident fleet"),
    ("crates/net/src/proto.rs#encode_", "byte pins run the shipped encoders through these"),
    ("crates/obs/src/digest.rs#Fnv1a::", "the digest sweep's folds"),
    ("crates/obs/src/metrics.rs#MetricsRegistry::", "read-back for the JSONL round trip"),
    ("crates/obs/src/trace.rs#RunHealth::", "telemetry the fault and trace-golden tests assert"),
    ("crates/serve/src/state.rs#ServeState::graph", "serve's end-to-end test checks answers on it"),
];

impl AnalyzeAllowlist {
    /// The workspace's vetted analyze exemptions.
    ///
    /// Every entry carries a reason explaining why the finding is sound
    /// to suppress, and `analyze_allowlist_is_load_bearing` in the
    /// integration tests fails if an entry stops matching anything.
    pub fn workspace() -> Self {
        let rule = "test-only";
        let entries = TEST_SUPPORT.iter().map(|&(prefix, reason)| AnalyzeAllow {
            prefix,
            rule,
            reason,
        });
        AnalyzeAllowlist {
            entries: entries.collect(),
        }
    }

    /// The matching entry's reason, if `v` is exempt.
    pub(crate) fn allows(&self, v: &AnalyzeViolation) -> Option<&'static str> {
        let scoped = format!("{}#{}", v.path, v.item);
        self.entries
            .iter()
            .find(|e| {
                e.rule == v.rule.name()
                    && (v.path.starts_with(e.prefix) || scoped.starts_with(e.prefix))
            })
            .map(|e| e.reason)
    }
}

/// The analysis result for one workspace.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Findings not covered by the allowlist, sorted.
    pub violations: Vec<AnalyzeViolation>,
    /// Allowlisted findings with the entry's reason.
    pub allowlisted: Vec<(AnalyzeViolation, &'static str)>,
    /// Files analyzed.
    pub files: usize,
    /// Fn items in the graph.
    pub fns: usize,
    /// Resolved call edges.
    pub edges: usize,
}

impl AnalysisReport {
    /// The report as deterministic JSON (for the CI artifact).
    pub fn to_json(&self) -> Json {
        let viol = |v: &AnalyzeViolation| {
            Json::obj(vec![
                ("rule", Json::Str(v.rule.name().to_string())),
                ("path", Json::Str(v.path.clone())),
                ("line", Json::UInt(v.line as u64)),
                ("item", Json::Str(v.item.clone())),
                ("message", Json::Str(v.message.clone())),
                (
                    "call_path",
                    Json::Arr(
                        v.call_path
                            .iter()
                            .map(|f| {
                                Json::obj(vec![
                                    ("fn", Json::Str(f.label.clone())),
                                    ("line", Json::UInt(f.line as u64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let mut rule_counts: Vec<(&str, Json)> = Vec::new();
        for r in AnalyzeRule::all() {
            let n = self.violations.iter().filter(|v| v.rule == r).count();
            rule_counts.push((r.name(), Json::UInt(n as u64)));
        }
        Json::obj(vec![
            ("schema", Json::Str("cmg-analyze/v1".to_string())),
            (
                "summary",
                Json::obj(vec![
                    ("files", Json::UInt(self.files as u64)),
                    ("fns", Json::UInt(self.fns as u64)),
                    ("edges", Json::UInt(self.edges as u64)),
                    ("violations", Json::UInt(self.violations.len() as u64)),
                    ("allowlisted", Json::UInt(self.allowlisted.len() as u64)),
                    ("by_rule", Json::obj(rule_counts)),
                ]),
            ),
            (
                "violations",
                Json::Arr(self.violations.iter().map(viol).collect()),
            ),
            (
                "allowlisted",
                Json::Arr(
                    self.allowlisted
                        .iter()
                        .map(|(v, reason)| {
                            let mut o = viol(v);
                            if let Json::Obj(pairs) = &mut o {
                                pairs
                                    .push(("reason".to_string(), Json::Str((*reason).to_string())));
                            }
                            o
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Reactor home: every non-test fn declared under this prefix is a
/// blocking-reachability entry point.
const REACTOR_HOME: &str = "crates/net/src/reactor";

/// Runs the full analysis over `(path, source)` pairs with an
/// allowlist. Every file is a node set of the call graph; `test-only`
/// reports only what lies under `crates/<c>/src/`. Deterministic; never
/// panics on arbitrary input.
pub fn analyze_sources(sources: &[(String, String)], allow: &AnalyzeAllowlist) -> AnalysisReport {
    let ws = Workspace::parse(sources);
    let graph = CallGraph::build(&ws);
    let mut found = Vec::new();
    blocking_reachability(&graph, &mut found);
    lock_order(&graph, &mut found);
    fence_faults(&ws, &mut found);
    test_only(&ws, &graph, &mut found);
    found.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.item, &a.message)
            .cmp(&(b.rule, &b.path, b.line, &b.item, &b.message))
    });
    found.dedup_by(|a, b| {
        a.rule == b.rule
            && a.path == b.path
            && a.line == b.line
            && a.item == b.item
            && a.message == b.message
    });
    let mut report = AnalysisReport {
        files: ws.files.len(),
        fns: graph.len(),
        edges: graph.ids().map(|i| graph.edges(i).len()).sum(),
        ..AnalysisReport::default()
    };
    for v in found {
        match allow.allows(&v) {
            Some(reason) => report.allowlisted.push((v, reason)),
            None => report.violations.push(v),
        }
    }
    report
}

/// The directories outside `crates/` that the graph reads: the examples'
/// `main`s and the ledger's sources are `test-only`'s roots.
const ROOT_DIRS: &[&str] = &["examples", "ledger/src"];

/// Runs the analysis over every `.rs` file of `crates/*/src` and
/// [`ROOT_DIRS`] under `repo_root`.
pub fn analyze_tree(repo_root: &Path, allow: &AnalyzeAllowlist) -> Result<AnalysisReport, String> {
    let crates_dir = repo_root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut dirs: Vec<PathBuf> = ROOT_DIRS.iter().map(|d| repo_root.join(d)).collect();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
        dirs.push(entry.path().join("src"));
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        rs_files(dir, &mut files)?;
    }
    files.sort();
    let mut sources = Vec::new();
    for file in files {
        let rel = file.strip_prefix(repo_root).unwrap_or(&file);
        let src = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        sources.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    Ok(analyze_sources(&sources, allow))
}

/// Recursively collects `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Splits `crates/<c>/src/<rest>` into `(c, rest)`.
fn crate_src(path: &str) -> Option<(&str, &str)> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    Some((krate, rest.strip_prefix("src/")?))
}

fn item_name(item: &FnItem) -> String {
    match &item.qual {
        Some(q) => format!("{}::{}", q, item.name),
        None => item.name.clone(),
    }
}

/// Reports every blocking call inside `entry`'s region (`None` = the
/// whole body), then walks the resolved edges leaving the region and
/// reports each reached fn's first blocking call with its call path.
fn region_reach(
    graph: &CallGraph,
    entry: FnId,
    spans: Option<&[(usize, usize)]>,
    out: &mut Vec<AnalyzeViolation>,
) {
    let in_region = |line| spans.is_none_or(|s| in_line_spans(line, s));
    let finding = |line, message, call_path| AnalyzeViolation {
        rule: AnalyzeRule::BlockingReachability,
        path: graph.path(entry).to_string(),
        line,
        item: item_name(graph.item(entry)),
        message,
        call_path,
    };
    for t in &graph.item(entry).blocking {
        if in_region(t.line) {
            let frame = PathFrame {
                label: graph.label(entry),
                line: t.line,
            };
            let message = format!("blocking call `{}` inside a nonblocking region", t.token);
            out.push(finding(t.line, message, vec![frame]));
        }
    }
    let mut parent: HashMap<FnId, (FnId, usize)> = HashMap::new();
    let mut queue: Vec<FnId> = Vec::new();
    for e in graph.edges(entry) {
        if in_region(e.line) && !graph.item(e.to).in_test && !parent.contains_key(&e.to) {
            parent.insert(e.to, (entry, e.line));
            queue.push(e.to);
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let id = queue[qi];
        qi += 1;
        let item = graph.item(id);
        if let Some(t) = item.blocking.first() {
            // Reconstruct entry → … → id. Deeper sinks behind this fn
            // are still reported through their own first-visit paths.
            let mut frames = vec![PathFrame {
                label: graph.label(id),
                line: t.line,
            }];
            let mut cur = id;
            while let Some(&(p, line)) = parent.get(&cur) {
                frames.push(PathFrame {
                    label: graph.label(p),
                    line,
                });
                if p == entry {
                    break;
                }
                cur = p;
            }
            frames.reverse();
            let message = format!(
                "blocking call `{}` in {} is reachable from this nonblocking region",
                t.token,
                item_name(item),
            );
            out.push(finding(frames[0].line, message, frames));
        }
        for e in graph.edges(id) {
            if !graph.item(e.to).in_test && e.to != entry && !parent.contains_key(&e.to) {
                parent.insert(e.to, (id, e.line));
                queue.push(e.to);
            }
        }
    }
}

/// Rule 1: blocking calls in, or reachable from, reactor entry points
/// (whole body) and nonblocking fences.
fn blocking_reachability(graph: &CallGraph, out: &mut Vec<AnalyzeViolation>) {
    for id in graph.ids() {
        let item = graph.item(id);
        if item.in_test {
            continue;
        }
        if graph.path(id).starts_with(REACTOR_HOME) {
            region_reach(graph, id, None, out);
        } else if !item.nonblocking_lines.is_empty() {
            region_reach(graph, id, Some(&item.nonblocking_lines), out);
        }
    }
}

/// Rule 2: interprocedural lock-order cycles.
fn lock_order(graph: &CallGraph, out: &mut Vec<AnalyzeViolation>) {
    let n = graph.len();
    // Transitive lock sets per fn (non-test), to fixpoint.
    let mut trans: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for id in graph.ids() {
        let item = graph.item(id);
        if item.in_test {
            continue;
        }
        for l in &item.locks {
            trans[id.0].insert(l.id.clone());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for id in graph.ids() {
            if graph.item(id).in_test {
                continue;
            }
            let mut add: Vec<String> = Vec::new();
            for e in graph.edges(id) {
                if graph.item(e.to).in_test {
                    continue;
                }
                for l in &trans[e.to.0] {
                    if !trans[id.0].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                trans[id.0].extend(add);
            }
        }
    }
    // Ordering edges: (held → acquired) with one witness each.
    let mut order: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for id in graph.ids() {
        let item = graph.item(id);
        if item.in_test {
            continue;
        }
        for (i, a) in item.locks.iter().enumerate() {
            // a held at a later site when bound, or for the same
            // statement when a temporary.
            let held_at = |stmt: u32| {
                if a.bound {
                    stmt >= a.stmt
                } else {
                    stmt == a.stmt
                }
            };
            for b in item.locks.iter().skip(i + 1) {
                if held_at(b.stmt) && a.id != b.id {
                    order
                        .entry((a.id.clone(), b.id.clone()))
                        .or_insert_with(|| (graph.label(id), b.line));
                }
            }
            for e in graph.edges(id) {
                if e.line < a.line || !held_at(e.stmt) || graph.item(e.to).in_test {
                    continue;
                }
                for l in &trans[e.to.0] {
                    if l != &a.id {
                        order
                            .entry((a.id.clone(), l.clone()))
                            .or_insert_with(|| (graph.label(id), e.line));
                    }
                }
            }
        }
    }
    // Cycle detection: strongly connected components of ≥ 2 locks.
    let mut nodes: Vec<&String> = order
        .keys()
        .flat_map(|(a, b)| [a, b])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    nodes.sort();
    let index: BTreeMap<&String, usize> = nodes.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in order.keys() {
        adj[index[a]].push(index[b]);
    }
    for scc in sccs(&adj) {
        if scc.len() < 2 {
            continue;
        }
        let members: Vec<&String> = scc.iter().map(|&i| nodes[i]).collect();
        // Witness edges inside the component, in order.
        let mut witnesses = Vec::new();
        for (pair, (flabel, line)) in &order {
            let (a, b) = pair;
            if members.contains(&a) && members.contains(&b) {
                witnesses.push(PathFrame {
                    label: format!("{flabel} takes {a} then {b}"),
                    line: *line,
                });
            }
        }
        let anchor = witnesses.first().cloned();
        let (apath, aline) = anchor
            .as_ref()
            .and_then(|f| f.label.split('#').next().map(|p| (p.to_string(), f.line)))
            .unwrap_or_default();
        let item = anchor
            .as_ref()
            .and_then(|f| {
                f.label
                    .split('#')
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
            })
            .unwrap_or("-")
            .to_string();
        out.push(AnalyzeViolation {
            rule: AnalyzeRule::LockOrder,
            path: apath,
            line: aline,
            item,
            message: format!(
                "lock-order cycle between {{{}}}: both orders are taken, a cross-thread \
                 deadlock is possible",
                members
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            call_path: witnesses,
        });
    }
}

/// Iterative Tarjan SCC over an adjacency list.
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS stack: (node, child cursor).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, cursor)) = dfs.last() {
            if cursor == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(cursor) {
                if let Some(top) = dfs.last_mut() {
                    top.1 += 1;
                }
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                dfs.pop();
                if let Some(&(p, _)) = dfs.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out.sort();
    out
}

/// Fence markers that do not pair up, each a `blocking-reachability`
/// finding: an unbalanced fence must not switch its check off.
fn fence_faults(ws: &Workspace, out: &mut Vec<AnalyzeViolation>) {
    for f in &ws.files {
        for fault in &f.fence_faults {
            let item = f
                .fns
                .iter()
                .find(|i| i.line_span.0 <= fault.line && fault.line <= i.line_span.1)
                .map_or_else(|| "-".to_string(), item_name);
            out.push(AnalyzeViolation {
                rule: AnalyzeRule::BlockingReachability,
                path: f.path.clone(),
                line: fault.line,
                item,
                message: format!("unbalanced `// nonblocking` fence: {}", fault.problem),
                call_path: Vec::new(),
            });
        }
    }
}

/// Whether `item` (declared in `path`) is a `test-only` root: a `fn
/// main` of a binary or an example, a ledger fn, an item reached without
/// a call the graph sees ([`FnItem::implicit`]), or a method named like a
/// std one, since the graph drops such calls on untyped receivers.
fn is_root(path: &str, item: &FnItem) -> bool {
    let main = item.name == "main"
        && item.qual.is_none()
        && (path.starts_with("examples/")
            || crate_src(path)
                .is_some_and(|(_, rest)| rest == "main.rs" || rest.starts_with("bin/")));
    let builtin = item.qual.is_some() && BUILTIN_METHODS.contains(&item.name.as_str());
    main || builtin || item.implicit || path.starts_with("ledger/src/")
}

/// Rule 3: fns and enum variants under `crates/*/src` that no fn
/// reachable from a root calls or builds.
fn test_only(ws: &Workspace, graph: &CallGraph, out: &mut Vec<AnalyzeViolation>) {
    let mut reached = vec![false; graph.len()];
    let mut stack: Vec<FnId> = graph
        .ids()
        .filter(|&id| !graph.item(id).in_test && is_root(graph.path(id), graph.item(id)))
        .collect();
    while let Some(id) = stack.pop() {
        if !std::mem::replace(&mut reached[id.0], true) {
            stack.extend(graph.edges(id).iter().map(|e| e.to));
        }
    }
    // Variants a reached fn builds; `Self::V` names the impl's type.
    let mut built: HashSet<(&str, &str)> = HashSet::new();
    for id in graph.ids().filter(|id| reached[id.0]) {
        let item = graph.item(id);
        for r in item.refs.iter().filter(|r| !r.is_pattern) {
            let owner = match (r.enum_name.as_str(), &item.qual) {
                ("Self", Some(q)) => q.as_str(),
                (name, _) => name,
            };
            built.insert((owner, r.variant.as_str()));
        }
    }
    let finding = |path: &str, line, item, what| AnalyzeViolation {
        rule: AnalyzeRule::TestOnly,
        path: path.to_string(),
        line,
        item,
        message: format!("{what} from a binary, example or ledger fn: only tests use it"),
        call_path: Vec::new(),
    };
    for id in graph.ids() {
        let (path, item) = (graph.path(id), graph.item(id));
        if !reached[id.0] && !item.in_test && crate_src(path).is_some() {
            out.push(finding(
                path,
                item.line_span.0,
                item_name(item),
                "no call reaches it",
            ));
        }
    }
    for f in ws.files.iter().filter(|f| crate_src(&f.path).is_some()) {
        for e in f.enums.iter().filter(|e| !e.in_test) {
            for (v, line) in &e.variants {
                if !built.contains(&(e.name.as_str(), v.as_str())) {
                    let item = format!("{}::{v}", e.name);
                    out.push(finding(
                        &f.path,
                        *line,
                        item,
                        "no fn builds it that is reached",
                    ));
                }
            }
        }
    }
}
