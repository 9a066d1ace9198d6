//! `cmg-analyze`: whole-workspace interprocedural rules over the
//! [`crate::callgraph`] call graph.
//!
//! Five rules, each one the cross-function generalization of a
//! discipline the workspace already enforces locally:
//!
//! * **`blocking-reachability`** — no call path from a reactor entry
//!   point (any fn in `crates/net/src/reactor*`) or a
//!   `// nonblocking: begin` fenced region may reach a blocking API
//!   (`read`/`write`/`lock`/`recv`/`sleep`/`connect`/`join`/…). The
//!   full call path is reported. This subsumes the old
//!   directory-scoped `no-blocking-io-in-reactor` token fence: a
//!   blocking helper in another file called from the reactor is now
//!   visible.
//! * **`wire-drift`** — every non-test [`wire_codec!`] variant must be
//!   constructed somewhere and matched somewhere; `match`es over wire
//!   enums in `crates/net`/`crates/runtime` must not swallow variants
//!   with a non-error `_ =>` arm; and the `Ctrl` wire surface is
//!   fingerprinted against a pinned baseline per `PROTO_VERSION` —
//!   changing `Ctrl` without bumping the version (or bumping without
//!   pinning a new baseline) is a violation.
//! * **`lock-order`** — per-fn Mutex acquisition facts are propagated
//!   over the call graph into a lock-ordering graph; cycles are
//!   reported as potential deadlocks with one witness per edge.
//! * **`hot-path-transitive-alloc`** — an allocation-shaped call
//!   (`vec!`, `format!`, `with_capacity`, `.collect()`, `.to_vec()`,
//!   `Box::new`, …) inside a `// hot-path` fence is reported, and so
//!   is every allocating callee reachable from a call made inside it,
//!   with the path.
//! * **`unreferenced-pub`** — a non-test `pub fn` (free or inherent) or
//!   `pub mod` in a library crate's `crates/<c>/src` that no caller
//!   names. Callers are the other crates' `src`, the crate's own
//!   `src/bin` and `main.rs`, every `tests/` directory, `examples/`,
//!   the root `src/` and `ledger/`. Names are matched as identifiers in
//!   masked source, so a collision keeps the item; narrowing a finding
//!   to `pub(crate)` hands it to rustc's `dead_code` lint.
//!
//! A fence marker that does not pair up (a `begin` never closed, a
//! `begin` inside an open fence, an `end` with nothing open) is a
//! finding of the rule that owns the fence, so a deleted marker cannot
//! switch the check off.
//!
//! ## Soundness caveats
//!
//! The analysis is name-resolution based, not type-checked: trait
//! dispatch through `dyn`/generics is invisible, function pointers are
//! not tracked, and a typed receiver whose type has no workspace impl
//! is assumed external. Lock identities conflate instances that share a
//! field name or type (and re-entrant acquisition of the *same*
//! identity is deliberately not reported, because instance aliasing
//! would make it noisy). `.reserve(` is not on the allocation list.
//! `unreferenced-pub` cannot see a name that only a macro expansion
//! produces. These are the same trade-offs the token lint makes:
//! uniform repo idiom plus the reasoned allowlist absorb the residue.
//!
//! [`wire_codec!`]: cmg_runtime::wire_codec

use crate::callgraph::{CallGraph, FnId, Workspace};
use crate::mask::mask_source;
use crate::parse::{in_line_spans, FnItem, TokenSite};
use cmg_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::Path;

/// Which analyze rule fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnalyzeRule {
    /// Call path from a nonblocking region to a blocking API.
    BlockingReachability,
    /// Wire enum variant unconstructed/unmatched, swallowed by a
    /// wildcard arm, or `Ctrl` changed without a `PROTO_VERSION` bump.
    WireDrift,
    /// Cycle in the interprocedural lock-ordering graph.
    LockOrder,
    /// Allocation inside a hot-path fence, directly or through a call.
    HotPathTransitiveAlloc,
    /// Library `pub` item that no caller outside its crate names.
    UnreferencedPub,
}

impl AnalyzeRule {
    /// Stable identifier used in reports and the allowlist.
    pub fn name(self) -> &'static str {
        match self {
            AnalyzeRule::BlockingReachability => "blocking-reachability",
            AnalyzeRule::WireDrift => "wire-drift",
            AnalyzeRule::LockOrder => "lock-order",
            AnalyzeRule::HotPathTransitiveAlloc => "hot-path-transitive-alloc",
            AnalyzeRule::UnreferencedPub => "unreferenced-pub",
        }
    }

    /// All rules, for report summaries.
    pub fn all() -> [AnalyzeRule; 5] {
        [
            AnalyzeRule::BlockingReachability,
            AnalyzeRule::WireDrift,
            AnalyzeRule::LockOrder,
            AnalyzeRule::HotPathTransitiveAlloc,
            AnalyzeRule::UnreferencedPub,
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

impl AnalyzeAllowlist {
    /// An empty allowlist (every finding reported).
    pub fn empty() -> Self {
        AnalyzeAllowlist::default()
    }

    /// The workspace's vetted analyze exemptions.
    ///
    /// Every entry carries a reason explaining why the finding is sound
    /// to suppress, and `analyze_allowlist_is_load_bearing` in the
    /// integration tests fails if an entry stops matching anything.
    pub fn workspace() -> Self {
        AnalyzeAllowlist {
            entries: vec![AnalyzeAllow {
                prefix: "crates/runtime/src/lib.rs#codec",
                rule: "unreferenced-pub",
                reason: "`wire_codec!` expands to `$crate::codec::{Buf, BufMut, WireField}` \
                         in every crate that declares a wire enum; a macro expansion is a \
                         caller the identifier scan cannot see",
            }],
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

/// Pinned FNV-1a 64 fingerprints of the `Ctrl` wire surface, one per
/// `PROTO_VERSION`. Changing `Ctrl` without bumping the version makes
/// the current entry mismatch; bumping without pinning the new
/// fingerprint here leaves the new version without a baseline. Both are
/// `wire-drift` violations, so every wire change is a deliberate
/// two-line diff (version bump + new pin) reviewed together.
/// v4 widened the fingerprint itself: it covers `Ctrl` plus every
/// `Snap`-suffixed snapshot record enum, because those encodings ride
/// opaquely inside `Ctrl::Checkpoint` payloads and resume assignments.
pub const WIRE_BASELINES: &[(u64, u64)] = &[
    (3, 0xec5d_285e_8cd8_0aa1),
    (4, 0x4956_cc56_edbc_cd90),
    (5, 0x1f0f_d877_76a1_24b0),
    (6, 0x051c_a52c_8206_83e1),
];

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

/// Crates whose wire-enum `match`es must not swallow variants.
const WIRE_CONSUMER_CRATES: &[&str] = &["crates/net/", "crates/runtime/"];

/// Tokens that make a wildcard arm acceptable: the arm surfaces the
/// unknown variant as an error instead of swallowing it.
const ARM_ERROR_TOKENS: &[&str] = &[
    "Err(",
    "Err (",
    "unreachable!",
    "panic!",
    "protocol(",
    "bug!",
];

/// Runs the full analysis over `(path, source)` pairs with an
/// allowlist. Files under `crates/<c>/src/` form the call graph; every
/// other file only counts as a caller for `unreferenced-pub`.
/// Deterministic; never panics on arbitrary input.
pub fn analyze_sources(sources: &[(String, String)], allow: &AnalyzeAllowlist) -> AnalysisReport {
    let crate_files: Vec<(String, String)> = sources
        .iter()
        .filter(|(p, _)| crate_src(p).is_some())
        .cloned()
        .collect();
    let ws = Workspace::parse(&crate_files);
    let graph = CallGraph::build(&ws);
    let mut found = Vec::new();
    blocking_reachability(&graph, &mut found);
    wire_drift(&ws, &mut found);
    lock_order(&graph, &mut found);
    hot_path_transitive(&graph, &mut found);
    fence_faults(&ws, &mut found);
    unreferenced_pub(&ws, sources, &mut found);
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

/// Directories outside `crates/` whose files call into the library
/// crates. `ledger/` is read so that nothing the benchmark links is
/// reported as unreferenced.
const CALLER_DIRS: &[&str] = &["tests", "examples", "src", "ledger/src", "ledger/tests"];

/// Runs the analysis over every `crates/*/src/**/*.rs` under
/// `repo_root`, with `crates/*/tests` and [`CALLER_DIRS`] as callers.
pub fn analyze_tree(repo_root: &Path, allow: &AnalyzeAllowlist) -> Result<AnalysisReport, String> {
    let sources = crate::lint::workspace_sources(repo_root, &["src", "tests"], CALLER_DIRS)?;
    Ok(analyze_sources(&sources, allow))
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

/// A rule that forbids one kind of token inside a fenced region and in
/// every fn a call made there can reach.
struct RegionRule {
    rule: AnalyzeRule,
    /// The fn's forbidden tokens.
    sinks: fn(&FnItem) -> &[TokenSite],
    /// What a forbidden token is, for messages (`blocking call`).
    sink: &'static str,
    /// What the region is, for messages (`nonblocking region`).
    region: &'static str,
}

/// Reports every forbidden token inside `entry`'s region (`None` = the
/// whole body), then walks the resolved edges leaving the region and
/// reports each reached fn's first forbidden token with its call path.
fn region_reach(
    graph: &CallGraph,
    r: &RegionRule,
    entry: FnId,
    spans: Option<&[(usize, usize)]>,
    out: &mut Vec<AnalyzeViolation>,
) {
    let in_region = |line| spans.is_none_or(|s| in_line_spans(line, s));
    let finding = |line, message, call_path| AnalyzeViolation {
        rule: r.rule,
        path: graph.path(entry).to_string(),
        line,
        item: item_name(graph.item(entry)),
        message,
        call_path,
    };
    for t in (r.sinks)(graph.item(entry)) {
        if in_region(t.line) {
            let frame = PathFrame {
                label: graph.label(entry),
                line: t.line,
            };
            let message = format!("{} `{}` inside a {}", r.sink, t.token, r.region);
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
        if let Some(t) = (r.sinks)(item).first() {
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
                "{} `{}` in {} is reachable from this {}",
                r.sink,
                t.token,
                item_name(item),
                r.region
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
    let rule = RegionRule {
        rule: AnalyzeRule::BlockingReachability,
        sinks: |f| &f.blocking,
        sink: "blocking call",
        region: "nonblocking region",
    };
    for id in graph.ids() {
        let item = graph.item(id);
        if item.in_test {
            continue;
        }
        if graph.path(id).starts_with(REACTOR_HOME) {
            region_reach(graph, &rule, id, None, out);
        } else if !item.nonblocking_lines.is_empty() {
            region_reach(graph, &rule, id, Some(&item.nonblocking_lines), out);
        }
    }
}

/// One wire variant row for fingerprinting: `(tag, name, fields)`.
type WireSurfaceRow = (u64, String, Vec<(String, String)>);

/// FNV-1a 64 over the canonical wire-surface string of an enum.
fn wire_fingerprint(variants: &[WireSurfaceRow]) -> u64 {
    let mut sorted: Vec<_> = variants.to_vec();
    sorted.sort_by_key(|(tag, _, _)| *tag);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (tag, name, fields) in &sorted {
        eat(tag.to_string().as_bytes());
        eat(b":");
        eat(name.as_bytes());
        eat(b"(");
        for (fname, fty) in fields {
            eat(fname.as_bytes());
            eat(b":");
            eat(fty.as_bytes());
            eat(b",");
        }
        eat(b");");
    }
    h
}

/// Rule 2: wire-protocol drift.
fn wire_drift(ws: &Workspace, out: &mut Vec<AnalyzeViolation>) {
    // Collect non-test wire enums.
    let mut enums: Vec<(&str, &crate::parse::WireEnum)> = Vec::new();
    let mut proto_version: Option<(u64, String, usize)> = None;
    for f in &ws.files {
        for e in &f.wire_enums {
            if !e.in_test {
                enums.push((f.path.as_str(), e));
            }
        }
        if let Some((v, line)) = f.proto_version {
            proto_version = Some((v, f.path.clone(), line));
        }
    }
    let enum_names: BTreeSet<&str> = enums.iter().map(|(_, e)| e.name.as_str()).collect();
    // Variant usage across all non-test fns.
    let mut constructed: BTreeSet<(String, String)> = BTreeSet::new();
    let mut matched: BTreeSet<(String, String)> = BTreeSet::new();
    for f in &ws.files {
        for item in &f.fns {
            if item.in_test {
                continue;
            }
            for r in &item.refs {
                if !enum_names.contains(r.enum_name.as_str()) {
                    continue;
                }
                let key = (r.enum_name.clone(), r.variant.clone());
                if r.is_pattern {
                    matched.insert(key);
                } else {
                    constructed.insert(key);
                }
            }
        }
    }
    for (path, e) in &enums {
        for v in &e.variants {
            let key = (e.name.clone(), v.name.clone());
            if !constructed.contains(&key) {
                out.push(AnalyzeViolation {
                    rule: AnalyzeRule::WireDrift,
                    path: path.to_string(),
                    line: e.line,
                    item: e.name.clone(),
                    message: format!(
                        "wire variant {}::{} is never constructed outside tests",
                        e.name, v.name
                    ),
                    call_path: Vec::new(),
                });
            }
            if !matched.contains(&key) {
                out.push(AnalyzeViolation {
                    rule: AnalyzeRule::WireDrift,
                    path: path.to_string(),
                    line: e.line,
                    item: e.name.clone(),
                    message: format!(
                        "wire variant {}::{} is never matched by any consumer",
                        e.name, v.name
                    ),
                    call_path: Vec::new(),
                });
            }
        }
    }
    // Swallowing wildcard arms in net/runtime consumers.
    for f in &ws.files {
        if !WIRE_CONSUMER_CRATES.iter().any(|c| f.path.starts_with(c)) {
            continue;
        }
        for item in &f.fns {
            if item.in_test {
                continue;
            }
            for m in &item.matches {
                let wire_enum = m.arms.iter().find_map(|a| {
                    enum_names
                        .iter()
                        .find(|n| a.pattern.contains(&format!("{n}::")))
                        .copied()
                });
                let Some(enum_name) = wire_enum else {
                    continue;
                };
                for a in &m.arms {
                    let is_wildcard = a.pattern == "_"
                        || (!a.pattern.contains("::")
                            && !a.pattern.contains('(')
                            && !a.pattern.contains('{')
                            && a.pattern.split_whitespace().count() == 1);
                    if !is_wildcard {
                        continue;
                    }
                    let erroring = ARM_ERROR_TOKENS.iter().any(|t| a.body.contains(t));
                    if !erroring {
                        out.push(AnalyzeViolation {
                            rule: AnalyzeRule::WireDrift,
                            path: f.path.clone(),
                            line: a.line,
                            item: item_name(item),
                            message: format!(
                                "match on wire enum {enum_name} swallows unknown variants: \
                                 wildcard arm `{} => {}` neither errors nor panics",
                                a.pattern,
                                truncate(&a.body, 40)
                            ),
                            call_path: Vec::new(),
                        });
                    }
                }
            }
        }
    }
    // PROTO_VERSION baseline for Ctrl — plus every `Snap`-suffixed
    // wire enum. The snapshot record enums encode the checkpoint blobs
    // that ride inside `Ctrl::Checkpoint` payloads (and come back in
    // resume assignments), so changing one is a wire-surface change
    // even though the supervisor treats the blob as opaque: a restored
    // rank must decode what its previous incarnation encoded. Folding
    // them into the versioned fingerprint makes any such change demand
    // the same deliberate version-bump-plus-pin diff as a Ctrl edit.
    if let Some((ctrl_path, ctrl)) = enums.iter().find(|(_, e)| e.name == "Ctrl") {
        let mut surface: Vec<WireSurfaceRow> = ctrl
            .variants
            .iter()
            .map(|v| (v.tag, v.name.clone(), v.fields.clone()))
            .collect();
        let mut snaps: Vec<&(&str, &crate::parse::WireEnum)> = enums
            .iter()
            .filter(|(_, e)| e.name.ends_with("Snap"))
            .collect();
        snaps.sort_by_key(|(_, e)| e.name.as_str());
        for (_, e) in snaps {
            for v in &e.variants {
                surface.push((v.tag, format!("{}::{}", e.name, v.name), v.fields.clone()));
            }
        }
        let fp = wire_fingerprint(&surface);
        match proto_version {
            None => out.push(AnalyzeViolation {
                rule: AnalyzeRule::WireDrift,
                path: ctrl_path.to_string(),
                line: ctrl.line,
                item: "Ctrl".to_string(),
                message: "no PROTO_VERSION const found alongside the Ctrl wire enum".to_string(),
                call_path: Vec::new(),
            }),
            Some((version, vpath, vline)) => {
                match WIRE_BASELINES.iter().find(|(v, _)| *v == version) {
                    None => out.push(AnalyzeViolation {
                        rule: AnalyzeRule::WireDrift,
                        path: vpath,
                        line: vline,
                        item: "PROTO_VERSION".to_string(),
                        message: format!(
                            "PROTO_VERSION {version} has no pinned wire baseline; pin \
                             fingerprint {fp:#018x} in WIRE_BASELINES to make the new \
                             surface deliberate"
                        ),
                        call_path: Vec::new(),
                    }),
                    Some((_, pinned)) if *pinned != fp => out.push(AnalyzeViolation {
                        rule: AnalyzeRule::WireDrift,
                        path: ctrl_path.to_string(),
                        line: ctrl.line,
                        item: "Ctrl".to_string(),
                        message: format!(
                            "wire surface (Ctrl + snapshot records) changed without a \
                             PROTO_VERSION bump: fingerprint {fp:#018x} != pinned \
                             {pinned:#018x} for version {version}"
                        ),
                        call_path: Vec::new(),
                    }),
                    Some(_) => {}
                }
            }
        }
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        return s.to_string();
    }
    let mut end = n;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// Rule 3: interprocedural lock-order cycles.
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

/// Rule 4: allocation in, or reachable from, hot-path fences.
fn hot_path_transitive(graph: &CallGraph, out: &mut Vec<AnalyzeViolation>) {
    let rule = RegionRule {
        rule: AnalyzeRule::HotPathTransitiveAlloc,
        sinks: |f| &f.allocs,
        sink: "allocating call",
        region: "hot-path fence",
    };
    for id in graph.ids() {
        let item = graph.item(id);
        if !item.in_test && !item.hot_lines.is_empty() {
            region_reach(graph, &rule, id, Some(&item.hot_lines), out);
        }
    }
}

/// Fence markers that do not pair up, each a finding of the rule that
/// owns the fence: an unbalanced fence must not switch its check off.
fn fence_faults(ws: &Workspace, out: &mut Vec<AnalyzeViolation>) {
    for f in &ws.files {
        for fault in &f.fence_faults {
            let rule = match fault.tag {
                "hot-path" => AnalyzeRule::HotPathTransitiveAlloc,
                _ => AnalyzeRule::BlockingReachability,
            };
            let item = f
                .fns
                .iter()
                .find(|i| i.line_span.0 <= fault.line && fault.line <= i.line_span.1)
                .map_or_else(|| "-".to_string(), item_name);
            out.push(AnalyzeViolation {
                rule,
                path: f.path.clone(),
                line: fault.line,
                item,
                message: format!("unbalanced `// {}` fence: {}", fault.tag, fault.problem),
                call_path: Vec::new(),
            });
        }
    }
}

/// Rule 5: `pub` fns and modules of library crates that no caller
/// names. A file of library crate `c` other than its `bin/` and
/// `main.rs` is part of `c`'s API and names things for every crate but
/// `c`; every other file names things for every crate.
fn unreferenced_pub(ws: &Workspace, sources: &[(String, String)], out: &mut Vec<AnalyzeViolation>) {
    let libs: BTreeSet<&str> = sources
        .iter()
        .filter_map(|(p, _)| crate_src(p).filter(|&(_, rest)| rest == "lib.rs"))
        .map(|(c, _)| c)
        .collect();
    fn api_crate<'p>(path: &'p str, libs: &BTreeSet<&str>) -> Option<&'p str> {
        crate_src(path)
            .filter(|&(c, rest)| libs.contains(c) && rest != "main.rs" && !rest.starts_with("bin/"))
            .map(|(c, _)| c)
    }
    let masked: Vec<(Option<&str>, String)> = sources
        .iter()
        .map(|(p, s)| (api_crate(p, &libs), mask_source(s)))
        .collect();
    // Identifier → the crates it is named for (`None`: every crate).
    let mut named_by: HashMap<&str, BTreeSet<Option<&str>>> = HashMap::new();
    for (owner, text) in &masked {
        for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            if !word.is_empty() {
                named_by.entry(word).or_default().insert(*owner);
            }
        }
    }
    let referenced = |name: &str, own: &str| {
        named_by
            .get(name)
            .is_some_and(|owners| owners.iter().any(|o| *o != Some(own)))
    };
    for f in &ws.files {
        let Some(own) = api_crate(&f.path, &libs) else {
            continue;
        };
        let fns = f
            .fns
            .iter()
            .filter(|i| i.is_pub && !i.in_test && !referenced(&i.name, own))
            .map(|i| (item_name(i), i.line, "pub fn"));
        let mods = f
            .pub_mods
            .iter()
            .filter(|(name, _)| !referenced(name, own))
            .map(|(name, line)| (name.clone(), *line, "pub mod"));
        for (item, line, kind) in fns.chain(mods) {
            out.push(AnalyzeViolation {
                rule: AnalyzeRule::UnreferencedPub,
                path: f.path.clone(),
                line,
                message: format!(
                    "`{kind}` named by no caller outside crates/{own}/src (other crates, its \
                     binaries, tests, examples, ledger): delete it or narrow its visibility"
                ),
                item,
                call_path: Vec::new(),
            });
        }
    }
}
