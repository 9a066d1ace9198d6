//! The repo-specific lint pass behind the `cmg-lint` binary.
//!
//! Four rules, each encoding a convention this workspace already
//! follows on purpose:
//!
//! * [`Rule::NoPanicInLib`] — library code must not `unwrap()`,
//!   `expect(...)`, or `panic!`: fallible paths return `Result` with
//!   contextual errors. Test code (`#[cfg(test)]` spans) is exempt;
//!   deliberate invariant panics are allowlisted file-by-file with a
//!   written reason.
//! * [`Rule::HotPathAlloc`] — regions fenced by `// hot-path: begin`
//!   … `// hot-path: end` comments are the engines' allocation-free
//!   inner loops; allocation-shaped calls (`vec![`, `with_capacity`,
//!   `format!`, `.collect(`, …) inside them are flagged.
//! * [`Rule::UnguardedEmit`] — every `.emit(` of an observability event
//!   must sit under an `if` testing the cached enabled-bool
//!   (`observed`/`enabled(`), so uninstrumented runs never construct
//!   events.
//! * [`Rule::HandRolledCollective`] — library code outside
//!   `crates/runtime/src/collectives*` may not rebuild allreduce tree
//!   topology by hand (a fn mentioning `parent` *and* `children` *and*
//!   doing rank arithmetic): the shared `TreeAllreduce`/`DoneWave`/
//!   `NeighborExchange` in `cmg_runtime::collectives` are the single
//!   implementations.
//!
//! The pass is token-level on a *masked* copy of each file
//! ([`crate::mask::mask_source`]): comments and string/char literals
//! are blanked (byte positions preserved) so the rules cannot trigger
//! on prose or literals. It is deliberately not a full parser — the
//! repo's idioms are uniform enough that masking plus brace tracking is
//! exact in practice, and the allowlist absorbs any residue.
//!
//! The old directory-scoped `no-blocking-io-in-reactor` token rule
//! lives on as the interprocedural `blocking-reachability` rule in
//! [`crate::analyze`], which follows calls out of the reactor instead
//! of stopping at the directory boundary.

use crate::mask::mask_source;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Which lint fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `unwrap()`/`expect(`/`panic!` outside test code.
    NoPanicInLib,
    /// Allocation-shaped call inside a `// hot-path` fence.
    HotPathAlloc,
    /// `.emit(` not under an `observed`/`enabled(` guard.
    UnguardedEmit,
    /// Hand-built allreduce tree topology (parent/children rank
    /// arithmetic) outside `cmg_runtime::collectives`.
    HandRolledCollective,
}

impl Rule {
    /// Stable identifier used in reports and the allowlist.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanicInLib => "no-panic-in-lib",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::UnguardedEmit => "unguarded-emit",
            Rule::HandRolledCollective => "no-hand-rolled-collective",
        }
    }
}

/// One finding: file, 1-based line, rule, and the offending line text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Path as handed to [`lint_file`] (repo-relative from the binary).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// The source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.excerpt
        )
    }
}

/// A vetted exemption: files matching `prefix` may violate `rule`, for
/// the stated reason.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Path prefix (repo-relative, forward slashes).
    pub prefix: &'static str,
    /// The exempted rule.
    pub rule: Rule,
    /// Why the exemption is sound — shown by `cmg-lint --allowlist`.
    pub reason: &'static str,
}

/// The set of vetted exemptions applied by [`lint_tree`].
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// The entries, in match order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// An empty allowlist (every violation reported).
    pub fn empty() -> Self {
        Allowlist::default()
    }

    /// The workspace's vetted exemptions. Input-handling code
    /// (`crates/graph/src/io.rs`, `metis_io.rs`, `crates/cli`) is
    /// deliberately *not* here: those paths return contextual `Result`s
    /// and must lint clean.
    pub fn workspace() -> Self {
        let entries = vec![
            AllowEntry {
                prefix: "crates/runtime/src/sim.rs",
                rule: Rule::NoPanicInLib,
                reason: "worker-pool mutex/channel invariants: a poisoned lock or dropped \
                         channel means a worker already panicked; propagating is correct",
            },
            AllowEntry {
                prefix: "crates/runtime/src/threaded.rs",
                rule: Rule::NoPanicInLib,
                reason: "thread join/channel invariants mirror sim.rs's worker pool",
            },
            AllowEntry {
                prefix: "crates/runtime/src/stats.rs",
                rule: Rule::NoPanicInLib,
                reason: "assert_conservation is an intentional invariant panic (documented, \
                         with a non-panicking conservation_violation twin)",
            },
            AllowEntry {
                prefix: "crates/matching/src/matching.rs",
                rule: Rule::NoPanicInLib,
                reason: "Matching::weight documents its panic on matched non-edges (a \
                         `# Panics` contract callers rely on in tests)",
            },
            AllowEntry {
                prefix: "crates/bench/src/experiments.rs",
                rule: Rule::NoPanicInLib,
                reason: "experiments fail fast by design: an invalid matching or coloring, \
                         or a check naming a column the table lacks, aborts the run with a \
                         contextual message (the command line returns errors, exit 2)",
            },
            AllowEntry {
                prefix: "crates/runtime/src/program.rs",
                rule: Rule::UnguardedEmit,
                reason: "RankCtx::emit is the forwarding wrapper every guarded callsite \
                         funnels through; RecorderHandle::emit re-checks the cached bool",
            },
        ];
        Allowlist { entries }
    }

    /// Whether `path` is exempt from `rule`.
    pub fn allows(&self, path: &str, rule: Rule) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == rule && path.starts_with(e.prefix))
    }
}

/// Lines (1-based) covered by `#[cfg(test)]`-attributed items, found by
/// brace-matching the block that follows each attribute.
fn test_line_spans(masked: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let needle = "#[cfg(test)]";
    let mut search_from = 0;
    while let Some(pos) = masked[search_from..].find(needle) {
        let attr_at = search_from + pos;
        let after = attr_at + needle.len();
        let bytes = masked.as_bytes();
        let mut depth = 0usize;
        let mut started = false;
        let mut end = masked.len();
        for (off, &b) in bytes[after..].iter().enumerate() {
            match b {
                b'{' => {
                    depth += 1;
                    started = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        end = after + off + 1;
                        break;
                    }
                }
                b';' if !started => {
                    // `#[cfg(test)] use …;` — a single-line item.
                    end = after + off + 1;
                    break;
                }
                _ => {}
            }
        }
        let line_of = |at: usize| masked[..at].matches('\n').count() + 1;
        spans.push((line_of(attr_at), line_of(end.min(masked.len()))));
        search_from = end.min(masked.len()).max(after);
    }
    spans
}

/// Hot-path fence spans (1-based, inclusive) from the *raw* source —
/// the fences are comments, which masking blanks out.
fn hot_path_spans(raw: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut open: Option<usize> = None;
    for (idx, line) in raw.lines().enumerate() {
        let t = line.trim_start();
        if t.starts_with("// hot-path: begin") {
            open = Some(idx + 1);
        } else if t.starts_with("// hot-path: end") {
            if let Some(start) = open.take() {
                spans.push((start, idx + 1));
            }
        }
    }
    spans
}

fn in_spans(line: usize, spans: &[(usize, usize)]) -> bool {
    spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// Allocation-shaped tokens disallowed inside hot-path fences.
const ALLOC_TOKENS: &[&str] = &[
    "vec![",
    "with_capacity(",
    ".to_vec(",
    ".to_owned(",
    ".to_string(",
    "format!",
    "Box::new(",
    "String::from(",
    ".collect(",
    "String::new(",
];

/// Panic-shaped tokens disallowed in library code.
const PANIC_TOKENS: &[&str] = &[".unwrap()", ".expect(", "panic!"];

/// Rank-arithmetic shapes that mark tree-topology construction when
/// they appear next to `parent`/`children` bookkeeping.
const RANK_ARITH_TOKENS: &[&str] = &[
    "rank *", "* rank", "rank +", "+ rank", "rank -", "- rank", "rank /", "/ rank", "rank %",
    "% rank",
];

/// The only place allowed to build collective topology by hand.
const COLLECTIVES_HOME: &str = "crates/runtime/src/collectives";

/// Start lines (1-based) of fns that hand-roll collective topology:
/// the masked body mentions both `parent` and `children` *and* performs
/// rank arithmetic. Nested fns are scanned independently (an outer fn
/// is reported too if its body — which includes the inner — matches).
fn hand_rolled_collective_sites(masked: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut search = 0usize;
    while let Some(pos) = masked[search..].find("fn ") {
        let at = search + pos;
        search = at + 3;
        // Word boundary: don't fire inside identifiers like `infn `.
        if at > 0 {
            let prev = bytes[at - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let Some(open_rel) = masked[at..].find('{') else {
            continue; // trait method signature without a body
        };
        let open = at + open_rel;
        let mut depth = 0usize;
        let mut end = masked.len();
        for (off, &b) in bytes[open..].iter().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = open + off + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &masked[open..end];
        if body.contains("parent")
            && body.contains("children")
            && RANK_ARITH_TOKENS.iter().any(|t| body.contains(t))
        {
            out.push(masked[..at].matches('\n').count() + 1);
        }
    }
    out
}

/// `.emit(` callsites with the innermost-guard answer for each: `true`
/// when some enclosing brace scope was opened under an
/// `observed`/`enabled(` condition.
fn emit_sites(masked: &str) -> Vec<(usize, bool)> {
    let mut sites = Vec::new();
    let mut stack: Vec<bool> = Vec::new();
    let mut stmt = String::new();
    let mut line = 1usize;
    let bytes = masked.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\n' => {
                line += 1;
                stmt.push(' ');
            }
            b'{' => {
                let guard_here = stmt.contains("if ")
                    && (stmt.contains("observed") || stmt.contains("enabled("));
                let inherited = stack.last().copied().unwrap_or(false);
                stack.push(guard_here || inherited);
                stmt.clear();
            }
            b'}' => {
                stack.pop();
                stmt.clear();
            }
            b';' => stmt.clear(),
            _ => stmt.push(b as char),
        }
        if b == b'(' && masked[..=i].ends_with(".emit(") {
            sites.push((line, stack.last().copied().unwrap_or(false)));
        }
    }
    sites
}

/// Lints one file's source, returning every violation (allowlist not
/// applied — that is [`lint_tree`]'s job).
pub fn lint_file(path: &str, src: &str) -> Vec<Violation> {
    let masked = mask_source(src);
    let tests = test_line_spans(&masked);
    let hot = hot_path_spans(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let excerpt_at = |line: usize| {
        raw_lines
            .get(line - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let mut out = Vec::new();

    for (idx, line) in masked.lines().enumerate() {
        let lineno = idx + 1;
        if in_spans(lineno, &tests) {
            continue;
        }
        if PANIC_TOKENS.iter().any(|t| line.contains(t)) {
            out.push(Violation {
                path: path.to_string(),
                line: lineno,
                rule: Rule::NoPanicInLib,
                excerpt: excerpt_at(lineno),
            });
        }
        if in_spans(lineno, &hot) && ALLOC_TOKENS.iter().any(|t| line.contains(t)) {
            out.push(Violation {
                path: path.to_string(),
                line: lineno,
                rule: Rule::HotPathAlloc,
                excerpt: excerpt_at(lineno),
            });
        }
    }

    for (lineno, guarded) in emit_sites(&masked) {
        if !guarded && !in_spans(lineno, &tests) {
            out.push(Violation {
                path: path.to_string(),
                line: lineno,
                rule: Rule::UnguardedEmit,
                excerpt: excerpt_at(lineno),
            });
        }
    }

    if !path.starts_with(COLLECTIVES_HOME) {
        for lineno in hand_rolled_collective_sites(&masked) {
            if !in_spans(lineno, &tests) {
                out.push(Violation {
                    path: path.to_string(),
                    line: lineno,
                    rule: Rule::HandRolledCollective,
                    excerpt: excerpt_at(lineno),
                });
            }
        }
    }

    out.sort_by_key(|v| v.line);
    out
}

/// Recursively collects `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Reads every `crates/*/src/**/*.rs` under `repo_root` as
/// `(repo-relative path, source)` pairs, sorted by path — the shared
/// file walk behind [`lint_tree`] and [`crate::analyze::analyze_tree`].
pub fn workspace_sources(repo_root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = repo_root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(repo_root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Lints every `crates/*/src/**/*.rs` under `repo_root`, applying
/// `allow`. Paths in the returned violations are repo-relative with
/// forward slashes.
pub fn lint_tree(repo_root: &Path, allow: &Allowlist) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for (rel, src) in workspace_sources(repo_root)? {
        violations.extend(
            lint_file(&rel, &src)
                .into_iter()
                .filter(|v| !allow.allows(&v.path, v.rule)),
        );
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_panics_outside_tests_only() {
        let src = r#"
fn lib_code(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn ok_here() {
        Some(1).unwrap();
        panic!("fine in tests");
    }
}
"#;
        let v = lint_file("demo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoPanicInLib);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn masked_literals_and_comments_do_not_fire() {
        let src = r#"
fn f() -> &'static str {
    // this comment says .unwrap() and panic! freely
    /* and so does .expect( this block comment */
    "a string with .unwrap() inside"
}
"#;
        assert!(lint_file("demo.rs", src).is_empty());
    }

    #[test]
    fn expect_with_message_is_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"boom\") }\n";
        let v = lint_file("demo.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoPanicInLib);
    }

    #[test]
    fn hot_path_fence_rejects_allocation() {
        let src = "
fn step(out: &mut Vec<u32>) {
    let staging = vec![0u32; 4];
    // hot-path: begin (delivery)
    let bad: Vec<u32> = staging.iter().copied().collect();
    out.extend(bad);
    // hot-path: end (delivery)
    let fine = staging.to_vec();
    let _ = fine;
}
";
        let v = lint_file("demo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HotPathAlloc);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn unguarded_emit_is_flagged_guarded_is_not() {
        let src = "
fn good(ctx: &Ctx) {
    if ctx.observed() {
        ctx.emit(Event::RoundStart { round: 0 });
    }
}
fn also_good(rec: &Rec, observed: bool) {
    if observed {
        for r in 0..4 {
            rec.emit(r);
        }
    }
}
fn bad(ctx: &Ctx) {
    ctx.emit(Event::RoundStart { round: 0 });
}
";
        let v = lint_file("demo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnguardedEmit);
        assert_eq!(v[0].line, 15);
    }

    #[test]
    fn allowlist_suppresses_by_prefix_and_rule() {
        let allow = Allowlist {
            entries: vec![AllowEntry {
                prefix: "crates/x/src/lib.rs",
                rule: Rule::NoPanicInLib,
                reason: "test",
            }],
        };
        assert!(allow.allows("crates/x/src/lib.rs", Rule::NoPanicInLib));
        assert!(!allow.allows("crates/x/src/lib.rs", Rule::HotPathAlloc));
        assert!(!allow.allows("crates/y/src/lib.rs", Rule::NoPanicInLib));
    }

    #[test]
    fn workspace_allowlist_excludes_input_paths() {
        // Satellite requirement: the vetted exemptions must not cover
        // the input-handling files, which have to lint clean.
        let allow = Allowlist::workspace();
        for path in [
            "crates/graph/src/io.rs",
            "crates/graph/src/metis_io.rs",
            "crates/cli/src/main.rs",
        ] {
            for rule in [Rule::NoPanicInLib, Rule::HotPathAlloc, Rule::UnguardedEmit] {
                assert!(!allow.allows(path, rule), "{path} must not be exempt");
            }
        }
    }

    #[test]
    fn hand_rolled_collective_flagged_outside_collectives_home() {
        let src = "
pub fn topology(rank: u32, num_ranks: u32) -> (u32, Vec<u32>) {
    let parent = (rank - 1) / 8;
    let children: Vec<u32> = (0..8)
        .map(|i| rank * 8 + i + 1)
        .filter(|&c| c < num_ranks)
        .collect();
    (parent, children)
}
";
        let v = lint_file("crates/coloring/src/dist.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HandRolledCollective);
        assert_eq!(v[0].line, 2);
        // The identical source is legal inside the collectives home.
        assert!(lint_file("crates/runtime/src/collectives.rs", src).is_empty());
        assert!(lint_file("crates/runtime/src/collectives_ext.rs", src).is_empty());
    }

    #[test]
    fn substrate_consumers_do_not_trip_collective_rule() {
        // Using TreeAllreduce mentions parent/children but performs no
        // rank arithmetic — must not fire.
        let src = "
fn try_send_reduce(&mut self) {
    match self.allreduce.try_complete(self.phase, self.own) {
        None => {}
        Some(ReduceOutcome::ToParent { parent, value }) => self.send(parent, value),
        Some(ReduceOutcome::Root { value }) => self.broadcast(value),
    }
}
fn broadcast(&mut self) {
    fan_out(self.ctx, self.allreduce.children(), &self.msg);
}
";
        assert!(lint_file("crates/coloring/src/dist.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_and_char_literals_mask_cleanly() {
        let src = "fn f() { let s = r#\"panic! .unwrap()\"#; let c = '\\''; let l: &'static str = s; let _ = (c, l); }\n";
        assert!(lint_file("demo.rs", src).is_empty());
    }
}
