//! `test-only`, the one rule `cmg-lint` runs: a name scan over the
//! [`mask_source`]d sources.
//!
//! A non-test `pub fn`, or a variant of a `pub enum`, under
//! `crates/*/src` is a finding when its name appears as an identifier
//! nowhere else in the non-test code of `crates/*/src`, `examples/` and
//! `ledger/src`: only tests use it. (`pub(crate)` items are rustc's
//! `dead_code`.) A file's non-test code is the masked text before its
//! first `#[cfg(test)]` at column 0, as the workspace writes its tests.
//!
//! The scan clears a name used anywhere: a fn whose name another item
//! shares, or that only other test-only code calls, passes.

use crate::mask::mask_source;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Reasoned exemptions, `(path#item prefix, why tests are its only users
/// by design)`: oracles and fixtures tests compare against, and the
/// knobs only tests turn. `analyze_allowlist_is_load_bearing` fails when
/// an entry matches no finding.
#[rustfmt::skip] // a table: one entry per line
pub const TEST_SUPPORT: &[(&str, &str)] = &[
    ("crates/check/src/explore.rs", "the schedule explorer"),
    ("crates/check/src/oracles.rs", "the protocol oracles"),
    ("crates/matching/src/exact.rs", "the exact optimum the approximations are held to"),
    ("crates/graph/src/generators.rs", "fixture families; random bipartite inputs of the exact oracle"),
    ("crates/partition/src/partition.rs#single", "the one-part fixture"),
    ("crates/matching/src/matching.rs#is_maximal", "an oracle query"),
    ("crates/runtime/src/sim.rs#run_dense_reference", "the scheduler's dense reference"),
    ("crates/net/src/supervisor.rs#is_live", "the fault tests observe a resident fleet"),
    ("crates/net/src/supervisor.rs#config_mut", "the fault tests re-arm a resident fleet"),
    ("crates/net/src/proto.rs#encode_", "byte pins run the shipped encoders through these"),
    ("crates/obs/src/metrics.rs", "read-back for the JSONL round trip"),
];

/// A `pub fn` or `pub enum` variant whose name only tests use.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// File, relative to the repo root.
    pub path: String,
    /// 1-based line of the name.
    pub line: usize,
    /// The fn's name, or `Enum::Variant`.
    pub item: String,
}

impl Finding {
    /// The reason of the first `allow` entry whose prefix matches
    /// `path#item`.
    pub fn exemption(&self, allow: &[(&str, &'static str)]) -> Option<&'static str> {
        let scoped = format!("{}#{}", self.path, self.item);
        let entry = allow.iter().find(|(prefix, _)| scoped.starts_with(prefix));
        entry.map(|&(_, why)| why)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, line, item) = (&self.path, self.line, &self.item);
        write!(f, "{path}:{line}: [test-only] {item}: only tests name it")
    }
}

/// Scans `(path, source)` pairs, each non-test code ([`read_tree`] reads
/// the scanned directories), and returns the findings, sorted.
/// Deterministic; never panics on arbitrary input.
pub fn scan_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let mut uses: HashMap<&str, usize> = HashMap::new();
    let mut found = Vec::new();
    let masked: Vec<String> = sources.iter().map(|(_, raw)| mask_source(raw)).collect();
    for ((path, _), masked) in sources.iter().zip(&masked) {
        let code = masked.split("\n#[cfg(test)]").next().unwrap_or_default();
        let toks = tokens(code);
        for &(_, t) in toks.iter().filter(|(_, t)| is_ident(t)) {
            *uses.entry(t).or_default() += 1;
        }
        if path.starts_with("crates/") && path.split('/').nth(2) == Some("src") {
            for (at, item) in definitions(&toks) {
                let line = code[..at].matches('\n').count() + 1;
                let path = path.clone();
                found.push(Finding { path, line, item });
            }
        }
    }
    // A name is used when it appears beyond its own definitions.
    let name = |f: &Finding| f.item.rsplit("::").next().unwrap_or_default().to_string();
    for f in &found {
        if let Some(n) = uses.get_mut(name(f).as_str()) {
            *n -= 1;
        }
    }
    found.retain(|f| uses.get(name(f).as_str()) == Some(&0));
    found.sort();
    found
}

/// Reads every `.rs` file under `crates/*/src`, `examples/` and
/// `ledger/src` of `root` as `(path relative to root, source)`, sorted.
pub fn read_tree(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut dirs = vec![root.join("examples"), root.join("ledger/src")];
    dirs.extend(list(&root.join("crates"))?.iter().map(|k| k.join("src")));
    let mut sources = Vec::new();
    while let Some(path) = dirs.pop() {
        if path.is_dir() {
            dirs.extend(list(&path)?);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let err = |e| format!("cannot read {}: {e}", path.display());
            let src = fs::read_to_string(&path).map_err(err)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            sources.push((rel.replace('\\', "/"), src));
        }
    }
    sources.sort();
    Ok(sources)
}

/// The entries of directory `dir`.
fn list(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let err = |e: std::io::Error| format!("cannot list {}: {e}", dir.display());
    fs::read_dir(dir)
        .map_err(err)?
        .map(|e| e.map(|e| e.path()).map_err(err))
        .collect()
}

fn is_ident(t: &str) -> bool {
    t.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

/// `code` as `(byte offset, token)`: words (identifiers and numbers) and
/// single punctuation characters.
fn tokens(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut word: Option<usize> = None;
    for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
        let in_word = c.is_alphanumeric() || c == '_';
        match word {
            Some(start) if !in_word => out.push((start, &code[start..i])),
            None if in_word => word = Some(i),
            _ => {}
        }
        if !in_word {
            word = None;
            if !c.is_whitespace() {
                out.push((i, &code[i..i + c.len_utf8()]));
            }
        }
    }
    out
}

/// The `pub fn`s and `pub enum` variants among `toks`, as `(offset,
/// item)`.
fn definitions(toks: &[(usize, &str)]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for i in (0..toks.len()).filter(|&i| toks[i].1 == "pub") {
        let mut rest = toks[i + 1..].iter().skip_while(|t| t.1 == "const");
        match (rest.next(), rest.next()) {
            (Some((_, "fn")), Some(&(at, name))) if is_ident(name) => {
                out.push((at, name.to_string()))
            }
            (Some((_, "enum")), Some(&(_, name))) => variants(name, &toks[i + 3..], &mut out),
            _ => {}
        }
    }
    out
}

/// Appends the variants of enum `name`, whose body is the first `{ ... }`
/// of `toks`, as `(offset, "name::Variant")`: the first identifier of
/// each comma-separated entry (after attributes, or a `wire_codec!` tag).
fn variants(name: &str, toks: &[(usize, &str)], out: &mut Vec<(usize, String)>) {
    let (mut depth, mut fresh) = (0usize, true);
    for &(at, t) in toks.iter().skip_while(|t| t.1 != "{") {
        match t {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" if depth <= 1 => return,
            "}" | ")" | "]" => depth -= 1,
            "," => fresh |= depth == 1,
            v if depth == 1 && fresh && is_ident(v) => {
                fresh = false;
                out.push((at, format!("{name}::{v}")));
            }
            _ => {}
        }
    }
}
