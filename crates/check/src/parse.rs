//! The item-level IR behind `cmg-analyze`: a lightweight
//! recursive-descent parser over the masked token stream.
//!
//! [`parse_file`] lifts one source file into items — functions (with
//! their enclosing `impl`/`trait` type), struct field tables,
//! [`wire_codec!`] expansions — plus per-function **body facts**: call
//! sites with receiver chains, lock acquisitions, blocking- and
//! allocation-shaped tokens, `Enum::Variant` references split into
//! pattern vs construction position, and every `match` with its arms.
//! It also records which fns and modules are plain `pub`, and every
//! `// hot-path` / `// nonblocking` fence marker that does not pair up
//! ([`FenceFault`]). The call graph ([`crate::callgraph`]) and the
//! interprocedural rules ([`crate::analyze`]) are built entirely from
//! this IR.
//!
//! The parser is *not* a Rust front end. It is a token-shape parser
//! over [`crate::mask::mask_source`] output, built on three properties
//! this workspace maintains: literals and comments are blanked before
//! scanning, items are brace-delimited, and the code is `rustfmt`-shaped.
//! Where Rust's grammar is ambiguous at token level the parser errs
//! toward recording *more* facts (extra call candidates, extra lock
//! sites) — the analysis rules are conservative, so over-approximation
//! surfaces as reviewable findings, never silent gaps. It must never
//! panic on arbitrary input (proptest-enforced), and its output is a
//! pure function of the input text.
//!
//! [`wire_codec!`]: cmg_runtime::wire_codec

use crate::mask::mask_source;

/// One token of the masked stream.
#[derive(Clone, Copy, Debug)]
struct Tok {
    kind: TokKind,
    start: usize,
    end: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TokKind {
    Ident,
    Num,
    /// Single- or multi-byte punctuation (`::`, `=>`, `->` fused).
    Punct,
}

/// A function item with its extracted body facts.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` self type or `trait` name, if any.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line span of the whole item (signature through body).
    pub line_span: (usize, usize),
    /// Inside a `#[cfg(test)]` span.
    pub in_test: bool,
    /// Declared plain `pub` (not `pub(crate)` or another restricted form).
    pub is_pub: bool,
    /// Typed parameters (`self` forms excluded).
    pub params: Vec<Param>,
    /// Simple local type facts: `let x: T` / `let x = T::new(...)`.
    pub lets: Vec<(String, String)>,
    /// Whether the return type mentions a lock guard.
    pub returns_guard: bool,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Mutex/RwLock acquisition sites in body order.
    pub locks: Vec<LockSite>,
    /// Direct blocking-API tokens.
    pub blocking: Vec<TokenSite>,
    /// Direct allocation-shaped tokens.
    pub allocs: Vec<TokenSite>,
    /// `Enum::Variant` path references.
    pub refs: Vec<VariantRef>,
    /// `match` statements whose arms we parsed.
    pub matches: Vec<MatchFacts>,
    /// `// hot-path: begin/end` fence spans inside this fn (1-based lines).
    pub hot_lines: Vec<(usize, usize)>,
    /// `// nonblocking: begin/end` fence spans inside this fn.
    pub nonblocking_lines: Vec<(usize, usize)>,
}

/// One typed function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name.
    pub name: String,
    /// Outer type name, reference/smart-pointer layers stripped
    /// (`&mut Arc<Mutex<T>>` → `Mutex`) — the method-resolution hint.
    pub outer: String,
    /// Full type text, whitespace removed (`&Mutex<Writer>` →
    /// `Mutex<Writer>`) — the lock-identity key.
    pub full: String,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// `foo(...)` — unqualified.
    Free {
        /// Callee name.
        name: String,
    },
    /// `module::foo(...)` — lowercase path qualifier.
    ModQualified {
        /// The nearest (lowercase) path segment before the name.
        module: String,
        /// Callee name.
        name: String,
    },
    /// `Type::foo(...)` — uppercase path qualifier.
    TypeQualified {
        /// The nearest (uppercase) path segment before the name.
        ty: String,
        /// Callee name.
        name: String,
    },
    /// `recv.foo(...)` — method call with the receiver's identifier
    /// chain (empty when the receiver is an expression, e.g. `f().g()`).
    Method {
        /// `self.field.sub` → `["self", "field", "sub"]`.
        chain: Vec<String>,
        /// Callee name.
        name: String,
    },
}

impl Callee {
    /// The bare callee name.
    pub fn name(&self) -> &str {
        match self {
            Callee::Free { name }
            | Callee::ModQualified { name, .. }
            | Callee::TypeQualified { name, .. }
            | Callee::Method { name, .. } => name,
        }
    }
}

/// One call site.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The callee reference shape.
    pub callee: Callee,
    /// 1-based line.
    pub line: usize,
    /// Statement ordinal within the fn body (for held-lock analysis).
    pub stmt: u32,
}

/// One lock acquisition site.
#[derive(Clone, Debug)]
pub struct LockSite {
    /// Stable lock identity (receiver-derived; see
    /// [`crate::analyze`] for the naming scheme).
    pub id: String,
    /// 1-based line.
    pub line: usize,
    /// Statement ordinal within the fn body.
    pub stmt: u32,
    /// Whether the guard is bound (`let g = x.lock()`) and thus held
    /// past its statement, or a temporary dropped at the semicolon.
    pub bound: bool,
}

/// A rule-relevant token occurrence.
#[derive(Clone, Debug)]
pub struct TokenSite {
    /// The token (method or macro name, e.g. `read`, `vec!`).
    pub token: String,
    /// 1-based line.
    pub line: usize,
}

/// An `Enum::Variant` path reference.
#[derive(Clone, Debug)]
pub struct VariantRef {
    /// The enum path segment (uppercase-initial).
    pub enum_name: String,
    /// The variant segment (uppercase-initial).
    pub variant: String,
    /// 1-based line.
    pub line: usize,
    /// True when the reference sits in pattern position (match arm,
    /// `if let`/`while let`/`let`/`for` pattern, `matches!` pattern).
    pub is_pattern: bool,
}

/// One parsed `match` with its arms.
#[derive(Clone, Debug)]
pub struct MatchFacts {
    /// 1-based line of the `match` keyword.
    pub line: usize,
    /// The arms in order.
    pub arms: Vec<MatchArm>,
}

/// One match arm.
#[derive(Clone, Debug)]
pub struct MatchArm {
    /// 1-based line of the pattern.
    pub line: usize,
    /// Pattern text (masked, whitespace-normalized), guard included.
    pub pattern: String,
    /// Arm body text (masked, whitespace-normalized).
    pub body: String,
}

/// A struct definition's field table.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Field name → outer type (smart-pointer layers stripped).
    pub fields: Vec<(String, String)>,
}

/// One `wire_codec!` expansion: the declarative wire enum.
#[derive(Clone, Debug)]
pub struct WireEnum {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Inside a `#[cfg(test)]` span.
    pub in_test: bool,
    /// Variants in declaration order.
    pub variants: Vec<WireVariant>,
}

/// One wire enum variant.
#[derive(Clone, Debug)]
pub struct WireVariant {
    /// Wire tag literal.
    pub tag: u64,
    /// Variant name.
    pub name: String,
    /// Declared fields (name, type).
    pub fields: Vec<(String, String)>,
}

/// A `// {tag}: begin` / `// {tag}: end` marker outside test code that
/// does not pair up with another.
#[derive(Clone, Debug)]
pub struct FenceFault {
    /// The fence tag (`hot-path`, `nonblocking`).
    pub tag: &'static str,
    /// 1-based line of the offending marker.
    pub line: usize,
    /// What is wrong with the marker.
    pub problem: &'static str,
}

/// Everything extracted from one source file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Repo-relative path (as handed in).
    pub path: String,
    /// Function items.
    pub fns: Vec<FnItem>,
    /// Non-test `pub mod` declarations: (name, 1-based line).
    pub pub_mods: Vec<(String, usize)>,
    /// Unbalanced fence markers.
    pub fence_faults: Vec<FenceFault>,
    /// Struct field tables.
    pub structs: Vec<StructDef>,
    /// `wire_codec!` expansions.
    pub wire_enums: Vec<WireEnum>,
    /// `const PROTO_VERSION: u32 = N;` if the file declares it.
    pub proto_version: Option<(u64, usize)>,
}

/// Keywords that look like calls at token level but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "fn", "in", "as", "move", "unsafe", "let",
    "else", "break", "continue", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod",
    "struct", "enum", "trait", "const", "static", "type",
];

/// Smart-pointer layers stripped when deriving a receiver/field type.
const WRAPPER_TYPES: &[&str] = &["Arc", "Rc", "Box", "RefCell", "Cell", "Pin"];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenizes masked source. `::`, `=>`, `->` are fused.
fn tokenize(masked: &str) -> Vec<Tok> {
    let bytes = masked.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
        } else if is_ident_start(b) {
            let start = i;
            while i < bytes.len() && is_ident_cont(bytes[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                start,
                end: i,
            });
        } else if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (is_ident_cont(bytes[i]) || bytes[i] == b'.') {
                // `0..4` range: stop before a second dot.
                if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                    break;
                }
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Num,
                start,
                end: i,
            });
        } else {
            let next = bytes.get(i + 1).copied().unwrap_or(0);
            let len = match (b, next) {
                (b':', b':') | (b'=', b'>') | (b'-', b'>') => 2,
                _ => 1,
            };
            toks.push(Tok {
                kind: TokKind::Punct,
                start: i,
                end: i + len,
            });
            i += len;
        }
    }
    toks
}

/// Byte spans of `#[cfg(test)]`-attributed items, found by matching
/// the braces of the block that follows each attribute.
pub(crate) fn test_byte_spans(masked: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let needle = "#[cfg(test)]";
    let bytes = masked.as_bytes();
    let mut search_from = 0;
    while let Some(pos) = masked[search_from..].find(needle) {
        let attr_at = search_from + pos;
        let after = attr_at + needle.len();
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
                    end = after + off + 1;
                    break;
                }
                _ => {}
            }
        }
        spans.push((attr_at, end.min(masked.len())));
        search_from = end.min(masked.len()).max(after);
    }
    spans
}

/// Comment-fence spans from the raw source (`// {tag}: begin` …
/// `// {tag}: end`), 1-based inclusive lines. A marker that does not
/// pair up is pushed to `faults`, and the fence errs toward covering
/// more: a `begin` inside an open fence keeps the outer one open, and
/// an unterminated `begin` runs to the end of the file.
fn fence_spans(raw: &str, tag: &'static str, faults: &mut Vec<FenceFault>) -> Vec<(usize, usize)> {
    let begin = format!("// {tag}: begin");
    let end = format!("// {tag}: end");
    let mut spans = Vec::new();
    let mut open: Option<usize> = None;
    let mut fault = |line, problem| faults.push(FenceFault { tag, line, problem });
    let mut last = 0;
    for (idx, line) in raw.lines().enumerate() {
        let t = line.trim_start();
        last = idx + 1;
        if t.starts_with(&begin) {
            if open.is_some() {
                fault(last, "`begin` inside a fence that is still open");
            } else {
                open = Some(last);
            }
        } else if t.starts_with(&end) {
            match open.take() {
                Some(start) => spans.push((start, last)),
                None => fault(last, "`end` with no open fence"),
            }
        }
    }
    if let Some(start) = open {
        fault(start, "`begin` never closed by an `end`");
        spans.push((start, last));
    }
    spans
}

struct Parser<'a> {
    masked: &'a str,
    toks: Vec<Tok>,
    /// Byte offset → 1-based line (via sorted newline positions).
    newlines: Vec<usize>,
    test_spans: Vec<(usize, usize)>,
    hot_spans: Vec<(usize, usize)>,
    nonblocking_spans: Vec<(usize, usize)>,
    out: ParsedFile,
}

impl<'a> Parser<'a> {
    fn text(&self, t: Tok) -> &'a str {
        &self.masked[t.start..t.end]
    }

    fn line_of(&self, byte: usize) -> usize {
        self.newlines.partition_point(|&n| n < byte) + 1
    }

    fn in_test(&self, byte: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(lo, hi)| lo <= byte && byte < hi)
    }

    /// Index of the matching close for the open bracket at `open_idx`,
    /// or the last token if unbalanced.
    fn match_bracket(&self, open_idx: usize) -> usize {
        let open = self.text(self.toks[open_idx]);
        let (o, c) = match open {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => ("{", "}"),
        };
        let mut depth = 0usize;
        for i in open_idx..self.toks.len() {
            let t = self.text(self.toks[i]);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.toks.len().saturating_sub(1)
    }

    /// First token index in `[from, to)` whose text is `what` at
    /// zero bracket depth (counting `(`/`[`/`{`). An opening bracket
    /// is matched *before* it deepens — searching for `{` finds the
    /// first depth-0 open brace.
    fn find_at_depth0(&self, from: usize, to: usize, what: &[&str]) -> Option<usize> {
        let mut depth = 0i64;
        for i in from..to.min(self.toks.len()) {
            let t = self.text(self.toks[i]);
            if depth == 0 && what.contains(&t) {
                return Some(i);
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return None;
            }
        }
        None
    }

    /// Walks items in `[from, to)` token range under `qual`.
    fn parse_items(&mut self, from: usize, to: usize, qual: Option<&str>) {
        let mut i = from;
        while i < to.min(self.toks.len()) {
            let t = self.toks[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            match self.text(t) {
                "macro_rules" => {
                    // `macro_rules! name { ... }` — skip the whole body;
                    // matcher/transcriber tokens are not items.
                    if let Some(open) = self.find_token(i, to, "{") {
                        i = self.match_bracket(open) + 1;
                    } else {
                        i += 1;
                    }
                }
                "impl" | "trait" => {
                    let Some(open) = self.find_token(i, to, "{") else {
                        i += 1;
                        continue;
                    };
                    let close = self.match_bracket(open);
                    let q = if self.text(t) == "impl" {
                        self.impl_self_type(i + 1, open)
                    } else {
                        // trait Name { … } — first ident is the name.
                        (i + 1..open)
                            .find(|&k| self.toks[k].kind == TokKind::Ident)
                            .map(|k| self.text(self.toks[k]).to_string())
                    };
                    self.parse_items(open + 1, close, q.as_deref().or(qual));
                    i = close + 1;
                }
                "mod" => {
                    let name = self.toks.get(i + 1).filter(|n| n.kind == TokKind::Ident);
                    if let Some(&name) = name {
                        if self.is_plain_pub(i) && !self.in_test(t.start) {
                            let decl = (self.text(name).to_string(), self.line_of(t.start));
                            self.out.pub_mods.push(decl);
                        }
                    }
                    // Inline module: recurse without impl context.
                    match self.find_at_depth0(i + 1, to, &["{", ";"]) {
                        Some(k) if self.text(self.toks[k]) == "{" => {
                            let close = self.match_bracket(k);
                            self.parse_items(k + 1, close, None);
                            i = close + 1;
                        }
                        Some(k) => i = k + 1,
                        None => i += 1,
                    }
                }
                "struct" => {
                    i = self.parse_struct(i, to);
                }
                "enum" => {
                    // Plain enum: skip the body (wire enums are parsed
                    // through their macro invocation instead).
                    match self.find_at_depth0(i + 1, to, &["{", ";"]) {
                        Some(k) if self.text(self.toks[k]) == "{" => {
                            i = self.match_bracket(k) + 1;
                        }
                        Some(k) => i = k + 1,
                        None => i += 1,
                    }
                }
                "wire_codec" => {
                    // `wire_codec! { … enum Name { tag => Variant … } }`
                    if self.peek_text(i + 1) == Some("!") {
                        if let Some(open) = self.find_token(i, to, "{") {
                            let close = self.match_bracket(open);
                            self.parse_wire_enum(open + 1, close);
                            i = close + 1;
                            continue;
                        }
                    }
                    i += 1;
                }
                "const" => {
                    // `const PROTO_VERSION: u32 = N;`
                    if self.peek_text(i + 1) == Some("PROTO_VERSION") {
                        if let Some(eq) = self.find_at_depth0(i, to, &["="]) {
                            if let Some(v) = self
                                .toks
                                .get(eq + 1)
                                .filter(|t| t.kind == TokKind::Num)
                                .and_then(|t| self.text(*t).parse::<u64>().ok())
                            {
                                self.out.proto_version = Some((v, self.line_of(t.start)));
                            }
                        }
                    }
                    i += 1;
                }
                "fn" => {
                    i = self.parse_fn(i, to, qual);
                }
                _ => i += 1,
            }
        }
    }

    fn peek_text(&self, idx: usize) -> Option<&str> {
        self.toks.get(idx).map(|t| &self.masked[t.start..t.end])
    }

    /// Whether the item keyword at token `kw` is declared plain `pub`,
    /// looking back past `const`/`unsafe`/`async`/`extern`.
    fn is_plain_pub(&self, kw: usize) -> bool {
        let mut k = kw;
        while let Some(p) = k.checked_sub(1) {
            match self.text(self.toks[p]) {
                "const" | "unsafe" | "async" | "extern" => k = p,
                vis => return vis == "pub",
            }
        }
        false
    }

    /// First token with exactly `what` after `from` (any depth), bounded.
    fn find_token(&self, from: usize, to: usize, what: &str) -> Option<usize> {
        (from..to.min(self.toks.len())).find(|&k| self.text(self.toks[k]) == what)
    }

    /// The self type of an `impl` header in `[from, open)`:
    /// `impl<T> Foo for Bar<T>` → `Bar`; `impl Baz<T>` → `Baz`.
    fn impl_self_type(&self, from: usize, open: usize) -> Option<String> {
        let mut start = from;
        // After the last ` for ` at generic depth 0.
        let mut depth = 0i64;
        for k in from..open {
            match self.text(self.toks[k]) {
                "<" => depth += 1,
                ">" => depth -= 1,
                "for" if depth <= 0 => start = k + 1,
                _ => {}
            }
        }
        // Last path segment before generics open.
        let mut result: Option<String> = None;
        let mut depth = 0i64;
        for k in start..open {
            let t = self.toks[k];
            match self.text(t) {
                "<" => depth += 1,
                ">" => depth -= 1,
                "where" if depth <= 0 => break,
                "dyn" | "mut" => {}
                s if t.kind == TokKind::Ident && depth <= 0 => {
                    result = Some(s.to_string());
                }
                _ => {}
            }
        }
        result
    }

    /// Parses `struct Name { fields }`, recording the field table.
    /// Returns the token index to resume at.
    fn parse_struct(&mut self, kw: usize, to: usize) -> usize {
        let Some(name_idx) =
            (kw + 1..to.min(self.toks.len())).find(|&k| self.toks[k].kind == TokKind::Ident)
        else {
            return kw + 1;
        };
        let name = self.text(self.toks[name_idx]).to_string();
        let Some(body) = self.find_at_depth0(kw + 1, to, &["{", ";", "("]) else {
            return kw + 1;
        };
        if self.text(self.toks[body]) != "{" {
            // Tuple or unit struct: no named fields.
            return body + 1;
        }
        let close = self.match_bracket(body);
        let mut fields = Vec::new();
        let mut k = body + 1;
        while k < close {
            // field ident, then `:`, then type until depth-0 `,`.
            if self.toks[k].kind == TokKind::Ident && self.peek_text(k + 1) == Some(":") {
                let fname = self.text(self.toks[k]).to_string();
                if fname != "pub" {
                    let ty_end = self.find_at_depth0(k + 2, close, &[","]).unwrap_or(close);
                    let ty = self.outer_type(k + 2, ty_end);
                    fields.push((fname, ty));
                    k = ty_end + 1;
                    continue;
                }
            }
            k += 1;
        }
        self.out.structs.push(StructDef { name, fields });
        close + 1
    }

    /// The outer type name of a type token range, with reference and
    /// smart-pointer layers stripped: `&mut Arc<Mutex<T>>` → `Mutex`.
    fn outer_type(&self, from: usize, to: usize) -> String {
        let mut k = from;
        loop {
            // Skip punctuation (&, lifetimes are kept as idents after ').
            while k < to
                && (self.toks[k].kind == TokKind::Punct
                    || matches!(self.text(self.toks[k]), "mut" | "dyn"))
            {
                k += 1;
            }
            if k >= to {
                return String::new();
            }
            // Walk the path to its last segment.
            let mut seg = k;
            while self.peek_text(seg + 1) == Some("::")
                && self.toks.get(seg + 2).map(|t| t.kind) == Some(TokKind::Ident)
            {
                seg += 2;
            }
            let name = self.text(self.toks[seg]);
            if WRAPPER_TYPES.contains(&name) && self.peek_text(seg + 1) == Some("<") {
                // Unwrap one generic layer: Arc<Mutex<T>> → Mutex<T>.
                k = seg + 2;
                continue;
            }
            return name.to_string();
        }
    }

    /// Parses the body of a `wire_codec!` invocation: attributes, then
    /// `enum Name { tag => Variant { field: ty }, … }`.
    fn parse_wire_enum(&mut self, from: usize, to: usize) {
        let Some(kw) = self.find_token(from, to, "enum") else {
            return;
        };
        let Some(name_idx) = (kw + 1..to).find(|&k| self.toks[k].kind == TokKind::Ident) else {
            return;
        };
        let name = self.text(self.toks[name_idx]).to_string();
        let Some(open) = self.find_token(name_idx, to, "{") else {
            return;
        };
        let close = self.match_bracket(open);
        let mut variants = Vec::new();
        let mut k = open + 1;
        while k < close {
            let t = self.toks[k];
            if t.kind == TokKind::Num && self.peek_text(k + 1) == Some("=>") {
                let tag = self.text(t).parse::<u64>().unwrap_or(u64::MAX);
                if let Some(vn) = self.toks.get(k + 2).filter(|v| v.kind == TokKind::Ident) {
                    let vname = self.text(*vn).to_string();
                    let mut fields = Vec::new();
                    let mut next = k + 3;
                    if self.peek_text(k + 3) == Some("{") {
                        let vclose = self.match_bracket(k + 3);
                        let mut f = k + 4;
                        while f < vclose {
                            if self.toks[f].kind == TokKind::Ident
                                && self.peek_text(f + 1) == Some(":")
                            {
                                let fname = self.text(self.toks[f]).to_string();
                                let fend =
                                    self.find_at_depth0(f + 2, vclose, &[","]).unwrap_or(vclose);
                                let fty = self.outer_type(f + 2, fend);
                                fields.push((fname, fty));
                                f = fend + 1;
                            } else {
                                f += 1;
                            }
                        }
                        next = vclose + 1;
                    }
                    variants.push(WireVariant {
                        tag,
                        name: vname,
                        fields,
                    });
                    k = next;
                    continue;
                }
            }
            k += 1;
        }
        self.out.wire_enums.push(WireEnum {
            name,
            line: self.line_of(self.toks[kw].start),
            in_test: self.in_test(self.toks[kw].start),
            variants,
        });
    }

    /// Parses one `fn`; returns the resume index.
    fn parse_fn(&mut self, kw: usize, to: usize, qual: Option<&str>) -> usize {
        let Some(name_tok) = self
            .toks
            .get(kw + 1)
            .copied()
            .filter(|t| t.kind == TokKind::Ident)
        else {
            return kw + 1;
        };
        let name = self.text(name_tok).to_string();
        // Parameter list: first `(` (skipping generics `<…>`).
        let mut p = kw + 2;
        if self.peek_text(p) == Some("<") {
            let mut depth = 0i64;
            while p < to.min(self.toks.len()) {
                match self.text(self.toks[p]) {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    _ => {}
                }
                p += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if self.peek_text(p) != Some("(") {
            return kw + 1;
        }
        let pclose = self.match_bracket(p);
        let params = self.parse_params(p + 1, pclose);
        // Body `{` or trait signature `;`.
        let Some(body_or_sig) = self.find_at_depth0(pclose + 1, to, &["{", ";"]) else {
            return pclose + 1;
        };
        if self.text(self.toks[body_or_sig]) != "{" {
            return body_or_sig + 1;
        }
        let ret_range = (pclose + 1, body_or_sig);
        let returns_guard =
            (ret_range.0..ret_range.1).any(|k| self.text(self.toks[k]).contains("Guard"));
        let open = body_or_sig;
        let close = self.match_bracket(open);
        let start_line = self.line_of(self.toks[kw].start);
        let end_line = self.line_of(self.toks[close].start);
        let mut item = FnItem {
            name,
            qual: qual.map(str::to_string),
            line: start_line,
            line_span: (start_line, end_line),
            in_test: self.in_test(self.toks[kw].start),
            is_pub: self.is_plain_pub(kw),
            params,
            lets: Vec::new(),
            returns_guard,
            calls: Vec::new(),
            locks: Vec::new(),
            blocking: Vec::new(),
            allocs: Vec::new(),
            refs: Vec::new(),
            matches: Vec::new(),
            hot_lines: clip_spans(&self.hot_spans, start_line, end_line),
            nonblocking_lines: clip_spans(&self.nonblocking_spans, start_line, end_line),
        };
        self.scan_body(open + 1, close, &mut item);
        self.out.fns.push(item);
        close + 1
    }

    /// Splits a parameter token range on depth-0 commas into
    /// `name: Type` facts.
    fn parse_params(&self, from: usize, to: usize) -> Vec<Param> {
        let mut out = Vec::new();
        let mut start = from;
        loop {
            let end = self.find_at_depth0(start, to, &[","]).unwrap_or(to);
            // `name: Type` (skip leading mut; `self` forms skipped).
            let mut k = start;
            while k < end && matches!(self.text(self.toks[k]), "mut" | "&") {
                k += 1;
            }
            if k < end && self.toks[k].kind == TokKind::Ident && self.peek_text(k + 1) == Some(":")
            {
                let pname = self.text(self.toks[k]).to_string();
                let outer = self.outer_type(k + 2, end);
                if pname != "self" && !outer.is_empty() {
                    out.push(Param {
                        name: pname,
                        outer,
                        full: self.type_text(k + 2, end),
                    });
                }
            }
            if end >= to {
                break;
            }
            start = end + 1;
        }
        out
    }

    /// The full type text of a token range, whitespace removed and
    /// leading reference sigils stripped.
    fn type_text(&self, from: usize, to: usize) -> String {
        let Some(first) = self.toks.get(from) else {
            return String::new();
        };
        let Some(last) = to.checked_sub(1).and_then(|k| self.toks.get(k)) else {
            return String::new();
        };
        if last.end <= first.start {
            return String::new();
        }
        let mut s: String = self.masked[first.start..last.end]
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        while let Some(rest) = s.strip_prefix('&') {
            s = rest.to_string();
        }
        if let Some(rest) = s.strip_prefix("mut") {
            s = rest.to_string();
        }
        s
    }

    /// Extracts every body fact from the fn body token range.
    fn scan_body(&mut self, from: usize, to: usize, item: &mut FnItem) {
        // Pattern byte spans: match arms, `let`/`if let`/`while let`
        // bindings, `for` patterns, `matches!` second argument.
        let mut pattern_spans: Vec<(usize, usize)> = Vec::new();
        let mut stmt: u32 = 0;
        let mut k = from;
        let end = to.min(self.toks.len());
        while k < end {
            let t = self.toks[k];
            let text = self.text(t);
            match text {
                ";" | "{" | "}" => {
                    stmt += 1;
                    k += 1;
                    continue;
                }
                "match" if t.kind == TokKind::Ident => {
                    self.parse_match(k, end, item, &mut pattern_spans);
                    k += 1;
                    continue;
                }
                "let" if t.kind == TokKind::Ident => {
                    // Pattern span: from after `let` to `=`, `;` or `:`.
                    let stop = self
                        .find_at_depth0(k + 1, end, &["=", ";"])
                        .unwrap_or(end.saturating_sub(1));
                    if let (Some(a), Some(b)) = (self.toks.get(k + 1), self.toks.get(stop)) {
                        pattern_spans.push((a.start, b.start));
                    }
                    self.record_let_type(k, stop, end, item);
                    k += 1;
                    continue;
                }
                "for" if t.kind == TokKind::Ident => {
                    if let Some(stop) = self.find_token(k + 1, end.min(k + 24), "in") {
                        if let (Some(a), Some(b)) = (self.toks.get(k + 1), self.toks.get(stop)) {
                            pattern_spans.push((a.start, b.start));
                        }
                    }
                    k += 1;
                    continue;
                }
                "matches" if t.kind == TokKind::Ident && self.peek_text(k + 1) == Some("!") => {
                    if self.peek_text(k + 2) == Some("(") {
                        let close = self.match_bracket(k + 2);
                        if let Some(comma) = self.find_at_depth0(k + 3, close, &[","]) {
                            if let (Some(a), Some(b)) =
                                (self.toks.get(comma + 1), self.toks.get(close))
                            {
                                pattern_spans.push((a.start, b.start));
                            }
                        }
                    }
                    k += 1;
                    continue;
                }
                _ => {}
            }
            if t.kind == TokKind::Ident {
                // `A::B` variant-shaped path reference.
                if starts_upper(text)
                    && self.peek_text(k + 1) == Some("::")
                    && self
                        .toks
                        .get(k + 2)
                        .is_some_and(|v| v.kind == TokKind::Ident && starts_upper(self.text(*v)))
                    && self.peek_text(k + 3) != Some("::")
                {
                    item.refs.push(VariantRef {
                        enum_name: text.to_string(),
                        variant: self.text(self.toks[k + 2]).to_string(),
                        line: self.line_of(t.start),
                        // Filled in below once all pattern spans exist.
                        is_pattern: false,
                    });
                }
                // Macro allocation shapes.
                if (text == "vec" || text == "format") && self.peek_text(k + 1) == Some("!") {
                    item.allocs.push(TokenSite {
                        token: format!("{text}!"),
                        line: self.line_of(t.start),
                    });
                }
                // Call site?
                if let Some(call_at) = self.call_paren(k) {
                    if let Some(site) = self.classify_call(k, stmt) {
                        let cname = site.callee.name().to_string();
                        let line = site.line;
                        let is_method = matches!(site.callee, Callee::Method { .. });
                        let qualifier = match &site.callee {
                            Callee::TypeQualified { ty, .. } => Some(ty.clone()),
                            Callee::ModQualified { module, .. } => Some(module.clone()),
                            _ => None,
                        };
                        // Lock acquisition: `recv.lock()` with no args.
                        if is_method && cname == "lock" && self.peek_text(call_at + 1) == Some(")")
                        {
                            if let Callee::Method { chain, .. } = &site.callee {
                                let id = self.lock_identity(chain, item);
                                let bound = self.stmt_is_binding(k, from);
                                item.locks.push(LockSite {
                                    id,
                                    line,
                                    stmt,
                                    bound,
                                });
                            }
                        }
                        // Blocking-API shapes.
                        let blocking = if is_method {
                            BLOCKING_METHODS.contains(&cname.as_str())
                        } else {
                            BLOCKING_FREE.contains(&cname.as_str())
                                && qualifier.as_deref() != Some("mio")
                        };
                        if blocking {
                            item.blocking.push(TokenSite {
                                token: cname.clone(),
                                line,
                            });
                        }
                        // Allocation-shaped calls; with `vec!` and
                        // `format!` above, the hot-path allocation list.
                        let alloc = match &site.callee {
                            Callee::Method { name, .. } => {
                                matches!(
                                    name.as_str(),
                                    "to_vec" | "to_owned" | "to_string" | "collect"
                                )
                            }
                            Callee::TypeQualified { ty, name } => {
                                (ty == "Box" && name == "new")
                                    || (ty == "String" && (name == "from" || name == "new"))
                                    || name == "with_capacity"
                            }
                            _ => cname == "with_capacity",
                        };
                        if alloc {
                            item.allocs.push(TokenSite {
                                token: cname.clone(),
                                line,
                            });
                        }
                        item.calls.push(site);
                    }
                }
            }
            k += 1;
        }
        // Classify refs now that every pattern span is known (spans
        // discovered after a ref still count, hence the second pass).
        self.mark_pattern_refs(from, end, item, &pattern_spans);
    }

    /// Re-walks `A::B` refs to set `is_pattern` from the collected
    /// pattern byte spans (done as a second pass so spans discovered
    /// after a ref still count).
    fn mark_pattern_refs(
        &self,
        from: usize,
        to: usize,
        item: &mut FnItem,
        spans: &[(usize, usize)],
    ) {
        let mut ref_idx = 0;
        for k in from..to {
            let t = self.toks[k];
            if t.kind != TokKind::Ident || !starts_upper(self.text(t)) {
                continue;
            }
            if self.peek_text(k + 1) == Some("::")
                && self
                    .toks
                    .get(k + 2)
                    .is_some_and(|v| v.kind == TokKind::Ident && starts_upper(self.text(*v)))
                && self.peek_text(k + 3) != Some("::")
            {
                if let Some(r) = item.refs.get_mut(ref_idx) {
                    r.is_pattern = spans.iter().any(|&(lo, hi)| lo <= t.start && t.start < hi);
                }
                ref_idx += 1;
            }
        }
    }

    /// If token `k` (an ident) heads a call, returns the index of its
    /// opening paren (skipping a turbofish).
    fn call_paren(&self, k: usize) -> Option<usize> {
        let text = self.text(self.toks[k]);
        if NON_CALL_KEYWORDS.contains(&text) {
            return None;
        }
        let mut n = k + 1;
        if self.peek_text(n) == Some("::") && self.peek_text(n + 1) == Some("<") {
            // Turbofish: skip `::< … >`.
            let mut depth = 0i64;
            n += 1;
            while n < self.toks.len() {
                match self.text(self.toks[n]) {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    _ => {}
                }
                n += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if self.peek_text(n) == Some("!") {
            return None; // macro invocation
        }
        (self.peek_text(n) == Some("(")).then_some(n)
    }

    /// Classifies the call headed by ident token `k`.
    fn classify_call(&self, k: usize, stmt: u32) -> Option<CallSite> {
        let t = self.toks[k];
        let name = self.text(t).to_string();
        let line = self.line_of(t.start);
        let prev = k.checked_sub(1).map(|p| self.text(self.toks[p]));
        match prev {
            Some(".") => {
                // Method call: collect the receiver ident chain.
                let mut chain = Vec::new();
                let mut p = k - 1; // the dot
                while let Some(recv_idx) = p.checked_sub(1) {
                    let recv = self.toks[recv_idx];
                    if recv.kind != TokKind::Ident {
                        chain.clear(); // expression receiver: unknown
                        break;
                    }
                    chain.push(self.text(recv).to_string());
                    match recv_idx.checked_sub(1).map(|q| self.text(self.toks[q])) {
                        Some(".") => p = recv_idx - 1,
                        _ => break,
                    }
                }
                chain.reverse();
                Some(CallSite {
                    callee: Callee::Method { chain, name },
                    line,
                    stmt,
                })
            }
            Some("::") => {
                let q = k.checked_sub(2).map(|p| self.toks[p])?;
                if q.kind != TokKind::Ident {
                    return None;
                }
                let qual = self.text(q).to_string();
                if starts_upper(&qual) {
                    Some(CallSite {
                        callee: Callee::TypeQualified { ty: qual, name },
                        line,
                        stmt,
                    })
                } else {
                    Some(CallSite {
                        callee: Callee::ModQualified { module: qual, name },
                        line,
                        stmt,
                    })
                }
            }
            _ => {
                if starts_upper(&name) {
                    // `Some(x)` / `Ok(x)`: tuple construction, not a call.
                    return None;
                }
                Some(CallSite {
                    callee: Callee::Free { name },
                    line,
                    stmt,
                })
            }
        }
    }

    /// A stable identity for the lock behind a receiver chain.
    fn lock_identity(&self, chain: &[String], item: &FnItem) -> String {
        match chain {
            [] => format!(
                "expr@{}::{}",
                item.qual.as_deref().unwrap_or("-"),
                item.name
            ),
            [one] => {
                if let Some(p) = item.params.iter().find(|p| &p.name == one) {
                    format!("type:{}", p.full)
                } else if let Some((_, ty)) = item.lets.iter().find(|(n, _)| n == one) {
                    format!("type:{ty}")
                } else if one == "self" {
                    format!("self@{}", item.qual.as_deref().unwrap_or("-"))
                } else {
                    format!(
                        "local:{}::{}::{one}",
                        item.qual.as_deref().unwrap_or("-"),
                        item.name
                    )
                }
            }
            many => {
                let field = many.last().map(String::as_str).unwrap_or("-");
                if many[0] == "self" {
                    if let Some(q) = &item.qual {
                        return format!("{q}.{field}");
                    }
                }
                format!("field:{field}")
            }
        }
    }

    /// Whether the statement containing token `k` binds the lock guard
    /// past the statement: `let g = x.lock()`, `match x.lock() { … }`,
    /// `if let Ok(g) = x.lock()`. A bare `*x.lock() = …` or
    /// `x.lock().unwrap().push(…)` is a temporary, dropped at the `;`.
    fn stmt_is_binding(&self, k: usize, body_from: usize) -> bool {
        let mut p = k;
        while p > body_from {
            let text = self.text(self.toks[p - 1]);
            if matches!(text, ";" | "{" | "}") {
                break;
            }
            p -= 1;
        }
        matches!(self.peek_text(p), Some("let" | "match" | "if" | "while"))
    }

    /// Records `let x: T = …` / `let x = T::…(…)` / `let x = T { … }`.
    fn record_let_type(&self, let_kw: usize, stop: usize, end: usize, item: &mut FnItem) {
        let mut k = let_kw + 1;
        if self.peek_text(k) == Some("mut") {
            k += 1;
        }
        let Some(name_tok) = self
            .toks
            .get(k)
            .copied()
            .filter(|t| t.kind == TokKind::Ident)
        else {
            return;
        };
        let name = self.text(name_tok).to_string();
        match self.peek_text(k + 1) {
            Some(":") => {
                let ty = self.outer_type(k + 2, stop);
                if !ty.is_empty() {
                    item.lets.push((name, ty));
                }
            }
            Some("=") if self.text(self.toks[stop]) == "=" || k + 1 == stop => {
                // `let x = Type::new(…)` or `let x = Type { … }`.
                let v = stop + 1;
                if let Some(first) = self.toks.get(v).copied() {
                    if first.kind == TokKind::Ident && starts_upper(self.text(first)) {
                        let ty = self.text(first).to_string();
                        let nxt = self.peek_text(v + 1);
                        if (nxt == Some("::") || nxt == Some("{")) && v < end {
                            item.lets.push((name, ty));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Parses the `match` at token `kw`: scrutinee, then arms.
    fn parse_match(
        &mut self,
        kw: usize,
        end: usize,
        item: &mut FnItem,
        pattern_spans: &mut Vec<(usize, usize)>,
    ) {
        let Some(open) = self.find_at_depth0(kw + 1, end, &["{"]) else {
            return;
        };
        let close = self.match_bracket(open);
        let mut arms = Vec::new();
        let mut k = open + 1;
        while k < close {
            let Some(arrow) = self.find_at_depth0(k, close, &["=>"]) else {
                break;
            };
            let pat_start = self.toks[k].start;
            let pat_end = self.toks[arrow].start;
            pattern_spans.push((pat_start, pat_end));
            let pattern = normalize(&self.masked[pat_start..pat_end]);
            let pat_line = self.line_of(pat_start);
            // Body: block or expression to the next depth-0 comma.
            let (body_start, body_end, resume) = if self.peek_text(arrow + 1) == Some("{") {
                let bclose = self.match_bracket(arrow + 1);
                (
                    self.toks[arrow + 1].start,
                    self.toks[bclose].end,
                    // An optional trailing comma after the block.
                    if self.peek_text(bclose + 1) == Some(",") {
                        bclose + 2
                    } else {
                        bclose + 1
                    },
                )
            } else {
                let comma = self
                    .find_at_depth0(arrow + 1, close, &[","])
                    .unwrap_or(close);
                let bs = self.toks.get(arrow + 1).map(|t| t.start).unwrap_or(pat_end);
                let be = self.toks.get(comma).map(|t| t.start).unwrap_or(bs);
                (bs, be, comma + 1)
            };
            arms.push(MatchArm {
                line: pat_line,
                pattern,
                body: normalize(&self.masked[body_start..body_end.min(self.masked.len())]),
            });
            k = resume;
        }
        item.matches.push(MatchFacts {
            line: self.line_of(self.toks[kw].start),
            arms,
        });
    }
}

/// Method names treated as blocking syscalls/waits when called on any
/// receiver reachable from a nonblocking region. The `mio` shim's
/// differently named wrappers (`read_fd`, `poll`) are the sanctioned
/// kernel entries and deliberately absent.
pub const BLOCKING_METHODS: &[&str] = &[
    "read",
    "read_exact",
    "read_to_end",
    "read_vectored",
    "write",
    "write_all",
    "write_vectored",
    "flush",
    "recv",
    "recv_timeout",
    "accept",
    "lock",
    "join",
    "wait",
    "wait_timeout",
    "park",
    "connect",
    "sleep",
];

/// Free/associated-function names treated as blocking.
pub const BLOCKING_FREE: &[&str] = &["connect", "sleep", "read_frame", "write_frame", "park"];

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Whether 1-based `line` falls inside one of the inclusive `spans`.
pub(crate) fn in_line_spans(line: usize, spans: &[(usize, usize)]) -> bool {
    spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// Clips file-level line spans to an item's line range.
fn clip_spans(spans: &[(usize, usize)], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    spans
        .iter()
        .filter(|&&(a, b)| b >= lo && a <= hi)
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .collect()
}

/// Parses one file into the item IR. Never panics; unparseable regions
/// simply contribute no items.
pub fn parse_file(path: &str, raw: &str) -> ParsedFile {
    let masked = mask_source(raw);
    let newlines: Vec<usize> = masked
        .bytes()
        .enumerate()
        .filter_map(|(i, b)| (b == b'\n').then_some(i))
        .collect();
    let toks = tokenize(&masked);
    let n = toks.len();
    let mut faults = Vec::new();
    let mut p = Parser {
        masked: &masked,
        toks,
        newlines,
        test_spans: test_byte_spans(&masked),
        hot_spans: fence_spans(raw, "hot-path", &mut faults),
        nonblocking_spans: fence_spans(raw, "nonblocking", &mut faults),
        out: ParsedFile {
            path: path.to_string(),
            ..ParsedFile::default()
        },
    };
    faults.retain(|f| {
        let line_start = f.line.checked_sub(2).map_or(0, |i| p.newlines[i] + 1);
        !p.in_test(line_start)
    });
    p.out.fence_faults = faults;
    p.parse_items(0, n, None);
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_carry_qual_and_test_flags() {
        let src = "
impl Foo {
    fn method_a(&self) { self.helper(); }
}
fn free_b(x: u32) -> u32 { x }
#[cfg(test)]
mod tests {
    fn test_c() {}
}
";
        let f = parse_file("demo.rs", src);
        let names: Vec<(&str, Option<&str>, bool)> = f
            .fns
            .iter()
            .map(|x| (x.name.as_str(), x.qual.as_deref(), x.in_test))
            .collect();
        assert_eq!(
            names,
            vec![
                ("method_a", Some("Foo"), false),
                ("free_b", None, false),
                ("test_c", None, true),
            ]
        );
    }

    #[test]
    fn calls_classify_by_shape() {
        let src = "
fn f(w: &mut Writer, s: &LinkState) {
    helper(1);
    proto::encode(2);
    Frame::bare(3);
    w.send(4);
    s.asm.next_frame();
    self_like().chain();
}
";
        let f = parse_file("demo.rs", src);
        let calls = &f.fns[0].calls;
        let shapes: Vec<String> = calls.iter().map(|c| format!("{:?}", c.callee)).collect();
        assert!(shapes[0].contains("Free"), "{shapes:?}");
        assert!(shapes[1].contains("ModQualified"), "{shapes:?}");
        assert!(shapes[2].contains("TypeQualified"), "{shapes:?}");
        assert!(shapes[3].contains("Method"), "{shapes:?}");
        assert!(shapes[4].contains("chain: [\"s\", \"asm\"]"), "{shapes:?}");
    }

    #[test]
    fn wire_codec_expansion_parses_variants_and_fields() {
        let src = r#"
wire_codec! {
    /// Doc.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum Demo {
        /// Unit.
        0 => Ping,
        1 => Put {
            /// Key.
            key: u32,
            value: u64,
        },
    }
}
"#;
        let f = parse_file("demo.rs", src);
        assert_eq!(f.wire_enums.len(), 1);
        let e = &f.wire_enums[0];
        assert_eq!(e.name, "Demo");
        assert_eq!(e.variants.len(), 2);
        assert_eq!(e.variants[0].name, "Ping");
        assert!(e.variants[0].fields.is_empty());
        assert_eq!(e.variants[1].name, "Put");
        assert_eq!(
            e.variants[1].fields,
            vec![
                ("key".to_string(), "u32".to_string()),
                ("value".to_string(), "u64".to_string())
            ]
        );
    }

    #[test]
    fn macro_rules_bodies_produce_no_items() {
        let src = "
macro_rules! gen {
    ($n:ident) => {
        fn $n() { bad_call(); }
    };
}
fn real() {}
";
        let f = parse_file("demo.rs", src);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "real");
    }

    #[test]
    fn variant_refs_split_pattern_from_construction() {
        let src = "
fn f(c: Ctrl) -> Ctrl {
    match c {
        Ctrl::Start => {}
        other => drop(other),
    }
    if let Ctrl::Hello { rank } = c {
        let _ = rank;
    }
    Ctrl::Shutdown
}
";
        let f = parse_file("demo.rs", src);
        let refs = &f.fns[0].refs;
        assert_eq!(refs.len(), 3, "{refs:?}");
        assert!(refs[0].is_pattern, "match arm: {refs:?}");
        assert!(refs[1].is_pattern, "if let: {refs:?}");
        assert!(!refs[2].is_pattern, "construction: {refs:?}");
    }

    #[test]
    fn match_arms_capture_pattern_and_body() {
        let src = "
fn f(c: Ctrl) -> Result<(), E> {
    match c {
        Ctrl::Start => Ok(()),
        other => Err(protocol(other)),
    }
}
";
        let f = parse_file("demo.rs", src);
        let m = &f.fns[0].matches[0];
        assert_eq!(m.arms.len(), 2);
        assert_eq!(m.arms[0].pattern, "Ctrl::Start");
        assert!(m.arms[1].pattern.contains("other"));
        assert!(m.arms[1].body.contains("Err"));
    }

    #[test]
    fn lock_sites_carry_identity_and_boundness() {
        let src = "
struct Pool { job: Mutex<u32>, running: Mutex<u32> }
impl Pool {
    fn a(&self) {
        let g = self.job.lock();
        *self.running.lock() = 1;
    }
}
fn free_lock(m: &Mutex<Writer>) {
    let w = m.lock();
    drop(w);
}
";
        let f = parse_file("demo.rs", src);
        let a = &f.fns[0].locks;
        assert_eq!(a.len(), 2, "{a:?}");
        assert_eq!(a[0].id, "Pool.job");
        assert!(a[0].bound);
        assert_eq!(a[1].id, "Pool.running");
        assert!(!a[1].bound, "temporary guard must be unbound");
        let b = &f.fns[1].locks;
        assert_eq!(b[0].id, "type:Mutex<Writer>", "{b:?}");
    }

    #[test]
    fn blocking_and_alloc_tokens_detected() {
        let src = "
fn f(s: &mut Stream, rx: &Receiver<u8>) -> Vec<u8> {
    let mut buf = [0u8; 4];
    let _ = s.read(&mut buf);
    let _ = rx.recv();
    let _ = mio::read_fd(0, &mut buf);
    buf.iter().copied().collect()
}
";
        let f = parse_file("demo.rs", src);
        let b: Vec<&str> = f.fns[0].blocking.iter().map(|t| t.token.as_str()).collect();
        assert_eq!(b, vec!["read", "recv"], "read_fd is sanctioned");
        let a: Vec<&str> = f.fns[0].allocs.iter().map(|t| t.token.as_str()).collect();
        assert_eq!(a, vec!["collect"]);
    }

    #[test]
    fn plain_pub_fns_and_mods_are_recorded() {
        let src = "
pub mod open;
mod closed;
pub(crate) mod narrow {}
pub fn a() {}
pub(crate) fn b() {}
pub const unsafe fn c() {}
fn d() {}
#[cfg(test)]
pub mod test_only {}
";
        let f = parse_file("demo.rs", src);
        let fns: Vec<(&str, bool)> = f.fns.iter().map(|x| (x.name.as_str(), x.is_pub)).collect();
        assert_eq!(
            fns,
            vec![("a", true), ("b", false), ("c", true), ("d", false)]
        );
        assert_eq!(f.pub_mods, vec![("open".to_string(), 2)]);
    }

    #[test]
    fn proto_version_const_extracted() {
        let src = "pub const PROTO_VERSION: u32 = 7;\n";
        let f = parse_file("demo.rs", src);
        assert_eq!(f.proto_version.map(|(v, _)| v), Some(7));
    }

    #[test]
    fn struct_fields_resolve_outer_types() {
        let src = "
struct LinkState {
    from: u32,
    stream: UnixStream,
    asm: FrameAssembler,
    sup: Arc<Mutex<LinkWriter<UnixStream>>>,
}
";
        let f = parse_file("demo.rs", src);
        let s = &f.structs[0];
        assert_eq!(s.name, "LinkState");
        let get = |n: &str| {
            s.fields
                .iter()
                .find(|(f, _)| f == n)
                .map(|(_, t)| t.as_str())
        };
        assert_eq!(get("asm"), Some("FrameAssembler"));
        assert_eq!(get("sup"), Some("Mutex"));
    }
}
