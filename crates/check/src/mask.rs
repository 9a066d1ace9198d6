//! Source masking: the front end of the name scan.
//!
//! [`mask_source`] blanks comments and string/char/byte literals with
//! spaces while preserving byte positions and newlines, so
//! [`crate::names`]' scan can never fire on prose or literal contents,
//! and every reported line number maps straight back to the raw file.
//!
//! The masker understands the full literal surface the workspace uses:
//!
//! * line (`//`) and nested block (`/* /* */ */`) comments;
//! * plain and byte strings (`"…"`, `b"…"`) with escapes;
//! * raw and raw-byte strings with any hash depth (`r"…"`, `r#"…"#`,
//!   `r##"…"##`, `br#"…"#`);
//! * char and byte-char literals, including escaped quotes (`'\''`),
//!   `\u{…}` escapes, and multi-byte UTF-8 chars (`'é'`);
//! * lifetimes (`'a`, `'static`, `'_`), which are *kept* — a lifetime
//!   is a token, not a literal, and blanking it would split identifiers
//!   around it.
//!
//! The lifetime-vs-char-literal ambiguity is resolved the way rustc
//! lexes it: after a `'`, an escape or exactly one character followed
//! by a closing `'` is a char literal; anything else is a lifetime.

/// Blanks comments and string/char literals with spaces, preserving
/// byte positions and newlines, so token scans cannot fire inside them.
pub fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let blank = |b: u8| if b == b'\n' { b'\n' } else { b' ' };
    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied().unwrap_or(0);
        if b == b'/' && next == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                out.push(blank(bytes[i]));
                i += 1;
            }
        } else if b == b'/' && next == b'*' {
            let mut depth = 1usize;
            out.push(b' ');
            out.push(b' ');
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else {
                    out.push(blank(bytes[i]));
                    i += 1;
                }
            }
        } else if b == b'"' || (b == b'b' && next == b'"') {
            if b == b'b' {
                out.push(b' ');
                i += 1;
            }
            out.push(b' ');
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    out.push(b' ');
                    out.push(blank(bytes[i + 1]));
                    i += 2;
                } else if bytes[i] == b'"' {
                    out.push(b' ');
                    i += 1;
                    break;
                } else {
                    out.push(blank(bytes[i]));
                    i += 1;
                }
            }
        } else if (b == b'r' && (next == b'"' || next == b'#')) || (b == b'b' && next == b'r') {
            // Raw string r"…" / r#"…"# / r##"…"## (optionally preceded
            // by b for a raw byte string).
            let mut j = if b == b'b' { i + 2 } else { i + 1 };
            let mut hashes = 0;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) == Some(&b'"') {
                out.resize(out.len() + (j + 1 - i), b' ');
                i = j + 1;
                'raw: while i < bytes.len() {
                    if bytes[i] == b'"' {
                        let mut k = i + 1;
                        let mut n = 0;
                        while n < hashes && bytes.get(k) == Some(&b'#') {
                            n += 1;
                            k += 1;
                        }
                        if n == hashes {
                            out.resize(out.len() + (k - i), b' ');
                            i = k;
                            break 'raw;
                        }
                    }
                    out.push(blank(bytes[i]));
                    i += 1;
                }
            } else {
                out.push(b);
                i += 1;
            }
        } else if b == b'\'' || (b == b'b' && next == b'\'') {
            // Char / byte-char literal vs lifetime. Rustc's rule: after
            // the opening quote, an escape (`\…`) or exactly one
            // character (which may be multi-byte UTF-8) followed by a
            // closing quote is a literal; anything else is a lifetime.
            let content = if b == b'b' { i + 2 } else { i + 1 };
            let close = if bytes.get(content) == Some(&b'\\') {
                // Escaped char: the escape consumes the backslash plus
                // at least one character, so the closing quote can be
                // no earlier than content + 2 — starting the scan there
                // keeps `'\''` from closing on its own escaped quote.
                // The window covers the longest escape, `\u{10FFFF}`.
                (content + 2..bytes.len().min(content + 11)).find(|&k| bytes[k] == b'\'')
            } else {
                // One UTF-8 character: its byte length follows from the
                // leading byte, so `'é'` (2-byte é) closes at
                // content + 2 while the lifetime in `<'a, 'b>` does not
                // close at all.
                let char_len = match bytes.get(content) {
                    Some(&c) if c < 0x80 && c != b'\'' => Some(1),
                    Some(&c) if c >= 0xF0 => Some(4),
                    Some(&c) if c >= 0xE0 => Some(3),
                    Some(&c) if c >= 0xC0 => Some(2),
                    _ => None,
                };
                char_len
                    .map(|len| content + len)
                    .filter(|&k| bytes.get(k) == Some(&b'\''))
            };
            if let Some(end) = close {
                for &c in &bytes[i..=end] {
                    out.push(blank(c));
                }
                i = end + 1;
            } else {
                // A lifetime (or the `b` of something that is not a
                // byte-char after all): keep the byte, move on.
                out.push(b);
                i += 1;
            }
        } else {
            out.push(b);
            i += 1;
        }
    }
    // Masking only substitutes ASCII spaces for non-newline bytes.
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Masking must never change length or newline positions.
    fn check_shape(src: &str) -> String {
        let m = mask_source(src);
        assert_eq!(m.len(), src.len(), "byte length preserved for {src:?}");
        for (a, b) in src.bytes().zip(m.bytes()) {
            assert_eq!(a == b'\n', b == b'\n', "newlines preserved for {src:?}");
        }
        m
    }

    #[test]
    fn comments_and_plain_strings_blank() {
        let m = check_shape("let x = \"panic!\"; // .unwrap()\n/* .expect( */ let y = 1;\n");
        assert!(!m.contains("panic!"));
        assert!(!m.contains(".unwrap()"));
        assert!(!m.contains(".expect("));
        assert!(m.contains("let x ="));
        assert!(m.contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_with_hashes_blank_including_inner_quotes() {
        // `"#` inside an r##"…"## body must not close the literal.
        let m = check_shape("let s = r##\"inner \"# quote .unwrap()\"##; f();\n");
        assert!(!m.contains("unwrap"), "{m}");
        assert!(m.contains("f();"));
        let m = check_shape("let s = r#\"panic! here\"#; g();\n");
        assert!(!m.contains("panic!"), "{m}");
        assert!(m.contains("g();"));
    }

    #[test]
    fn byte_strings_and_raw_byte_strings_blank() {
        let m = check_shape("let a = b\"panic!\"; let b = br#\".unwrap()\"#; h();\n");
        assert!(!m.contains("panic!"), "{m}");
        assert!(!m.contains("unwrap"), "{m}");
        assert!(m.contains("h();"));
    }

    #[test]
    fn escaped_quote_char_literal_closes_on_the_real_quote() {
        // Regression: `'\''` used to "close" on its own escaped quote,
        // leaving a stray `'` that could seed a bogus literal.
        let src = "let c = '\\''; let s = \"x\"; q();\n";
        let m = check_shape(src);
        assert!(m.contains("q();"));
        // Everything between the let and the `;` is blanked; no stray
        // quote survives.
        assert!(!m.contains('\''), "stray quote in {m:?}");
    }

    #[test]
    fn multibyte_char_literal_is_masked_not_mistaken_for_lifetime() {
        // Regression: `'é'` (2-byte UTF-8) was lexed as a lifetime,
        // leaving its closing quote to corrupt later masking.
        let src = "let c = 'é'; let d = '\u{1F600}'; r();\n";
        let m = check_shape(src);
        assert!(m.contains("r();"));
        assert!(!m.contains('\''), "char literals fully blanked: {m:?}");
    }

    #[test]
    fn lifetimes_survive_masking() {
        let src = "fn f<'a, 'b>(x: &'a str, y: &'b str, z: &'_ u8) -> &'static str { x }\n";
        let m = check_shape(src);
        // Lifetimes are tokens, not literals: they must be untouched so
        // the surrounding generics still parse.
        assert_eq!(m, src);
    }

    #[test]
    fn unicode_escape_char_literals_blank() {
        for lit in [
            "'\\u{41}'",
            "'\\u{1F600}'",
            "'\\u{10FFFF}'",
            "'\\n'",
            "'\\\\'",
        ] {
            let src = format!("let c = {lit}; s();\n");
            let m = check_shape(&src);
            assert!(m.contains("s();"), "{lit}: {m:?}");
            assert!(!m.contains('\''), "{lit} fully blanked: {m:?}");
        }
    }

    #[test]
    fn ambiguous_lifetime_pair_is_not_a_char_literal() {
        // `<'a, 'b>`: the `'a, '` span must not be read as a literal.
        let src = "struct S<'a, 'b> { x: &'a u8, y: &'b u8 }\n";
        let m = check_shape(src);
        assert_eq!(m, src);
    }

    #[test]
    fn byte_char_literals_blank() {
        let m = check_shape("let a = b'x'; let q = b'\\''; t();\n");
        assert!(m.contains("t();"));
        assert!(!m.contains('\''), "{m:?}");
    }
}
