//! A small Rust lexer: just enough to drive the analysis rules.
//!
//! We cannot use `syn` — the build environment has no crates.io access and
//! the workspace policy is "no new external dependencies" — so the rules run
//! on a token stream instead of an AST. That is sufficient: every rule in
//! this tool is defined over token patterns (`.lock()` receivers, `impl X
//! for Y` headers, `_ =>` arms), and a token stream, unlike a regex over raw
//! text, is already free of comment and string-literal noise.
//!
//! The lexer keeps line numbers on every token and collects comments
//! separately so the rules can resolve `// ohpc-analyze: allow(...)`
//! annotations.

/// Token classes. Punctuation is one token per character (`::` is two `:`
/// tokens); the rules match multi-character operators explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_`).
    Ident,
    /// Single punctuation character.
    Punct,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    /// What class of token this is.
    pub kind: TokKind,
    /// The token text. For strings/chars this is the raw literal content
    /// *without* quotes (rules never need it, but it aids debugging).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for a punctuation token with exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A comment collected during lexing (both `//` and `/* */`, including doc
/// comments). `text` excludes the comment markers of line comments but keeps
/// block-comment bodies verbatim.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body.
    pub text: String,
}

/// Lex `src` into tokens plus the comment side-channel.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    // Count newlines in bytes[a..b); returns the increment.
    let newlines = |a: usize, b: usize| -> u32 {
        bytes[a..b].iter().filter(|&&c| c == b'\n').count() as u32
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i + 2;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    text: src[start..i].to_string(),
                });
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                // Nested block comments, per the Rust grammar.
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                comments.push(Comment {
                    line,
                    text: src[start..i].to_string(),
                });
                line += newlines(start, i);
            }
            '"' => {
                let (end, nl) = scan_string(bytes, i, false);
                // Strip the quotes; an unterminated string runs to EOF, whose
                // last byte may sit mid-character — back up to a boundary.
                let mut hi = end.saturating_sub(1).max(i + 1);
                while !src.is_char_boundary(hi) {
                    hi -= 1;
                }
                toks.push(Token {
                    kind: TokKind::Str,
                    text: src[i + 1..hi].to_string(),
                    line,
                });
                line += nl;
                i = end;
            }
            '\'' => {
                // Lifetime/label vs char literal: a lifetime is `'` followed
                // by an ident run *not* closed by another `'`.
                let mut j = i + 1;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let ident_run = j > i + 1;
                if ident_run && (j >= bytes.len() || bytes[j] != b'\'') {
                    toks.push(Token {
                        kind: TokKind::Lifetime,
                        text: src[i + 1..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    let end = scan_char(bytes, i);
                    toks.push(Token {
                        kind: TokKind::Char,
                        text: src[i..end].to_string(),
                        line,
                    });
                    line += newlines(i, end);
                    i = end;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                // Char-wise so Unicode identifiers (`größe`, `λx`) stay one
                // token; `is_alphanumeric` approximates XID_Continue.
                while let Some(ch) = src[i..].chars().next() {
                    if ch.is_alphanumeric() || ch == '_' {
                        i += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                let word = &src[start..i];
                // String-literal prefixes: r"", r#""#, b"", br"", b''.
                let next = bytes.get(i).copied();
                match (word, next) {
                    ("r" | "b" | "br" | "rb", Some(b'"')) => {
                        let (end, nl) = scan_string(bytes, i, word.contains('r'));
                        toks.push(Token {
                            kind: TokKind::Str,
                            text: src[start..end].to_string(),
                            line,
                        });
                        line += nl;
                        i = end;
                    }
                    ("r" | "br", Some(b'#')) => {
                        let (end, nl) = scan_raw_string(bytes, i);
                        toks.push(Token {
                            kind: TokKind::Str,
                            text: src[start..end].to_string(),
                            line,
                        });
                        line += nl;
                        i = end;
                    }
                    ("b", Some(b'\'')) => {
                        let end = scan_char(bytes, i);
                        toks.push(Token {
                            kind: TokKind::Char,
                            text: src[start..end].to_string(),
                            line,
                        });
                        i = end;
                    }
                    _ => toks.push(Token {
                        kind: TokKind::Ident,
                        text: word.to_string(),
                        line,
                    }),
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        i += 1;
                    } else if d == '.'
                        && i + 1 < bytes.len()
                        && (bytes[i + 1] as char).is_ascii_digit()
                        && bytes[i - 1] != b'.'
                    {
                        // Float like `1.5`; stops short of ranges like `0..8`.
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Token {
                    kind: TokKind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii() => {
                toks.push(Token {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
            _ => {
                // Non-ASCII in code position: decode the real character. A
                // letter starts a Unicode identifier (legal Rust); anything
                // else is skipped whole, never slicing mid-character.
                match src.get(i..).and_then(|s| s.chars().next()) {
                    Some(ch) if ch.is_alphabetic() => {
                        let start = i;
                        while let Some(c2) = src[i..].chars().next() {
                            if c2.is_alphanumeric() || c2 == '_' {
                                i += c2.len_utf8();
                            } else {
                                break;
                            }
                        }
                        toks.push(Token {
                            kind: TokKind::Ident,
                            text: src[start..i].to_string(),
                            line,
                        });
                    }
                    Some(ch) => i += ch.len_utf8(),
                    None => i += 1,
                }
            }
        }
    }
    (toks, comments)
}

/// Scan a `"…"` string with `i` at the opening quote. In `raw` mode a
/// backslash has no escaping power. Returns (index past the closing quote,
/// newline count inside).
fn scan_string(bytes: &[u8], mut i: usize, raw: bool) -> (usize, u32) {
    i += 1; // opening quote
    let mut nl = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            // Clamp: a trailing backslash must not step past the end.
            b'\\' if !raw => i = (i + 2).min(bytes.len()),
            b'"' => {
                i += 1;
                break;
            }
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (i, nl)
}

/// Scan `r#"…"#`-style raw strings with any number of `#`s, starting at the
/// `r`/`b` prefix. Returns (index past the trailing hashes, newline count).
fn scan_raw_string(bytes: &[u8], mut i: usize) -> (usize, u32) {
    while i < bytes.len() && bytes[i] != b'#' {
        i += 1;
    }
    let mut hashes = 0usize;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    let mut nl = 0u32;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            nl += 1;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < bytes.len() && bytes[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return (j, nl);
            }
        }
        i += 1;
    }
    (i.min(bytes.len()), nl)
}

/// Scan a char/byte literal starting at the opening `'` (or `b` prefix).
/// Returns the index past the closing quote.
fn scan_char(bytes: &[u8], mut i: usize) -> usize {
    if bytes[i] == b'b' {
        i += 1;
    }
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i = (i + 2).min(bytes.len()),
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_produce_tokens() {
        let src = r##"
            // self.lock.unwrap() in a comment
            /* nested /* block */ .expect( */
            let s = "call .unwrap() here";
            let r = r#"panic!("x")"#;
            real_ident
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"expect".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"x\ny\nz\";\nmarker";
        let (toks, _) = lex(src);
        let m = toks.iter().find(|t| t.is_ident("marker")).unwrap();
        assert_eq!(m.line, 4);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let (toks, _) = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(toks.iter().all(|t| t.kind != TokKind::Char));
    }

    #[test]
    fn char_literals_including_quote_escape() {
        let (toks, _) = lex(r"let c = '\''; let d = 'x'; after");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert!(toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let src = "a\n// ohpc-analyze: allow(panic-freedom) — reason\nb";
        let (_, comments) = lex(src);
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].line, 2);
        assert!(comments[0].text.contains("ohpc-analyze"));
    }

    #[test]
    fn numbers_and_ranges() {
        let (toks, _) = lex("0..8 1.5 0xff_u32");
        let nums: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Num).collect();
        assert_eq!(nums.len(), 4); // 0, 8, 1.5, 0xff_u32
        assert!(nums.iter().any(|t| t.text == "1.5"));
    }
}
