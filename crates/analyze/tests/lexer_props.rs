//! Property tests for the analyzer's hand-rolled lexer. Every rule sits on
//! top of this token stream, so the properties below pin down the three
//! things a shortcut lexer most often gets wrong: delimiter matching,
//! raw-string fences, and nested block comments — plus the blanket
//! guarantee that no input whatsoever can panic the scan.

use ohpc_analyze::lexer::{lex, TokKind};
use ohpc_analyze::source::SourceFile;
use proptest::prelude::*;

/// Expands a byte script into a well-formed bracket soup: each byte either
/// opens a delimiter, closes the innermost open one, or emits filler. Any
/// still-open delimiters are closed at the end, so the result is always
/// balanced by construction.
fn balanced_source(script: &[u8]) -> String {
    let mut out = String::new();
    let mut stack: Vec<char> = Vec::new();
    for &b in script {
        match b % 8 {
            0 => {
                out.push('(');
                stack.push(')');
            }
            1 => {
                out.push('[');
                stack.push(']');
            }
            2 => {
                out.push('{');
                stack.push('}');
            }
            3 | 4 => match stack.pop() {
                Some(c) => out.push(c),
                None => out.push_str("x "),
            },
            5 => out.push('\n'),
            _ => out.push_str(" ident "),
        }
    }
    while let Some(c) = stack.pop() {
        out.push(c);
    }
    out
}

fn closer_for(open: &str) -> char {
    match open {
        "(" => ')',
        "[" => ']',
        _ => '}',
    }
}

proptest! {
    /// The lexer and the whole per-file model must accept arbitrary input —
    /// including unterminated strings, lone backslashes, stray `#`s — without
    /// panicking. (`.*` mixes printable ASCII with arbitrary scalar values.)
    #[test]
    fn lex_never_panics(s in ".*") {
        let _ = lex(&s);
        let _ = lex(&format!("{s}r#")); // a raw-string opener cut off by the end of input
        let _ = SourceFile::from_source("crates/x/src/lib.rs", "x", false, &s);
    }

    /// On balanced programs, `close_of` pairs every opener with a closer of
    /// the matching kind, covers all openers, and the pairs never cross.
    #[test]
    fn close_of_is_total_matched_and_nested(
        script in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let src = balanced_source(&script);
        let f = SourceFile::from_source("crates/x/src/lib.rs", "x", false, &src);

        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (i, t) in f.tokens.iter().enumerate() {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                let j = match f.close_of.get(&i) {
                    Some(&j) => j,
                    None => return Err(TestCaseError::fail(format!(
                        "opener at token {i} ({:?}) has no close_of entry in {src:?}",
                        t.text,
                    ))),
                };
                prop_assert!(j > i, "closer {j} not after opener {i} in {:?}", src);
                prop_assert!(
                    f.tokens[j].is_punct(closer_for(&t.text)),
                    "opener {:?} at {i} closed by {:?} at {j} in {:?}",
                    t.text, f.tokens[j].text, src,
                );
                pairs.push((i, j));
            }
        }
        prop_assert_eq!(pairs.len(), f.close_of.len());

        // Proper nesting: any two pairs are either disjoint or one contains
        // the other — never interleaved like ( [ ) ].
        for (x, &(a1, b1)) in pairs.iter().enumerate() {
            for &(a2, b2) in &pairs[x + 1..] {
                if a2 < b1 {
                    prop_assert!(
                        a1 < a2 && b2 < b1,
                        "pairs ({a1},{b1}) and ({a2},{b2}) cross in {:?}", src,
                    );
                }
            }
        }
    }

    /// A raw string with any number of `#`s in its fence lexes as a single
    /// Str token, its body swallows quotes and hashes short of the fence,
    /// and line numbering resumes correctly after embedded newlines.
    #[test]
    fn raw_string_fences_and_line_numbers(
        hashes in 0usize..4,
        body in "[a-z# \n]*",
    ) {
        let fence = "#".repeat(hashes);
        let src = format!("before r{fence}\"{body}\"{fence} after");
        let (tokens, _) = lex(&src);

        prop_assert!(tokens.len() == 3, "tokens {:?} for {:?}", tokens, src);
        prop_assert!(tokens[0].is_ident("before"));
        prop_assert_eq!(tokens[1].kind, TokKind::Str);
        prop_assert_eq!(tokens[1].line, 1);
        prop_assert!(tokens[2].is_ident("after"));
        let newlines = body.matches('\n').count() as u32;
        prop_assert_eq!(tokens[2].line, 1 + newlines);
    }

    /// Unicode identifiers are legal Rust (`größe`, `λ日`): they must lex
    /// as ONE Ident token with the exact text, whether they start ASCII or
    /// not — field-access extraction keys accesses on that text.
    #[test]
    fn non_ascii_idents_lex_as_single_tokens(
        head in "[a-zäöüßλμ中日αβ_]",
        tail in "[a-z0-9äöüßλμ中日αβ_]{0,12}",
    ) {
        let ident = format!("{head}{tail}");
        // (skip the degenerate draws that collide with the scaffold's own
        // keywords — the vendored proptest has no prop_assume!)
        if !["let", "self"].contains(&ident.as_str()) {
            let src = format!("let {ident} = self.{ident};");
            let (tokens, _) = lex(&src);

            let hits =
                tokens.iter().filter(|t| t.kind == TokKind::Ident && t.text == ident).count();
            prop_assert!(hits == 2, "ident {ident:?} not lexed whole in {src:?}: {tokens:?}");
            // Exactly `let <id> = self . <id> ;` — no fragment tokens leaked.
            prop_assert!(tokens.len() == 7, "{tokens:?}");
        }
    }

    /// Rust block comments nest: `/* /* */ */` is one comment, not a
    /// comment followed by stray tokens. The body may contain `*`s and
    /// newlines; only the matched fences delimit it.
    #[test]
    fn nested_block_comments_swallow_their_body(
        depth in 1usize..6,
        pad in "[a-z* \n]*",
    ) {
        let open = "/*".repeat(depth);
        let close = "*/".repeat(depth);
        let src = format!("before {open} {pad} {close} after");
        let (tokens, comments) = lex(&src);

        prop_assert!(tokens.len() == 2, "tokens {:?} for {:?}", tokens, src);
        prop_assert!(tokens[0].is_ident("before"));
        prop_assert!(tokens[1].is_ident("after"));
        let newlines = pad.matches('\n').count() as u32;
        prop_assert_eq!(tokens[1].line, 1 + newlines);
        prop_assert!(!comments.is_empty());
        prop_assert_eq!(comments[0].line, 1);
    }
}
