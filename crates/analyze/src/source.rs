//! Source model: lexed workspace files plus the region and annotation
//! metadata the rules share (test regions, `macro_rules!` bodies, brace
//! matching, `// ohpc-analyze: allow(...)` annotations).

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use crate::lexer::{lex, Comment, TokKind, Token};

/// Marker prefix for suppression annotations.
pub const ANNOTATION: &str = "ohpc-analyze:";

/// A parsed suppression annotation:
/// `// ohpc-analyze: allow(<rule>) — <reason>`.
///
/// The annotation suppresses findings of `<rule>` on its own line and on the
/// line directly below it, so it can trail a statement or sit above one.
/// Annotations without a reason are themselves reported (the reason is the
/// reviewable artifact; a bare `allow` is just a muzzle).
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line of the comment.
    pub line: u32,
    /// The code line this annotation covers: its own line (trailing
    /// comments), or the first token-bearing line after the comment block —
    /// so a multi-line reason still lands on the statement below it.
    pub covers: u32,
    /// The rule id inside `allow(...)`.
    pub rule: String,
    /// Whether a non-empty reason follows the `allow(...)`.
    pub has_reason: bool,
    /// Set when the annotation actually suppressed a finding during a run;
    /// an allow that suppresses nothing is stale and itself reported.
    pub used: std::cell::Cell<bool>,
}

/// A malformed `ohpc-analyze:` comment (not `allow(<rule>)` shaped).
#[derive(Debug, Clone)]
pub struct BadAnnotation {
    /// 1-based line of the comment.
    pub line: u32,
    /// Description of what is wrong.
    pub what: String,
}

/// One lexed workspace file plus derived metadata.
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/orb/src/glue.rs`.
    pub path: String,
    /// Cargo package name, e.g. `ohpc-orb`.
    pub crate_name: String,
    /// True for files under `tests/`, `benches/` or `examples/` (integration
    /// test code — exempt from the src-only rules).
    pub in_tests_dir: bool,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Token ranges (inclusive start, inclusive end) of `#[cfg(test)]` /
    /// `#[test]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Token ranges of `macro_rules!` bodies. Rules skip these: the token
    /// patterns inside are templates, not code.
    pub macro_ranges: Vec<(usize, usize)>,
    /// Parsed suppression annotations.
    pub allows: Vec<Allow>,
    /// Malformed `ohpc-analyze:` comments.
    pub bad_annotations: Vec<BadAnnotation>,
    /// For every opening `(`/`[`/`{` token index, the index of its match.
    pub close_of: HashMap<usize, usize>,
}

impl SourceFile {
    /// Lex and index one file. `path` is only a label; `src` is the content.
    pub fn from_source(path: &str, crate_name: &str, in_tests_dir: bool, src: &str) -> Self {
        let (tokens, comments) = lex(src);
        let close_of = match_brackets(&tokens);
        let test_ranges = find_attr_ranges(&tokens, &close_of);
        let macro_ranges = find_macro_ranges(&tokens, &close_of);
        let (mut allows, bad_annotations) = parse_annotations(&comments);
        // A multi-line annotation comment covers the first code line below
        // the whole block, not the next comment line.
        for a in &mut allows {
            if let Some(t) = tokens.iter().find(|t| t.line > a.line) {
                a.covers = t.line;
            }
        }
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            in_tests_dir,
            tokens,
            test_ranges,
            macro_ranges,
            allows,
            bad_annotations,
            close_of,
        }
    }

    /// True when token `i` falls in a `#[cfg(test)]`/`#[test]` region.
    pub fn is_test_tok(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// True when token `i` falls inside a `macro_rules!` body.
    pub fn in_macro_def(&self, i: usize) -> bool {
        self.macro_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// True when a well-formed allow annotation for `rule` covers `line`.
    /// Marks the matching annotation as used (it suppressed something).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.has_reason && a.rule == rule && (a.line == line || a.covers == line) {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }
}

/// Compute the matching close index for every open bracket token.
fn match_brackets(tokens: &[Token]) -> HashMap<usize, usize> {
    let mut stack: Vec<usize> = Vec::new();
    let mut map = HashMap::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => stack.push(i),
            ")" | "]" | "}" => {
                if let Some(open) = stack.pop() {
                    map.insert(open, i);
                }
            }
            _ => {}
        }
    }
    map
}

/// Find token ranges covered by `#[cfg(test)]` or `#[test]` attributes: the
/// attribute itself through the end of the item's `{…}` block (or its `;`).
fn find_attr_ranges(tokens: &[Token], close_of: &HashMap<usize, usize>) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let Some(&attr_end) = close_of.get(&(i + 1)) else {
            i += 1;
            continue;
        };
        let body: Vec<&str> = tokens[i + 2..attr_end].iter().map(|t| t.text.as_str()).collect();
        let is_test_attr = body == ["test"] || body == ["cfg", "(", "test", ")"];
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // The item runs to the matching `}` of its first block, or to a `;`
        // for block-less items. Skip over any further attributes first.
        let mut j = attr_end + 1;
        let mut end = attr_end;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                end = close_of.get(&j).copied().unwrap_or(tokens.len() - 1);
                break;
            }
            if tokens[j].is_punct(';') {
                end = j;
                break;
            }
            j += 1;
        }
        ranges.push((i, end));
        i = end + 1;
    }
    ranges
}

/// Find token ranges of `macro_rules! name { … }` bodies.
fn find_macro_ranges(tokens: &[Token], close_of: &HashMap<usize, usize>) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("macro_rules") {
            continue;
        }
        // macro_rules ! name {
        let Some(open) = tokens[i..].iter().position(|t| t.is_punct('{')).map(|p| p + i) else {
            continue;
        };
        if open > i + 4 {
            continue; // `{` too far away to be this macro's body
        }
        if let Some(&end) = close_of.get(&open) {
            ranges.push((i, end));
        }
    }
    ranges
}

/// Parse `ohpc-analyze:` comments into allows and malformed reports.
fn parse_annotations(comments: &[Comment]) -> (Vec<Allow>, Vec<BadAnnotation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Only comments that *begin* with the marker are annotations; prose
        // that merely mentions `ohpc-analyze:` (like this crate's own docs)
        // is not. Leading doc-comment punctuation is stripped first.
        let lead = c
            .text
            .trim_start_matches(['/', '!', '*'])
            .trim_start();
        let Some(rest) = lead.strip_prefix(ANNOTATION) else { continue };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            bad.push(BadAnnotation {
                line: c.line,
                what: format!("expected `allow(<rule>)` after `{ANNOTATION}`"),
            });
            continue;
        };
        let Some(close) = args.find(')') else {
            bad.push(BadAnnotation {
                line: c.line,
                what: "unclosed `allow(` in annotation".to_string(),
            });
            continue;
        };
        let rule = args[..close].trim().to_string();
        // The reason follows the `)`, conventionally after an em dash.
        let reason = args[close + 1..]
            .trim_start_matches(|ch: char| {
                ch.is_whitespace() || ch == '—' || ch == '–' || ch == '-' || ch == ':'
            })
            .trim();
        allows.push(Allow {
            line: c.line,
            covers: c.line + 1, // refined against the token stream by the caller
            rule,
            has_reason: !reason.is_empty(),
            used: std::cell::Cell::new(false),
        });
    }
    (allows, bad)
}

/// Parses an `impl` header at token `i` (the `impl` ident): the index of the
/// body's `{`, the self type and, for `impl Trait for Type`, the trait — each
/// the last path ident before its generics (so `crate::` prefixes drop out).
pub fn parse_impl_header(
    f: &SourceFile,
    i: usize,
) -> Option<(usize, Option<String>, Option<String>)> {
    let toks = &f.tokens;
    let mut j = i + 1;
    // Skip `<…>` generic params, counting angles but not `->`.
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 1i32;
        j += 1;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') && !toks[j - 1].is_punct('-') {
                depth -= 1;
            }
            j += 1;
        }
    }
    // Collect path idents until `for`, `where` or `{`; angle-depth 0 only.
    let (mut first_ty, mut second_ty, mut saw_for, mut depth) = (None, None, false, 0i32);
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') && depth <= 0 {
            let (self_ty, trait_ty) =
                if saw_for { (second_ty, first_ty) } else { (first_ty, None) };
            return Some((j, self_ty, trait_ty));
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
            depth -= 1;
        } else if depth <= 0 && t.is_ident("for") {
            saw_for = true;
        } else if depth <= 0
            && t.kind == TokKind::Ident
            && !matches!(
                t.text.as_str(),
                "dyn" | "mut" | "where" | "Send" | "Sync" | "Sized" | "Unpin" | "static"
            )
        {
            let slot = if saw_for { &mut second_ty } else { &mut first_ty };
            *slot = Some(t.text.clone());
        }
        if t.is_punct(';') {
            return None;
        }
        j += 1;
    }
    None
}

/// A fn with a body: the self type of the `impl` it is in, its name, and the
/// token indices of its body's braces.
pub struct FnSpan {
    pub impl_type: Option<String>,
    pub name: String,
    pub open: usize,
    pub close: usize,
}

/// Every fn with a body in `f`, nested ones included.
pub fn fn_spans(f: &SourceFile) -> Vec<FnSpan> {
    let toks = &f.tokens;
    // The first of `stops` at or after `from`, if it is `want`.
    let next = |from: usize, want: char, stops: &[char]| {
        let k = from + toks.get(from..)?.iter().position(|t| stops.iter().any(|&c| t.is_punct(c)))?;
        toks[k].is_punct(want).then_some(k)
    };
    let mut impls: Vec<(usize, Option<String>)> = Vec::new(); // (body close, self type)
    let mut out = Vec::new();
    for i in 0..toks.len() {
        impls.retain(|&(close, _)| i < close);
        if toks[i].is_ident("impl") {
            if let Some((open, self_ty, _)) = parse_impl_header(f, i) {
                impls.extend(f.close_of.get(&open).map(|&close| (close, self_ty)));
            }
            continue;
        }
        let is_fn = |n: &&Token| toks[i].is_ident("fn") && n.kind == TokKind::Ident;
        let Some(name) = toks.get(i + 1).filter(is_fn) else { continue };
        // The parameters, then the body: a `;` first means a declaration.
        let body = next(i + 2, '(', &['(', '{', ';'])
            .and_then(|params| f.close_of.get(&params))
            .and_then(|&params_end| next(params_end + 1, '{', &['{', ';']));
        let Some((open, &close)) = body.and_then(|open| Some((open, f.close_of.get(&open)?))) else {
            continue;
        };
        let impl_type = impls.last().and_then(|(_, ty)| ty.clone());
        out.push(FnSpan { impl_type, name: name.text.clone(), open, close });
    }
    out
}

/// Walk the workspace rooted at `root` and lex every first-party crate.
/// `third_party/` (offline dependency stand-ins) and `target/` are skipped.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let mut crate_dirs: Vec<std::path::PathBuf> = Vec::new();
    for member_parent in ["crates", "apps"] {
        let dir = root.join(member_parent);
        if member_parent == "apps" && dir.join("Cargo.toml").exists() {
            crate_dirs.push(dir);
            continue;
        }
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.join("Cargo.toml").exists() {
                crate_dirs.push(p);
            }
        }
    }
    if crate_dirs.is_empty() {
        return Err(format!("no workspace crates found under {}", root.display()));
    }
    crate_dirs.sort();

    for dir in crate_dirs {
        let manifest = fs::read_to_string(dir.join("Cargo.toml"))
            .map_err(|e| format!("{}: {e}", dir.join("Cargo.toml").display()))?;
        let crate_name = manifest
            .lines()
            .find_map(|l| {
                let l = l.trim();
                l.strip_prefix("name")
                    .map(|r| r.trim_start_matches(['=', ' ', '\t']).trim_matches('"').to_string())
            })
            .ok_or_else(|| format!("{}: no package name", dir.display()))?;
        for (sub, is_tests) in [("src", false), ("tests", true), ("benches", true), ("examples", true)] {
            collect_rs(&dir.join(sub), root, &crate_name, is_tests, &mut files)?;
        }
    }
    Ok(files)
}

/// Recursively lex `.rs` files under `dir` into `out`.
fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    in_tests_dir: bool,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let Ok(entries) = fs::read_dir(dir) else { return Ok(()) };
    let mut paths: Vec<std::path::PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, root, crate_name, in_tests_dir, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            let src = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let rel = p.strip_prefix(root).unwrap_or(&p).display().to_string();
            out.push(SourceFile::from_source(&rel, crate_name, in_tests_dir, &src));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_a_test_range() {
        let src = r#"
            fn real() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); }
            }
        "#;
        let f = SourceFile::from_source("a.rs", "c", false, src);
        let unwrap_idx = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        let real_idx = f.tokens.iter().position(|t| t.is_ident("real")).unwrap();
        assert!(f.is_test_tok(unwrap_idx));
        assert!(!f.is_test_tok(real_idx));
    }

    #[test]
    fn macro_rules_bodies_are_excluded() {
        let src = "macro_rules! m { ($x:expr) => { $x.unwrap() }; }\nfn after() {}";
        let f = SourceFile::from_source("a.rs", "c", false, src);
        let unwrap_idx = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        let after_idx = f.tokens.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(f.in_macro_def(unwrap_idx));
        assert!(!f.in_macro_def(after_idx));
    }

    #[test]
    fn allow_annotation_with_reason_suppresses_same_and_next_line() {
        let src = "// ohpc-analyze: allow(bounded-recv) — drained after close\nrx.recv();";
        let f = SourceFile::from_source("a.rs", "c", false, src);
        assert!(f.allowed("bounded-recv", 1));
        assert!(f.allowed("bounded-recv", 2));
        assert!(!f.allowed("bounded-recv", 3));
        assert!(!f.allowed("unbounded-spawn", 2));
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let src = "rx.recv(); // ohpc-analyze: allow(bounded-recv)";
        let f = SourceFile::from_source("a.rs", "c", false, src);
        assert!(!f.allowed("bounded-recv", 1));
        assert_eq!(f.allows.len(), 1);
        assert!(!f.allows[0].has_reason);
    }

    #[test]
    fn malformed_annotation_is_reported() {
        let src = "// ohpc-analyze: silence everything please";
        let f = SourceFile::from_source("a.rs", "c", false, src);
        assert_eq!(f.bad_annotations.len(), 1);
    }

    #[test]
    fn hyphen_reason_accepted() {
        let src = "// ohpc-analyze: allow(wire-described) -- decoder of a foreign format\nimpl X {}";
        let f = SourceFile::from_source("a.rs", "c", false, src);
        assert!(f.allowed("wire-described", 2));
    }
}
