//! The rule engine: diagnostics and the driver that runs every rule over
//! the lexed workspace. Every finding fails the run; a site that is safe is
//! suppressed with `// ohpc-analyze: allow(<rule>) — <reason>`.

pub mod bounded_recv;
pub mod unbounded_spawn;
pub mod wire_described;

use crate::source::{fn_spans, SourceFile};

/// One machine-readable finding. Every finding fails the run.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`wire-described`, `bounded-recv`, `annotation`, …).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Rule id for annotation hygiene findings.
pub const RULE_ANNOTATION: &str = "annotation";

/// All known rule ids, for `allow(...)` and `//~` marker validation.
pub const ALL_RULES: &[&str] = &[
    wire_described::RULE,
    bounded_recv::RULE,
    unbounded_spawn::RULE,
    RULE_ANNOTATION,
];

/// Run every rule; findings sorted by file, line and rule.
pub fn run_all(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    wire_described::run(files, &mut diags);
    bounded_recv::run(files, &mut diags);
    unbounded_spawn::run(files, &mut diags);
    annotation_hygiene(files, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags
}

/// Annotation hygiene: a suppression without a reason is itself a finding —
/// the reason is the reviewable artifact, and an unexplained `allow` would
/// let findings rot silently. Malformed `ohpc-analyze:` comments likewise.
///
/// An allow that suppressed nothing is reported as stale: either the
/// offending site was refactored away, or the annotation sits on the wrong
/// line.
fn annotation_hygiene(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    for f in files {
        let finding = |line, message| {
            Diagnostic { file: f.path.clone(), line, rule: RULE_ANNOTATION, message }
        };
        for a in &f.allows {
            let r = &a.rule;
            let message = if !ALL_RULES.contains(&r.as_str()) {
                format!("allow({r}) names an unknown rule")
            } else if !a.has_reason {
                format!(
                    "allow({r}) annotation has no reason; \
                     write `allow({r}) — <why this site is safe>`"
                )
            } else if !a.used.get() {
                format!(
                    "allow({r}) suppresses nothing — the finding it muzzled is gone; \
                     delete the annotation (or move it next to the site it covers)"
                )
            } else {
                continue;
            };
            diags.push(finding(a.line, message));
        }
        for b in &f.bad_annotations {
            diags.push(finding(b.line, b.what.clone()));
        }
    }
}

/// Crates whose serving code the token rules (`bounded-recv`,
/// `unbounded-spawn`) read: the ORB, the transports and the Nexus baseline.
const SERVING_CRATES: &[&str] = &["ohpc-orb", "ohpc-transport", "ohpc-nexus"];

/// Runs a token rule over the serving crates' non-test code. Every token
/// where `hit(file, i)` holds is a finding unless its innermost enclosing fn
/// is in `exempt` — `(impl type, fn name)`, an empty type matching any — or
/// an allow annotation covers it. No call graph: the enclosing fn is all a
/// token rule knows; `message` is given its name.
pub(crate) fn token_rule(
    files: &[SourceFile],
    rule: &'static str,
    hit: impl Fn(&SourceFile, usize) -> bool,
    exempt: &[(&str, &str)],
    message: impl Fn(&str) -> String,
    diags: &mut Vec<Diagnostic>,
) {
    for f in files {
        if f.in_tests_dir || !SERVING_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let fns = fn_spans(f);
        for i in 0..f.tokens.len() {
            if !hit(f, i) || f.is_test_tok(i) || f.in_macro_def(i) {
                continue;
            }
            let within =
                fns.iter().filter(|fi| fi.open < i && i < fi.close).max_by_key(|fi| fi.open);
            let exempted = within.is_some_and(|fi| {
                exempt.iter().any(|&(ty, name)| {
                    fi.name == name && (ty.is_empty() || fi.impl_type.as_deref() == Some(ty))
                })
            });
            let line = f.tokens[i].line;
            if exempted || f.allowed(rule, line) {
                continue;
            }
            let name = within.map_or("<item>", |fi| fi.name.as_str());
            diags.push(Diagnostic { file: f.path.clone(), line, rule, message: message(name) });
        }
    }
}
