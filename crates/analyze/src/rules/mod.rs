//! The rule engine: diagnostics, severities, and the driver that runs every
//! rule over the lexed workspace.

pub mod bounded_recv;
pub mod epoch_bump;
pub mod glue_balance;
pub mod guard_blocking;
pub mod lock_order;
pub mod panic_free;
pub mod shared_state;
pub mod telemetry_coverage;
pub mod transport_unwrap;
pub mod unbounded_spawn;
pub mod wire_described;

use std::time::{Duration, Instant};

use crate::graph::Workspace;
use crate::source::SourceFile;

/// Finding severity. `Deny` findings fail the run (non-zero exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported but does not fail the run.
    Warn,
    /// Fails the run.
    Deny,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// One machine-readable finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`lock-order`, `panic-freedom`, `wire-described`,
    /// `glue-balance`, `annotation`, …).
    pub rule: &'static str,
    /// Severity after any `--deny-all` promotion.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.file, self.line, self.rule, self.severity, self.message
        )
    }
}

/// Rule id for annotation hygiene findings.
pub const RULE_ANNOTATION: &str = "annotation";

/// All known rule ids, for `--rule` validation.
pub const ALL_RULES: &[&str] = &[
    lock_order::RULE,
    panic_free::RULE,
    wire_described::RULE,
    glue_balance::RULE,
    transport_unwrap::RULE,
    guard_blocking::RULE,
    bounded_recv::RULE,
    unbounded_spawn::RULE,
    telemetry_coverage::RULE,
    shared_state::RULE,
    epoch_bump::RULE,
    RULE_ANNOTATION,
];

/// Run every rule. With `deny_all`, every finding is promoted to `Deny`
/// (the CI configuration). `only` optionally restricts to a subset of rules.
pub fn run_all(files: &[SourceFile], deny_all: bool, only: &[String]) -> Vec<Diagnostic> {
    run_all_timed(files, deny_all, only).0
}

/// [`run_all`], also returning per-pass wall times so the CI self-time
/// budget can attribute blame (`--timings`).
pub fn run_all_timed(
    files: &[SourceFile],
    deny_all: bool,
    only: &[String],
) -> (Vec<Diagnostic>, Vec<(&'static str, Duration)>) {
    let mut diags = Vec::new();
    let mut timings: Vec<(&'static str, Duration)> = Vec::new();
    let want = |rule: &str| only.is_empty() || only.iter().any(|r| r == rule);
    macro_rules! pass {
        ($name:expr, $body:expr) => {{
            let t0 = Instant::now();
            let out = $body;
            timings.push(($name, t0.elapsed()));
            out
        }};
    }

    // The interprocedural rules share one symbol table / call graph.
    let ws = pass!("workspace-graph", Workspace::build(files));

    if want(lock_order::RULE) {
        pass!(lock_order::RULE, lock_order::run(files, &ws, &mut diags));
    }
    if want(panic_free::RULE) {
        pass!(panic_free::RULE, panic_free::run(files, &mut diags));
    }
    if want(wire_described::RULE) {
        pass!(wire_described::RULE, wire_described::run(files, &mut diags));
    }
    if want(glue_balance::RULE) {
        pass!(glue_balance::RULE, glue_balance::run(files, &ws, &mut diags));
    }
    if want(transport_unwrap::RULE) {
        pass!(transport_unwrap::RULE, transport_unwrap::run(files, &mut diags));
    }
    if want(guard_blocking::RULE) {
        pass!(guard_blocking::RULE, guard_blocking::run(files, &ws, &mut diags));
    }
    if want(bounded_recv::RULE) {
        pass!(bounded_recv::RULE, bounded_recv::run(files, &ws, &mut diags));
    }
    if want(unbounded_spawn::RULE) {
        pass!(unbounded_spawn::RULE, unbounded_spawn::run(files, &ws, &mut diags));
    }
    if want(telemetry_coverage::RULE) {
        pass!(telemetry_coverage::RULE, telemetry_coverage::run(files, &ws, &mut diags));
    }
    if want(shared_state::RULE) || want(epoch_bump::RULE) {
        // Field-access extraction + entry-lockset fixpoint, computed once
        // and shared by both lockset-family rules.
        let facts = pass!("field-facts", crate::dataflow::field_facts(files, &ws));
        if want(shared_state::RULE) {
            pass!(shared_state::RULE, shared_state::run(files, &ws, &facts, &mut diags));
        }
        if want(epoch_bump::RULE) {
            pass!(epoch_bump::RULE, epoch_bump::run(files, &ws, &facts, &mut diags));
        }
    }
    if want(RULE_ANNOTATION) {
        pass!(RULE_ANNOTATION, annotation_hygiene(files, only.is_empty(), &mut diags));
    }

    if deny_all {
        for d in &mut diags {
            d.severity = Severity::Deny;
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (diags, timings)
}

/// Annotation hygiene: a suppression without a reason is itself a finding —
/// the reason is the reviewable artifact, and an unexplained `allow` would
/// let findings rot silently. Malformed `ohpc-analyze:` comments likewise.
///
/// When every rule ran (`all_rules_ran`), an allow that suppressed nothing
/// is reported as stale: either the offending site was refactored away, or
/// the annotation sits on the wrong line. With a `--rule` subset the usage
/// information is incomplete, so the staleness check is skipped.
fn annotation_hygiene(files: &[SourceFile], all_rules_ran: bool, diags: &mut Vec<Diagnostic>) {
    for f in files {
        for a in &f.allows {
            if a.has_reason
                && all_rules_ran
                && !a.used.get()
                && ALL_RULES.contains(&a.rule.as_str())
            {
                diags.push(Diagnostic {
                    file: f.path.clone(),
                    line: a.line,
                    rule: RULE_ANNOTATION,
                    severity: Severity::Warn,
                    message: format!(
                        "allow({}) suppresses nothing — the finding it muzzled is gone; \
                         delete the annotation (or move it next to the site it covers)",
                        a.rule
                    ),
                });
            }
            if !a.has_reason {
                diags.push(Diagnostic {
                    file: f.path.clone(),
                    line: a.line,
                    rule: RULE_ANNOTATION,
                    severity: Severity::Deny,
                    message: format!(
                        "allow({}) annotation has no reason; write `allow({}) — <why this site is safe>`",
                        a.rule, a.rule
                    ),
                });
            }
            if !ALL_RULES.contains(&a.rule.as_str()) {
                diags.push(Diagnostic {
                    file: f.path.clone(),
                    line: a.line,
                    rule: RULE_ANNOTATION,
                    severity: Severity::Deny,
                    message: format!("allow({}) names an unknown rule", a.rule),
                });
            }
        }
        for b in &f.bad_annotations {
            diags.push(Diagnostic {
                file: f.path.clone(),
                line: b.line,
                rule: RULE_ANNOTATION,
                severity: Severity::Deny,
                message: b.what.clone(),
            });
        }
    }
}

/// Shared helper: locate `fn` items in a file. Returns
/// `(name, fn_tok_idx, body_open_idx, body_close_idx)` for every function
/// that has a body. Trait-method declarations (ending in `;`) are skipped.
pub(crate) fn fn_bodies(f: &SourceFile) -> Vec<(String, usize, usize, usize)> {
    let mut out = Vec::new();
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { continue };
        if name_tok.kind != crate::lexer::TokKind::Ident {
            continue;
        }
        // Scan forward for the body `{` (or `;` for a block-less item).
        // Skip over the parameter list so closure bodies in default argument
        // position cannot be mistaken for the fn body.
        let mut j = i + 2;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                j = f.close_of.get(&j).copied().unwrap_or(j) + 1;
                break;
            }
            j += 1;
        }
        let mut body = None;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                if let Some(&end) = f.close_of.get(&j) {
                    body = Some((j, end));
                }
                break;
            }
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        if let Some((open, close)) = body {
            out.push((name_tok.text.clone(), i, open, close));
        }
    }
    out
}
