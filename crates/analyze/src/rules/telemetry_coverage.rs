//! Rule `telemetry-coverage`: error-return paths in the request-path crates
//! must be observable.
//!
//! PR 2's introspection story only works if failures actually reach a
//! counter: an error that is constructed, propagated and swallowed without
//! ever touching `ohpc-telemetry` is invisible to the self-hosted metrics
//! object and to every dashboard built on it. For each error-returning
//! function in `ohpc-orb` / `ohpc-transport` / `ohpc-resilience`, some
//! function on its call path must touch telemetry:
//!
//! * *downward*: the fn (or a resolved callee, to a fixpoint) calls a
//!   telemetry sink — `ohpc_telemetry::…`/`telem::…`, the transport
//!   `track_send`/`track_recv` funnels, or the health-registry recorders
//!   (whose breaker transitions are telemetry'd);
//! * *upward*: some resolved caller is covered — the caller owning the
//!   counter covers its helpers (`exchange` counts for the framing helpers
//!   under it).
//!
//! Functions invisible to both directions (typically `dyn`-dispatched
//! entry points) are covered downward through their own callees, which is
//! why the downward pass runs first.
//!
//! Since the causal-tracing PR a counter alone is no longer the whole
//! story: a failure that bumps a counter but runs outside every trace span
//! is invisible to the *flight recorder* — the dump shows a healthy trace
//! with a hole where the error happened. So the same bidirectional
//! reachability is computed a second time against the **span sinks**
//! (`trace_span`/`trace_span_with`/`trace_event`, and the transport/health
//! funnels, which open trace events themselves): an error-returning fn that
//! is counter-covered but not span-covered gets its own finding.

use crate::graph::{Recv, Workspace};
use crate::rules::Diagnostic;
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "telemetry-coverage";

/// Crates whose error paths must be observable.
const TARGET_CRATES: &[&str] = &["ohpc-orb", "ohpc-transport", "ohpc-resilience"];

/// Method/function names that are telemetry sinks wherever they resolve.
const SINK_NAMES: &[&str] =
    &["track_send", "track_recv", "record_failure", "record_success", "record_transition"];

/// Calls that put their caller inside an active trace-span scope. The
/// transport funnels and the breaker-transition recorder emit trace events
/// from their own bodies, so they count as span sinks by name too (method
/// calls on `dyn` receivers do not always resolve to their definitions).
const SPAN_SINK_NAMES: &[&str] = &[
    "trace_span",
    "trace_span_with",
    "trace_event",
    "install",
    "track_send",
    "track_recv",
    "record_transition",
];

/// Trait-impl method names that never need coverage (formatting, glue).
const EXEMPT_FNS: &[&str] = &["fmt", "clone", "drop", "default", "eq", "cmp", "hash", "main"];

/// Seeds a coverage vector with `is_sink` hits, then saturates it down the
/// resolved callee edges and up the resolved caller edges (in that order —
/// `dyn`-dispatched entry points are only reachable downward).
fn reach(ws: &Workspace, is_sink: impl Fn(usize) -> bool) -> Vec<bool> {
    let n = ws.fns.len();
    let mut covered: Vec<bool> = (0..n).map(&is_sink).collect();

    // Downward fixpoint: a fn whose resolved callee is covered is covered.
    loop {
        let mut changed = false;
        for id in 0..n {
            if !covered[id] && ws.callees[id].iter().any(|&t| covered[t]) {
                covered[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Upward fixpoint: a fn with a covered resolved caller is covered.
    loop {
        let mut changed = false;
        for id in 0..n {
            if !covered[id] && ws.callers[id].iter().any(|&t| covered[t]) {
                covered[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    covered
}

/// Entry point.
pub fn run(files: &[SourceFile], ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let n = ws.fns.len();

    // Counter coverage: any touch of the telemetry crate or a metric funnel.
    let covered = reach(ws, |id| {
        ws.calls[id].iter().any(|c| {
            if SINK_NAMES.contains(&c.name.as_str()) {
                return true;
            }
            match &c.recv {
                Recv::Path(segs) => {
                    segs.iter().any(|s| s == "ohpc_telemetry" || s == "telem")
                }
                _ => false,
            }
        })
    });

    // Span coverage: something on the call path opens a trace span scope
    // (or is a funnel that records trace events itself).
    let span_covered = reach(ws, |id| {
        ws.calls[id].iter().any(|c| SPAN_SINK_NAMES.contains(&c.name.as_str()))
    });

    for id in 0..n {
        let fi = &ws.fns[id];
        if (covered[id] && span_covered[id])
            || fi.is_test
            || !TARGET_CRATES.contains(&fi.crate_name.as_str())
            || EXEMPT_FNS.contains(&fi.name.as_str())
        {
            continue;
        }
        let f = &files[fi.file];
        // Error-returning: `-> Result<…>` signature and an `Err` in the body.
        let sig_result = f.tokens[fi.fn_tok..fi.open].iter().any(|t| t.is_ident("Result"));
        let body_err = f.tokens[fi.open..fi.close].iter().any(|t| t.is_ident("Err"));
        if !sig_result || !body_err {
            continue;
        }
        if f.allowed(RULE, fi.line) {
            continue;
        }
        let message = if !covered[id] {
            format!(
                "fn {} ({}) returns errors but no telemetry counter is reachable from it \
                 (neither via its callees nor any caller); failures on this path are \
                 invisible to introspection",
                fi.name, fi.crate_name
            )
        } else {
            format!(
                "fn {} ({}) returns errors outside every trace span: no span scope is \
                 opened by it, its callees, or any caller, so a failure here leaves no \
                 record in the flight recorder",
                fi.name, fi.crate_name
            )
        };
        diags.push(Diagnostic {
            file: f.path.clone(),
            line: fi.line,
            rule: RULE,
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::from_source("crates/orb/src/lib.rs", "ohpc-orb", false, src)];
        let ws = Workspace::build(&files);
        let mut diags = Vec::new();
        run(&files, &ws, &mut diags);
        diags
    }

    #[test]
    fn silent_error_path_is_flagged() {
        let src = r#"
            fn parse(b: &[u8]) -> Result<u32, E> {
                if b.is_empty() { return Err(E::Short); }
                Ok(0)
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
    }

    #[test]
    fn direct_counter_and_span_cover() {
        let src = r#"
            fn parse(b: &[u8]) -> Result<u32, E> {
                let _span = ohpc_telemetry::trace_span("parse");
                if b.is_empty() {
                    ohpc_telemetry::counter!("parse_errors_total").inc();
                    return Err(E::Short);
                }
                Ok(0)
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn only_a_macro_qualified_by_the_telemetry_crate_covers() {
        let src = r#"
            fn parse(b: &[u8]) -> Result<u32, E> {
                let _span = trace_span("parse");
                if b.is_empty() {
                    counter!("parse_errors_total").inc();
                    return Err(E::Short);
                }
                Ok(0)
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("no telemetry counter"));
    }

    #[test]
    fn counter_without_span_is_flagged() {
        let src = r#"
            fn parse(b: &[u8]) -> Result<u32, E> {
                if b.is_empty() {
                    ohpc_telemetry::counter!("parse_errors_total").inc();
                    return Err(E::Short);
                }
                Ok(0)
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("outside every trace span"), "{diags:?}");
    }

    #[test]
    fn covered_caller_covers_helper() {
        let src = r#"
            fn helper(b: &[u8]) -> Result<u32, E> { Err(E::Short) }
            fn exchange(b: &[u8]) -> Result<u32, E> {
                let _span = ohpc_telemetry::trace_span_with("exchange", &[]);
                ohpc_telemetry::counter!("requests_total").inc();
                helper(b)
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn covered_callee_covers_dyn_entry_point() {
        let src = r#"
            fn invoke(b: &[u8]) -> Result<u32, E> { wire(b) }
            fn wire(b: &[u8]) -> Result<u32, E> {
                telem::track_send("mem", Err(E::Short))
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn non_target_crate_is_ignored() {
        let src = "fn parse(b: &[u8]) -> Result<u32, E> { Err(E::Short) }";
        let files = vec![SourceFile::from_source("crates/x/src/lib.rs", "ohpc-xdr", false, src)];
        let ws = Workspace::build(&files);
        let mut diags = Vec::new();
        run(&files, &ws, &mut diags);
        assert!(diags.is_empty());
    }
}
