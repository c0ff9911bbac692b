//! Rule `bounded-recv`: in ohpc-orb, ohpc-transport and ohpc-nexus, an
//! argument-less `.recv()` appears only where blocking is the design.
//!
//! The retry semantics assume a receive on a request path eventually
//! returns `Timeout`; an unbounded `recv` there turns a silent peer into a
//! hung caller and defeats the whole retry/breaker stack. A request path
//! reads with `recv_deadline(deadline)`, which takes an argument and so is
//! never a finding. The sites allowed to block are:
//!
//! * transport impls and their delegation shims: fns named `recv`,
//!   `recv_deadline` or `accept` (the deadline is the caller's job;
//!   `RecvHalf::recv_deadline`'s default body is such a shim);
//! * the server connection readers, each on its own connection's thread:
//!   `SplitConn::read` and the stand-alone Nexus `NexusService::serve_connection`;
//! * `Startpoint::rsr_reply`, the stand-alone Nexus client, whose documented
//!   contract is that it has no receive deadline;
//! * an `// ohpc-analyze: allow(bounded-recv) — <reason>` annotation.
//!
//! A token rule: it reads the receiver's name nowhere, so a channel
//! `Receiver::recv` outside those sites is a finding too — a request path
//! that waits on a channel without a deadline hangs the same way.

use crate::rules::{token_rule, Diagnostic};
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "bounded-recv";

/// `(impl type, fn name)` of the fns allowed an unbounded receive; an
/// empty impl type matches any.
const EXEMPT: &[(&str, &str)] = &[
    ("", "recv"),
    ("", "recv_deadline"),
    ("", "accept"),
    ("SplitConn", "read"),
    ("NexusService", "serve_connection"),
    ("Startpoint", "rsr_reply"),
];

/// `.recv()` with no arguments, matched at the `recv` token.
fn is_bare_recv(f: &SourceFile, i: usize) -> bool {
    let t = |k: usize| f.tokens.get(k);
    i > 0
        && t(i).is_some_and(|t| t.is_ident("recv"))
        && t(i - 1).is_some_and(|t| t.is_punct('.'))
        && t(i + 1).is_some_and(|t| t.is_punct('('))
        && t(i + 2).is_some_and(|t| t.is_punct(')'))
}

/// Entry point.
pub fn run(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let message = |name: &str| {
        format!(
            "unbounded `.recv()` in fn {name} — a silent peer hangs this caller forever; \
             read with `recv_deadline` and the request's deadline (only transport impls \
             and server connection readers may block)"
        )
    };
    token_rule(files, RULE, is_bare_recv, EXEMPT, message, diags);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_crate(crate_name: &str, src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::from_source("crates/x/src/lib.rs", crate_name, false, src)];
        let mut diags = Vec::new();
        run(&files, &mut diags);
        diags
    }

    fn analyze(src: &str) -> Vec<Diagnostic> {
        analyze_crate("ohpc-orb", src)
    }

    #[test]
    fn unbounded_transport_recv_is_flagged() {
        let diags = analyze("fn ask(c: &mut dyn Connection) -> R { c.send(f)?; c.recv() }");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
        assert!(diags[0].message.contains("fn ask"), "{}", diags[0].message);
    }

    #[test]
    fn channel_recv_outside_a_reader_is_flagged() {
        assert_eq!(analyze("fn wait(rx: &Receiver<B>) -> Option<B> { rx.recv().ok() }").len(), 1);
    }

    #[test]
    fn guard_derefed_connection_field_is_seen() {
        let src = "impl S { fn ask(&self) -> R { let mut conn = self.conn.lock(); conn.recv() } }";
        assert_eq!(analyze(src).len(), 1);
    }

    #[test]
    fn recv_impl_itself_is_a_delegation_shim() {
        let src = r#"
            impl Connection for Wrap { fn recv(&mut self) -> R { self.inner.recv() } }
            impl RecvHalf for Half { fn recv_deadline(&mut self, d: D) -> R { self.recv() } }
            impl Listener for L { fn accept(&mut self) -> R { self.pending.recv().map_err(E) } }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn server_readers_are_exempt_and_only_they() {
        let src = r#"
            impl SplitConn { fn read(self: &Arc<Self>, mut rx: Rx) { while rx.recv().is_ok() {} } }
            impl NexusService { fn serve_connection(&self, mut c: C) { while c.recv().is_ok() {} } }
            impl Client { fn read(&self, mut rx: Rx) { let _ = rx.recv(); } }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn deadline_reads_tests_and_other_crates_are_not_findings() {
        assert!(analyze("fn ask(rx: &mut Rx, d: D) -> R { rx.recv_deadline(d) }").is_empty());
        assert!(analyze("#[cfg(test)]\nmod tests { fn t(rx: Rx) { rx.recv(); } }").is_empty());
        let elsewhere = "fn drain(rx: Rx) { rx.recv(); }";
        assert!(analyze_crate("ohpc-bench", elsewhere).is_empty());
        assert_eq!(analyze_crate("ohpc-nexus", elsewhere).len(), 1);
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "// ohpc-analyze: allow(bounded-recv) — drained after close\n\
                   fn f(r: R) { r.recv(); }";
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }
}
