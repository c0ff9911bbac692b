//! Rule `bounded-recv`: every transport receive outside a dedicated reader
//! thread must be deadline-bounded.
//!
//! PR 3's retry semantics assume a `recv` on a wire connection eventually
//! returns `Timeout`; an unbounded `recv` on a request path turns a silent
//! peer into a hung caller and defeats the whole retry/breaker stack. A
//! `recv` site is acceptable when any of these hold:
//!
//! * the receiver is not a transport object (channel `Receiver`s have
//!   their own protocols and are not this rule's business);
//! * the enclosing fn *is* the transport impl or a delegation shim (named
//!   `recv`/`recv_deadline`/`recv_timeout`/`accept` — the deadline is the
//!   caller's job; `RecvHalf::recv_deadline`'s default body is such a shim);
//! * the site runs on a dedicated reader thread: lexically inside a
//!   `…spawn(…)` argument, or in a function reachable from one (a server's
//!   connection reader, started by the accept loop, blocks by design);
//! * an `// ohpc-analyze: allow(bounded-recv) — <reason>` annotation.
//!
//! The deadline variant itself, `recv_deadline(deadline)`, is never a
//! finding: it is how a request path bounds a receive — the mux's leader
//! reads with it, bounded by its own deadline.

use crate::graph::{Recv, Workspace};
use crate::rules::{Diagnostic, Severity};
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "bounded-recv";

/// Type idents that mark a receiver as a transport object.
const TRANSPORT_TYPES: &[&str] = &["Connection", "RecvHalf"];

/// Fn names that are themselves transport impls or delegation shims.
const DELEGATING_FNS: &[&str] = &["recv", "recv_deadline", "recv_timeout", "try_recv", "accept"];

/// Entry point.
pub fn run(files: &[SourceFile], ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for id in 0..ws.fns.len() {
        let fi = &ws.fns[id];
        if fi.is_test || DELEGATING_FNS.contains(&fi.name.as_str()) {
            continue;
        }
        let f = &files[fi.file];
        for c in &ws.calls[id] {
            if c.name != "recv" || matches!(c.recv, Recv::Bare | Recv::Path(_)) {
                continue;
            }
            let hints = ws.recv_hints(id, c);
            if !hints.iter().any(|h| TRANSPORT_TYPES.contains(&h.as_str())) {
                continue;
            }
            if ws.in_spawn_arg(fi.file, c.tok)
                || ws.dedicated.contains(&id)
                || f.allowed(RULE, c.line)
            {
                continue;
            }
            diags.push(Diagnostic {
                file: f.path.clone(),
                line: c.line,
                rule: RULE,
                severity: Severity::Deny,
                message: format!(
                    "unbounded transport recv in fn {} — a silent peer hangs this caller \
                     forever; read with `recv_deadline` and the request's deadline, or move \
                     the read to a dedicated reader thread",
                    fi.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::from_source("crates/x/src/lib.rs", "x", false, src)];
        let ws = Workspace::build(&files);
        let mut diags = Vec::new();
        run(&files, &ws, &mut diags);
        diags
    }

    #[test]
    fn unbounded_transport_recv_is_flagged() {
        let src = r#"
            fn ask(conn: &mut dyn Connection, frame: &[u8]) -> Result<Bytes, E> {
                conn.send(frame)?;
                conn.recv()
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
    }

    #[test]
    fn channel_recv_is_not_this_rules_business() {
        let src = r#"
            fn pump(rx: &Receiver<u32>) { rx.recv(); }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn spawned_reader_loop_is_exempt() {
        let src = r#"
            fn serve(conn: Box<dyn Connection>) {
                std::thread::spawn(move || reader_loop(conn));
            }
            fn reader_loop(mut conn: Box<dyn Connection>) {
                loop { conn.recv(); }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn guard_derefed_connection_field_is_seen() {
        let src = r#"
            struct S { conn: Mutex<Box<dyn Connection>> }
            impl S {
                fn ask(&self) -> Result<Bytes, E> {
                    let mut conn = self.conn.lock();
                    conn.recv()
                }
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn recv_impl_itself_is_a_delegation_shim() {
        let src = r#"
            struct Wrap { inner: Box<dyn Connection> }
            impl Connection for Wrap {
                fn recv(&mut self) -> Result<Bytes, E> { self.inner.recv() }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }
}
