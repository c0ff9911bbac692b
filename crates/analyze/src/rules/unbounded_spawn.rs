//! Rule `unbounded-spawn`: in ohpc-orb, ohpc-transport and ohpc-nexus,
//! threads are spawned only by the accept loop and the group fan-out.
//!
//! Per-request work goes through the bounded worker-pool executor: under a
//! 10k-request burst, `thread::spawn` per request is a thread explosion the
//! admission controller cannot see. Any `thread::spawn(…)`, imported
//! `spawn(…)` or `Builder…spawn(…)` in the non-test code of those crates is
//! a finding, except in
//!
//! * `AcceptLoop::spawn` — one acceptor thread per listener and one thread
//!   per connection, bounded by clients, not by requests;
//! * `GpGroup::invoke_all` — one thread per group member for the duration
//!   of a collective call, bounded by the group's size;
//! * an `// ohpc-analyze: allow(unbounded-spawn) — <reason>` annotation.
//!
//! `ohpc-runtime` is out of scope: it is the sanctioned thread owner. A
//! member `…pool.spawn(…)` is some object's own API, not a thread.

use crate::rules::{token_rule, Diagnostic};
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "unbounded-spawn";

/// `(impl type, fn name)` of the fns allowed to spawn threads.
const EXEMPT: &[(&str, &str)] = &[("AcceptLoop", "spawn"), ("GpGroup", "invoke_all")];

/// A thread spawn, matched at the `spawn` token of `spawn(`.
fn is_thread_spawn(f: &SourceFile, i: usize) -> bool {
    let toks = &f.tokens;
    if i == 0 || !toks[i].is_ident("spawn") || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let prev = &toks[i - 1];
    if prev.is_punct(':') {
        // `thread::spawn(…)`, not `AcceptLoop::spawn(…)`.
        return i >= 3 && toks[i - 3].is_ident("thread");
    }
    if prev.is_punct('.') {
        // `Builder::new()….spawn(…)` within the same statement.
        return toks[..i]
            .iter()
            .rev()
            .take_while(|t| !(t.is_punct(';') || t.is_punct('{') || t.is_punct('}')))
            .any(|t| t.is_ident("Builder"));
    }
    // A `spawn(…)` imported from `std::thread`; `fn spawn(` declares one.
    !prev.is_ident("fn")
}

/// Entry point.
pub fn run(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let message = |name: &str| {
        format!(
            "thread spawn in fn {name} — per-request threads are unbounded under load; \
             submit the work to the context's executor instead (only `AcceptLoop::spawn` \
             and `GpGroup::invoke_all` spawn threads here)"
        )
    };
    token_rule(files, RULE, is_thread_spawn, EXEMPT, message, diags);
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
    fn spawn_in_dispatch_root_is_flagged() {
        let src = "fn serve_connection_split(fs: V) { for f in fs { thread::spawn(|| f); } }";
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
        assert!(diags[0].message.contains("fn serve_connection_split"), "{}", diags[0].message);
    }

    #[test]
    fn builder_and_imported_spawns_are_flagged() {
        let src = r#"
            use std::thread::spawn;
            fn answer(req: Req) {
                std::thread::Builder::new().name("w".into()).spawn(move || req.run());
                thread::spawn(|| ());
                spawn(|| ());
            }
        "#;
        assert_eq!(analyze(src).len(), 3, "{:?}", analyze(src));
    }

    #[test]
    fn accept_loop_spawns_are_not_dispatch() {
        let src = r#"
            impl AcceptLoop {
                pub fn spawn(mut listener: L, serve: F) -> Self {
                    let acceptor = std::thread::spawn(move || {
                        while let Ok(c) = listener.accept() { thread::spawn(move || serve(c)); }
                    });
                    Self { acceptor }
                }
            }
            fn serve(&self, l: L) { AcceptLoop::spawn(l, move |c| self.serve_connection(c)); }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn group_fan_out_is_exempt_and_only_it() {
        let src = r#"
            impl GpGroup {
                fn invoke_all(&self) { self.members.iter().map(|g| thread::spawn(|| g.run())); }
                fn invoke_one(&self) { std::thread::spawn(|| ()); }
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("fn invoke_one"), "{}", diags[0].message);
    }

    #[test]
    fn runtime_crate_owns_its_threads() {
        let src = "fn execute(task: Task) { std::thread::spawn(move || task()); }";
        assert!(analyze_crate("ohpc-runtime", src).is_empty());
        assert_eq!(analyze_crate("ohpc-orb", src).len(), 1);
    }

    #[test]
    fn pool_member_spawn_is_not_a_thread() {
        let src = "impl S { fn handle_request(&self, task: Task) { self.pool.spawn(task); } }";
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = r#"
            fn handle_request(frame: Frame) {
                // ohpc-analyze: allow(unbounded-spawn) — migration worker, one per epoch
                std::thread::spawn(move || work(frame));
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }
}
