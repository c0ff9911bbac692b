//! Rule `unbounded-spawn`: no thread spawn reachable from server dispatch.
//!
//! PR 8 replaced thread-per-request dispatch with a bounded worker-pool
//! executor: under a 10k-request burst, `thread::spawn` per request is a
//! thread explosion the admission controller cannot see. This rule keeps
//! the property: any `thread::spawn` (or `Builder…spawn`) lexically
//! reachable through the call graph from a dispatch root
//! (`serve_connection`, `handle_frame`, `handle_request` and friends) is a
//! finding — per-request work must go through an [`Executor`], whose
//! worker count is fixed and whose queue the admission bound covers.
//!
//! Exemptions:
//!
//! * the `ohpc-runtime` crate itself — it is the sanctioned thread owner
//!   (the pool spawns its workers once);
//! * test fns;
//! * per-*connection* threads (accept loops) — they are bounded by clients,
//!   not by requests, and their one spawn site, `ohpc_transport::AcceptLoop`,
//!   is reached from `serve*`, not from a dispatch root;
//! * an `// ohpc-analyze: allow(unbounded-spawn) — <reason>` annotation.

use std::collections::HashMap;

use crate::graph::{Recv, Workspace};
use crate::rules::{Diagnostic, Severity};
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "unbounded-spawn";

/// Fns whose bodies (and transitive callees) run once per request.
const DISPATCH_ROOTS: &[&str] = &[
    "serve_connection",
    "serve_connection_split",
    "handle_frame",
    "handle_frame_opt",
    "handle_request",
    "dispatch_admitted",
];

/// The crate allowed to create threads on the dispatch path: the executor
/// owns a fixed worker pool.
const RUNTIME_CRATE: &str = "ohpc-runtime";

/// Whether a call site looks like a thread spawn (as opposed to a pool or
/// scope API that happens to be named `spawn`).
fn is_thread_spawn(recv: &Recv) -> bool {
    match recv {
        // `std::thread::spawn(…)` / `thread::spawn(…)` / `Builder::spawn`.
        Recv::Path(segs) => segs.iter().any(|s| s == "thread" || s == "Builder"),
        // Imported `spawn(…)` or a chained `Builder::new()…spawn(…)`.
        Recv::Bare | Recv::Opaque => true,
        // `self.pool.spawn(…)`-style members are some object's own API.
        _ => false,
    }
}

/// Entry point.
pub fn run(files: &[SourceFile], ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    // BFS from the dispatch roots, remembering which root first reached
    // each fn so the message can name the path's origin.
    let mut reached_from: HashMap<usize, usize> = HashMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for (id, fi) in ws.fns.iter().enumerate() {
        if !fi.is_test && DISPATCH_ROOTS.contains(&fi.name.as_str()) {
            reached_from.insert(id, id);
            queue.push(id);
        }
    }
    while let Some(id) = queue.pop() {
        let root = reached_from[&id];
        for &callee in &ws.callees[id] {
            if ws.fns[callee].is_test {
                continue;
            }
            reached_from.entry(callee).or_insert_with(|| {
                queue.push(callee);
                root
            });
        }
    }

    for (&id, &root) in &reached_from {
        let fi = &ws.fns[id];
        if fi.crate_name == RUNTIME_CRATE {
            continue;
        }
        let f = &files[fi.file];
        for c in &ws.calls[id] {
            if c.name != "spawn" || !is_thread_spawn(&c.recv) {
                continue;
            }
            if f.allowed(RULE, c.line) {
                continue;
            }
            diags.push(Diagnostic {
                file: f.path.clone(),
                line: c.line,
                rule: RULE,
                severity: Severity::Deny,
                message: format!(
                    "thread spawn in fn {} is reachable from dispatch root {} — \
                     per-request threads are unbounded under load; submit the work \
                     to the context's executor instead",
                    fi.name, ws.fns[root].name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_crate(crate_name: &str, src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::from_source("crates/x/src/lib.rs", crate_name, false, src)];
        let ws = Workspace::build(&files);
        let mut diags = Vec::new();
        run(&files, &ws, &mut diags);
        diags
    }

    fn analyze(src: &str) -> Vec<Diagnostic> {
        analyze_crate("ohpc-orb", src)
    }

    #[test]
    fn spawn_in_dispatch_root_is_flagged() {
        let src = r#"
            fn serve_connection_split(frames: Vec<Frame>) {
                for frame in frames {
                    std::thread::spawn(move || work(frame));
                }
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
    }

    #[test]
    fn spawn_reached_transitively_is_flagged_and_names_the_root() {
        let src = r#"
            fn handle_frame(frame: Frame) { helper(frame); }
            fn helper(frame: Frame) {
                std::thread::spawn(move || work(frame));
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("handle_frame"), "{}", diags[0].message);
    }

    #[test]
    fn accept_loop_spawns_are_not_dispatch() {
        let src = r#"
            fn serve(listener: Box<dyn Listener>) {
                while let Ok(conn) = listener.accept() {
                    std::thread::spawn(move || serve_connection(conn));
                }
            }
            fn serve_connection(conn: Conn) { conn.close(); }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn runtime_crate_owns_its_threads() {
        let src = r#"
            fn handle_request(task: Task) { execute(task); }
            fn execute(task: Task) {
                std::thread::spawn(move || task());
            }
        "#;
        assert!(analyze_crate("ohpc-runtime", src).is_empty());
        assert_eq!(analyze_crate("ohpc-orb", src).len(), 1);
    }

    #[test]
    fn pool_member_spawn_is_not_a_thread() {
        let src = r#"
            struct S { pool: Pool }
            impl S {
                fn handle_request(&self, task: Task) { self.pool.spawn(task); }
            }
        "#;
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
