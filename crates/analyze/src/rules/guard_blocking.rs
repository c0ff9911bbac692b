//! Rule `guard-across-blocking`: no lock guard may be live across a
//! blocking operation.
//!
//! This is the PR-4 bug class made machine-checked: a `MutexGuard` (or
//! `RwLock` guard) held across `Connection::send`/`recv`, `thread::sleep`,
//! a channel `recv`, `accept`, `dial`, `wait` — or across a call to any
//! function that *transitively* does one of those — serializes unrelated
//! requests behind the wire and, combined with a second lock, turns a slow
//! peer into a deadlock. Guard liveness comes from [`crate::dataflow`];
//! transitive blocking comes from the resolved call graph, so a helper
//! three crates away that sleeps is still seen.
//!
//! Sites where holding the lock across the wire *is* the design (e.g. a
//! deliberately serialized single-reply-channel transport) carry an
//! `// ohpc-analyze: allow(guard-across-blocking) — <reason>` annotation.

use std::collections::HashSet;

use crate::dataflow::{self, blocking_seed};
use crate::graph::Workspace;
use crate::rules::Diagnostic;
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "guard-across-blocking";

/// Entry point.
pub fn run(files: &[SourceFile], ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let blocking = dataflow::blocking_fixpoint(files, ws);

    // RwLock fields per crate, so `.read()`/`.write()` guards are only
    // tracked on receivers we know are locks.
    let rw_roots = dataflow::lock_field_roots(ws);
    let empty = HashSet::new();

    for id in 0..ws.fns.len() {
        let fi = &ws.fns[id];
        if fi.is_test {
            continue;
        }
        let f = &files[fi.file];
        let roots = rw_roots.get(fi.crate_name.as_str()).unwrap_or(&empty);
        let acqs = dataflow::guard_acqs(f, fi.open, fi.close, roots);
        if acqs.is_empty() {
            continue;
        }
        let mut reported: HashSet<(usize, usize)> = HashSet::new();
        for g in &acqs {
            for (ci, c) in ws.calls[id].iter().enumerate() {
                if c.tok <= g.tok || c.tok > g.until || ws.in_spawn_arg(fi.file, c.tok) {
                    continue;
                }
                // Ignore the guard's own acquisition chain and other lock
                // acquisitions (nested locks are lock-order's business).
                if matches!(c.name.as_str(), "lock" | "read" | "write" | "try_lock") {
                    continue;
                }
                let what = if let Some(seed) = blocking_seed(ws, id, c) {
                    Some(format!("blocking `{seed}`"))
                } else {
                    ws.targets[id][ci].iter().find(|&&t| blocking.blocks[t]).map(|&t| {
                        format!(
                            "`{}()`, which may block ({})",
                            ws.fns[t].name, blocking.witness[t]
                        )
                    })
                };
                let Some(what) = what else { continue };
                // An annotation at either end works: on the blocking call,
                // or on the acquisition (one annotation for the whole
                // deliberately-serialized region).
                if !reported.insert((g.tok, c.tok))
                    || f.allowed(RULE, c.line)
                    || f.allowed(RULE, g.line)
                {
                    continue;
                }
                diags.push(Diagnostic {
                    file: f.path.clone(),
                    line: c.line,
                    rule: RULE,
                    message: format!(
                        "`{}` guard on `{}` (acquired line {}) is held across {} in fn {}; \
                         drop the guard before the blocking call or annotate why \
                         serialization is intended",
                        g.kind, g.root, g.line, what, fi.name
                    ),
                });
            }
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

    // The PR-4 shape: pool mutex held across the wire exchange.
    const POOL_SRC: &str = r#"
        struct Pool { slot: Mutex<Option<Box<dyn Connection>>> }
        impl Pool {
            fn exchange(&self, frame: &[u8]) -> Result<Bytes, E> {
                let mut slot = self.slot.lock();
                let conn = slot.as_mut().unwrap();
                conn.send(frame)?;
                let reply = conn.recv()?;
                Ok(reply)
            }
        }
    "#;

    #[test]
    fn pool_mutex_across_wire_exchange_is_flagged() {
        let diags = analyze(POOL_SRC);
        assert_eq!(diags.len(), 2, "{diags:?}"); // send and recv
        assert!(diags.iter().all(|d| d.rule == RULE));
    }

    #[test]
    fn guard_dropped_before_wire_is_clean() {
        let src = r#"
            struct Pool { slot: Mutex<Option<Box<dyn Connection>>> }
            impl Pool {
                fn exchange(&self, conn: &mut dyn Connection, frame: &[u8]) {
                    let n = { let g = self.slot.lock(); g.count() };
                    conn.send(frame);
                }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn transitive_blocking_callee_is_flagged() {
        let src = r#"
            struct S { m: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.m.lock();
                    self.backoff();
                }
                fn backoff(&self) { std::thread::sleep(d); }
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("backoff"), "{}", diags[0].message);
    }

    #[test]
    fn spawned_closure_under_guard_is_not_blocking() {
        let src = r#"
            struct S { m: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.m.lock();
                    std::thread::spawn(move || { rx.recv(); });
                }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn channel_send_under_guard_is_clean() {
        let src = r#"
            struct S { m: Mutex<u32> }
            impl S {
                fn f(&self, tx: &Sender<u32>) {
                    let g = self.m.lock();
                    tx.send(*g);
                }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn allow_at_the_acquisition_covers_the_whole_region() {
        let src = r#"
            struct S { conn: Mutex<Box<dyn Connection>> }
            impl S {
                fn ask(&self, frame: &[u8]) -> Result<Bytes, E> {
                    // ohpc-analyze: allow(guard-across-blocking) — one exchange per guard, by design
                    let mut conn = self.conn.lock();
                    conn.send(frame)?;
                    conn.recv()
                }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = r#"
            struct S { conn: Mutex<Box<dyn Connection>> }
            impl S {
                fn f(&self, frame: &[u8]) {
                    // ohpc-analyze: allow(guard-across-blocking) — single reply channel, serialized by design
                    self.conn.lock().send(frame);
                }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }
}
