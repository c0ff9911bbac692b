//! Rule `shared-state`: Eraser-style lockset race detection on struct
//! fields.
//!
//! A field written from two or more thread contexts — or from any single
//! *multi-instance* context (a spawn inside a loop or iterator adapter,
//! where several copies of the same closure run concurrently) — must have a
//! non-empty intersection of the locksets held at every conflicting access,
//! unless the field's declared type is itself a synchronization primitive
//! (atomic, channel endpoint, `Condvar`, …). `Mutex`/`RwLock` fields are
//! *not* exempt: their accesses go through `.lock()`/`.read()`/`.write()`,
//! which puts the field into its own lockset, so a correctly-used lock
//! field passes on its own merits.
//!
//! Thread contexts come from [`crate::graph`]'s role inference (main/API
//! vs. each production spawn site); per-access locksets come from
//! [`crate::dataflow::field_facts`], which folds together chain locks
//! (`self.map.lock().insert(…)`), live `let`-bound guards, and the
//! entry-lockset fixpoint (locks *always* held by every production caller).
//!
//! Known imprecision is documented in DESIGN.md §11. Deliberate exceptions
//! carry `// ohpc-analyze: allow(shared-state) — <reason>` on the write or
//! on the conflicting access line.

use std::collections::HashSet;

use crate::dataflow::FieldFacts;
use crate::graph::Workspace;
use crate::rules::Diagnostic;
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "shared-state";

/// Declared-type idents that make a field exempt: the type synchronizes
/// itself. Matched by prefix for the atomics (`AtomicU64`, `AtomicBool`, …).
const SELF_SYNC_PREFIXES: &[&str] = &["Atomic"];
const SELF_SYNC_TYPES: &[&str] = &[
    "Sender", "SyncSender", "Receiver", "Condvar", "Barrier", "Once", "OnceCell", "OnceLock",
    "PhantomData",
];

fn field_is_self_sync(ws: &Workspace, krate: &str, field: &str) -> bool {
    let Some(ty) = ws.field_types.get(&(krate.to_string(), field.to_string())) else {
        return false;
    };
    ty.iter().any(|t| {
        SELF_SYNC_PREFIXES.iter().any(|p| t.starts_with(p)) || SELF_SYNC_TYPES.contains(&t.as_str())
    })
}

/// Entry point.
pub fn run(files: &[SourceFile], ws: &Workspace, facts: &FieldFacts, diags: &mut Vec<Diagnostic>) {
    // Collect every production access with its resolved thread contexts and
    // effective lockset, grouped by (crate, field).
    struct Site {
        fn_id: usize,
        write: bool,
        line: u32,
        /// Thread contexts this access can run under.
        ctxs: Vec<usize>,
        /// Locks held: chain + live guards + entry lockset.
        locks: std::collections::BTreeSet<String>,
    }
    let mut by_field: std::collections::HashMap<(String, String), Vec<Site>> =
        std::collections::HashMap::new();

    for id in 0..ws.fns.len() {
        let fi = &ws.fns[id];
        if fi.is_test || fi.self_mut {
            // `&mut self` / `mut self`: the borrow checker already
            // guarantees exclusive access for the call's duration.
            continue;
        }
        for a in &facts.accesses[id] {
            let in_spawn = ws.in_spawn_arg(fi.file, a.tok);
            let ctxs = ws.ctxs_at(id, a.tok);
            if ctxs.is_empty() {
                continue;
            }
            let mut locks = a.locks.clone();
            if !in_spawn {
                // The entry lockset only applies to the fn's own body; a
                // spawn closure runs later, when the caller's locks are
                // gone. `None` entry = not production-reachable.
                match &facts.entry[id] {
                    None => continue,
                    Some(e) => locks.extend(e.iter().cloned()),
                }
            }
            by_field
                .entry((fi.crate_name.clone(), a.field.clone()))
                .or_default()
                .push(Site { fn_id: id, write: a.write, line: a.line, ctxs, locks });
        }
    }

    let mut reported: HashSet<(usize, u32)> = HashSet::new();
    for ((krate, field), sites) in &by_field {
        if field_is_self_sync(ws, krate, field) {
            continue;
        }
        for w in sites.iter().filter(|s| s.write) {
            let wf = &ws.fns[w.fn_id];
            let file = &files[wf.file];
            if !reported.insert((wf.file, w.line)) {
                continue;
            }
            // Conflicts: another access (or the write itself under a
            // multi-instance context) reachable from a different thread
            // context — or the same multi context — with no common lock.
            let mut conflicts: Vec<&Site> = Vec::new();
            for o in sites.iter() {
                if std::ptr::eq(o, w) && !w.ctxs.iter().any(|&c| ws.ctx_is_multi(c)) {
                    continue;
                }
                let concurrent = w.ctxs.iter().any(|&wc| {
                    o.ctxs.iter().any(|&oc| wc != oc || ws.ctx_is_multi(wc))
                });
                if concurrent && w.locks.intersection(&o.locks).next().is_none() {
                    conflicts.push(o);
                }
            }
            if conflicts.is_empty() {
                continue;
            }
            // Suppressible at the write line or at any conflicting access
            // line (whichever side the reasoning belongs to).
            let unallowed: Vec<&&Site> = conflicts
                .iter()
                .filter(|c| {
                    let cf = &ws.fns[c.fn_id];
                    !files[cf.file].allowed(RULE, c.line)
                })
                .collect();
            if file.allowed(RULE, w.line) || unallowed.is_empty() {
                continue;
            }
            let c = unallowed[0];
            let cf = &ws.fns[c.fn_id];
            let wctx = w.ctxs.iter().map(|&x| ws.ctx_desc(x, files)).collect::<Vec<_>>().join(", ");
            let cctx = c.ctxs.iter().map(|&x| ws.ctx_desc(x, files)).collect::<Vec<_>>().join(", ");
            diags.push(Diagnostic {
                file: file.path.clone(),
                line: w.line,
                rule: RULE,
                message: format!(
                    "field `{field}` is written in `{}` (runs on: {wctx}) with lockset {{{}}} \
                     while `{}` at {}:{} (runs on: {cctx}) {} it with lockset {{{}}} — \
                     no common lock protects the pair; guard the field, make it atomic, \
                     or annotate why the schedule makes this safe",
                    wf.name,
                    render(&w.locks),
                    cf.name,
                    files[cf.file].path,
                    c.line,
                    if c.write { "writes" } else { "reads" },
                    render(&c.locks),
                ),
            });
        }
    }
}

fn render(s: &std::collections::BTreeSet<String>) -> String {
    s.iter().cloned().collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::field_facts;
    use crate::graph::Workspace;

    fn analyze(src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::from_source("crates/x/src/lib.rs", "x", false, src)];
        let ws = Workspace::build(&files);
        let facts = field_facts(&files, &ws);
        let mut diags = Vec::new();
        run(&files, &ws, &facts, &mut diags);
        diags
    }

    #[test]
    fn unguarded_cross_thread_write_is_flagged() {
        let src = r#"
            struct S { count: u64 }
            impl S {
                pub fn start(&self) {
                    std::thread::spawn(move || self.worker());
                }
                fn worker(&self) { self.count += 1; }
                pub fn read(&self) -> u64 { self.count }
            }
        "#;
        let d = analyze(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("count"), "{}", d[0].message);
    }

    #[test]
    fn mutex_guarded_accesses_are_clean() {
        let src = r#"
            struct S { count: Mutex<u64> }
            impl S {
                pub fn start(&self) {
                    std::thread::spawn(move || self.worker());
                }
                fn worker(&self) { let mut g = self.count.lock(); g.add(1); }
                pub fn read(&self) -> u64 { self.count.lock().clone() }
            }
        "#;
        let d = analyze(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn atomic_field_is_exempt() {
        let src = r#"
            struct S { count: AtomicU64 }
            impl S {
                pub fn start(&self) {
                    std::thread::spawn(move || self.worker());
                }
                fn worker(&self) { self.count.fetch_add(1, Ordering::Relaxed); }
                pub fn read(&self) -> u64 { self.count.load(Ordering::Relaxed) }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn single_context_field_is_clean() {
        let src = r#"
            struct S { count: u64 }
            impl S {
                pub fn bump(&self) { self.count += 1; }
                pub fn read(&self) -> u64 { self.count }
            }
        "#;
        // Both fns run only on the main/API context — no cross-thread pair.
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn multi_instance_spawn_races_with_itself() {
        let src = r#"
            struct S { count: u64 }
            impl S {
                pub fn serve(&self) {
                    loop {
                        std::thread::spawn(move || self.handle());
                    }
                }
                fn handle(&self) { self.count += 1; }
            }
        "#;
        let d = analyze(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("per-request"), "{}", d[0].message);
    }

    #[test]
    fn mut_self_write_is_exempt() {
        let src = r#"
            struct S { count: u64 }
            impl S {
                pub fn start(&self) {
                    std::thread::spawn(move || self.worker());
                }
                fn worker(&self) { self.count; }
                pub fn bump(&mut self) { self.count += 1; }
            }
        "#;
        // The only write needs `&mut self` — exclusive by construction.
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn entry_lockset_protects_callee_writes() {
        let src = r#"
            struct S { m: Mutex<Tbl>, count: u64 }
            impl S {
                pub fn start(&self) {
                    std::thread::spawn(move || self.worker());
                }
                fn worker(&self) {
                    let g = self.m.lock();
                    self.bump();
                }
                pub fn api(&self) {
                    let g = self.m.lock();
                    self.bump();
                }
                fn bump(&self) { self.count += 1; }
            }
        "#;
        // Every production path into `bump` holds `m`.
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn allow_on_the_write_suppresses() {
        let src = r#"
            struct S { count: u64 }
            impl S {
                pub fn start(&self) {
                    std::thread::spawn(move || self.worker());
                }
                fn worker(&self) {
                    // ohpc-analyze: allow(shared-state) — bench counter, torn reads acceptable
                    self.count += 1;
                }
                pub fn read(&self) -> u64 { self.count }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn allow_on_the_conflicting_read_suppresses() {
        let src = r#"
            struct S { count: u64 }
            impl S {
                pub fn start(&self) {
                    std::thread::spawn(move || self.worker());
                }
                fn worker(&self) { self.count += 1; }
                pub fn read(&self) -> u64 {
                    // ohpc-analyze: allow(shared-state) — monitoring read, staleness fine
                    self.count
                }
            }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn disjoint_locks_still_race() {
        let src = r#"
            struct S { a: Mutex<u32>, b: Mutex<u32>, count: u64 }
            impl S {
                pub fn start(&self) {
                    std::thread::spawn(move || self.worker());
                }
                fn worker(&self) {
                    let g = self.a.lock();
                    self.count += 1;
                }
                pub fn read(&self) -> u64 {
                    let g = self.b.lock();
                    self.count
                }
            }
        "#;
        let d = analyze(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("{a}"), "{}", d[0].message);
    }
}
