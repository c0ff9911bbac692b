//! Rule `lock-order`: static lock-acquisition ordering, workspace-wide.
//!
//! Builds a directed graph whose nodes are the workspace's
//! `parking_lot::Mutex` / `RwLock` *fields* — crate-qualified, e.g.
//! `ohpc-orb::channels` — and whose edges mean "some function acquires B
//! while holding A". A cycle in that graph is a potential deadlock: two
//! threads entering the cycle from different points can each hold the lock
//! the other wants. Re-entrant acquisition of the same field (a self-edge)
//! is reported too — `parking_lot` locks are not re-entrant, so
//! `lock(); …; lock()` on one field deadlocks a single thread.
//!
//! The approximation, stated honestly:
//!
//! * Guard liveness comes from [`crate::dataflow`]: a `let`-bound guard is
//!   held to the end of its enclosing block (truncated at `drop(g)`), a
//!   temporary to the end of its statement, an `if let`/`while let`/
//!   `match` head guard through the attached block (pre-2024 scoping).
//! * Calls are resolved through the workspace call graph
//!   ([`crate::graph::Workspace`]) — `self.helper(…)`, `Type::assoc(…)`,
//!   typed receivers, trait-object fields, `use`-imported free functions —
//!   so lock sets propagate *across crate boundaries*. Callee lock sets
//!   reach a fixpoint, so chains of helpers are seen. Calls inside a
//!   `spawn(…)` argument are excluded: the spawned closure acquires on its
//!   own thread, which establishes no ordering for the spawner.
//! * Fields are identified by name per crate. Two structs in one crate
//!   with identically named lock fields share a node, which can only make
//!   the analysis stricter (extra edges), never miss a cycle among the
//!   fields it models.

use std::collections::{HashMap, HashSet};

use crate::dataflow;
use crate::graph::Workspace;
use crate::rules::Diagnostic;
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "lock-order";

/// A lock-order edge with one example site.
#[derive(Debug, Clone)]
struct Edge {
    to: String,
    file: String,
    line: u32,
    note: String,
}

/// Entry point.
pub fn run(files: &[SourceFile], ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    // Lock fields per crate, from the workspace field table.
    let mut fields: HashMap<&str, HashSet<String>> = HashMap::new();
    for ((krate, field), ty) in &ws.field_types {
        if ty.iter().any(|t| t == "Mutex" || t == "RwLock") {
            fields.entry(krate.as_str()).or_default().insert(field.clone());
        }
    }
    if fields.is_empty() {
        return;
    }
    let empty = HashSet::new();
    let node = |krate: &str, field: &str| format!("{krate}::{field}");

    // Per-function acquisitions of known lock fields.
    let mut acqs: Vec<Vec<dataflow::GuardAcq>> = Vec::with_capacity(ws.fns.len());
    for fi in &ws.fns {
        if fi.is_test {
            acqs.push(Vec::new());
            continue;
        }
        let f = &files[fi.file];
        let crate_fields = fields.get(fi.crate_name.as_str()).unwrap_or(&empty);
        let mut list = dataflow::guard_acqs(f, fi.open, fi.close, crate_fields);
        list.retain(|a| crate_fields.contains(&a.root));
        acqs.push(list);
    }

    // Callee lock sets, per function, propagated to a fixpoint across the
    // resolved (cross-crate) call graph.
    let mut reach: Vec<HashSet<String>> = Vec::with_capacity(ws.fns.len());
    for (id, fi) in ws.fns.iter().enumerate() {
        reach.push(acqs[id].iter().map(|a| node(&fi.crate_name, &a.root)).collect());
    }
    loop {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            let fi = &ws.fns[id];
            let mut add: Vec<String> = Vec::new();
            for (ci, c) in ws.calls[id].iter().enumerate() {
                if ws.in_spawn_arg(fi.file, c.tok) {
                    continue;
                }
                for &t in &ws.targets[id][ci] {
                    add.extend(reach[t].iter().cloned());
                }
            }
            for x in add {
                if reach[id].insert(x) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Build the edge set.
    let mut edges: HashMap<String, Vec<Edge>> = HashMap::new();
    for (id, fi) in ws.fns.iter().enumerate() {
        let file = &files[fi.file];
        for a in &acqs[id] {
            let from = node(&fi.crate_name, &a.root);
            for b in &acqs[id] {
                if b.tok > a.tok && b.tok <= a.until {
                    edges.entry(from.clone()).or_default().push(Edge {
                        to: node(&fi.crate_name, &b.root),
                        file: file.path.clone(),
                        line: b.line,
                        note: format!("in fn {}", fi.name),
                    });
                }
            }
            for (ci, c) in ws.calls[id].iter().enumerate() {
                if c.tok <= a.tok || c.tok > a.until || ws.in_spawn_arg(fi.file, c.tok) {
                    continue;
                }
                for &t in &ws.targets[id][ci] {
                    for to in &reach[t] {
                        edges.entry(from.clone()).or_default().push(Edge {
                            to: to.clone(),
                            file: file.path.clone(),
                            line: c.line,
                            note: format!("in fn {} via call to {}", fi.name, c.name),
                        });
                    }
                }
            }
        }
    }

    report_cycles(&edges, files, diags);
}

/// Find and report cycles (including self-edges) via DFS over the edge map.
fn report_cycles(
    edges: &HashMap<String, Vec<Edge>>,
    files: &[SourceFile],
    diags: &mut Vec<Diagnostic>,
) {
    // Deduplicate parallel edges, keeping the first example site.
    let mut adj: HashMap<&str, Vec<&Edge>> = HashMap::new();
    for (from, es) in edges {
        let mut seen = HashSet::new();
        for e in es {
            if seen.insert(e.to.as_str()) {
                adj.entry(from.as_str()).or_default().push(e);
            }
        }
    }
    for v in adj.values_mut() {
        v.sort_by(|a, b| a.to.cmp(&b.to));
    }

    // DFS from each node; report each cycle once, keyed by its node set.
    let mut nodes: Vec<&str> = adj.keys().copied().collect();
    nodes.sort();
    let mut reported: HashSet<Vec<String>> = HashSet::new();

    for &start in &nodes {
        // Path-based DFS, small graphs only.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<(&str, &Edge)> = Vec::new();
        while let Some((node, next)) = stack.pop() {
            let succ = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if next >= succ.len() {
                if !path.is_empty() {
                    path.pop();
                }
                continue;
            }
            stack.push((node, next + 1));
            let edge = succ[next];
            if edge.to == start {
                // Cycle start → … → node → start found.
                let mut cycle: Vec<String> =
                    path.iter().map(|(n, _)| n.to_string()).collect();
                cycle.push(node.to_string());
                let mut key = cycle.clone();
                key.sort();
                if reported.insert(key) {
                    // Allow on the closing edge's site suppresses the cycle.
                    let allow_file =
                        files.iter().find(|f| f.path == edge.file);
                    if allow_file.is_some_and(|f| f.allowed(RULE, edge.line)) {
                        continue;
                    }
                    let mut hops: Vec<String> = Vec::new();
                    for (_, e) in &path {
                        hops.push(format!("{} ({}:{} {})", e.to, e.file, e.line, e.note));
                    }
                    hops.push(format!("{} ({}:{} {})", edge.to, edge.file, edge.line, edge.note));
                    diags.push(Diagnostic {
                        file: edge.file.clone(),
                        line: edge.line,
                        rule: RULE,
                        message: format!(
                            "potential deadlock: lock-order cycle {} -> {}",
                            start,
                            hops.join(" -> "),
                        ),
                    });
                }
                continue;
            }
            if edge.to == node || path.iter().any(|(n, _)| *n == edge.to) {
                continue; // already on path; the DFS from that node reports it
            }
            if adj.contains_key(edge.to.as_str()) {
                path.push((node, edge));
                stack.push((edge.to.as_str(), 0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_all;

    fn analyze(src: &str) -> Vec<Diagnostic> {
        analyze_files(vec![SourceFile::from_source("crates/x/src/lib.rs", "x", false, src)])
    }

    fn analyze_files(files: Vec<SourceFile>) -> Vec<Diagnostic> {
        let ws = Workspace::build(&files);
        let mut diags = Vec::new();
        run(&files, &ws, &mut diags);
        diags
    }

    const CYCLE_SRC: &str = r#"
        use parking_lot::Mutex;
        struct S { a: Mutex<u32>, b: Mutex<u32> }
        impl S {
            fn ab(&self) {
                let g = self.a.lock();
                *self.b.lock() += *g;
            }
            fn ba(&self) {
                let g = self.b.lock();
                *self.a.lock() += *g;
            }
        }
    "#;

    #[test]
    fn direct_cycle_detected() {
        let diags = analyze(CYCLE_SRC);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
        assert!(diags[0].message.contains("cycle"), "{}", diags[0].message);
    }

    #[test]
    fn sequential_acquisition_is_clean() {
        let src = r#"
            use parking_lot::Mutex;
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn ab(&self) {
                    { let g = self.a.lock(); drop(g); }
                    let h = self.b.lock();
                }
                fn ba(&self) {
                    let n = *self.b.lock();
                    let g = self.a.lock();
                }
            }
        "#;
        // `ba` holds only a temporary on b (dropped at the `;`), so there is
        // a b-edge in neither direction: a->b exists in neither fn; no cycle.
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn cycle_through_helper_call_detected() {
        let src = r#"
            use parking_lot::Mutex;
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.a.lock();
                    self.helper();
                }
                fn helper(&self) {
                    let h = self.b.lock();
                }
                fn g(&self) {
                    let h = self.b.lock();
                    let g = self.a.lock();
                }
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("via call to helper"), "{}", diags[0].message);
    }

    #[test]
    fn cross_crate_cycle_detected() {
        // Crate x calls y's `flush` while holding `a` (edge a → q); y's
        // `sync` holds `q` while calling back into x's `record`, which
        // locks `a` (edge q → a). Neither crate sees a cycle alone.
        let x = r#"
            use parking_lot::Mutex;
            use ohpc_y::Flusher;
            pub struct Reg { a: Mutex<u32> }
            impl Reg {
                pub fn tick(&self, fl: &Flusher) {
                    let g = self.a.lock();
                    fl.flush();
                }
                pub fn record(&self) {
                    let g = self.a.lock();
                }
            }
        "#;
        let y = r#"
            use parking_lot::Mutex;
            use ohpc_x::Reg;
            pub struct Flusher { q: Mutex<u32>, rec: Reg }
            impl Flusher {
                pub fn flush(&self) {
                    let g = self.q.lock();
                }
                pub fn sync(&self) {
                    let g = self.q.lock();
                    self.rec.record();
                }
            }
        "#;
        let files = vec![
            SourceFile::from_source("crates/x/src/lib.rs", "ohpc-x", false, x),
            SourceFile::from_source("crates/y/src/lib.rs", "ohpc-y", false, y),
        ];
        let diags = analyze_files(files);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("ohpc-x::a") && diags[0].message.contains("ohpc-y::q"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn reentrant_same_lock_is_a_self_cycle() {
        let src = r#"
            use parking_lot::Mutex;
            struct S { a: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.a.lock();
                    let h = self.a.lock();
                }
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("x::a -> x::a"), "{}", diags[0].message);
    }

    #[test]
    fn test_code_is_ignored() {
        let src = format!("#[cfg(test)]\nmod tests {{ {} }}", CYCLE_SRC);
        assert!(analyze(&src).is_empty());
    }

    #[test]
    fn if_let_head_guard_extends_through_block() {
        // The temporary guard in the `if let` head lives through the block
        // (pre-2024 scoping), so b is acquired while a is held; with the
        // reverse order elsewhere this is a cycle.
        let src = r#"
            use parking_lot::Mutex;
            struct S { a: Mutex<Vec<u32>>, b: Mutex<u32> }
            impl S {
                fn f(&self) {
                    if let Some(x) = self.a.lock().first() {
                        let g = self.b.lock();
                    }
                }
                fn g(&self) {
                    let g = self.b.lock();
                    self.a.lock().clear();
                }
            }
        "#;
        let diags = analyze(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn method_does_not_resolve_to_same_named_free_fn() {
        // `S::select` (a method) calls the free fn `select` while holding
        // `a`; resolving that call back to the *method* would fabricate an
        // a -> a self-cycle.
        let src = r#"
            use parking_lot::Mutex;
            struct S { a: Mutex<u32> }
            impl S {
                fn select(&self) -> u32 {
                    let g = self.a.lock();
                    select(&g)
                }
            }
            fn select(v: &u32) -> u32 { *v }
        "#;
        assert!(analyze(src).is_empty(), "{:?}", analyze(src));
    }

    #[test]
    fn run_all_reports_the_cycle() {
        let f = SourceFile::from_source("crates/x/src/lib.rs", "x", false, CYCLE_SRC);
        let diags = run_all(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
    }
}
