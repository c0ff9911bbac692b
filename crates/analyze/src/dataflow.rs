//! Statement-level dataflow: lock-guard liveness and the transitively-
//! blocking-call fixpoint.
//!
//! Guard liveness follows Rust's pre-2024 temporary-scope rules (the
//! edition this workspace uses), stated honestly:
//!
//! * a guard bound with `let` is held to the end of its enclosing block —
//!   truncated at an explicit `drop(<binding>)` if one appears;
//! * a temporary guard is held to the end of its statement;
//! * a guard created in an `if let` / `while let` / `match` head is held
//!   through the attached block.
//!
//! Blocking is seeded syntactically (`sleep`, channel/transport `recv`,
//! `accept`, `wait`, `dial`, wire `send`) and closed transitively over the
//! resolved call graph: a function that calls a blocking function blocks.
//! Code inside a `…spawn(…)` argument runs on another thread, so it never
//! counts as blocking *its spawner*.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::graph::{CallSite, FnInfo, Recv, Workspace};
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// One lock-guard acquisition inside a function body.
#[derive(Debug)]
pub struct GuardAcq {
    /// Receiver root ident (`conn` for `self.conn.lock()`).
    pub root: String,
    /// `lock`, `read` or `write`.
    pub kind: &'static str,
    /// Token index of the `lock`/`read`/`write` ident.
    pub tok: usize,
    pub line: u32,
    /// Token index through which the guard is considered held (inclusive).
    pub until: usize,
    /// Binding name for plain `let g = …lock();` acquisitions.
    pub var: Option<String>,
}

/// Scan a fn body (`open`..`close` brace tokens) for guard acquisitions.
///
/// `.lock()` always produces a guard. `.read()` / `.write()` only do when
/// the receiver root is in `rw_roots` (known `RwLock` fields) — the bare
/// names are too common (`io::Read`, file writes) to treat as locks.
pub fn guard_acqs(
    f: &SourceFile,
    open: usize,
    close: usize,
    rw_roots: &HashSet<String>,
) -> Vec<GuardAcq> {
    let toks = &f.tokens;
    let mut acqs = Vec::new();
    let mut braces: Vec<usize> = vec![open];
    let mut j = open + 1;
    while j < close {
        let t = &toks[j];
        if t.is_punct('{') {
            braces.push(j);
        } else if t.is_punct('}') {
            braces.pop();
        } else if t.kind == TokKind::Ident {
            let is_acquire = matches!(t.text.as_str(), "lock" | "read" | "write")
                && j >= 2
                && toks[j - 1].is_punct('.')
                && toks[j - 2].kind == TokKind::Ident
                && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(j + 2).is_some_and(|n| n.is_punct(')'));
            if is_acquire {
                let root = toks[j - 2].text.clone();
                let kind = match t.text.as_str() {
                    "lock" => "lock",
                    "read" => "read",
                    _ => "write",
                };
                if kind == "lock" || rw_roots.contains(&root) {
                    let (until, var) = guard_scope(f, j, close, &braces);
                    acqs.push(GuardAcq { root, kind, tok: j, line: t.line, until, var });
                }
            }
        }
        j += 1;
    }
    acqs
}

/// Decide how long the guard produced at token `j` (the `lock`/`read`/
/// `write` ident) stays alive. Returns the inclusive token bound and the
/// `let` binding name if the guard is named.
fn guard_scope(f: &SourceFile, j: usize, body_close: usize, braces: &[usize]) -> (usize, Option<String>) {
    let toks = &f.tokens;

    // Walk back over the receiver path (`self . inner . field`).
    let mut k = j - 2; // receiver field ident
    while k >= 2 && toks[k - 1].is_punct('.') && toks[k - 2].kind == TokKind::Ident {
        k -= 2;
    }
    // Inspect the statement prefix back to the nearest `;`, `{` or `}`.
    let mut has_let = false;
    let mut in_cond = false; // `if let` / `while let` / `match` head
    let mut var: Option<String> = None;
    let mut b = k;
    while b > 0 {
        b -= 1;
        let t = &toks[b];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            has_let = true;
            // Binding name: a *plain* pattern only (`let g = …`,
            // `let mut g = …`). `let Some(x) = …` binds the pattern's
            // interior, not the guard — the guard stays a temporary.
            let mut n = b + 1;
            while n < k && (toks[n].is_ident("mut") || toks[n].is_ident("ref")) {
                n += 1;
            }
            if n < k
                && toks[n].kind == TokKind::Ident
                && toks.get(n + 1).is_some_and(|t| t.is_punct('=') || t.is_punct(':'))
            {
                var = Some(toks[n].text.clone());
            }
        }
        if t.is_ident("if") || t.is_ident("while") || t.is_ident("match") {
            in_cond = true;
        }
    }

    // `let g = m.lock().clone();` binds the *clone*; the guard itself is a
    // temporary released at the `;`. The binding only holds the guard when
    // the call chain ends at the acquisition — allowing the adapters that
    // return the guard itself (`?`, `.unwrap()`, `.expect("…")`).
    let stored = has_let && var.is_some() && chain_yields_guard(f, j + 2, body_close);

    if stored && !in_cond {
        // Plain `let g = …lock();` — held to the end of the enclosing
        // block, or to an explicit `drop(g)` if one comes first.
        let open = braces.last().copied().unwrap_or(0);
        let mut until = f.close_of.get(&open).copied().unwrap_or(body_close).min(body_close);
        if let Some(name) = &var {
            let mut m = j + 3;
            while m + 2 <= until {
                if toks[m].is_ident("drop")
                    && toks[m + 1].is_punct('(')
                    && toks[m + 2].is_ident(name)
                {
                    until = m;
                    break;
                }
                m += 1;
            }
        }
        return (until, var);
    }

    // Temporary (or condition-head) guard: held to the end of the statement,
    // extended through the attached block if one opens first (`if let`,
    // `while let`, `match` — the pre-2024 temporary scope).
    let mut depth: i32 = 0;
    let mut m = j + 3; // token after `( )`
    while m <= body_close {
        let t = &toks[m];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth <= 0 {
            return (f.close_of.get(&m).copied().unwrap_or(body_close).min(body_close), None);
        } else if (t.is_punct(';') || t.is_punct('}')) && depth <= 0 {
            return (m, None);
        }
        m += 1;
    }
    (body_close, None)
}

/// Does the call chain starting after the acquisition's `( )` (token
/// `close_paren`) end the statement still holding the guard? True for
/// `…lock();`, `…lock()?;`, `…lock().unwrap();`; false once any other
/// method is chained on (`…lock().clone()` hands back a non-guard).
fn chain_yields_guard(f: &SourceFile, close_paren: usize, body_close: usize) -> bool {
    let toks = &f.tokens;
    let mut m = close_paren + 1;
    while m <= body_close {
        let t = &toks[m];
        if t.is_punct('?') {
            m += 1;
            continue;
        }
        if t.is_punct('.')
            && toks.get(m + 1).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            && toks.get(m + 2).is_some_and(|t| t.is_punct('('))
        {
            m = f.close_of.get(&(m + 2)).copied().unwrap_or(m + 3) + 1;
            continue;
        }
        return t.is_punct(';');
    }
    false
}

/// Method names that block the calling thread outright.
const BLOCKING_METHODS: &[&str] =
    &["sleep", "recv", "recv_timeout", "recv_deadline", "accept", "wait", "wait_timeout", "dial"];

/// Is this call site a direct blocking seed?
///
/// `send` is special-cased: a *wire* send blocks on TCP backpressure, but a
/// crossbeam channel send does not — so `send` only counts when the
/// receiver's type hints do not name a channel `Sender`. `send_parts`, a
/// frame sent in parts, is a wire send like it.
pub fn blocking_seed(ws: &Workspace, caller: usize, c: &CallSite) -> Option<String> {
    let method_like = !matches!(c.recv, Recv::Bare | Recv::Path(_));
    if BLOCKING_METHODS.contains(&c.name.as_str()) {
        // Bare / path calls still count for sleep (`thread::sleep(…)`).
        if method_like || c.name == "sleep" {
            return Some(format!("{}()", c.name));
        }
        return None;
    }
    if (c.name == "send" || c.name == "send_parts") && method_like {
        let hints = ws.recv_hints(caller, c);
        let channel = hints.iter().any(|h| h == "Sender" || h == "SyncSender");
        if !channel {
            return Some(format!("{}()", c.name));
        }
    }
    None
}

/// Per-function transitive blocking facts.
pub struct Blocking {
    /// `blocks[id]` — may this function block its caller?
    pub blocks: Vec<bool>,
    /// A one-hop witness for each blocking fn (`sleep() at file.rs:10`, or
    /// `calls helper (→ sleep() at file.rs:10)`).
    pub witness: Vec<String>,
}

/// Compute the blocking fixpoint over the resolved call graph.
pub fn blocking_fixpoint(files: &[SourceFile], ws: &Workspace) -> Blocking {
    let n = ws.fns.len();
    let mut blocks = vec![false; n];
    let mut witness = vec![String::new(); n];

    for id in 0..n {
        let fi = &ws.fns[id];
        for c in &ws.calls[id] {
            if ws.in_spawn_arg(fi.file, c.tok) {
                continue; // runs on the spawned thread
            }
            if let Some(what) = blocking_seed(ws, id, c) {
                blocks[id] = true;
                witness[id] = format!("{what} at {}:{}", files[fi.file].path, c.line);
                break;
            }
        }
    }

    loop {
        let mut changed = false;
        for id in 0..n {
            if blocks[id] {
                continue;
            }
            let fi = &ws.fns[id];
            for (ci, c) in ws.calls[id].iter().enumerate() {
                if ws.in_spawn_arg(fi.file, c.tok) {
                    continue;
                }
                if let Some(&t) = ws.targets[id][ci].iter().find(|&&t| blocks[t]) {
                    blocks[id] = true;
                    witness[id] = format!("calls {} ({})", ws.fns[t].name, witness[t]);
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Blocking { blocks, witness }
}

// ---------------------------------------------------------------------------
// Field-access extraction and the entry-lockset fixpoint (the lockset race
// detector's dataflow half; the thread-role half lives in `graph.rs`).
// ---------------------------------------------------------------------------

/// One recorded read/write of a struct field.
#[derive(Debug)]
pub struct FieldAccess {
    /// Field name (keyed with the crate in `Workspace::field_types`).
    pub field: String,
    /// Write (assignment, compound assignment, or a mutating/`&mut`-taking
    /// method); everything else is a read.
    pub write: bool,
    /// Token index anchoring the access.
    pub tok: usize,
    pub line: u32,
    /// Lock fields held at the access: locks acquired on the access chain
    /// itself (`self.map.lock().insert(…)` holds `map`) plus `let`-bound
    /// guards live at the token.
    pub locks: BTreeSet<String>,
}

/// Workspace-wide field-access facts.
pub struct FieldFacts {
    /// Per fn: recorded accesses (empty for test fns).
    pub accesses: Vec<Vec<FieldAccess>>,
    /// Per fn: the lockset held at entry on *every* production call path
    /// (the intersection over call sites). `None` = ⊤: the fn is not
    /// reachable from production code, so its accesses cannot race.
    pub entry: Vec<Option<BTreeSet<String>>>,
}

/// Methods that mutate (or hand out `&mut` into) their receiver.
const MUTATING_METHODS: &[&str] = &[
    "insert", "remove", "remove_entry", "push", "push_back", "push_front", "pop", "pop_back",
    "pop_front", "clear", "drain", "retain", "take", "replace", "extend", "append", "truncate",
    "sort", "sort_by", "sort_by_key", "swap", "resize", "dedup", "get_mut", "entry", "or_default",
    "or_insert", "or_insert_with", "as_mut", "iter_mut", "values_mut", "first_mut", "last_mut",
    "front_mut", "back_mut", "fetch_add", "fetch_sub", "store", "compare_exchange",
    "fetch_update",
];

/// Methods whose result still points *into* the receiver, so further chain
/// segments keep touching the same field. Anything else returns an owned
/// value: the chain's field tracking stops there.
const INTERIOR_METHODS: &[&str] = &[
    "get", "get_mut", "entry", "or_default", "or_insert", "or_insert_with", "as_ref", "as_mut",
    "as_deref", "as_deref_mut", "iter", "iter_mut", "values", "values_mut", "keys", "first",
    "first_mut", "last", "last_mut", "front", "front_mut", "back", "back_mut",
];

/// Where a tracked local binding came from: the field it aliases (or points
/// into) and the locks that projection passed through.
#[derive(Debug, Clone, Default)]
struct Origin {
    field: Option<String>,
    locks: BTreeSet<String>,
}

/// Lock-typed field names per crate (`Mutex`/`RwLock` declared types) —
/// the roots on which `.read()`/`.write()` count as guard acquisitions.
pub fn lock_field_roots(ws: &Workspace) -> HashMap<&str, HashSet<String>> {
    let mut out: HashMap<&str, HashSet<String>> = HashMap::new();
    for ((krate, field), ty) in &ws.field_types {
        if ty.iter().any(|t| t == "RwLock" || t == "Mutex") {
            out.entry(krate.as_str()).or_default().insert(field.clone());
        }
    }
    out
}

/// Walk one `root(.seg)*` chain starting at ident token `start`. Records
/// accesses into `out` and returns the chain's resulting [`Origin`] plus
/// the last consumed token index.
fn walk_chain(
    f: &SourceFile,
    start: usize,
    origin: &Origin,
    lock_roots: &HashSet<String>,
    crate_fields: &HashSet<&str>,
    out: &mut Vec<FieldAccess>,
) -> (Origin, usize) {
    let toks = &f.tokens;
    let mut cur = origin.field.clone();
    let mut locks = origin.locks.clone();
    let mut recorded = false;
    let mut k = start;

    let record = |out: &mut Vec<FieldAccess>, field: &str, write: bool, tok: usize, locks: &BTreeSet<String>| {
        if crate_fields.contains(field) {
            out.push(FieldAccess {
                field: field.to_string(),
                write,
                tok,
                line: toks[tok].line,
                locks: locks.clone(),
            });
        }
    };

    loop {
        if !toks.get(k + 1).is_some_and(|t| t.is_punct('.')) {
            break;
        }
        let Some(name) = toks.get(k + 2) else { break };
        if name.kind != TokKind::Ident {
            break; // `..` range, `.0` tuple index
        }
        if toks.get(k + 3).is_some_and(|t| t.is_punct('(')) {
            let popen = k + 3;
            let pclose = f.close_of.get(&popen).copied().unwrap_or(popen);
            let nm = name.text.as_str();
            let is_lock = pclose == popen + 1
                && (nm == "lock"
                    || ((nm == "read" || nm == "write")
                        && cur.as_deref().is_some_and(|c| lock_roots.contains(c))));
            if is_lock {
                if let Some(c) = &cur {
                    locks.insert(c.clone());
                }
                // The guard derefs to the contents: the chain keeps
                // touching the same field, now under its lock.
            } else if matches!(nm, "unwrap" | "expect") {
                // Pass-through adapters (`lock().unwrap()` std style).
            } else if let Some(c) = cur.clone() {
                record(out, &c, MUTATING_METHODS.contains(&nm), k + 2, &locks);
                recorded = true;
                if !INTERIOR_METHODS.contains(&nm) {
                    // Owned result (clone, len, load, …): further chain
                    // segments are off the shared field.
                    cur = None;
                    locks = origin.locks.clone();
                }
            }
            k = pclose;
        } else {
            cur = Some(name.text.clone());
            recorded = false;
            k += 2;
        }
    }

    // Assignment / compound-assignment detection after the chain end.
    let p = |i: usize, ch: char| toks.get(i).is_some_and(|t| t.is_punct(ch));
    let is_write = if p(k + 1, '=') {
        // `=` but not `==` / `=>`.
        !p(k + 2, '=') && !p(k + 2, '>')
    } else if ['+', '-', '*', '/', '%', '&', '|', '^'].iter().any(|&c| p(k + 1, c)) && p(k + 2, '=')
    {
        // `+=` and friends. (`a && b` has no `=` after the second `&`;
        // `a <= b` is handled below.)
        !['&', '|'].iter().any(|&c| p(k + 1, c) && p(k + 2, c))
    } else {
        // `<<=` / `>>=`.
        (p(k + 1, '<') && p(k + 2, '<') && p(k + 3, '='))
            || (p(k + 1, '>') && p(k + 2, '>') && p(k + 3, '='))
    };

    if let Some(c) = &cur {
        if is_write {
            record(out, c, true, k, &locks);
        } else if !recorded {
            record(out, c, false, k, &locks);
        }
    }
    (Origin { field: cur, locks }, k)
}

/// Skip a nested `fn` item starting at token `j` (the `fn` ident); returns
/// the token index after its body, or `None` when `j` is not a nested fn
/// with a body. Nested fns are their own [`FnInfo`] entries — their
/// accesses must not be attributed to the enclosing fn too.
fn skip_nested_fn(f: &SourceFile, j: usize) -> Option<usize> {
    let toks = &f.tokens;
    if !toks[j].is_ident("fn") || toks.get(j + 1).map(|t| t.kind) != Some(TokKind::Ident) {
        return None;
    }
    let mut k = j + 2;
    while k < toks.len() {
        if toks[k].is_punct('(') {
            k = f.close_of.get(&k).copied()? + 1;
            break;
        }
        if toks[k].is_punct('{') || toks[k].is_punct(';') {
            return None;
        }
        k += 1;
    }
    while k < toks.len() {
        if toks[k].is_punct('{') {
            return f.close_of.get(&k).map(|&c| c + 1);
        }
        if toks[k].is_punct(';') {
            return None;
        }
        k += 1;
    }
    None
}

/// First pass over a fn body: `let` bindings whose right-hand side roots at
/// `self` (or an already-tracked binding) become tracked aliases/derived
/// pointers, carrying the field they point into and the locks on the path.
fn compute_origins(
    f: &SourceFile,
    fi: &FnInfo,
    lock_roots: &HashSet<String>,
    crate_fields: &HashSet<&str>,
) -> HashMap<String, Origin> {
    let toks = &f.tokens;
    let mut origins: HashMap<String, Origin> = HashMap::new();
    let mut scratch = Vec::new();
    let mut j = fi.open + 1;
    while j < fi.close {
        if let Some(next) = skip_nested_fn(f, j) {
            j = next;
            continue;
        }
        if !toks[j].is_ident("let") {
            j += 1;
            continue;
        }
        // Pattern runs to `=` at depth 0.
        let mut depth = 0i32;
        let mut eq = None;
        let mut k = j + 1;
        while k < fi.close {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')')
                || t.is_punct(']')
                || (t.is_punct('>') && !toks[k - 1].is_punct('-'))
            {
                depth -= 1;
            } else if t.is_punct('=') && depth <= 0 && !toks.get(k + 1).is_some_and(|t| t.is_punct('=')) {
                eq = Some(k);
                break;
            } else if t.is_punct(';') || t.is_punct('{') {
                break;
            }
            k += 1;
        }
        let Some(eq) = eq else {
            j = k + 1;
            continue;
        };
        let names: Vec<String> = toks[j + 1..eq]
            .iter()
            .filter(|t| {
                t.kind == TokKind::Ident
                    && !matches!(t.text.as_str(), "mut" | "ref" | "Some" | "Ok" | "Err" | "None" | "_")
            })
            .map(|t| t.text.clone())
            .collect();

        // Root of the RHS, peeling `&`/`*`/`mut` and `Arc::clone(&…)`.
        let mut r = eq + 1;
        let mut by_ref = false;
        loop {
            while r < fi.close
                && (toks[r].is_punct('&') || toks[r].is_punct('*') || toks[r].is_ident("mut"))
            {
                by_ref |= toks[r].is_punct('&');
                r += 1;
            }
            if r + 4 < fi.close
                && toks[r].kind == TokKind::Ident
                && matches!(toks[r].text.as_str(), "Arc" | "Rc")
                && toks[r + 1].is_punct(':')
                && toks[r + 2].is_punct(':')
                && toks[r + 3].is_ident("clone")
                && toks[r + 4].is_punct('(')
            {
                r += 5;
                continue;
            }
            break;
        }
        if r >= fi.close || toks[r].kind != TokKind::Ident {
            j = eq + 1;
            continue;
        }
        let root = toks[r].text.as_str();
        let origin = if root == "self" {
            let (o, _) = walk_chain(f, r, &Origin::default(), lock_roots, crate_fields, &mut scratch);
            Some(o)
        } else if let Some(base) = origins.get(root).cloned() {
            let (o, _) = walk_chain(f, r, &base, lock_roots, crate_fields, &mut scratch);
            Some(o)
        } else {
            None
        };
        scratch.clear();
        if let Some(o) = origin {
            // Track the binding only when it can still *point into* the
            // field: a lock guard (or something projected through one), a
            // `&`-reference, or a chain off an already-tracked reference.
            // `let mut exp = self.base_backoff_ns;` binds a value copy —
            // later writes to `exp` do not touch the field (and the RHS
            // read is already recorded at the `let` itself).
            let aliasing = !o.locks.is_empty() || by_ref;
            if o.field.is_some() && aliasing {
                for n in &names {
                    origins.insert(n.clone(), o.clone());
                }
            }
        }
        j = eq + 1;
    }
    origins
}

/// Extract every field access of one (non-test) fn, with chain locks and
/// live `let`-guard locks folded in.
fn extract_accesses(
    f: &SourceFile,
    fi: &FnInfo,
    ws: &Workspace,
    origins: &HashMap<String, Origin>,
    acqs: &[GuardAcq],
    lock_roots: &HashSet<String>,
    crate_fields: &HashSet<&str>,
) -> Vec<FieldAccess> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut j = fi.open + 1;
    while j < fi.close {
        if let Some(next) = skip_nested_fn(f, j) {
            j = next;
            continue;
        }
        let t = &toks[j];
        if t.is_ident("let") {
            // Skip the binding pattern: `let c = …` is not an assignment
            // *through* `c`. The RHS (after `=`) is scanned normally.
            let mut depth = 0i32;
            let mut k = j + 1;
            while k < fi.close {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct(')')
                    || t.is_punct(']')
                    || (t.is_punct('>') && !toks[k - 1].is_punct('-'))
                {
                    depth -= 1;
                } else if (t.is_punct('=') && depth <= 0) || t.is_punct(';') || t.is_punct('{') {
                    break;
                }
                k += 1;
            }
            j = k + 1;
            continue;
        }
        let is_root = t.kind == TokKind::Ident
            && !toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'));
        if is_root {
            if t.is_ident("self") {
                walk_chain(f, j, &Origin::default(), lock_roots, crate_fields, &mut out);
            } else if let Some(o) = origins.get(t.text.as_str()) {
                walk_chain(f, j, o, lock_roots, crate_fields, &mut out);
            }
        }
        j += 1;
    }

    // Fold in `let`-bound guards live at each access. A guard acquired
    // outside a spawn closure is not held by the spawned thread, however
    // the token ranges overlap — skip those pairs.
    let norm = |root: &str| -> String {
        origins
            .get(root)
            .and_then(|o| o.field.clone())
            .unwrap_or_else(|| root.to_string())
    };
    let ranges = &ws.spawn_ranges[fi.file];
    for a in &mut out {
        for g in acqs {
            if g.tok < a.tok && a.tok <= g.until {
                let crosses_spawn = ranges
                    .iter()
                    .any(|&(ra, rb)| ra < a.tok && a.tok < rb && !(ra < g.tok && g.tok < rb));
                if !crosses_spawn {
                    a.locks.insert(norm(&g.root));
                }
            }
        }
    }
    out
}

/// Compute field accesses and the entry-lockset fixpoint for the whole
/// workspace.
///
/// `entry[f]` is the intersection, over every production call site of `f`
/// outside spawn arguments, of the caller's live locks at the site plus the
/// caller's own entry set — i.e. the locks *always* held when `f` runs.
/// Entry roots (API surface, spawn entry points) start at the empty set;
/// unreached fns stay `None` (⊤).
pub fn field_facts(files: &[SourceFile], ws: &Workspace) -> FieldFacts {
    let n = ws.fns.len();
    let lock_roots_by_crate = lock_field_roots(ws);
    let mut crate_fields: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (krate, field) in ws.field_types.keys() {
        crate_fields.entry(krate.as_str()).or_default().insert(field.as_str());
    }
    let empty_roots = HashSet::new();
    let empty_fields = HashSet::new();

    let mut accesses: Vec<Vec<FieldAccess>> = Vec::with_capacity(n);
    let mut acqs_all: Vec<Vec<GuardAcq>> = Vec::with_capacity(n);
    let mut origins_all: Vec<HashMap<String, Origin>> = Vec::with_capacity(n);
    for id in 0..n {
        let fi = &ws.fns[id];
        if fi.is_test {
            accesses.push(Vec::new());
            acqs_all.push(Vec::new());
            origins_all.push(HashMap::new());
            continue;
        }
        let f = &files[fi.file];
        let lock_roots = lock_roots_by_crate.get(fi.crate_name.as_str()).unwrap_or(&empty_roots);
        let cfields = crate_fields.get(fi.crate_name.as_str()).unwrap_or(&empty_fields);
        let acqs = guard_acqs(f, fi.open, fi.close, lock_roots);
        let origins = compute_origins(f, fi, lock_roots, cfields);
        accesses.push(extract_accesses(f, fi, ws, &origins, &acqs, lock_roots, cfields));
        acqs_all.push(acqs);
        origins_all.push(origins);
    }

    // Entry-lockset fixpoint (sets only ever shrink, so it terminates).
    let mut entry: Vec<Option<BTreeSet<String>>> = vec![None; n];
    for (id, e) in entry.iter_mut().enumerate() {
        if !ws.fns[id].is_test && ws.entry_roots[id] {
            *e = Some(BTreeSet::new());
        }
    }
    loop {
        let mut changed = false;
        for id in 0..n {
            if ws.fns[id].is_test {
                continue;
            }
            let Some(base) = entry[id].clone() else { continue };
            let file = ws.fns[id].file;
            let norm = |root: &str| -> String {
                origins_all[id]
                    .get(root)
                    .and_then(|o| o.field.clone())
                    .unwrap_or_else(|| root.to_string())
            };
            for (ci, c) in ws.calls[id].iter().enumerate() {
                if ws.in_spawn_arg(file, c.tok) {
                    continue;
                }
                let mut at_call = base.clone();
                for g in &acqs_all[id] {
                    if g.tok < c.tok && c.tok <= g.until {
                        at_call.insert(norm(&g.root));
                    }
                }
                for &t in &ws.targets[id][ci] {
                    let new = match &entry[t] {
                        None => at_call.clone(),
                        Some(cur) => cur.intersection(&at_call).cloned().collect(),
                    };
                    if entry[t].as_ref() != Some(&new) {
                        entry[t] = Some(new);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    FieldFacts { accesses, entry }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Workspace;

    fn setup(src: &str) -> (Vec<SourceFile>, Workspace) {
        let files = vec![SourceFile::from_source("crates/x/src/lib.rs", "x", false, src)];
        let ws = Workspace::build(&files);
        (files, ws)
    }

    #[test]
    fn let_guard_lives_to_block_end_and_drop_truncates() {
        let src = r#"
            struct S { m: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.m.lock();
                    work();
                    drop(g);
                    more();
                }
            }
        "#;
        let (files, _) = setup(src);
        let f = &files[0];
        let open = f.tokens.iter().position(|t| t.is_ident("f")).unwrap();
        let fn_open = (open..f.tokens.len()).find(|&i| f.tokens[i].is_punct('{')).unwrap();
        let close = f.close_of[&fn_open];
        let acqs = guard_acqs(f, fn_open, close, &HashSet::new());
        assert_eq!(acqs.len(), 1);
        let drop_tok = f.tokens.iter().position(|t| t.is_ident("drop")).unwrap();
        assert_eq!(acqs[0].until, drop_tok);
        assert_eq!(acqs[0].var.as_deref(), Some("g"));
    }

    fn acqs_of(src: &str, fn_name: &str) -> (Vec<SourceFile>, Vec<GuardAcq>) {
        let files = vec![SourceFile::from_source("crates/x/src/lib.rs", "x", false, src)];
        let f = &files[0];
        let at = f.tokens.iter().position(|t| t.is_ident(fn_name)).unwrap();
        let open = (at..f.tokens.len()).find(|&i| f.tokens[i].is_punct('{')).unwrap();
        let close = f.close_of[&open];
        let mut rw = HashSet::new();
        rw.insert("objects".to_string());
        let acqs = guard_acqs(f, open, close, &rw);
        (files, acqs)
    }

    #[test]
    fn lock_clone_binding_is_a_temporary_guard() {
        // `let h = self.health.lock().clone();` binds the clone — the guard
        // drops at the `;`, not at the end of the block.
        let src = r#"
            impl S {
                fn f(&self) {
                    let h = self.health.lock().clone();
                    h.record_failure(&k);
                }
            }
        "#;
        let (files, acqs) = acqs_of(src, "f");
        let f = &files[0];
        assert_eq!(acqs.len(), 1);
        assert!(acqs[0].var.is_none());
        let semi = (acqs[0].tok..f.tokens.len())
            .find(|&i| f.tokens[i].is_punct(';'))
            .unwrap();
        assert_eq!(acqs[0].until, semi, "guard should end at the statement");
    }

    #[test]
    fn lock_unwrap_binding_still_holds_the_guard() {
        // std-style `let g = m.lock().unwrap();` — unwrap hands back the
        // guard, so the binding keeps it to the end of the block.
        let src = r#"
            impl S {
                fn f(&self) {
                    let g = self.m.lock().unwrap();
                    work();
                }
            }
        "#;
        let (files, acqs) = acqs_of(src, "f");
        let f = &files[0];
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].var.as_deref(), Some("g"));
        assert!(acqs[0].until > f.tokens.iter().position(|t| t.is_ident("work")).unwrap());
    }

    #[test]
    fn let_else_pattern_guard_is_a_temporary() {
        // `let Some(x) = map.read().get(&k).cloned() else { … };` — the read
        // guard is a temporary of the let-else statement; it must not be
        // treated as live to the end of the enclosing block.
        let src = r#"
            impl S {
                fn f(&self) {
                    let Some(x) = self.objects.read().get(&k).cloned() else {
                        return;
                    };
                    later(x);
                }
            }
        "#;
        let (files, acqs) = acqs_of(src, "f");
        let f = &files[0];
        assert_eq!(acqs.len(), 1);
        assert!(acqs[0].var.is_none());
        let later = f.tokens.iter().position(|t| t.is_ident("later")).unwrap();
        assert!(acqs[0].until < later, "guard must not reach past the let-else");
    }

    #[test]
    fn transitive_blocking_through_helper() {
        let src = r#"
            fn a() { b(); }
            fn b() { std::thread::sleep(d); }
            fn c() {}
        "#;
        let (files, ws) = setup(src);
        let bl = blocking_fixpoint(&files, &ws);
        let id = |n: &str| ws.fns.iter().position(|f| f.name == n).unwrap();
        assert!(bl.blocks[id("a")], "{:?}", bl.witness);
        assert!(bl.blocks[id("b")]);
        assert!(!bl.blocks[id("c")]);
        assert!(bl.witness[id("a")].contains("sleep"), "{}", bl.witness[id("a")]);
    }

    #[test]
    fn spawned_closure_does_not_block_its_spawner() {
        let src = r#"
            fn serve() { std::thread::spawn(move || { reader(); }); }
            fn reader() { rx.recv(); }
        "#;
        let (files, ws) = setup(src);
        let bl = blocking_fixpoint(&files, &ws);
        let id = |n: &str| ws.fns.iter().position(|f| f.name == n).unwrap();
        assert!(!bl.blocks[id("serve")]);
        assert!(bl.blocks[id("reader")]);
    }

    #[test]
    fn channel_sender_send_is_not_a_seed() {
        let src = r#"
            fn f(tx: &Sender<u32>, conn: &mut dyn Connection) {
                tx.send(1);
                conn.send(&b);
            }
        "#;
        let (files, ws) = setup(src);
        let bl = blocking_fixpoint(&files, &ws);
        // The conn.send seed still marks f as blocking…
        assert!(bl.blocks[0]);
        // …but the tx.send alone would not.
        let id = 0;
        let seeds: Vec<_> = ws.calls[id]
            .iter()
            .filter_map(|c| blocking_seed(&ws, id, c).map(|_| c.line))
            .collect();
        assert_eq!(seeds.len(), 1, "{seeds:?}");
        let _ = files;
    }

    fn facts_of(src: &str) -> (Vec<SourceFile>, Workspace, FieldFacts) {
        let (files, ws) = setup(src);
        let facts = field_facts(&files, &ws);
        (files, ws, facts)
    }

    fn fn_accesses<'a>(ws: &Workspace, facts: &'a FieldFacts, name: &str) -> &'a [FieldAccess] {
        let id = ws.fns.iter().position(|f| f.name == name).unwrap();
        &facts.accesses[id]
    }

    #[test]
    fn plain_field_read_and_write_are_recorded() {
        let src = r#"
            struct S { count: u64, name: String }
            impl S {
                fn f(&self) {
                    let c = self.count;
                    self.count = c + 1;
                    self.count += 1;
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        let reads: Vec<_> = acc.iter().filter(|a| !a.write).collect();
        let writes: Vec<_> = acc.iter().filter(|a| a.write).collect();
        // One read (at the `let` RHS — `c` itself binds a value copy and
        // is not tracked further) and the two direct writes.
        assert_eq!(reads.len(), 1, "{acc:?}");
        assert_eq!(writes.len(), 2, "{acc:?}");
        assert!(acc.iter().all(|a| a.field == "count" && a.locks.is_empty()));
    }

    #[test]
    fn equality_and_match_arrows_are_not_writes() {
        let src = r#"
            struct S { count: u64 }
            impl S {
                fn f(&self) -> bool {
                    match self.count == 0 {
                        true => self.count <= 1,
                        _ => false,
                    }
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        assert!(acc.iter().all(|a| !a.write), "{acc:?}");
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn chain_lock_protects_the_locked_field() {
        let src = r#"
            struct S { map: Mutex<HashMap<u32, u32>> }
            impl S {
                fn f(&self) {
                    self.map.lock().insert(1, 2);
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        assert_eq!(acc.len(), 1, "{acc:?}");
        assert!(acc[0].write);
        assert!(acc[0].locks.contains("map"));
    }

    #[test]
    fn rwlock_read_write_only_count_on_lock_typed_fields() {
        let src = r#"
            struct S { or: RwLock<Table>, file: File }
            impl S {
                fn f(&self) {
                    self.or.write().swap(0, 1);
                    self.file.write();
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        let or = acc.iter().find(|a| a.field == "or").unwrap();
        assert!(or.locks.contains("or"), "{acc:?}");
        // `self.file.write()` is a plain method call, recorded unlocked.
        let file = acc.iter().find(|a| a.field == "file").unwrap();
        assert!(file.locks.is_empty());
    }

    #[test]
    fn guard_variable_carries_lock_through_later_uses() {
        let src = r#"
            struct S { waiters: Mutex<Vec<u32>> }
            impl S {
                fn f(&self) {
                    let mut w = self.waiters.lock();
                    w.push(1);
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        let push = acc.iter().find(|a| a.write && a.field == "waiters").unwrap();
        assert!(push.locks.contains("waiters"), "{acc:?}");
    }

    #[test]
    fn derived_get_mut_write_keeps_the_map_lock() {
        // The PR 5 breaker-registry shape: a value obtained through
        // `map.lock().get_mut(..)` is still under the map's lock.
        let src = r#"
            struct R { map: Mutex<HashMap<String, H>>, state: Option<u32> }
            impl R {
                fn f(&self) {
                    let mut m = self.map.lock();
                    if let Some(h) = m.get_mut("k") {
                        h.state = Some(1);
                    }
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        let w = acc.iter().find(|a| a.write && a.field == "state");
        assert!(w.is_some_and(|a| a.locks.contains("map")), "{acc:?}");
    }

    #[test]
    fn clone_breaks_origin_tracking() {
        let src = r#"
            struct S { tbl: Mutex<Table>, count: u64 }
            impl S {
                fn f(&self) {
                    let snapshot = self.tbl.lock().clone();
                    snapshot.count;
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        // The clone() itself reads `tbl` under its lock; the snapshot's
        // `count` is an owned copy and must NOT be recorded as a field
        // access of S::count.
        assert!(acc.iter().all(|a| a.field != "count"), "{acc:?}");
    }

    #[test]
    fn guard_outside_spawn_closure_does_not_protect_inside() {
        let src = r#"
            struct S { jobs: Mutex<Vec<u32>>, count: u64 }
            impl S {
                fn f(&self) {
                    let g = self.jobs.lock();
                    std::thread::spawn(move || {
                        self.count += 1;
                    });
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        let w = acc.iter().find(|a| a.write && a.field == "count").unwrap();
        assert!(w.locks.is_empty(), "{acc:?}");
    }

    #[test]
    fn entry_lockset_intersects_over_call_sites() {
        let src = r#"
            struct S { m: Mutex<u32>, count: u64 }
            impl S {
                pub fn locked(&self) {
                    let g = self.m.lock();
                    self.bump();
                }
                pub fn unlocked(&self) {
                    self.bump();
                }
                fn bump(&self) { self.count += 1; }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let id = |n: &str| ws.fns.iter().position(|f| f.name == n).unwrap();
        // Both public fns are entry roots (empty entry set); bump is called
        // with {m} from one and {} from the other → intersection {}.
        assert_eq!(facts.entry[id("locked")], Some(BTreeSet::new()));
        assert_eq!(facts.entry[id("bump")], Some(BTreeSet::new()));
    }

    #[test]
    fn entry_lockset_keeps_always_held_lock() {
        let src = r#"
            struct S { m: Mutex<u32>, count: u64 }
            impl S {
                pub fn a(&self) {
                    let g = self.m.lock();
                    self.bump();
                }
                pub fn b(&self) {
                    let g = self.m.lock();
                    self.bump();
                }
                fn bump(&self) { self.count += 1; }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let id = |n: &str| ws.fns.iter().position(|f| f.name == n).unwrap();
        let e = facts.entry[id("bump")].clone().unwrap();
        assert!(e.contains("m"), "{e:?}");
    }

    #[test]
    fn nested_fn_accesses_are_not_attributed_to_parent() {
        let src = r#"
            struct S { count: u64 }
            impl S {
                fn outer(&self) {
                    fn inner(s: &S) { s.count; }
                    other();
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "outer");
        assert!(acc.is_empty(), "{acc:?}");
    }

    #[test]
    fn writes_through_a_value_copy_are_not_field_writes() {
        // The `backoff_ns` shape: a `let mut exp = self.base;` copy that is
        // then mutated locally must not count as a field write.
        let src = r#"
            struct S { base: u64 }
            impl S {
                fn f(&self) -> u64 {
                    let mut exp = self.base;
                    exp = exp.saturating_mul(2);
                    exp += 1;
                    exp
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        assert!(acc.iter().all(|a| !a.write), "{acc:?}");
        assert_eq!(acc.len(), 1, "{acc:?}");
    }

    #[test]
    fn reference_binding_still_tracks_the_field() {
        let src = r#"
            struct S { buf: Vec<u8> }
            impl S {
                fn f(&self) {
                    let r = &self.buf;
                    r.len();
                }
            }
        "#;
        let (_f, ws, facts) = facts_of(src);
        let acc = fn_accesses(&ws, &facts, "f");
        assert_eq!(acc.iter().filter(|a| a.field == "buf" && !a.write).count(), 2, "{acc:?}");
    }

    #[test]
    fn lock_field_roots_covers_mutex_and_rwlock() {
        let src = r#"
            struct S { a: Mutex<u32>, b: RwLock<u32>, c: Arc<Mutex<u32>>, d: u32 }
        "#;
        let (_f, ws) = setup(src);
        let roots = lock_field_roots(&ws);
        let x = roots.get("x").unwrap();
        assert!(x.contains("a") && x.contains("b") && x.contains("c"));
        assert!(!x.contains("d"));
    }
}
