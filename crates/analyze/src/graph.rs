//! Workspace symbol table and conservative may-call graph.
//!
//! This is the interprocedural backbone the dataflow rules sit on. It is
//! deliberately *not* a type checker: the goal is a may-call relation that
//! is right often enough to carry lock and blocking facts across function
//! and crate boundaries, and honest (empty) where resolution would be a
//! guess.
//!
//! What it models, per file:
//!
//! * `impl` blocks — self type and (for `impl Trait for Type`) trait name,
//!   so `x.m()` on a receiver whose type hints at `Type` or `dyn Trait`
//!   resolves to the right methods.
//! * `use` declarations — a flat ident → path map (groups and `as` renames
//!   included), so `telem::track_send(…)` and imported free functions
//!   resolve across crates.
//! * struct fields — field name → type-ident list per crate, so
//!   `self.conn.lock()` knows the guarded value is a `Box<dyn Connection>`.
//! * function bodies — every call site with a *receiver root*: `self.m(…)`,
//!   `self.field.m(…)`, `var.m(…)` (peeling through chained calls like
//!   `.lock()`), `Path::to::m(…)`, and bare `m(…)`.
//! * local type hints — parameter types plus a small `let`-binding
//!   inference (`X::new(…)` → `X`, `….dial(…)` → `Connection`,
//!   `….try_split()` → `SendHalf`/`RecvHalf`, root-hint propagation for
//!   plain forwarding bindings).
//! * spawn regions — the argument ranges of `…spawn(…)` calls (code inside
//!   a spawned closure runs on another thread, so it does not block its
//!   spawner), the thread-creation sites, and which of them can reach each
//!   function.
//!
//! Resolution is conservative in the may-call direction (a call site can
//! resolve to several candidates, e.g. every impl of a trait method) and
//! returns no candidates when the receiver cannot be rooted.

use std::collections::{HashMap, HashSet};

use crate::lexer::TokKind;
use crate::source::SourceFile;

/// One function parameter: binding name plus the idents of its type.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub type_idents: Vec<String>,
}

/// One function (or method) with a body.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into the `files` slice the workspace was built from.
    pub file: usize,
    pub crate_name: String,
    pub name: String,
    /// Self type of the enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    /// Trait name for `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
    pub has_self: bool,
    /// `&mut self` or `mut self` receiver: the borrow checker already
    /// guarantees exclusive access, so field accesses here cannot race.
    pub self_mut: bool,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token indices of the body `{` / `}`.
    pub open: usize,
    pub close: usize,
    pub line: u32,
    pub params: Vec<Param>,
    /// In a `#[cfg(test)]` region, a tests/ dir, or a macro body.
    pub is_test: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.m(…)`
    SelfDot,
    /// `Self::m(…)`
    SelfAssoc,
    /// `self.f.m(…)` (possibly through chained calls) — rooted at field `f`.
    Field(String),
    /// `v.m(…)` rooted at local/param `v`; `field` is the last field in a
    /// `v.a.b.m(…)` path, used as a type-lookup fallback.
    Var { var: String, field: Option<String> },
    /// `a::b::m(…)` — qualifier segments.
    Path(Vec<String>),
    /// Bare `m(…)`.
    Bare,
    /// Chained on something with no nameable root (`f().m(…)`, `"s".m(…)`).
    Opaque,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Token index of the callee ident.
    pub tok: usize,
    pub line: u32,
    pub name: String,
    pub recv: Recv,
}

/// Context id for the main/API thread context.
pub const CTX_MAIN: usize = 0;

/// One production `…spawn(…)` call: a thread-creation site. Context ids
/// are `CTX_MAIN` (0) for the main/API context and `1 + site_index` for the
/// thread(s) created by `spawn_sites[site_index]`.
#[derive(Debug)]
pub struct SpawnSite {
    /// File index.
    pub file: usize,
    /// Token indices of the argument list `(` / `)`.
    pub open: usize,
    pub close: usize,
    pub line: u32,
    /// True when the site can create more than one live thread: it sits in
    /// a `loop`/`while`/`for` body or an iterator-adapter closure
    /// (`.map(…)`, `.for_each(…)`), or its enclosing function itself runs
    /// in a multi-instance context. A multi-instance context can race with
    /// *itself*.
    pub multi: bool,
}

/// Keywords and constructors that look like call syntax but are not calls
/// we want to follow.
const NOT_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "move", "else", "in", "as", "box", "await",
    "fn", "impl", "where", "unsafe", "Some", "Ok", "Err", "None",
];

/// The workspace-wide symbol table and call graph.
pub struct Workspace {
    pub fns: Vec<FnInfo>,
    /// Per function: its call sites.
    pub calls: Vec<Vec<CallSite>>,
    /// Per function, per call site: resolved candidate callees (fn indices).
    pub targets: Vec<Vec<Vec<usize>>>,
    /// Deduplicated forward edges (resolved callees).
    pub callees: Vec<Vec<usize>>,
    /// Deduplicated reverse edges (resolved callers).
    pub callers: Vec<Vec<usize>>,
    /// (crate, field name) → type idents of the field's declared type,
    /// unioned across every same-named field in the crate (field identity
    /// is name-based everywhere downstream).
    pub field_types: HashMap<(String, String), Vec<String>>,
    /// Per function: binding name → type idents (params + `let` inference).
    pub local_hints: Vec<HashMap<String, Vec<String>>>,
    /// Per file: token ranges (open paren, close paren) of `…spawn(…)` args.
    pub spawn_ranges: Vec<Vec<(usize, usize)>>,
    /// Production thread-creation sites (test spawns excluded).
    pub spawn_sites: Vec<SpawnSite>,
    /// Per function: sorted context ids that can reach it — `CTX_MAIN`
    /// and/or `1 + spawn_site` entries. Empty for test fns and fns no
    /// production context reaches.
    pub roles: Vec<Vec<usize>>,
    /// Per function: true when it is an analysis entry root — no
    /// production non-spawn caller, or spawn-seeded. Entry-lockset
    /// propagation starts from these with the empty lockset.
    pub entry_roots: Vec<bool>,

    by_type_method: HashMap<(String, String), Vec<usize>>,
    by_trait_method: HashMap<(String, String), Vec<usize>>,
    by_crate_free: HashMap<(String, String), Vec<usize>>,
    by_crate_method: HashMap<(String, String), Vec<usize>>,
    /// Per file: local ident → `use` path segments.
    use_maps: Vec<HashMap<String, Vec<String>>>,
    /// All first-party crate names.
    crates: HashSet<String>,
    /// Per file: close index → open index (inverse of `close_of`).
    open_of: Vec<HashMap<usize, usize>>,
}

impl Workspace {
    /// Build the symbol table and resolve every call site.
    pub fn build(files: &[SourceFile]) -> Workspace {
        let mut ws = Workspace {
            fns: Vec::new(),
            calls: Vec::new(),
            targets: Vec::new(),
            callees: Vec::new(),
            callers: Vec::new(),
            field_types: HashMap::new(),
            local_hints: Vec::new(),
            spawn_ranges: Vec::new(),
            spawn_sites: Vec::new(),
            roles: Vec::new(),
            entry_roots: Vec::new(),
            by_type_method: HashMap::new(),
            by_trait_method: HashMap::new(),
            by_crate_free: HashMap::new(),
            by_crate_method: HashMap::new(),
            use_maps: Vec::new(),
            crates: HashSet::new(),
            open_of: Vec::new(),
        };

        for (fi, f) in files.iter().enumerate() {
            ws.crates.insert(f.crate_name.clone());
            ws.open_of.push(f.close_of.iter().map(|(&o, &c)| (c, o)).collect());
            ws.use_maps.push(parse_uses(f));
            ws.spawn_ranges.push(find_spawn_ranges(f));
            collect_struct_fields(f, &mut ws.field_types);
            collect_fns(f, fi, &mut ws.fns);
        }

        // Index functions for resolution.
        for (id, fi) in ws.fns.iter().enumerate() {
            if let Some(t) = &fi.impl_type {
                ws.by_type_method.entry((t.clone(), fi.name.clone())).or_default().push(id);
                if let Some(tr) = &fi.trait_name {
                    ws.by_trait_method.entry((tr.clone(), fi.name.clone())).or_default().push(id);
                }
            }
            if fi.has_self {
                ws.by_crate_method
                    .entry((fi.crate_name.clone(), fi.name.clone()))
                    .or_default()
                    .push(id);
            } else if fi.impl_type.is_none() {
                ws.by_crate_free
                    .entry((fi.crate_name.clone(), fi.name.clone()))
                    .or_default()
                    .push(id);
            }
        }

        // Call sites and local hints.
        for id in 0..ws.fns.len() {
            let fi = &ws.fns[id];
            let f = &files[fi.file];
            ws.calls.push(find_calls(f, fi, &ws.open_of[fi.file]));
            ws.local_hints.push(local_hints(f, fi, &ws.field_types));
        }

        // Resolve.
        for id in 0..ws.fns.len() {
            let mut per_call = Vec::new();
            for ci in 0..ws.calls[id].len() {
                per_call.push(ws.resolve(id, &ws.calls[id][ci]));
            }
            ws.targets.push(per_call);
        }
        for id in 0..ws.fns.len() {
            let mut fwd: Vec<usize> = ws.targets[id].iter().flatten().copied().collect();
            fwd.sort_unstable();
            fwd.dedup();
            ws.callees.push(fwd);
        }
        ws.callers = vec![Vec::new(); ws.fns.len()];
        for id in 0..ws.fns.len() {
            for &t in &ws.callees[id] {
                ws.callers[t].push(id);
            }
        }

        ws.spawn_sites = ws.compute_spawn_sites(files);
        ws.compute_roles(files);
        ws
    }

    /// Type hints for a call site's receiver, resolved against the caller's
    /// locals, params and the crate's field table. Empty when unknown.
    pub fn recv_hints(&self, caller: usize, c: &CallSite) -> Vec<String> {
        let fi = &self.fns[caller];
        match &c.recv {
            Recv::Field(name) => self
                .field_types
                .get(&(fi.crate_name.clone(), name.clone()))
                .cloned()
                .unwrap_or_default(),
            Recv::Var { var, field } => {
                if let Some(h) = self.local_hints[caller].get(var) {
                    if !h.is_empty() {
                        return h.clone();
                    }
                }
                field
                    .as_ref()
                    .and_then(|fld| self.field_types.get(&(fi.crate_name.clone(), fld.clone())))
                    .cloned()
                    .unwrap_or_default()
            }
            Recv::SelfDot | Recv::SelfAssoc => {
                fi.impl_type.clone().map(|t| vec![t]).unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }

    /// Conservative candidate callees for one call site.
    fn resolve(&self, caller: usize, c: &CallSite) -> Vec<usize> {
        let fi = &self.fns[caller];
        let mut out: Vec<usize> = Vec::new();
        match &c.recv {
            Recv::SelfDot => {
                if let Some(t) = &fi.impl_type {
                    if let Some(v) = self.by_type_method.get(&(t.clone(), c.name.clone())) {
                        out.extend(v.iter().filter(|&&id| self.fns[id].has_self));
                    }
                }
                if out.is_empty() {
                    if let Some(v) =
                        self.by_crate_method.get(&(fi.crate_name.clone(), c.name.clone()))
                    {
                        out.extend(v);
                    }
                }
            }
            Recv::SelfAssoc => {
                if let Some(t) = &fi.impl_type {
                    if let Some(v) = self.by_type_method.get(&(t.clone(), c.name.clone())) {
                        out.extend(v);
                    }
                }
            }
            Recv::Field(_) | Recv::Var { .. } => {
                let hints = self.recv_hints(caller, c);
                out.extend(self.resolve_hints(&hints, &c.name, fi));
            }
            Recv::Path(segs) => out.extend(self.resolve_path(segs, &c.name, fi)),
            Recv::Bare => {
                if let Some(v) = self.by_crate_free.get(&(fi.crate_name.clone(), c.name.clone()))
                {
                    out.extend(v);
                } else if let Some(path) = self.use_maps[fi.file].get(&c.name) {
                    // `use other::f; … f(…)` — the imported path names the fn
                    // itself, so the "method name" is the last segment.
                    let segs = path.clone();
                    if segs.len() >= 2 {
                        out.extend(self.resolve_path(
                            &segs[..segs.len() - 1],
                            &segs[segs.len() - 1],
                            fi,
                        ));
                    }
                }
            }
            Recv::Opaque => {}
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Methods named `name` on any type/trait mentioned in `hints`.
    fn resolve_hints(&self, hints: &[String], name: &str, fi: &FnInfo) -> Vec<usize> {
        let mut out = Vec::new();
        for h in hints {
            let h = if h == "Self" {
                match &fi.impl_type {
                    Some(t) => t.clone(),
                    None => continue,
                }
            } else {
                h.clone()
            };
            if let Some(v) = self.by_type_method.get(&(h.clone(), name.to_string())) {
                out.extend(v);
            }
            if let Some(v) = self.by_trait_method.get(&(h, name.to_string())) {
                out.extend(v);
            }
        }
        out
    }

    /// Resolve `segs::name(…)`: through `use` maps, crate idents
    /// (`ohpc_telemetry` → crate `ohpc-telemetry`), type names, and
    /// same-crate module paths.
    fn resolve_path(&self, segs: &[String], name: &str, fi: &FnInfo) -> Vec<usize> {
        let mut out = Vec::new();
        let Some(first) = segs.first() else { return out };

        // Expand a `use` alias for the first segment, then retry.
        if let Some(full) = self.use_maps[fi.file].get(first) {
            if full.last().map(String::as_str) != Some(first.as_str()) || full.len() > 1 {
                let mut expanded = full.clone();
                expanded.extend(segs[1..].iter().cloned());
                if expanded != segs {
                    return self.resolve_path(&expanded, name, fi);
                }
            }
        }

        if first == "Self" {
            if let Some(t) = &fi.impl_type {
                if let Some(v) = self.by_type_method.get(&(t.clone(), name.to_string())) {
                    out.extend(v);
                }
            }
            return out;
        }

        // `other_crate::…::name` — free functions of that crate.
        let as_crate = first.replace('_', "-");
        if self.crates.contains(&as_crate) {
            if let Some(v) = self.by_crate_free.get(&(as_crate.clone(), name.to_string())) {
                out.extend(v);
            }
        }

        // Last segment as a type: `Type::assoc(…)`, `a::b::Type::assoc(…)`.
        if let Some(last) = segs.last() {
            if let Some(v) = self.by_type_method.get(&(last.clone(), name.to_string())) {
                out.extend(v);
            }
            if let Some(v) = self.by_trait_method.get(&(last.clone(), name.to_string())) {
                out.extend(v);
            }
        }

        // `crate::…` / `super::…` / local module path — same-crate free fns.
        if out.is_empty() {
            if let Some(v) = self.by_crate_free.get(&(fi.crate_name.clone(), name.to_string())) {
                out.extend(v);
            }
        }
        out
    }

    /// True when token `tok` of file `fi` sits inside a spawn argument list.
    pub fn in_spawn_arg(&self, fi: usize, tok: usize) -> bool {
        self.spawn_ranges[fi].iter().any(|&(a, b)| a < tok && tok < b)
    }

    /// Collect production spawn sites with their syntactic multi-instance
    /// flag (loop bodies, iterator-adapter closures). The enclosing-context
    /// part of `multi` is refined in [`Self::compute_roles`].
    fn compute_spawn_sites(&self, files: &[SourceFile]) -> Vec<SpawnSite> {
        let mut out = Vec::new();
        for (fi, ranges) in self.spawn_ranges.iter().enumerate() {
            let f = &files[fi];
            if ranges.is_empty() {
                continue;
            }
            let regions = multi_regions(f);
            for &(a, b) in ranges {
                if f.in_tests_dir || f.is_test_tok(a) {
                    continue;
                }
                let multi = regions.iter().any(|&(ra, rb)| ra < a && a < rb);
                out.push(SpawnSite { file: fi, open: a, close: b, line: f.tokens[a].line, multi });
            }
        }
        out
    }

    /// Thread-role inference: which contexts (main, each spawn site) can
    /// reach each function.
    ///
    /// Seeds: functions *named* inside a production spawn argument get that
    /// site's context (the thread entry points); non-test functions with no
    /// production caller outside a spawn argument get `CTX_MAIN` (they are
    /// API surface, invoked by user code). Roles then propagate caller →
    /// callee over every production call edge that is not itself inside a
    /// spawn argument (a call inside the closure already runs on the
    /// spawned thread and is covered by the seed).
    fn compute_roles(&mut self, files: &[SourceFile]) {
        let n = self.fns.len();
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, fi) in self.fns.iter().enumerate() {
            if !fi.is_test {
                by_name.entry(fi.name.as_str()).or_default().push(id);
            }
        }

        // Per-site entry-point seeding. A name counts when it is call-like
        // (`ident(`) at any depth, or a bare ident at the spawn's own
        // argument depth (`spawn(worker)`); plain idents deeper down are
        // data arguments (`reader_loop(chan, recv, …)`), not entry points.
        // Tokens owned by a *nested* spawn site seed that site instead.
        let mut roles: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        let mut spawn_seeded: HashSet<usize> = HashSet::new();
        for (sid, s) in self.spawn_sites.iter().enumerate() {
            let toks = &files[s.file].tokens;
            let mut depth = 0i32;
            for j in s.open + 1..s.close {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                }
                if t.kind != TokKind::Ident || NOT_CALLEES.contains(&t.text.as_str()) {
                    continue;
                }
                let nested = self.spawn_sites.iter().any(|o| {
                    o.file == s.file && o.open > s.open && o.close < s.close && o.open < j && j < o.close
                });
                if nested {
                    continue;
                }
                let call_like = toks.get(j + 1).is_some_and(|t| t.is_punct('('));
                if !call_like && depth > 0 {
                    continue;
                }
                if let Some(ids) = by_name.get(t.text.as_str()) {
                    for &id in ids {
                        roles[id].insert(1 + sid);
                        spawn_seeded.insert(id);
                    }
                }
            }
        }

        // Production, non-spawn-arg call edges.
        let mut has_entry_caller = vec![false; n];
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for id in 0..n {
            if self.fns[id].is_test {
                continue;
            }
            let file = self.fns[id].file;
            for (ci, c) in self.calls[id].iter().enumerate() {
                if self.in_spawn_arg(file, c.tok) {
                    continue;
                }
                for &t in &self.targets[id][ci] {
                    edges.push((id, t));
                    has_entry_caller[t] = true;
                }
            }
        }

        // Main seeds and entry roots.
        let mut entry_roots = vec![false; n];
        for id in 0..n {
            if self.fns[id].is_test {
                continue;
            }
            if !has_entry_caller[id] || spawn_seeded.contains(&id) {
                entry_roots[id] = true;
            }
            if !has_entry_caller[id] && !spawn_seeded.contains(&id) {
                roles[id].insert(CTX_MAIN);
            }
        }

        // Propagate roles caller → callee to a fixpoint.
        loop {
            let mut changed = false;
            for &(a, b) in &edges {
                if a == b {
                    continue;
                }
                let add: Vec<usize> =
                    roles[a].iter().filter(|c| !roles[b].contains(c)).copied().collect();
                if !add.is_empty() {
                    roles[b].extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Refine `multi`: a spawn site inside a function that itself runs
        // in a multi context — or nested in another multi site's closure —
        // creates one thread per instance of that context.
        loop {
            let mut changed = false;
            for sid in 0..self.spawn_sites.len() {
                if self.spawn_sites[sid].multi {
                    continue;
                }
                let (sfile, sopen, sclose) =
                    (self.spawn_sites[sid].file, self.spawn_sites[sid].open, self.spawn_sites[sid].close);
                let in_multi_parent = self.spawn_sites.iter().any(|o| {
                    o.multi && o.file == sfile && o.open < sopen && sclose < o.close
                });
                let encl = self
                    .fns
                    .iter()
                    .position(|f| f.file == sfile && f.open < sopen && sclose < f.close);
                let encl_multi = encl.is_some_and(|id| {
                    roles[id].iter().any(|&c| c != CTX_MAIN && self.spawn_sites[c - 1].multi)
                });
                if in_multi_parent || encl_multi {
                    self.spawn_sites[sid].multi = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        self.roles = roles
            .into_iter()
            .map(|s| {
                let mut v: Vec<usize> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        self.entry_roots = entry_roots;
    }

    /// Can this context run more than one instance concurrently?
    pub fn ctx_is_multi(&self, ctx: usize) -> bool {
        ctx != CTX_MAIN && self.spawn_sites[ctx - 1].multi
    }

    /// Human-readable context description for witness chains.
    pub fn ctx_desc(&self, ctx: usize, files: &[SourceFile]) -> String {
        if ctx == CTX_MAIN {
            return "main/API context".to_string();
        }
        let s = &self.spawn_sites[ctx - 1];
        let at = format!("{}:{}", files[s.file].path, s.line);
        if s.multi {
            format!("per-request threads spawned at {at}")
        } else {
            format!("dedicated thread spawned at {at}")
        }
    }

    /// The innermost production spawn site whose argument list contains
    /// token `tok` of file `file` — code there runs on that site's thread,
    /// whatever the enclosing function's roles say.
    pub fn ctx_of_tok(&self, file: usize, tok: usize) -> Option<usize> {
        self.spawn_sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.file == file && s.open < tok && tok < s.close)
            .min_by_key(|(_, s)| s.close - s.open)
            .map(|(sid, _)| 1 + sid)
    }

    /// Context set for an access at token `tok` inside function `id`.
    pub fn ctxs_at(&self, id: usize, tok: usize) -> Vec<usize> {
        match self.ctx_of_tok(self.fns[id].file, tok) {
            Some(ctx) => vec![ctx],
            None => self.roles[id].clone(),
        }
    }
}

/// Parse the file's `use` declarations into ident → path-segment map.
/// Handles `use a::b::c;`, `use a::{b, c as d, e::f};` (one nesting level
/// per group, recursively), and `as` renames. Glob imports are ignored.
fn parse_uses(f: &SourceFile) -> HashMap<String, Vec<String>> {
    let mut map = HashMap::new();
    let toks = &f.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("use") {
            i += 1;
            continue;
        }
        let end = (i + 1..toks.len()).find(|&j| toks[j].is_punct(';')).unwrap_or(toks.len());
        parse_use_tree(f, i + 1, end, &[], &mut map);
        i = end + 1;
    }
    map
}

/// Recursive descent over one use-tree token range.
fn parse_use_tree(
    f: &SourceFile,
    start: usize,
    end: usize,
    prefix: &[String],
    map: &mut HashMap<String, Vec<String>>,
) {
    let toks = &f.tokens;
    let mut segs: Vec<String> = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident && t.text != "as" {
            segs.push(t.text.clone());
            i += 1;
        } else if t.is_punct(':') {
            i += 1;
        } else if t.is_punct('{') {
            // Group: recurse on each comma-separated element.
            let close = f.close_of.get(&i).copied().unwrap_or(end).min(end);
            let mut elem_start = i + 1;
            let mut depth = 0i32;
            let mut full: Vec<String> = prefix.to_vec();
            full.extend(segs.iter().cloned());
            for (j, tok) in toks.iter().enumerate().take(close).skip(i + 1) {
                if tok.is_punct('{') {
                    depth += 1;
                } else if tok.is_punct('}') {
                    depth -= 1;
                } else if tok.is_punct(',') && depth == 0 {
                    parse_use_tree(f, elem_start, j, &full, map);
                    elem_start = j + 1;
                }
            }
            if elem_start < close {
                parse_use_tree(f, elem_start, close, &full, map);
            }
            return;
        } else if t.is_ident("as") {
            // `path as alias`
            if let Some(alias) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let mut full = prefix.to_vec();
                full.extend(segs.iter().cloned());
                map.insert(alias.text.clone(), full);
            }
            return;
        } else {
            // `*`, lifetimes, etc — not a leaf we track.
            return;
        }
    }
    if let Some(last) = segs.last() {
        let mut full = prefix.to_vec();
        full.extend(segs.iter().cloned());
        map.insert(last.clone(), full);
    }
}

/// Record `field: Type` pairs declared inside `struct … { … }` bodies.
fn collect_struct_fields(f: &SourceFile, out: &mut HashMap<(String, String), Vec<String>>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("struct") || f.in_macro_def(i) {
            continue;
        }
        // Find the body `{` before any `;` (tuple structs have none).
        let mut open = None;
        for (j, tok) in toks.iter().enumerate().skip(i + 1) {
            if tok.is_punct(';') {
                break;
            }
            if tok.is_punct('(') {
                // Tuple struct param list — skip it (a `;` follows).
                break;
            }
            if tok.is_punct('{') {
                open = Some(j);
                break;
            }
        }
        let Some(open) = open else { continue };
        let Some(&close) = f.close_of.get(&open) else { continue };
        let mut j = open + 1;
        while j < close {
            // field ident `:` type…  at struct-body depth.
            if toks[j].kind == TokKind::Ident
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && !toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
            {
                let field = toks[j].text.clone();
                let mut ty = Vec::new();
                let mut depth = 0i32;
                let mut k = j + 2;
                while k < close {
                    let t = &toks[k];
                    if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if t.is_punct('>') {
                        // Don't let `->` in fn-pointer types close a level.
                        if !toks[k - 1].is_punct('-') {
                            depth -= 1;
                        }
                    } else if t.is_punct(',') && depth <= 0 {
                        break;
                    }
                    if t.kind == TokKind::Ident {
                        ty.push(t.text.clone());
                    }
                    k += 1;
                }
                // Union over same-named fields: field identity downstream is
                // (crate, name), so `Gauge.value: AtomicI64` and
                // `Exemplar.value: u64` must both contribute their idents —
                // last-wins would hide the atomic from the exemption checks.
                out.entry((f.crate_name.clone(), field)).or_default().extend(ty);
                j = k;
            }
            j += 1;
        }
    }
}

/// Find every `fn` with a body, carrying its enclosing `impl` context.
fn collect_fns(f: &SourceFile, file_idx: usize, out: &mut Vec<FnInfo>) {
    let toks = &f.tokens;
    // Stack of (body_close, impl_type, trait_name) for enclosing impls.
    let mut impls: Vec<(usize, Option<String>, Option<String>)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while impls.last().is_some_and(|&(c, _, _)| i > c) {
            impls.pop();
        }
        let t = &toks[i];
        if t.is_ident("impl") {
            if let Some((open, self_ty, trait_ty)) = parse_impl_header(f, i) {
                if let Some(&close) = f.close_of.get(&open) {
                    impls.push((close, self_ty, trait_ty));
                    i = open + 1;
                    continue;
                }
            }
        } else if t.is_ident("fn") {
            if let Some(info) = parse_fn(f, file_idx, i, &impls) {
                let next = info.close;
                out.push(info);
                // Keep scanning *inside* the body too: nested fns are their
                // own entries (the outer scan just steps token by token).
                let _ = next;
            }
        }
        i += 1;
    }
}

/// Parse an `impl` header starting at token `i` (the `impl` ident).
/// Returns (body open index, self type, trait name).
pub(crate) fn parse_impl_header(f: &SourceFile, i: usize) -> Option<(usize, Option<String>, Option<String>)> {
    let toks = &f.tokens;
    let mut j = i + 1;
    // Skip `<…>` generic params, counting angles but not `->`.
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 1i32;
        j += 1;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') && !toks[j - 1].is_punct('-') {
                depth -= 1;
            }
            j += 1;
        }
    }
    // Collect path idents until `for`, `where` or `{`; angle-depth 0 only.
    let mut first_ty: Option<String> = None;
    let mut second_ty: Option<String> = None;
    let mut saw_for = false;
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') && depth <= 0 {
            let (self_ty, trait_ty) =
                if saw_for { (second_ty, first_ty) } else { (first_ty, None) };
            return Some((j, self_ty, trait_ty));
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
            depth -= 1;
        } else if depth <= 0 && t.is_ident("for") {
            saw_for = true;
        } else if depth <= 0 && t.kind == TokKind::Ident && !matches!(
            t.text.as_str(),
            "dyn" | "mut" | "where" | "for" | "Send" | "Sync" | "Sized" | "Unpin" | "static"
        ) {
            // Last path ident before `<`/`for`/`{` wins (skips `crate::`).
            if saw_for {
                second_ty = Some(t.text.clone());
            } else {
                first_ty = Some(t.text.clone());
            }
        }
        if t.is_punct(';') {
            return None;
        }
        j += 1;
    }
    None
}

/// Parse one `fn` item at token `i`; returns None for body-less decls.
fn parse_fn(
    f: &SourceFile,
    file_idx: usize,
    i: usize,
    impls: &[(usize, Option<String>, Option<String>)],
) -> Option<FnInfo> {
    let toks = &f.tokens;
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Parameter list.
    let mut j = i + 2;
    let mut popen = None;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            popen = Some(j);
            break;
        }
        if toks[j].is_punct('{') || toks[j].is_punct(';') {
            return None;
        }
        j += 1;
    }
    let popen = popen?;
    let pclose = f.close_of.get(&popen).copied()?;
    // Body.
    let mut open = None;
    let mut k = pclose + 1;
    while k < toks.len() {
        if toks[k].is_punct('{') {
            open = Some(k);
            break;
        }
        if toks[k].is_punct(';') {
            break;
        }
        k += 1;
    }
    let open = open?;
    let close = f.close_of.get(&open).copied()?;

    let (impl_type, trait_name) = impls
        .last()
        .map(|(_, t, tr)| (t.clone(), tr.clone()))
        .unwrap_or((None, None));

    let mut has_self = false;
    let mut self_mut = false;
    let mut params = Vec::new();
    parse_params(f, popen, pclose, &mut has_self, &mut self_mut, &mut params);

    Some(FnInfo {
        file: file_idx,
        crate_name: f.crate_name.clone(),
        name: name_tok.text.clone(),
        impl_type,
        trait_name,
        has_self,
        self_mut,
        fn_tok: i,
        open,
        close,
        line: toks[i].line,
        params,
        is_test: f.in_tests_dir || f.is_test_tok(i) || f.in_macro_def(i),
    })
}

/// Split a parameter list at top-level commas; record names and type idents.
fn parse_params(
    f: &SourceFile,
    popen: usize,
    pclose: usize,
    has_self: &mut bool,
    self_mut: &mut bool,
    out: &mut Vec<Param>,
) {
    let toks = &f.tokens;
    let mut start = popen + 1;
    let mut depth = 0i32;
    let mut j = popen + 1;
    while j <= pclose {
        let t = &toks[j];
        let at_end = j == pclose;
        let split = at_end || (t.is_punct(',') && depth == 0);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if (t.is_punct(')') && !at_end)
            || t.is_punct(']')
            || (t.is_punct('>') && !toks[j - 1].is_punct('-'))
        {
            depth -= 1;
        }
        if split {
            let seg = &toks[start..j];
            if seg.iter().any(|t| t.is_ident("self")) {
                *has_self = true;
                if seg.iter().any(|t| t.is_ident("mut")) {
                    *self_mut = true;
                }
            } else if let Some(colon) = seg.iter().position(|t| t.is_punct(':')) {
                let name = seg[..colon]
                    .iter()
                    .rev()
                    .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref");
                if let Some(name) = name {
                    let type_idents = seg[colon + 1..]
                        .iter()
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone())
                        .collect();
                    out.push(Param { name: name.text.clone(), type_idents });
                }
            }
            start = j + 1;
        }
        j += 1;
    }
}

/// Extract every call site inside a fn body, skipping nested `fn` items.
fn find_calls(f: &SourceFile, fi: &FnInfo, open_of: &HashMap<usize, usize>) -> Vec<CallSite> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut j = fi.open + 1;
    while j < fi.close {
        let t = &toks[j];
        if t.is_ident("fn") {
            // Nested fn: its calls belong to its own FnInfo.
            if let Some(inner) = parse_fn(f, fi.file, j, &[]) {
                j = inner.close + 1;
                continue;
            }
        }
        // `name(` is a call; so is a path-qualified macro, `path::name!(` —
        // `ohpc_telemetry::counter!(…)` touches that crate like any call
        // into it. Unqualified macros (`format!`, `vec!`) are not calls.
        let is_punct = |at: usize, c: char| toks.get(at).is_some_and(|n| n.is_punct(c));
        let qualified_macro = is_punct(j + 1, '!')
            && is_punct(j + 2, '(')
            && j >= 2
            && is_punct(j - 1, ':')
            && is_punct(j - 2, ':');
        if t.kind == TokKind::Ident
            && (is_punct(j + 1, '(') || qualified_macro)
            && !NOT_CALLEES.contains(&t.text.as_str())
        {
            let recv = receiver_of(f, j, open_of);
            out.push(CallSite { tok: j, line: t.line, name: t.text.clone(), recv });
        }
        j += 1;
    }
    out
}

/// Classify the receiver of the call whose callee ident is at `j`.
fn receiver_of(f: &SourceFile, j: usize, open_of: &HashMap<usize, usize>) -> Recv {
    let toks = &f.tokens;
    if j == 0 {
        return Recv::Bare;
    }
    if toks[j - 1].is_punct(':') && j >= 2 && toks[j - 2].is_punct(':') {
        // Qualified path: walk back `ident :: ident :: … ::`.
        let mut segs: Vec<String> = Vec::new();
        let mut k = j - 2;
        loop {
            if k == 0 || toks[k - 1].kind != TokKind::Ident {
                break;
            }
            segs.push(toks[k - 1].text.clone());
            if k >= 3 && toks[k - 2].is_punct(':') && toks[k - 3].is_punct(':') {
                k -= 3;
            } else {
                break;
            }
        }
        segs.reverse();
        if segs.as_slice() == ["Self"] {
            return Recv::SelfAssoc;
        }
        if segs.is_empty() {
            return Recv::Opaque;
        }
        return Recv::Path(segs);
    }
    if !toks[j - 1].is_punct('.') {
        return Recv::Bare;
    }
    // Method call: peel through chained calls to find the root.
    let mut dot = j - 1;
    loop {
        if dot == 0 {
            return Recv::Opaque;
        }
        let e = dot - 1; // last token of the receiver expression
        let t = &toks[e];
        if t.is_punct(')') {
            // `….m(…).callee(` — peel one chained call level.
            let Some(&o) = open_of.get(&e) else { return Recv::Opaque };
            if o >= 2 && toks[o - 1].kind == TokKind::Ident && toks[o - 2].is_punct('.') {
                dot = o - 2;
                continue;
            }
            return Recv::Opaque; // `f(…).m(`, `(expr).m(`
        }
        if t.is_punct(']') {
            // `v[i].callee(` — root at the indexed ident.
            let Some(&o) = open_of.get(&e) else { return Recv::Opaque };
            if o >= 1 && toks[o - 1].kind == TokKind::Ident {
                return ident_root(f, o - 1);
            }
            return Recv::Opaque;
        }
        if t.kind == TokKind::Ident {
            return ident_root(f, e);
        }
        return Recv::Opaque;
    }
}

/// Root a `a.b.c` field path ending at ident token `e`.
fn ident_root(f: &SourceFile, e: usize) -> Recv {
    let toks = &f.tokens;
    let mut root = e;
    while root >= 2 && toks[root - 1].is_punct('.') && toks[root - 2].kind == TokKind::Ident {
        root -= 2;
    }
    if toks[root].is_ident("self") {
        if root == e {
            Recv::SelfDot
        } else {
            Recv::Field(toks[e].text.clone())
        }
    } else {
        let field = if root < e { Some(toks[e].text.clone()) } else { None };
        Recv::Var { var: toks[root].text.clone(), field }
    }
}

/// Infer type hints for the fn's bindings: params, then `let` statements.
fn local_hints(
    f: &SourceFile,
    fi: &FnInfo,
    field_types: &HashMap<(String, String), Vec<String>>,
) -> HashMap<String, Vec<String>> {
    let toks = &f.tokens;
    let mut hints: HashMap<String, Vec<String>> = HashMap::new();
    for p in &fi.params {
        hints.insert(p.name.clone(), p.type_idents.clone());
    }
    let mut j = fi.open + 1;
    while j < fi.close {
        if !toks[j].is_ident("let") {
            j += 1;
            continue;
        }
        // Pattern runs to `=` at depth 0 (or `;` for `let x;`).
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
            } else if t.is_punct('=') && depth <= 0 && !toks[k + 1].is_punct('=') {
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
        // Bound names: pattern idents that are not constructors/keywords.
        let colon = (j + 1..eq).find(|&m| {
            toks[m].is_punct(':') && !toks.get(m + 1).is_some_and(|t| t.is_punct(':'))
                && !toks.get(m.wrapping_sub(1)).is_some_and(|t| t.is_punct(':'))
        });
        let pat_end = colon.unwrap_or(eq);
        let names: Vec<String> = toks[j + 1..pat_end]
            .iter()
            .filter(|t| {
                t.kind == TokKind::Ident
                    && !matches!(
                        t.text.as_str(),
                        "mut" | "ref" | "Some" | "Ok" | "Err" | "None" | "_"
                    )
            })
            .map(|t| t.text.clone())
            .collect();
        // RHS runs to `;`, `{` (if/while-let body) or `else` at depth 0.
        let mut depth = 0i32;
        let mut end = fi.close;
        let mut m = eq + 1;
        while m < fi.close {
            let t = &toks[m];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth <= 0 && (t.is_punct(';') || t.is_punct('{') || t.is_ident("else")) {
                end = m;
                break;
            }
            m += 1;
        }
        let rhs = &toks[eq + 1..end];

        let ty: Vec<String> = if let Some(c) = colon {
            // Explicit `let x: T = …`.
            toks[c + 1..eq].iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone()).collect()
        } else if rhs_calls(rhs, "try_split") {
            if names.len() == 2 {
                hints.insert(names[0].clone(), vec!["SendHalf".into()]);
                hints.insert(names[1].clone(), vec!["RecvHalf".into()]);
                j = end + 1;
                continue;
            }
            vec!["SendHalf".into(), "RecvHalf".into()]
        } else if rhs_calls(rhs, "dial") || rhs_calls(rhs, "accept") {
            vec!["Box".into(), "dyn".into(), "Connection".into()]
        } else if rhs.len() >= 3
            && rhs[0].kind == TokKind::Ident
            && rhs[1].is_punct(':')
            && rhs[2].is_punct(':')
        {
            // `Type::ctor(…)` — the qualifier is the best type hint.
            vec![rhs[0].text.clone()]
        } else if !rhs.is_empty() && rhs[0].kind == TokKind::Ident {
            // Forwarding binding: inherit the root's hints
            // (`let g = self.conn.lock();` → hints of field `conn`).
            if rhs[0].text == "self" && rhs.len() >= 3 && rhs[1].is_punct('.') {
                // Last plain field ident in the leading path (an ident
                // directly followed by `(` is a method name, not a field).
                let mut fld = None;
                let mut p = 2;
                while p < rhs.len() && rhs[p].kind == TokKind::Ident {
                    let next = rhs.get(p + 1);
                    if next.is_some_and(|t| t.is_punct('(')) {
                        break;
                    }
                    fld = Some(rhs[p].text.clone());
                    if next.is_some_and(|t| t.is_punct('.')) {
                        p += 2;
                    } else {
                        break;
                    }
                }
                fld.and_then(|fl| field_types.get(&(fi.crate_name.clone(), fl)))
                    .cloned()
                    .unwrap_or_default()
            } else {
                hints.get(&rhs[0].text).cloned().unwrap_or_default()
            }
        } else {
            Vec::new()
        };
        if !ty.is_empty() {
            for n in &names {
                hints.insert(n.clone(), ty.clone());
            }
        }
        j = end + 1;
    }
    hints
}

/// Does the token slice contain a `.name(` call?
fn rhs_calls(rhs: &[crate::lexer::Token], name: &str) -> bool {
    rhs.windows(3).any(|w| w[0].is_punct('.') && w[1].is_ident(name) && w[2].is_punct('('))
}

/// Iterator adapters whose closure argument runs once per element — a
/// spawn inside one creates a thread per element.
const PER_ELEMENT_ADAPTERS: &[&str] = &["map", "for_each", "filter_map", "flat_map", "retain"];

/// Token ranges in which a spawn site is multi-instance: the bodies of
/// `loop`/`while`/`for`, and the argument lists of per-element iterator
/// adapters.
fn multi_regions(f: &SourceFile) -> Vec<(usize, usize)> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    for j in 0..toks.len() {
        let t = &toks[j];
        if t.is_ident("loop") || t.is_ident("while") || t.is_ident("for") {
            // The body `{` at bracket depth 0 after the loop head.
            let mut depth = 0i32;
            let mut k = j + 1;
            while k < toks.len() {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct('{') && depth <= 0 {
                    if let Some(&close) = f.close_of.get(&k) {
                        out.push((k, close));
                    }
                    break;
                } else if t.is_punct(';') || t.is_punct('}') {
                    break;
                }
                k += 1;
            }
        } else if t.is_punct('.')
            && toks
                .get(j + 1)
                .is_some_and(|t| PER_ELEMENT_ADAPTERS.contains(&t.text.as_str()))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            if let Some(&close) = f.close_of.get(&(j + 2)) {
                out.push((j + 2, close));
            }
        }
    }
    out
}

/// Token ranges of `…spawn(…)` argument lists.
fn find_spawn_ranges(f: &SourceFile) -> Vec<(usize, usize)> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    for j in 0..toks.len() {
        if toks[j].is_ident("spawn") && toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(&close) = f.close_of.get(&(j + 1)) {
                out.push((j + 1, close));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(src: &str) -> (Vec<SourceFile>, Workspace) {
        let files = vec![SourceFile::from_source("crates/x/src/lib.rs", "x", false, src)];
        let ws = Workspace::build(&files);
        (files, ws)
    }

    fn fn_id(ws: &Workspace, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn impl_methods_get_their_self_type() {
        let (_, ws) = ws_of("struct S; impl S { fn m(&self) {} } impl Display for S { fn fmt(&self) {} }");
        let m = fn_id(&ws, "m");
        assert_eq!(ws.fns[m].impl_type.as_deref(), Some("S"));
        let f = fn_id(&ws, "fmt");
        assert_eq!(ws.fns[f].impl_type.as_deref(), Some("S"));
        assert_eq!(ws.fns[f].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn self_call_resolves_to_same_impl() {
        let (_, ws) = ws_of("struct S; impl S { fn a(&self) { self.b(); } fn b(&self) {} }");
        let a = fn_id(&ws, "a");
        let b = fn_id(&ws, "b");
        assert_eq!(ws.callees[a], vec![b]);
    }

    #[test]
    fn typed_param_method_call_resolves_across_types() {
        let src = r#"
            struct T;
            impl T { fn go(&self) {} }
            fn driver(t: &T) { t.go(); }
        "#;
        let (_, ws) = ws_of(src);
        let d = fn_id(&ws, "driver");
        let g = fn_id(&ws, "go");
        assert_eq!(ws.callees[d], vec![g]);
    }

    #[test]
    fn trait_object_field_resolves_to_every_impl() {
        let src = r#"
            trait Conn { fn send(&mut self); }
            struct A; impl Conn for A { fn send(&mut self) {} }
            struct B; impl Conn for B { fn send(&mut self) {} }
            struct H { conn: Box<dyn Conn> }
            impl H { fn f(&mut self) { self.conn.send(); } }
        "#;
        let (_, ws) = ws_of(src);
        let f = fn_id(&ws, "f");
        assert_eq!(ws.callees[f].len(), 2, "{:?}", ws.callees[f]);
    }

    #[test]
    fn guarded_field_peels_through_lock() {
        let src = r#"
            struct W; impl W { fn push(&self) {} }
            struct H { w: Mutex<W> }
            impl H { fn f(&self) { self.w.lock().push(); } }
        "#;
        let (_, ws) = ws_of(src);
        let f = fn_id(&ws, "f");
        let p = fn_id(&ws, "push");
        assert_eq!(ws.callees[f], vec![p]);
    }

    #[test]
    fn use_alias_resolves_cross_crate_free_fn() {
        let files = vec![
            SourceFile::from_source(
                "crates/a/src/lib.rs",
                "ohpc-telemetry",
                false,
                "pub fn trace_span(name: &str) {}",
            ),
            SourceFile::from_source(
                "crates/b/src/lib.rs",
                "ohpc-orb",
                false,
                "fn f() { ohpc_telemetry::trace_span(\"x\"); }",
            ),
        ];
        let ws = Workspace::build(&files);
        let f = fn_id(&ws, "f");
        let trace_span = fn_id(&ws, "trace_span");
        assert_eq!(ws.callees[f], vec![trace_span]);
    }

    #[test]
    fn thread_roles_split_main_from_spawned() {
        let src = r#"
            fn reader_loop(n: u32) { helper(n); }
            fn helper(n: u32) {}
            fn api() { helper(1); }
            fn serve() { std::thread::spawn(move || reader_loop(1)); }
        "#;
        let (_, ws) = ws_of(src);
        let (r, h, a, s) =
            (fn_id(&ws, "reader_loop"), fn_id(&ws, "helper"), fn_id(&ws, "api"), fn_id(&ws, "serve"));
        assert_eq!(ws.spawn_sites.len(), 1);
        assert!(!ws.spawn_sites[0].multi);
        // api and serve are uncalled API surface → main context.
        assert_eq!(ws.roles[a], vec![CTX_MAIN]);
        assert_eq!(ws.roles[s], vec![CTX_MAIN]);
        // reader_loop runs only on the spawned thread.
        assert_eq!(ws.roles[r], vec![1]);
        // helper is reachable from both contexts.
        assert_eq!(ws.roles[h], vec![CTX_MAIN, 1]);
    }

    #[test]
    fn spawn_inside_loop_is_multi_instance() {
        let src = r#"
            fn handle(c: u32) {}
            fn serve(rx: Receiver<u32>) {
                while let Ok(c) = rx.recv() {
                    std::thread::spawn(move || handle(c));
                }
            }
        "#;
        let (_, ws) = ws_of(src);
        assert_eq!(ws.spawn_sites.len(), 1);
        assert!(ws.spawn_sites[0].multi);
        let h = fn_id(&ws, "handle");
        assert_eq!(ws.roles[h], vec![1]);
        assert!(ws.ctx_is_multi(1));
    }

    #[test]
    fn spawn_inside_iterator_adapter_is_multi_instance() {
        let src = r#"
            fn invoke(n: u32) {}
            fn invoke_all(members: &[u32]) {
                let hs: Vec<_> = members.iter().map(|m| std::thread::spawn(move || invoke(*m))).collect();
            }
        "#;
        let (_, ws) = ws_of(src);
        assert_eq!(ws.spawn_sites.len(), 1);
        assert!(ws.spawn_sites[0].multi, "spawn per member must be multi");
    }

    #[test]
    fn nested_spawn_seeds_innermost_site_and_inherits_multi() {
        // The accept-loop shape: a dedicated accept thread spawning one
        // thread per connection.
        let src = r#"
            fn handle_conn(c: u32) {}
            fn serve(listener: Listener) {
                std::thread::spawn(move || {
                    while let Ok(c) = listener.accept() {
                        std::thread::spawn(move || handle_conn(c));
                    }
                });
            }
        "#;
        let (_, ws) = ws_of(src);
        assert_eq!(ws.spawn_sites.len(), 2);
        let h = fn_id(&ws, "handle_conn");
        // handle_conn is seeded by the inner (per-connection, multi) site only.
        assert_eq!(ws.roles[h].len(), 1);
        let ctx = ws.roles[h][0];
        assert!(ws.ctx_is_multi(ctx), "per-connection threads must be multi");
    }

    #[test]
    fn bare_data_args_inside_spawned_call_do_not_seed() {
        // `recv` here is a data argument to reader_loop, not an entry point;
        // the unrelated method named `recv` must keep its main role.
        let src = r#"
            struct C; impl C { fn recv(&self) {} }
            fn reader_loop(a: u32, recv: u32) {}
            fn serve(recv: u32) { std::thread::spawn(move || reader_loop(1, recv)); }
            fn api(c: &C) { c.recv(); }
        "#;
        let (_, ws) = ws_of(src);
        let r = ws
            .fns
            .iter()
            .position(|f| f.name == "recv" && f.impl_type.is_some())
            .unwrap();
        assert_eq!(ws.roles[r], vec![CTX_MAIN], "method recv must not be spawn-seeded");
    }

    #[test]
    fn ctx_of_tok_finds_innermost_spawn_closure() {
        let src = r#"
            fn serve(x: u32) {
                before();
                std::thread::spawn(move || { inside(x); });
                after();
            }
            fn before() {} fn inside(x: u32) {} fn after() {}
        "#;
        let (files, ws) = ws_of(src);
        let f = &files[0];
        let inside_tok = f.tokens.iter().position(|t| t.is_ident("inside")).unwrap();
        let before_tok = f.tokens.iter().position(|t| t.is_ident("before")).unwrap();
        assert_eq!(ws.ctx_of_tok(0, inside_tok), Some(1));
        assert_eq!(ws.ctx_of_tok(0, before_tok), None);
        let serve = fn_id(&ws, "serve");
        assert_eq!(ws.ctxs_at(serve, inside_tok), vec![1]);
        assert_eq!(ws.ctxs_at(serve, before_tok), vec![CTX_MAIN]);
    }

    #[test]
    fn mut_self_receiver_is_recorded() {
        let src = r#"
            struct S;
            impl S {
                fn a(&self) {}
                fn b(&mut self) {}
                fn c(mut self) {}
                fn d(&self, mut x: u32) {}
            }
        "#;
        let (_, ws) = ws_of(src);
        assert!(!ws.fns[fn_id(&ws, "a")].self_mut);
        assert!(ws.fns[fn_id(&ws, "b")].self_mut);
        assert!(ws.fns[fn_id(&ws, "c")].self_mut);
        assert!(!ws.fns[fn_id(&ws, "d")].self_mut, "mut on a non-self param is not a mut receiver");
    }

    #[test]
    fn let_binding_inherits_field_hints() {
        let src = r#"
            struct H { conn: Mutex<Box<dyn Connection>> }
            impl H {
                fn f(&self) {
                    let mut conn = self.conn.lock();
                    conn.recv();
                }
            }
        "#;
        let (_, ws) = ws_of(src);
        let f = fn_id(&ws, "f");
        let call = ws.calls[f].iter().find(|c| c.name == "recv").unwrap();
        let hints = ws.recv_hints(f, call);
        assert!(hints.iter().any(|h| h == "Connection"), "{hints:?}");
    }
}
