//! `ohpc-analyze`: the workspace's own static-analysis pass.
//!
//! Parses every first-party crate and enforces invariants the compiler
//! cannot check but the paper's communication model depends on:
//!
//! * `lock-order` — no cycles in the static lock-acquisition graph
//!   (potential deadlocks), followed interprocedurally across crates.
//! * `panic-freedom` — no `unwrap`/`expect`/panicking macros/slice indexing
//!   in the non-test code of the wire-facing crates.
//! * `wire-described` — no hand-written `XdrEncode`/`XdrDecode`/`FieldCodec`
//!   impl outside `ohpc-xdr`: every message's two directions and its length
//!   are generated from one `xdr_struct!`/`xdr_enum!`/`xdr_union!`
//!   description.
//! * `glue-balance` — capability `process`/`unprocess` hops balance as a
//!   stack along every call-graph path (interprocedural re-implementation
//!   of the retired `cap-symmetry`, whose Direction-wildcard and registry
//!   checks ride along).
//! * `transport-unwrap` — no unwrap on values tainted by transport calls.
//! * `guard-across-blocking` — no lock guard live across a blocking wire
//!   operation, sleep, or a callee that transitively blocks.
//! * `bounded-recv` — every transport receive outside a dedicated reader
//!   thread is deadline-bounded.
//! * `unbounded-spawn` — no thread spawn reachable from the per-request
//!   dispatch roots; request work goes through the bounded executor.
//! * `telemetry-coverage` — error paths in the request-path crates touch a
//!   telemetry counter somewhere on their call path.
//! * `shared-state` — Eraser-style lockset check: no field written from two
//!   thread contexts (or a multi-instance spawn) without a common lock,
//!   unless the field's type synchronizes itself.
//! * `epoch-bump` — every mutation of a selection input (OR table, pool
//!   membership, breaker state) bumps an epoch/generation counter, so the
//!   planned selection cache can revalidate cheaply.
//!
//! Output is one machine-readable line per finding
//! (`file:line: [rule] severity: message`), or SARIF with `--format json`;
//! the exit code is non-zero when any `deny` finding exists. CI runs
//! `--deny-all`, which promotes every finding to `deny`.
//!
//! Infallible sites are suppressed with
//! `// ohpc-analyze: allow(<rule>) — <reason>`; an annotation without a
//! reason is itself a deny finding, and one that suppresses nothing is
//! reported stale. A committed baseline (`crates/analyze/baseline.txt`,
//! auto-loaded when present) holds accepted findings during gradual
//! adoption of new rules.

use std::path::PathBuf;
use std::process::ExitCode;

use ohpc_analyze::rules::Severity;
use ohpc_analyze::{baseline, report, rules, source};

const USAGE: &str = "\
usage: ohpc-analyze [--deny-all] [--root <dir>] [--rule <id>]...
                    [--format text|json] [--baseline <file>] [--no-baseline]
                    [--emit-baseline] [--timings]

  --deny-all         promote every finding to deny (the CI configuration)
  --root <dir>       workspace root (default: nearest ancestor with [workspace])
  --rule <id>        run only the named rule(s); repeatable.
                     ids: lock-order, panic-freedom, wire-described, glue-balance,
                     transport-unwrap, guard-across-blocking, bounded-recv,
                     unbounded-spawn, telemetry-coverage, shared-state,
                     epoch-bump, annotation
  --format text|json text (default): one line per finding;
                     json: SARIF 2.1.0 on stdout (for CI artifacts)
  --baseline <file>  suppress findings listed in <file>
                     (default: crates/analyze/baseline.txt when it exists)
  --no-baseline      ignore any baseline file
  --emit-baseline    print the current findings in baseline form and exit 0
  --timings          print per-pass wall times to stderr (CI budget blame)
";

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut root: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut format_json = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut emit_baseline = false;
    let mut timings = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny-all" => deny_all = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root requires a path"),
            },
            "--rule" => match args.next() {
                Some(r) if rules::ALL_RULES.contains(&r.as_str()) => only.push(r),
                Some(r) => return usage_error(&format!("unknown rule '{r}'")),
                None => return usage_error("--rule requires a rule id"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format_json = false,
                Some("json") => format_json = true,
                Some(f) => return usage_error(&format!("unknown format '{f}'")),
                None => return usage_error("--format requires text|json"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage_error("--baseline requires a path"),
            },
            "--no-baseline" => no_baseline = true,
            "--emit-baseline" => emit_baseline = true,
            "--timings" => timings = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument '{other}'")),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("ohpc-analyze: cannot find a workspace root (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let files = match source::load_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ohpc-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    let (diags, pass_times) = rules::run_all_timed(&files, deny_all, &only);
    if timings {
        let total: std::time::Duration = pass_times.iter().map(|(_, d)| *d).sum();
        eprintln!("ohpc-analyze: per-pass timings ({} ms total):", total.as_millis());
        for (name, d) in &pass_times {
            eprintln!("ohpc-analyze:   {:<20} {:>8.1} ms", name, d.as_secs_f64() * 1e3);
        }
    }

    if emit_baseline {
        print!("{}", baseline::render(&diags));
        return ExitCode::SUCCESS;
    }

    // Baseline: explicit path, or the committed default when present.
    let mut suppressed = 0usize;
    let mut diags = diags;
    let effective = match (&baseline_path, no_baseline) {
        (_, true) => None,
        (Some(p), _) => Some(p.clone()),
        (None, _) => {
            let default = root.join("crates/analyze/baseline.txt");
            default.exists().then_some(default)
        }
    };
    if let Some(path) = effective {
        match baseline::load(&path) {
            Ok(entries) => {
                let (kept, n, stale) = baseline::apply(diags, &entries);
                diags = kept;
                suppressed = n;
                // Stale entries are findings, not just stderr noise — but
                // only when every rule ran: with a `--rule` subset, other
                // rules' entries would be falsely stale.
                if only.is_empty() {
                    let mut extra = baseline::stale_diags(&stale, &path);
                    if deny_all {
                        for d in &mut extra {
                            d.severity = Severity::Deny;
                        }
                    }
                    diags.extend(extra);
                    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
                } else {
                    for e in &stale {
                        eprintln!(
                            "ohpc-analyze: possibly stale baseline entry ({} / {}) — \
                             rerun without --rule to confirm, then remove it from {}",
                            e.rule,
                            e.file,
                            path.display()
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("ohpc-analyze: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if format_json {
        print!("{}", report::to_sarif(&diags, files.len()));
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    let denies = diags.iter().filter(|d| d.severity == Severity::Deny).count();
    let warns = diags.len() - denies;
    eprintln!(
        "ohpc-analyze: scanned {} files, {} findings ({} deny, {} warn){}",
        files.len(),
        diags.len(),
        denies,
        warns,
        if suppressed > 0 { format!(", {suppressed} baselined") } else { String::new() }
    );
    if denies > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("ohpc-analyze: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Nearest ancestor of the current directory whose Cargo.toml declares
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
