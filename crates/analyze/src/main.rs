//! `ohpc-analyze`: the workspace's own static-analysis pass.
//!
//! Parses every first-party crate and enforces what neither the compiler,
//! clippy (its panic policy is denied in the wire-facing crates' `lib.rs`)
//! nor the test suite states. Seven rules, each documented in its module
//! under `rules/`: `lock-order`, `guard-across-blocking`, `shared-state`,
//! `telemetry-coverage`, `wire-described`, `bounded-recv` and
//! `unbounded-spawn`.
//!
//! Output is one line per finding (`file:line: [rule] message`), and any
//! finding fails the run. Infallible sites are suppressed with
//! `// ohpc-analyze: allow(<rule>) — <reason>`; an annotation without a
//! reason is itself a finding, and one that suppresses nothing is reported
//! stale.

use std::path::PathBuf;
use std::process::ExitCode;

use ohpc_analyze::{rules, source};

const USAGE: &str = "\
usage: ohpc-analyze [--root <dir>]

  --root <dir>  workspace root (default: nearest ancestor with [workspace])
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root requires a path"),
            },
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

    let diags = rules::run_all(&files);
    for d in &diags {
        println!("{d}");
    }
    eprintln!("ohpc-analyze: scanned {} files, {} findings", files.len(), diags.len());
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
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
