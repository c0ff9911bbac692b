//! `ledger`: the end-to-end run, and the benchmark's command-line front.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0   one untraced run
//! ledger --workload W --seed N --seconds S --trace 1   hands over to ledger_trace
//! ledger check [BENCHMARK.json]                        smoke-run everything, compare names
//! ledger compare A B                                   judge run set B against run set A
//! ```
//!
//! This binary and the library it links use only the ORB's application-facing
//! API (see `ledger::deploy`); the traced run, which reaches the extension
//! traits, is the separate `ledger_trace` binary.

use std::collections::BTreeSet;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use ledger::cli::{RunArgs, RUN_USAGE};
use ledger::json::Json;
use ledger::spec::{MetricDecl, END_TO_END, PER_LAYER, WORKLOADS};
use ledger::{compare, deploy, driver, report, sys};

#[global_allocator]
static ALLOC: ledger::alloc::CountingAlloc = ledger::alloc::CountingAlloc;

/// Windows in the measured phase of an untraced run.
const WINDOWS: usize = 15;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("check") => check(args.get(1).map_or("BENCHMARK.json", String::as_str)),
        Some("compare") => match &args[1..] {
            [a, b] => run_compare(Path::new(a), Path::new(b)),
            _ => Err("usage: ledger compare <dir A> <dir B>".into()),
        },
        _ => RunArgs::parse(&args)
            .map_err(|e| format!("{e}\nusage: ledger {RUN_USAGE}\n       ledger check [BENCHMARK.json]\n       ledger compare <dir A> <dir B>"))
            .and_then(|run| measure(started, &run)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// The other binary of this package, built beside this one.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(me.with_file_name(name))
}

/// One run. Refuses to start with an `OHPC_*` variable set or unpinned.
fn measure(started: Instant, run: &RunArgs) -> Result<bool, String> {
    if run.trace {
        // The traced run is a different binary; become it.
        let err = Command::new(sibling("ledger_trace")?)
            .args(std::env::args_os().skip(1))
            .exec();
        return Err(format!("cannot start ledger_trace: {err}"));
    }
    let cpu = sys::pin_as_shipped()?;
    let wl = run.workload;

    // Set-up, as a user of the program pays for it: make the inputs, deploy,
    // a first verified call (which dials), then the warm-up.
    let payload = deploy::payload(run.seed, wl.ints);
    let dep = driver::deploy_verified(wl, &payload)?;
    let plan = driver::Plan::new(run.seconds, WINDOWS).with_yardstick();
    let out = driver::run_workload(&dep, wl, &payload, plan)?;
    let setup_s = out.measure_start.duration_since(started).as_secs_f64();
    dep.shutdown();

    report::print_windows(&out);
    report::print_aside(&report::wall_clock(wl, &out), &PER_LAYER);
    println!("{}", report::meta_line(run, cpu, &plan));
    let values = report::end_to_end(&out, setup_s);
    let problems = report::problems(&[&out]);
    Ok(report::print_result(
        &END_TO_END,
        &values,
        out.attempted,
        out.failed,
        problems,
    ))
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let regressions = compare::compare(&compare::load_dir(a)?, &compare::load_dir(b)?);
    println!("{regressions} regression(s)");
    Ok(regressions == 0)
}

/// Names declared under `key` of the manifest, with the unit (and, for
/// end-to-end metrics, direction and bound) each carries.
fn declared(manifest: &Json, key: &str) -> Result<Vec<(String, Json)>, String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("manifest has no '{key}' list"))?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("a '{key}' entry has no name"))?;
            Ok((name.to_string(), m.clone()))
        })
        .collect()
}

fn same_names(what: &str, manifest: &[(String, Json)], code: &[&str]) -> Vec<String> {
    let m: BTreeSet<&str> = manifest.iter().map(|(n, _)| n.as_str()).collect();
    let c: BTreeSet<&str> = code.iter().copied().collect();
    m.symmetric_difference(&c)
        .map(|n| format!("{what} '{n}' is not in both BENCHMARK.json and the code"))
        .collect()
}

fn same_decls(manifest: &[(String, Json)], code: &[MetricDecl], with_bound: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for decl in code {
        let Some((_, m)) = manifest.iter().find(|(n, _)| n == decl.name) else {
            continue;
        };
        if m.get("unit").and_then(Json::as_str) != Some(decl.unit) {
            problems.push(format!("{}: unit differs from BENCHMARK.json", decl.name));
        }
        let better = if decl.better == ledger::stats::Better::Higher {
            "higher"
        } else {
            "lower"
        };
        if m.get("better").and_then(Json::as_str) != Some(better) {
            problems.push(format!(
                "{}: direction differs from BENCHMARK.json",
                decl.name
            ));
        }
        if with_bound && m.get("bound").and_then(Json::as_f64) != Some(decl.bound) {
            problems.push(format!("{}: bound differs from BENCHMARK.json", decl.name));
        }
    }
    problems
}

/// Runs `ledger` on one workload in a child process and returns the metric
/// names its result line carries, after checking the line says `correct`.
fn smoke(workload: &str, seconds: &str, trace: &str) -> Result<BTreeSet<String>, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(me)
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            seconds,
            "--trace",
            trace,
        ])
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let tell = |what: &str| {
        format!(
            "{workload} --trace {trace}: {what}\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        )
    };
    let result = Json::parse(last).map_err(|e| tell(&format!("last line is not JSON ({e})")))?;
    if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(tell("the run failed or reported itself incorrect"));
    }
    if result.get("failed").and_then(Json::as_f64) != Some(0.0) {
        return Err(tell("operations failed"));
    }
    let keys: Vec<&str> = result
        .as_obj()
        .map(|m| m.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(tell(
            "the result line's keys are not exactly correct, attempted, failed, metrics",
        ));
    }
    Ok(result
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default())
}

/// `ledger check`: a short run of every workload, untraced and traced. Each
/// run verifies its own replies, the `served()` equality and its pinning,
/// and says so in `correct`; this adds that what the runs print is exactly
/// what `BENCHMARK.json` declares. No timing is asserted.
fn check(manifest_path: &str) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(manifest_path).map_err(|e| format!("{manifest_path}: {e}"))?;
    let manifest = Json::parse(&text).map_err(|e| format!("{manifest_path}: {e}"))?;
    let workloads = declared(&manifest, "workloads")?;
    let e2e = declared(&manifest, "end_to_end")?;
    let layers = declared(&manifest, "per_layer")?;

    let mut problems = same_names("workload", &workloads, &WORKLOADS.map(|w| w.name));
    problems.extend(same_names(
        "end-to-end metric",
        &e2e,
        &END_TO_END.map(|m| m.name),
    ));
    problems.extend(same_names(
        "per-layer metric",
        &layers,
        &PER_LAYER.map(|m| m.name),
    ));
    problems.extend(same_decls(&e2e, &END_TO_END, true));
    problems.extend(same_decls(&layers, &PER_LAYER, false));
    for (name, w) in &workloads {
        let why = WORKLOADS.iter().find(|c| c.name == name).map(|c| c.why);
        if why.is_some() && w.get("why").and_then(Json::as_str) != why {
            problems.push(format!(
                "workload {name}: 'why' differs from BENCHMARK.json"
            ));
        }
    }

    for wl in &WORKLOADS {
        for (trace, want) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            println!("check: {} --trace {trace}", wl.name);
            match smoke(wl.name, "2", trace) {
                Err(e) => problems.push(e),
                Ok(printed) => {
                    let want: BTreeSet<String> = want.iter().map(|m| m.name.to_string()).collect();
                    for name in printed.symmetric_difference(&want) {
                        problems.push(format!(
                            "{} --trace {trace}: '{name}' is not both printed and declared",
                            wl.name
                        ));
                    }
                }
            }
        }
    }
    for p in &problems {
        println!("check: FAILED: {p}");
    }
    if problems.is_empty() {
        println!(
            "check: ok — 4 workloads, {} end-to-end and {} per-layer metrics match {manifest_path}",
            END_TO_END.len(),
            PER_LAYER.len()
        );
    }
    Ok(problems.is_empty())
}
