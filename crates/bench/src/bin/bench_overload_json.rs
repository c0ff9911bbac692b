//! Emits `BENCH_overload.json`: the sustained-overload pair — admission
//! shedding on vs off on the bounded worker pool.
//!
//! Usage: `cargo run --release -p ohpc-bench --bin bench_overload_json
//! [path] [--gate]` (default path `BENCH_overload.json`). With `--gate`
//! (the CI configuration) the run fails unless:
//!
//! * shedding improves all-replies p99 (`shed_on.p99 < shed_off.p99`) —
//!   re-measured once before declaring a breach, since a loaded CI runner
//!   can smear any single run;
//! * both scenarios keep the process thread count near the worker cap (no
//!   thread explosion at 10k offered concurrency).
//!
//! `OHPC_OVERLOAD_OFFERED` overrides the burst size (default 10000).

use std::time::Duration;

use ohpc_bench::overload::{overload_artifact, run_overload, OverloadConfig, OverloadSample};

const WORKERS: usize = 8;
const LIMIT: usize = 256;

/// Harness + runtime threads that are not dispatch workers: main, sender,
/// census, the context's accept and reader threads, telemetry flight
/// recorder, and slack for the test runner. The gate only needs to separate
/// "about the worker cap" from "about the burst size" (10k).
const THREAD_SLACK: usize = 48;

fn offered_from_env() -> usize {
    std::env::var("OHPC_OVERLOAD_OFFERED")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10_000)
}

fn shed_pair(offered: usize) -> (OverloadSample, OverloadSample) {
    let run = |admission_limit| {
        let delay = Duration::from_micros(200);
        run_overload(&OverloadConfig { offered, workers: WORKERS, admission_limit, delay })
    };
    (run(Some(LIMIT)), run(None))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_overload.json".to_string());

    let offered = offered_from_env();
    let (mut on, mut off) = shed_pair(offered);
    if gate && on.p99_ms >= off.p99_ms {
        // One re-measure before declaring a regression: scheduling noise on
        // a shared runner can smear a single burst.
        eprintln!(
            "shed-on p99 {:.3} ms >= shed-off p99 {:.3} ms — re-measuring once",
            on.p99_ms, off.p99_ms
        );
        let pair = shed_pair(offered);
        on = pair.0;
        off = pair.1;
    }
    for (name, s) in [("shed_on", &on), ("shed_off", &off)] {
        println!(
            "{name:>9}: {} offered, served={} shed={} p50={:.3}ms p99={:.3}ms \
             served_p99={:.3}ms peak_threads={}",
            s.offered, s.served, s.shed, s.p50_ms, s.p99_ms, s.served_p99_ms, s.peak_threads
        );
    }

    let json = overload_artifact(&[("shed_on", on.clone()), ("shed_off", off.clone())]);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path} ({} bytes)", json.len());

    if gate {
        let mut failed = false;
        if on.p99_ms >= off.p99_ms {
            eprintln!(
                "GATE FAIL: shedding did not improve p99 ({:.3} ms on vs {:.3} ms off)",
                on.p99_ms, off.p99_ms
            );
            failed = true;
        }
        // Thread census is Linux-only; an unavailable /proc reads as 0,
        // which can never breach the cap, so no separate platform check.
        for (name, s) in [("shed_on", &on), ("shed_off", &off)] {
            if s.peak_threads > WORKERS + THREAD_SLACK {
                eprintln!(
                    "GATE FAIL: {name} peaked at {} threads (cap {} workers + {} slack) — \
                     dispatch is spawning per request again",
                    s.peak_threads, WORKERS, THREAD_SLACK
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "gates pass: p99 {:.3} ms (shed on) < {:.3} ms (shed off); \
             peak {} threads within cap",
            on.p99_ms, off.p99_ms, on.peak_threads.max(off.peak_threads)
        );
    }
}
