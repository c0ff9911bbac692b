//! Emits `BENCH_contention.json`: concurrent-clients throughput of the
//! multiplexed per-endpoint channel vs the bound of a serialized wire.
//!
//! Usage: `cargo run --release -p ohpc-bench --bin bench_contention_json
//! [path]` (default output path: `BENCH_contention.json` in the current
//! directory). `OHPC_CONTENTION_CLIENTS=1,4,16` overrides the client sweep.

use std::time::Duration;

use ohpc_bench::mux_contention::{
    client_counts_from_env, contention_artifact, run_contention, serialized_bound_rps,
    ContentionSample,
};

fn main() {
    let path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_contention.json".to_string());
    let delay = Duration::from_millis(1);
    let rows: Vec<ContentionSample> = client_counts_from_env()
        .into_iter()
        .map(|clients| run_contention(clients, 40, delay))
        .collect();
    for row in &rows {
        println!(
            "clients={:>3}  mux={:>8.1} req/s  serialized<={:>8.1} req/s  speedup={:.2}x",
            row.clients,
            row.throughput_rps,
            serialized_bound_rps(delay),
            row.speedup_over_serialized(delay)
        );
    }
    let json = contention_artifact(&rows, delay);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path} ({} bytes)", json.len());
}
