//! From a run's outcome to what it prints: the metrics by name, a line of
//! run facts for `ledger compare`, and the result line the pipeline reads.

use crate::cli::RunArgs;
use crate::driver::{Outcome, Plan, WindowStat};
use crate::json::Json;
use crate::spec::{MetricDecl, Workload};
use crate::stats::{best3_mean, median, midmean, Better};

/// A measured value under its declared name.
pub type Value = (&'static str, f64);

fn per_window(out: &Outcome, f: impl Fn(&WindowStat) -> Option<f64>) -> Vec<f64> {
    out.windows.iter().filter_map(f).collect()
}

/// Quiet-window figure of a per-window series; NaN when no window has one.
fn quiet(series: &[f64], better: Better) -> f64 {
    best3_mean(series, better).unwrap_or(f64::NAN)
}

/// `f` over the run's windows, the middle half of them averaged; NaN when
/// no window has a figure.
fn typical_window(out: &Outcome, f: impl Fn(&WindowStat) -> Option<f64>) -> f64 {
    midmean(&per_window(out, f)).unwrap_or(f64::NAN)
}

/// The seven end-to-end metrics of an untraced run under a plan with a
/// yardstick. `setup_s` is process start to the first measured op.
///
/// A timing is the window's figure against the same window's yardstick — a
/// latency over the yardstick's mean round trip, calls per second over the
/// round trips per second the yardstick made of its own time — averaged over
/// the middle half of the run's windows.
pub fn end_to_end(out: &Outcome, setup_s: f64) -> Vec<Value> {
    let ops = out.accounted_ops.max(1) as f64;
    vec![
        ("setup_s", setup_s),
        (
            "ops_vs_yardstick",
            typical_window(out, |w| {
                let trips_per_s = 1e9 / w.yardstick_mean_ns()?;
                (w.ops_per_s > 0.0).then(|| w.ops_per_s / trips_per_s)
            }),
        ),
        (
            "rtt_p50_x_yardstick",
            typical_window(out, |w| Some(w.p50_ns? / w.yardstick_mean_ns()?)),
        ),
        (
            "rtt_p90_x_yardstick",
            typical_window(out, |w| Some(w.p90_ns? / w.yardstick_mean_ns()?)),
        ),
        ("allocs_per_op", out.alloc.allocs as f64 / ops),
        ("alloc_bytes_per_op", out.alloc.bytes as f64 / ops),
        ("peak_rss_mib", out.peak_rss_mib),
    ]
}

/// What a client sees on the wall clock, each the quiet-window figure (the
/// mean of the best three windows): the raw numbers behind the end-to-end
/// ratios. `yardstick.rtt_us` is left out when the plan had no yardstick.
pub fn wall_clock(wl: &Workload, out: &Outcome) -> Vec<Value> {
    let ops_per_s = quiet(&per_window(out, |w| Some(w.ops_per_s)), Better::Higher);
    let bytes_per_op = wl.payload_bytes_per_unit() as f64 / wl.ops_per_unit() as f64;
    let mut values = vec![
        ("client.ops_per_s", ops_per_s),
        (
            "client.payload_mib_per_s",
            ops_per_s * bytes_per_op / (1u64 << 20) as f64,
        ),
        (
            "client.rtt_p50_us",
            quiet(&per_window(out, |w| w.p50_ns), Better::Lower) / 1e3,
        ),
        (
            "client.rtt_p90_us",
            quiet(&per_window(out, |w| w.p90_ns), Better::Lower) / 1e3,
        ),
    ];
    let yardstick = per_window(out, WindowStat::yardstick_mean_ns);
    if !yardstick.is_empty() {
        values.push(("yardstick.rtt_us", quiet(&yardstick, Better::Lower) / 1e3));
    }
    values
}

/// Prints `values` as `#`-prefixed lines: for people, not for the pipeline.
pub fn print_aside(values: &[Value], units: &[MetricDecl]) {
    for (name, v) in values {
        let unit = units
            .iter()
            .find(|d| d.name == *name)
            .map_or("", |d| d.unit);
        println!("# {name:<34} {v:>18.6} {unit}");
    }
}

/// The whole-process and client-side per-layer metrics an untraced run
/// yields: what the CPU did per op, and how the windows spread.
pub fn process_and_client(out: &Outcome) -> Vec<Value> {
    let ops = out.accounted_ops.max(1) as f64;
    let rates = per_window(out, |w| Some(w.ops_per_s));
    let samples: Vec<f64> = out.windows.iter().map(|w| w.samples as f64).collect();
    vec![
        (
            "process.cpu_us_per_op",
            out.usage.cpu.as_secs_f64() * 1e6 / ops,
        ),
        (
            "process.cpu_busy_frac",
            out.usage.cpu.as_secs_f64() / out.accounted_time.as_secs_f64(),
        ),
        (
            "process.vol_ctx_switches_per_op",
            out.usage.vol_ctx as f64 / ops,
        ),
        (
            "process.invol_ctx_switches_per_op",
            out.usage.invol_ctx as f64 / ops,
        ),
        ("process.threads", out.threads as f64),
        (
            "client.rtt_p99_us",
            quiet(&per_window(out, |w| w.p99_ns), Better::Lower) / 1e3,
        ),
        (
            "client.rtt_max_us",
            out.windows.iter().map(|w| w.max_ns).max().unwrap_or(0) as f64 / 1e3,
        ),
        (
            "client.window_spread",
            median(&rates).unwrap_or(f64::NAN) / quiet(&rates, Better::Higher),
        ),
        (
            "client.samples_per_window",
            median(&samples).unwrap_or(f64::NAN),
        ),
    ]
}

/// Prints the per-window table (`#`-prefixed, for people). `ops/s` is per
/// second of the clients' own time in the workload; `yard_us` and `trips`
/// are the yardstick's mean round trip and how many made it up.
pub fn print_windows(out: &Outcome) {
    println!(
        "# window      ops/s    p50_us    p90_us    p99_us    max_us  samples  beyond_p90   yard_us   trips"
    );
    for (i, w) in out.windows.iter().enumerate() {
        let us = |v: Option<f64>| v.map_or(f64::NAN, |ns| ns / 1e3);
        println!(
            "# {:>6} {:>10.1} {:>9.2} {:>9.2} {:>9.2} {:>9.1} {:>8} {:>11} {:>9.2} {:>7}",
            i,
            w.ops_per_s,
            us(w.p50_ns),
            us(w.p90_ns),
            us(w.p99_ns),
            w.max_ns as f64 / 1e3,
            w.samples,
            w.beyond_p90,
            us(w.yardstick_mean_ns()),
            w.yardstick_trips
        );
    }
}

/// Key under which the run-facts line is recognised.
pub const META_KEY: &str = "ledger_run";

/// The run-facts line: which workload, seed and mode produced the result
/// line that follows it. `ledger compare` groups runs by it.
pub fn meta_line(args: &RunArgs, cpu: usize, plan: &Plan) -> String {
    let facts = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.name.into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        (
            "trace".into(),
            Json::Num(if args.trace { 1.0 } else { 0.0 }),
        ),
        ("clients".into(), Json::Num(args.workload.clients as f64)),
        ("pinned_cpu".into(), Json::Num(cpu as f64)),
        (
            "available_parallelism".into(),
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("warmup_s".into(), Json::Num(plan.warmup.as_secs_f64())),
        ("windows".into(), Json::Num(plan.windows as f64)),
        ("window_s".into(), Json::Num(plan.window.as_secs_f64())),
        (
            "cycle_work_s".into(),
            Json::Num(plan.cycle.map_or(0.0, |c| c.work.as_secs_f64())),
        ),
        (
            "cycle_yardstick_s".into(),
            Json::Num(plan.cycle.map_or(0.0, |c| c.yardstick.as_secs_f64())),
        ),
    ]);
    Json::Obj(vec![(META_KEY.into(), facts)]).to_line()
}

/// What was wrong with a run made of `phases`, beside failed operations:
/// each phase's first failure, and a process that lost its pinning.
pub fn problems(phases: &[&Outcome]) -> Vec<String> {
    let mut found: Vec<String> = phases
        .iter()
        .filter_map(|o| o.first_error.clone())
        .collect();
    let lost: u64 = phases.iter().map(|o| o.yardstick_failed).sum();
    if lost > 0 {
        found.push(format!(
            "{lost} yardstick round trip(s) did not bring back what was sent"
        ));
    }
    if !crate::sys::is_pinned() {
        found.push("the process is no longer pinned to one CPU".into());
    }
    found
}

/// Prints every declared metric by name with its unit, then the result line:
/// one JSON object with exactly `correct`, `attempted`, `failed` and
/// `metrics`. A declared metric that was not measured, or is not a finite
/// number, makes the run incorrect. Returns whether the run was correct.
pub fn print_result(
    declared: &[MetricDecl],
    values: &[Value],
    attempted: u64,
    failed: u64,
    mut problems: Vec<String>,
) -> bool {
    let mut metrics = Vec::with_capacity(declared.len());
    for decl in declared {
        let measured: Vec<f64> = values
            .iter()
            .filter(|(name, _)| *name == decl.name)
            .map(|(_, v)| *v)
            .collect();
        match measured[..] {
            [v] if v.is_finite() => {
                println!("{:<36} {:>18.6} {}", decl.name, v, decl.unit);
                metrics.push((
                    decl.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(decl.unit.into())),
                    ]),
                ));
            }
            [v] => problems.push(format!("{} is {v}", decl.name)),
            [] => problems.push(format!("{} was not measured", decl.name)),
            _ => problems.push(format!("{} was measured more than once", decl.name)),
        }
    }
    for (name, _) in values {
        if !declared.iter().any(|d| d.name == *name) {
            problems.push(format!("{name} is measured but not declared"));
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    if attempted == 0 {
        problems.push("no operation was attempted".into());
    }
    for p in &problems {
        println!("# INCORRECT: {p}");
    }
    let correct = problems.is_empty();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted.max(1) as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_line());
    correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Counts;
    use crate::driver::{Plan, WindowStat};
    use crate::spec::{self, END_TO_END};
    use crate::sys::Usage;
    use std::time::{Duration, Instant};

    /// A run whose window `i` made `rates[i]` calls a second, each call
    /// `yard[i]`-independent in length, beside a yardstick whose round trip
    /// took `yard[i]` ns in that window.
    fn outcome(rates: &[u64], yard: &[u64]) -> Outcome {
        let plan = Plan {
            warmup: Duration::ZERO,
            windows: rates.len(),
            window: Duration::from_secs(2),
            cycle: (!yard.is_empty()).then_some(crate::driver::Cycle::STANDARD),
        };
        Outcome {
            plan,
            measure_start: Instant::now(),
            windows: rates
                .iter()
                .enumerate()
                .map(|(i, &r)| WindowStat {
                    ops: r * 2,
                    ops_per_s: r as f64,
                    yardstick_trips: if yard.is_empty() { 0 } else { 1000 },
                    yardstick_ns: yard.get(i).map_or(0, |ns| ns * 1000),
                    samples: r * 2,
                    p50_ns: Some(1e9 / r as f64),
                    p90_ns: Some(1.5e9 / r as f64),
                    p99_ns: Some(3e9 / r as f64),
                    max_ns: 9_000_000,
                    beyond_p90: r / 5,
                })
                .collect(),
            attempted: rates.iter().sum::<u64>() * 2,
            failed: 0,
            first_error: None,
            yardstick_failed: 0,
            accounted_ops: 1_000_000,
            accounted_time: Duration::from_secs(30),
            alloc: Counts {
                allocs: 86_000_000,
                bytes: 4_000_000_000,
            },
            usage: Usage {
                cpu: Duration::from_secs(30),
                vol_ctx: 6_000_000,
                invol_ctx: 1000,
            },
            ops_since_start: 1_100_000,
            threads: 14,
            peak_rss_mib: 9.5,
        }
    }

    fn get(values: &[Value], name: &str) -> f64 {
        values.iter().find(|(n, _)| *n == name).expect(name).1
    }

    #[test]
    fn end_to_end_reads_each_window_against_its_own_yardstick() {
        // The host slows seven of fifteen windows by half: calls and
        // yardstick alike. Raw, the windows differ by half; against the
        // yardstick they are the same window.
        let slow = |i: usize| i % 2 == 1;
        let rates: Vec<u64> = (0..15)
            .map(|i| if slow(i) { 40_000 } else { 80_000 })
            .collect();
        let yard: Vec<u64> = (0..15)
            .map(|i| if slow(i) { 10_000 } else { 5_000 })
            .collect();
        let out = outcome(&rates, &yard);
        let values = end_to_end(&out, 3.02);
        // 80 000 calls/s beside 200 000 trips/s; a 12.5 us p50 beside 5 us.
        assert!((get(&values, "ops_vs_yardstick") - 0.4).abs() < 1e-12);
        assert!((get(&values, "rtt_p50_x_yardstick") - 2.5).abs() < 1e-12);
        assert!((get(&values, "rtt_p90_x_yardstick") - 3.75).abs() < 1e-12);
        assert_eq!(get(&values, "allocs_per_op"), 86.0);
        assert_eq!(get(&values, "alloc_bytes_per_op"), 4000.0);
        assert_eq!(get(&values, "setup_s"), 3.02);
        // Every declared end-to-end metric is produced, once.
        for decl in &END_TO_END {
            assert_eq!(
                values.iter().filter(|(n, _)| *n == decl.name).count(),
                1,
                "{}",
                decl.name
            );
        }
        // One disturbed window moves nothing: the ends are dropped.
        let mut yard_off = yard.clone();
        yard_off[4] = 50_000;
        let values_off = end_to_end(&outcome(&rates, &yard_off), 3.02);
        assert!((get(&values_off, "rtt_p50_x_yardstick") - 2.5).abs() < 1e-12);
        // Without a yardstick there is no ratio, and the run says so.
        assert!(get(&end_to_end(&outcome(&rates, &[]), 3.02), "ops_vs_yardstick").is_nan());
    }

    #[test]
    fn wall_clock_figures_use_the_quiet_windows() {
        let mut rates = vec![50_000u64; 12];
        rates.extend([70_000, 71_000, 72_000]);
        let out = outcome(&rates, &[]);
        let wl = spec::workload("shm_small").expect("workload");
        let values = wall_clock(wl, &out);
        assert_eq!(get(&values, "client.ops_per_s"), 71_000.0);
        let mib = 71_000.0 * 48.0 / 1_048_576.0;
        assert!((get(&values, "client.payload_mib_per_s") - mib).abs() < 1e-9);
        // p50 of a window is 1e9/rate ns: the three fastest windows' mean.
        let want = (1e9 / 70_000.0 + 1e9 / 71_000.0 + 1e9 / 72_000.0) / 3.0 / 1e3;
        assert!((get(&values, "client.rtt_p50_us") - want).abs() < 1e-9);
        assert!(!values.iter().any(|(n, _)| *n == "yardstick.rtt_us"));
        let with = wall_clock(wl, &outcome(&rates, &[6_000; 15]));
        assert_eq!(get(&with, "yardstick.rtt_us"), 6.0);

        let layer = process_and_client(&out);
        assert_eq!(get(&layer, "process.cpu_busy_frac"), 1.0);
        assert_eq!(get(&layer, "process.vol_ctx_switches_per_op"), 6.0);
        assert!((get(&layer, "client.window_spread") - 50_000.0 / 71_000.0).abs() < 1e-12);
    }

    #[test]
    fn a_missing_or_broken_metric_makes_the_run_incorrect() {
        let all: Vec<Value> = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        assert!(print_result(&END_TO_END, &all, 10, 0, vec![]));
        assert!(!print_result(&END_TO_END, &all[1..], 10, 0, vec![]));
        let mut nan = all.clone();
        nan[2].1 = f64::NAN;
        assert!(!print_result(&END_TO_END, &nan, 10, 0, vec![]));
        assert!(!print_result(&END_TO_END, &all, 10, 1, vec![]));
        assert!(!print_result(
            &END_TO_END,
            &all,
            10,
            0,
            vec!["not pinned".into()]
        ));
        let mut extra = all.clone();
        extra.push(("undeclared", 1.0));
        assert!(!print_result(&END_TO_END, &extra, 10, 0, vec![]));
    }
}
