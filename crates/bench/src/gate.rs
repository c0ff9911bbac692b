//! The gate policy of `ohpc-bench`'s three gated subcommands: their
//! thresholds, and the one re-measure rule they share.
//!
//! A gate passes when a measurement is within its thresholds. On a breach
//! it measures again, up to [`MEASUREMENTS`] times in all, and fails only if
//! every measurement breaches: a shared runner can spend seconds in a skewed
//! phase that smears one measurement, while a real regression breaches
//! every time. Each measurement prints its results as `name value` lines.

use std::time::Duration;

use crate::overload::{run_overload, OverloadConfig};
use crate::selection_cost;
use crate::{median, trace_overhead};

/// Measurements a gate takes at most: the first and two re-measures.
pub const MEASUREMENTS: usize = 3;

/// Most the always-on flight recorder may cost on the Figure 3 path, as a
/// percentage of the recording-off call latency.
const MAX_TRACING_OVERHEAD_PCT: f64 = 5.0;

/// Dispatch workers of the overload scenario.
const OVERLOAD_WORKERS: usize = 8;

/// Threads beyond the workers the overload burst may peak at: main, sender,
/// census, accept and reader threads, the flight recorder, and slack. It
/// only has to tell "about the worker cap" from "about the burst" (10k).
const OVERLOAD_THREAD_SLACK: usize = 48;

/// Most a first-row win may cost at 32 rows over 2 rows. The walk stops at
/// the first row, so a cost that grows with the table is per-row work done
/// per request that belongs at bind.
const MAX_FIRST_ROW_GROWTH: f64 = 1.5;

/// Runs `measure` until a measurement passes, at most [`MEASUREMENTS`]
/// times. Returns how many measurements it took, or the last breach.
pub fn gate(mut measure: impl FnMut() -> Result<(), String>) -> Result<usize, String> {
    let mut breach = String::new();
    for n in 1..=MEASUREMENTS {
        match measure() {
            Ok(()) => return Ok(n),
            Err(b) => {
                eprintln!("breach {n}/{MEASUREMENTS}: {b}");
                breach = b;
            }
        }
    }
    Err(breach)
}

/// Prints one `name value` result line, to three decimals at most.
fn report(name: &str, value: f64) {
    println!("{name} {}", (value * 1e3).round() / 1e3);
}

/// One measurement of the flight recorder's cost: interleaved rounds of
/// echo calls over the Figure 3 authenticated glue path, recording off then
/// on ([`trace_overhead`]).
pub fn tracing() -> Result<(), String> {
    let t = trace_overhead::run(15, 192);
    let pct = t.overhead_pct();
    report("tracing.median_on_us", median(t.on_us));
    report("tracing.median_off_us", median(t.off_us));
    report("tracing.overhead_pct", pct);
    if pct > MAX_TRACING_OVERHEAD_PCT {
        let max = MAX_TRACING_OVERHEAD_PCT;
        return Err(format!("tracing costs {pct:.2}%, over the {max}% budget"));
    }
    Ok(())
}

/// One measurement of admission shedding: a 10k-request burst at the
/// bounded worker pool with shedding on, then off ([`crate::overload`]).
pub fn overload() -> Result<(), String> {
    let (workers, delay) = (OVERLOAD_WORKERS, Duration::from_micros(200));
    let run = |admission_limit| {
        run_overload(&OverloadConfig { offered: 10_000, workers, admission_limit, delay })
    };
    let samples = [("shed_on", run(Some(256))), ("shed_off", run(None))];
    for (name, s) in &samples {
        let report = |metric, value| report(&format!("overload.{name}.{metric}"), value);
        report("served", s.served as f64);
        report("shed", s.shed as f64);
        report("p50_ms", s.p50_ms);
        report("p99_ms", s.p99_ms);
        report("served_p99_ms", s.served_p99_ms);
        report("peak_threads", s.peak_threads as f64);
    }
    let [(_, on), (_, off)] = &samples;
    report("overload.p99_speedup", off.p99_ms / on.p99_ms);
    if on.p99_ms >= off.p99_ms {
        let (on, off) = (on.p99_ms, off.p99_ms);
        return Err(format!("shedding did not improve p99 ({on:.3} ms on, {off:.3} ms off)"));
    }
    // The census reads /proc; where that is missing it reads 0 and never breaches.
    let cap = workers + OVERLOAD_THREAD_SLACK;
    match samples.iter().find(|(_, s)| s.peak_threads > cap) {
        Some((name, s)) => Err(format!("{name} peaked at {} threads, over {cap}", s.peak_threads)),
        None => Ok(()),
    }
}

/// One measurement of protocol selection at each of [`selection_cost::TABLE_SIZES`], won by
/// the first row and by the last ([`selection_cost`]).
pub fn selection() -> Result<(), String> {
    let samples = selection_cost::measure(21, 2_000);
    for s in &samples {
        report(&format!("selection.rows_{}.first_row_ns", s.table_len), s.first_ns);
        report(&format!("selection.rows_{}.last_row_ns", s.table_len), s.last_ns);
    }
    let (Some(small), Some(large)) = (samples.first(), samples.last()) else {
        return Ok(());
    };
    let extra_rows = (large.table_len - small.table_len) as f64;
    report("selection.per_extra_row_ns", (large.last_ns - small.last_ns) / extra_rows);
    let growth = large.first_ns / small.first_ns;
    report("selection.first_row_growth", growth);
    if growth > MAX_FIRST_ROW_GROWTH {
        return Err(format!("first-row win grew {growth:.2}x, past {MAX_FIRST_ROW_GROWTH}x"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `gate` over a measure that returns `outcomes` in turn, and
    /// reports the gate's result with the number of measurements taken.
    fn run(outcomes: &[Result<(), &str>]) -> (Result<usize, String>, usize) {
        let mut taken = 0;
        let result = gate(|| {
            taken += 1;
            outcomes[taken - 1].map_err(str::to_string)
        });
        (result, taken)
    }

    #[test]
    fn a_first_pass_takes_one_measurement() {
        assert_eq!(run(&[Ok(())]), (Ok(1), 1));
    }

    #[test]
    fn a_breach_then_a_pass_takes_two() {
        assert_eq!(run(&[Err("smeared"), Ok(())]), (Ok(2), 2));
    }

    #[test]
    fn three_breaches_fail_with_the_last() {
        let outcomes = [Err("first"), Err("second"), Err("third"), Ok(())];
        assert_eq!(run(&outcomes), (Err("third".to_string()), MEASUREMENTS));
    }
}
