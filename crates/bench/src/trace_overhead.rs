//! Tracing overhead A/B on the Figure 3 request path.
//!
//! The flight recorder is *always on*; its budget is "invisible next to the
//! work". This harness measures that claim on the paper's most interesting
//! path — the Figure 3 authenticated glue entry (`glue[auth]->tcp` across
//! LANs) — by timing identical call batches with span recording on and off
//! (`ohpc_telemetry::set_trace_enabled`; contexts still mint and propagate
//! either way, so the delta isolates the recording cost). Rounds interleave
//! the two modes so drift on a shared CI runner hits both sides equally.

use std::sync::Arc;
use std::time::Instant;

use ohpc_netsim::LinkProfile;

use crate::setup::SimDeployment;
use crate::{fig3, median};
use crate::workload::{make_array, EchoArray, EchoArrayClient, EchoArraySkeleton};

/// Per-round mean call latencies (microseconds), one sample per round.
#[derive(Debug, Clone)]
pub struct TracingOverhead {
    /// Recording on (the always-on default).
    pub on_us: Vec<f64>,
    /// Recording off (baseline).
    pub off_us: Vec<f64>,
}

impl TracingOverhead {
    /// Median of the per-round paired on/off differences, as a percentage
    /// of the off side. Each round times its off and on batches back to
    /// back, so pairing cancels the drift an unpaired median of medians
    /// would read as overhead (or as a speed-up).
    pub fn overhead_pct(&self) -> f64 {
        median(
            self.on_us
                .iter()
                .zip(&self.off_us)
                .filter(|(_, off)| **off > 0.0)
                .map(|(on, off)| (on - off) / off * 100.0)
                .collect(),
        )
    }
}

/// Times `rounds` interleaved batches of `calls_per_round` echo calls over
/// the fig3 authenticated glue path, with recording off then on per round.
/// Recording is left enabled (the default) on return.
pub fn run(rounds: u32, calls_per_round: u32) -> TracingOverhead {
    let (cluster, [server_m, _p1_m, p2_m]) = fig3::fig3_cluster(LinkProfile::ethernet_10());
    let dep = SimDeployment::new(cluster);
    // Sim deployments run traces on virtual time (the deterministic-trace
    // configuration every sim harness uses); restore the previous clock on
    // the way out so the harness leaves no global state behind.
    let prev_clock = ohpc_telemetry::Registry::global().clock();
    dep.net.clock().drive_telemetry(ohpc_telemetry::Registry::global());
    let server = dep.server(server_m);
    let rows = fig3::rows_for(&server);
    let object = server.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
    let or = server.make_or(object, &rows).expect("OR");
    // P2 is cross-LAN, so selection lands on the authenticated glue row —
    // the full capability + transport path, as in the paper's figure.
    let client = EchoArrayClient::new(dep.client_gp(p2_m, or));
    let payload = make_array(256);

    // One round sample = the best of four sub-batch means. Interference on
    // a shared runner (scheduler blips, frequency steps) only ever inflates
    // a timing, so the sub-batch minimum estimates the undisturbed cost and
    // the per-round numbers stay tight enough to compare at the few-percent
    // level.
    let batch = |n: u32| -> f64 {
        let sub = (n / 4).max(1);
        let mut best = f64::INFINITY;
        for _ in 0..4 {
            let t0 = Instant::now();
            for _ in 0..sub {
                client.echo(payload.clone()).expect("echo");
            }
            best = best.min(t0.elapsed().as_secs_f64() * 1e6 / f64::from(sub));
        }
        best
    };

    // Warm-up: dials, pools, code paths. The first two full rounds are
    // burn-in too — measured runs show them systematically inflated (cold
    // ring slots, lazy init, page faults) — so they are timed and discarded.
    let _ = batch(calls_per_round);

    let mut on_us = Vec::with_capacity(rounds as usize);
    let mut off_us = Vec::with_capacity(rounds as usize);
    for round in 0..rounds + 2 {
        ohpc_telemetry::set_trace_enabled(false);
        let off = batch(calls_per_round);
        ohpc_telemetry::set_trace_enabled(true);
        let on = batch(calls_per_round);
        if round >= 2 {
            off_us.push(off);
            on_us.push(on);
        }
    }
    server.shutdown();
    ohpc_telemetry::Registry::global().set_clock(prev_clock);
    TracingOverhead { on_us, off_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_series_have_one_sample_per_round() {
        let t = run(2, 4);
        assert_eq!(t.on_us.len(), 2);
        assert_eq!(t.off_us.len(), 2);
        assert!(t.on_us.iter().chain(&t.off_us).all(|&us| us > 0.0));
        assert!(ohpc_telemetry::trace_enabled(), "recording re-enabled after the run");
    }
}
