//! What the benchmark runs and what it reports: the four workloads and the
//! metric names, units, directions and bounds. `BENCHMARK.json` repeats this
//! for the pipeline; `ledger check` fails if the two ever differ.

use crate::stats::Better;

/// The transport under the OR row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `OrRow::Plain(SHM)` over a `MemFabric`: in-process channels.
    Shm,
    /// `TransportProto(TCP)` over the host's loopback interface.
    TcpLoopback,
}

/// A capability in a workload's glue chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cap {
    /// `TimeoutCap`: a request budget (set far above any run's count).
    Timeout,
    /// `EncryptionCap`: ChaCha20 over request and reply bodies.
    Security,
}

impl Cap {
    /// The capability's wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            Cap::Timeout => "timeout",
            Cap::Security => "security",
        }
    }
}

/// One workload: a deployment and the closed loop driven over it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it is in the set (one line; `BENCHMARK.json` carries the same).
    pub why: &'static str,
    /// Transport.
    pub wire: Wire,
    /// Glue chain; empty means a plain row.
    pub caps: &'static [Cap],
    /// Closed-loop client threads sharing one GP and one connection.
    pub clients: usize,
    /// `i32`s in the echoed array.
    pub ints: usize,
    /// 0: every op is a two-way `echo`. n > 0: the timed unit is n one-way
    /// `echo`es followed by one two-way `served()`.
    pub oneways_per_batch: usize,
}

/// XDR body of a `Vec<i32>`: a length word plus four bytes an element.
pub const fn xdr_len(ints: usize) -> usize {
    4 + 4 * ints
}

impl Workload {
    /// Invocations in one timed unit.
    pub fn ops_per_unit(&self) -> usize {
        self.oneways_per_batch + 1
    }

    /// Useful XDR body bytes one timed unit moves: arguments plus result of
    /// a two-way call, arguments only of a one-way (`served()` takes none
    /// and returns a `u64`).
    pub fn payload_bytes_per_unit(&self) -> usize {
        if self.oneways_per_batch == 0 {
            2 * xdr_len(self.ints)
        } else {
            self.oneways_per_batch * xdr_len(self.ints) + 8
        }
    }
}

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "shm_small",
        why: "1 client, 5-int echo over plain SHM: fixed per-call cost (marshal, selection, framing, mux and executor hand-offs, telemetry) is all of it; caps, crypto and TCP do nothing",
        wire: Wire::Shm,
        caps: &[],
        clients: 1,
        ints: 5,
        oneways_per_batch: 0,
    },
    Workload {
        name: "glue_sec_tcp_bulk",
        why: "1 client, 1 MiB echo through glue[timeout,security] over TCP loopback: per-byte cost (ChaCha20, body copies, XDR array loops, TCP) is all of it; fixed per-call cost is under 1 %",
        wire: Wire::TcpLoopback,
        caps: &[Cap::Timeout, Cap::Security],
        clients: 1,
        ints: 262_144,
        oneways_per_batch: 0,
    },
    Workload {
        name: "glue_tcp_small_2c",
        why: "2 clients sharing one GP and connection, 5-int echo through glue[timeout] over TCP loopback: per-hop capability cost, a syscall per tiny frame, two waiters in the mux, two requests in the server lane",
        wire: Wire::TcpLoopback,
        caps: &[Cap::Timeout],
        clients: 2,
        ints: 5,
        oneways_per_batch: 0,
    },
    Workload {
        name: "oneway_stream",
        why: "1 client, batches of 63 one-way echoes closed by a two-way served() over plain SHM: send_only, the per-connection serial lane and the barrier, where shm_small has a waiter wake-up per call",
        wire: Wire::Shm,
        caps: &[],
        clients: 1,
        ints: 5,
        oneways_per_batch: 63,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
    }
}

/// The seven end-to-end metrics every workload reports.
///
/// The three timings are ratios to the yardstick measured in the same
/// windows (`crate::yardstick`), not microseconds: on the shared two-vCPU
/// host the baseline was taken on, ten runs of one commit spread (distance
/// between the quartiles over the median) up to 13 % in calls per second and
/// up to 18 % in p90 microseconds, and the pipeline saw 21 % and 29 %; the
/// same runs' ratios spread a few per cent (README, "Method"). The raw
/// figures are printed by every run and reported, without a bound, per
/// layer (`client.*`). Counts spread 0.05 %, peak RSS 3 %. `setup_s` is all
/// fixed warm-up and spreads least, but a benchmark's set-up takes its
/// largest bound.
pub const END_TO_END: [MetricDecl; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_vs_yardstick", "x", Better::Higher, 0.20),
    e2e("rtt_p50_x_yardstick", "x", Better::Lower, 0.25),
    e2e("rtt_p90_x_yardstick", "x", Better::Lower, 0.25),
    e2e("allocs_per_op", "count", Better::Lower, 0.02),
    e2e("alloc_bytes_per_op", "B", Better::Lower, 0.02),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics of a traced run, grouped by the module they
/// attribute to. A `*_us` segment is the mean over the typical traced units
/// (the middle half by root span), its `*_allocs` twin the median over all
/// of them; probes run beside the workload.
pub const PER_LAYER: [MetricDecl; 79] = [
    // xdr
    layer("xdr.client_encode_us", "us", Lower),
    layer("xdr.client_encode_allocs", "count", Lower),
    layer("xdr.client_decode_us", "us", Lower),
    layer("xdr.client_decode_allocs", "count", Lower),
    layer("xdr.server_decode_us", "us", Lower),
    layer("xdr.server_decode_allocs", "count", Lower),
    layer("xdr.server_encode_us", "us", Lower),
    layer("xdr.server_encode_allocs", "count", Lower),
    layer("xdr.vec_i32_encode_mib_per_s", "MiB/s", Higher),
    // orb: gp, selection, message, glue, context
    layer("orb.gp_pre_us", "us", Lower),
    layer("orb.gp_pre_allocs", "count", Lower),
    layer("orb.gp_post_us", "us", Lower),
    layer("orb.gp_post_allocs", "count", Lower),
    layer("orb.glue_pre_us", "us", Lower),
    layer("orb.glue_pre_allocs", "count", Lower),
    layer("orb.glue_post_us", "us", Lower),
    layer("orb.glue_post_allocs", "count", Lower),
    layer("orb.frame_pre_us", "us", Lower),
    layer("orb.frame_pre_allocs", "count", Lower),
    layer("orb.frame_post_us", "us", Lower),
    layer("orb.frame_post_allocs", "count", Lower),
    layer("orb.server_pre_us", "us", Lower),
    layer("orb.server_pre_allocs", "count", Lower),
    layer("orb.server_unglue_us", "us", Lower),
    layer("orb.server_unglue_allocs", "count", Lower),
    layer("orb.server_post_us", "us", Lower),
    layer("orb.server_post_allocs", "count", Lower),
    layer("orb.select_walk_us", "us", Lower),
    // caps and crypto
    layer("caps.client_us", "us", Lower),
    layer("caps.client_allocs", "count", Lower),
    layer("caps.server_us", "us", Lower),
    layer("caps.server_allocs", "count", Lower),
    layer("caps.timeout_us", "us", Lower),
    layer("caps.timeout_allocs", "count", Lower),
    layer("caps.security_us", "us", Lower),
    layer("caps.security_allocs", "count", Lower),
    layer("caps.calls_per_op", "count", Lower),
    layer("crypto.chacha20_mib_per_s", "MiB/s", Higher),
    // transport: mem, tcp, mux
    layer("transport.client_send_us", "us", Lower),
    layer("transport.client_send_allocs", "count", Lower),
    layer("transport.server_send_us", "us", Lower),
    layer("transport.server_send_allocs", "count", Lower),
    layer("transport.request_leg_us", "us", Lower),
    layer("transport.request_leg_allocs", "count", Lower),
    layer("transport.reply_leg_us", "us", Lower),
    layer("transport.reply_leg_allocs", "count", Lower),
    layer("transport.frames_per_op", "count", Lower),
    layer("transport.wire_bytes_per_op", "B", Lower),
    layer("transport.wire_overhead_frac", "ratio", Lower),
    layer("transport.mem_bare_rtt_us", "us", Lower),
    layer("transport.tcp_bare_rtt_us", "us", Lower),
    // runtime
    layer("runtime.queue_wait_us", "us", Lower),
    layer("runtime.queue_wait_allocs", "count", Lower),
    layer("runtime.run_us", "us", Lower),
    layer("runtime.run_allocs", "count", Lower),
    layer("runtime.tasks_per_op", "count", Lower),
    layer("runtime.pool_handoff_us", "us", Lower),
    // guards for paths no workload covers
    layer("nexus.rsr_rtt_us", "us", Lower),
    layer("nexus.rsr_bulk_rtt_us", "us", Lower),
    layer("migrate.move_and_rebind_ms", "ms", Lower),
    // telemetry's own work, untraced run
    layer("telemetry.counter_events_per_op", "count", Lower),
    layer("telemetry.spans_per_op", "count", Lower),
    // whole process, untraced run
    layer("process.cpu_us_per_op", "us", Lower),
    layer("process.cpu_busy_frac", "ratio", Higher),
    layer("process.vol_ctx_switches_per_op", "count", Lower),
    layer("process.invol_ctx_switches_per_op", "count", Lower),
    layer("process.threads", "count", Lower),
    // what a client sees on the wall clock, untraced run: the raw figures
    // behind the end-to-end ratios, and the yardstick they are read against
    layer("client.ops_per_s", "1/s", Higher),
    layer("client.payload_mib_per_s", "MiB/s", Higher),
    layer("client.rtt_p50_us", "us", Lower),
    layer("client.rtt_p90_us", "us", Lower),
    layer("yardstick.rtt_us", "us", Lower),
    layer("client.rtt_p99_us", "us", Lower),
    layer("client.rtt_max_us", "us", Lower),
    layer("client.window_spread", "ratio", Higher),
    layer("client.samples_per_window", "count", Higher),
    layer("deploy.cycle_ms", "ms", Lower),
    // the trace checking itself
    layer("layers.sum_over_root", "ratio", Higher),
    layer("trace.overhead_frac", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, Better::Lower);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(
                m.bound <= setup.bound,
                "{} has a larger bound than setup_s",
                m.name
            );
        }
    }

    #[test]
    fn payload_sizes_match_the_issue() {
        assert_eq!(xdr_len(5), 24);
        assert_eq!(xdr_len(262_144), 1_048_580);
        let oneway = workload("oneway_stream").expect("workload");
        assert_eq!(oneway.ops_per_unit(), 64);
        assert_eq!(oneway.payload_bytes_per_unit(), 63 * 24 + 8);
        assert_eq!(
            workload("shm_small")
                .expect("workload")
                .payload_bytes_per_unit(),
            48
        );
        assert!(workload("nope").is_none());
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }
}
