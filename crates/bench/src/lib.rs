//! Experiment harness for the Open HPC++ reproduction.
//!
//! Each module regenerates one artifact of the paper's evaluation or one
//! measurement behind a claim of this reproduction:
//!
//! * [`fig5`] — Figure 5: bandwidth vs array size for the four protocol
//!   configurations over a simulated 155 Mbps ATM (or Ethernet) link;
//! * [`fig4`] — the Figure 4 migration walk: S1→S2→S3→S4 with protocol
//!   re-selection and bandwidth at each hop;
//! * [`fig3`] — the Figure 3 scenario: two clients sharing one GP, one
//!   authenticating and one not, with roles swapping after migration;
//! * [`overhead`] — the §5 capability-overhead claim quantified per
//!   capability and payload size;
//! * [`loadbalance`] — the §4.3 load-balancing payoff timeline;
//! * [`contention`] — clients sharing one simulated LAN segment;
//! * [`mux_contention`] — concurrent clients on one multiplexed connection,
//!   on the wall clock;
//! * [`trace_overhead`], [`overload`], [`selection_cost`] — the flight
//!   recorder's cost, admission shedding, and the selection walk;
//! * [`gate`] — the thresholds and re-measure rule those three are held to;
//! * [`workload`] — the echo-array service all experiments call;
//! * [`setup`] — deployment plumbing (simulated cluster, contexts, pools);
//! * [`local`] — the same service over the real mem and TCP transports;
//! * [`plot`] — ASCII log-log plotting for terminal output.
//!
//! The `ohpc-bench` binary runs each as a subcommand.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod contention;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod gate;
pub mod loadbalance;
pub mod local;
pub mod mux_contention;
pub mod overhead;
pub mod overload;
pub mod plot;
pub mod selection_cost;
pub mod setup;
pub mod trace_overhead;
pub mod workload;

/// Median of a sample set; 0.0 for an empty set.
pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_robust() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0]), 3.0);
        assert_eq!(median(vec![1.0, 9.0]), 5.0);
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
    }
}
