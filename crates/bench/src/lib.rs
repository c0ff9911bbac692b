//! Experiment harness for the Open HPC++ reproduction.
//!
//! Each module regenerates one artifact of the paper's evaluation:
//!
//! * [`fig5`] — Figure 5: bandwidth vs array size for the four protocol
//!   configurations over a simulated 155 Mbps ATM (or Ethernet) link;
//! * [`fig4`] — the Figure 4 migration walk: S1→S2→S3→S4 with protocol
//!   re-selection and bandwidth at each hop;
//! * [`fig3`] — the Figure 3 scenario: two clients sharing one GP, one
//!   authenticating and one not, with roles swapping after migration;
//! * [`overhead`] — the §5 capability-overhead claim quantified per
//!   capability and payload size;
//! * [`artifact`] — per-figure medians rendered as `BENCH_overhead.json`;
//! * [`workload`] — the echo-array service all experiments call;
//! * [`setup`] — deployment plumbing (simulated cluster, contexts, pools);
//! * [`local`] — the same service over the real mem and TCP transports;
//! * [`plot`] — ASCII log-log plotting for terminal output.
//!
//! Binaries `fig5`, `fig4`, `fig3` and `overhead_table` wrap these with CSV
//! output; criterion benches under `benches/` cover the substrate costs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod contention;
pub mod fig3;
pub mod fig4;
pub mod fig5;
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
