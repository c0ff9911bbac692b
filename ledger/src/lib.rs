//! The repository's benchmark: four long, pinned workloads over the real
//! request path, each read against a yardstick measured in the same
//! instants, and an interposed per-layer trace.
//!
//! The library holds what both binaries share. Apart from [`deploy`] and
//! [`driver`], which drive the ORB through its application-facing API only,
//! nothing here knows the program exists: [`alloc`] counts allocations,
//! [`stats`] holds the histogram and the quiet-window estimator, [`sys`] pins
//! the process and reads its accounting, [`json`] reads and writes the few
//! documents involved, [`spec`] declares workloads and metrics,
//! [`yardstick`] is the hand-written round trip a run's timings are read
//! against, [`report`] turns a run into the result line, and [`compare`]
//! judges two sets of runs.
//!
//! See `README.md` beside this package for the method and every metric.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod deploy;
pub mod driver;
pub mod json;
pub mod report;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod yardstick;

// The unit tests assert on allocation counts, which needs the counting
// allocator installed in the test binary as it is in the two real ones.
#[cfg(test)]
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
