//! Object migration and load balancing for Open HPC++.
//!
//! The paper: "Open HPC++ provides a facility for objects to migrate from
//! one context to another" and migrates "when the load on the server's
//! machine increases beyond a high-water mark". This crate supplies both
//! halves:
//!
//! * [`Migratable`] + [`MigrationManager`] — state serialization, re-homing
//!   an object under its original identity, and CORBA-style tombstones so
//!   existing Global Pointers rebind transparently;
//! * [`LoadBalancer`] — the high/low-water-mark policy over
//!   [`ohpc_netsim::load::LoadTracker`] samples, producing deterministic
//!   migration plans the experiment harness executes.
//!
//! Consistency note: migration snapshots the object's state at
//! [`Migratable::serialize_state`] time. Requests that race the migration
//! window on the old context may observe (and mutate) the stale copy before
//! the tombstone lands; Open HPC++ (1999) had the same property. Quiesce the
//! object first if that matters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

mod balancer;
mod manager;

pub use balancer::{LoadBalancer, MigrationPlan, WaterMarks};
pub use manager::{Migratable, MigrateError, MigrationManager, ObjectFactory};
