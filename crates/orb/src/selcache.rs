//! Per-GP selection cache with epoch invalidation — the selection fast path.
//!
//! The paper's adaptivity rule ("the system selects an appropriate
//! proto-object for each individual remote request") is preserved by
//! *revalidation*, not by re-walking: a [`GlobalPointer`](crate::gp::GlobalPointer)
//! memoizes the last steady [`Selection`] together with the epoch values of
//! every input that could change it, and three atomic loads before each
//! attempt decide between serving the memo and falling back to the full
//! `select_with_health` walk.
//!
//! # Cache key
//!
//! | component | bumped by |
//! |---|---|
//! | `GlobalPointer::or_epoch` | `rebind` (incl. `Moved` forwards), effective `prefer`/`ban`, health-registry swaps |
//! | registry `Arc` pointer identity | `set_health_registry` (defense in depth against epoch reuse across registries) |
//! | `HealthRegistry::generation` | every breaker state transition |
//!
//! Any mismatch re-walks and refills. The pool is not a key: a GP holds it
//! as `Arc<ProtoPool>`, which cannot be edited once shared.
//!
//! The bump contract is pinned by the oracle proptest
//! `cached_selection_always_matches_the_uncached_walk`
//! (`tests/selection_cache.rs`), which interleaves every mutation with
//! invokes and compares each cached choice against an uncached walk; a
//! forgotten bump fails it. A new GP or breaker mutation adds an op to it.
//!
//! # What is never cached
//!
//! Only *steady* selections ([`Selection::steady`]) are stored: if any
//! breaker skipped a row (or every row was denied and the fallback probe
//! won), the choice depends on breaker cooldowns — state that changes with
//! time alone, without a generation bump until the next walk observes it.
//! Breaker-influenced attempts therefore always re-walk, which is exactly
//! the degraded path where the walk's per-row telemetry is worth its cost.
//!
//! # Hit-path cost
//!
//! A hit performs no heap allocation: the describe string is pre-rendered
//! (`Arc<str>`), the [`HealthKey`] is pre-computed, and all counters are
//! resolved handles ticked with one relaxed `fetch_add` each — the three
//! `orb_selection_cache_total{outcome}` by `counter!`, the per-protocol
//! `orb_selection_total` (a run-time label) kept in the memo.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ohpc_resilience::{HealthKey, HealthRegistry};
use ohpc_telemetry::{Counter, Registry};

use crate::ids::ObjectId;
use crate::selection::Selection;

/// One memoized attempt-ready selection: everything `attempt_once` needs,
/// pre-rendered so a hit allocates nothing.
pub(crate) struct CachedSelection {
    /// The selection itself (proto `Arc`, entry clone, index, steady flag).
    pub selection: Selection,
    /// `or.object` snapshot — guarded by the same `or_epoch` as the table.
    pub object: ObjectId,
    /// Pre-rendered `selection.describe()` (e.g. `glue[timeout]->tcp`).
    pub described: Arc<str>,
    /// Pre-computed health key of the selected entry's terminal endpoint.
    pub key: HealthKey,
    /// Pre-resolved `orb_selection_total{protocol,outcome="selected"}` so
    /// hits keep the per-request selection count honest without a registry
    /// lookup.
    selected_counter: Arc<Counter>,
    or_epoch: u64,
    health_ptr: usize,
    health_gen: u64,
}

/// Identity of a registry `Arc` for key comparison.
pub(crate) fn registry_ptr(health: &Arc<HealthRegistry>) -> usize {
    Arc::as_ptr(health) as usize
}

impl CachedSelection {
    /// Builds a memo stamped with the epoch values read *before* the walk
    /// that produced `selection` (see the fill-race note on
    /// [`SelectionCache::lookup`]).
    pub(crate) fn new(
        selection: Selection,
        object: ObjectId,
        described: Arc<str>,
        key: HealthKey,
        or_epoch: u64,
        health_ptr: usize,
        health_gen: u64,
    ) -> Self {
        let protocol = selection.entry.id.to_string();
        let selected_counter = Registry::global().counter(
            "orb_selection_total",
            &[("protocol", &protocol), ("outcome", "selected")],
        );
        Self {
            selection,
            object,
            described,
            key,
            selected_counter,
            or_epoch,
            health_ptr,
            health_gen,
        }
    }

    fn valid_for(&self, or_epoch: u64, health_ptr: usize, health_gen: u64) -> bool {
        self.or_epoch == or_epoch
            && self.health_ptr == health_ptr
            && self.health_gen == health_gen
    }
}

/// Outcome of a cache lookup, for telemetry and refill decisions.
pub(crate) enum Lookup {
    /// Keys matched: serve the memo.
    Hit(Arc<CachedSelection>),
    /// Slot empty — first use (or the cache is disabled).
    Miss,
    /// Slot occupied but at least one key moved.
    Invalidated,
}

/// The per-GP slot. One entry: a GP talks to one object, and its selection
/// changes only when an input epoch does.
#[derive(Default)]
pub(crate) struct SelectionCache {
    slot: Mutex<Option<Arc<CachedSelection>>>,
    /// Hits served since the last fill — cheap observability for tests and
    /// the introspection snapshot (`orb_selection_cache_total` is global;
    /// this is per-GP).
    hits: AtomicU64,
}

impl SelectionCache {
    /// Revalidates the memo against the current epoch values. Counts the
    /// outcome on the global `orb_selection_cache_total{outcome}` counters.
    ///
    /// Fill-race discipline: callers must read all three key values *before*
    /// walking the table, and stamp the memo with those pre-walk values. If
    /// a mutation lands between the key read and the walk, the memo is
    /// stamped with the old epoch while current counters have moved on — the
    /// next lookup misses and re-walks, which is the safe direction. Reading
    /// keys after the walk would allow the reverse: a fresh epoch stamped
    /// onto a stale walk, served forever.
    pub(crate) fn lookup(
        &self,
        or_epoch: u64,
        health_ptr: usize,
        health_gen: u64,
    ) -> Lookup {
        let slot = self.slot.lock();
        match &*slot {
            Some(c) if c.valid_for(or_epoch, health_ptr, health_gen) => {
                let c = c.clone();
                drop(slot);
                self.hits.fetch_add(1, Ordering::Relaxed);
                ohpc_telemetry::counter!("orb_selection_cache_total", "outcome" => "hit").inc();
                c.selected_counter.inc();
                Lookup::Hit(c)
            }
            Some(_) => {
                drop(slot);
                ohpc_telemetry::counter!("orb_selection_cache_total", "outcome" => "invalidated")
                    .inc();
                Lookup::Invalidated
            }
            None => {
                drop(slot);
                ohpc_telemetry::counter!("orb_selection_cache_total", "outcome" => "miss").inc();
                Lookup::Miss
            }
        }
    }

    /// Installs a freshly walked steady selection.
    pub(crate) fn fill(&self, cached: Arc<CachedSelection>) {
        *self.slot.lock() = Some(cached);
    }

    /// Hits served since construction.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}
