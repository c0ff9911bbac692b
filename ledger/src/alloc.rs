//! Counting allocator: how many heap allocations the request path makes.
//!
//! Both binaries install [`CountingAlloc`] as their `#[global_allocator]`.
//! It forwards to the system allocator and counts every `alloc`,
//! `alloc_zeroed` and `realloc` as one allocation of the size requested
//! (the new size, for `realloc`); frees are not counted.
//!
//! Counters live in a fixed table of per-thread slots. A thread claims a
//! slot on its first allocation and is then the slot's only writer, so
//! counting costs a thread-local read plus a plain load and store — no
//! locked instruction on the path being measured. The process-wide count is
//! the sum over slots; a thread's own count is its slot. Threads beyond the
//! table share the last slot with atomic adds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 256;
const UNCLAIMED: usize = usize::MAX;

/// One thread's counters, padded to a cache line so neighbouring threads do
/// not share one.
#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static TABLE: [Slot; SLOTS] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // const-initialised and without a destructor, so reading it from inside
    // the allocator neither allocates nor runs after thread teardown.
    static MY_SLOT: Cell<usize> = const { Cell::new(UNCLAIMED) };
}

fn my_slot() -> usize {
    MY_SLOT.with(|s| {
        let cur = s.get();
        if cur != UNCLAIMED {
            return cur;
        }
        let claimed = NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1);
        s.set(claimed);
        claimed
    })
}

#[inline]
fn count(size: usize) {
    let idx = my_slot();
    let slot = &TABLE[idx];
    if idx == SLOTS - 1 {
        // The overflow slot may have several writers.
        slot.allocs.fetch_add(1, Ordering::Relaxed);
        slot.bytes.fetch_add(size as u64, Ordering::Relaxed);
    } else {
        // Single writer: a load and a store are enough, and cheaper than a
        // locked add. Relaxed: the counters publish no other data.
        slot.allocs
            .store(slot.allocs.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        slot.bytes.store(
            slot.bytes.load(Ordering::Relaxed) + size as u64,
            Ordering::Relaxed,
        );
    }
}

/// The allocator both binaries install.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a destructor-free thread-local, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A reading of the counters: allocations made and bytes requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
}

impl Counts {
    /// What was counted between `earlier` and `self`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Counts over every thread of the process, living or exited.
pub fn process_counts() -> Counts {
    let mut total = Counts::default();
    for slot in &TABLE {
        total.allocs += slot.allocs.load(Ordering::Relaxed);
        total.bytes += slot.bytes.load(Ordering::Relaxed);
    }
    total
}

/// Allocations made so far by the calling thread (exact unless the thread
/// landed in the shared overflow slot).
pub fn thread_allocs() -> u64 {
    TABLE[my_slot()].allocs.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is installed for the test binary in `lib.rs`. Other
    // tests allocate concurrently on their own threads, so exact assertions
    // are on this thread's slot.

    #[test]
    fn allocations_and_bytes_are_counted_on_the_allocating_thread() {
        let before_thread = thread_allocs();
        let before = process_counts();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let after = process_counts().since(before);
        assert_eq!(thread_allocs() - before_thread, 1);
        assert!(after.allocs >= 1);
        assert!(after.bytes >= 4096);
    }

    #[test]
    fn realloc_counts_as_one_allocation_of_the_new_size() {
        let mut v: Vec<u8> = Vec::with_capacity(16);
        let before = thread_allocs();
        v.reserve_exact(1024);
        std::hint::black_box(&v);
        assert_eq!(thread_allocs() - before, 1);
    }
}
