//! Allocation census: which source lines the heap traffic of one small call
//! comes from.
//!
//! `cargo run --release -p ohpc-bench --bin alloc_census -- <shm|glue_tcp|oneway|bulk>`
//!
//! Drives the shape of the ledger's `shm_small`, `glue_tcp_small_2c` (one
//! client), `oneway_stream` or `glue_sec_tcp_bulk` (a 262 144-int echo
//! through glue[timeout,security] over TCP) workload under an allocator that, for the
//! measured calls only, files every allocation of every thread under the
//! innermost frames of its backtrace that lie in this workspace. Size the
//! next allocation change from this table, not from a guess.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use ohpc_bench::local::{deploy, Wire, KEY_NAME};
use ohpc_caps::{EncryptionCap, TimeoutCap};
use ohpc_xdr::{XdrEncode, XdrWriter};

const WARMUP_OPS: usize = 1000;
const MEASURED_CALLS: usize = 50;
const FRAMES_PER_SITE: usize = 3;

struct Census;

static ON: AtomicBool = AtomicBool::new(false);
/// site → (allocations, bytes)
static SITES: Mutex<Option<HashMap<String, (u64, u64)>>> = Mutex::new(None);

thread_local! {
    /// Re-entrancy guard: capturing and filing a backtrace allocates.
    static BUSY: Cell<bool> = const { Cell::new(false) };
}

/// The innermost frames under `crates/` or `third_party/`, as `file:line`,
/// the census's own left out — unless they are all there is: an allocation
/// the census's own loop makes is filed under its innermost line.
fn site_of(backtrace: &str) -> String {
    let frames = backtrace.lines().filter_map(|l| l.trim_start().strip_prefix("at "));
    // The innermost frames are the allocator hook's.
    let callers = frames.skip_while(|at| at.contains("alloc_census")).filter_map(|at| {
        let from = at.find("crates/").or_else(|| at.find("third_party/"))?;
        Some(at.get(from..)?.rsplit_once(':')?.0)
    });
    let (own, others): (Vec<_>, Vec<_>) = callers.partition(|f| f.contains("alloc_census"));
    match own.first() {
        Some(line) if others.is_empty() => line.to_string(),
        _ => others.into_iter().take(FRAMES_PER_SITE).collect::<Vec<_>>().join(" < "),
    }
}

fn note(bytes: usize) {
    if !ON.load(Ordering::Relaxed) || BUSY.try_with(|b| b.replace(true)).unwrap_or(true) {
        return;
    }
    let site = site_of(&Backtrace::force_capture().to_string());
    if let Ok(mut sites) = SITES.lock() {
        let entry = sites.get_or_insert_with(HashMap::new).entry(site).or_default();
        *entry = (entry.0 + 1, entry.1 + bytes as u64);
    }
    let _ = BUSY.try_with(|b| b.set(false));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` never re-enters on its own
// allocations (`BUSY`) and touches no memory the caller handed over.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Census = Census;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_default();
    let small = vec![1, -2, 3, -4, 5];
    let budget = || TimeoutCap::spec(u64::MAX / 2);
    let (wire, caps, oneways_per_call, payload) = match which.as_str() {
        "shm" => (Wire::Shm, vec![], 0, small),
        "glue_tcp" => (Wire::TcpLoopback, vec![budget()], 0, small),
        "oneway" => (Wire::Shm, vec![], 63, small),
        "bulk" => {
            let caps = vec![budget(), EncryptionCap::spec(KEY_NAME)];
            (Wire::TcpLoopback, caps, 0, (0..262_144).collect())
        }
        _ => {
            eprintln!("usage: alloc_census <shm|glue_tcp|oneway|bulk>");
            std::process::exit(2);
        }
    };
    let (server, client) = deploy(wire, caps);
    let mut args = XdrWriter::new();
    payload.encode(&mut args);
    // One call: a two-way echo, or a batch of one-ways closed by the two-way
    // `served()` that proves the server has dispatched them all.
    let ops_per_call = oneways_per_call + 1;
    let call = || {
        for _ in 0..oneways_per_call {
            client.gp().invoke_oneway(1, &args).expect("one-way echo");
        }
        match oneways_per_call {
            0 => assert_eq!(client.echo(payload.clone()).expect("echo"), payload),
            _ => drop(client.served().expect("served")),
        }
    };
    (0..WARMUP_OPS.div_ceil(ops_per_call)).for_each(|_| call());
    ON.store(true, Ordering::SeqCst);
    (0..MEASURED_CALLS).for_each(|_| call());
    ON.store(false, Ordering::SeqCst);
    server.shutdown();

    let sites = SITES.lock().expect("census table").take().unwrap_or_default();
    let mut rows: Vec<_> = sites.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let ops = (MEASURED_CALLS * ops_per_call) as f64;
    let (allocs, bytes) = rows.iter().fold((0, 0), |t, (_, n)| (t.0 + n.0, t.1 + n.1));
    println!("{which}: {:.2} allocations, {:.1} bytes per op over {ops} ops", allocs as f64 / ops, bytes as f64 / ops);
    println!("{:>10} {:>10}  innermost in-workspace frames", "allocs/op", "bytes/op");
    for (site, (n, b)) in rows {
        println!("{:>10.2} {:>10.1}  {site}", n as f64 / ops, b as f64 / ops);
    }
}
