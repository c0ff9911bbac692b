//! The operating-system side of the harness: pinning and process accounting.
//!
//! A small call through the ORB crosses about four thread hand-offs. On a
//! two-vCPU shared host, whether the peer vCPU happens to be halted decides
//! whether each hand-off costs 2 µs or 50 µs, so an unpinned run measures the
//! hypervisor (README, "Method"). Both binaries therefore pin the whole
//! process to one CPU before they spawn a thread, and refuse to run if that
//! fails.
//!
//! Linux on a 64-bit target only: the `extern "C"` declarations below rely on
//! `long` being 64 bits wide, and the `/proc` readers on procfs.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger harness needs 64-bit Linux (sched_setaffinity, getrusage, /proc)");

use std::time::Duration;

/// Words in the affinity mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// `struct rusage` as 64-bit Linux lays it out: two `timeval`s, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

const RUSAGE_SELF: i32 = 0;

// std links libc already; declaring the three symbols avoids a dependency
// the offline build cannot fetch.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

fn allowed_cpus() -> Result<[u64; MASK_WORDS], String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

/// Pins the calling thread — and so every thread it later spawns — to the
/// highest CPU of its allowed mask, and confirms the kernel now reports
/// exactly that CPU. Call before any thread exists. Returns the CPU index.
pub fn pin_to_highest_cpu() -> Result<usize, String> {
    let allowed = allowed_cpus()?;
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("the allowed CPU mask is empty")?;
    let mut want = [0u64; MASK_WORDS];
    want[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `want` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&want), want.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    if allowed_cpus()? != want {
        return Err(format!(
            "pinned to CPU {cpu} but the kernel reports another mask"
        ));
    }
    Ok(cpu)
}

/// What both binaries do before anything else: refuse to run with an
/// `OHPC_*` variable set (the program is measured as shipped), then pin.
/// Returns the CPU pinned to.
pub fn pin_as_shipped() -> Result<usize, String> {
    let set = program_variables_set();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the program is measured as shipped",
            set.join(", ")
        ));
    }
    pin_to_highest_cpu()
}

/// Whether the calling thread may run on exactly one CPU.
pub fn is_pinned() -> bool {
    allowed_cpus().is_ok_and(|m| m.iter().map(|w| w.count_ones()).sum::<u32>() == 1)
}

/// Process-wide accounting from `getrusage(RUSAGE_SELF)`: every thread,
/// living or exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Voluntary context switches (the thread blocked).
    pub vol_ctx: u64,
    /// Involuntary context switches (the thread was preempted).
    pub invol_ctx: u64,
}

impl Usage {
    /// Reads the counters now.
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the layout
        // 64-bit Linux defines; RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        if rc != 0 {
            return Usage::default();
        }
        let tv = |t: [i64; 2]| {
            Duration::from_secs(t[0].max(0) as u64) + Duration::from_micros(t[1].max(0) as u64)
        };
        Usage {
            cpu: tv(raw.utime) + tv(raw.stime),
            vol_ctx: raw.nvcsw.max(0) as u64,
            invol_ctx: raw.nivcsw.max(0) as u64,
        }
    }

    /// What accrued between `earlier` and `self`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            vol_ctx: self.vol_ctx.saturating_sub(earlier.vol_ctx),
            invol_ctx: self.invol_ctx.saturating_sub(earlier.invol_ctx),
        }
    }
}

/// A numeric field of `/proc/self/status`, e.g. `VmHWM` (kB) or `Threads`.
fn status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text
        .lines()
        .find(|l| l.strip_prefix(name).is_some_and(|r| r.starts_with(':')))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_field("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Threads alive in the process now.
pub fn thread_count() -> Option<u64> {
    status_field("Threads")
}

/// Names of the `OHPC_*` variables set in the environment. The program has
/// run-time switches behind them (worker count, queue bound, selection
/// cache, trace dumps); the benchmark measures it as shipped, so the
/// binaries refuse to start when this is not empty.
fn program_variables_set() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("OHPC_"))
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // Pin a scratch thread, not the test runner's.
        std::thread::spawn(|| {
            let cpu = pin_to_highest_cpu().expect("pin");
            assert!(is_pinned());
            let mask = allowed_cpus().expect("mask");
            assert_ne!(mask[cpu / 64] & (1 << (cpu % 64)), 0);
        })
        .join()
        .expect("pinned thread panicked");
    }

    #[test]
    fn usage_and_status_are_readable() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let spent = Usage::now().since(before);
        assert!(spent.cpu > Duration::ZERO);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.5));
        assert!(thread_count().is_some_and(|n| n >= 1));
    }
}
