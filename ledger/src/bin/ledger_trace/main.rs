//! `ledger_trace`: the traced run. `ledger --trace 1` becomes this binary.
//!
//! It reruns the workload three ways and then runs the probes:
//!
//! 1. untraced, as `ledger` runs it (same deployment, same loop, the
//!    workload's own client count), for what the whole process does per op
//!    and for telemetry's own work;
//! 2. untraced with one client, as the base the tracing overhead is read
//!    against;
//! 3. with one client and an interposer at every extension point of the ORB
//!    (`interpose`), stamping spans into a pre-sized table (`spans`) that
//!    `analyze` cuts into per-layer segments.
//!
//! Unlike `ledger`, this binary names the ORB's extension traits and its
//! telemetry, runtime, Nexus and migration crates.

mod analyze;
mod interpose;
mod probes;
mod spans;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ohpc_orb::GlobalPointer;
use ohpc_telemetry::{Registry, TraceBuffer, Value as Sample};
use ohpc_xdr::{decode_from_slice, XdrEncode, XdrWriter};

use ledger::alloc::thread_allocs;
use ledger::cli::{RunArgs, RUN_USAGE};
use ledger::deploy::{payload, ECHO_SLOT};
use ledger::driver::{deploy_verified, run_workload, Outcome, Plan, UnitResult, UnitTally};
use ledger::report::{self, Value};
use ledger::spec::{Cap, Workload, PER_LAYER};
use ledger::stats::{best3_mean, median, Better};
use ledger::sys;

use analyze::{mean_of, median_of, typical, Segment, Unit};
use spans::{now_ns, Attr, Name, Side};

#[global_allocator]
static ALLOC: ledger::alloc::CountingAlloc = ledger::alloc::CountingAlloc;

/// Slots in the span table (48 bytes each). The traced phase samples every
/// k-th timed unit, k chosen after the warm-up so the table ends about half
/// full.
const SPAN_SLOTS: usize = 400_000;

/// Windows the reference and traced phases are cut into.
const WINDOWS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match RunArgs::parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("ledger_trace: {e}\nusage: ledger_trace {RUN_USAGE}");
            return ExitCode::from(2);
        }
    };
    match traced_run(&run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger_trace: {e}");
            ExitCode::from(2)
        }
    }
}

/// Sum of every counter increment and histogram observation the registry
/// has seen. Byte counters add a frame's length, not 1, so they are left
/// out: each rides beside a frame counter that is counted.
fn telemetry_events() -> u64 {
    Registry::global()
        .snapshot()
        .samples
        .iter()
        .map(|s| match &s.value {
            Sample::Counter(n) if !s.name.ends_with("_bytes_total") => *n,
            Sample::Histogram(h) => h.count,
            _ => 0,
        })
        .sum()
}

/// The workload untraced, exactly as `ledger` runs it, with `clients` clients.
fn untraced_phase(
    wl: &Workload,
    array: &Vec<i32>,
    plan: Plan,
    clients: usize,
) -> Result<Outcome, String> {
    let wl = Workload { clients, ..*wl };
    let dep = deploy_verified(&wl, array)?;
    let out = run_workload(&dep, &wl, array, plan);
    dep.shutdown();
    out
}

/// One timed unit through the manual stub — `XdrEncode`, `GlobalPointer`,
/// `XdrDecode`, what `remote_interface!` generates — with a span around
/// each step. Adjacent spans share their boundary stamp.
fn traced_unit(gp: &GlobalPointer, wl: &Workload, array: &Vec<i32>, sent: &mut u64) -> UnitResult {
    let client = Attr::on(Side::Client);
    let stamp = || (now_ns(), thread_allocs());
    let (t0, a0) = stamp();
    let root = spans::open_at(Name::Root, client, t0, a0, spans::NONE);
    let mut tally = UnitTally::new(wl.ops_per_unit() as u64);

    let (mut at, mut allocs) = (t0, a0);
    for _ in 0..wl.oneways_per_batch {
        let oneway = client.oneway(true);
        let encode = spans::open_at(Name::XdrClientEncode, oneway, at, allocs, spans::NONE);
        let mut args = XdrWriter::new();
        array.encode(&mut args);
        (at, allocs) = stamp();
        encode.close_at(at, allocs);
        let invoke = spans::open_at(Name::GpInvoke, oneway, at, allocs, spans::NONE);
        let result = gp.invoke_oneway(ECHO_SLOT, &args);
        (at, allocs) = stamp();
        invoke.close_at(at, allocs);
        match result {
            Ok(()) => *sent += 1,
            Err(e) => tally.fail(1, || format!("one-way echo not sent: {e}")),
        }
    }

    // The closing two-way call: `echo`, or `served()` after a batch.
    let batch = wl.oneways_per_batch > 0;
    let encode = spans::open_at(Name::XdrClientEncode, client, at, allocs, spans::NONE);
    let mut args = XdrWriter::new();
    if !batch {
        array.encode(&mut args);
    }
    (at, allocs) = stamp();
    encode.close_at(at, allocs);
    let invoke = spans::open_at(Name::GpInvoke, client, at, allocs, spans::NONE);
    let reply = gp.invoke(if batch { 2 } else { ECHO_SLOT }, &args);
    (at, allocs) = stamp();
    invoke.close_at(at, allocs);
    let decode = spans::open_at(Name::XdrClientDecode, client, at, allocs, spans::NONE);
    match reply {
        Err(e) => tally.fail(1, || format!("call failed: {e}")),
        Ok(body) if batch => match decode_from_slice::<u64>(&body) {
            Ok(served) => tally.check_served(served, sent),
            Err(e) => tally.fail(1, || format!("reply does not decode: {e}")),
        },
        Ok(body) => match decode_from_slice::<Vec<i32>>(&body) {
            Ok(echoed) if echoed == *array => {}
            Ok(_) => tally.fail(1, || "echo returned a different array".into()),
            Err(e) => tally.fail(1, || format!("reply does not decode: {e}")),
        },
    }
    (at, allocs) = stamp();
    decode.close_at(at, allocs);
    root.close_at(at, allocs);
    tally.finish()
}

struct Traced {
    spans: Vec<spans::Span>,
    units: Vec<Unit>,
    sampled_every: u64,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    phase_start_ns: u64,
    phase_ns: u64,
}

/// The traced phase: deploy with interposers, warm up with every unit
/// recorded (which also tells how many spans a unit makes and how fast
/// units go), then record every k-th unit for `measure`.
fn traced_phase(
    wl: &Workload,
    array: &Vec<i32>,
    warmup: Duration,
    measure: Duration,
) -> Result<Traced, String> {
    let dep = interpose::deploy_traced(wl)?;
    let mut sent = 0u64;
    let (mut attempted, mut failed, mut first_error) = (0u64, 0u64, None);
    let mut run_unit = |record: bool, op: u32| {
        if record {
            spans::set_op(op);
            spans::set_recording(true);
        }
        let (outcome, error) = traced_unit(&dep.gp, wl, array, &mut sent);
        attempted += outcome.ok + outcome.failed;
        failed += outcome.failed;
        if first_error.is_none() {
            first_error = error;
        }
    };

    let warm_until = Instant::now() + warmup;
    let mut warm_units = 0u64;
    while warm_units < 2 || Instant::now() < warm_until {
        run_unit(true, 0);
        warm_units += 1;
    }
    // Let the server threads close the spans they still hold before the
    // table is wiped, or a late close would land in a reused slot.
    let settle = || {
        spans::set_recording(false);
        std::thread::sleep(Duration::from_millis(5));
    };
    settle();
    let (recorded, dropped) = spans::recorded_and_dropped();
    let spans_per_unit = (recorded + dropped) as f64 / warm_units as f64;
    let units_per_s = warm_units as f64 / warmup.as_secs_f64().max(1e-3);
    let expected = units_per_s * measure.as_secs_f64() * spans_per_unit;
    let sampled_every = (expected / (SPAN_SLOTS as f64 / 2.0)).ceil().max(1.0) as u64;
    spans::reset();

    let phase_start_ns = now_ns();
    let until = Instant::now() + measure;
    let (mut n, mut op) = (0u64, 0u32);
    while n < 2 || Instant::now() < until {
        let record = n % sampled_every == 0;
        op += record as u32;
        run_unit(record, op);
        if record && sampled_every > 1 {
            spans::set_recording(false);
        }
        n += 1;
    }
    let phase_ns = now_ns() - phase_start_ns;
    settle();
    dep.shutdown();

    let spans = spans::snapshot();
    let mut units = analyze::units(&spans, !wl.caps.is_empty());
    if spans::recorded_and_dropped().1 > 0 {
        units.pop(); // the table filled inside the last recorded unit
    }
    Ok(Traced {
        spans,
        units,
        sampled_every,
        attempted,
        failed,
        first_error,
        phase_start_ns,
        phase_ns,
    })
}

/// Quiet-window median of the traced units' root spans, ns: the traced
/// phase cut into windows, each window's median, the best three's mean —
/// the estimator the untraced p50 it is compared with went through.
fn traced_p50_ns(t: &Traced) -> Option<f64> {
    let window = (t.phase_ns / WINDOWS as u64).max(1);
    let mut roots: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for u in &t.units {
        let w = (u.start_ns.saturating_sub(t.phase_start_ns) / window) as usize;
        if let Some(bucket) = roots.get_mut(w) {
            bucket.push(u.root_ns as f64);
        }
    }
    let medians: Vec<f64> = roots.iter().filter_map(|r| median(r)).collect();
    best3_mean(&medians, Better::Lower)
}

fn layer_values(wl: &Workload, t: &Traced, base_p50_ns: f64) -> Vec<Value> {
    let units = &t.units;
    let per_op = |x: f64| x / wl.ops_per_unit() as f64;
    let us = |ns: f64| ns / 1e3;
    let mut values: Vec<Value> = Vec::new();
    let middle = typical(units);
    let mut sum_of_segments = 0.0;
    for seg in Segment::ALL {
        let time = mean_of(&middle, |u| u.time_ns.get(&seg).copied().unwrap_or(0));
        sum_of_segments += time;
        let allocs = median_of(units, |u| u.allocs.get(&seg).copied().unwrap_or(0));
        let (time_name, allocs_name) = seg.metric_names();
        values.extend([(time_name, us(time)), (allocs_name, allocs)]);
    }
    for (cap, time_name, allocs_name) in [
        (Cap::Timeout, "caps.timeout_us", "caps.timeout_allocs"),
        (Cap::Security, "caps.security_us", "caps.security_allocs"),
    ] {
        let n = interpose::cap_number(cap);
        values.push((
            time_name,
            us(mean_of(&middle, |u| {
                u.cap_time_ns.get(&n).copied().unwrap_or(0)
            })),
        ));
        values.push((
            allocs_name,
            median_of(units, |u| u.cap_allocs.get(&n).copied().unwrap_or(0)),
        ));
    }
    let wire_bytes = median_of(units, |u| u.wire_bytes);
    values.extend([
        (
            "caps.calls_per_op",
            per_op(median_of(units, |u| u.cap_calls)),
        ),
        (
            "transport.frames_per_op",
            per_op(median_of(units, |u| u.frames)),
        ),
        ("transport.wire_bytes_per_op", per_op(wire_bytes)),
        (
            "transport.wire_overhead_frac",
            wire_bytes / wl.payload_bytes_per_unit() as f64 - 1.0,
        ),
        ("runtime.run_us", us(mean_of(&middle, |u| u.run_ns))),
        ("runtime.run_allocs", median_of(units, |u| u.run_allocs)),
        (
            "runtime.tasks_per_op",
            per_op(median_of(units, |u| u.tasks)),
        ),
        // The reported segments against the root span of the units they
        // were averaged over: 1 unless a segment went unreported.
        (
            "layers.sum_over_root",
            sum_of_segments / mean_of(&middle, |u| u.root_ns),
        ),
        (
            "trace.overhead_frac",
            traced_p50_ns(t).unwrap_or(f64::NAN) / base_p50_ns - 1.0,
        ),
    ]);
    values
}

fn print_segments(wl: &Workload, t: &Traced) {
    println!(
        "# traced {} units of {} op(s), every {}th recorded; {} spans; root median {:.2} us",
        t.units.len(),
        wl.ops_per_unit(),
        t.sampled_every,
        t.spans.len(),
        median_of(&t.units, |u| u.root_ns) / 1e3
    );
    println!("# segment                       mean_us   share  allocs   (typical units: middle half by root span)");
    let middle = typical(&t.units);
    let root = mean_of(&middle, |u| u.root_ns).max(1.0);
    for seg in Segment::ALL {
        let time = mean_of(&middle, |u| u.time_ns.get(&seg).copied().unwrap_or(0));
        let allocs = median_of(&t.units, |u| u.allocs.get(&seg).copied().unwrap_or(0));
        println!(
            "# {:<26} {:>11.3} {:>6.1}% {:>7.0}",
            seg.metric_names().0,
            time / 1e3,
            100.0 * time / root,
            allocs
        );
    }
}

fn traced_run(run: &RunArgs) -> Result<bool, String> {
    let cpu = sys::pin_as_shipped()?;
    spans::init(SPAN_SLOTS);
    let wl = run.workload;
    let array = payload(run.seed, wl.ints);
    let s = run.seconds;

    // 1. The workload as `ledger` runs it, for a third of the time, with the
    //    telemetry registry and the flight recorder read before and after.
    let plan = Plan::new(s / 3.0, WINDOWS);
    let (events0, spans0) = (telemetry_events(), TraceBuffer::global().recorded());
    let reference = untraced_phase(wl, &array, plan, wl.clients)?;
    let calls = (reference.ops_since_start + 1) as f64; // the first, verified call too
    let events_per_op = (telemetry_events() - events0) as f64 / calls;
    let spans_per_op = (TraceBuffer::global().recorded() - spans0) as f64 / calls;
    report::print_windows(&reference);

    // 2. One untraced client, cut into windows as long as the traced
    //    phase's: the base of `trace.overhead_frac`. A one-client workload's
    //    reference run already is that.
    let traced_time = Duration::from_secs_f64(s / 6.0);
    let base_plan = Plan {
        warmup: Duration::from_secs_f64(s / 30.0),
        windows: WINDOWS,
        window: traced_time / WINDOWS as u32,
        cycle: None,
    };
    let one_client = match wl.clients {
        1 => None,
        _ => Some(untraced_phase(wl, &array, base_plan, 1)?),
    };
    let base = one_client.as_ref().unwrap_or(&reference);
    let base_p50: Vec<f64> = base.windows.iter().filter_map(|w| w.p50_ns).collect();
    let base_p50_ns = best3_mean(&base_p50, Better::Lower).unwrap_or(f64::NAN);

    // 3. The traced phase.
    let traced = traced_phase(wl, &array, base_plan.warmup, traced_time)?;
    let untraced: Vec<&Outcome> = std::iter::once(&reference).chain(&one_client).collect();
    let mut problems = report::problems(&untraced);
    problems.extend(traced.first_error.clone());
    if traced.units.is_empty() {
        problems.push("the traced phase recorded no complete unit".into());
    }
    for u in &traced.units {
        if u.time_ns.values().sum::<u64>() != u.root_ns {
            problems.push("a unit's segments do not sum to its root span".into());
            break;
        }
    }
    print_segments(wl, &traced);
    let spans_path = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .with_file_name(format!("ledger_spans_{}.tsv", wl.name));
    spans::write_out(&spans_path, &traced.spans)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!("# spans written to {}", spans_path.display());

    // 4. Probes, each for a sixtieth of the time; frames the size the
    //    workload's own are.
    let budget = Duration::from_secs_f64(s / 60.0);
    let request = median_of(&traced.units, |u| u.request_frame as u64) as usize;
    let reply = median_of(&traced.units, |u| u.reply_frame as u64) as usize;
    let (nexus_small, nexus_bulk) = probes::nexus_rsr_rtt_us(budget * 2)?;
    let mut values: Vec<Value> = vec![
        (
            "xdr.vec_i32_encode_mib_per_s",
            probes::xdr_vec_encode_mib_per_s(budget)?,
        ),
        (
            "crypto.chacha20_mib_per_s",
            probes::chacha20_mib_per_s(budget)?,
        ),
        ("orb.select_walk_us", probes::select_walk_us(budget)?),
        (
            "transport.mem_bare_rtt_us",
            probes::mem_bare_rtt_us(budget, request, reply)?,
        ),
        (
            "transport.tcp_bare_rtt_us",
            probes::tcp_bare_rtt_us(budget, request, reply)?,
        ),
        ("runtime.pool_handoff_us", probes::pool_handoff_us(budget)?),
        ("nexus.rsr_rtt_us", nexus_small),
        ("nexus.rsr_bulk_rtt_us", nexus_bulk),
        (
            "migrate.move_and_rebind_ms",
            probes::migrate_move_and_rebind_ms(budget)?,
        ),
        (
            "deploy.cycle_ms",
            probes::deploy_cycle_ms(wl, ((50.0 * s / 30.0) as usize).clamp(5, 50))?,
        ),
        ("telemetry.counter_events_per_op", events_per_op),
        ("telemetry.spans_per_op", spans_per_op),
        (
            "yardstick.rtt_us",
            probes::yardstick_rtt_us(wl, budget * 2)?,
        ),
    ];
    values.extend(report::wall_clock(wl, &reference));
    values.extend(report::process_and_client(&reference));
    values.extend(layer_values(wl, &traced, base_p50_ns));

    println!("{}", report::meta_line(run, cpu, &plan));
    let attempted = untraced.iter().map(|o| o.attempted).sum::<u64>() + traced.attempted;
    let failed = untraced.iter().map(|o| o.failed).sum::<u64>() + traced.failed;
    Ok(report::print_result(
        &PER_LAYER, &values, attempted, failed, problems,
    ))
}
