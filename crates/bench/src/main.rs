//! `ohpc-bench`: every experiment of the reproduction, one subcommand each.
//!
//! `cargo run -p ohpc-bench --release -- <subcommand>`, where the paper's
//! evaluation on the cluster simulator is `fig5`, `fig4`, `fig3`,
//! `overhead`, `loadbalance` and `contention` (the first two and the last
//! take `--network atm|ethernet|fast-ethernet`). Each prints CSV on stdout
//! (`results/*.csv`) and its table and verdicts on stderr. On the wall
//! clock, `mux` sweeps concurrent clients against the serialized-wire
//! bound, and `tracing`, `overload` and `selection` are gated
//! ([`ohpc_bench::gate`]): they exit 1 when a breach survives the
//! re-measures. A usage error exits 2.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use ohpc_bench::fig5::{Config, Network};
use ohpc_bench::mux_contention::{run_contention, serialized_bound_rps, CLIENT_WIDTHS};
use ohpc_bench::plot::{loglog, Series};
use ohpc_bench::{contention, fig3, fig4, fig5, gate, loadbalance, overhead};
use ohpc_netsim::LinkProfile;

const USAGE: &str =
    "usage: ohpc-bench <fig5|fig4|contention> [--network atm|ethernet|fast-ethernet]
       ohpc-bench <fig3|overhead|loadbalance|mux|tracing|overload|selection>";

#[derive(Debug, PartialEq)]
enum Command {
    Fig5(Network),
    Fig4(Network),
    Fig3,
    Overhead,
    LoadBalance,
    Contention(Network),
    Mux,
    Tracing,
    Overload,
    Selection,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("no subcommand".to_string());
    };
    let network = |default| match rest {
        [] => Ok(default),
        [flag, name] if flag == "--network" => {
            Network::parse(name).ok_or_else(|| format!("unknown network '{name}'"))
        }
        _ => Err(format!("unexpected arguments to {sub}: {}", rest.join(" "))),
    };
    let bare = |command| match rest {
        [] => Ok(command),
        _ => Err(format!("{sub} takes no arguments: {}", rest.join(" "))),
    };
    match sub.as_str() {
        "fig5" => network(Network::Atm).map(Command::Fig5),
        "fig4" => network(Network::Atm).map(Command::Fig4),
        "contention" => network(Network::Ethernet).map(Command::Contention),
        "fig3" => bare(Command::Fig3),
        "overhead" => bare(Command::Overhead),
        "loadbalance" => bare(Command::LoadBalance),
        "mux" => bare(Command::Mux),
        "tracing" => bare(Command::Tracing),
        "overload" => bare(Command::Overload),
        "selection" => bare(Command::Selection),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let measure = match parse(&args) {
        Err(e) => {
            eprintln!("ohpc-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::Tracing) => gate::tracing,
        Ok(Command::Overload) => gate::overload,
        Ok(Command::Selection) => gate::selection,
        Ok(Command::Fig5(network)) => return print_fig5(network),
        Ok(Command::Fig4(network)) => return print_fig4(network),
        Ok(Command::Fig3) => return print_fig3(),
        Ok(Command::Overhead) => return print_overhead(),
        Ok(Command::LoadBalance) => return print_loadbalance(),
        Ok(Command::Contention(network)) => return print_contention(network),
        Ok(Command::Mux) => return print_mux(),
    };
    match gate::gate(measure) {
        Ok(n) => {
            eprintln!("gate passes (measurement {n} of at most {})", gate::MEASUREMENTS);
            ExitCode::SUCCESS
        }
        Err(breach) => {
            eprintln!("GATE FAIL: {breach}");
            ExitCode::FAILURE
        }
    }
}

fn print_fig5(network: Network) -> ExitCode {
    let (net, sizes) = (network.name(), fig5::default_sizes());
    let largest = sizes.last().copied().unwrap_or(0);
    eprintln!("# Figure 5 reproduction — network={net}, sizes 1..{largest} ints, 4 configurations");
    let measurements = fig5::run(network, &sizes);

    println!("network,config,elements,payload_bytes,iterations,bandwidth_mbps");
    for fig5::Measurement { config, elements, payload_bytes, iterations, bandwidth_mbps } in
        &measurements
    {
        let config = config.label();
        println!("{net},{config},{elements},{payload_bytes},{iterations},{bandwidth_mbps:.4}");
    }

    let series: Vec<Series> = Config::all()
        .iter()
        .map(|c| Series {
            label: c.label().to_string(),
            glyph: c.glyph(),
            points: measurements
                .iter()
                .filter(|m| m.config == *c)
                .map(|m| (m.payload_bytes as f64, m.bandwidth_mbps))
                .collect(),
        })
        .collect();
    eprintln!();
    eprintln!("{}", loglog(&series, 72, 22, "payload size (bytes)", "bandwidth (Mbps)"));
    for v in fig5::verdicts(&measurements) {
        eprintln!("VERDICT: {v}");
    }
    ExitCode::SUCCESS
}

fn print_fig4(network: Network) -> ExitCode {
    eprintln!("# Figure 4 reproduction — migration walk over {}", network.name());
    let results = fig4::run(network.profile(), &[256, 16_384, 262_144]);

    println!("hop,machine,selected_protocol,served_before,elements,bandwidth_mbps");
    for (hop, fig4::HopResult { machine_name, selected, bandwidth, served_before }) in
        (1..).zip(&results)
    {
        for (elements, mbps) in bandwidth {
            println!("{hop},{machine_name},{selected},{served_before},{elements},{mbps:.4}");
        }
    }

    eprintln!("\nhop  machine  selected protocol              expected");
    let mut all_match = true;
    for (hop, (r, expected)) in (1..).zip(results.iter().zip(fig4::expected_selections())) {
        let ok = r.selected == expected;
        all_match &= ok;
        let mark = if ok { "  ✓" } else { "  ✗ MISMATCH" };
        eprintln!("{hop:>3}  {:<7}  {:<30} {expected}{mark}", r.machine_name, r.selected);
    }
    eprintln!(
        "\nVERDICT: selection sequence {} the paper's Figure 4 narrative",
        if all_match { "MATCHES" } else { "DOES NOT MATCH" }
    );
    if let (Some(first), Some(last)) = (results.first(), results.last()) {
        let f = first.bandwidth.last().map_or(0.0, |b| b.1);
        let l = last.bandwidth.last().map_or(0.0, |b| b.1);
        eprintln!(
            "VERDICT: final shared-memory hop is {:.1}x the first remote hop \
             ({l:.1} vs {f:.1} Mbps at the largest probe)",
            l / f
        );
    }
    ExitCode::SUCCESS
}

fn print_fig3() -> ExitCode {
    eprintln!("# Figure 3 scenario — asymmetric authentication with one shared GP");
    let phases = fig3::run(LinkProfile::fast_ethernet());

    println!("phase,p1_selected,p2_selected");
    let mut table = String::new();
    for fig3::Phase { label, p1_selected: p1, p2_selected: p2 } in &phases {
        println!("{label},{p1},{p2}");
        let _ = writeln!(table, "{label:<17}  P1(local LAN): {p1:<25} P2(remote LAN): {p2}");
    }
    let swapped = match phases.as_slice() {
        [before, after] => {
            before.p1_selected == after.p2_selected && before.p2_selected == after.p1_selected
        }
        _ => false,
    };
    eprintln!(
        "\n{table}\nVERDICT: roles {} after migration (paper: 'for P2, the authentication \
         capability becomes non-applicable … while for P1 … the glue protocol is chosen')",
        if swapped { "SWAPPED exactly" } else { "DID NOT swap" }
    );
    ExitCode::SUCCESS
}

fn print_overhead() -> ExitCode {
    eprintln!("# Capability CPU cost vs simulated wire time");
    let rows = overhead::run(&[64, 1024, 16 * 1024, 256 * 1024, 4 * 1024 * 1024], 20);

    println!("chain,payload_bytes,cpu_us,atm_wire_us,ethernet_wire_us,atm_overhead_pct");
    let mut table = format!(
        "{:<20} {:>12} {:>12} {:>14} {:>12}\n",
        "chain", "payload", "cpu (us)", "ATM wire (us)", "overhead %"
    );
    for r in &rows {
        let overhead::OverheadRow { label, payload_bytes: bytes, cpu_us: cpu, .. } = r;
        let (atm, eth, pct) = (r.atm_wire_us, r.ethernet_wire_us, r.atm_overhead_pct());
        println!("{label},{bytes},{cpu:.2},{atm:.2},{eth:.2},{pct:.2}");
        let _ = writeln!(table, "{label:<20} {bytes:>12} {cpu:>12.1} {atm:>14.1} {pct:>12.2}");
    }
    eprint!("\n{table}");
    ExitCode::SUCCESS
}

fn print_loadbalance() -> ExitCode {
    let p = loadbalance::Params::default();
    eprintln!(
        "# Load-balancing timeline: spike of {} load units on node0 at window {}",
        p.spike_load, p.spike_at
    );
    let with = loadbalance::run(true, p);
    let without = loadbalance::run(false, p);

    println!(
        "window,t_virtual_s,balanced_host,balanced_ms,unbalanced_host,unbalanced_ms,home_load"
    );
    let mut table = "window  host(balanced)  balanced ms  unbalanced ms   home load\n".to_string();
    for (a, b) in with.iter().zip(&without) {
        let (window, host, ms, load) = (a.window, &a.host, a.mean_response_ms, b.home_load);
        println!(
            "{window},{:.4},{host},{ms:.4},{},{:.4},{load:.2}",
            a.t_virtual_s, b.host, b.mean_response_ms
        );
        let marker = if a.host != "node0" { " <- migrated" } else { "" };
        let _ = writeln!(
            table,
            "{window:>6}  {host:<14}  {ms:>11.3}  {:>13.3}  {load:>9.2}{marker}",
            b.mean_response_ms
        );
    }
    let balanced = loadbalance::tail_latency(&with);
    let unbalanced = loadbalance::tail_latency(&without);
    eprintln!(
        "\n{table}\nVERDICT: post-spike tail latency {balanced:.3} ms (balanced) vs \
         {unbalanced:.3} ms (unbalanced) — {:.1}x better",
        unbalanced / balanced
    );
    ExitCode::SUCCESS
}

fn print_contention(network: Network) -> ExitCode {
    let net = network.name();
    eprintln!("# Contention sweep over shared {net} segment");
    let points = contention::run_sweep(network, &[1, 2, 4, 8]);

    println!("network,clients,queuing,aggregate_mbps,per_client_mbps,queue_wait_frac");
    let mut table = String::from("clients  queuing  aggregate Mbps  per-client Mbps  wait frac\n");
    for p in &points {
        let (clients, all, each) = (p.clients, p.aggregate_mbps, p.per_client_mbps);
        let wait = p.queue_wait_frac;
        println!("{net},{clients},{},{all:.4},{each:.4},{wait:.4}", p.queuing);
        let queuing = if p.queuing { "on" } else { "off" };
        let _ =
            writeln!(table, "{clients:>7}  {queuing:<7}  {all:>14.2}  {each:>15.2}  {wait:>9.2}");
    }
    eprintln!(
        "\n{table}\nVERDICT: with queuing the aggregate saturates at the segment's capacity; \
         the no-queuing ablation sails past it — the contention behaviour comes \
         from the shared-media model, not protocol costs"
    );
    ExitCode::SUCCESS
}

fn print_mux() -> ExitCode {
    let delay = Duration::from_millis(1);
    for clients in CLIENT_WIDTHS {
        let row = run_contention(clients, 40, delay);
        println!(
            "clients={clients:>3}  mux={:>8.1} req/s  serialized<={:>8.1} req/s  speedup={:.2}x",
            row.throughput_rps,
            serialized_bound_rps(delay),
            row.speedup_over_serialized(delay)
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Command, String> {
        parse(&line.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn every_subcommand_parses_and_the_sweeps_take_a_network() {
        for (line, command) in [
            ("fig5", Command::Fig5(Network::Atm)),
            ("fig5 --network ethernet", Command::Fig5(Network::Ethernet)),
            ("fig4", Command::Fig4(Network::Atm)),
            ("fig4 --network fast-ethernet", Command::Fig4(Network::FastEthernet)),
            ("fig3", Command::Fig3),
            ("overhead", Command::Overhead),
            ("loadbalance", Command::LoadBalance),
            ("contention", Command::Contention(Network::Ethernet)),
            ("contention --network atm", Command::Contention(Network::Atm)),
            ("mux", Command::Mux),
            ("tracing", Command::Tracing),
            ("overload", Command::Overload),
            ("selection", Command::Selection),
        ] {
            assert_eq!(parsed(line), Ok(command), "{line}");
        }
    }

    #[test]
    fn anything_else_is_a_usage_error() {
        for line in [
            "",
            "fig6",
            "fig5 --csv",
            "fig5 --network",
            "fig5 --network token-ring",
            "fig5 --network atm --network atm",
            "fig3 --network atm",
            "overload --gate",
            "tracing --max-tracing-overhead-pct 5",
            "selection out.json",
        ] {
            assert!(parsed(line).is_err(), "'{line}' should be a usage error");
        }
    }
}
