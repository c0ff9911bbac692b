//! `ledger compare A B`: judge a change's runs against its parent's.
//!
//! A and B are directories of captured run outputs (the whole standard
//! output of a run: the run-facts line and the result line are picked out).
//! For every workload × end-to-end metric it prints both medians and
//! quartiles and applies the metric's own bound, the way the pipeline does —
//! so a change can check itself first. Per-layer metrics of traced runs are
//! listed with their medians, unjudged: they carry no bound.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::report::META_KEY;
use crate::spec::{MetricDecl, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, Better};

/// Values of one metric over a set's runs, keyed by (workload, traced, metric).
pub type RunSet = BTreeMap<(String, bool, String), Vec<f64>>;

/// One run: its workload, whether it was traced, its metrics by name.
type Run = (String, bool, Vec<(String, f64)>);

/// Picks the run-facts line and the result line out of one run's output.
fn parse_run(text: &str) -> Result<Run, String> {
    let mut facts = None;
    let mut result = None;
    for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        let Ok(v) = Json::parse(line) else { continue };
        if let Some(f) = v.get(META_KEY) {
            facts = Some(f.clone());
        } else if v.get("metrics").is_some() {
            result = Some(v);
        }
    }
    let facts = facts.ok_or("no run-facts line")?;
    let result = result.ok_or("no result line")?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("the run reported itself incorrect".into());
    }
    let workload = facts
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("run facts lack a workload")?;
    let traced = facts.get("trace").and_then(Json::as_f64) == Some(1.0);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((workload.to_string(), traced, metrics))
}

/// Loads every regular file directly under `dir` as one run's output.
pub fn load_dir(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (workload, traced, metrics) =
            parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for (name, value) in metrics {
            set.entry((workload.clone(), traced, name))
                .or_default()
                .push(value);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no run outputs found", dir.display()));
    }
    Ok(set)
}

/// How a change's runs of one metric stand against the parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is within the bound of the parent's.
    Ok,
    /// Every run of the change reads better than every run of the parent.
    Better,
    /// The change's median is worse than the parent's by more than the bound.
    Regression,
    /// The parent's own runs spread wider than the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// One metric's comparison.
#[derive(Debug, Clone, Copy)]
pub struct Judged {
    /// Parent's median.
    pub a_median: f64,
    /// Parent's quartiles.
    pub a_quartiles: (f64, f64),
    /// Change's median.
    pub b_median: f64,
    /// Change's quartiles.
    pub b_quartiles: (f64, f64),
    /// Share of the parent's median by which the change is worse (negative:
    /// better).
    pub worse_by: f64,
    /// Parent's inter-quartile distance as a share of its median.
    pub parent_spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges the change's runs `b` of `decl` against the parent's runs `a`.
/// Needs at least two runs a side (quartiles do).
pub fn judge(decl: &MetricDecl, a: &[f64], b: &[f64]) -> Option<Judged> {
    let (a_median, b_median) = (median(a)?, median(b)?);
    let (a_quartiles, b_quartiles) = (quartiles(a)?, quartiles(b)?);
    let toward_worse = match decl.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = toward_worse * (b_median - a_median) / a_median.abs();
    let parent_spread = (a_quartiles.1 - a_quartiles.0) / a_median.abs();
    let all_better = match decl.better {
        Better::Lower => {
            b.iter().cloned().fold(f64::MIN, f64::max) < a.iter().cloned().fold(f64::MAX, f64::min)
        }
        Better::Higher => {
            b.iter().cloned().fold(f64::MAX, f64::min) > a.iter().cloned().fold(f64::MIN, f64::max)
        }
    };
    let verdict = if all_better {
        Verdict::Better
    } else if parent_spread > decl.bound {
        Verdict::Unresolved
    } else if worse_by > decl.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Some(Judged {
        a_median,
        a_quartiles,
        b_median,
        b_quartiles,
        worse_by,
        parent_spread,
        verdict,
    })
}

/// Compares two run sets, printing one row per workload × metric. Returns
/// the number of regressions.
pub fn compare(a: &RunSet, b: &RunSet) -> usize {
    let mut regressions = 0;
    println!(
        "{:<18} {:<26} {:>13} {:>25} {:>13} {:>25} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse",
        "A iqr",
        "bound"
    );
    for wl in &WORKLOADS {
        for decl in &END_TO_END {
            let key = (wl.name.to_string(), false, decl.name.to_string());
            let (Some(av), Some(bv)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let Some(j) = judge(decl, av, bv) else {
                println!(
                    "{:<18} {:<26} needs at least two runs a side",
                    wl.name, decl.name
                );
                continue;
            };
            if j.verdict == Verdict::Regression {
                regressions += 1;
            }
            println!(
                "{:<18} {:<26} {:>13.4} {:>25} {:>13.4} {:>25} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                wl.name,
                decl.name,
                j.a_median,
                format!("[{:.4}, {:.4}]", j.a_quartiles.0, j.a_quartiles.1),
                j.b_median,
                format!("[{:.4}, {:.4}]", j.b_quartiles.0, j.b_quartiles.1),
                j.worse_by * 100.0,
                j.parent_spread * 100.0,
                decl.bound * 100.0,
                match j.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better (every run)",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (parent spread exceeds bound)",
                }
            );
        }
    }
    for wl in &WORKLOADS {
        for decl in &PER_LAYER {
            let key = (wl.name.to_string(), true, decl.name.to_string());
            let (Some(av), Some(bv)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (Some(am), Some(bm)) = (median(av), median(bv)) else {
                continue;
            };
            println!(
                "{:<18} {:<36} {:>13.4} -> {:>13.4} {}   ({} vs {} traced runs)",
                wl.name,
                decl.name,
                am,
                bm,
                decl.unit,
                av.len(),
                bv.len()
            );
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A latency and a rate with a 10 % bound, whatever the benchmark's
    /// own metrics are bounded at.
    fn decl(name: &str) -> &'static MetricDecl {
        const LATENCY: MetricDecl = MetricDecl {
            name: "rtt_p50_us",
            unit: "us",
            better: Better::Lower,
            bound: 0.10,
        };
        const RATE: MetricDecl = MetricDecl {
            name: "ops_per_s",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
        };
        if name == LATENCY.name {
            &LATENCY
        } else {
            &RATE
        }
    }

    #[test]
    fn steady_parent_and_small_change_is_ok() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [103.0, 104.0, 102.0, 103.5, 102.5];
        let j = judge(decl("rtt_p50_us"), &a, &b).unwrap();
        assert_eq!(j.verdict, Verdict::Ok);
        assert!((j.worse_by - 0.03).abs() < 1e-12);
    }

    #[test]
    fn a_change_worse_by_more_than_the_bound_is_a_regression() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(
            judge(decl("rtt_p50_us"), &a, &slower).unwrap().verdict,
            Verdict::Regression
        );
        // For a rate, lower is worse.
        let fewer = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(
            judge(decl("ops_per_s"), &a, &fewer).unwrap().verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(decl("ops_per_s"), &a, &slower).unwrap().verdict,
            Verdict::Better
        );
    }

    #[test]
    fn a_noisy_parent_leaves_the_pair_unresolved() {
        // Inter-quartile distance 30 % of the median, bound 10 %.
        let a = [80.0, 90.0, 100.0, 110.0, 120.0];
        let b = [95.0, 105.0, 100.0, 98.0, 102.0];
        let j = judge(decl("rtt_p50_us"), &a, &b).unwrap();
        assert!(j.parent_spread > 0.10);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        let clear = [60.0, 61.0, 62.0, 63.0, 64.0];
        assert_eq!(
            judge(decl("rtt_p50_us"), &a, &clear).unwrap().verdict,
            Verdict::Better
        );
        assert!(judge(decl("rtt_p50_us"), &a[..1], &b).is_none());
    }

    #[test]
    fn run_outputs_are_parsed_and_grouped() {
        let run = |value: f64| {
            format!(
                "# window table\nsetup_s 3.0 s\n{{\"{META_KEY}\": {{\"workload\": \"shm_small\", \"seed\": 1, \"trace\": 0}}}}\n{{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\"ops_per_s\": {{\"value\": {value}, \"unit\": \"1/s\"}}}}}}\n"
            )
        };
        let (workload, traced, metrics) = parse_run(&run(70_000.5)).unwrap();
        assert_eq!((workload.as_str(), traced), ("shm_small", false));
        assert_eq!(metrics, vec![("ops_per_s".to_string(), 70_000.5)]);
        assert!(parse_run("no json here").is_err());
        assert!(parse_run(&run(1.0).replace("true", "false")).is_err());

        let dir = std::env::temp_dir().join(format!("ledger-compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, v) in [70_000.0, 71_000.0, 72_000.0].iter().enumerate() {
            std::fs::write(dir.join(format!("run{i}.out")), run(*v)).unwrap();
        }
        let set = load_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let key = ("shm_small".to_string(), false, "ops_per_s".to_string());
        assert_eq!(set.get(&key), Some(&vec![70_000.0, 71_000.0, 72_000.0]));
        assert_eq!(compare(&set, &set), 0);
    }
}
