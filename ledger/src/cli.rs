//! The arguments of one run: `--workload W --seed N --seconds S --trace 0|1`.

use crate::spec::{self, Workload};

/// A parsed run request.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed of the echoed array's contents.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Usage text shared by both binaries.
pub const RUN_USAGE: &str = "--workload <shm_small|glue_sec_tcp_bulk|glue_tcp_small_2c|oneway_stream> --seed <n> --seconds <s> --trace <0|1>";

impl RunArgs {
    /// Parses the four flags, each required exactly once, in any order.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let dup = match flag.as_str() {
                "--workload" => workload
                    .replace(
                        spec::workload(value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                    .is_some(),
                "--seed" => seed
                    .replace(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {value}: {e}"))?,
                    )
                    .is_some(),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s.is_finite() && (0.1..=600.0).contains(&s)) {
                        return Err(format!("--seconds {value}: must be between 0.1 and 600"));
                    }
                    seconds.replace(s).is_some()
                }
                "--trace" => trace
                    .replace(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: must be 0 or 1")),
                    })
                    .is_some(),
                other => return Err(format!("unknown argument '{other}'")),
            };
            if dup {
                return Err(format!("{flag} given twice"));
            }
        }
        Ok(RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_pipelines_invocation() {
        let a = RunArgs::parse(&args(
            "--workload shm_small --seed 7 --seconds 30 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload.name, "shm_small");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, false));
        let b = RunArgs::parse(&args(
            "--trace 1 --seconds 2.5 --seed 0 --workload oneway_stream",
        ))
        .unwrap();
        assert!(b.trace && b.workload.oneways_per_batch == 63);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload shm_small --seed x --seconds 1 --trace 0",
            "--workload shm_small --seed 1 --seconds 0 --trace 0",
            "--workload shm_small --seed 1 --seconds inf --trace 0",
            "--workload shm_small --seed 1 --seconds 1 --trace 2",
            "--workload shm_small --seed 1 --seconds 1",
            "--workload shm_small --seed 1 --seed 2 --seconds 1 --trace 0",
            "--workload shm_small --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(RunArgs::parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
