//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <compress|dist_tcp|serve_query> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed (the `scidata` surrogates),
//! measures for the given number of seconds, checks every output, prints its
//! metrics one per line (`name = value unit`), and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, the same three on every workload
//! (`setup_s`, `op_s`, `peak_rss_mb`), measured with tracing off; with
//! `--trace 1` they are the per-layer ones, from a run that records the
//! benchmark's own spans around its calls into each layer and writes them to
//! `.perfbench_out/`. The `manifest` module lists both, as `BENCHMARK.json`
//! does.
//!
//! The benchmark only calls public functions of the workspace crates.

mod compress;
mod dist;
mod input;
mod manifest;
mod report;
mod serve;
mod sys;
mod trace;

use report::Report;
use std::time::Duration;

/// ε of every workload (the paper's Tab. II tolerance).
pub const EPS: f64 = 1e-3;

/// Set-ups per run; `setup_s` is their median, which one set-up slowed by
/// the host cannot move.
pub const SETUPS: usize = 3;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compress,
    DistTcp,
    ServeQuery,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "compress" => Some(Workload::Compress),
            "dist_tcp" => Some(Workload::DistTcp),
            "serve_query" => Some(Workload::ServeQuery),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compress => "compress",
            Workload::DistTcp => "dist_tcp",
            Workload::ServeQuery => "serve_query",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is outside (0, 600]"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Writes a traced run's spans to `.perfbench_out/trace-<workload>-seed<n>.json`.
pub fn write_trace(args: &Args, spans: &[trace::Span]) {
    let dir = std::path::Path::new(".perfbench_out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace::to_json(spans)))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// A run that has not finished this long after its start is wedged: it
/// exits non-zero without a result. Set-up, warm-up and checks take a fixed
/// part; the window and the checks of what it produced (the served answers
/// of `serve_query`) grow with `--seconds`. 170 s at 15 s.
fn watchdog(seconds: f64) -> Duration {
    Duration::from_secs_f64(125.0 + 3.0 * seconds)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The program's own tracing stays off: the benchmark times from outside,
    // and spawned ranks inherit this environment.
    std::env::remove_var("TUCKER_TRACE");
    let worker = tucker_net::in_worker();
    let limit = watchdog(args.seconds);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        if !worker {
            eprintln!("perfbench: watchdog expired after {limit:?}");
        }
        std::process::exit(3);
    });

    let mut report: Report = match args.workload {
        Workload::Compress => compress::run(&args),
        Workload::DistTcp => dist::run(&args, &argv),
        Workload::ServeQuery => serve::run(&args),
    };
    if worker {
        // A spawned rank of `dist_tcp`: the launcher reports for the run.
        return;
    }
    // `failed_frac` is recorded after the check against the manifest, which
    // can fail the run too.
    let expected: Vec<(&str, &'static str)> = manifest::expected(args.trace)
        .iter()
        .copied()
        .filter(|&(name, _)| name != "failed_frac")
        .collect();
    report.conform(&expected, args.trace);
    let failed_frac = report.failed_frac();
    if args.trace {
        report.metric("failed_frac", failed_frac, "frac");
    }
    for m in report.metrics().iter().chain(report.notes()) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        println!("failed_frac = {failed_frac} frac");
    }
    for f in report.failures() {
        println!("FAILED: {f}");
    }
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv("--workload dist_tcp --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::DistTcp);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload compress --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload compress --seed 1 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload compress --seed")).is_err());
    }
}
