//! Command line of the sembfs benchmark:
//!
//! ```text
//! sembfs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes (host facts, input fingerprints, window summary, and with
//! `--trace 1` the span self times and tracing overhead), then one JSON
//! line: `correct`, `attempted`, `failed` and the metrics. Exits 0 only
//! when every answer and check passed.

use std::path::PathBuf;
use std::process::ExitCode;

use sembfs_perfbench::{hidden_knobs, host_facts, run, RunConfig, Size, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: sembfs-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

/// Removes the run's data directory however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.len().is_multiple_of(2) {
        return usage("every option takes one value");
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let value = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown option or value: {other} {value}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let knobs = hidden_knobs();
    if !knobs.is_empty() {
        return usage(&format!(
            "refusing to run with {} set: the benchmark pins every knob itself",
            knobs.join(", ")
        ));
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let data_dir = DataDir(PathBuf::from(".bench_data").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    )));
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        size: Size::Full,
        threads,
        data_dir: data_dir.0.clone(),
    };
    println!("{}", host_facts(threads));
    let report = run(workload, &cfg);
    drop(data_dir);
    let _ = std::fs::remove_dir(".bench_data");
    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.problems {
        println!("problem: {problem}");
    }
    println!("{}", report.json(trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
