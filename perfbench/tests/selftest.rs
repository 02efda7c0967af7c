//! Self-tests of the benchmark at its smallest size: the exact work
//! counters repeat between runs of one seed, every check passes, traced
//! runs report every per-layer metric, hidden knobs are refused, and
//! `BENCHMARK.json` names what the binary reports.

use std::path::PathBuf;
use std::process::Command;

use sembfs_perfbench::{run, RunConfig, Size, Workload, END_TO_END, PER_LAYER};

fn config(tag: &str, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.2,
        trace,
        size: Size::Smoke,
        threads: 2,
        data_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}")),
    }
}

fn assert_clean(tag: &str, report: &sembfs_perfbench::Report) {
    assert!(
        report.correct(),
        "{tag}: failed {} of {}, problems {:?}",
        report.failed,
        report.attempted,
        report.problems
    );
}

#[test]
fn exact_counters_repeat_between_runs() {
    let workload = Workload::G500FlashOffload;
    let a = run(workload, &config("search-a", 3, false));
    let b = run(workload, &config("search-b", 3, false));
    assert_clean("search-a", &a);
    assert_clean("search-b", &b);
    let (ea, eb) = (a.exact.expect("counters"), b.exact.expect("counters"));
    assert_eq!(ea, eb, "exact counters differ between runs");
    assert!(ea.scanned_edges > 0, "nothing scanned");
    assert!(ea.device_requests > 0 && 2 * ea.nvm_edges > ea.scanned_edges);
}

#[test]
fn query_workload_answers_correctly_and_misses_the_cache() {
    let report = run(Workload::QueryFlashStarved, &config("query", 5, false));
    assert_clean("query", &report);
    for (name, _) in END_TO_END {
        let v = report.end_to_end[name];
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
}

#[test]
fn traced_runs_report_every_layer_metric() {
    for workload in Workload::ALL {
        let report = run(
            workload,
            &config(&format!("trace-{}", workload.name()), 7, true),
        );
        assert_clean(workload.name(), &report);
        let json = report.json(true);
        for (name, unit, _) in PER_LAYER {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")) && json.contains(unit),
                "{}: {name} missing",
                workload.name()
            );
        }
        assert!(report.per_layer["trace.run_wall_s"] > 0.0);
    }
}

#[test]
fn hidden_knobs_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_sembfs-perfbench"))
        .args(["--workload", "g500-flash-offload", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .env("SEMBFS_BFS_THREADS", "1")
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}

#[test]
fn benchmark_json_names_what_the_binary_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"why\""))
        .filter_map(|l| l.split('"').nth(3))
        .collect();
    assert_eq!(listed, Workload::ALL.map(|w| w.name()), "workloads");
    for (name, unit) in END_TO_END {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "end-to-end {name}"
        );
    }
    for (name, unit, better) in PER_LAYER {
        assert!(
            json.contains(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
            )),
            "per-layer {name}"
        );
    }
}
