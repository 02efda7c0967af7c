//! End-to-end tests of the `sembfs` command-line binary.

use std::process::Command;

fn sembfs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sembfs"))
}

#[test]
fn info_prints_table2_rows() {
    let out = sembfs().args(["info", "--scale", "10"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("SCALE 10: 1024 vertices, 16384 edges"),
        "{text}"
    );
    for key in ["forward graph", "backward graph", "status data", "total"] {
        assert!(text.contains(key), "missing {key} in:\n{text}");
    }
}

#[test]
fn bfs_reports_official_statistics() {
    let out = sembfs()
        .args([
            "bfs",
            "--scale",
            "10",
            "--scenario",
            "flash",
            "--roots",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("DRAM+PCIeFlash"), "{text}");
    assert!(text.contains("median_TEPS"), "{text}");
    assert!(text.contains("score (median):"), "{text}");
}

#[test]
fn bfs_checksums_agree_across_thread_counts_on_the_split_layout() {
    let run = |threads: &str| {
        let out = sembfs()
            .args([
                "bfs",
                "--scale",
                "10",
                "--scenario",
                "flash",
                "--roots",
                "2",
            ])
            .args(["--backward-k", "4", "--threads", threads, "--checksum"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        let roots: Vec<String> = text
            .lines()
            .filter(|l| l.starts_with("root "))
            .map(String::from)
            .collect();
        assert_eq!(roots.len(), 2, "{text}");
        // Each line carries the run's device read plan, which a split
        // layout always exercises.
        for line in &roots {
            let requests: u64 = line
                .split("| device ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no device request count in {line:?}"));
            assert!(requests > 0, "{line}");
            assert!(line.ends_with(" bytes"), "{line}");
        }
        roots
    };
    assert_eq!(run("1"), run("4"));

    for bad in [["--scenario", "dram"], ["--backward-k", "x"]] {
        let out = sembfs()
            .args([
                "bfs",
                "--scale",
                "8",
                "--scenario",
                "flash",
                "--backward-k",
                "4",
            ])
            .args(bad)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
}

#[test]
fn recoverable_faults_leave_split_layout_trees_unchanged() {
    let run = |faults: &[&str]| {
        let out = sembfs()
            .args([
                "bfs",
                "--scale",
                "10",
                "--scenario",
                "flash",
                "--roots",
                "2",
            ])
            .args(["--backward-k", "4", "--threads", "2", "--checksum"])
            .args(faults)
            .output()
            .unwrap();
        assert!(out.status.success(), "{faults:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    // Retries add device requests, so only `root R: parent-tree D` is
    // compared.
    let trees = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("root "))
            .map(|l| l.split(" | ").next().unwrap().to_string())
            .collect()
    };
    let clean = run(&[]);
    let faulted = run(&["--faults", "seed=7,eio=0.1"]);
    assert_eq!(trees(&faulted), trees(&clean));
    assert_eq!(trees(&clean).len(), 2, "{clean}");
    assert!(!clean.contains("faults:"), "{clean}");
    let eio: u64 = faulted
        .lines()
        .find_map(|l| l.strip_prefix("faults: "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no fault summary in {faulted}"));
    assert!(eio > 0, "no fault fired: {faulted}");
}

#[test]
fn unparsable_values_and_unknown_scenarios_exit_with_code_2() {
    let cases: [&[&str]; 6] = [
        &["info", "--scale", "abc"],
        &["bfs", "--scale", "abc", "--roots", "1"],
        &["bfs", "--scale", "8", "--roots", "many"],
        &["bfs", "--scale", "8", "--scenario", "flsh"],
        &["bfs", "--scale", "8", "--threads", "-1"],
        &["query", "--scale", "8", "--scenario", "flsh"],
    ];
    for args in cases {
        let out = sembfs().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("--"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn generate_writes_a_loadable_edge_file() {
    let dir = sembfs_semext::TempDir::new("cli-gen").unwrap();
    let path = dir.path().join("edges.bin");
    let out = sembfs()
        .args(["generate", "--scale", "9", "--seed", "7", "--out"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    // 2^9 * 16 edges * 8 bytes.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 512 * 16 * 8);
    // And it matches in-memory generation.
    let ext = sembfs_graph500::ExtEdgeList::open(&path, 512).unwrap();
    let mem = sembfs_graph500::KroneckerParams::graph500(9, 7).generate();
    use sembfs_graph500::EdgeList;
    assert_eq!(ext.num_edges(), mem.num_edges());
}

#[test]
fn sweep_prints_the_grid() {
    let out = sembfs()
        .args(["sweep", "--scale", "9", "--roots", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("alpha"), "{text}");
    // Five α rows.
    assert!(text.matches("e2").count() + text.matches("1e2").count() > 0);
}

#[test]
fn query_validates_and_reports() {
    let out = sembfs()
        .args([
            "query",
            "--scale",
            "10",
            "--scenario",
            "flash",
            "--pairs",
            "2",
            "--workers",
            "2",
            "--cache-mb",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Every pair is cross-checked against the reference BFS in-process.
    assert!(text.contains("validated"), "{text}");
    assert!(text.contains("completed"), "{text}");
    assert!(text.contains("p99"), "{text}");
}

#[test]
fn serve_sim_runs_the_closed_loop() {
    let out = sembfs()
        .args([
            "serve-sim",
            "--scale",
            "10",
            "--scenario",
            "ssd",
            "--clients",
            "3",
            "--workers",
            "2",
            "--requests",
            "10",
            "--cache-mb",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("DRAM+SSD"), "{text}");
    // 3 clients × 10 requests all complete.
    assert!(text.contains("completed 30 ("), "{text}");
}

#[test]
fn unknown_command_prints_usage() {
    let out = sembfs().arg("frobnicate").output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage: sembfs"), "{err}");
}
