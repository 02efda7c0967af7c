//! Ablation (§VI-D): `libaio`-style I/O aggregation.
//!
//! The paper observes small request sizes and long queues and concludes
//! "we may exploit further I/O performance of the devices by aggregating
//! small I/O operations such as libaio library". This implements that
//! aggregation — every top-down dequeue batch (64 vertices) becomes one
//! asynchronous device submission paying the access latency once and
//! reading the batch's page footprint as merged page runs — and compares
//! it against the synchronous per-request baseline.

use sembfs_bench::{mteps, BenchEnv, Table};
use sembfs_core::{AlphaBetaPolicy, BfsConfig, Scenario};

fn main() {
    let env = BenchEnv::from_env();
    env.print_header(
        "Ablation: synchronous read(2) vs libaio-style batch submission",
        "§VI-D proposes aggregation as future work; here it runs",
    );
    let edges = env.generate();

    // The analysis parameters (α=1e4, β=10α) keep some top-down levels so
    // the forward device actually gets traffic.
    let policy = AlphaBetaPolicy::new(1e4, 1e5);

    let mut table = Table::new(&[
        "scenario",
        "I/O mode",
        "median MTEPS",
        "TD phase ms/run",
        "TD speedup x",
    ]);
    for sc in [Scenario::DramPcieFlash, Scenario::DramSsd] {
        let mut base_td = None;
        for aggregate in [false, true] {
            let data = env.build(&edges, sc, env.measured_options());
            let roots = env.roots(&data);
            let cfg = if aggregate {
                BfsConfig::paper().with_aggregation()
            } else {
                BfsConfig::paper()
            };
            let runs: Vec<_> = roots
                .iter()
                .map(|&r| data.run(r, &policy, &cfg).expect("bfs"))
                .collect();
            let mut teps: Vec<f64> = runs.iter().map(|r| r.teps()).collect();
            teps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median = teps[teps.len() / 2];
            // The aggregation only touches the top-down (device) phase;
            // isolate its time so the effect is not diluted by the
            // DRAM-resident bottom-up phase.
            let td_ms: f64 = runs
                .iter()
                .flat_map(|r| &r.levels)
                .filter(|l| l.direction == sembfs_core::Direction::TopDown)
                .map(|l| l.elapsed.as_secs_f64() * 1e3)
                .sum::<f64>()
                / runs.len() as f64;
            let b = *base_td.get_or_insert(td_ms);
            table.row(&[
                sc.label().to_string(),
                if aggregate {
                    "libaio batch"
                } else {
                    "sync read(2)"
                }
                .to_string(),
                mteps(median),
                format!("{td_ms:.3}"),
                format!("{:.2}", b / td_ms),
            ]);
        }
    }
    table.print();
    println!(
        "\nexpected: aggregation amortizes the access latency across each 64-vertex \
         dequeue batch, helping most where latency dominates (small requests)"
    );
}
