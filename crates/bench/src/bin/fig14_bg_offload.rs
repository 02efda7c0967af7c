//! Figure 14: offloading the backward graph's cold tail (§VI-E).
//!
//! The paper keeps the first `k` edges of each vertex in DRAM and asks
//! how much of the backward graph could be offloaded and how often the
//! bottom-up probe would then hit NVM. Paper numbers (SCALE 27): with
//! k = 2 the DRAM-resident share is ~2.6 % of the backward graph but
//! 38.2 % of edge accesses go to NVM; with k = 32 the DRAM share is
//! ~15.1 % and only 0.7 % of accesses spill.
//!
//! The paper only *estimates* this (its bottom-up always runs from DRAM);
//! here the split layout actually executes, so the access ratio comes
//! from real probe counts.
//!
//! Both footprint columns are shares of the full raw backward CSR. The
//! DRAM share counts the head and the tail's two pinned indexes; the NVM
//! share is the tail as stored, gap-encoded, so the two no longer sum to
//! 100 %.

use sembfs_bench::{measure, BenchEnv, Table};
use sembfs_core::scenario::BackwardStore;
use sembfs_core::{Direction, Scenario, ScenarioOptions};

fn main() {
    let env = BenchEnv::from_env();
    env.print_header(
        "Figure 14: Backward-Graph Tail Offload (§VI-E)",
        "SCALE 27 — k=2: 2.6 % of BG in DRAM, 38.2 % accesses on NVM; \
         k=32: 15.1 % in DRAM, 0.7 % on NVM",
    );
    let edges = env.generate();

    let mut table = Table::new(&[
        "k (DRAM edges/vertex)",
        "BG in DRAM %",
        "BG on NVM %",
        "BU accesses on NVM %",
        "median MTEPS",
    ]);
    for k in [2u64, 4, 8, 16, 32] {
        let opts = ScenarioOptions {
            backward_offload_k: Some(k),
            ..env.accounting_options()
        };
        let data = env.build(&edges, Scenario::DramPcieFlash, opts);
        let roots = env.roots(&data);
        // The analysis figures run the paper's α=1e4, β=10α setting
        // (§VI-C); with β=1α the search never returns to top-down and the
        // late bottom-up levels rescan every unreachable vertex's tail,
        // drowning the statistic.
        let policy = sembfs_core::AlphaBetaPolicy::new(1e4, 1e5);
        let (runs, median) = measure(&data, &roots, &policy);

        let full_bg = data.csr().byte_size() as f64;
        let dram_share = 100.0 * data.backward_dram_bytes() as f64 / full_bg;
        let BackwardStore::Split(split) = data.backward() else {
            unreachable!("backward_offload_k splits the backward graph")
        };
        let nvm_share = 100.0 * split.nvm_byte_size() as f64 / full_bg;

        let (mut dram_probes, mut nvm_probes) = (0u64, 0u64);
        for run in &runs {
            for l in &run.levels {
                if l.direction == Direction::BottomUp {
                    dram_probes += l.scanned_edges - l.nvm_edges;
                    nvm_probes += l.nvm_edges;
                }
            }
        }
        let access_ratio = 100.0 * nvm_probes as f64 / (dram_probes + nvm_probes).max(1) as f64;
        table.row(&[
            k.to_string(),
            format!("{dram_share:.1}"),
            format!("{nvm_share:.1}"),
            format!("{access_ratio:.2}"),
            format!("{:.2}", median / 1e6),
        ]);
    }
    table.print();
    println!(
        "\npaper shape check: growing k raises the DRAM share and collapses the NVM \
         access ratio (the early-termination property of bottom-up)"
    );
}
