//! Differential harness for the parallel hybrid BFS kernels (ISSUE 5).
//!
//! Runs the serial canonical `reference_bfs` against the 1/2/4/8-thread
//! hybrid across every storage layout (all-DRAM, external forward graph,
//! cold-tail backward offload) × device profiles × a recoverable
//! `FaultPlan`, asserting the parent trees are *bit-identical* — not just
//! level-equivalent — and that the `ValidationReport`s agree. The
//! min-parent CAS tie-break makes the tree a pure function of the graph,
//! so any divergence is a kernel bug, not an acceptable alternative tree.
//!
//! The same holds for the work counters: the bottom-up probe stops at its
//! first frontier neighbor on sorted backward lists, so every level's
//! DRAM and NVM scanned-edge counts equal those of a serial first-hit
//! scan of the reference frontiers, at every thread count. On the split
//! layouts each level's device requests and bytes also equal a model of
//! the read plan: top-down reads each frontier vertex's spans on their
//! own, and bottom-up reads, per work unit, the page footprint of the
//! head-missed vertices' gap-encoded tails as merged page runs. The plan depends on
//! the work units, not on which worker probes them, so it is the same at
//! every thread count.

use sembfs::core::parallel::BOTTOM_UP_CHUNK;
use sembfs::prelude::*;
use sembfs::semext::{ChunkedReader, DeviceProfile, FaultPlan};
use sembfs_csr::{build_csr, BuildOptions};
use sembfs_graph500::validate::{compute_levels, ValidationReport, INVALID_LEVEL};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn kron(scale: u32, seed: u64) -> MemEdgeList {
    KroneckerParams::graph500(scale, seed).generate()
}

/// A fault plan every read survives given the retry budget: transient
/// EIO, checksummed corruption (healed by `verify_pages`), short stalls.
fn recoverable_plan() -> FaultPlan {
    FaultPlan::parse("seed=29,eio=0.04,corrupt=0.03,stall=0.02,stall_us=40,retries=20")
        .expect("valid fault spec")
}

/// The three storage layouts of the ISSUE. `k = 4` puts a meaningful
/// share of backward edges on the device for a Kronecker graph (hubs far
/// exceed degree 4) while the hot prefix stays in DRAM.
fn layouts() -> Vec<(&'static str, Scenario, ScenarioOptions)> {
    let base = ScenarioOptions {
        topology: Topology::new(2, 2),
        ..Default::default()
    };
    vec![
        ("dram", Scenario::DramOnly, base.clone()),
        ("external-forward", Scenario::DramPcieFlash, base.clone()),
        (
            "cold-tail",
            Scenario::DramPcieFlash,
            ScenarioOptions {
                backward_offload_k: Some(4),
                ..base
            },
        ),
    ]
}

/// Serial oracle: canonical tree + its validation report.
fn oracle(edges: &MemEdgeList, root: VertexId) -> (Vec<VertexId>, ValidationReport) {
    let csr = build_csr(edges, BuildOptions::default()).unwrap();
    let parent = reference_bfs(&csr, root).parent;
    let report = validate_bfs_tree(&parent, root, edges).expect("reference tree validates");
    (parent, report)
}

fn assert_all_threads_match(
    edges: &MemEdgeList,
    scenario: Scenario,
    opts: &ScenarioOptions,
    label: &str,
) {
    let data = ScenarioData::build(edges, scenario, opts.clone()).unwrap();
    let roots = select_roots(data.csr().num_vertices(), 2, 7, |v| data.degree(v));
    let policy = scenario.best_policy();
    for &root in &roots {
        let (want_parent, want_report) = oracle(edges, root);
        for threads in THREADS {
            let cfg = BfsConfig::paper().with_threads(threads);
            let run = data.run(root, &policy, &cfg).unwrap();
            assert_eq!(
                run.parent, want_parent,
                "{label} root {root} threads {threads}: parent tree diverged"
            );
            let report = validate_bfs_tree(&run.parent, root, edges).unwrap();
            assert_eq!(
                report, want_report,
                "{label} root {root} threads {threads}: validation report diverged"
            );
        }
    }
}

#[test]
fn every_layout_matches_reference_at_every_thread_count() {
    let edges = kron(11, 41);
    for (label, scenario, opts) in layouts() {
        assert_all_threads_match(&edges, scenario, &opts, label);
    }
}

#[test]
fn device_profiles_do_not_change_the_tree() {
    let edges = kron(10, 77);
    for profile in [
        DeviceProfile::iodrive2(),
        DeviceProfile::intel_ssd_320(),
        DeviceProfile::nvme_gen4(),
    ] {
        for (label, scenario, mut opts) in layouts() {
            if scenario == Scenario::DramOnly {
                continue; // no device to override
            }
            let name = profile.name;
            opts.device_profile_override = Some(profile.clone());
            assert_all_threads_match(&edges, scenario, &opts, &format!("{label}/{name}"));
        }
    }
}

#[test]
fn recoverable_faults_leave_parallel_trees_bit_identical() {
    let edges = kron(10, 53);
    for (label, scenario, mut opts) in layouts() {
        if scenario == Scenario::DramOnly {
            continue; // fault plans apply to the device path
        }
        opts.fault_plan = Some(recoverable_plan());
        assert_all_threads_match(&edges, scenario, &opts, &format!("{label}/faulted"));
    }
}

#[test]
fn fixed_direction_parallel_kernels_match_reference() {
    // Force each kernel to run every level so both parallel paths are
    // exercised end-to-end (the best policies switch almost immediately).
    let edges = kron(10, 19);
    let data = ScenarioData::build(
        &edges,
        Scenario::DramPcieFlash,
        ScenarioOptions {
            topology: Topology::new(2, 2),
            ..Default::default()
        },
    )
    .unwrap();
    let root = select_roots(data.csr().num_vertices(), 1, 3, |v| data.degree(v))[0];
    let (want_parent, want_report) = oracle(&edges, root);
    for direction in [Direction::TopDown, Direction::BottomUp] {
        for threads in THREADS {
            let cfg = BfsConfig::paper().with_threads(threads);
            let run = data.run(root, &FixedPolicy(direction), &cfg).unwrap();
            assert_eq!(
                run.parent, want_parent,
                "{direction:?} threads {threads}: parent tree diverged"
            );
            let report = validate_bfs_tree(&run.parent, root, &edges).unwrap();
            assert_eq!(report, want_report);
        }
    }
}

/// Per-level `(dram_edges, nvm_edges)` of a serial scan of the reference
/// BFS's frontiers: top-down levels read every frontier edge (from NVM
/// when the forward graph is external); bottom-up levels probe each
/// unvisited vertex's sorted list up to its first frontier neighbor, the
/// first `k` entries from DRAM and the rest from the offloaded tail.
fn serial_first_hit_counts(
    sorted_adj: &[Vec<VertexId>],
    levels: &[u32],
    steps: &[(u32, Direction)],
    forward_external: bool,
    backward_k: Option<u64>,
) -> Vec<(u64, u64)> {
    steps
        .iter()
        .map(|&(level, direction)| {
            let in_frontier = |v: VertexId| levels[v as usize] == level - 1;
            match direction {
                Direction::TopDown => {
                    let scanned: u64 = (0..sorted_adj.len() as VertexId)
                        .filter(|&v| in_frontier(v))
                        .map(|v| sorted_adj[v as usize].len() as u64)
                        .sum();
                    if forward_external {
                        (0, scanned)
                    } else {
                        (scanned, 0)
                    }
                }
                Direction::BottomUp => {
                    let (mut dram, mut nvm) = (0, 0);
                    for (w, list) in sorted_adj.iter().enumerate() {
                        if levels[w] != INVALID_LEVEL && levels[w] < level {
                            continue; // visited before this step
                        }
                        let probes =
                            list.iter()
                                .position(|&v| in_frontier(v))
                                .map_or(list.len(), |i| i + 1) as u64;
                        let head = backward_k.map_or(probes, |k| probes.min(k));
                        dram += head;
                        nvm += probes - head;
                    }
                    (dram, nvm)
                }
            }
        })
        .collect()
}

/// `(requests, physical bytes)` of reading the page footprint of `spans`
/// from a `size`-byte store: every page a non-empty span touches, once, in
/// runs of contiguous pages no longer than the reader's merge limit, the
/// last page clipped at the end of the store.
fn page_runs(
    spans: impl Iterator<Item = (u64, u64)>,
    size: u64,
    reader: &ChunkedReader,
    device: &DeviceProfile,
) -> (u64, u64) {
    let page = reader.app_chunk() as u64;
    let run_pages = (reader.merge_limit() as u64 / page).max(1);
    let pages: std::collections::BTreeSet<u64> = spans
        .filter(|&(s, e)| e > s)
        .flat_map(|(s, e)| s / page..e.div_ceil(page))
        .collect();
    let mut runs: Vec<(u64, u64)> = Vec::new(); // (first page, pages)
    for p in pages {
        match runs.last_mut() {
            Some((first, len)) if *first + *len == p && *len < run_pages => *len += 1,
            _ => runs.push((p, 1)),
        }
    }
    let bytes = runs
        .iter()
        .map(|&(first, len)| device.physical_bytes(((first + len) * page).min(size) - first * page))
        .sum();
    (runs.len() as u64, bytes)
}

/// Bytes of `x` as a LEB128 varint: one per started group of 7 bits.
fn varint_len(x: u32) -> u64 {
    u64::from(32 - x.leading_zeros()).max(1).div_ceil(7)
}

/// Per-level `(requests, bytes)` the split layout's device must see.
/// Top-down levels read, per frontier vertex and domain, the forward index
/// pair and the domain's neighbor span, each span split into requests of
/// at most the reader's merge limit. Bottom-up levels read, per work unit
/// (one `BOTTOM_UP_CHUNK` range of one domain, as `par_bottom_up_step`
/// cuts them), the page runs over the tails (`list[k..]`, laid out in
/// vertex order in the tail value file as varint gaps, the first entry
/// absolute) of every unvisited vertex whose DRAM head (`list[..k]`) holds
/// no frontier neighbor. Bytes are physical (whole device transfer units).
fn first_hit_io(
    sorted_adj: &[Vec<VertexId>],
    levels: &[u32],
    steps: &[(u32, Direction)],
    backward_k: u64,
    part: &RangePartition,
    device: &Device,
) -> Vec<(u64, u64)> {
    let reader = ChunkedReader::for_device(device);
    let device = device.profile();
    let span = |bytes: u64| -> (u64, u64) {
        let requests = reader.requests_for(bytes as usize) as u64;
        let limit = reader.merge_limit() as u64;
        let (mut rest, mut physical) = (bytes, 0);
        while rest > 0 {
            let take = rest.min(limit);
            physical += device.physical_bytes(take);
            rest -= take;
        }
        (requests, physical)
    };
    // Byte span of each vertex's encoded tail in the tail value file.
    let cut = |list: &[VertexId]| (backward_k as usize).min(list.len());
    let mut tail_spans = Vec::with_capacity(sorted_adj.len());
    let mut end = 0u64;
    for list in sorted_adj {
        let start = end;
        let mut prev = 0;
        for &v in &list[cut(list)..] {
            end += varint_len(v - prev);
            prev = v;
        }
        tail_spans.push((start, end));
    }
    let tail_size = end;
    let units: Vec<std::ops::Range<u64>> = (0..part.num_domains())
        .flat_map(|k| {
            let range = part.range(k);
            range
                .clone()
                .step_by(BOTTOM_UP_CHUNK as usize)
                .map(move |s| s..(s + BOTTOM_UP_CHUNK).min(range.end))
        })
        .collect();
    steps
        .iter()
        .map(|&(level, direction)| {
            let in_frontier = |v: VertexId| levels[v as usize] == level - 1;
            let (mut requests, mut bytes) = (0, 0);
            let mut add = |(r, b): (u64, u64)| {
                requests += r;
                bytes += b;
            };
            match direction {
                Direction::TopDown => {
                    for (w, list) in sorted_adj.iter().enumerate() {
                        if !in_frontier(w as VertexId) {
                            continue;
                        }
                        for k in 0..part.num_domains() {
                            let in_k = list
                                .iter()
                                .filter(|&&v| part.domain_of(v as u64) == k)
                                .count() as u64;
                            add((1, device.physical_bytes(16)));
                            add(span(4 * in_k));
                        }
                    }
                }
                Direction::BottomUp => {
                    for unit in &units {
                        let missed = unit.clone().map(|w| w as usize).filter(|&w| {
                            let visited = levels[w] != INVALID_LEVEL && levels[w] < level;
                            let head = &sorted_adj[w][..cut(&sorted_adj[w])];
                            !visited && !head.iter().any(|&v| in_frontier(v))
                        });
                        add(page_runs(
                            missed.map(|w| tail_spans[w]),
                            tail_size,
                            &reader,
                            device,
                        ));
                    }
                }
            }
            (requests, bytes)
        })
        .collect()
}

#[test]
fn scanned_edges_equal_a_serial_first_hit_scan() {
    let edges = kron(11, 23);
    let base = ScenarioOptions {
        topology: Topology::new(2, 2),
        ..Default::default()
    };
    let split = |k: u64| ScenarioOptions {
        backward_offload_k: Some(k),
        ..base.clone()
    };
    let layouts = [
        ("dram", Scenario::DramOnly, base.clone()),
        ("split k=4", Scenario::DramPcieFlash, split(4)),
        ("split k=16", Scenario::DramPcieFlash, split(16)),
    ];
    for (label, scenario, opts) in layouts {
        assert_eq!(opts.delay_mode, DelayMode::Accounting);
        let backward_k = opts.backward_offload_k;
        let data = ScenarioData::build(&edges, scenario, opts).unwrap();
        let sorted_adj: Vec<Vec<VertexId>> = (0..data.num_vertices() as VertexId)
            .map(|v| {
                let mut list = data.csr().neighbors(v).to_vec();
                list.sort_unstable();
                list
            })
            .collect();
        let roots = select_roots(data.csr().num_vertices(), 2, 5, |v| data.degree(v));
        let best = scenario.best_policy();
        let policies: [&dyn DirectionPolicy; 3] = [
            &best,
            &AlphaBetaPolicy::new(14.0, 24.0),
            &FixedPolicy(Direction::BottomUp),
        ];
        for &root in &roots {
            let levels = compute_levels(&reference_bfs(data.csr(), root).parent, root).unwrap();
            for policy in policies {
                for threads in THREADS {
                    let cfg = BfsConfig::paper().with_threads(threads);
                    let run = data.run(root, policy, &cfg).unwrap();
                    let steps: Vec<(u32, Direction)> =
                        run.levels.iter().map(|l| (l.level, l.direction)).collect();
                    let got: Vec<(u64, u64)> = run
                        .levels
                        .iter()
                        .map(|l| (l.scanned_edges - l.nvm_edges, l.nvm_edges))
                        .collect();
                    let want = serial_first_hit_counts(
                        &sorted_adj,
                        &levels,
                        &steps,
                        scenario != Scenario::DramOnly,
                        backward_k,
                    );
                    assert_eq!(
                        got,
                        want,
                        "{label} root {root} {} threads {threads}: scanned edges differ",
                        policy.label()
                    );
                    let (Some(k), Some(device)) = (backward_k, data.device()) else {
                        continue;
                    };
                    let got_io: Vec<(u64, u64)> = run
                        .levels
                        .iter()
                        .map(|l| l.io.map(|io| (io.requests, io.bytes)).unwrap())
                        .collect();
                    let want_io =
                        first_hit_io(&sorted_adj, &levels, &steps, k, data.partition(), device);
                    assert_eq!(
                        got_io,
                        want_io,
                        "{label} root {root} {} threads {threads}: device requests/bytes differ",
                        policy.label()
                    );
                }
            }
        }
    }
}

#[test]
fn unsorted_input_on_the_split_layout_matches_reference() {
    // The caller does not sort: the backward-graph constructor must.
    let edges = kron(10, 61);
    let opts = ScenarioOptions {
        topology: Topology::new(2, 2),
        sort_neighbors: false,
        backward_offload_k: Some(4),
        ..Default::default()
    };
    let data = ScenarioData::build(&edges, Scenario::DramPcieFlash, opts).unwrap();
    let csr = data.csr();
    assert!(
        (0..csr.num_vertices() as VertexId).any(|v| !csr.neighbors(v).is_sorted()),
        "the input CSR must hold unsorted lists for this test to mean anything"
    );
    let roots = select_roots(csr.num_vertices(), 3, 11, |v| data.degree(v));
    let best = Scenario::DramPcieFlash.best_policy();
    let policies: [&dyn DirectionPolicy; 2] = [&best, &FixedPolicy(Direction::BottomUp)];
    for &root in &roots {
        let want = reference_bfs(csr, root).parent;
        for policy in policies {
            for threads in THREADS {
                let cfg = BfsConfig::paper().with_threads(threads);
                let run = data.run(root, policy, &cfg).unwrap();
                assert_eq!(
                    run.parent,
                    want,
                    "root {root} {} threads {threads}: parent tree diverged",
                    policy.label()
                );
            }
        }
    }
}
